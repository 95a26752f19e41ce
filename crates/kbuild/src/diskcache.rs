//! Persistent, digest-verified on-disk tier behind [`ConfigCache`],
//! [`ObjectCache`], and [`PreprocCache`].
//!
//! All three in-memory caches are content-addressed and immutable per
//! key, so persisting them is safe by construction: an entry loaded from
//! a previous run answers a lookup if and only if the *key* — which pins
//! everything the outcome depends on — matches, and a warm hit charges
//! the virtual clock exactly what a cold miss would, keeping reports
//! byte-identical cold vs. warm (the CI gate diffs them).
//!
//! What the disk can do that memory cannot is rot. Every record carries
//! an FNV-1a digest of its payload, written at store time and re-verified
//! on load; a mismatch (flipped bytes), a length that runs past the end
//! of its segment (truncation, torn write), an unparseable header, or a
//! payload that does not decode to the key its header names routes the
//! record through the same quarantine discipline the in-memory machinery
//! applies to corrupted shards: its bytes are copied to
//! `<root>/quarantine/`, its segment is rewritten without it, it is never
//! served, and it is counted in [`DiskTierStats`] and — when fault
//! injection is active — in the shared
//! [`FaultStats`](jmake_faults::FaultStats). The `jmake-faults` layer can
//! also corrupt disk loads deterministically ([`FaultSite::CacheLookup`]
//! with [`FaultKind::Corrupt`], keyed by the record's 16-hex key digest),
//! exercising the same detection path end-to-end.
//!
//! ## On-disk layout
//!
//! ```text
//! <root>/segments/<16-hex>.seg                  one immutable segment per store
//! <root>/quarantine/<segment>-<offset>.bad      records that failed verification
//! ```
//!
//! Each [`DiskCache::store`] writes every record not already held by some
//! segment into one new segment: a temporary file with a name unique to
//! the call, streamed through a buffer and `rename(2)`d into place, so a
//! reader never observes a partial segment under its final name. A store
//! with nothing new writes no file. Segments are never appended to; the
//! only rewrite is quarantine dropping a corrupt record (again temp file +
//! rename). A tree in the older one-file-per-entry layout (`objects/`,
//! `configs/`, `preproc/`) is ignored: it reads as a cold tier.
//!
//! ## Segment format
//!
//! ```text
//! jmake-cache v2\n
//! <kind> <16-hex key digest> <16-hex payload length> <16-hex payload digest>\n
//! <payload>
//! …one header + payload per record
//! ```
//!
//! `<kind>` is `object`, `config`, or `preproc`. Records are sorted by
//! (kind, key digest) and the segment is named by a digest of that key
//! list, so the same cache contents always give the same file. The
//! payload is a deterministic sequence of length-prefixed fields (no
//! escaping, so arbitrary file text round-trips byte-exactly).

use crate::arch::ArchRegistry;
use crate::build::{BuildConfig, BuildError, ConfigKind, IFile};
use crate::cache::ConfigCache;
use crate::hash::{ContentHash, Fnv};
use crate::objcache::{CachedObj, ObjKind, ObjectCache, ObjectKey};
use crate::ppcache::PreprocCache;
use jmake_cpp::error::CppErrorKind;
use jmake_cpp::{
    CppError, IncludeEffect, IncludeKey, MacroDef, MacroEvent, SyntaxError, Token, TokenKind,
};
use jmake_faults::{FaultKind, FaultSite, Faults};
use jmake_kconfig::{Config, Expr, KconfigModel, Symbol, SymbolType, Tristate};
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MAGIC: &[u8] = b"jmake-cache v2\n";

/// Longest well-formed record header, newline included.
const MAX_HEADER: u64 = 64;

/// Per-process counter that makes every temporary file name unique, so
/// two threads storing into one directory never share one.
static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

/// Counters for one load or store pass over the disk tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskTierStats {
    /// Object entries verified and loaded into the in-memory cache.
    pub objects_loaded: u64,
    /// Configuration entries verified and loaded.
    pub configs_loaded: u64,
    /// Object entries written (keys already on disk are never rewritten).
    pub objects_stored: u64,
    /// Configuration entries written.
    pub configs_stored: u64,
    /// Recorded header-inclusion effects verified and loaded into the
    /// in-memory [`PreprocCache`].
    pub preproc_loaded: u64,
    /// Header-inclusion effects written.
    pub preproc_stored: u64,
    /// Records (or unframeable segment tails) that failed verification
    /// and were moved to `<root>/quarantine/` — never served.
    pub entries_quarantined: u64,
}

impl DiskTierStats {
    /// Fold another pass's counters into this one.
    pub fn merge(&mut self, other: &DiskTierStats) {
        self.objects_loaded += other.objects_loaded;
        self.configs_loaded += other.configs_loaded;
        self.objects_stored += other.objects_stored;
        self.configs_stored += other.configs_stored;
        self.preproc_loaded += other.preproc_loaded;
        self.preproc_stored += other.preproc_stored;
        self.entries_quarantined += other.entries_quarantined;
    }
}

/// Which cache a record belongs to; the order is the segment's record
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Kind {
    Object,
    Config,
    Preproc,
}

impl Kind {
    fn tag(self) -> &'static str {
        match self {
            Kind::Object => "object",
            Kind::Config => "config",
            Kind::Preproc => "preproc",
        }
    }
}

/// One record's frame.
#[derive(Debug, Clone, Copy)]
struct Header {
    kind: Kind,
    key: u64,
    len: u64,
    digest: u64,
}

impl Header {
    fn render(&self) -> String {
        format!(
            "{} {:016x} {:016x} {:016x}\n",
            self.kind.tag(),
            self.key,
            self.len,
            self.digest
        )
    }

    fn parse(line: &[u8]) -> Option<Header> {
        let line = std::str::from_utf8(line).ok()?.strip_suffix('\n')?;
        let mut fields = line.split(' ');
        let tag = fields.next()?;
        let kind = [Kind::Object, Kind::Config, Kind::Preproc]
            .into_iter()
            .find(|k| k.tag() == tag)?;
        let mut hex = || {
            fields
                .next()
                .filter(|f| f.len() == 16 && f.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|f| u64::from_str_radix(f, 16).ok())
        };
        let header = Header {
            kind,
            key: hex()?,
            len: hex()?,
            digest: hex()?,
        };
        fields.next().is_none().then_some(header)
    }
}

/// One step of a segment scan.
enum Next {
    /// A framed record and its payload (empty when the scan skips
    /// payloads).
    Record(Header, Vec<u8>),
    /// Clean end of the segment.
    End,
    /// The bytes from the reader's position to the end of the file
    /// cannot be framed: bad magic, a malformed header, or a length that
    /// runs past EOF.
    Unframed,
}

/// Sequential reader over one segment's records.
struct Segment {
    reader: BufReader<File>,
    /// Offset of the next unread record; zero only when the magic is bad.
    pos: u64,
    len: u64,
}

impl Segment {
    fn open(path: &Path) -> io::Result<Segment> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        let mut reader = BufReader::new(file);
        let mut magic = [0u8; MAGIC.len()];
        let pos = match reader.read_exact(&mut magic) {
            Ok(()) if magic == MAGIC => MAGIC.len() as u64,
            _ => 0,
        };
        Ok(Segment { reader, pos, len })
    }

    /// The next record, reading its payload only when `payload` is set.
    fn next(&mut self, payload: bool) -> Next {
        if self.pos == 0 {
            return Next::Unframed;
        }
        if self.pos == self.len {
            return Next::End;
        }
        let mut line = Vec::new();
        if (&mut self.reader)
            .take(MAX_HEADER)
            .read_until(b'\n', &mut line)
            .is_err()
        {
            return Next::Unframed;
        }
        let Some(header) = Header::parse(&line) else {
            return Next::Unframed;
        };
        // Bound the length by the file before allocating for it.
        let start = self.pos + line.len() as u64;
        let Some(end) = start.checked_add(header.len).filter(|&end| end <= self.len) else {
            return Next::Unframed;
        };
        let mut body = Vec::new();
        let read = if payload {
            body.resize(header.len as usize, 0);
            self.reader.read_exact(&mut body)
        } else {
            // `end <= len`, and a file length fits in an i64.
            self.reader.seek_relative(header.len as i64)
        };
        if read.is_err() {
            return Next::Unframed;
        }
        self.pos = end;
        Next::Record(header, body)
    }
}

/// Handle to one on-disk cache directory. See the module docs for layout
/// and integrity rules.
#[derive(Debug, Clone)]
pub struct DiskCache {
    root: PathBuf,
    /// Keys of the segments this handle (or a clone) has read or
    /// written, so a store reads only the headers of segments that
    /// appeared since its last call.
    known: Arc<Mutex<KnownKeys>>,
}

/// The (kind, key digest) of every record in the segments named.
#[derive(Debug, Default)]
struct KnownKeys {
    segments: HashSet<PathBuf>,
    keys: HashSet<(Kind, u64)>,
}

impl DiskCache {
    /// Open (creating if needed) the cache rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(root.join("segments"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        Ok(DiskCache {
            root,
            known: Arc::default(),
        })
    }

    /// The cache's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Load every verifiable record into `objects`, `configs`, and
    /// `preproc`. Records that fail framing, digest verification, or
    /// decoding — including loads the fault plan corrupts — are
    /// quarantined, never served. Segments and the records in them are
    /// visited in sorted order, so the pass is deterministic.
    pub fn load(
        &self,
        objects: &ObjectCache,
        configs: &ConfigCache,
        preproc: &PreprocCache,
        faults: &Faults,
    ) -> io::Result<DiskTierStats> {
        let mut stats = DiskTierStats::default();
        let registry = ArchRegistry::new();
        for path in self.segments()? {
            // A segment that vanished since the listing was removed by a
            // concurrent quarantine.
            let Ok(mut seg) = Segment::open(&path) else {
                continue;
            };
            let mut bad = Vec::new();
            loop {
                let start = seg.pos;
                let (header, payload) = match seg.next(true) {
                    Next::Record(header, payload) => (header, payload),
                    Next::End => break,
                    Next::Unframed => {
                        bad.push(start..seg.len);
                        break;
                    }
                };
                match admit(&header, &payload, &registry, faults) {
                    Ok(Entry::Object(key, obj)) => {
                        objects.insert(key, Arc::new(obj));
                        stats.objects_loaded += 1;
                    }
                    Ok(Entry::Config(fingerprint, content_fp, cfg)) => {
                        let key = cfg.key().clone();
                        configs.insert(fingerprint, &key, content_fp, Arc::new(cfg));
                        stats.configs_loaded += 1;
                    }
                    Ok(Entry::Preproc(key, effect)) => {
                        preproc.insert(key, Arc::new(effect));
                        stats.preproc_loaded += 1;
                    }
                    Err(_) => bad.push(start..seg.pos),
                }
            }
            if !bad.is_empty() {
                stats.entries_quarantined += bad.len() as u64;
                if let Some(fault_stats) = faults.stats() {
                    fault_stats
                        .corruptions_detected
                        .fetch_add(bad.len() as u64, Ordering::Relaxed);
                }
                self.quarantine(&path, seg.len, &bad);
            }
        }
        Ok(stats)
    }

    /// Persist every entry held by `objects`, `configs`, and `preproc`
    /// whose key no segment holds yet, as one new segment. Records are
    /// encoded one at a time in (kind, key digest) order and streamed to
    /// a temporary file that is renamed into place once complete.
    pub fn store(
        &self,
        objects: &ObjectCache,
        configs: &ConfigCache,
        preproc: &PreprocCache,
    ) -> io::Result<DiskTierStats> {
        let mut stats = DiskTierStats::default();
        let objects = objects.snapshot();
        let configs = configs.snapshot();
        let preproc = preproc.snapshot();
        // (kind, key digest, snapshot index) of every record to write.
        let mut todo: Vec<(Kind, u64, usize)> = objects
            .iter()
            .enumerate()
            .map(|(i, (key, _))| (Kind::Object, object_key_digest(key), i))
            .chain(configs.iter().enumerate().map(|(i, ((fp, key, content_fp), _))| {
                let digest = config_key_digest(*fp, key.arch(), key.kind_key(), *content_fp);
                (Kind::Config, digest, i)
            }))
            .chain(
                preproc
                    .iter()
                    .enumerate()
                    .map(|(i, (key, _))| (Kind::Preproc, preproc_key_digest(key), i)),
            )
            .collect();
        {
            let known = self.known_keys()?;
            todo.retain(|&(kind, digest, _)| !known.keys.contains(&(kind, digest)));
        }
        todo.sort_unstable();
        todo.dedup_by_key(|(kind, digest, _)| (*kind, *digest));
        if todo.is_empty() {
            return Ok(stats);
        }

        // Name the segment by its key list, so equal contents share a name.
        let mut name = Fnv::new();
        for &(kind, key, _) in &todo {
            name.write(&[kind as u8]);
            name.write(&key.to_le_bytes());
        }
        let dest = self.root.join("segments").join(format!("{:016x}.seg", name.finish()));
        write_atomically(&dest, |out| {
            out.write_all(MAGIC)?;
            for &(kind, key, i) in &todo {
                let payload = match kind {
                    Kind::Object => encode_object_entry(&objects[i].0, &objects[i].1),
                    Kind::Config => {
                        let ((fp, _, content_fp), cfg) = &configs[i];
                        encode_config_entry(*fp, *content_fp, cfg)
                    }
                    Kind::Preproc => encode_preproc_entry(&preproc[i].0, &preproc[i].1),
                };
                let header = Header {
                    kind,
                    key,
                    len: payload.len() as u64,
                    digest: payload_digest(&payload),
                };
                out.write_all(header.render().as_bytes())?;
                out.write_all(&payload)?;
                match kind {
                    Kind::Object => stats.objects_stored += 1,
                    Kind::Config => stats.configs_stored += 1,
                    Kind::Preproc => stats.preproc_stored += 1,
                }
            }
            Ok(())
        })?;
        let mut known = self.known.lock().expect("known-key lock poisoned");
        known.keys.extend(todo.iter().map(|&(kind, key, _)| (kind, key)));
        known.segments.insert(dest);
        Ok(stats)
    }

    /// Every `.seg` file under `<root>/segments/`, sorted.
    fn segments(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(self.root.join("segments"))? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "seg") {
                out.push(path);
            }
        }
        out.sort();
        Ok(out)
    }

    /// The (kind, key digest) of every record some segment frames, read
    /// from the record headers alone. Segments already read are not read
    /// again: a segment is immutable once named, and the only rewrite,
    /// quarantine, removes records, which at worst leaves a key here that
    /// this handle then never writes again.
    fn known_keys(&self) -> io::Result<std::sync::MutexGuard<'_, KnownKeys>> {
        let mut known = self.known.lock().expect("known-key lock poisoned");
        for path in self.segments()? {
            if known.segments.contains(&path) {
                continue;
            }
            let Ok(mut seg) = Segment::open(&path) else {
                continue;
            };
            while let Next::Record(header, _) = seg.next(false) {
                known.keys.insert((header.kind, header.key));
            }
            known.segments.insert(path);
        }
        Ok(known)
    }

    /// Copy the `bad` byte ranges of a segment to `<root>/quarantine/`
    /// and rewrite the segment without them (removing it when no record
    /// survives) — the disk-tier analogue of flushing a corrupted
    /// in-memory shard. Best-effort: the bad records were already refused,
    /// and a failed rewrite only means the next load refuses them again.
    fn quarantine(&self, path: &Path, len: u64, bad: &[Range<u64>]) {
        let Ok(bytes) = std::fs::read(path) else {
            return;
        };
        if bytes.len() as u64 != len {
            // Rewritten by a concurrent quarantine since we framed it.
            return;
        }
        let stem = path.file_stem().unwrap_or_default().to_string_lossy();
        let mut kept = Vec::with_capacity(bytes.len());
        let mut at = 0;
        for range in bad {
            let (start, end) = (range.start as usize, range.end as usize);
            kept.extend_from_slice(&bytes[at..start]);
            let dest = self.root.join("quarantine").join(format!("{stem}-{start:016x}.bad"));
            let _ = std::fs::write(dest, &bytes[start..end]);
            at = end;
        }
        kept.extend_from_slice(&bytes[at..]);
        if kept.len() <= MAGIC.len() {
            let _ = std::fs::remove_file(path);
            return;
        }
        if write_atomically(path, |out| out.write_all(&kept)).is_err() {
            // Fall back to removal so the bad record cannot be re-read.
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Write `dest` through a temporary file whose name is unique to this
/// call, then rename it into place, so no reader ever sees it partial.
fn write_atomically(
    dest: &Path,
    fill: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = dest.with_extension(format!(
        "{}-{}.tmp",
        std::process::id(),
        NEXT_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    let written = File::create(&tmp)
        .and_then(|file| {
            let mut out = BufWriter::new(file);
            fill(&mut out)?;
            out.flush()
        })
        .and_then(|()| std::fs::rename(&tmp, dest));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written
}

/// One decoded record, ready to insert into its cache.
enum Entry {
    Object(ObjectKey, CachedObj),
    Config(u64, u64, BuildConfig),
    Preproc(IncludeKey, IncludeEffect),
}

/// Verify one framed record — payload digest (which the fault plan may
/// corrupt, simulating media rot), complete decoding, and a decoded key
/// that hashes to the key digest its header names.
fn admit(
    header: &Header,
    payload: &[u8],
    registry: &ArchRegistry,
    faults: &Faults,
) -> Result<Entry, String> {
    let mut served_digest = payload_digest(payload);
    if faults.is_enabled() {
        let identity = format!("{:016x}", header.key);
        if faults.decide(FaultSite::CacheLookup, &identity, 0) == Some(FaultKind::Corrupt) {
            served_digest ^= 0xdead_beef_dead_beef;
        }
    }
    if served_digest != header.digest {
        return Err("digest mismatch".to_string());
    }
    let (entry, key) = match header.kind {
        Kind::Object => {
            let (key, obj) = decode_object_entry(payload, registry)?;
            let digest = object_key_digest(&key);
            (Entry::Object(key, obj), digest)
        }
        Kind::Config => {
            let (fp, content_fp, cfg) = decode_config_entry(payload, registry)?;
            let digest = config_key_digest(fp, cfg.key().arch(), cfg.key().kind_key(), content_fp);
            (Entry::Config(fp, content_fp, cfg), digest)
        }
        Kind::Preproc => {
            let (key, effect) = decode_preproc_entry(payload)?;
            let digest = preproc_key_digest(&key);
            (Entry::Preproc(key, effect), digest)
        }
    };
    if key != header.key {
        return Err("key digest mismatch".to_string());
    }
    Ok(entry)
}

/// FNV-1a digest of a record payload.
fn payload_digest(payload: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.write(payload);
    h.finish()
}

/// Stable key digest for one object key.
fn object_key_digest(key: &ObjectKey) -> u64 {
    let mut h = Fnv::new();
    h.write(&key.blob.hi().to_le_bytes());
    h.write(&key.blob.lo().to_le_bytes());
    h.write(key.path.as_bytes());
    h.write(&key.include_fp.to_le_bytes());
    h.write(&key.env_fp.to_le_bytes());
    h.write(&[u8::from(key.module)]);
    h.write(key.arch.as_bytes());
    h.write(if key.kind == ObjKind::I { b"I" } else { b"O" });
    h.finish()
}

/// Stable key digest for one preprocess-memo key.
fn preproc_key_digest(key: &IncludeKey) -> u64 {
    let mut h = Fnv::new();
    h.write(key.path.as_bytes());
    h.write(&[0]);
    h.write(&key.closure_fp.to_le_bytes());
    h.write(&key.macro_fp.to_le_bytes());
    h.write(&key.pragma_fp.to_le_bytes());
    h.write(&key.depth.to_le_bytes());
    h.finish()
}

/// Stable key digest for one config-cache key.
fn config_key_digest(fingerprint: u64, arch: &str, kind_key: &str, content_fp: u64) -> u64 {
    let mut h = Fnv::new();
    h.write(&fingerprint.to_le_bytes());
    h.write(arch.as_bytes());
    h.write(&[0]);
    h.write(kind_key.as_bytes());
    h.write(&content_fp.to_le_bytes());
    h.finish()
}

// ---------------------------------------------------------------------------
// Payload encoding: deterministic length-prefixed fields.
// ---------------------------------------------------------------------------

/// Payload writer. Strings are length-prefixed raw bytes (no escaping),
/// numbers are fixed-width hex lines, so encoding is deterministic and
/// file text of any shape round-trips byte-exactly.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new() -> Enc {
        Enc { buf: Vec::new() }
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(format!("{v:016x}\n").as_bytes());
    }

    fn boolean(&mut self, v: bool) {
        self.buf.push(if v { b'y' } else { b'n' });
        self.buf.push(b'\n');
    }

    /// A short ASCII token (a variant tag).
    fn tag(&mut self, t: &str) {
        debug_assert!(t.bytes().all(|b| b.is_ascii_graphic()));
        self.buf.extend_from_slice(t.as_bytes());
        self.buf.push(b'\n');
    }

    fn str(&mut self, s: &str) {
        self.buf
            .extend_from_slice(format!("{}\n", s.len()).as_bytes());
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(b'\n');
    }

    fn opt_str(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                self.tag("some");
                self.str(s);
            }
            None => self.tag("none"),
        }
    }
}

/// Payload reader mirroring [`Enc`]. Every error is a short reason string
/// — the caller quarantines the entry, it never panics.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Dec<'a> {
        Dec { bytes, pos: 0 }
    }

    fn line(&mut self) -> Result<&'a str, String> {
        let rest = &self.bytes[self.pos..];
        let nl = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("truncated payload")?;
        let line = std::str::from_utf8(&rest[..nl]).map_err(|_| "non-utf8 field")?;
        self.pos += nl + 1;
        Ok(line)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let line = self.line()?;
        u64::from_str_radix(line, 16).map_err(|_| format!("bad number {line:?}"))
    }

    fn u32(&mut self) -> Result<u32, String> {
        u32::try_from(self.u64()?).map_err(|_| "number out of u32 range".to_string())
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.line()? {
            "y" => Ok(true),
            "n" => Ok(false),
            other => Err(format!("bad bool {other:?}")),
        }
    }

    fn tag(&mut self) -> Result<&'a str, String> {
        self.line()
    }

    fn str(&mut self) -> Result<String, String> {
        let len: usize = self
            .line()?
            .parse()
            .map_err(|_| "bad string length".to_string())?;
        let rest = &self.bytes[self.pos..];
        // The length comes from disk: `len + 1` must not overflow.
        if len.checked_add(1).is_none_or(|end| rest.len() < end) {
            return Err("truncated string".to_string());
        }
        let s = std::str::from_utf8(&rest[..len]).map_err(|_| "non-utf8 string")?;
        if rest[len] != b'\n' {
            return Err("unterminated string".to_string());
        }
        self.pos += len + 1;
        Ok(s.to_string())
    }

    fn opt_str(&mut self) -> Result<Option<String>, String> {
        match self.tag()? {
            "some" => Ok(Some(self.str()?)),
            "none" => Ok(None),
            other => Err(format!("bad option tag {other:?}")),
        }
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

// ---------------------------------------------------------------------------
// Object entries.
// ---------------------------------------------------------------------------

fn encode_object_entry(key: &ObjectKey, obj: &CachedObj) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(key.blob.hi());
    e.u64(key.blob.lo());
    e.str(&key.path);
    e.u64(key.include_fp);
    e.u64(key.env_fp);
    e.boolean(key.module);
    e.str(key.arch);
    match obj {
        CachedObj::I { text_len, result } => {
            e.tag("I");
            e.u64(*text_len);
            match result {
                Ok(ifile) => {
                    e.tag("ok");
                    e.str(&ifile.path);
                    e.str(&ifile.text);
                    // HashSet iteration order is nondeterministic; sort so
                    // equal entries encode to equal bytes.
                    let mut macros: Vec<&str> =
                        ifile.expanded_macros.iter().map(String::as_str).collect();
                    macros.sort_unstable();
                    e.u64(macros.len() as u64);
                    for m in macros {
                        e.str(m);
                    }
                    e.u64(ifile.includes.len() as u64);
                    for inc in &ifile.includes {
                        e.str(inc);
                    }
                }
                Err(msg) => {
                    e.tag("err");
                    e.str(msg);
                }
            }
        }
        CachedObj::O { text_len, result } => {
            e.tag("O");
            e.u64(*text_len);
            match result {
                Ok(()) => e.tag("ok"),
                Err(err) => {
                    e.tag("err");
                    encode_build_error(&mut e, err);
                }
            }
        }
    }
    e.buf
}

fn decode_object_entry(
    payload: &[u8],
    registry: &ArchRegistry,
) -> Result<(ObjectKey, CachedObj), String> {
    let mut d = Dec::new(payload);
    let blob = ContentHash::from_parts(d.u64()?, d.u64()?);
    let path: Arc<str> = Arc::from(d.str()?.as_str());
    let include_fp = d.u64()?;
    let env_fp = d.u64()?;
    let module = d.boolean()?;
    let arch_name = d.str()?;
    // Re-intern the architecture: the key wants the registry's 'static
    // name, and an arch this build does not know cannot be served.
    let arch = registry
        .get(&arch_name)
        .ok_or_else(|| format!("unknown arch {arch_name:?}"))?
        .name;
    let kind_tag = d.tag()?.to_string();
    let (kind, obj) = match kind_tag.as_str() {
        "I" => {
            let text_len = d.u64()?;
            let result = match d.tag()? {
                "ok" => {
                    let ipath = d.str()?;
                    let text = d.str()?;
                    let n_macros = d.u64()?;
                    let mut expanded_macros = HashSet::new();
                    for _ in 0..n_macros {
                        expanded_macros.insert(d.str()?);
                    }
                    let n_includes = d.u64()?;
                    let mut includes = Vec::new();
                    for _ in 0..n_includes {
                        includes.push(d.str()?);
                    }
                    Ok(IFile {
                        path: ipath,
                        text,
                        expanded_macros,
                        includes,
                    })
                }
                "err" => Err(d.str()?),
                other => return Err(format!("bad result tag {other:?}")),
            };
            (ObjKind::I, CachedObj::I { text_len, result })
        }
        "O" => {
            let text_len = d.u64()?;
            let result = match d.tag()? {
                "ok" => Ok(()),
                "err" => Err(decode_build_error(&mut d)?),
                other => return Err(format!("bad result tag {other:?}")),
            };
            (ObjKind::O, CachedObj::O { text_len, result })
        }
        other => return Err(format!("bad kind tag {other:?}")),
    };
    if !d.at_end() {
        return Err("trailing bytes".to_string());
    }
    Ok((
        ObjectKey {
            blob,
            path,
            include_fp,
            env_fp,
            module,
            arch,
            kind,
        },
        obj,
    ))
}

fn encode_build_error(e: &mut Enc, err: &BuildError) {
    match err {
        BuildError::UnknownArch(a) => {
            e.tag("unknown_arch");
            e.str(a);
        }
        BuildError::CrossCompilerMissing(a) => {
            e.tag("cross_compiler_missing");
            e.str(a);
        }
        BuildError::NoKconfig(a) => {
            e.tag("no_kconfig");
            e.str(a);
        }
        BuildError::KconfigParse(m) => {
            e.tag("kconfig_parse");
            e.str(m);
        }
        BuildError::MissingFile(p) => {
            e.tag("missing_file");
            e.str(p);
        }
        BuildError::NoMakefile(p) => {
            e.tag("no_makefile");
            e.str(p);
        }
        BuildError::NotEnabled(p) => {
            e.tag("not_enabled");
            e.str(p);
        }
        BuildError::SetupCompilationFailed(p) => {
            e.tag("setup_compilation_failed");
            e.str(p);
        }
        BuildError::PreprocessFailed { file, first_error } => {
            e.tag("preprocess_failed");
            e.str(file);
            e.str(first_error);
        }
        BuildError::FrontEndRejected { file, error } => {
            e.tag("front_end_rejected");
            e.str(file);
            encode_syntax_error(e, error);
        }
        BuildError::RetriesExhausted { op, attempts } => {
            e.tag("retries_exhausted");
            e.str(op);
            e.u64(u64::from(*attempts));
        }
    }
}

fn decode_build_error(d: &mut Dec) -> Result<BuildError, String> {
    Ok(match d.tag()? {
        "unknown_arch" => BuildError::UnknownArch(d.str()?),
        "cross_compiler_missing" => BuildError::CrossCompilerMissing(d.str()?),
        "no_kconfig" => BuildError::NoKconfig(d.str()?),
        "kconfig_parse" => BuildError::KconfigParse(d.str()?),
        "missing_file" => BuildError::MissingFile(d.str()?),
        "no_makefile" => BuildError::NoMakefile(d.str()?),
        "not_enabled" => BuildError::NotEnabled(d.str()?),
        "setup_compilation_failed" => BuildError::SetupCompilationFailed(d.str()?),
        "preprocess_failed" => BuildError::PreprocessFailed {
            file: d.str()?,
            first_error: d.str()?,
        },
        "front_end_rejected" => BuildError::FrontEndRejected {
            file: d.str()?,
            error: decode_syntax_error(d)?,
        },
        "retries_exhausted" => BuildError::RetriesExhausted {
            op: intern_fault_op(&d.str()?)?,
            attempts: d.u32()?,
        },
        other => return Err(format!("bad error tag {other:?}")),
    })
}

/// Map a serialized retry-site name back to the `'static` string the
/// fault layer uses. The set is closed — an unknown name means a corrupt
/// or incompatible entry.
fn intern_fault_op(name: &str) -> Result<&'static str, String> {
    for site in [
        FaultSite::Checkout,
        FaultSite::Show,
        FaultSite::ConfigSolve,
        FaultSite::MakeI,
        FaultSite::MakeO,
        FaultSite::CacheLookup,
    ] {
        if site.name() == name {
            return Ok(site.name());
        }
    }
    Err(format!("unknown fault op {name:?}"))
}

fn encode_syntax_error(e: &mut Enc, err: &SyntaxError) {
    match err {
        SyntaxError::InvalidCharacter { ch, line } => {
            e.tag("invalid_character");
            e.u64(u64::from(*ch as u32));
            e.u64(u64::from(*line));
        }
        SyntaxError::UnbalancedDelimiter { ch, line } => {
            e.tag("unbalanced_delimiter");
            e.u64(u64::from(*ch as u32));
            e.u64(u64::from(*line));
        }
        SyntaxError::UnterminatedLiteral { line } => {
            e.tag("unterminated_literal");
            e.u64(u64::from(*line));
        }
        SyntaxError::EmptyTranslationUnit => e.tag("empty_translation_unit"),
    }
}

fn decode_syntax_error(d: &mut Dec) -> Result<SyntaxError, String> {
    let ch_of = |v: u32| char::from_u32(v).ok_or_else(|| format!("bad char {v:#x}"));
    Ok(match d.tag()? {
        "invalid_character" => SyntaxError::InvalidCharacter {
            ch: ch_of(d.u32()?)?,
            line: d.u32()?,
        },
        "unbalanced_delimiter" => SyntaxError::UnbalancedDelimiter {
            ch: ch_of(d.u32()?)?,
            line: d.u32()?,
        },
        "unterminated_literal" => SyntaxError::UnterminatedLiteral { line: d.u32()? },
        "empty_translation_unit" => SyntaxError::EmptyTranslationUnit,
        other => return Err(format!("bad syntax-error tag {other:?}")),
    })
}

// ---------------------------------------------------------------------------
// Preproc entries: recorded header-inclusion effects.
// ---------------------------------------------------------------------------

fn encode_preproc_entry(key: &IncludeKey, effect: &IncludeEffect) -> Vec<u8> {
    let mut e = Enc::new();
    e.str(&key.path);
    e.u64(key.closure_fp);
    e.u64(key.macro_fp);
    e.u64(key.pragma_fp);
    e.u64(u64::from(key.depth));
    e.str(&effect.chunk);
    encode_opt_marker(&mut e, effect.exit_marker.as_ref());
    e.u64(effect.errors.len() as u64);
    for err in &effect.errors {
        encode_cpp_error(&mut e, err);
    }
    e.u64(effect.expanded.len() as u64);
    for name in &effect.expanded {
        e.str(name);
    }
    e.u64(effect.includes.len() as u64);
    for inc in &effect.includes {
        e.str(inc);
    }
    e.u64(effect.pragma_adds.len() as u64);
    for p in &effect.pragma_adds {
        e.str(p);
    }
    e.u64(effect.macro_events.len() as u64);
    for event in &effect.macro_events {
        match event {
            MacroEvent::Define(def) => {
                e.tag("define");
                encode_macro_def(&mut e, def);
            }
            MacroEvent::Undef(name) => {
                e.tag("undef");
                e.str(name);
            }
        }
    }
    encode_opt_marker(&mut e, effect.first_flush.as_ref());
    e.buf
}

fn decode_preproc_entry(payload: &[u8]) -> Result<(IncludeKey, IncludeEffect), String> {
    let mut d = Dec::new(payload);
    let key = IncludeKey {
        path: d.str()?,
        closure_fp: d.u64()?,
        macro_fp: d.u64()?,
        pragma_fp: d.u64()?,
        depth: d.u32()?,
    };
    let chunk = d.str()?;
    let exit_marker = decode_opt_marker(&mut d)?;
    let n_errors = d.u64()?;
    let mut errors = Vec::new();
    for _ in 0..n_errors {
        errors.push(decode_cpp_error(&mut d)?);
    }
    let strs = |d: &mut Dec| -> Result<Vec<String>, String> {
        let n = d.u64()?;
        (0..n).map(|_| d.str()).collect()
    };
    let expanded = strs(&mut d)?;
    let includes = strs(&mut d)?;
    let pragma_adds = strs(&mut d)?;
    let n_events = d.u64()?;
    let mut macro_events = Vec::new();
    for _ in 0..n_events {
        macro_events.push(match d.tag()? {
            "define" => MacroEvent::Define(Arc::new(decode_macro_def(&mut d)?)),
            "undef" => MacroEvent::Undef(d.str()?),
            other => return Err(format!("bad macro-event tag {other:?}")),
        });
    }
    let first_flush = decode_opt_marker(&mut d)?;
    if !d.at_end() {
        return Err("trailing bytes".to_string());
    }
    Ok((
        key,
        IncludeEffect {
            chunk,
            exit_marker,
            errors,
            expanded,
            includes,
            pragma_adds,
            macro_events,
            first_flush,
        },
    ))
}

/// An optional `(file, line)` output marker.
fn encode_opt_marker(e: &mut Enc, marker: Option<&(String, u32)>) {
    match marker {
        Some((file, line)) => {
            e.tag("some");
            e.str(file);
            e.u64(u64::from(*line));
        }
        None => e.tag("none"),
    }
}

fn decode_opt_marker(d: &mut Dec) -> Result<Option<(String, u32)>, String> {
    match d.tag()? {
        "some" => Ok(Some((d.str()?, d.u32()?))),
        "none" => Ok(None),
        other => Err(format!("bad option tag {other:?}")),
    }
}

fn encode_macro_def(e: &mut Enc, def: &MacroDef) {
    e.str(&def.name);
    match &def.params {
        None => e.tag("none"),
        Some(params) => {
            e.tag("some");
            e.u64(params.len() as u64);
            for p in params {
                e.str(p);
            }
        }
    }
    e.boolean(def.variadic);
    e.u64(def.body.len() as u64);
    for t in &def.body {
        encode_token(e, t);
    }
}

fn decode_macro_def(d: &mut Dec) -> Result<MacroDef, String> {
    let name = d.str()?;
    let params = match d.tag()? {
        "none" => None,
        "some" => {
            let n = d.u64()?;
            Some((0..n).map(|_| d.str()).collect::<Result<Vec<_>, _>>()?)
        }
        other => return Err(format!("bad option tag {other:?}")),
    };
    let variadic = d.boolean()?;
    let n_body = d.u64()?;
    let mut body = Vec::new();
    for _ in 0..n_body {
        body.push(decode_token(d)?);
    }
    Ok(MacroDef {
        name,
        params,
        variadic,
        body,
    })
}

fn encode_token(e: &mut Enc, t: &Token) {
    match t.kind {
        TokenKind::Ident => e.tag("id"),
        TokenKind::Number => e.tag("num"),
        TokenKind::Str => e.tag("str"),
        TokenKind::Char => e.tag("chr"),
        TokenKind::Punct => e.tag("pun"),
        TokenKind::Other(c) => {
            e.tag("oth");
            e.u64(u64::from(c as u32));
        }
    }
    e.str(&t.text);
    e.boolean(t.space_before);
    e.u64(u64::from(t.line));
}

fn decode_token(d: &mut Dec) -> Result<Token, String> {
    let kind = match d.tag()? {
        "id" => TokenKind::Ident,
        "num" => TokenKind::Number,
        "str" => TokenKind::Str,
        "chr" => TokenKind::Char,
        "pun" => TokenKind::Punct,
        "oth" => {
            let v = d.u32()?;
            TokenKind::Other(char::from_u32(v).ok_or_else(|| format!("bad char {v:#x}"))?)
        }
        other => return Err(format!("bad token kind {other:?}")),
    };
    let text = d.str()?;
    let space_before = d.boolean()?;
    let line = d.u32()?;
    Ok(Token {
        kind,
        text,
        space_before,
        line,
    })
}

fn encode_cpp_error(e: &mut Enc, err: &CppError) {
    e.str(&err.file);
    e.u64(u64::from(err.line));
    match &err.kind {
        CppErrorKind::IncludeNotFound(t) => {
            e.tag("include_not_found");
            e.str(t);
        }
        CppErrorKind::IncludeDepthExceeded => e.tag("include_depth_exceeded"),
        CppErrorKind::MalformedDirective(m) => {
            e.tag("malformed_directive");
            e.str(m);
        }
        CppErrorKind::BadExpression(x) => {
            e.tag("bad_expression");
            e.str(x);
        }
        CppErrorKind::UserError(m) => {
            e.tag("user_error");
            e.str(m);
        }
        CppErrorKind::UnterminatedConditional => e.tag("unterminated_conditional"),
        CppErrorKind::WrongArgumentCount {
            name,
            expected,
            got,
        } => {
            e.tag("wrong_argument_count");
            e.str(name);
            e.u64(*expected as u64);
            e.u64(*got as u64);
        }
    }
}

fn decode_cpp_error(d: &mut Dec) -> Result<CppError, String> {
    let file = d.str()?;
    let line = d.u32()?;
    let kind = match d.tag()? {
        "include_not_found" => CppErrorKind::IncludeNotFound(d.str()?),
        "include_depth_exceeded" => CppErrorKind::IncludeDepthExceeded,
        "malformed_directive" => CppErrorKind::MalformedDirective(d.str()?),
        "bad_expression" => CppErrorKind::BadExpression(d.str()?),
        "user_error" => CppErrorKind::UserError(d.str()?),
        "unterminated_conditional" => CppErrorKind::UnterminatedConditional,
        "wrong_argument_count" => CppErrorKind::WrongArgumentCount {
            name: d.str()?,
            expected: d.u64()? as usize,
            got: d.u64()? as usize,
        },
        other => return Err(format!("bad cpp-error tag {other:?}")),
    };
    Ok(CppError { file, line, kind })
}

// ---------------------------------------------------------------------------
// Config entries.
// ---------------------------------------------------------------------------

fn encode_config_entry(fingerprint: u64, content_fp: u64, cfg: &BuildConfig) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(fingerprint);
    e.u64(content_fp);
    e.str(cfg.arch.name);
    match &cfg.kind {
        ConfigKind::AllYes => e.tag("allyes"),
        ConfigKind::AllMod => e.tag("allmod"),
        ConfigKind::Defconfig(path) => {
            e.tag("defconfig");
            e.str(path);
        }
        ConfigKind::Custom { name, content } => {
            e.tag("custom");
            e.str(name);
            e.str(content);
        }
        ConfigKind::Rand { seed } => {
            e.tag("rand");
            e.u64(*seed);
        }
    }
    // The Config's `.config` rendering lists every symbol (set *and*
    // explicitly-unset) in BTreeMap order — a lossless, deterministic
    // serialization the decoder re-parses line by line.
    e.str(&cfg.config.render());
    let symbols: Vec<&Symbol> = cfg.model.symbols().collect();
    e.u64(symbols.len() as u64);
    for sym in symbols {
        e.str(&sym.name);
        e.tag(match sym.ty {
            SymbolType::Bool => "bool",
            SymbolType::Tristate => "tristate",
            SymbolType::Int => "int",
            SymbolType::Hex => "hex",
            SymbolType::String => "string",
        });
        e.opt_str(sym.prompt.as_deref());
        // `Expr::Display` round-trips through `Expr::parse` (pinned by
        // jmake-kconfig's display_round_trips test).
        e.opt_str(sym.depends.as_ref().map(|x| x.to_string()).as_deref());
        e.u64(sym.selects.len() as u64);
        for (target, cond) in &sym.selects {
            e.str(target);
            e.opt_str(cond.as_ref().map(|x| x.to_string()).as_deref());
        }
        e.u64(sym.defaults.len() as u64);
        for (value, cond) in &sym.defaults {
            e.tag(&value.to_string());
            e.opt_str(cond.as_ref().map(|x| x.to_string()).as_deref());
        }
        e.str(&sym.declared_in);
        match sym.choice_group {
            Some(g) => {
                e.tag("some");
                e.u64(u64::from(g));
            }
            None => e.tag("none"),
        }
    }
    e.buf
}

fn decode_config_entry(
    payload: &[u8],
    registry: &ArchRegistry,
) -> Result<(u64, u64, BuildConfig), String> {
    let mut d = Dec::new(payload);
    let fingerprint = d.u64()?;
    let content_fp = d.u64()?;
    let arch_name = d.str()?;
    let arch = registry
        .get(&arch_name)
        .ok_or_else(|| format!("unknown arch {arch_name:?}"))?;
    let kind = match d.tag()? {
        "allyes" => ConfigKind::AllYes,
        "allmod" => ConfigKind::AllMod,
        "defconfig" => ConfigKind::Defconfig(d.str()?),
        "custom" => ConfigKind::Custom {
            name: d.str()?,
            content: d.str()?,
        },
        "rand" => ConfigKind::Rand { seed: d.u64()? },
        other => return Err(format!("bad kind tag {other:?}")),
    };
    let config = parse_config_render(&d.str()?)?;
    let n_symbols = d.u64()?;
    let mut model = KconfigModel::new();
    for _ in 0..n_symbols {
        let name = d.str()?;
        let ty = match d.tag()? {
            "bool" => SymbolType::Bool,
            "tristate" => SymbolType::Tristate,
            "int" => SymbolType::Int,
            "hex" => SymbolType::Hex,
            "string" => SymbolType::String,
            other => return Err(format!("bad symbol type {other:?}")),
        };
        let mut sym = Symbol::new(name, ty);
        sym.prompt = d.opt_str()?;
        sym.depends = parse_opt_expr(&mut d)?;
        let n_selects = d.u64()?;
        for _ in 0..n_selects {
            let target = d.str()?;
            sym.selects.push((target, parse_opt_expr(&mut d)?));
        }
        let n_defaults = d.u64()?;
        for _ in 0..n_defaults {
            let value = parse_tristate(d.tag()?)?;
            sym.defaults.push((value, parse_opt_expr(&mut d)?));
        }
        sym.declared_in = d.str()?;
        sym.choice_group = match d.tag()? {
            "some" => Some(d.u32()?),
            "none" => None,
            other => return Err(format!("bad option tag {other:?}")),
        };
        model.insert(sym);
    }
    if !d.at_end() {
        return Err("trailing bytes".to_string());
    }
    let built = BuildConfig::from_parts(arch, kind, config, model);
    if built.content_fingerprint() != content_fp {
        // The stored key disagrees with the recomputed one — the entry
        // cannot be trusted to answer the lookups it claims to.
        return Err("content fingerprint mismatch".to_string());
    }
    Ok((fingerprint, content_fp, built))
}

fn parse_opt_expr(d: &mut Dec) -> Result<Option<Expr>, String> {
    match d.opt_str()? {
        None => Ok(None),
        Some(text) => Expr::parse(&text).map(Some).map_err(|e| format!("bad expr: {e}")),
    }
}

fn parse_tristate(tag: &str) -> Result<Tristate, String> {
    let mut chars = tag.chars();
    match (chars.next(), chars.next()) {
        (Some(c), None) => {
            Tristate::from_config_char(c).ok_or_else(|| format!("bad tristate {tag:?}"))
        }
        _ => Err(format!("bad tristate {tag:?}")),
    }
}

/// Re-parse `Config::render` output: `CONFIG_X=y|m` or
/// `# CONFIG_X is not set`, one line each.
fn parse_config_render(text: &str) -> Result<Config, String> {
    let mut config = Config::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# CONFIG_") {
            let name = rest
                .strip_suffix(" is not set")
                .ok_or_else(|| format!("bad config line {line:?}"))?;
            config.set(name, Tristate::N);
        } else if let Some(rest) = line.strip_prefix("CONFIG_") {
            let (name, value) = rest
                .split_once('=')
                .ok_or_else(|| format!("bad config line {line:?}"))?;
            let value = parse_tristate(value)?;
            config.set(name, value);
        } else if !line.trim().is_empty() {
            return Err(format!("bad config line {line:?}"));
        }
    }
    Ok(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BuildEngine, ConfigKind};
    use crate::tree::SourceTree;
    use jmake_faults::FaultSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert(
            "Kconfig",
            "config NET\n\tbool \"net\"\n\nconfig E1000\n\ttristate \"e1000\"\n\tdepends on NET\n",
        );
        t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        t.insert("Makefile", "obj-y += kernel/\n");
        t.insert("kernel/Makefile", "obj-y += core.o\n");
        t.insert("kernel/core.c", "int core;\n");
        t
    }

    fn sample_object() -> (ObjectKey, CachedObj) {
        let key = ObjectKey {
            blob: ContentHash::of("int x;\n"),
            path: Arc::from("drivers/net/a.c"),
            include_fp: 0x1234,
            env_fp: 0x5678,
            module: true,
            arch: "x86_64",
            kind: ObjKind::I,
        };
        let mut macros = HashSet::new();
        macros.insert("CONFIG_NET".to_string());
        macros.insert("MODULE".to_string());
        let obj = CachedObj::I {
            text_len: 42,
            result: Ok(IFile {
                path: "drivers/net/a.c".to_string(),
                text: "int x;\nweird \"text\"\nwith\nnewlines\n".to_string(),
                expanded_macros: macros,
                includes: vec!["include/linux/k.h".to_string()],
            }),
        };
        (key, obj)
    }

    fn solved_config() -> Arc<BuildConfig> {
        let mut engine = BuildEngine::new(tiny_tree());
        engine.make_config("x86_64", &ConfigKind::AllYes).unwrap()
    }

    fn sample_preproc() -> (IncludeKey, IncludeEffect) {
        let key = IncludeKey {
            path: "include/linux/k.h".to_string(),
            closure_fp: 0xfeed,
            macro_fp: 0xbead,
            pragma_fp: 0,
            depth: 2,
        };
        let effect = IncludeEffect {
            chunk: "# 1 \"include/linux/k.h\"\nint k;\nweird \"text\"\n".to_string(),
            exit_marker: Some(("drivers/net/a.c".to_string(), 17)),
            errors: vec![
                CppError {
                    file: "include/linux/k.h".into(),
                    line: 3,
                    kind: CppErrorKind::IncludeNotFound("missing.h".into()),
                },
                CppError {
                    file: "include/linux/k.h".into(),
                    line: 9,
                    kind: CppErrorKind::WrongArgumentCount {
                        name: "MAX".into(),
                        expected: 2,
                        got: 3,
                    },
                },
            ],
            expanded: vec!["CONFIG_NET".to_string()],
            includes: vec!["include/linux/inner.h".to_string()],
            pragma_adds: vec!["include/linux/k.h".to_string()],
            macro_events: vec![
                MacroEvent::Define(Arc::new(MacroDef::object("K", "1"))),
                MacroEvent::Define(Arc::new(MacroDef::function(
                    "MAX",
                    vec!["a".into(), "b".into()],
                    "((a)>(b)?(a):(b))",
                ))),
                MacroEvent::Undef("K".to_string()),
            ],
            first_flush: Some(("include/linux/k.h".to_string(), 1)),
        };
        (key, effect)
    }

    #[test]
    fn object_entry_round_trips() {
        let registry = ArchRegistry::new();
        let (key, obj) = sample_object();
        let payload = encode_object_entry(&key, &obj);
        let (key2, obj2) = decode_object_entry(&payload, &registry).unwrap();
        assert_eq!(key, key2);
        assert_eq!(payload, encode_object_entry(&key2, &obj2));
    }

    #[test]
    fn object_entry_round_trips_every_error_shape() {
        let registry = ArchRegistry::new();
        let (key, _) = sample_object();
        let errors = vec![
            BuildError::UnknownArch("weird".into()),
            BuildError::KconfigParse("bad line".into()),
            BuildError::PreprocessFailed {
                file: "a.c".into(),
                first_error: "missing.h not found".into(),
            },
            BuildError::FrontEndRejected {
                file: "a.c".into(),
                error: SyntaxError::UnbalancedDelimiter { ch: '}', line: 7 },
            },
            BuildError::RetriesExhausted {
                op: "make_o",
                attempts: 4,
            },
        ];
        for err in errors {
            let key = ObjectKey {
                kind: ObjKind::O,
                ..key.clone()
            };
            let obj = CachedObj::O {
                text_len: 9,
                result: Err(err),
            };
            let payload = encode_object_entry(&key, &obj);
            let (key2, obj2) = decode_object_entry(&payload, &registry).unwrap();
            assert_eq!(key, key2);
            assert_eq!(payload, encode_object_entry(&key2, &obj2));
        }
    }

    #[test]
    fn preproc_entry_round_trips() {
        let (key, effect) = sample_preproc();
        let payload = encode_preproc_entry(&key, &effect);
        let (key2, effect2) = decode_preproc_entry(&payload).unwrap();
        assert_eq!(key, key2);
        assert_eq!(effect.chunk, effect2.chunk);
        assert_eq!(effect.macro_events, effect2.macro_events);
        assert_eq!(payload, encode_preproc_entry(&key2, &effect2));
    }

    #[test]
    fn preproc_entry_round_trips_empty_effect() {
        let (key, _) = sample_preproc();
        let effect = IncludeEffect::default();
        let payload = encode_preproc_entry(&key, &effect);
        let (key2, effect2) = decode_preproc_entry(&payload).unwrap();
        assert_eq!(key, key2);
        assert_eq!(payload, encode_preproc_entry(&key2, &effect2));
    }

    #[test]
    fn config_entry_round_trips() {
        let registry = ArchRegistry::new();
        let cfg = solved_config();
        let payload = encode_config_entry(11, 0, &cfg);
        let (fp, content_fp, cfg2) = decode_config_entry(&payload, &registry).unwrap();
        assert_eq!((fp, content_fp), (11, 0));
        assert_eq!(cfg.config, cfg2.config);
        assert_eq!(cfg.env_fingerprint(), cfg2.env_fingerprint());
        assert_eq!(cfg.key(), cfg2.key());
        assert_eq!(payload, encode_config_entry(11, 0, &cfg2));
    }

    #[test]
    fn store_load_round_trips_through_disk() {
        let dir = tempdir("round");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let preproc = PreprocCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        let cfg = solved_config();
        configs.insert(5, &cfg.key().clone(), 0, Arc::clone(&cfg));
        let (pkey, effect) = sample_preproc();
        preproc.insert(pkey.clone(), Arc::new(effect));
        let stored = disk.store(&objects, &configs, &preproc).unwrap();
        assert_eq!(
            (stored.objects_stored, stored.configs_stored, stored.preproc_stored),
            (1, 1, 1)
        );
        let listing = segments(&dir);
        assert_eq!(listing.len(), 1, "one store, one segment");
        // Storing again writes nothing: every key is already on disk.
        let again = disk.store(&objects, &configs, &preproc).unwrap();
        assert_eq!(
            (again.objects_stored, again.configs_stored, again.preproc_stored),
            (0, 0, 0)
        );
        assert_eq!(segments(&dir), listing, "a store with nothing new writes no file");

        let objects2 = ObjectCache::new();
        let configs2 = ConfigCache::new();
        let preproc2 = PreprocCache::new();
        let loaded = disk
            .load(&objects2, &configs2, &preproc2, &Faults::disabled())
            .unwrap();
        assert_eq!(
            (loaded.objects_loaded, loaded.configs_loaded, loaded.preproc_loaded),
            (1, 1, 1)
        );
        assert_eq!(loaded.entries_quarantined, 0);
        assert!(serves(&objects2, &key));
        assert!(configs2.lookup(5, cfg.key(), 0).0.is_some());
        assert!(preproc2.lookup(&pkey).is_some());

        // Load-then-store on an unchanged tier creates no new segment.
        let restored = disk.store(&objects2, &configs2, &preproc2).unwrap();
        assert_eq!(restored, DiskTierStats::default());
        assert_eq!(segments(&dir), listing);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_file_per_entry_trees_read_as_a_cold_tier() {
        let dir = tempdir("v1");
        let entry = dir.join("objects").join("ab").join("ab00000000000000.entry");
        std::fs::create_dir_all(entry.parent().unwrap()).unwrap();
        std::fs::write(&entry, "jmake-cache v1 object\n0000000000000000\n").unwrap();
        let disk = DiskCache::open(&dir).unwrap();
        let (objects, configs, preproc) = (ObjectCache::new(), ConfigCache::new(), PreprocCache::new());
        let loaded = disk.load(&objects, &configs, &preproc, &Faults::disabled()).unwrap();
        assert_eq!(loaded, DiskTierStats::default());
        assert!(entry.exists(), "an old tree is ignored, not quarantined");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_entry_is_quarantined_not_served() {
        let dir = tempdir("trunc");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        disk.store(&objects, &configs, &PreprocCache::new()).unwrap();
        let segment = only_segment(&dir);
        let bytes = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &bytes[..bytes.len() / 2]).unwrap();

        let objects2 = ObjectCache::new();
        let loaded = disk
            .load(&objects2, &configs, &PreprocCache::new(), &Faults::disabled())
            .unwrap();
        assert_eq!(loaded.objects_loaded, 0);
        assert_eq!(loaded.entries_quarantined, 1);
        assert!(!serves(&objects2, &key));
        assert!(!segment.exists(), "corrupt record must leave the live tier");
        assert!(dir.join("quarantine").read_dir().unwrap().next().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_digest_byte_is_quarantined() {
        let dir = tempdir("flip");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        disk.store(&objects, &configs, &PreprocCache::new()).unwrap();
        let segment = only_segment(&dir);
        let mut bytes = std::fs::read(&segment).unwrap();
        // Flip one hex digit of the record's payload-digest field, the
        // last field of its header.
        let (records, _) = frame(&segment);
        let digest_pos = records[0].2 as usize - 17;
        bytes[digest_pos] = if bytes[digest_pos] == b'0' { b'1' } else { b'0' };
        std::fs::write(&segment, &bytes).unwrap();

        let objects2 = ObjectCache::new();
        let loaded = disk
            .load(&objects2, &configs, &PreprocCache::new(), &Faults::disabled())
            .unwrap();
        assert_eq!(loaded.objects_loaded, 0);
        assert_eq!(loaded.entries_quarantined, 1);
        assert!(!serves(&objects2, &key));
        assert!(segments(&dir).is_empty(), "corrupt record must leave the live tier");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn overflowing_string_length_is_quarantined_not_a_panic() {
        let (key, obj) = sample_object();
        let payload = String::from_utf8(encode_object_entry(&key, &obj)).unwrap();
        // `drivers/net/a.c` is the first length-prefixed field.
        let bad = payload.replacen("\n15\n", "\n18446744073709551615\n", 1);
        assert_ne!(bad, payload);

        let dir = tempdir("len-overflow");
        let disk = DiskCache::open(&dir).unwrap();
        let record = (Kind::Object, object_key_digest(&key), bad.into_bytes());
        std::fs::write(
            dir.join("segments").join("0000000000000000.seg"),
            segment_bytes(&[record]),
        )
        .unwrap();
        let objects = ObjectCache::new();
        let (configs, preproc) = (ConfigCache::new(), PreprocCache::new());
        let loaded = disk.load(&objects, &configs, &preproc, &Faults::disabled());
        assert_eq!(loaded.unwrap().entries_quarantined, 1);
        assert_eq!(objects.stats().entries, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_injected_corruption_quarantines_and_counts() {
        let dir = tempdir("fault");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        let configs = ConfigCache::new();
        let (key, obj) = sample_object();
        objects.insert(key.clone(), Arc::new(obj));
        disk.store(&objects, &configs, &PreprocCache::new()).unwrap();

        let faults = Faults::new(FaultSpec::default().with_rate(FaultKind::Corrupt, 1.0), 9);
        let objects2 = ObjectCache::new();
        let loaded = disk
            .load(&objects2, &configs, &PreprocCache::new(), &faults)
            .unwrap();
        assert_eq!(loaded.objects_loaded, 0);
        assert_eq!(loaded.entries_quarantined, 1);
        assert!(!serves(&objects2, &key));
        assert!(segments(&dir).is_empty(), "corrupt record must leave the live tier");
        let snap = faults.stats_snapshot();
        assert_eq!(snap.corruptions_detected, 1);
        assert!(snap.injected_corrupt >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_segment_truncation_serves_exactly_the_records_before_the_cut() {
        let dir = tempdir("midcut");
        let disk = DiskCache::open(&dir).unwrap();
        let objects = ObjectCache::new();
        for (key, obj) in sample_objects(8) {
            objects.insert(key, Arc::new(obj));
        }
        let original = contents(&objects, &ConfigCache::new(), &PreprocCache::new());
        disk.store(&objects, &ConfigCache::new(), &PreprocCache::new())
            .unwrap();
        let segment = only_segment(&dir);
        let (records, tail) = frame(&segment);
        assert_eq!((records.len(), tail), (8, false));
        // Cut through the middle of the fifth record's payload.
        let (header, _, payload_start) = records[4];
        let cut = payload_start + header.len / 2;
        let bytes = std::fs::read(&segment).unwrap();
        std::fs::write(&segment, &bytes[..cut as usize]).unwrap();

        let objects2 = ObjectCache::new();
        let (configs2, preproc2) = (ConfigCache::new(), PreprocCache::new());
        let loaded = disk
            .load(&objects2, &configs2, &preproc2, &Faults::disabled())
            .unwrap();
        assert_eq!(loaded.objects_loaded, 4, "every record wholly before the cut loads");
        assert_eq!(loaded.entries_quarantined, 1, "the cut record, and only it");
        let served = contents(&objects2, &configs2, &preproc2);
        let before: Vec<_> = records[..4].iter().map(|(h, _, _)| (h.kind, h.key)).collect();
        assert_eq!(served.keys().copied().collect::<Vec<_>>(), before);
        for (key, payload) in &served {
            assert_eq!(original.get(key), Some(payload), "wrong value served for {key:?}");
        }
        // The rewritten segment is clean and keeps the survivors.
        let again = disk
            .load(&ObjectCache::new(), &configs2, &preproc2, &Faults::disabled())
            .unwrap();
        assert_eq!((again.objects_loaded, again.entries_quarantined), (4, 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_handle_sees_segments_written_after_its_last_store() {
        let dir = tempdir("incremental");
        let (ours, theirs) = (DiskCache::open(&dir).unwrap(), DiskCache::open(&dir).unwrap());
        let (configs, preproc) = (ConfigCache::new(), PreprocCache::new());
        let (first, both) = (ObjectCache::new(), ObjectCache::new());
        for (i, (key, obj)) in sample_objects(20).into_iter().enumerate() {
            let obj = Arc::new(obj);
            if i < 10 {
                first.insert(key.clone(), Arc::clone(&obj));
            }
            both.insert(key, obj);
        }
        assert_eq!(ours.store(&first, &configs, &preproc).unwrap().objects_stored, 10);
        // Another handle writes the other ten; ours must not write them again.
        assert_eq!(theirs.store(&both, &configs, &preproc).unwrap().objects_stored, 10);
        assert_eq!(ours.store(&both, &configs, &preproc).unwrap().objects_stored, 0);
        assert_eq!(segments(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_stores_into_one_dir_load_as_the_union() {
        let (left, right) = (ObjectCache::new(), ObjectCache::new());
        // Overlapping halves: both caches hold keys 60..140.
        let pairs = sample_objects(200).into_iter().zip(sample_objects(200));
        for (i, ((key, a), (_, b))) in pairs.enumerate() {
            if i < 140 {
                left.insert(key.clone(), Arc::new(a));
            }
            if i >= 60 {
                right.insert(key, Arc::new(b));
            }
        }
        let (configs, preproc) = (ConfigCache::new(), PreprocCache::new());
        for round in 0..10 {
            let dir = tempdir(&format!("race-{round}"));
            let disk = DiskCache::open(&dir).unwrap();
            // Four stores at once; equal caches race for one segment name.
            let barrier = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for cache in [&left, &right, &left, &right] {
                    let (disk, barrier) = (&disk, &barrier);
                    let (configs, preproc) = (&configs, &preproc);
                    s.spawn(move || {
                        barrier.wait();
                        disk.store(cache, configs, preproc).unwrap();
                    });
                }
            });
            let leftovers: Vec<_> = std::fs::read_dir(dir.join("segments"))
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_none_or(|e| e != "seg"))
                .collect();
            assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");

            let loaded_objects = ObjectCache::new();
            let loaded = disk
                .load(&loaded_objects, &configs, &preproc, &Faults::disabled())
                .unwrap();
            assert_eq!(loaded.entries_quarantined, 0, "round {round}");
            for (key, _) in sample_objects(200) {
                assert!(
                    serves(&loaded_objects, &key),
                    "{key:?} missing from the union"
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn equal_caches_store_byte_identical_segments() {
        let (a, b) = (tempdir("det-a"), tempdir("det-b"));
        // Fill the second set of caches in the opposite order: segment
        // bytes must not depend on insertion or hash-map iteration order.
        let forward = filled(sample_objects(40));
        let mut reversed = sample_objects(40);
        reversed.reverse();
        let backward = filled(reversed);
        for (dir, (objects, configs, preproc)) in [(&a, &forward), (&b, &backward)] {
            DiskCache::open(dir).unwrap().store(objects, configs, preproc).unwrap();
        }
        let (seg_a, seg_b) = (only_segment(&a), only_segment(&b));
        assert_eq!(seg_a.file_name(), seg_b.file_name());
        assert_eq!(std::fs::read(&seg_a).unwrap(), std::fs::read(&seg_b).unwrap());
        std::fs::remove_dir_all(&a).unwrap();
        std::fs::remove_dir_all(&b).unwrap();
    }

    /// Structured fuzzing of the segment decoder, a trust boundary: a real
    /// segment mutated by byte flips, truncation, insertion, and
    /// length-field edits must load without panicking or hanging, serve
    /// only values equal to the original for their key, and account for
    /// every record it could frame as either loaded or quarantined. A
    /// fifth class mutates one record's payload and re-frames it with a
    /// matching length and digest, so the typed decoders see the damage;
    /// such a payload may decode to a different valid value, so that class
    /// skips the value check.
    #[test]
    fn mutated_segments_never_panic_hang_or_serve_a_wrong_value() {
        use std::time::{Duration, Instant};

        let seed_dir = tempdir("fuzz-seed");
        let (objects, configs, preproc) = filled(sample_objects(6));
        let original = contents(&objects, &configs, &preproc);
        DiskCache::open(&seed_dir)
            .unwrap()
            .store(&objects, &configs, &preproc)
            .unwrap();
        let seed_segment = only_segment(&seed_dir);
        let (records, _) = frame(&seed_segment);
        let seed_bytes = std::fs::read(&seed_segment).unwrap();

        let mut rng = StdRng::seed_from_u64(0x5e67_f422);
        for case in 0..500 {
            let mut bytes = seed_bytes.clone();
            let redigested = case % 5 == 4;
            match case % 5 {
                class @ 0..=2 => damage(&mut bytes, class, &mut rng),
                3 => {
                    let (header, start, _) = records[rng.gen_range(0..records.len())];
                    let len = match rng.gen_range(0..4) {
                        0 => 0,
                        1 => header.len + 1,
                        2 => header.len - 1,
                        _ => rng.gen::<u64>(),
                    };
                    // `<kind> <16-hex key> <16-hex length> …`
                    let field = start as usize + header.kind.tag().len() + 18;
                    bytes[field..field + 16].copy_from_slice(format!("{len:016x}").as_bytes());
                }
                _ => {
                    let target = rng.gen_range(0..records.len());
                    let framed: Vec<_> = records
                        .iter()
                        .enumerate()
                        .map(|(i, &(header, _, payload_start))| {
                            let start = payload_start as usize;
                            let end = start + header.len as usize;
                            let mut payload = seed_bytes[start..end].to_vec();
                            if i == target {
                                match rng.gen_range(0..4) {
                                    3 => edit_length_prefix(&mut payload, &mut rng),
                                    class => damage(&mut payload, class, &mut rng),
                                }
                            }
                            (header.kind, header.key, payload)
                        })
                        .collect();
                    bytes = segment_bytes(&framed);
                }
            }

            let dir = tempdir("fuzz-case");
            let disk = DiskCache::open(&dir).unwrap();
            let segment = dir.join("segments").join("0000000000000000.seg");
            std::fs::write(&segment, &bytes).unwrap();
            let (framed, tail) = frame(&segment);
            let caches = (ObjectCache::new(), ConfigCache::new(), PreprocCache::new());
            let started = Instant::now();
            let loaded = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                disk.load(&caches.0, &caches.1, &caches.2, &Faults::disabled())
            }))
            .unwrap_or_else(|_| panic!("case {case}: load panicked"))
            .unwrap();
            assert!(
                started.elapsed() < Duration::from_secs(5),
                "case {case}: load took {:?}",
                started.elapsed()
            );
            let served_values = contents(&caches.0, &caches.1, &caches.2);
            for (key, payload) in served_values.iter().filter(|_| !redigested) {
                assert_eq!(
                    original.get(key),
                    Some(payload),
                    "case {case}: wrong value served for {key:?}"
                );
            }
            let served = loaded.objects_loaded + loaded.configs_loaded + loaded.preproc_loaded;
            assert_eq!(
                served + loaded.entries_quarantined,
                framed.len() as u64 + u64::from(tail),
                "case {case}: a framed record was neither loaded nor quarantined"
            );
            // Quarantine leaves a clean tier holding exactly the survivors,
            // each under the key its header names.
            let survivors: Vec<_> = segments(&dir)
                .iter()
                .flat_map(|seg| frame(seg).0)
                .map(|(header, _, _)| (header.kind, header.key))
                .collect();
            assert_eq!(
                survivors,
                served_values.keys().copied().collect::<Vec<_>>(),
                "case {case}"
            );
            let caches = (ObjectCache::new(), ConfigCache::new(), PreprocCache::new());
            let again = disk
                .load(&caches.0, &caches.1, &caches.2, &Faults::disabled())
                .unwrap();
            assert_eq!(again.entries_quarantined, 0, "case {case}");
            assert_eq!(
                again.objects_loaded + again.configs_loaded + again.preproc_loaded,
                served,
                "case {case}"
            );
        }
        std::fs::remove_dir_all(tempdir("fuzz-case")).unwrap_or_default();
        std::fs::remove_dir_all(&seed_dir).unwrap();
    }

    /// Flip bytes (class 0), cut the tail (1), or insert bytes (2).
    fn damage(bytes: &mut Vec<u8>, class: usize, rng: &mut StdRng) {
        match class {
            0 => {
                for _ in 0..rng.gen_range(1..4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                }
            }
            1 => bytes.truncate(rng.gen_range(0..bytes.len())),
            _ => {
                let at = rng.gen_range(0..=bytes.len());
                for _ in 0..rng.gen_range(1..9) {
                    bytes.insert(at, rng.gen_range(0..=255u8));
                }
            }
        }
    }

    /// Rewrite one string-length prefix of a payload to an edge value.
    fn edit_length_prefix(payload: &mut Vec<u8>, rng: &mut StdRng) {
        // Numbers are 16 hex digits; a shorter all-digit line is a length.
        let text = std::str::from_utf8(payload).expect("seed payloads are text");
        let mut prefixes = Vec::new();
        let mut at = 0;
        for line in text.split_inclusive('\n') {
            let digits = line.trim_end_matches('\n');
            if let (true, Ok(old)) = (digits.len() != 16, digits.parse::<u64>()) {
                prefixes.push((at..at + digits.len(), old));
            }
            at += line.len();
        }
        let (range, old) = prefixes[rng.gen_range(0..prefixes.len())].clone();
        let value = [0, old + 1, old.saturating_sub(1), u64::MAX, rng.gen()][rng.gen_range(0..5)];
        payload.splice(range, value.to_string().into_bytes());
    }

    /// A segment framing each `(kind, key digest, payload)` under a
    /// header whose length and digest match the payload.
    fn segment_bytes(records: &[(Kind, u64, Vec<u8>)]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        for (kind, key, payload) in records {
            let header = Header {
                kind: *kind,
                key: *key,
                len: payload.len() as u64,
                digest: payload_digest(payload),
            };
            bytes.extend_from_slice(header.render().as_bytes());
            bytes.extend_from_slice(payload);
        }
        bytes
    }

    mod preproc_props {
        use super::*;
        use proptest::prelude::*;

        /// Arbitrary text, including newlines and quotes — the codec is
        /// length-prefixed, so any payload must round-trip byte-exactly.
        fn any_text() -> impl Strategy<Value = String> {
            "[ -~\n\"\\\\]{0,40}"
        }

        fn any_marker() -> impl Strategy<Value = Option<(String, u32)>> {
            proptest::option::of((any_text(), 0u32..u32::MAX))
        }

        fn any_event() -> impl Strategy<Value = MacroEvent> {
            prop_oneof![
                ("[A-Z_]{1,8}", "[ -~]{0,20}")
                    .prop_map(|(n, b)| MacroEvent::Define(Arc::new(MacroDef::object(n, &b)))),
                (
                    "[A-Z_]{1,8}",
                    proptest::collection::vec("[a-z]{1,4}".prop_map(String::from), 0..3),
                    "[ -~]{0,20}"
                )
                    .prop_map(|(n, p, b)| MacroEvent::Define(Arc::new(MacroDef::function(n, p, &b)))),
                "[A-Z_]{1,8}".prop_map(MacroEvent::Undef),
            ]
        }

        fn any_effect() -> impl Strategy<Value = IncludeEffect> {
            (
                (any_text(), any_marker(), any_marker()),
                (
                    proptest::collection::vec(any_text(), 0..4),
                    proptest::collection::vec(any_text(), 0..4),
                    proptest::collection::vec(any_text(), 0..4),
                    proptest::collection::vec(any_event(), 0..4),
                ),
            )
                .prop_map(
                    |(
                        (chunk, exit_marker, first_flush),
                        (expanded, includes, pragma_adds, macro_events),
                    )| IncludeEffect {
                        chunk,
                        exit_marker,
                        errors: Vec::new(),
                        expanded,
                        includes,
                        pragma_adds,
                        macro_events,
                        first_flush,
                    },
                )
        }

        proptest! {
            /// encode → decode → encode is a fixpoint for any effect.
            #[test]
            fn preproc_entries_round_trip(
                path in "[ -~]{1,30}",
                closure_fp in 0u64..u64::MAX,
                macro_fp in 0u64..u64::MAX,
                pragma_fp in 0u64..u64::MAX,
                depth in 0u32..u32::MAX,
                effect in any_effect(),
            ) {
                let key = IncludeKey { path, closure_fp, macro_fp, pragma_fp, depth };
                let payload = encode_preproc_entry(&key, &effect);
                let (key2, effect2) = decode_preproc_entry(&payload).unwrap();
                prop_assert_eq!(&key, &key2);
                prop_assert_eq!(&effect.macro_events, &effect2.macro_events);
                prop_assert_eq!(payload, encode_preproc_entry(&key2, &effect2));
            }
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "jmake-diskcache-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// `n` distinct object entries, alternating `.i` and `.o` outcomes.
    fn sample_objects(n: usize) -> Vec<(ObjectKey, CachedObj)> {
        (0..n)
            .map(|i| {
                let (key, obj) = sample_object();
                let key = ObjectKey {
                    path: Arc::from(format!("drivers/net/f{i}.c").as_str()),
                    include_fp: i as u64,
                    ..key
                };
                if i % 2 == 0 {
                    return (key, obj);
                }
                let obj = CachedObj::O {
                    text_len: i as u64,
                    result: Err(BuildError::MissingFile(format!("f{i}.h"))),
                };
                (ObjectKey { kind: ObjKind::O, ..key }, obj)
            })
            .collect()
    }

    /// Caches holding `objects` plus the sample config and preproc entry.
    fn filled(objects: Vec<(ObjectKey, CachedObj)>) -> (ObjectCache, ConfigCache, PreprocCache) {
        let caches = (ObjectCache::new(), ConfigCache::new(), PreprocCache::new());
        for (key, obj) in objects {
            caches.0.insert(key, Arc::new(obj));
        }
        let cfg = solved_config();
        caches.1.insert(5, &cfg.key().clone(), 0, cfg);
        let (key, effect) = sample_preproc();
        caches.2.insert(key, Arc::new(effect));
        caches
    }

    /// Every cached value as the record payload it encodes to, by
    /// (kind, key digest).
    fn contents(
        objects: &ObjectCache,
        configs: &ConfigCache,
        preproc: &PreprocCache,
    ) -> std::collections::BTreeMap<(Kind, u64), Vec<u8>> {
        let objects = objects
            .snapshot()
            .into_iter()
            .map(|(k, v)| ((Kind::Object, object_key_digest(&k)), encode_object_entry(&k, &v)));
        let configs = configs.snapshot().into_iter().map(|((fp, k, content_fp), cfg)| {
            let digest = config_key_digest(fp, k.arch(), k.kind_key(), content_fp);
            ((Kind::Config, digest), encode_config_entry(fp, content_fp, &cfg))
        });
        let preproc = preproc
            .snapshot()
            .into_iter()
            .map(|(k, v)| ((Kind::Preproc, preproc_key_digest(&k)), encode_preproc_entry(&k, &v)));
        objects.chain(configs).chain(preproc).collect()
    }

    /// Whether `objects` serves an entry for `key`.
    fn serves(objects: &ObjectCache, key: &ObjectKey) -> bool {
        objects
            .lookup_verified(key, &Faults::disabled())
            .entry
            .is_some()
    }

    fn segments(root: &Path) -> Vec<PathBuf> {
        let disk = DiskCache {
            root: root.to_path_buf(),
            known: Arc::default(),
        };
        disk.segments().unwrap()
    }

    fn only_segment(root: &Path) -> PathBuf {
        let mut all = segments(root);
        assert_eq!(all.len(), 1, "expected exactly one segment");
        all.pop().expect("one segment")
    }

    /// Every record `path` frames as (header, record start, payload
    /// start), and whether an unframeable tail follows them.
    fn frame(path: &Path) -> (Vec<(Header, u64, u64)>, bool) {
        let mut seg = Segment::open(path).unwrap();
        let mut records = Vec::new();
        loop {
            let start = seg.pos;
            match seg.next(false) {
                Next::Record(header, _) => records.push((header, start, seg.pos - header.len)),
                Next::End => return (records, false),
                Next::Unframed => return (records, true),
            }
        }
    }
}
