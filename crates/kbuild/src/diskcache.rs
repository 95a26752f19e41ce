//! Persistent, digest-verified on-disk tier behind [`ConfigCache`],
//! [`ObjectCache`], and [`PreprocCache`].
//!
//! All three caches are content-addressed and immutable per key, so an
//! entry loaded from a previous run answers a lookup if and only if its
//! *key* — which pins everything the outcome depends on — matches, and a
//! warm hit charges the virtual clock exactly what a cold miss would:
//! reports stay byte-identical cold vs. warm (the CI gate diffs them).
//!
//! What the disk can do that memory cannot is rot. Every record carries
//! an FNV-1a digest of its payload, re-verified on load. A mismatch, a
//! length that runs past the end of its segment (truncation, torn
//! write), an unparseable header, or a payload that does not decode to
//! the key its header names quarantines the record: its bytes are copied
//! to `<root>/quarantine/`, its segment is rewritten without it, it is
//! never served, and it is counted in [`DiskTierStats`] and, under fault
//! injection, in [`FaultStats`](jmake_faults::FaultStats). The fault
//! layer can corrupt loads deterministically ([`FaultSite::CacheLookup`]
//! with [`FaultKind::Corrupt`], keyed by the record's 16-hex key digest).
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
//! escaping, so arbitrary file text round-trips byte-exactly), written
//! and read by one `Codec` per type. Decoding is canonical: it accepts
//! only the bytes encoding writes, so a payload that decodes re-encodes
//! to itself.

use crate::arch::{Arch, ArchRegistry};
use crate::build::{BuildConfig, BuildError, ConfigKey, ConfigKind, IFile};
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
    const ALL: [Kind; 3] = [Kind::Object, Kind::Config, Kind::Preproc];

    fn tag(self) -> &'static str {
        ["object", "config", "preproc"][self as usize]
    }

    /// This kind's (loaded, stored) counters.
    fn counters(self, s: &mut DiskTierStats) -> (&mut u64, &mut u64) {
        match self {
            Kind::Object => (&mut s.objects_loaded, &mut s.objects_stored),
            Kind::Config => (&mut s.configs_loaded, &mut s.configs_stored),
            Kind::Preproc => (&mut s.preproc_loaded, &mut s.preproc_stored),
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
        let Header { kind, key, len, digest } = self;
        format!("{} {key:016x} {len:016x} {digest:016x}\n", kind.tag())
    }

    fn parse(line: &[u8]) -> Option<Header> {
        let line = std::str::from_utf8(line).ok()?.strip_suffix('\n')?;
        let mut fields = line.split(' ');
        let tag = fields.next()?;
        let kind = Kind::ALL.into_iter().find(|k| k.tag() == tag)?;
        let mut hex = || fields.next().and_then(parse_hex16);
        let header = Header { kind, key: hex()?, len: hex()?, digest: hex()? };
        fields.next().is_none().then_some(header)
    }
}

/// Exactly 16 lowercase hex digits — the one spelling [`Enc::u64`] and
/// [`Header::render`] write.
fn parse_hex16(s: &str) -> Option<u64> {
    let canonical = s.len() == 16 && s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    canonical.then(|| u64::from_str_radix(s, 16).ok()).flatten()
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
        let read = (&mut self.reader).take(MAX_HEADER).read_until(b'\n', &mut line);
        let Some(header) = read.ok().and_then(|_| Header::parse(&line)) else {
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

/// The three in-memory caches a load fills.
type Caches<'a> = (&'a ObjectCache, &'a ConfigCache, &'a PreprocCache);

impl DiskCache {
    /// Open (creating if needed) the cache rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DiskCache> {
        let root = root.into();
        std::fs::create_dir_all(root.join("segments"))?;
        std::fs::create_dir_all(root.join("quarantine"))?;
        let known = Arc::default();
        Ok(DiskCache { root, known })
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
        let caches = (objects, configs, preproc);
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
                let admitted = match header.kind {
                    Kind::Object => admit::<ObjectRecord>(&header, &payload, faults, &caches),
                    Kind::Config => admit::<ConfigRecord>(&header, &payload, faults, &caches),
                    Kind::Preproc => admit::<PreprocRecord>(&header, &payload, faults, &caches),
                };
                match admitted {
                    Ok(()) => *header.kind.counters(&mut stats).0 += 1,
                    Err(_) => bad.push(start..seg.pos),
                }
            }
            if !bad.is_empty() {
                stats.entries_quarantined += bad.len() as u64;
                if let Some(fault_stats) = faults.stats() {
                    fault_stats.corruptions_detected.fetch_add(bad.len() as u64, Ordering::Relaxed);
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
        let (objects, configs, preproc) =
            (objects.snapshot(), configs.snapshot(), preproc.snapshot());
        let mut todo: Vec<(Kind, u64, &dyn Codec)> =
            pending(&objects).chain(pending(&configs)).chain(pending(&preproc)).collect();
        {
            let known = self.known_keys()?;
            todo.retain(|&(kind, digest, _)| !known.keys.contains(&(kind, digest)));
        }
        todo.sort_unstable_by_key(|&(kind, digest, _)| (kind, digest));
        todo.dedup_by_key(|&mut (kind, digest, _)| (kind, digest));
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
            for &(kind, key, record) in &todo {
                let payload = encode_payload(record);
                let header = Header {
                    kind,
                    key,
                    len: payload.len() as u64,
                    digest: fnv(&[&payload]),
                };
                out.write_all(header.render().as_bytes())?;
                out.write_all(&payload)?;
                *kind.counters(&mut stats).1 += 1;
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
    let unique = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = dest.with_extension(format!("{}-{unique}.tmp", std::process::id()));
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

/// Every record of one cache snapshot as (kind, key digest, codec).
fn pending<R: Record>(records: &[R]) -> impl Iterator<Item = (Kind, u64, &dyn Codec)> {
    records.iter().map(|r| (R::KIND, r.key_digest(), r as &dyn Codec))
}

/// Verify one framed record — payload digest (which the fault plan may
/// corrupt, simulating media rot), complete decoding as an `R`, and a
/// decoded key that hashes to the key digest its header names — and
/// insert it into its cache.
fn admit<R: Record>(
    header: &Header,
    payload: &[u8],
    faults: &Faults,
    caches: &Caches,
) -> Result<(), String> {
    let mut served_digest = fnv(&[payload]);
    if faults.is_enabled() {
        let identity = format!("{:016x}", header.key);
        if faults.decide(FaultSite::CacheLookup, &identity, 0) == Some(FaultKind::Corrupt) {
            served_digest ^= 0xdead_beef_dead_beef;
        }
    }
    if served_digest != header.digest {
        return Err("digest mismatch".to_string());
    }
    let record: R = decode_payload(payload)?;
    if record.key_digest() != header.key {
        return Err("key digest mismatch".to_string());
    }
    record.insert(caches);
    Ok(())
}

/// FNV-1a digest of `parts` laid end to end.
fn fnv(parts: &[&[u8]]) -> u64 {
    let mut h = Fnv::new();
    parts.iter().for_each(|part| h.write(part));
    h.finish()
}

// Records: the three kinds of cache entry a segment holds.

/// One cache entry as a segment record: its kind, a stable digest of its
/// key (the header's key field), and the cache it loads into.
trait Record: Codec {
    const KIND: Kind;
    fn key_digest(&self) -> u64;
    fn insert(self, caches: &Caches);
}

type ObjectRecord = (ObjectKey, Arc<CachedObj>);
type ConfigRecord = ((u64, ConfigKey, u64), Arc<BuildConfig>);
type PreprocRecord = (IncludeKey, Arc<IncludeEffect>);

impl Record for ObjectRecord {
    const KIND: Kind = Kind::Object;

    fn key_digest(&self) -> u64 {
        let k = &self.0;
        let (hi, lo) = (k.blob.hi().to_le_bytes(), k.blob.lo().to_le_bytes());
        let (include_fp, env_fp) = (k.include_fp.to_le_bytes(), k.env_fp.to_le_bytes());
        let kind: &[u8] = if k.kind == ObjKind::I { b"I" } else { b"O" };
        let module = [u8::from(k.module)];
        fnv(&[&hi, &lo, k.path.as_bytes(), &include_fp, &env_fp, &module, k.arch.as_bytes(), kind])
    }

    fn insert(self, caches: &Caches) {
        caches.0.insert(self.0, self.1);
    }
}

impl Record for ConfigRecord {
    const KIND: Kind = Kind::Config;

    fn key_digest(&self) -> u64 {
        let (fingerprint, key, content_fp) = &self.0;
        let (fp, content_fp) = (fingerprint.to_le_bytes(), content_fp.to_le_bytes());
        fnv(&[&fp, key.arch().as_bytes(), &[0], key.kind_key().as_bytes(), &content_fp])
    }

    fn insert(self, caches: &Caches) {
        let ((fingerprint, key, content_fp), cfg) = self;
        caches.1.insert(fingerprint, &key, content_fp, cfg);
    }
}

impl Record for PreprocRecord {
    const KIND: Kind = Kind::Preproc;

    fn key_digest(&self) -> u64 {
        let k = &self.0;
        let fps = [k.closure_fp, k.macro_fp, k.pragma_fp].map(u64::to_le_bytes);
        fnv(&[k.path.as_bytes(), &[0], &fps[0], &fps[1], &fps[2], &k.depth.to_le_bytes()])
    }

    fn insert(self, caches: &Caches) {
        caches.2.insert(self.0, self.1);
    }
}

// Payload codec: deterministic, canonical, length-prefixed fields.

/// Payload writer. Strings are length-prefixed raw bytes (no escaping),
/// numbers are fixed-width hex lines, so encoding is deterministic and
/// file text of any shape round-trips byte-exactly.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Exactly 16 lowercase hex digits and a newline.
    fn u64(&mut self, v: u64) {
        self.buf
            .extend((0..16).rev().map(|i| b"0123456789abcdef"[(v >> (4 * i)) as usize & 0xf]));
        self.buf.push(b'\n');
    }

    /// A short ASCII token (a variant tag).
    fn tag(&mut self, t: &str) {
        debug_assert!(t.bytes().all(|b| b.is_ascii_graphic()));
        self.buf.extend_from_slice(t.as_bytes());
        self.buf.push(b'\n');
    }

    /// Decimal byte length (no sign, no leading zero), then the bytes.
    fn str(&mut self, s: &str) {
        let _ = writeln!(self.buf, "{}", s.len());
        self.buf.extend_from_slice(s.as_bytes());
        self.buf.push(b'\n');
    }
}

/// Payload reader accepting exactly what [`Enc`] writes. Every error is
/// a short reason string — the caller quarantines the entry, it never
/// panics.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn line(&mut self) -> Result<&'a str, String> {
        let rest = &self.bytes[self.pos..];
        let nl = rest.iter().position(|&b| b == b'\n').ok_or("truncated payload")?;
        let line = std::str::from_utf8(&rest[..nl]).map_err(|_| "non-utf8 field")?;
        self.pos += nl + 1;
        Ok(line)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let line = self.line()?;
        parse_hex16(line).ok_or_else(|| format!("bad number {line:?}"))
    }

    fn str(&mut self) -> Result<String, String> {
        let digits = self.line()?;
        let canonical = digits.bytes().all(|b| b.is_ascii_digit())
            && (digits == "0" || !digits.starts_with('0'));
        let len: usize = digits.parse().ok().filter(|_| canonical).ok_or("bad string length")?;
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
}

/// Encode one value as a whole record payload.
fn encode_payload(value: &dyn Codec) -> Vec<u8> {
    let mut e = Enc { buf: Vec::new() };
    value.encode(&mut e);
    e.buf
}

/// Decode a whole record payload as one `T`; bytes left over are an
/// error.
fn decode_payload<T: Codec>(payload: &[u8]) -> Result<T, String> {
    let mut d = Dec { bytes: payload, pos: 0 };
    let value = T::decode(&mut d)?;
    if d.pos != payload.len() {
        return Err("trailing bytes".to_string());
    }
    Ok(value)
}

/// A value's payload format: `encode` writes it, `decode` reads back
/// exactly those bytes and nothing else.
trait Codec {
    fn encode(&self, e: &mut Enc);
    fn decode(d: &mut Dec) -> Result<Self, String>
    where
        Self: Sized;
}

/// Declare a codec once: a struct as its fields in order, an enum as one
/// tag per variant followed by that variant's fields (unit variants are
/// written `V {}`). Both directions expand from the one declaration.
macro_rules! codec {
    (struct $ty:ident { $($f:ident),* $(,)? }) => {
        impl Codec for $ty {
            fn encode(&self, e: &mut Enc) {
                $(self.$f.encode(e);)*
            }
            fn decode(d: &mut Dec) -> Result<Self, String> {
                Ok($ty { $($f: Codec::decode(d)?),* })
            }
        }
    };
    (enum $ty:ident $(<$($g:ident),*>)? { $($v:ident $fields:tt = $tag:literal),* $(,)? }) => {
        impl$(<$($g: Codec),*>)? Codec for $ty$(<$($g),*>)? {
            fn encode(&self, e: &mut Enc) {
                match self {
                    $(variant!($ty::$v $fields) => {
                        e.tag($tag);
                        variant!(encode e $fields);
                    })*
                }
            }
            fn decode(d: &mut Dec) -> Result<Self, String> {
                Ok(match d.line()? {
                    $($tag => variant!(decode d $ty::$v $fields),)*
                    other => return Err(format!("bad {} tag {other:?}", stringify!($ty))),
                })
            }
        }
    };
}

/// One variant of a [`codec!`] enum: its pattern (or constructor), the
/// encoding of its fields, or its decoding.
macro_rules! variant {
    ($ty:ident::$v:ident ($($x:ident),*)) => { $ty::$v($($x),*) };
    ($ty:ident::$v:ident {$($x:ident),*}) => { $ty::$v { $($x),* } };
    (encode $e:ident ($($x:ident),*)) => { $($x.encode($e);)* };
    (encode $e:ident {$($x:ident),*}) => { $($x.encode($e);)* };
    (decode $d:ident $ty:ident::$v:ident ($($x:ident),*)) => {
        $ty::$v($(variant!(field $d $x)),*)
    };
    (decode $d:ident $ty:ident::$v:ident {$($x:ident),*}) => {
        $ty::$v { $($x: variant!(field $d $x)),* }
    };
    (field $d:ident $x:ident) => { Codec::decode($d)? };
}

codec!(enum Option<T> { Some(value) = "some", None {} = "none" });

codec!(enum Result<T, E> { Ok(value) = "ok", Err(error) = "err" });

/// Unsigned integers as a `u64`, range-checked on the way back.
macro_rules! codec_as_u64 {
    ($($ty:ident),*) => {$(
        impl Codec for $ty {
            fn encode(&self, e: &mut Enc) {
                e.u64(*self as u64);
            }
            fn decode(d: &mut Dec) -> Result<Self, String> {
                $ty::try_from(d.u64()?).map_err(|_| format!("{} out of range", stringify!($ty)))
            }
        }
    )*};
}

codec_as_u64!(u64, u32, usize);

/// `y` or `n`.
impl Codec for bool {
    fn encode(&self, e: &mut Enc) {
        e.tag(BOOL[usize::from(*self)]);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let tag = d.line()?;
        let value = BOOL.iter().position(|t| *t == tag).map(|i| i == 1);
        value.ok_or_else(|| format!("bad bool {tag:?}"))
    }
}

/// Each bool's tag, false first.
const BOOL: [&str; 2] = ["n", "y"];

/// A character as its code point.
impl Codec for char {
    fn encode(&self, e: &mut Enc) {
        u32::from(*self).encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let v = u32::decode(d)?;
        char::from_u32(v).ok_or_else(|| format!("bad char {v:#x}"))
    }
}

impl Codec for String {
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        d.str()
    }
}

/// The one `&'static str` the records carry through [`codec!`]: the
/// fault-site name of `BuildError::RetriesExhausted`, re-interned against
/// the closed set of sites (an unknown name is a corrupt entry).
impl Codec for &'static str {
    fn encode(&self, e: &mut Enc) {
        e.str(self);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let name = d.str()?;
        let site = FaultSite::ALL.into_iter().find(|site| site.name() == name);
        site.map(FaultSite::name).ok_or_else(|| format!("unknown fault op {name:?}"))
    }
}

impl<T: Codec> Codec for Arc<T> {
    fn encode(&self, e: &mut Enc) {
        (**self).encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        T::decode(d).map(Arc::new)
    }
}

/// A count, then the items.
impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.len() as u64);
        self.iter().for_each(|item| item.encode(e));
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        // Every item takes a byte or more: refuse counts the payload cannot hold.
        let n = d.u64()?;
        if n > (d.bytes.len() - d.pos) as u64 {
            return Err("list longer than its payload".to_string());
        }
        (0..n).map(|_| T::decode(d)).collect()
    }
}

impl Codec for () {
    fn encode(&self, _: &mut Enc) {}
    fn decode(_: &mut Dec) -> Result<Self, String> {
        Ok(())
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

/// Strictly ascending names, so one set has one encoding (a `HashSet`
/// iterates in no fixed order).
impl Codec for HashSet<String> {
    fn encode(&self, e: &mut Enc) {
        let mut names: Vec<&String> = self.iter().collect();
        names.sort_unstable();
        e.u64(names.len() as u64);
        names.into_iter().for_each(|name| e.str(name));
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let names = Vec::<String>::decode(d)?;
        strictly_ascending(&names, |name| name)?;
        Ok(names.into_iter().collect())
    }
}

/// Refuse items not in strictly ascending `key` order: a sorted
/// collection has exactly one encoding.
fn strictly_ascending<T, K: Ord>(items: &[T], key: impl Fn(&T) -> &K) -> Result<(), String> {
    let ascending = items.windows(2).all(|w| key(&w[0]) < key(&w[1]));
    ascending.then_some(()).ok_or_else(|| "items out of order".to_string())
}

codec!(enum CachedObj {
    I { text_len, result } = "I",
    O { text_len, result } = "O",
});

codec!(struct IFile { path, text, expanded_macros, includes });

codec!(enum BuildError {
    UnknownArch(arch) = "unknown_arch",
    CrossCompilerMissing(arch) = "cross_compiler_missing",
    NoKconfig(arch) = "no_kconfig",
    KconfigParse(message) = "kconfig_parse",
    MissingFile(path) = "missing_file",
    NoMakefile(path) = "no_makefile",
    NotEnabled(path) = "not_enabled",
    SetupCompilationFailed(path) = "setup_compilation_failed",
    PreprocessFailed { file, first_error } = "preprocess_failed",
    FrontEndRejected { file, error } = "front_end_rejected",
    RetriesExhausted { op, attempts } = "retries_exhausted",
});

codec!(enum SyntaxError {
    InvalidCharacter { ch, line } = "invalid_character",
    UnbalancedDelimiter { ch, line } = "unbalanced_delimiter",
    UnterminatedLiteral { line } = "unterminated_literal",
    EmptyTranslationUnit {} = "empty_translation_unit",
});

/// The key's fields, then the entry; the key's kind is not written but
/// read back from the entry's variant.
impl Codec for ObjectRecord {
    fn encode(&self, e: &mut Enc) {
        let (key, obj) = self;
        (key.blob.hi(), key.blob.lo()).encode(e);
        e.str(&key.path);
        key.include_fp.encode(e);
        key.env_fp.encode(e);
        key.module.encode(e);
        e.str(key.arch);
        obj.encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let (hi, lo) = Codec::decode(d)?;
        let path = Arc::from(d.str()?);
        let (include_fp, env_fp) = Codec::decode(d)?;
        let module = bool::decode(d)?;
        let arch = Arch::decode(d)?.name;
        let obj = CachedObj::decode(d)?;
        let kind = if matches!(obj, CachedObj::I { .. }) { ObjKind::I } else { ObjKind::O };
        let blob = ContentHash::from_parts(hi, lo);
        let key = ObjectKey { blob, path, include_fp, env_fp, module, arch, kind };
        Ok((key, Arc::new(obj)))
    }
}

/// An architecture by name, re-interned against the registry: a key
/// wants its `'static` name, and an arch this build does not know cannot
/// be served.
impl Codec for Arch {
    fn encode(&self, e: &mut Enc) {
        e.str(self.name);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let name = d.str()?;
        ArchRegistry::new().get(&name).ok_or_else(|| format!("unknown arch {name:?}"))
    }
}

codec!(struct IncludeKey { path, closure_fp, macro_fp, pragma_fp, depth });

codec!(struct IncludeEffect {
    chunk, exit_marker, errors, expanded, includes, pragma_adds, macro_events, first_flush
});

codec!(enum MacroEvent {
    Define(def) = "define",
    Undef(name) = "undef",
});

codec!(struct MacroDef { name, params, variadic, body });

codec!(struct Token { kind, text, space_before, line });

codec!(enum TokenKind {
    Ident {} = "id",
    Number {} = "num",
    Str {} = "str",
    Char {} = "chr",
    Punct {} = "pun",
    Other(ch) = "oth",
});

codec!(struct CppError { file, line, kind });

codec!(enum CppErrorKind {
    IncludeNotFound(target) = "include_not_found",
    IncludeDepthExceeded {} = "include_depth_exceeded",
    MalformedDirective(message) = "malformed_directive",
    BadExpression(expr) = "bad_expression",
    UserError(message) = "user_error",
    UnterminatedConditional {} = "unterminated_conditional",
    WrongArgumentCount { name, expected, got } = "wrong_argument_count",
});

/// The tree fingerprint and content fingerprint, then the configuration;
/// the cache key is recomputed from the decoded configuration.
impl Codec for ConfigRecord {
    fn encode(&self, e: &mut Enc) {
        let ((fingerprint, _, content_fp), cfg) = self;
        (*fingerprint, *content_fp).encode(e);
        cfg.arch.encode(e);
        cfg.kind.encode(e);
        cfg.config.encode(e);
        cfg.model.encode(e);
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let (fingerprint, content_fp) = Codec::decode(d)?;
        let arch = Arch::decode(d)?;
        let kind = ConfigKind::decode(d)?;
        let cfg = BuildConfig::from_parts(arch, kind, Config::decode(d)?, KconfigModel::decode(d)?);
        if cfg.content_fingerprint() != content_fp {
            // The stored key disagrees with the recomputed one — the entry
            // cannot be trusted to answer the lookups it claims to.
            return Err("content fingerprint mismatch".to_string());
        }
        Ok(((fingerprint, cfg.key().clone(), content_fp), Arc::new(cfg)))
    }
}

codec!(enum ConfigKind {
    AllYes {} = "allyes",
    AllMod {} = "allmod",
    Defconfig(path) = "defconfig",
    Custom { name, content } = "custom",
    Rand { seed } = "rand",
});

/// The `.config` rendering, which lists every symbol (set *and*
/// explicitly unset) in name order: `CONFIG_X=y|m` or
/// `# CONFIG_X is not set`, one line each.
impl Codec for Config {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.render());
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        canonical_text(d, Config::render, |text| {
            let mut config = Config::default();
            for line in text.lines() {
                let bad = || format!("bad config line {line:?}");
                let (name, value) = match line.strip_prefix("# CONFIG_") {
                    Some(rest) => (rest.strip_suffix(" is not set").ok_or_else(bad)?, Tristate::N),
                    None => {
                        let rest = line.strip_prefix("CONFIG_").ok_or_else(bad)?;
                        let (name, value) = rest.split_once('=').ok_or_else(bad)?;
                        (name, parse_tristate(value)?)
                    }
                };
                config.set(name, value);
            }
            Ok(config)
        })
    }
}

/// Every symbol in name order.
impl Codec for KconfigModel {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.len() as u64);
        self.symbols().for_each(|sym| sym.encode(e));
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        let symbols = Vec::<Symbol>::decode(d)?;
        strictly_ascending(&symbols, |sym| &sym.name)?;
        let mut model = KconfigModel::new();
        symbols.into_iter().for_each(|sym| model.insert(sym));
        Ok(model)
    }
}

codec!(struct Symbol {
    name, ty, prompt, depends, selects, defaults, declared_in, choice_group
});

codec!(enum SymbolType {
    Bool {} = "bool",
    Tristate {} = "tristate",
    Int {} = "int",
    Hex {} = "hex",
    String {} = "string",
});

/// An expression as its `Display` text, which `Expr::parse` reads back
/// (pinned by jmake-kconfig's display_round_trips test).
impl Codec for Expr {
    fn encode(&self, e: &mut Enc) {
        e.str(&self.to_string());
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        canonical_text(d, Expr::to_string, |text| {
            Expr::parse(text).map_err(|e| format!("bad expr: {e}"))
        })
    }
}

/// A value stored as its text: `parse` reads it back, and the value must
/// `render` to exactly that text again.
fn canonical_text<T>(
    d: &mut Dec,
    render: impl Fn(&T) -> String,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<T, String> {
    let text = d.str()?;
    let value = parse(&text)?;
    if render(&value) != text {
        return Err(format!("non-canonical text {text:?}"));
    }
    Ok(value)
}

/// A value as its bare `.config` letter (`y`, `m`, `n`).
impl Codec for Tristate {
    fn encode(&self, e: &mut Enc) {
        e.tag(&self.to_string());
    }
    fn decode(d: &mut Dec) -> Result<Self, String> {
        parse_tristate(d.line()?)
    }
}

fn parse_tristate(text: &str) -> Result<Tristate, String> {
    let value = [Tristate::N, Tristate::M, Tristate::Y].into_iter().find(|t| t.to_string() == text);
    value.ok_or_else(|| format!("bad tristate {text:?}"))
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
                CppError {
                    file: "include/linux/k.h".into(),
                    line: 11,
                    kind: CppErrorKind::IncludeDepthExceeded,
                },
                CppError {
                    file: "k.h".into(),
                    line: 12,
                    kind: CppErrorKind::MalformedDirective("#defin".into()),
                },
                CppError {
                    file: "k.h".into(),
                    line: 13,
                    kind: CppErrorKind::BadExpression("1 +".into()),
                },
                CppError {
                    file: "k.h".into(),
                    line: 14,
                    kind: CppErrorKind::UserError("#error no\nway".into()),
                },
                CppError {
                    file: "k.h".into(),
                    line: 15,
                    kind: CppErrorKind::UnterminatedConditional,
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
                MacroEvent::Define(Arc::new(MacroDef {
                    name: "ALL".into(),
                    params: Some(Vec::new()),
                    variadic: true,
                    body: [
                        TokenKind::Ident,
                        TokenKind::Number,
                        TokenKind::Str,
                        TokenKind::Char,
                        TokenKind::Punct,
                        TokenKind::Other('\u{e9}'),
                    ]
                    .into_iter()
                    .enumerate()
                    .map(|(i, kind)| Token::new(kind, format!("t{i}\n"), i % 2 == 0, i as u32))
                    .collect(),
                })),
                MacroEvent::Undef("K".to_string()),
            ],
            first_flush: Some(("include/linux/k.h".to_string(), 1)),
        };
        (key, effect)
    }

    /// Every `BuildError` shape, with every `SyntaxError` under
    /// `FrontEndRejected`.
    fn every_build_error() -> Vec<BuildError> {
        let mut errors = vec![
            BuildError::UnknownArch("weird".into()),
            BuildError::CrossCompilerMissing("arm64".into()),
            BuildError::NoKconfig("sh".into()),
            BuildError::KconfigParse("bad line".into()),
            BuildError::MissingFile("a.c".into()),
            BuildError::NoMakefile("drivers/x".into()),
            BuildError::NotEnabled("drivers/x/y.c".into()),
            BuildError::SetupCompilationFailed("scripts/mod.c".into()),
            BuildError::PreprocessFailed {
                file: "a.c".into(),
                first_error: "missing.h not found".into(),
            },
            BuildError::RetriesExhausted {
                op: "make_o",
                attempts: 4,
            },
        ];
        let syntax = [
            SyntaxError::InvalidCharacter { ch: '\u{e9}', line: 3 },
            SyntaxError::UnbalancedDelimiter { ch: '}', line: 7 },
            SyntaxError::UnterminatedLiteral { line: 8 },
            SyntaxError::EmptyTranslationUnit,
        ];
        errors.extend(syntax.into_iter().map(|error| BuildError::FrontEndRejected {
            file: "a.c".into(),
            error,
        }));
        errors
    }

    /// Caches holding a record of every shape the segment format has:
    /// object `I` ok and err, object `O` ok and every error, a preproc
    /// entry with every diagnostic and macro event, an empty preproc
    /// entry, and one solved config.
    fn every_shape() -> (ObjectCache, ConfigCache, PreprocCache) {
        let (key, obj) = sample_object();
        let o_key = |i: u64| ObjectKey {
            kind: ObjKind::O,
            include_fp: i,
            ..key.clone()
        };
        let mut objects = vec![
            (key.clone(), obj),
            (
                ObjectKey {
                    include_fp: 1,
                    ..key.clone()
                },
                CachedObj::I {
                    text_len: 0,
                    result: Err("missing.h not found".into()),
                },
            ),
            (o_key(2), CachedObj::O { text_len: 9, result: Ok(()) }),
        ];
        for (i, err) in every_build_error().into_iter().enumerate() {
            let obj = CachedObj::O {
                text_len: 100 + i as u64,
                result: Err(err),
            };
            objects.push((o_key(3 + i as u64), obj));
        }
        let (objects, configs, preproc) = filled(objects);
        let (pkey, _) = sample_preproc();
        let empty = IncludeKey { depth: 3, ..pkey };
        preproc.insert(empty, Arc::new(IncludeEffect::default()));
        (objects, configs, preproc)
    }

    /// Encode `value`, decode the bytes, and re-encode: the bytes must not
    /// move. Then hold decoding to the canonical property — a payload
    /// that decodes re-encodes to itself — on every variant of the bytes
    /// a lax number parser would still accept: a `+` sign or a leading
    /// zero before any line, a leading zero dropped, or a line in upper
    /// case. Returns the decoded value.
    fn round_trip<T: Codec>(value: &T) -> T {
        let payload = encode_payload(value);
        let text = String::from_utf8_lossy(&payload);
        let decoded: T =
            decode_payload(&payload).unwrap_or_else(|e| panic!("{e}: cannot decode {text:?}"));
        assert_eq!(encode_payload(&decoded), payload, "re-encoding moved {text:?}");
        let line_starts = std::iter::once(0)
            .chain((0..payload.len()).filter(|&i| payload[i] == b'\n').map(|i| i + 1))
            .filter(|&at| at < payload.len());
        for at in line_starts {
            let line_len = payload[at..].iter().position(|&b| b == b'\n');
            let end = line_len.map_or(payload.len(), |n| at + n);
            let mut variants = Vec::new();
            for prefix in [b'+', b'0'] {
                let mut v = payload.clone();
                v.insert(at, prefix);
                variants.push(v);
            }
            if payload[at] == b'0' {
                let mut v = payload.clone();
                v.remove(at);
                variants.push(v);
            }
            if payload[at..end].iter().any(u8::is_ascii_lowercase) {
                let mut v = payload.clone();
                v[at..end].make_ascii_uppercase();
                variants.push(v);
            }
            for variant in variants {
                if let Ok(lax) = decode_payload::<T>(&variant) {
                    assert_eq!(
                        encode_payload(&lax),
                        variant,
                        "non-canonical bytes decoded: {:?}",
                        String::from_utf8_lossy(&variant)
                    );
                }
            }
        }
        decoded
    }

    #[test]
    fn every_codec_type_round_trips_canonically() {
        for v in [0, 1, 0xabc, u64::MAX] {
            assert_eq!(round_trip(&v), v);
        }
        assert_eq!(round_trip(&u32::MAX), u32::MAX);
        assert_eq!(round_trip(&7usize), 7);
        assert!(round_trip(&true) && !round_trip(&false));
        for c in ['a', '\u{e9}', '\u{10ffff}'] {
            assert_eq!(round_trip(&c), c);
        }
        for s in ["", "0", "a\nb\n", "+1", "\u{fc}ber"] {
            assert_eq!(round_trip(&s.to_string()), s);
        }
        assert_eq!(round_trip(&"make_o"), "make_o");
        assert_eq!(round_trip(&Some(5u64)), Some(5));
        assert_eq!(round_trip(&None::<String>), None);
        let strings = vec!["b".to_string(), String::new(), "a".to_string()];
        assert_eq!(round_trip(&strings), strings);
        assert_eq!(round_trip(&Ok::<(), String>(())), Ok(()));
        assert_eq!(round_trip(&Err::<(), String>("no".into())), Err("no".into()));
        assert_eq!(round_trip(&(3u32, true)), (3, true));
        let set: HashSet<String> = ["z", "a", "m"].into_iter().map(String::from).collect();
        assert_eq!(round_trip(&set), set);
        for t in [Tristate::N, Tristate::M, Tristate::Y] {
            assert_eq!(round_trip(&t), t);
        }
        let expr = Expr::parse("NET && (E1000 || !m)").unwrap();
        assert_eq!(round_trip(&expr), expr);

        // Every record shape the segment format has.
        let (objects, configs, preproc) = every_shape();
        for record in objects.snapshot() {
            assert_eq!(round_trip(&record), record);
        }
        for record in preproc.snapshot() {
            assert_eq!(round_trip(&record), record);
        }
        let [(_, cfg)] = &configs.snapshot()[..] else {
            panic!("every_shape holds one config");
        };
        let kinds = [
            ConfigKind::AllYes,
            ConfigKind::AllMod,
            ConfigKind::Defconfig("arch/x86/configs/x86_64_defconfig".into()),
            ConfigKind::Custom {
                name: "cover-1".into(),
                content: "CONFIG_NET=y\n".into(),
            },
            ConfigKind::Rand { seed: u64::MAX },
        ];
        for kind in kinds {
            let (config, model) = (cfg.config.clone(), cfg.model.clone());
            let cfg = BuildConfig::from_parts(cfg.arch, kind, config, model);
            let record = ((11, cfg.key().clone(), cfg.content_fingerprint()), Arc::new(cfg));
            let (key, back) = round_trip(&record);
            assert_eq!(key, record.0);
            assert_config_eq(&back, &record.1);
        }
    }

    /// A mismatched content fingerprint, an unknown arch or fault site, an
    /// unsorted set, a bad tag, and a count the payload cannot hold are
    /// refused, not re-keyed or guessed at.
    #[test]
    fn decoding_refuses_values_it_cannot_serve() {
        let cfg = solved_config();
        let record = ((11, cfg.key().clone(), 1), Arc::clone(&cfg));
        let err = decode_payload::<ConfigRecord>(&encode_payload(&record)).unwrap_err();
        assert_eq!(err, "content fingerprint mismatch");
        let (key, obj) = sample_object();
        let payload = String::from_utf8(encode_payload(&(key, Arc::new(obj)))).unwrap();
        let unknown = payload.replacen("\n6\nx86_64\n", "\n4\nmars\n", 1);
        assert_ne!(unknown, payload);
        assert!(decode_payload::<ObjectRecord>(unknown.as_bytes()).is_err());
        assert!(decode_payload::<&'static str>(b"6\nmake_x\n").is_err());
        let unsorted = encode_payload(&vec!["b".to_string(), "a".to_string()]);
        assert!(decode_payload::<HashSet<String>>(&unsorted).is_err());
        assert!(decode_payload::<SyntaxError>(b"no_such_tag\n").is_err());
        assert!(decode_payload::<Vec<u64>>(b"ffffffffffffffff\n").is_err());
    }

    /// The segment the per-type codecs this module replaced wrote for
    /// [`every_shape`]: loading it and storing the loaded caches again
    /// must give the same file, byte for byte.
    const FORMAT_FIXTURE: (&str, &[u8]) = (
        "f387934d3206c2f8.seg",
        include_bytes!("../fixtures/f387934d3206c2f8.seg"),
    );

    #[test]
    fn format_fixture_loads_and_restores_byte_for_byte() {
        let dir = tempdir("fixture");
        let disk = DiskCache::open(&dir).unwrap();
        let (name, bytes) = FORMAT_FIXTURE;
        std::fs::write(dir.join("segments").join(name), bytes).unwrap();
        let loaded = (ObjectCache::new(), ConfigCache::new(), PreprocCache::new());
        let stats = disk.load(&loaded.0, &loaded.1, &loaded.2, &Faults::disabled()).unwrap();
        let expected = DiskTierStats {
            objects_loaded: 17,
            configs_loaded: 1,
            preproc_loaded: 2,
            ..DiskTierStats::default()
        };
        assert_eq!(stats, expected);

        let samples = every_shape();
        assert_eq!(by_digest(loaded.0.snapshot()), by_digest(samples.0.snapshot()));
        assert_eq!(by_digest(loaded.2.snapshot()), by_digest(samples.2.snapshot()));
        let (configs, sample_configs) = (loaded.1.snapshot(), samples.1.snapshot());
        assert_eq!(configs.len(), 1);
        assert_eq!(configs[0].0, sample_configs[0].0);
        assert_config_eq(&configs[0].1, &sample_configs[0].1);

        for (tag, caches) in [("fixture-restore", &loaded), ("fixture-samples", &samples)] {
            let out = tempdir(tag);
            DiskCache::open(&out).unwrap().store(&caches.0, &caches.1, &caches.2).unwrap();
            let segment = only_segment(&out);
            assert_eq!(segment.file_name().unwrap().to_str(), Some(name), "{tag}");
            assert!(std::fs::read(&segment).unwrap() == bytes, "{tag}: bytes moved");
            std::fs::remove_dir_all(&out).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn by_digest<R: Record>(records: Vec<R>) -> std::collections::BTreeMap<u64, R> {
        records.into_iter().map(|r| (r.key_digest(), r)).collect()
    }

    fn assert_config_eq(a: &BuildConfig, b: &BuildConfig) {
        assert_eq!((a.arch, &a.kind, &a.config, a.key()), (b.arch, &b.kind, &b.config, b.key()));
        assert!(a.model.symbols().eq(b.model.symbols()));
        assert_eq!(a.env_fingerprint(), b.env_fingerprint());
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
        let record = (key, Arc::new(obj));
        let payload = String::from_utf8(encode_payload(&record)).unwrap();
        // `drivers/net/a.c` is the first length-prefixed field.
        let bad = payload.replacen("\n15\n", "\n18446744073709551615\n", 1);
        assert_ne!(bad, payload);

        let dir = tempdir("len-overflow");
        let disk = DiskCache::open(&dir).unwrap();
        let record = (Kind::Object, record.key_digest(), bad.into_bytes());
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
                digest: fnv(&[payload]),
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
            /// Any effect round-trips canonically.
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
                let record = (key, Arc::new(effect));
                prop_assert_eq!(round_trip(&record), record);
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
        fn each<R: Record>(records: Vec<R>) -> impl Iterator<Item = ((Kind, u64), Vec<u8>)> {
            records.into_iter().map(|r| ((R::KIND, r.key_digest()), encode_payload(&r)))
        }
        let (objects, configs, preproc) =
            (each(objects.snapshot()), each(configs.snapshot()), each(preproc.snapshot()));
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
