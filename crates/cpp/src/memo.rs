//! Record/replay memoization of header-inclusion effects.
//!
//! Preprocessing the same header under the same macro environment is the
//! dominant repeated host cost of the `check` hot path: every trial of
//! every patch re-expands the same include closure. This module defines
//! the *mechanism* — a key that pins everything an inclusion's outcome
//! depends on, an effect record capturing everything the inclusion did to
//! preprocessor state, and a storage trait the build layer implements
//! (`jmake-kbuild`'s sharded `PreprocCache`).
//!
//! Soundness argument, part by part:
//!
//! - The *output chunk* of an included header depends on the header's
//!   include closure (contents of every file reachable from it under the
//!   active search paths — pinned by `closure_fp`), the macro table at
//!   entry (pinned by the running [`MacroTable::fingerprint`] — the
//!   config's predefined macros are *in* the table, so the macro
//!   environment fingerprint subsumes `-D` state), the pragma-once set
//!   (pinned by `pragma_fp`), and the nesting depth (the depth limit
//!   makes deep closures fail; pinned by `depth`).
//! - Line markers inside the chunk are relative to the header's own
//!   files, deterministic given the key — *except* the very first marker
//!   decision, which compares against the caller's output state. After
//!   any flush the output state is fully determined by flushed content,
//!   so only that first decision is entry-dependent. Effects therefore
//!   carry the first flush's `(path, first_line)` ([`IncludeEffect::
//!   first_flush`]); recordings whose first flush *skipped* its marker
//!   are discarded, and replay requires the current output state to make
//!   the same emit decision — otherwise the inclusion runs live.
//! - Side effects on the macro table are replayed as an ordered event
//!   log; errors, first-inclusion records, pragma-once additions, and
//!   expanded-macro names are replayed verbatim. After replay the
//!   preprocessor state is byte-for-byte what live processing would have
//!   produced, so `.i` text, diagnostics, and downstream reports are
//!   unchanged — only host time is saved. The virtual clock never sees
//!   any of this (it is charged per `make` invocation, above this layer).
//!
//! [`MacroTable::fingerprint`]: crate::MacroTable::fingerprint

use crate::error::CppError;
use crate::macros::MacroDef;
use std::sync::Arc;

/// Everything a memoizable inclusion's outcome depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IncludeKey {
    /// Canonical path of the included header.
    pub path: String,
    /// Fingerprint of the header's include closure: path + content of
    /// every file lexically reachable from it (the build layer computes
    /// this with the same walk that keys its object cache, folding the
    /// architecture's search paths in).
    pub closure_fp: u64,
    /// [`crate::MacroTable::fingerprint`] at the moment of inclusion.
    pub macro_fp: u64,
    /// Multiset fingerprint of the pragma-once set at inclusion.
    pub pragma_fp: u64,
    /// Include nesting depth of the header (depth-limit diagnostics
    /// depend on it).
    pub depth: u32,
}

/// One macro-table mutation, replayed in order. Definitions are shared
/// (`Arc`), so replaying a recording bumps refcounts instead of cloning
/// token bodies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MacroEvent {
    /// `#define` (or redefinition).
    Define(Arc<MacroDef>),
    /// `#undef`.
    Undef(String),
}

/// Everything processing one header (and its nested includes) did to the
/// preprocessor state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncludeEffect {
    /// Output text appended (starts with the header's line marker).
    pub chunk: String,
    /// `(out_file, out_line)` after the inclusion, when it produced any
    /// output; `None` means the output state passed through unchanged.
    pub exit_marker: Option<(String, u32)>,
    /// Diagnostics appended.
    pub errors: Vec<CppError>,
    /// Macro names expanded (order-free; deduplicated).
    pub expanded: Vec<String>,
    /// Files resolved, in first-resolution order (appended to the
    /// translation unit's include list unless already present).
    pub includes: Vec<String>,
    /// Paths newly added to the pragma-once set.
    pub pragma_adds: Vec<String>,
    /// Ordered macro-table mutations.
    pub macro_events: Vec<MacroEvent>,
    /// `(path, first_line)` of the recording's first flush, which emitted
    /// a line marker; `None` iff the inclusion produced no output. Replay
    /// is only valid where the same emit decision holds.
    pub first_flush: Option<(String, u32)>,
}

/// Storage + closure-fingerprint oracle for include memoization.
///
/// Implementations decide *whether* a header is cacheable at all by
/// returning `None` from [`IncludeMemo::closure_fp`] (computed includes
/// and other lexically-opaque constructs make a closure unfingerprintable).
pub trait IncludeMemo: Send + Sync {
    /// The include-closure fingerprint of `canon_path` under the active
    /// tree and architecture, or `None` when it cannot be pinned.
    fn closure_fp(&self, canon_path: &str) -> Option<u64>;

    /// Look up a recorded effect.
    fn lookup(&self, key: &IncludeKey) -> Option<Arc<IncludeEffect>>;

    /// Record an effect (first writer wins on races).
    fn insert(&self, key: IncludeKey, effect: Arc<IncludeEffect>);
}
