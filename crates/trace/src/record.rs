//! Dynamic trace records: the interface between the functional simulator
//! and every downstream consumer (cache model, interval model, oracle).
//!
//! A warp's trace splits along what its readers need. Its *instruction
//! stream* — each row's `pc`, `kind` and dependency list — is all the
//! interval algorithm reads, and the warps of a launch execute a handful of
//! distinct streams between them. So a [`Stream`] is stored once per
//! [`KernelTrace`] and each [`WarpTrace`] holds its stream through an
//! `Arc`, beside what is its own — the active masks and addresses that only
//! the cache simulation and the oracle read:
//!
//! - a stream is fixed-size rows plus one `Vec<u32>` holding every row's
//!   dependency list back to back;
//! - a warp holds one active mask per row (none at all when every mask is
//!   full, as in most warps), one address span per row that has an address
//!   list, and one `Vec<u64>` holding those lists back to back.
//!
//! [`WarpTrace::inst`] / [`WarpTrace::insts`] read a row as a [`TraceInst`]
//! with the warp's mask filled in; [`WarpTrace::deps`] / [`WarpTrace::addrs`]
//! resolve its lists. Two warps executed the same stream when their
//! [`WarpTrace::stream`]s are `Arc::ptr_eq`.
//!
//! The engine and `io::decode` intern as they build: each row is compared
//! with the stream the previous warp executed, and only at the first
//! difference is the prefix copied into a new stream, so a warp that repeats
//! a known stream allocates no row and no dependency list. An edit that
//! reaches the stream ([`WarpTrace::set_deps`], [`WarpTrace::set_kind`],
//! [`WarpTrace::truncate`], ...) copies it first while other warps share it
//! (`Arc::make_mut`), so it never changes another warp.
//!
//! A memory row's addresses take one of two forms in the address arena
//! ([`Addrs`]): one slot per active lane, or — when lane `l` accesses
//! `base + stride·l`, the common coalesced case — the two slots
//! `(base, stride)`, with the active lanes given by the row's mask. The
//! engine writes an address it holds as `base + stride·lane` in the short
//! form when three or more lanes are active, without materialising lanes;
//! every other row, and every list handed to [`WarpTrace::push`] or
//! [`WarpTrace::set_addrs`] (decoded or edited traces), is stored lane by
//! lane. Every observable — `PartialEq`, `Hash`, JSON, `io::encode` — sees
//! each warp's rows expanded to their lane addresses, so neither the form
//! nor the sharing of streams can be told from outside.
//!
//! An affine row's lane set *is* its active mask: editing the mask of such
//! a row ([`WarpTrace::set_mask`]) rewrites which addresses it holds (a lane
//! row would instead disagree with its list's length, which
//! [`KernelTrace::validate`] reports). Replace the list with
//! [`WarpTrace::set_addrs`] to edit a mask and keep the addresses apart.

use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::sync::Arc;

use gpumech_isa::{BlockId, InstKind, WarpId, WARP_SIZE};
use serde::{Serialize, Value};

use crate::engine::TraceError;
use crate::launch::LaunchConfig;

/// Every lane active: the mask of each row of a warp that stores none.
const FULL_MASK: u32 = u32::MAX;

/// The span index of a row without an address list.
const NO_SPAN: u32 = u32::MAX;

/// One dynamically executed warp-instruction as its warp reads it: the
/// stream's row with the warp's active mask. The dependency and address
/// lists stay where they are stored — read them with [`WarpTrace::deps`]
/// and [`WarpTrace::addrs`] of the warp the row came from.
#[derive(Debug, Clone, Copy)]
pub struct TraceInst {
    /// Static PC (index into the kernel's instruction array).
    pub pc: u32,
    /// Latency class.
    pub kind: InstKind,
    /// Bitmask of active lanes. On a row whose addresses are stored as
    /// [`Addrs::Affine`] it also selects those addresses (see the
    /// [module docs](self)).
    pub active_mask: u32,
    deps_off: u32,
    span: u32,
    deps_len: u8,
}

impl TraceInst {
    /// Number of active lanes.
    #[must_use]
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
    }
}

/// One row of a [`Stream`]: a [`TraceInst`] without its mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StreamRow {
    pc: u32,
    kind: InstKind,
    deps_off: u32,
    /// Index of the row's address span in each warp of the stream, counting
    /// the rows with an address list in order; [`NO_SPAN`] for none.
    span: u32,
    deps_len: u8,
}

impl StreamRow {
    fn has_addrs(self) -> bool {
        self.span != NO_SPAN
    }

    fn with_mask(self, active_mask: u32) -> TraceInst {
        let StreamRow { pc, kind, deps_off, span, deps_len } = self;
        TraceInst { pc, kind, active_mask, deps_off, span, deps_len }
    }
}

/// A list handed to [`WarpTrace::push`], [`WarpTrace::set_deps`] or
/// [`WarpTrace::set_addrs`] does not fit the row layout: more than 255
/// dependencies or 254 addresses, or an arena that would outgrow its
/// 32-bit offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowOverflow;

impl std::fmt::Display for RowOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(
            "list exceeds the trace row layout (255 dependencies, 254 addresses, 2^32-entry arena)",
        )
    }
}

impl std::error::Error for RowOverflow {}

/// Appends `items` to `arena` and returns the `(offset, length)` a row
/// stores for them.
fn append<T: Copy>(arena: &mut Vec<T>, items: &[T]) -> Result<(u32, u8), RowOverflow> {
    let len = u8::try_from(items.len()).map_err(|_| RowOverflow)?;
    let off = u32::try_from(arena.len()).map_err(|_| RowOverflow)?;
    arena.extend_from_slice(items);
    Ok((off, len))
}

/// The arena range of one row, or the empty slice when the row points
/// outside the arena (only a corrupted trace does; [`KernelTrace::validate`]
/// reports it).
fn span<T>(arena: &[T], off: u32, len: usize) -> &[T] {
    let off = off as usize;
    arena.get(off..off + len).unwrap_or(&[])
}

/// The length of a span whose addresses are stored as `(base, stride)`:
/// no lane list is this long, so the length byte doubles as the form flag.
const AFFINE: u8 = u8::MAX;

/// `base + stride·lane`, wrapping: lane `lane`'s address of an affine row,
/// and the engine's affine register values.
pub(crate) fn affine_at(base: u64, stride: u64, lane: usize) -> u64 {
    base.wrapping_add(stride.wrapping_mul(lane as u64))
}

/// The addresses of one memory row, in ascending lane order, as the row
/// stores them. Read them with [`Addrs::iter`]; a consumer that can use the
/// affine form directly (the coalescer) matches on it.
#[derive(Debug, Clone, Copy)]
pub enum Addrs<'a> {
    /// One address per active lane.
    Lanes(&'a [u64]),
    /// Lane `l` accesses `base + stride·l` (wrapping), for each lane set in
    /// `mask` (the row's active mask).
    Affine {
        /// Lane 0's address.
        base: u64,
        /// Address step from one lane to the next.
        stride: u64,
        /// The lanes that access memory.
        mask: u32,
    },
}

impl<'a> Addrs<'a> {
    /// Number of addresses (active lanes).
    #[must_use]
    pub fn len(&self) -> usize {
        match *self {
            Addrs::Lanes(lanes) => lanes.len(),
            Addrs::Affine { mask, .. } => mask.count_ones() as usize,
        }
    }

    /// `true` for a row without addresses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The addresses in ascending lane order.
    #[must_use]
    pub fn iter(&self) -> AddrIter<'a> {
        AddrIter(match *self {
            Addrs::Lanes(lanes) => IterForm::Lanes(lanes.iter()),
            Addrs::Affine { base, stride, mask } => IterForm::Affine { base, stride, rest: mask },
        })
    }

    /// The addresses as an owned list.
    #[must_use]
    pub fn to_vec(&self) -> Vec<u64> {
        self.iter().collect()
    }

    /// The addresses as a lane slice: the stored lanes, or an affine row's
    /// lanes written into `buf`. A list longer than `buf` (only a corrupted
    /// trace holds one) is returned as stored.
    #[must_use]
    pub fn lanes<'b>(&self, buf: &'b mut [u64; WARP_SIZE]) -> &'b [u64]
    where
        'a: 'b,
    {
        match *self {
            Addrs::Lanes(lanes) => lanes,
            Addrs::Affine { .. } => {
                let n = buf.iter_mut().zip(self.iter()).map(|(slot, a)| *slot = a).count();
                &buf[..n]
            }
        }
    }
}

/// Equality of the addresses, whichever form holds them.
impl PartialEq for Addrs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Addrs<'_> {}

/// Hashes exactly what the lane slice would: its length prefix, then its
/// bytes in one write.
impl Hash for Addrs<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.lanes(&mut [0; WARP_SIZE]).hash(state);
    }
}

/// Iterator over the addresses of an [`Addrs`].
#[derive(Debug, Clone)]
pub struct AddrIter<'a>(IterForm<'a>);

#[derive(Debug, Clone)]
enum IterForm<'a> {
    Lanes(std::slice::Iter<'a, u64>),
    Affine { base: u64, stride: u64, rest: u32 },
}

impl Iterator for AddrIter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match &mut self.0 {
            IterForm::Lanes(lanes) => lanes.next().copied(),
            IterForm::Affine { base, stride, rest } => {
                let lane = (*rest != 0).then(|| rest.trailing_zeros() as usize)?;
                *rest &= *rest - 1;
                Some(affine_at(*base, *stride, lane))
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            IterForm::Lanes(lanes) => lanes.len(),
            IterForm::Affine { rest, .. } => rest.count_ones() as usize,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for AddrIter<'_> {}

/// One row with its lists resolved: the logical content of a dynamic
/// instruction. Field order is the record's historical declaration order —
/// `Hash` feeds fields in this order, and `gpumech_exec::trace_fingerprint`
/// values (so profile-cache keys and report rows) depend on it.
#[derive(PartialEq, Eq, Hash)]
pub(crate) struct Row<'a> {
    pub(crate) pc: u32,
    pub(crate) kind: InstKind,
    pub(crate) deps: &'a [u32],
    pub(crate) active_mask: u32,
    pub(crate) addrs: Addrs<'a>,
}

/// An instruction stream: the `pc`, `kind` and dependency list of each row
/// a warp executed, held once for every warp of a [`KernelTrace`] that
/// executed it (see the [module docs](self)).
#[derive(Debug, Clone, Default)]
pub struct Stream {
    rows: Vec<StreamRow>,
    /// Every row's dependency list, back to back.
    deps: Vec<u32>,
    /// Rows with an address list: the spans each warp of the stream holds.
    spans: u32,
}

impl Stream {
    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` for the stream of a warp that executed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Bytes the rows and the dependency arena hold (their capacity).
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.rows.capacity() * size_of::<StreamRow>() + self.deps.capacity() * size_of::<u32>()
    }

    fn deps_of(&self, off: u32, len: u8) -> &[u32] {
        span(&self.deps, off, usize::from(len))
    }

    /// The `pc` of row `k`, if there is one.
    pub(crate) fn pc(&self, k: usize) -> Option<u32> {
        self.rows.get(k).map(|r| r.pc)
    }

    /// Appends a row; with `has_addrs` it takes the next span index.
    fn push(
        &mut self,
        pc: u32,
        kind: InstKind,
        deps: &[u32],
        has_addrs: bool,
    ) -> Result<(), RowOverflow> {
        let (deps_off, deps_len) = append(&mut self.deps, deps)?;
        let span = if has_addrs { self.spans } else { NO_SPAN };
        self.spans += u32::from(has_addrs);
        self.rows.push(StreamRow { pc, kind, deps_off, span, deps_len });
        Ok(())
    }

    /// `true` when row `k` is `(pc, kind, deps)`, with an address list if
    /// and only if `has_addrs`.
    fn row_is(&self, k: usize, pc: u32, kind: InstKind, deps: &[u32], has_addrs: bool) -> bool {
        self.rows.get(k).is_some_and(|r| {
            (r.pc, r.kind, r.has_addrs()) == (pc, kind, has_addrs)
                && self.deps_of(r.deps_off, r.deps_len) == deps
        })
    }

    /// Entries of the dependency arena the first `k` rows use. The builder
    /// appends each row's list in row order, so they are a prefix.
    fn deps_end(&self, k: usize) -> usize {
        self.rows[..k].last().map_or(0, |r| r.deps_off as usize + usize::from(r.deps_len))
    }

    /// `true` when the first `k` rows of both streams are equal. Only for
    /// streams the builder made: their rows agree offsets included when
    /// their content does, so this is two slice compares.
    fn prefix_eq(&self, other: &Stream, k: usize) -> bool {
        k <= self.len()
            && k <= other.len()
            && self.rows[..k] == other.rows[..k]
            && self.deps[..self.deps_end(k)] == other.deps[..other.deps_end(k)]
    }

    /// A copy of the first `k` rows of a stream the builder made, with room
    /// for `rows` rows.
    fn prefix(&self, k: usize, rows: usize) -> Stream {
        let mut out = Stream { rows: Vec::with_capacity(rows.max(k)), ..Stream::default() };
        out.rows.extend_from_slice(&self.rows[..k]);
        out.deps.extend_from_slice(&self.deps[..self.deps_end(k)]);
        out.spans = out.rows.iter().filter(|r| r.has_addrs()).count() as u32;
        out
    }

    /// The stream's part of [`KernelTrace::validate`]: every row's list lies
    /// inside the arena (checked before it is read), its `pc` is below
    /// [`KernelTrace::MAX_STATIC_INSTS`], and its dependencies ascend
    /// strictly and name earlier rows only. Returns the first violation.
    fn check(&self) -> Result<(), String> {
        for (k, row) in self.rows.iter().enumerate() {
            let pc = row.pc;
            let deps = self.deps_of(row.deps_off, row.deps_len);
            if deps.len() != usize::from(row.deps_len) {
                return Err(outside_arena(k, pc));
            }
            if pc >= KernelTrace::MAX_STATIC_INSTS {
                return Err(format!(
                    "instruction {k} has pc {pc}, beyond the {} static instructions a kernel may \
                     have",
                    KernelTrace::MAX_STATIC_INSTS
                ));
            }
            let mut prev: Option<u32> = None;
            for &d in deps {
                if d as usize >= k {
                    return Err(format!(
                        "instruction {k} (pc {pc}) depends on instruction {d}, which is not \
                         earlier in the warp"
                    ));
                }
                if prev.is_some_and(|p| p >= d) {
                    return Err(format!(
                        "instruction {k} (pc {pc}) has unsorted or duplicate dependencies"
                    ));
                }
                prev = Some(d);
            }
        }
        Ok(())
    }
}

fn outside_arena(k: usize, pc: u32) -> String {
    format!("instruction {k} (pc {pc}) points outside the warp's dependency or address arena")
}

/// Where one row's addresses lie in its warp's address arena.
#[derive(Debug, Clone, Copy)]
struct AddrSpan {
    off: u32,
    /// Lane count, or [`AFFINE`] for the two slots `(base, stride)`.
    len: u8,
}

impl AddrSpan {
    /// Arena slots the span covers.
    fn slots(self) -> usize {
        if self.len == AFFINE {
            2
        } else {
            usize::from(self.len)
        }
    }
}

/// What a warp holds beside its stream.
#[derive(Debug, Clone, Default)]
struct WarpData {
    /// One active mask per row, or none when every mask is full.
    masks: Vec<u32>,
    /// One span per row with an address list, in row order.
    spans: Vec<AddrSpan>,
    /// Every span's addresses, back to back: one slot per active lane, or
    /// the two slots `(base, stride)` of an affine row.
    addrs: Vec<u64>,
}

impl WarpData {
    fn mask(&self, k: usize) -> u32 {
        if self.masks.is_empty() {
            FULL_MASK
        } else {
            self.masks.get(k).copied().unwrap_or(0)
        }
    }

    /// Records row `k`'s mask. Full masks are stored only once some row's
    /// is not; the first such row writes out those before it, with room
    /// for `rows` rows.
    fn push_mask(&mut self, k: usize, mask: u32, rows: usize) {
        if self.masks.is_empty() {
            if mask == FULL_MASK {
                return;
            }
            self.masks.reserve(rows.max(k + 1));
            self.masks.resize(k, FULL_MASK);
        }
        self.masks.push(mask);
    }

    /// The span a list of `n` lanes appended now gets.
    fn next_lanes(&self, n: usize) -> Result<AddrSpan, RowOverflow> {
        let len = u8::try_from(n).ok().filter(|&len| len != AFFINE).ok_or(RowOverflow)?;
        let off = u32::try_from(self.addrs.len()).map_err(|_| RowOverflow)?;
        Ok(AddrSpan { off, len })
    }

    fn push_lanes(&mut self, span: AddrSpan, addrs: &[u64]) {
        self.addrs.extend_from_slice(addrs);
        self.spans.push(span);
    }

    /// The addresses of span `span` under `mask`; empty for a row without
    /// a list or one that lies outside the arena.
    fn addrs_of(&self, span: u32, mask: u32) -> Addrs<'_> {
        let Some(&s) = self.spans.get(span as usize) else { return Addrs::Lanes(&[]) };
        if s.len != AFFINE {
            return Addrs::Lanes(self::span(&self.addrs, s.off, s.slots()));
        }
        match *self::span(&self.addrs, s.off, 2) {
            [base, stride] => Addrs::Affine { base, stride, mask },
            _ => Addrs::Lanes(&[]),
        }
    }

    fn held_bytes(&self) -> usize {
        self.masks.capacity() * size_of::<u32>()
            + self.spans.capacity() * size_of::<AddrSpan>()
            + self.addrs.capacity() * size_of::<u64>()
    }

    fn shrink_to_fit(&mut self) {
        self.masks.shrink_to_fit();
        self.spans.shrink_to_fit();
        self.addrs.shrink_to_fit();
    }
}

/// Builds the warps of one kernel one after another, interning their
/// streams: the engine's and `io::decode`'s way to make a [`WarpTrace`].
///
/// A warp's rows are compared, as they arrive, with the stream it follows —
/// at first the stream of the previous warp. Where they differ, the warp
/// follows another known stream with the same rows so far if there is one;
/// otherwise the rows so far are copied into a stream of its own, which
/// every later row extends and which is added to the known streams when the
/// warp ends. So each distinct stream is stored once, and a warp that
/// repeats one allocates only its addresses (and its masks, if any is not
/// full).
///
/// The engine may also skip the comparison: when the previous warp ran every
/// row under a full mask, it replays that warp's stream ([`Self::replayable`]),
/// appends only the addresses ([`Self::replay_affine`],
/// [`Self::replay_lanes`]) and tells the builder how far the warp followed
/// the stream ([`Self::resume`]).
#[derive(Debug, Default)]
pub(crate) struct TraceBuilder {
    /// The distinct streams of the warps built so far.
    streams: Vec<Arc<Stream>>,
    /// The stream the current warp has matched so far.
    follow: Option<usize>,
    /// The previous warp ran every row under a full mask (it stored no
    /// masks); `follow` names its stream until the current warp departs.
    follow_full: bool,
    /// The current warp's own stream, once it left every known one.
    own: Option<Stream>,
    /// Rows of the current warp so far.
    len: usize,
    data: WarpData,
    /// Rows, spans and address slots of the previous warp: size hints.
    hint: (usize, usize, usize),
}

impl TraceBuilder {
    /// Starts the next warp.
    pub(crate) fn begin(&mut self) {
        let (_, spans, addrs) = self.hint;
        self.own = None;
        self.len = 0;
        self.data = WarpData {
            masks: Vec::new(),
            spans: Vec::with_capacity(spans),
            addrs: Vec::with_capacity(addrs),
        };
    }

    /// Rows of the current warp so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The stream of the previous warp if it ran every row under a full
    /// mask: the one a warp may replay.
    pub(crate) fn replayable(&self) -> Option<Arc<Stream>> {
        let f = self.follow.filter(|_| self.follow_full)?;
        Some(Arc::clone(&self.streams[f]))
    }

    /// Appends the addresses `base + stride·lane` of a replayed memory row
    /// (full mask) as the two slots `(base, stride)`.
    pub(crate) fn replay_affine(&mut self, base: u64, stride: u64) -> Result<(), RowOverflow> {
        let off = u32::try_from(self.data.addrs.len()).map_err(|_| RowOverflow)?;
        self.data.push_lanes(AddrSpan { off, len: AFFINE }, &[base, stride]);
        Ok(())
    }

    /// Appends the 32 lane addresses of a replayed memory row (full mask).
    pub(crate) fn replay_lanes(&mut self, lanes: &[u64; WARP_SIZE]) -> Result<(), RowOverflow> {
        let span = self.data.next_lanes(WARP_SIZE)?;
        self.data.push_lanes(span, lanes);
        Ok(())
    }

    /// Declares the current warp's first `len` rows to be those of the
    /// [replayable](Self::replayable) stream, under full masks, their
    /// addresses appended already; later rows are compared as usual.
    pub(crate) fn resume(&mut self, len: usize) {
        self.len = len;
    }

    /// The stream side of row `self.len`.
    fn row(
        &mut self,
        pc: u32,
        kind: InstKind,
        deps: &[u32],
        has_addrs: bool,
    ) -> Result<(), RowOverflow> {
        let k = self.len;
        if let Some(own) = &mut self.own {
            return own.push(pc, kind, deps, has_addrs);
        }
        let follows = |s: &Stream| s.row_is(k, pc, kind, deps, has_addrs);
        if self.follow.is_some_and(|f| follows(&self.streams[f])) {
            return Ok(());
        }
        let prefix = self.follow.map(|f| &*self.streams[f]);
        let same_prefix = |s: &Stream| prefix.is_none_or(|p| s.prefix_eq(p, k));
        if let Some(other) = self.streams.iter().position(|s| follows(s) && same_prefix(s)) {
            self.follow = Some(other);
            return Ok(());
        }
        let rows = prefix.map_or(self.hint.0, Stream::len);
        let mut own = match prefix {
            Some(p) => p.prefix(k, rows),
            None => Stream { rows: Vec::with_capacity(rows), ..Stream::default() },
        };
        own.push(pc, kind, deps, has_addrs)?;
        self.own = Some(own);
        Ok(())
    }

    fn end_row(&mut self, mask: u32) {
        self.data.push_mask(self.len, mask, self.hint.0);
        self.len += 1;
    }

    /// Appends a row with its addresses as a list, stored lane by lane.
    pub(crate) fn push(
        &mut self,
        pc: u32,
        kind: InstKind,
        mask: u32,
        deps: &[u32],
        addrs: &[u64],
    ) -> Result<(), RowOverflow> {
        let has_addrs = kind.is_mem() || !addrs.is_empty();
        let span = self.data.next_lanes(addrs.len())?;
        self.row(pc, kind, deps, has_addrs)?;
        if has_addrs {
            self.data.push_lanes(span, addrs);
        }
        self.end_row(mask);
        Ok(())
    }

    /// Appends a memory row whose lane `l` accesses `base + stride·l`:
    /// stored as `(base, stride)` when three or more lanes are active, else
    /// as the lanes themselves.
    pub(crate) fn push_affine(
        &mut self,
        pc: u32,
        kind: InstKind,
        mask: u32,
        deps: &[u32],
        base: u64,
        stride: u64,
    ) -> Result<(), RowOverflow> {
        if mask.count_ones() <= 2 {
            return self.push_mem(pc, kind, mask, deps, |lane| affine_at(base, stride, lane));
        }
        let off = u32::try_from(self.data.addrs.len()).map_err(|_| RowOverflow)?;
        self.row(pc, kind, deps, true)?;
        self.data.push_lanes(AddrSpan { off, len: AFFINE }, &[base, stride]);
        self.end_row(mask);
        Ok(())
    }

    /// Appends a memory row whose lane `l` accesses `addr_of(l)`: the
    /// active lanes' addresses are generated straight into the arena, in
    /// ascending lane order.
    pub(crate) fn push_mem(
        &mut self,
        pc: u32,
        kind: InstKind,
        mask: u32,
        deps: &[u32],
        addr_of: impl Fn(usize) -> u64,
    ) -> Result<(), RowOverflow> {
        let span = self.data.next_lanes(mask.count_ones() as usize)?;
        self.row(pc, kind, deps, true)?;
        let addrs = &mut self.data.addrs;
        if mask == FULL_MASK {
            addrs.extend((0..WARP_SIZE).map(addr_of));
        } else {
            let mut rest = mask;
            while rest != 0 {
                addrs.push(addr_of(rest.trailing_zeros() as usize));
                rest &= rest - 1;
            }
        }
        self.data.spans.push(span);
        self.end_row(mask);
        Ok(())
    }

    /// The addresses of the last row pushed, if it has a list.
    #[cfg(debug_assertions)]
    pub(crate) fn last_addrs(&self, mask: u32) -> Addrs<'_> {
        let last = self.data.spans.len().checked_sub(1).map_or(NO_SPAN, |s| s as u32);
        self.data.addrs_of(last, mask)
    }

    /// Ends the warp begun last and returns its trace.
    pub(crate) fn finish(&mut self, warp: WarpId, block: BlockId) -> WarpTrace {
        let len = self.len;
        let at = if let Some(own) = self.own.take() {
            self.intern(own)
        } else if let Some(f) = self.follow.filter(|&f| self.streams[f].len() == len) {
            f
        } else {
            // The warp stopped short of the stream it followed: its stream
            // is that stream's first `len` rows.
            let prefix = self.follow.map(|f| &*self.streams[f]);
            let whole = |s: &Stream| s.len() == len && prefix.is_none_or(|p| s.prefix_eq(p, len));
            match self.streams.iter().position(|s| whole(s)) {
                Some(at) => at,
                None => {
                    let own = prefix.map_or_else(Stream::default, |p| p.prefix(len, len));
                    self.intern(own)
                }
            }
        };
        self.follow = Some(at);
        self.follow_full = self.data.masks.is_empty();
        let mut data = std::mem::take(&mut self.data);
        data.shrink_to_fit();
        self.hint = (len, data.spans.len(), data.addrs.len());
        WarpTrace { warp, block, stream: Arc::clone(&self.streams[at]), data }
    }

    fn intern(&mut self, mut stream: Stream) -> usize {
        stream.rows.shrink_to_fit();
        stream.deps.shrink_to_fit();
        self.streams.push(Arc::new(stream));
        self.streams.len() - 1
    }
}

/// The full dynamic trace of one warp: its stream and its own masks and
/// addresses (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct WarpTrace {
    /// Grid-global warp id.
    pub warp: WarpId,
    /// Owning thread block.
    pub block: BlockId,
    stream: Arc<Stream>,
    data: WarpData,
}

impl WarpTrace {
    /// An empty trace for `warp` of `block`, with a stream of its own.
    #[must_use]
    pub fn new(warp: WarpId, block: BlockId) -> Self {
        Self { warp, block, stream: Arc::default(), data: WarpData::default() }
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.stream.len()
    }

    /// `true` if the warp executed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stream.is_empty()
    }

    /// The instruction stream the warp executed. In a trace the engine or
    /// `io::decode` built, every warp that executed the same one holds it.
    #[must_use]
    pub fn stream(&self) -> &Arc<Stream> {
        &self.stream
    }

    /// Bytes the warp's own masks, spans and addresses hold (their
    /// capacity); its stream is counted by [`Stream::held_bytes`].
    #[must_use]
    pub fn held_bytes(&self) -> usize {
        self.data.held_bytes()
    }

    /// Count of dynamic global-memory instructions.
    #[must_use]
    pub fn global_mem_insts(&self) -> usize {
        self.stream.rows.iter().filter(|r| r.kind.is_global_mem()).count()
    }

    /// Row `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    #[must_use]
    pub fn inst(&self, k: usize) -> TraceInst {
        self.stream.rows[k].with_mask(self.data.mask(k))
    }

    /// The rows in program order.
    pub fn insts(
        &self,
    ) -> impl DoubleEndedIterator<Item = TraceInst> + ExactSizeIterator + Clone + '_ {
        let data = &self.data;
        self.stream.rows.iter().enumerate().map(move |(k, r)| r.with_mask(data.mask(k)))
    }

    /// Indices (into the warp's rows) of the instructions that produced
    /// `inst`'s register sources. Deduplicated and sorted; empty for
    /// instructions with no register inputs. `inst` must be a row of this
    /// warp.
    #[must_use]
    pub fn deps(&self, inst: &TraceInst) -> &[u32] {
        self.stream.deps_of(inst.deps_off, inst.deps_len)
    }

    /// Per-active-lane byte addresses of a memory instruction, in ascending
    /// lane order, in the form the row stores them. Empty for non-memory
    /// instructions. `inst` must be a row of this warp.
    #[must_use]
    pub fn addrs(&self, inst: &TraceInst) -> Addrs<'_> {
        self.data.addrs_of(inst.span, inst.active_mask)
    }

    /// Lengths of the dependency arena (the stream's) and the address
    /// arena (the warp's), in entries.
    #[must_use]
    pub fn arena_lens(&self) -> (usize, usize) {
        (self.stream.deps.len(), self.data.addrs.len())
    }

    /// Appends one dynamic instruction. A memory row, or any row given
    /// addresses, gets an address list.
    ///
    /// # Errors
    ///
    /// [`RowOverflow`] when the dependency list has more than 255 entries,
    /// the address list more than 254, or an arena would outgrow its
    /// 32-bit offsets; no row is appended then.
    pub fn push(
        &mut self,
        pc: u32,
        kind: InstKind,
        active_mask: u32,
        deps: &[u32],
        addrs: &[u64],
    ) -> Result<(), RowOverflow> {
        let has_addrs = kind.is_mem() || !addrs.is_empty();
        let span = self.data.next_lanes(addrs.len())?;
        let k = self.len();
        Arc::make_mut(&mut self.stream).push(pc, kind, deps, has_addrs)?;
        if has_addrs {
            self.data.push_lanes(span, addrs);
        }
        self.data.push_mask(k, active_mask, 0);
        Ok(())
    }

    /// Sets the kind of row `k`. The row keeps its address list, or its
    /// lack of one, whatever the new kind.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set_kind(&mut self, k: usize, kind: InstKind) {
        Arc::make_mut(&mut self.stream).rows[k].kind = kind;
    }

    /// Sets the active mask of row `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set_mask(&mut self, k: usize, mask: u32) {
        let n = self.len();
        assert!(k < n, "row {k} of a warp of {n}");
        if self.data.masks.is_empty() {
            if mask == FULL_MASK {
                return;
            }
            self.data.masks = vec![FULL_MASK; n];
        }
        self.data.masks[k] = mask;
    }

    /// Replaces the dependency list of row `k` (the new list is appended to
    /// the arena; the old range is left unreferenced).
    ///
    /// # Errors
    ///
    /// [`RowOverflow`] as for [`WarpTrace::push`]; the row is unchanged then.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set_deps(&mut self, k: usize, deps: &[u32]) -> Result<(), RowOverflow> {
        let stream = Arc::make_mut(&mut self.stream);
        let (off, len) = append(&mut stream.deps, deps)?;
        let row = &mut stream.rows[k];
        (row.deps_off, row.deps_len) = (off, len);
        Ok(())
    }

    /// Replaces the address list of row `k`, like [`WarpTrace::set_deps`].
    /// A row without a list gets one unless `addrs` is empty.
    ///
    /// # Errors
    ///
    /// [`RowOverflow`] as for [`WarpTrace::push`]; the row is unchanged then.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set_addrs(&mut self, k: usize, addrs: &[u64]) -> Result<(), RowOverflow> {
        let row = self.stream.rows[k];
        let span = self.data.next_lanes(addrs.len())?;
        if row.has_addrs() {
            self.data.addrs.extend_from_slice(addrs);
            if let Some(s) = self.data.spans.get_mut(row.span as usize) {
                *s = span;
            }
        } else if !addrs.is_empty() {
            // The row takes the span index after the rows before it, and
            // every later row's index moves up by one.
            let stream = Arc::make_mut(&mut self.stream);
            let at = stream.rows[..k].iter().filter(|r| r.has_addrs()).count();
            for r in stream.rows[k + 1..].iter_mut().filter(|r| r.has_addrs()) {
                r.span += 1;
            }
            stream.rows[k].span = at as u32;
            stream.spans += 1;
            self.data.addrs.extend_from_slice(addrs);
            self.data.spans.insert(at.min(self.data.spans.len()), span);
        }
        Ok(())
    }

    /// Keeps the first `n` rows.
    pub fn truncate(&mut self, n: usize) {
        if n >= self.len() {
            return;
        }
        let stream = Arc::make_mut(&mut self.stream);
        stream.rows.truncate(n);
        stream.spans = stream.rows.iter().filter(|r| r.has_addrs()).count() as u32;
        self.data.masks.truncate(n);
        self.data.spans.truncate(stream.spans as usize);
    }

    /// Shortens the arenas to at most `deps` and `addrs` entries without
    /// touching the rows, so rows whose lists lay beyond the cut now point
    /// outside their arena — the corruption a torn or hand-edited trace
    /// would carry, which [`KernelTrace::validate`] must reject.
    pub fn truncate_arenas(&mut self, deps: usize, addrs: usize) {
        if deps < self.stream.deps.len() {
            Arc::make_mut(&mut self.stream).deps.truncate(deps);
        }
        self.data.addrs.truncate(addrs);
    }

    /// The rows with their lists resolved: what every observable of the
    /// warp (`PartialEq`, `Hash`, JSON, `io::encode`) reads.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        let (stream, data) = (&*self.stream, &self.data);
        stream.rows.iter().enumerate().map(move |(k, r)| {
            let active_mask = data.mask(k);
            Row {
                pc: r.pc,
                kind: r.kind,
                deps: stream.deps_of(r.deps_off, r.deps_len),
                active_mask,
                addrs: data.addrs_of(r.span, active_mask),
            }
        })
    }

    /// The warp's part of [`KernelTrace::validate`]: its masks and spans
    /// match its stream in number, every span lies inside the address
    /// arena (checked before it is read), every mask is non-zero, and each
    /// row's address count fits its kind and mask. Returns the first
    /// violation.
    fn check(&self) -> Result<(), String> {
        let (n, masks, spans) = (self.len(), self.data.masks.len(), self.data.spans.len());
        if masks != 0 && masks != n {
            return Err(format!("warp holds {masks} active masks for {n} instructions"));
        }
        if spans != self.stream.spans as usize {
            return Err(format!(
                "warp holds {spans} address lists for a stream with {}",
                self.stream.spans
            ));
        }
        for (k, inst) in self.insts().enumerate() {
            let pc = inst.pc;
            if let Some(&s) = self.data.spans.get(inst.span as usize) {
                if span(&self.data.addrs, s.off, s.slots()).len() != s.slots() {
                    return Err(outside_arena(k, pc));
                }
            }
            if inst.active_mask == 0 {
                return Err(format!("instruction {k} (pc {pc}) has an empty active mask"));
            }
            let expected = if inst.kind.is_mem() { inst.active_lanes() as usize } else { 0 };
            let n_addrs = self.addrs(&inst).len();
            if n_addrs != expected || n_addrs > WARP_SIZE {
                return Err(format!(
                    "instruction {k} (pc {pc}) records {n_addrs} addresses but its kind and \
                     active mask imply {expected}"
                ));
            }
        }
        Ok(())
    }
}

/// Equality of content, not of layout: two traces are equal when their
/// rows, resolved through their own streams and arenas, are.
impl PartialEq for WarpTrace {
    fn eq(&self, other: &Self) -> bool {
        self.warp == other.warp
            && self.block == other.block
            && self.len() == other.len()
            && self.rows().eq(other.rows())
    }
}

impl Eq for WarpTrace {}

/// Feeds the hasher exactly what `#[derive(Hash)]` fed it when rows owned
/// their lists as `Vec`s (ids, row count, then per row `pc`, `kind`, the
/// dependency slice, `active_mask`, the address slice), so every
/// fingerprint computed before the arena layout is still valid.
impl Hash for WarpTrace {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.warp.hash(state);
        self.block.hash(state);
        state.write_usize(self.len());
        for row in self.rows() {
            row.hash(state);
        }
    }
}

// The JSON shape is the one the derive produced for rows owning `deps` and
// `addrs` vectors: `{"warp", "block", "insts": [{"pc", "kind", "deps",
// "active_mask", "addrs"}]}`.
impl Serialize for WarpTrace {
    fn to_value(&self) -> Value {
        let insts = self
            .rows()
            .map(|r| {
                Value::Object(vec![
                    ("pc".to_string(), r.pc.to_value()),
                    ("kind".to_string(), r.kind.to_value()),
                    ("deps".to_string(), r.deps.to_value()),
                    ("active_mask".to_string(), r.active_mask.to_value()),
                    ("addrs".to_string(), r.addrs.to_vec().to_value()),
                ])
            })
            .collect();
        Value::Object(vec![
            ("warp".to_string(), self.warp.to_value()),
            ("block".to_string(), self.block.to_value()),
            ("insts".to_string(), Value::Array(insts)),
        ])
    }
}

/// The traces of every warp of a kernel launch.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct KernelTrace {
    /// Kernel name (copied from the kernel definition).
    pub name: String,
    /// Launch geometry that produced the trace.
    pub launch: LaunchConfig,
    /// Per-warp traces, indexed by grid-global warp id.
    pub warps: Vec<WarpTrace>,
}

impl KernelTrace {
    /// Largest static kernel (in instructions) accepted from untrusted
    /// traces: every row's `pc` must be below it, so consumers may index
    /// per-PC tables by `pc` without sizing them from hostile input.
    pub const MAX_STATIC_INSTS: u32 = 1 << 20;

    /// Total dynamic warp-instructions across all warps.
    #[must_use]
    pub fn total_insts(&self) -> usize {
        self.warps.iter().map(WarpTrace::len).sum()
    }

    /// Total dynamic global-memory instructions across all warps.
    #[must_use]
    pub fn total_global_mem_insts(&self) -> usize {
        self.warps.iter().map(WarpTrace::global_mem_insts).sum()
    }

    /// Number of distinct [`Stream`]s the warps hold.
    #[must_use]
    pub fn distinct_streams(&self) -> usize {
        self.warps.iter().map(|w| Arc::as_ptr(&w.stream)).collect::<HashSet<_>>().len()
    }

    /// Checks the structural invariants every downstream consumer (cache
    /// model, interval algorithm, timing oracle) relies on. Traces produced
    /// by the tracer satisfy them by construction; decoded or mutated
    /// traces must pass here before being simulated, or indexing panics
    /// would be reachable from untrusted input.
    ///
    /// Invariants: the launch geometry is well-formed, the warp count
    /// matches the grid, every warp is non-empty with consistent warp/block
    /// ids; once per distinct stream, every row's dependency list lies
    /// inside the arena (checked before it is read), PCs are below
    /// [`Self::MAX_STATIC_INSTS`] and dependency indices are strictly
    /// ascending and refer only to earlier instructions; per warp, its
    /// masks and address lists match its stream in number, every address
    /// list lies inside the warp's arena, active masks are non-zero, and
    /// address lists are consistent with the instruction kind and
    /// active-lane count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CorruptTrace`] naming the offending warp (for
    /// a stream, the first warp that holds it) and the violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
        let _span = gpumech_obs::span!("trace.validate.kernel", name = self.name.as_str());
        let corrupt = |warp: Option<usize>, detail: String| TraceError::CorruptTrace {
            kernel: self.name.clone(),
            warp,
            detail,
        };
        let launch =
            LaunchConfig::try_new(self.launch.threads_per_block, self.launch.num_blocks)
                .map_err(|e| corrupt(None, format!("invalid launch geometry: {e}")))?;
        if self.warps.len() != launch.total_warps() {
            return Err(corrupt(
                None,
                format!(
                    "trace has {} warps but the launch geometry implies {}",
                    self.warps.len(),
                    launch.total_warps()
                ),
            ));
        }
        let mut checked: HashSet<*const Stream> = HashSet::new();
        for (i, w) in self.warps.iter().enumerate() {
            if w.is_empty() {
                return Err(corrupt(Some(i), "warp executed no instructions".to_string()));
            }
            if w.warp.index() != i {
                return Err(corrupt(
                    Some(i),
                    format!("warp id {} stored at grid index {i}", w.warp.index()),
                ));
            }
            if w.block != launch.block_of_warp(w.warp) {
                return Err(corrupt(
                    Some(i),
                    format!(
                        "block id {} inconsistent with launch geometry (expected {})",
                        w.block.index(),
                        launch.block_of_warp(w.warp).index()
                    ),
                ));
            }
            if checked.insert(Arc::as_ptr(&w.stream)) {
                w.stream.check().map_err(|detail| corrupt(Some(i), detail))?;
            }
            w.check().map_err(|detail| corrupt(Some(i), detail))?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use gpumech_isa::MemSpace;

    fn warp_of(rows: &[(InstKind, u32)]) -> WarpTrace {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        for &(kind, mask) in rows {
            wt.push(0, kind, mask, &[], &[]).unwrap();
        }
        wt
    }

    /// One warp built by the engine's and the decoder's builder.
    fn built(rows: impl FnOnce(&mut TraceBuilder)) -> WarpTrace {
        let mut b = TraceBuilder::default();
        b.begin();
        rows(&mut b);
        b.finish(WarpId::new(0), BlockId::new(0))
    }

    fn one_warp(wt: WarpTrace) -> KernelTrace {
        KernelTrace { name: "k".into(), launch: LaunchConfig::new(32, 1), warps: vec![wt] }
    }

    #[test]
    fn active_lane_count() {
        let wt = warp_of(&[(InstKind::IntAlu, 0xFFFF_FFFF), (InstKind::IntAlu, 0b1011)]);
        assert_eq!(wt.inst(0).active_lanes(), 32);
        assert_eq!(wt.inst(1).active_lanes(), 3);
    }

    #[test]
    fn trace_counters() {
        let wt = warp_of(&[
            (InstKind::IntAlu, 1),
            (InstKind::Load(MemSpace::Global), 1),
            (InstKind::Load(MemSpace::Shared), 1),
            (InstKind::Store(MemSpace::Global), 1),
        ]);
        assert_eq!(wt.len(), 4);
        assert!(!wt.is_empty());
        assert_eq!(wt.global_mem_insts(), 2);
        let kt = KernelTrace {
            name: "k".into(),
            launch: LaunchConfig::new(32, 1),
            warps: vec![wt.clone(), wt],
        };
        assert_eq!(kt.total_insts(), 8);
        assert_eq!(kt.total_global_mem_insts(), 4);
    }

    #[test]
    fn rows_read_their_lists_back_from_the_arenas() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push(0, InstKind::IntAlu, 0b11, &[], &[]).unwrap();
        wt.push(1, InstKind::Load(MemSpace::Global), 0b11, &[0], &[0x100, 0x104]).unwrap();
        wt.push(2, InstKind::FpAdd, 0b11, &[0, 1], &[]).unwrap();
        assert_eq!(wt.deps(&wt.inst(0)), &[] as &[u32]);
        assert_eq!(wt.addrs(&wt.inst(1)).to_vec(), [0x100, 0x104]);
        assert_eq!(wt.deps(&wt.inst(2)), &[0, 1]);
        assert_eq!(size_of::<StreamRow>(), 16, "a stream row stays small");
        assert_eq!(size_of::<AddrSpan>(), 8, "so does a memory row's span");
    }

    #[test]
    fn equality_and_hash_ignore_arena_layout() {
        let mut a = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        a.push(0, InstKind::IntAlu, 1, &[], &[]).unwrap();
        a.push(1, InstKind::IntAlu, 1, &[0], &[]).unwrap();
        let mut b = a.clone();
        // Same content, different layout: the list is re-appended.
        b.set_deps(1, &[0]).unwrap();
        assert_eq!(a, b);
        let digest = |w: &WarpTrace| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(digest(&a), digest(&b));
        b.set_deps(1, &[]).unwrap();
        assert_ne!(a, b);
    }

    /// The masks `push_mem_records_the_active_lanes_in_ascending_order`
    /// builds rows under; the two-forms test reuses them.
    const MASKS: [u32; 6] = [u32::MAX, 0b1011, 1, 0x8000_0000, 0xFFFF_0000, 0x8000_0001];
    const LOAD: InstKind = InstKind::Load(MemSpace::Global);

    fn lanes_under(mask: u32, addr_of: impl Fn(usize) -> u64) -> Vec<u64> {
        (0..WARP_SIZE).filter(|l| mask >> l & 1 != 0).map(addr_of).collect()
    }

    #[test]
    fn push_mem_records_the_active_lanes_in_ascending_order() {
        let addr_of = |k: usize| move |lane: usize| 0x100 * k as u64 + 4 * lane as u64;
        let wt = built(|b| {
            for (k, &mask) in MASKS.iter().enumerate() {
                b.push_mem(k as u32, LOAD, mask, &[], addr_of(k)).unwrap();
            }
        });
        for (k, &mask) in MASKS.iter().enumerate() {
            let want = lanes_under(mask, addr_of(k));
            assert_eq!(wt.addrs(&wt.inst(k)).to_vec(), want, "mask {mask:#x}");
        }
        // Indistinguishable from the same rows pushed with explicit lists.
        let mut by_list = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        for (k, row) in wt.insts().enumerate() {
            by_list.push(k as u32, LOAD, row.active_mask, &[], &wt.addrs(&row).to_vec()).unwrap();
        }
        assert_eq!(wt, by_list);
    }

    /// A hasher that logs every call it receives: equal logs mean equal
    /// hashes under any hasher, `gpumech_exec`'s lane-wise FNV-1a included.
    #[derive(Default)]
    struct CallLog(Vec<(&'static str, Vec<u8>)>);

    impl Hasher for CallLog {
        fn finish(&self) -> u64 {
            0
        }
        fn write(&mut self, bytes: &[u8]) {
            self.0.push(("write", bytes.to_vec()));
        }
        fn write_u8(&mut self, v: u8) {
            self.0.push(("u8", vec![v]));
        }
        fn write_u32(&mut self, v: u32) {
            self.0.push(("u32", v.to_le_bytes().to_vec()));
        }
        fn write_u64(&mut self, v: u64) {
            self.0.push(("u64", v.to_le_bytes().to_vec()));
        }
        fn write_usize(&mut self, v: usize) {
            self.0.push(("usize", v.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn one_row_in_either_form_has_the_same_content() {
        // Strides that wrap, step backwards and alias lanes, on bases near
        // both ends of the address space.
        let shapes = [(0x100, 4), (u64::MAX - 40, 8), (0x9000, 4u64.wrapping_neg()), (7, 1 << 63)];
        for &mask in &MASKS {
            for &(base, stride) in &shapes {
                let row = |affine: bool| {
                    built(|b| {
                        b.push(0, InstKind::IntAlu, mask, &[], &[]).unwrap();
                        if affine {
                            b.push_affine(1, LOAD, mask, &[0], base, stride).unwrap();
                        } else {
                            let addr_of = |l| affine_at(base, stride, l);
                            b.push_mem(1, LOAD, mask, &[0], addr_of).unwrap();
                        }
                    })
                };
                let (affine, lanes) = (row(true), row(false));
                let what = format!("mask {mask:#x}, base {base:#x}, stride {stride:#x}");
                // Three or more lanes take the short form; the rest stay lanes.
                let stored = affine.addrs(&affine.inst(1));
                assert_eq!(matches!(stored, Addrs::Affine { .. }), mask.count_ones() > 2, "{what}");
                assert!(matches!(lanes.addrs(&lanes.inst(1)), Addrs::Lanes(_)), "{what}");
                assert_eq!(stored.to_vec(), lanes_under(mask, |l| affine_at(base, stride, l)));

                assert_eq!(affine, lanes, "{what}");
                let default_hash = |w: &WarpTrace| {
                    let mut h = std::collections::hash_map::DefaultHasher::new();
                    w.hash(&mut h);
                    h.finish()
                };
                assert_eq!(default_hash(&affine), default_hash(&lanes), "{what}");
                let log = |w: &WarpTrace| {
                    let mut h = CallLog::default();
                    w.hash(&mut h);
                    h.0
                };
                assert_eq!(log(&affine), log(&lanes), "{what}");
                let json = |w: &WarpTrace| serde_json::to_string(w).unwrap();
                assert_eq!(json(&affine), json(&lanes), "{what}");
                let (affine, lanes) = (one_warp(affine), one_warp(lanes));
                let bytes = crate::io::encode(&affine);
                assert_eq!(bytes, crate::io::encode(&lanes), "{what}");
                assert_eq!(crate::io::decode(&bytes).unwrap(), lanes, "{what}");
            }
        }
    }

    #[test]
    fn oversized_lists_are_refused_without_a_partial_row() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        assert_eq!(wt.push(0, InstKind::IntAlu, 1, &[0; 256], &[]), Err(RowOverflow));
        assert_eq!(wt.push(0, InstKind::IntAlu, 1, &[], &[0; 256]), Err(RowOverflow));
        // 255 is the affine form's length flag, so no list may be that long.
        assert_eq!(wt.push(0, InstKind::IntAlu, 1, &[], &[0; 255]), Err(RowOverflow));
        assert!(wt.is_empty());
        wt.push(0, InstKind::IntAlu, 1, &[], &[]).unwrap();
        assert_eq!(wt.set_addrs(0, &[0; 256]), Err(RowOverflow));
        assert!(wt.addrs(&wt.inst(0)).is_empty());
    }

    #[test]
    fn a_row_outside_its_arena_reads_empty_and_fails_validation() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push(0, InstKind::Load(MemSpace::Global), 1, &[], &[0x40]).unwrap();
        wt.push(1, InstKind::Exit, 1, &[0], &[]).unwrap();
        let mut kt = one_warp(wt);
        assert!(kt.validate().is_ok());
        kt.warps[0].truncate_arenas(0, 0);
        let w = &kt.warps[0];
        assert!(w.addrs(&w.inst(0)).is_empty());
        assert_eq!(w.deps(&w.inst(1)), &[] as &[u32]);
        let err = kt.validate().unwrap_err().to_string();
        assert!(err.contains("outside the warp's dependency or address arena"), "{err}");
    }

    #[test]
    fn an_affine_row_outside_its_arena_reads_empty_and_fails_validation() {
        let wt = built(|b| {
            b.push_affine(0, InstKind::Load(MemSpace::Global), u32::MAX, &[], 0x40, 4).unwrap();
            b.push(1, InstKind::Exit, 1, &[0], &[]).unwrap();
        });
        assert_eq!(wt.arena_lens(), (1, 2), "two slots, not 32 lanes");
        let kt = one_warp(wt);
        assert!(kt.validate().is_ok());
        // One slot of two left, then none.
        for slots in [1, 0] {
            let mut cut = kt.clone();
            cut.warps[0].truncate_arenas(1, slots);
            let w = &cut.warps[0];
            assert!(w.addrs(&w.inst(0)).is_empty());
            let err = cut.validate().unwrap_err().to_string();
            assert!(err.contains("instruction 0 (pc 0) points outside"), "{err}");
        }
    }

    #[test]
    fn an_affine_row_on_a_non_memory_kind_fails_validation() {
        let mut wt = built(|b| {
            b.push_affine(0, InstKind::Load(MemSpace::Global), 0b1110, &[], 0x40, 4).unwrap();
        });
        assert!(matches!(wt.addrs(&wt.inst(0)), Addrs::Affine { .. }));
        wt.set_kind(0, InstKind::IntAlu);
        let kt = one_warp(wt);
        let err = kt.validate().unwrap_err();
        assert!(matches!(err, TraceError::CorruptTrace { warp: Some(0), .. }), "{err:?}");
        assert!(err.to_string().contains("records 3 addresses but its kind"), "{err}");
    }

    #[test]
    fn a_pc_beyond_any_kernel_fails_validation() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push(KernelTrace::MAX_STATIC_INSTS, InstKind::Exit, 1, &[], &[]).unwrap();
        let kt = one_warp(wt);
        let err = kt.validate().unwrap_err().to_string();
        assert!(err.contains("beyond the 1048576 static instructions"), "{err}");
    }

    /// `(mask, last, len)` of [`rows`].
    type Shape<'a> = (u32, (u32, &'a [u32]), usize);

    /// An ALU op, an affine load on it under `mask` and, when `len` is 3,
    /// an add at `last`'s `(pc, deps)`.
    fn rows(b: &mut TraceBuilder, mask: u32, last: (u32, &[u32]), len: usize) {
        b.push(0, InstKind::IntAlu, FULL_MASK, &[], &[]).unwrap();
        b.push_affine(1, LOAD, mask, &[0], 0x1000, 4).unwrap();
        if len > 2 {
            b.push(last.0, InstKind::FpAdd, FULL_MASK, last.1, &[]).unwrap();
        }
    }

    #[test]
    fn the_builder_stores_each_distinct_stream_once() {
        let mut b = TraceBuilder::default();
        let mut warps = Vec::new();
        // (mask, last row, rows): equal streams whatever their masks and
        // addresses; a different pc, different dependencies or fewer rows
        // make another.
        let shapes: [Shape<'_>; 8] = [
            (FULL_MASK, (2, &[0, 1]), 3),
            (0xFF, (2, &[0, 1]), 3),
            (FULL_MASK, (7, &[0, 1]), 3),
            (FULL_MASK, (2, &[0, 1]), 3),
            (FULL_MASK, (2, &[1]), 3),
            (FULL_MASK, (7, &[0, 1]), 3),
            (FULL_MASK, (2, &[0, 1]), 2),
            (0b111, (2, &[0, 1]), 2),
        ];
        for (w, &(mask, last, len)) in shapes.iter().enumerate() {
            b.begin();
            rows(&mut b, mask, last, len);
            warps.push(b.finish(WarpId::new(w as u32), BlockId::new(0)));
        }
        let same = |a: usize, c: usize| Arc::ptr_eq(warps[a].stream(), warps[c].stream());
        assert!(same(0, 1) && same(0, 3), "masks do not split a stream");
        assert!(same(2, 5), "a stream met before, not last, is found again");
        assert!(same(6, 7), "a prefix of a stream is a stream of its own");
        assert!(!same(0, 2) && !same(0, 4) && !same(0, 6) && !same(2, 4));
        let kt = KernelTrace { name: "k".into(), launch: LaunchConfig::new(256, 1), warps };
        assert_eq!(kt.distinct_streams(), 4);
        kt.validate().unwrap();

        // The same rows pushed warp by warp, each into a stream of its own,
        // are the same trace.
        let mut by_push = kt.clone();
        for w in &mut by_push.warps {
            let mut own = WarpTrace::new(w.warp, w.block);
            for i in w.insts() {
                own.push(i.pc, i.kind, i.active_mask, w.deps(&i), &w.addrs(&i).to_vec()).unwrap();
            }
            *w = own;
        }
        assert_eq!(by_push.distinct_streams(), 8);
        assert_eq!(by_push, kt);
        assert_eq!(crate::io::encode(&by_push), crate::io::encode(&kt));
    }

    #[test]
    fn only_a_warp_with_a_partial_mask_stores_masks() {
        let full = built(|b| rows(b, FULL_MASK, (2, &[0, 1]), 3));
        let partial = built(|b| rows(b, 0xFF, (2, &[0, 1]), 3));
        assert!(full.data.masks.is_empty());
        assert_eq!(partial.data.masks, [FULL_MASK, 0xFF, FULL_MASK]);
        assert_eq!(partial.held_bytes() - full.held_bytes(), 3 * size_of::<u32>());
        let mut edited = full.clone();
        edited.set_mask(1, 0xFF);
        assert_eq!(edited, partial);
        edited.set_mask(1, FULL_MASK);
        assert_eq!(edited, full);
    }

    #[test]
    fn a_row_given_addresses_takes_the_span_before_later_rows() {
        let wt = built(|b| rows(b, FULL_MASK, (2, &[0, 1]), 3));
        let mut edited = wt.clone();
        edited.set_addrs(0, &[0x40]).unwrap();
        edited.set_addrs(2, &[]).unwrap();
        assert!(!Arc::ptr_eq(wt.stream(), edited.stream()), "the edit copied the stream");
        assert_eq!(edited.addrs(&edited.inst(0)).to_vec(), [0x40]);
        assert_eq!(edited.addrs(&edited.inst(1)), wt.addrs(&wt.inst(1)));
        assert!(edited.addrs(&edited.inst(2)).is_empty());
        assert_eq!(edited.stream().spans, 2);
        let err = one_warp(edited).validate().unwrap_err().to_string();
        assert!(err.contains("instruction 0 (pc 0) records 1 addresses but its kind"), "{err}");
    }

    /// A warp's masks and address spans are counted against its stream
    /// whoever else shares that stream: a shared stream checked once does
    /// not vouch for a warp whose own lists disagree with it.
    #[test]
    fn a_warp_that_disagrees_with_its_shared_stream_fails_validation() {
        let wt = built(|b| rows(b, FULL_MASK, (2, &[0, 1]), 3));
        let mut other = wt.clone();
        other.warp = WarpId::new(1);
        let launch = LaunchConfig::new(64, 1);
        let kt = KernelTrace { name: "k".into(), launch, warps: vec![wt, other] };
        assert_eq!(kt.distinct_streams(), 1);
        kt.validate().unwrap();
        let fails = |edit: fn(&mut WarpData), want: &str| {
            let mut bad = kt.clone();
            edit(&mut bad.warps[1].data);
            let err = bad.validate().unwrap_err();
            assert!(matches!(err, TraceError::CorruptTrace { warp: Some(1), .. }), "{err:?}");
            assert!(err.to_string().contains(want), "{err}");
        };
        fails(|d| d.masks = vec![FULL_MASK], "warp holds 1 active masks for 3 instructions");
        fails(|d| d.spans.clear(), "warp holds 0 address lists for a stream with 1");
    }
}
