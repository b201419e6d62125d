//! Dynamic trace records: the interface between the functional simulator
//! and every downstream consumer (cache model, interval model, oracle).
//!
//! A warp's trace is a vector of small `Copy` rows ([`TraceInst`]) plus two
//! arenas owned by the [`WarpTrace`]: one `Vec<u32>` holding every row's
//! dependency list back to back and one `Vec<u64>` holding every memory
//! row's addresses. A row stores an offset and a length into each arena
//! and is read through [`WarpTrace::deps`] / [`WarpTrace::addrs`], so
//! tracing a warp costs three growing allocations instead of two per
//! dynamic instruction, and dropping a trace frees three blocks per warp.
//!
//! Rows plus two arenas, not full struct-of-arrays: every consumer reads
//! `pc`, `kind` and `active_mask` of one instruction together, so those
//! stay in one row (one cache line serves three rows); only the two
//! variable-length lists move out.
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
//! only the lane addresses, so two rows with the same addresses are
//! indistinguishable whichever form holds them.
//!
//! An affine row's lane set *is* its `active_mask`: editing the mask of
//! such a row in place rewrites which addresses it holds (a lane row would
//! instead disagree with its list's length, which
//! [`KernelTrace::validate`] reports). Replace the list with
//! [`WarpTrace::set_addrs`] to edit a mask and keep the addresses apart.

use std::hash::{Hash, Hasher};

use gpumech_isa::{BlockId, InstKind, WarpId, WARP_SIZE};
use serde::{Serialize, Value};

use crate::engine::TraceError;
use crate::launch::LaunchConfig;

/// One dynamically executed warp-instruction: a fixed-size row of its
/// owning [`WarpTrace`]. The dependency and address lists live in the
/// warp's arenas — read them with [`WarpTrace::deps`] and
/// [`WarpTrace::addrs`].
#[derive(Debug, Clone, Copy)]
pub struct TraceInst {
    /// Static PC (index into the kernel's instruction array).
    pub pc: u32,
    /// Latency class.
    pub kind: InstKind,
    /// Bitmask of active lanes. On a row whose addresses are stored as
    /// [`Addrs::Affine`] it also selects those addresses, so editing it
    /// edits them (see the [module docs](self)).
    pub active_mask: u32,
    deps_off: u32,
    addrs_off: u32,
    deps_len: u8,
    addrs_len: u8,
}

impl TraceInst {
    /// Number of active lanes.
    #[must_use]
    pub fn active_lanes(&self) -> u32 {
        self.active_mask.count_ones()
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

/// The `addrs_len` of a row whose addresses are stored as `(base, stride)`:
/// no lane list is this long, so the length byte doubles as the form flag
/// and a row stays 20 bytes.
const AFFINE: u8 = u8::MAX;

/// [`append`] for a lane list, whose length must stay below the
/// [`AFFINE`] flag.
fn append_lanes(arena: &mut Vec<u64>, addrs: &[u64]) -> Result<(u32, u8), RowOverflow> {
    if addrs.len() >= usize::from(AFFINE) {
        return Err(RowOverflow);
    }
    append(arena, addrs)
}

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
/// values (so profile-cache keys, journals and report rows) depend on it.
#[derive(PartialEq, Eq, Hash)]
struct Row<'a> {
    pc: u32,
    kind: InstKind,
    deps: &'a [u32],
    active_mask: u32,
    addrs: Addrs<'a>,
}

/// The full dynamic trace of one warp.
#[derive(Debug, Clone)]
pub struct WarpTrace {
    /// Grid-global warp id.
    pub warp: WarpId,
    /// Owning thread block.
    pub block: BlockId,
    /// Executed instructions in program order.
    pub insts: Vec<TraceInst>,
    /// Every row's dependency list, back to back.
    deps: Vec<u32>,
    /// Every memory row's addresses, back to back: one slot per active
    /// lane, or the two slots `(base, stride)` of an affine row.
    addrs: Vec<u64>,
}

impl WarpTrace {
    /// An empty trace for `warp` of `block`.
    #[must_use]
    pub fn new(warp: WarpId, block: BlockId) -> Self {
        Self { warp, block, insts: Vec::new(), deps: Vec::new(), addrs: Vec::new() }
    }

    /// An empty trace whose row vector and arenas are pre-sized to hold
    /// what `like` holds — warps of one kernel mostly execute the same
    /// instruction stream, so the previous warp is an exact size hint.
    #[must_use]
    pub fn sized_like(warp: WarpId, block: BlockId, like: &WarpTrace) -> Self {
        Self {
            warp,
            block,
            insts: Vec::with_capacity(like.insts.len()),
            deps: Vec::with_capacity(like.deps.len()),
            addrs: Vec::with_capacity(like.addrs.len()),
        }
    }

    /// Number of dynamic instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` if the warp executed nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Count of dynamic global-memory instructions.
    #[must_use]
    pub fn global_mem_insts(&self) -> usize {
        self.insts.iter().filter(|i| i.kind.is_global_mem()).count()
    }

    /// Indices (into [`WarpTrace::insts`]) of the instructions that
    /// produced `inst`'s register sources. Deduplicated and sorted; empty
    /// for instructions with no register inputs. `inst` must be a row of
    /// this warp.
    #[must_use]
    pub fn deps(&self, inst: &TraceInst) -> &[u32] {
        span(&self.deps, inst.deps_off, usize::from(inst.deps_len))
    }

    /// Per-active-lane byte addresses of a memory instruction, in ascending
    /// lane order, in the form the row stores them. Empty for non-memory
    /// instructions. `inst` must be a row of this warp.
    #[must_use]
    pub fn addrs(&self, inst: &TraceInst) -> Addrs<'_> {
        if inst.addrs_len != AFFINE {
            return Addrs::Lanes(span(&self.addrs, inst.addrs_off, usize::from(inst.addrs_len)));
        }
        match *span(&self.addrs, inst.addrs_off, 2) {
            [base, stride] => Addrs::Affine { base, stride, mask: inst.active_mask },
            _ => Addrs::Lanes(&[]),
        }
    }

    /// Lengths of the dependency and address arenas, in entries.
    #[must_use]
    pub fn arena_lens(&self) -> (usize, usize) {
        (self.deps.len(), self.addrs.len())
    }

    /// Appends one dynamic instruction.
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
        let (addrs_off, addrs_len) = append_lanes(&mut self.addrs, addrs)?;
        let (deps_off, deps_len) = append(&mut self.deps, deps)?;
        self.insts.push(TraceInst { pc, kind, active_mask, deps_off, addrs_off, deps_len, addrs_len });
        Ok(())
    }

    /// Appends one dynamic memory instruction whose lane `l` accesses
    /// `base + stride·l`: stored as `(base, stride)` when three or more
    /// lanes are active, else as the lanes themselves.
    ///
    /// # Errors
    ///
    /// [`RowOverflow`] as for [`WarpTrace::push`]; no row is appended then.
    pub(crate) fn push_affine(
        &mut self,
        pc: u32,
        kind: InstKind,
        active_mask: u32,
        deps: &[u32],
        base: u64,
        stride: u64,
    ) -> Result<(), RowOverflow> {
        if active_mask.count_ones() <= 2 {
            return self.push_mem(pc, kind, active_mask, deps, |lane| affine_at(base, stride, lane));
        }
        let (deps_off, deps_len) = append(&mut self.deps, deps)?;
        let (addrs_off, _) = append(&mut self.addrs, &[base, stride])?;
        let addrs_len = AFFINE;
        self.insts.push(TraceInst { pc, kind, active_mask, deps_off, addrs_off, deps_len, addrs_len });
        Ok(())
    }

    /// Appends one dynamic memory instruction whose lane `l` accesses
    /// `addr_of(l)`: the active lanes' addresses are generated straight
    /// into the arena, in ascending lane order.
    ///
    /// # Errors
    ///
    /// [`RowOverflow`] as for [`WarpTrace::push`]; no row is appended then.
    pub(crate) fn push_mem(
        &mut self,
        pc: u32,
        kind: InstKind,
        active_mask: u32,
        deps: &[u32],
        addr_of: impl Fn(usize) -> u64,
    ) -> Result<(), RowOverflow> {
        let addrs_off = u32::try_from(self.addrs.len()).map_err(|_| RowOverflow)?;
        let (deps_off, deps_len) = append(&mut self.deps, deps)?;
        if active_mask == u32::MAX {
            self.addrs.extend((0..WARP_SIZE).map(addr_of));
        } else {
            let mut rest = active_mask;
            while rest != 0 {
                self.addrs.push(addr_of(rest.trailing_zeros() as usize));
                rest &= rest - 1;
            }
        }
        let addrs_len = active_mask.count_ones() as u8;
        self.insts.push(TraceInst { pc, kind, active_mask, deps_off, addrs_off, deps_len, addrs_len });
        Ok(())
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
        let (off, len) = append(&mut self.deps, deps)?;
        let row = &mut self.insts[k];
        (row.deps_off, row.deps_len) = (off, len);
        Ok(())
    }

    /// Replaces the address list of row `k`, like [`WarpTrace::set_deps`].
    ///
    /// # Errors
    ///
    /// [`RowOverflow`] as for [`WarpTrace::push`]; the row is unchanged then.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn set_addrs(&mut self, k: usize, addrs: &[u64]) -> Result<(), RowOverflow> {
        let (off, len) = append_lanes(&mut self.addrs, addrs)?;
        let row = &mut self.insts[k];
        (row.addrs_off, row.addrs_len) = (off, len);
        Ok(())
    }

    /// Shortens the arenas to at most `deps` and `addrs` entries without
    /// touching the rows, so rows whose lists lay beyond the cut now point
    /// outside their arena — the corruption a torn or hand-edited trace
    /// would carry, which [`KernelTrace::validate`] must reject.
    pub fn truncate_arenas(&mut self, deps: usize, addrs: usize) {
        self.deps.truncate(deps);
        self.addrs.truncate(addrs);
    }

    /// `true` when both warps executed the same instruction stream: every
    /// row's `pc`, `kind` and dependency list are equal. Masks and addresses
    /// are not compared — the interval algorithm reads neither, so warps of
    /// one stream have one interval profile.
    ///
    /// Compares the dependency arenas whole and then each row's range in
    /// them, so it is conservative: a trace whose lists were moved by
    /// [`WarpTrace::set_deps`] may compare unequal to one with the same
    /// content, but `true` always means the streams are equal.
    #[must_use]
    pub fn same_stream(&self, other: &Self) -> bool {
        self.insts.len() == other.insts.len()
            && self.deps == other.deps
            && self.insts.iter().zip(&other.insts).all(|(a, b)| {
                (a.pc, a.kind, a.deps_off, a.deps_len) == (b.pc, b.kind, b.deps_off, b.deps_len)
            })
    }

    fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.insts.iter().map(|i| Row {
            pc: i.pc,
            kind: i.kind,
            deps: self.deps(i),
            active_mask: i.active_mask,
            addrs: self.addrs(i),
        })
    }

    /// `true` when row `inst`'s lists lie inside the arenas (a list that
    /// does not reads back empty, so shorter than the row says).
    fn in_arenas(&self, inst: &TraceInst) -> bool {
        self.deps(inst).len() == usize::from(inst.deps_len)
            && span(&self.addrs, inst.addrs_off, addr_slots(inst)).len() == addr_slots(inst)
    }
}

/// Address-arena slots row `inst` occupies.
fn addr_slots(inst: &TraceInst) -> usize {
    if inst.addrs_len == AFFINE {
        2
    } else {
        usize::from(inst.addrs_len)
    }
}

/// Equality of content, not of arena layout: two traces are equal when
/// their rows, resolved through their own arenas, are.
impl PartialEq for WarpTrace {
    fn eq(&self, other: &Self) -> bool {
        self.warp == other.warp
            && self.block == other.block
            && self.insts.len() == other.insts.len()
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
        state.write_usize(self.insts.len());
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

    /// Checks the structural invariants every downstream consumer (cache
    /// model, interval algorithm, timing oracle) relies on. Traces produced
    /// by the tracer satisfy them by construction; decoded or mutated
    /// traces must pass here before being simulated, or indexing panics
    /// would be reachable from untrusted input.
    ///
    /// Invariants: the launch geometry is well-formed, the warp count
    /// matches the grid, every warp is non-empty with consistent warp/block
    /// ids, every row's lists lie inside the warp's arenas (checked before
    /// either list is read), PCs are below [`Self::MAX_STATIC_INSTS`],
    /// dependency indices are strictly ascending and refer only to earlier
    /// instructions, active masks are non-zero, and address lists are
    /// consistent with the instruction kind and active-lane count.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::CorruptTrace`] naming the offending warp and
    /// the violated invariant.
    pub fn validate(&self) -> Result<(), TraceError> {
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
        for (i, w) in self.warps.iter().enumerate() {
            if w.insts.is_empty() {
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
            for (k, inst) in w.insts.iter().enumerate() {
                if !w.in_arenas(inst) {
                    return Err(corrupt(
                        Some(i),
                        format!(
                            "instruction {k} (pc {}) points outside the warp's dependency or \
                             address arena",
                            inst.pc
                        ),
                    ));
                }
                if inst.pc >= Self::MAX_STATIC_INSTS {
                    return Err(corrupt(
                        Some(i),
                        format!(
                            "instruction {k} has pc {}, beyond the {} static instructions a \
                             kernel may have",
                            inst.pc,
                            Self::MAX_STATIC_INSTS
                        ),
                    ));
                }
                let mut prev: Option<u32> = None;
                for &d in w.deps(inst) {
                    if d as usize >= k {
                        return Err(corrupt(
                            Some(i),
                            format!(
                                "instruction {k} (pc {}) depends on instruction {d}, which is \
                                 not earlier in the warp",
                                inst.pc
                            ),
                        ));
                    }
                    if prev.is_some_and(|p| p >= d) {
                        return Err(corrupt(
                            Some(i),
                            format!(
                                "instruction {k} (pc {}) has unsorted or duplicate \
                                 dependencies",
                                inst.pc
                            ),
                        ));
                    }
                    prev = Some(d);
                }
                if inst.active_mask == 0 {
                    return Err(corrupt(
                        Some(i),
                        format!("instruction {k} (pc {}) has an empty active mask", inst.pc),
                    ));
                }
                let expected_addrs =
                    if inst.kind.is_mem() { inst.active_lanes() as usize } else { 0 };
                let n_addrs = w.addrs(inst).len();
                if n_addrs != expected_addrs || n_addrs > WARP_SIZE {
                    return Err(corrupt(
                        Some(i),
                        format!(
                            "instruction {k} (pc {}) records {n_addrs} addresses but its kind \
                             and active mask imply {expected_addrs}",
                            inst.pc
                        ),
                    ));
                }
            }
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

    #[test]
    fn active_lane_count() {
        let wt = warp_of(&[(InstKind::IntAlu, 0xFFFF_FFFF), (InstKind::IntAlu, 0b1011)]);
        assert_eq!(wt.insts[0].active_lanes(), 32);
        assert_eq!(wt.insts[1].active_lanes(), 3);
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
        assert_eq!(wt.deps(&wt.insts[0]), &[] as &[u32]);
        assert_eq!(wt.addrs(&wt.insts[1]).to_vec(), [0x100, 0x104]);
        assert_eq!(wt.deps(&wt.insts[2]), &[0, 1]);
        assert_eq!(std::mem::size_of::<TraceInst>(), 20, "a row stays small");
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
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        for (k, &mask) in MASKS.iter().enumerate() {
            let base = 0x100 * k as u64;
            wt.push_mem(k as u32, LOAD, mask, &[], |lane| base + 4 * lane as u64).unwrap();
            let want = lanes_under(mask, |l| base + 4 * l as u64);
            assert_eq!(wt.addrs(&wt.insts[k]).to_vec(), want, "mask {mask:#x}");
        }
        // Indistinguishable from the same rows pushed with explicit lists.
        let mut by_list = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        for (k, row) in wt.insts.iter().enumerate() {
            by_list.push(k as u32, LOAD, row.active_mask, &[], &wt.addrs(row).to_vec()).unwrap();
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
        let kernel_of = |wt: WarpTrace| KernelTrace {
            name: "k".into(),
            launch: LaunchConfig::new(32, 1),
            warps: vec![wt],
        };
        // Strides that wrap, step backwards and alias lanes, on bases near
        // both ends of the address space.
        let shapes = [(0x100, 4), (u64::MAX - 40, 8), (0x9000, 4u64.wrapping_neg()), (7, 1 << 63)];
        for &mask in &MASKS {
            for &(base, stride) in &shapes {
                let row = |affine: bool| {
                    let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
                    wt.push(0, InstKind::IntAlu, mask, &[], &[]).unwrap();
                    if affine {
                        wt.push_affine(1, LOAD, mask, &[0], base, stride).unwrap();
                    } else {
                        wt.push_mem(1, LOAD, mask, &[0], |l| affine_at(base, stride, l)).unwrap();
                    }
                    wt
                };
                let (affine, lanes) = (row(true), row(false));
                let what = format!("mask {mask:#x}, base {base:#x}, stride {stride:#x}");
                // Three or more lanes take the short form; the rest stay lanes.
                let stored = affine.addrs(&affine.insts[1]);
                assert_eq!(matches!(stored, Addrs::Affine { .. }), mask.count_ones() > 2, "{what}");
                assert!(matches!(lanes.addrs(&lanes.insts[1]), Addrs::Lanes(_)), "{what}");
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
                let (affine, lanes) = (kernel_of(affine), kernel_of(lanes));
                let bytes = crate::io::encode(&affine);
                assert_eq!(bytes, crate::io::encode(&lanes), "{what}");
                assert_eq!(crate::io::decode(&bytes).unwrap(), lanes, "{what}");
            }
        }
    }

    /// Four rows: an ALU op, a load depending on it, an add on both and a
    /// multiply on the first and the third, the last list given by the
    /// caller.
    fn stream(masks: [u32; 4], load_addr: u64, last_deps: &[u32]) -> WarpTrace {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push(0, InstKind::IntAlu, masks[0], &[], &[]).unwrap();
        let addrs = vec![load_addr; masks[1].count_ones() as usize];
        wt.push(1, InstKind::Load(MemSpace::Global), masks[1], &[0], &addrs).unwrap();
        wt.push(2, InstKind::FpAdd, masks[2], &[0, 1], &[]).unwrap();
        wt.push(3, InstKind::FpMul, masks[3], last_deps, &[]).unwrap();
        wt
    }

    #[test]
    fn same_stream_compares_pcs_kinds_and_dependencies_only() {
        let a = stream([u32::MAX; 4], 0x100, &[0, 2]);
        // Other lanes, other addresses, another warp: the same stream.
        let mut b = stream([0b1, 0b110, 0xFF00, 1 << 31], 0x9000, &[0, 2]);
        b.warp = WarpId::new(7);
        assert!(a.same_stream(&b) && b.same_stream(&a));
        assert_ne!(a, b);

        // One dependency different, every list as long as before.
        let dep = stream([u32::MAX; 4], 0x100, &[1, 2]);
        let mut kind = a.clone();
        kind.insts[1].kind = InstKind::Load(MemSpace::Shared);
        let mut pc = a.clone();
        pc.insts[2].pc = 9;
        let mut longer = a.clone();
        longer.push(4, InstKind::Exit, 1, &[], &[]).unwrap();
        for (what, other) in [("dep", &dep), ("kind", &kind), ("pc", &pc), ("longer", &longer)] {
            assert!(!a.same_stream(other) && !other.same_stream(&a), "{what}");
        }
    }

    #[test]
    fn same_stream_is_conservative_after_set_deps() {
        let a = stream([u32::MAX; 4], 0x100, &[0, 2]);
        // The same list written again lies elsewhere in the arena: equal
        // content, which `same_stream` is allowed to miss.
        let mut moved = a.clone();
        moved.set_deps(2, &[0, 1]).unwrap();
        assert_eq!(a, moved);
        assert!(!a.same_stream(&moved), "the arenas differ, so the compare gives up");
        // A different list must never compare equal, wherever it lies.
        let mut edited = a.clone();
        edited.set_deps(2, &[1]).unwrap();
        assert!(!a.same_stream(&edited) && !moved.same_stream(&edited));
        // Two traces edited alike are laid out alike again.
        let mut edited_too = a.clone();
        edited_too.set_deps(2, &[1]).unwrap();
        assert!(edited.same_stream(&edited_too));
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
        assert!(wt.addrs(&wt.insts[0]).is_empty());
    }

    #[test]
    fn a_row_outside_its_arena_reads_empty_and_fails_validation() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push(0, InstKind::Load(MemSpace::Global), 1, &[], &[0x40]).unwrap();
        wt.push(1, InstKind::Exit, 1, &[0], &[]).unwrap();
        let mut kt =
            KernelTrace { name: "k".into(), launch: LaunchConfig::new(32, 1), warps: vec![wt] };
        assert!(kt.validate().is_ok());
        kt.warps[0].truncate_arenas(0, 0);
        let w = &kt.warps[0];
        assert!(w.addrs(&w.insts[0]).is_empty());
        assert_eq!(w.deps(&w.insts[1]), &[] as &[u32]);
        let err = kt.validate().unwrap_err().to_string();
        assert!(err.contains("outside the warp's dependency or address arena"), "{err}");
    }

    #[test]
    fn an_affine_row_outside_its_arena_reads_empty_and_fails_validation() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push_affine(0, InstKind::Load(MemSpace::Global), u32::MAX, &[], 0x40, 4).unwrap();
        wt.push(1, InstKind::Exit, 1, &[0], &[]).unwrap();
        assert_eq!(wt.arena_lens(), (1, 2), "two slots, not 32 lanes");
        let kt =
            KernelTrace { name: "k".into(), launch: LaunchConfig::new(32, 1), warps: vec![wt] };
        assert!(kt.validate().is_ok());
        // One slot of two left, then none.
        for slots in [1, 0] {
            let mut cut = kt.clone();
            cut.warps[0].truncate_arenas(1, slots);
            let w = &cut.warps[0];
            assert!(w.addrs(&w.insts[0]).is_empty());
            let err = cut.validate().unwrap_err().to_string();
            assert!(err.contains("instruction 0 (pc 0) points outside"), "{err}");
        }
    }

    #[test]
    fn an_affine_row_on_a_non_memory_kind_fails_validation() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push_affine(0, InstKind::Load(MemSpace::Global), 0b1110, &[], 0x40, 4).unwrap();
        assert!(matches!(wt.addrs(&wt.insts[0]), Addrs::Affine { .. }));
        wt.insts[0].kind = InstKind::IntAlu;
        let kt =
            KernelTrace { name: "k".into(), launch: LaunchConfig::new(32, 1), warps: vec![wt] };
        let err = kt.validate().unwrap_err();
        assert!(matches!(err, TraceError::CorruptTrace { warp: Some(0), .. }), "{err:?}");
        assert!(err.to_string().contains("records 3 addresses but its kind"), "{err}");
    }

    #[test]
    fn a_pc_beyond_any_kernel_fails_validation() {
        let mut wt = WarpTrace::new(WarpId::new(0), BlockId::new(0));
        wt.push(KernelTrace::MAX_STATIC_INSTS, InstKind::Exit, 1, &[], &[]).unwrap();
        let kt =
            KernelTrace { name: "k".into(), launch: LaunchConfig::new(32, 1), warps: vec![wt] };
        let err = kt.validate().unwrap_err().to_string();
        assert!(err.contains("beyond the 1048576 static instructions"), "{err}");
    }
}
