//! The trace codec: a compact binary form of a kernel trace.
//!
//! Its bytes depend on a trace's content only, so they are the canonical
//! form the golden digests pin (`fnv1a(encode(trace))` of every bundled
//! workload, `tests/golden_workloads.rs`), and the benchmark's
//! `probe.trace.encode` / `probe.trace.decode` spans time the round trip.
//! No command writes or reads a trace file: traces come from the engine,
//! and re-modelling one for many configurations (Section VI-D) reuses its
//! analysis in memory. The format uses varint encoding and per-warp delta
//! compression of memory addresses, and is ~20x smaller than the JSON
//! `gpumech trace --json` writes.
//!
//! Format (little-endian, versioned):
//!
//! ```text
//! magic "GPUMECHT" | u8 version | varint name_len | name bytes
//! varint threads_per_block | varint num_blocks | varint num_warps
//! per warp: varint n_insts, then per instruction:
//!   varint pc | u8 kind tag | varint n_deps | varint delta-coded deps
//!   u32 active_mask | varint n_addrs | zigzag-varint delta-coded addrs
//! ```
//!
//! Each warp is written out in full, its stream's rows included, and its
//! addresses lane by lane whichever form the row stores them in (see
//! [`crate::record`]), so the bytes depend on the content only and the
//! format needs no second address encoding. [`decode`] stores every list
//! lane by lane and shares each distinct stream between its warps as the
//! engine does; the decoded trace equals the encoded one.
//!
//! # Example
//!
//! ```
//! use gpumech_trace::{workloads, io};
//!
//! let trace = workloads::by_name("sdk_vectoradd").ok_or("missing workload")?.with_blocks(2).trace()?;
//! let bytes = io::encode(&trace);
//! let back = io::decode(&bytes)?;
//! assert_eq!(trace, back);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use gpumech_isa::{kernel::NUM_REGS, BlockId, InstKind, MemSpace, WarpId, WARP_SIZE};

use crate::engine::TraceError;
use crate::launch::LaunchConfig;
use crate::record::{KernelTrace, TraceBuilder, WarpTrace};

const MAGIC: &[u8; 8] = b"GPUMECHT";
const VERSION: u8 = 1;

/// The error for bytes that are not a well-formed trace. A byte-level
/// fault names no kernel or warp; [`KernelTrace::validate`]'s errors, which
/// [`decode`] passes through, name both.
fn corrupt(detail: impl Into<String>) -> TraceError {
    TraceError::CorruptTrace { kernel: String::new(), warp: None, detail: detail.into() }
}

fn truncated() -> TraceError {
    corrupt("trace data truncated")
}

// --- varint primitives ----------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// The varint at `*pos`, or `None` when the buffer ends inside it or it
/// runs past 64 bits.
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift >= 64 {
            return None;
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// --- instruction kind tags -------------------------------------------------

fn kind_tag(kind: InstKind) -> u8 {
    match kind {
        InstKind::IntAlu => 0,
        InstKind::FpAdd => 1,
        InstKind::FpMul => 2,
        InstKind::FpFma => 3,
        InstKind::FpDiv => 4,
        InstKind::Sfu => 5,
        InstKind::Load(MemSpace::Global) => 6,
        InstKind::Load(MemSpace::Shared) => 7,
        InstKind::Store(MemSpace::Global) => 8,
        InstKind::Store(MemSpace::Shared) => 9,
        InstKind::Branch => 10,
        InstKind::Sync => 11,
        InstKind::Exit => 12,
    }
}

fn tag_kind(tag: u8) -> Result<InstKind, TraceError> {
    Ok(match tag {
        0 => InstKind::IntAlu,
        1 => InstKind::FpAdd,
        2 => InstKind::FpMul,
        3 => InstKind::FpFma,
        4 => InstKind::FpDiv,
        5 => InstKind::Sfu,
        6 => InstKind::Load(MemSpace::Global),
        7 => InstKind::Load(MemSpace::Shared),
        8 => InstKind::Store(MemSpace::Global),
        9 => InstKind::Store(MemSpace::Shared),
        10 => InstKind::Branch,
        11 => InstKind::Sync,
        12 => InstKind::Exit,
        t => return Err(corrupt(format!("unknown instruction kind tag {t}"))),
    })
}

// --- encode -----------------------------------------------------------------

/// Serializes a trace to the compact binary format.
#[must_use]
pub fn encode(trace: &KernelTrace) -> Vec<u8> {
    // Rough pre-size: ~6 bytes per instruction plus addresses.
    let mut out = Vec::with_capacity(32 + trace.total_insts() * 8);
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_varint(&mut out, trace.name.len() as u64);
    out.extend_from_slice(trace.name.as_bytes());
    put_varint(&mut out, trace.launch.threads_per_block as u64);
    put_varint(&mut out, trace.launch.num_blocks as u64);
    put_varint(&mut out, trace.warps.len() as u64);

    for warp in &trace.warps {
        put_varint(&mut out, warp.len() as u64);
        for row in warp.rows() {
            put_varint(&mut out, u64::from(row.pc));
            out.push(kind_tag(row.kind));
            let deps = row.deps;
            put_varint(&mut out, deps.len() as u64);
            // Deps are sorted ascending: delta-code them. Wrapping keeps the
            // encoder total on corrupt (unsorted) inputs; the decoder's
            // wrapping add inverts it exactly either way.
            let mut prev = 0u64;
            for &d in deps {
                put_varint(&mut out, u64::from(d).wrapping_sub(prev));
                prev = u64::from(d);
            }
            out.extend_from_slice(&row.active_mask.to_le_bytes());
            let addrs = row.addrs;
            put_varint(&mut out, addrs.len() as u64);
            // Addresses are usually strided: zigzag-delta-code them.
            let mut prev = 0i64;
            for a in addrs.iter() {
                let cur = a as i64;
                put_varint(&mut out, zigzag(cur.wrapping_sub(prev)));
                prev = cur;
            }
        }
    }
    out
}

// --- decode -----------------------------------------------------------------

/// Bounds a claimed element count by what the remaining buffer could
/// possibly hold (every element costs at least one byte), so a corrupt
/// length prefix cannot trigger a huge up-front allocation.
fn capped_capacity(claimed: usize, buf: &[u8], pos: usize) -> usize {
    claimed.min(buf.len().saturating_sub(pos))
}

/// Deserializes a trace from the compact binary format and validates the
/// result with [`KernelTrace::validate`], so arbitrary (fuzzed, truncated,
/// bit-flipped) input yields a typed error — never a panic, an unbounded
/// allocation, or a structurally broken trace.
///
/// # Errors
///
/// Returns [`TraceError::CorruptTrace`] describing the first structural
/// problem: a malformed byte stream, or the violated invariant (with its
/// kernel and warp) of a well-formed one.
pub fn decode(buf: &[u8]) -> Result<KernelTrace, TraceError> {
    let varint = |pos: &mut usize| get_varint(buf, pos).ok_or_else(truncated);
    let mut pos = 0usize;
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(corrupt("not a gpumech trace (bad magic)"));
    }
    pos += MAGIC.len();
    let version = *buf.get(pos).ok_or_else(truncated)?;
    pos += 1;
    if version != VERSION {
        return Err(corrupt(format!("unsupported trace version {version}")));
    }
    let name_len = varint(&mut pos)? as usize;
    let name_end = pos.checked_add(name_len).ok_or_else(truncated)?;
    let name_bytes = buf.get(pos..name_end).ok_or_else(truncated)?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| corrupt("invalid UTF-8 in trace"))?
        .to_string();
    pos = name_end;

    let threads_per_block = varint(&mut pos)? as usize;
    let num_blocks = varint(&mut pos)? as usize;
    let launch = LaunchConfig::try_new(threads_per_block, num_blocks)
        .map_err(|e| corrupt(format!("invalid launch geometry: {e}")))?;
    let num_warps = varint(&mut pos)? as usize;

    let mut warps: Vec<WarpTrace> = Vec::with_capacity(capped_capacity(num_warps, buf, pos));
    // Interns each warp's stream as the engine does, so a decoded trace
    // shares its streams like a traced one.
    let mut builder = TraceBuilder::default();
    for w in 0..num_warps {
        let n_insts = varint(&mut pos)? as usize;
        let warp_id = WarpId::new(w as u32);
        let block = BlockId::new((w / launch.warps_per_block()) as u32);
        builder.begin();
        let mut deps = [0u32; NUM_REGS];
        let mut addrs = [0u64; WARP_SIZE];
        for _ in 0..n_insts {
            let pc = varint(&mut pos)? as u32;
            let tag = *buf.get(pos).ok_or_else(truncated)?;
            pos += 1;
            let kind = tag_kind(tag)?;
            let n_deps = varint(&mut pos)?;
            let deps = usize::try_from(n_deps)
                .ok()
                .and_then(|n| deps.get_mut(..n))
                .ok_or_else(|| {
                    corrupt(format!("instruction claims {n_deps} dependencies (at most {NUM_REGS})"))
                })?;
            let mut prev = 0u64;
            for d in deps.iter_mut() {
                prev = prev.wrapping_add(varint(&mut pos)?);
                *d = prev as u32;
            }
            let mask_end = pos.checked_add(4).ok_or_else(truncated)?;
            let mask_bytes: [u8; 4] = buf
                .get(pos..mask_end)
                .and_then(|s| s.try_into().ok())
                .ok_or_else(truncated)?;
            let active_mask = u32::from_le_bytes(mask_bytes);
            pos = mask_end;
            let n_addrs = varint(&mut pos)?;
            let addrs = usize::try_from(n_addrs)
                .ok()
                .and_then(|n| addrs.get_mut(..n))
                .ok_or_else(|| {
                    corrupt(format!("instruction claims {n_addrs} addresses (at most {WARP_SIZE})"))
                })?;
            let mut prev = 0i64;
            for a in addrs.iter_mut() {
                prev = prev.wrapping_add(unzigzag(varint(&mut pos)?));
                *a = prev as u64;
            }
            builder
                .push(pc, kind, active_mask, deps, addrs)
                .map_err(|e| corrupt(e.to_string()))?;
        }
        warps.push(builder.finish(warp_id, block));
    }
    let trace = KernelTrace { name, launch, warps };
    trace.validate()?;
    Ok(trace)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::workloads;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn kind_tags_roundtrip() {
        for tag in 0u8..13 {
            let kind = tag_kind(tag).unwrap();
            assert_eq!(kind_tag(kind), tag);
        }
        assert_eq!(tag_kind(13), Err(corrupt("unknown instruction kind tag 13")));
    }

    #[test]
    fn traces_roundtrip_exactly() {
        for name in ["sdk_vectoradd", "kmeans_invert_mapping", "lud_diagonal"] {
            let trace = workloads::by_name(name).unwrap().with_blocks(2).trace().unwrap();
            let bytes = encode(&trace);
            let back = decode(&bytes).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(trace, back, "{name} roundtrip");
        }
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let trace = workloads::by_name("cfd_compute_flux").unwrap().with_blocks(4).trace().unwrap();
        let bin = encode(&trace).len();
        let json = serde_json::to_string(&trace).unwrap().len();
        assert!(
            bin * 5 < json,
            "binary {bin} bytes should be at least 5x smaller than JSON {json}"
        );
    }

    #[test]
    fn corrupt_input_is_rejected_not_panicking() {
        let err = decode(b"oops").unwrap_err();
        assert_eq!(err, corrupt("not a gpumech trace (bad magic)"));
        assert_eq!(err.to_string(), "corrupt trace: not a gpumech trace (bad magic)");
        let trace = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(1).trace().unwrap();
        let mut bytes = encode(&trace);
        bytes[8] = 99; // version byte
        assert_eq!(decode(&bytes), Err(corrupt("unsupported trace version 99")));
        let trace_bytes = encode(&trace);
        for cut in [9, 16, trace_bytes.len() / 2] {
            // Truncations must error (any detail), never panic.
            let _ = decode(&trace_bytes[..cut]);
        }
    }

    /// A one-warp, one-instruction trace whose instruction claims `n_deps`
    /// dependencies and `n_addrs` addresses, with no bytes behind the claims.
    fn header_claiming(n_deps: u64, n_addrs: Option<u64>) -> Vec<u8> {
        let mut b = MAGIC.to_vec();
        b.push(VERSION);
        put_varint(&mut b, 1);
        b.push(b'k');
        for v in [32, 1, 1, 1, 0] {
            put_varint(&mut b, v); // threads/block, blocks, warps, insts, pc
        }
        b.push(kind_tag(InstKind::Load(MemSpace::Global)));
        put_varint(&mut b, n_deps);
        if let Some(n_addrs) = n_addrs {
            b.extend_from_slice(&u32::MAX.to_le_bytes());
            put_varint(&mut b, n_addrs);
        }
        b
    }

    #[test]
    fn oversized_list_claims_are_typed_errors_before_any_read() {
        // One past each bound, and absurd claims that must not be reserved.
        for n in [NUM_REGS as u64 + 1, u64::from(u32::MAX), u64::MAX] {
            let claim = format!("instruction claims {n} dependencies (at most {NUM_REGS})");
            assert_eq!(decode(&header_claiming(n, None)), Err(corrupt(claim)));
        }
        for n in [WARP_SIZE as u64 + 1, u64::from(u32::MAX), u64::MAX] {
            let claim = format!("instruction claims {n} addresses (at most {WARP_SIZE})");
            assert_eq!(decode(&header_claiming(0, Some(n))), Err(corrupt(claim)));
        }
        // At the bound the claim is believed and the missing bytes are
        // what is reported.
        assert_eq!(decode(&header_claiming(NUM_REGS as u64, None)), Err(truncated()));
        assert_eq!(decode(&header_claiming(0, Some(WARP_SIZE as u64))), Err(truncated()));
    }

    /// Deterministic corruption fan over the binary format: flip one
    /// seeded byte per case and decode. Every case must yield either a
    /// typed [`TraceError`] or a trace that passed validation — reaching
    /// the end of the loop proves no case panicked.
    #[test]
    fn binary_byte_flip_fan_yields_typed_errors_never_panics() {
        let trace = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2).trace().unwrap();
        let bytes = encode(&trace);
        let outcome = |seed: u64| {
            let r = crate::splitmix64(seed);
            let pos = (r as usize) % bytes.len();
            let flip = ((r >> 32) as u8) | 1; // never a zero xor (always a real change)
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= flip;
            match decode(&corrupt) {
                Ok(t) => {
                    // A flip the format cannot distinguish from valid data
                    // must still satisfy every structural invariant.
                    t.validate().unwrap_or_else(|e| panic!("seed {seed}: invalid decode: {e}"));
                    "ok"
                }
                Err(_) => "typed",
            }
        };
        let first: Vec<_> = (0..128).map(outcome).collect();
        let second: Vec<_> = (0..128).map(outcome).collect();
        assert_eq!(first, second, "byte-flip outcomes are not deterministic");
        assert!(first.contains(&"typed"), "no flip was rejected; the fan is toothless");
    }

    /// A trace that encodes but fails validation is reported by
    /// [`KernelTrace::validate`]'s own error, with the kernel and warp it
    /// names.
    #[test]
    fn an_invalid_trace_decodes_to_validates_error_with_its_warp() {
        let mut trace = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(2).trace().unwrap();
        trace.warps[3].truncate(0);
        let err = decode(&encode(&trace)).unwrap_err();
        assert_eq!(
            err,
            TraceError::CorruptTrace {
                kernel: "sdk_vectoradd".to_string(),
                warp: Some(3),
                detail: "warp executed no instructions".to_string(),
            }
        );
        assert_eq!(Err(err), trace.validate());
    }
}
