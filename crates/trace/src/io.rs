//! Trace serialization: a compact binary format for kernel traces.
//!
//! The paper's workflow traces a kernel *once* per input and re-models it
//! for many hardware configurations (Section VI-D); persisting traces is
//! what makes that amortization real. JSON (via serde) works but is ~20x
//! larger than necessary — this module provides a dependency-free binary
//! format using varint encoding and per-warp delta compression of memory
//! addresses.
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
//! Addresses are written lane by lane whichever form the row stores them
//! in (see [`crate::record`]), so the bytes depend on the content only and
//! the format needs no second address encoding. [`decode`] stores every
//! list lane by lane; the decoded trace equals the encoded one.
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
use crate::record::{KernelTrace, WarpTrace};

const MAGIC: &[u8; 8] = b"GPUMECHT";
const VERSION: u8 = 1;

/// Error produced while decoding a binary trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the format magic.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u8),
    /// The buffer ended mid-structure.
    Truncated,
    /// An instruction-kind tag is unknown.
    BadKind(u8),
    /// A string field is not valid UTF-8.
    BadString,
    /// The launch geometry stored in the header is invalid.
    BadLaunch(String),
    /// An instruction claims more dependencies than there are registers to
    /// depend through.
    TooManyDeps(u64),
    /// An instruction claims more addresses than a warp has lanes.
    TooManyAddrs(u64),
    /// The decoded structure violates a trace invariant
    /// ([`KernelTrace::validate`]).
    Invalid(String),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => f.write_str("not a gpumech trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::Truncated => f.write_str("trace data truncated"),
            DecodeError::BadKind(t) => write!(f, "unknown instruction kind tag {t}"),
            DecodeError::BadString => f.write_str("invalid UTF-8 in trace"),
            DecodeError::BadLaunch(e) => write!(f, "invalid launch geometry: {e}"),
            DecodeError::TooManyDeps(n) => {
                write!(f, "instruction claims {n} dependencies (at most {NUM_REGS})")
            }
            DecodeError::TooManyAddrs(n) => {
                write!(f, "instruction claims {n} addresses (at most {WARP_SIZE})")
            }
            DecodeError::Invalid(e) => write!(f, "decoded trace is invalid: {e}"),
        }
    }
}

impl std::error::Error for DecodeError {}

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

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(DecodeError::Truncated);
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

fn tag_kind(tag: u8) -> Result<InstKind, DecodeError> {
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
        t => return Err(DecodeError::BadKind(t)),
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
        put_varint(&mut out, warp.insts.len() as u64);
        for inst in &warp.insts {
            put_varint(&mut out, u64::from(inst.pc));
            out.push(kind_tag(inst.kind));
            let deps = warp.deps(inst);
            put_varint(&mut out, deps.len() as u64);
            // Deps are sorted ascending: delta-code them. Wrapping keeps the
            // encoder total on corrupt (unsorted) inputs; the decoder's
            // wrapping add inverts it exactly either way.
            let mut prev = 0u64;
            for &d in deps {
                put_varint(&mut out, u64::from(d).wrapping_sub(prev));
                prev = u64::from(d);
            }
            out.extend_from_slice(&inst.active_mask.to_le_bytes());
            let addrs = warp.addrs(inst);
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
/// Returns a [`DecodeError`] describing the first structural problem.
pub fn decode(buf: &[u8]) -> Result<KernelTrace, DecodeError> {
    let mut pos = 0usize;
    if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    pos += MAGIC.len();
    let version = *buf.get(pos).ok_or(DecodeError::Truncated)?;
    pos += 1;
    if version != VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let name_len = get_varint(buf, &mut pos)? as usize;
    let name_end = pos.checked_add(name_len).ok_or(DecodeError::Truncated)?;
    let name_bytes = buf.get(pos..name_end).ok_or(DecodeError::Truncated)?;
    let name = std::str::from_utf8(name_bytes).map_err(|_| DecodeError::BadString)?.to_string();
    pos = name_end;

    let threads_per_block = get_varint(buf, &mut pos)? as usize;
    let num_blocks = get_varint(buf, &mut pos)? as usize;
    let launch =
        LaunchConfig::try_new(threads_per_block, num_blocks).map_err(DecodeError::BadLaunch)?;
    let num_warps = get_varint(buf, &mut pos)? as usize;

    let mut warps: Vec<WarpTrace> = Vec::with_capacity(capped_capacity(num_warps, buf, pos));
    for w in 0..num_warps {
        let n_insts = get_varint(buf, &mut pos)? as usize;
        let warp_id = WarpId::new(w as u32);
        let block = BlockId::new((w / launch.warps_per_block()) as u32);
        // Warps of one kernel are mostly the same size: the previous warp
        // sizes this one's arenas (its size is itself bounded by the bytes
        // that were there to decode).
        let mut warp = match warps.last() {
            Some(prev) => WarpTrace::sized_like(warp_id, block, prev),
            None => WarpTrace::new(warp_id, block),
        };
        warp.insts.reserve(capped_capacity(n_insts, buf, pos));
        let mut deps = [0u32; NUM_REGS];
        let mut addrs = [0u64; WARP_SIZE];
        for _ in 0..n_insts {
            let pc = get_varint(buf, &mut pos)? as u32;
            let tag = *buf.get(pos).ok_or(DecodeError::Truncated)?;
            pos += 1;
            let kind = tag_kind(tag)?;
            let n_deps = get_varint(buf, &mut pos)?;
            let deps = usize::try_from(n_deps)
                .ok()
                .and_then(|n| deps.get_mut(..n))
                .ok_or(DecodeError::TooManyDeps(n_deps))?;
            let mut prev = 0u64;
            for d in deps.iter_mut() {
                prev = prev.wrapping_add(get_varint(buf, &mut pos)?);
                *d = prev as u32;
            }
            let mask_end = pos.checked_add(4).ok_or(DecodeError::Truncated)?;
            let mask_bytes: [u8; 4] = buf
                .get(pos..mask_end)
                .and_then(|s| s.try_into().ok())
                .ok_or(DecodeError::Truncated)?;
            let active_mask = u32::from_le_bytes(mask_bytes);
            pos = mask_end;
            let n_addrs = get_varint(buf, &mut pos)?;
            let addrs = usize::try_from(n_addrs)
                .ok()
                .and_then(|n| addrs.get_mut(..n))
                .ok_or(DecodeError::TooManyAddrs(n_addrs))?;
            let mut prev = 0i64;
            for a in addrs.iter_mut() {
                prev = prev.wrapping_add(unzigzag(get_varint(buf, &mut pos)?));
                *a = prev as u64;
            }
            warp.push(pc, kind, active_mask, deps, addrs)
                .map_err(|e| DecodeError::Invalid(e.to_string()))?;
        }
        warps.push(warp);
    }
    let trace = KernelTrace { name, launch, warps };
    trace.validate().map_err(|e| DecodeError::Invalid(e.to_string()))?;
    Ok(trace)
}

/// Serializes a trace to JSON (the interchange format; ~20x larger than
/// [`encode`] but human-readable and diffable).
///
/// # Errors
///
/// Propagates serialization errors.
pub fn to_json(trace: &KernelTrace) -> Result<String, serde_json::Error> {
    serde_json::to_string(trace)
}

/// Parses a trace from JSON and validates its structural invariants, so a
/// hand-edited or corrupted file surfaces as a typed error instead of a
/// panic deep inside a model.
///
/// # Errors
///
/// Returns [`TraceError::CorruptTrace`] on parse failure or any violated
/// invariant.
pub fn from_json(json: &str) -> Result<KernelTrace, TraceError> {
    let trace: KernelTrace = serde_json::from_str(json).map_err(|e| TraceError::CorruptTrace {
        kernel: String::new(),
        warp: None,
        detail: format!("JSON parse error: {e}"),
    })?;
    trace.validate()?;
    Ok(trace)
}

/// Writes a trace to `path` in the binary format.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn save(trace: &KernelTrace, path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, encode(trace))
}

/// Reads a trace from `path`.
///
/// # Errors
///
/// Propagates I/O errors; decoding failures surface as
/// [`std::io::ErrorKind::InvalidData`].
pub fn load(path: &std::path::Path) -> std::io::Result<KernelTrace> {
    let bytes = std::fs::read(path)?;
    decode(&bytes).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
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
        assert_eq!(tag_kind(13), Err(DecodeError::BadKind(13)));
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
        assert_eq!(decode(b"oops"), Err(DecodeError::BadMagic));
        let trace = workloads::by_name("sdk_vectoradd").unwrap().with_blocks(1).trace().unwrap();
        let mut bytes = encode(&trace);
        bytes[8] = 99; // version byte
        assert_eq!(decode(&bytes), Err(DecodeError::BadVersion(99)));
        let trace_bytes = encode(&trace);
        for cut in [9, 16, trace_bytes.len() / 2] {
            // Truncations must error (any variant), never panic.
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
            assert_eq!(decode(&header_claiming(n, None)), Err(DecodeError::TooManyDeps(n)));
        }
        for n in [WARP_SIZE as u64 + 1, u64::from(u32::MAX), u64::MAX] {
            assert_eq!(decode(&header_claiming(0, Some(n))), Err(DecodeError::TooManyAddrs(n)));
        }
        // At the bound the claim is believed and the missing bytes are
        // what is reported.
        assert_eq!(decode(&header_claiming(NUM_REGS as u64, None)), Err(DecodeError::Truncated));
        assert_eq!(
            decode(&header_claiming(0, Some(WARP_SIZE as u64))),
            Err(DecodeError::Truncated)
        );
    }

    /// Deterministic corruption fan over the binary format: flip one
    /// seeded byte per case and decode. Every case must yield either a
    /// typed [`DecodeError`] or a trace that passed validation — reaching
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

    /// The same fan over the JSON path: corrupt one seeded character and
    /// re-load. [`from_json`] must return a typed [`TraceError`] or a
    /// validated trace, never panic.
    #[test]
    fn json_corruption_fan_yields_typed_errors_never_panics() {
        let trace = workloads::by_name("sdk_transpose").unwrap().with_blocks(1).trace().unwrap();
        let json = to_json(&trace).unwrap();
        let bytes = json.as_bytes();
        let mut typed = 0;
        for seed in 0..128u64 {
            let r = crate::splitmix64(seed ^ 0xA5A5_5A5A);
            let pos = (r as usize) % bytes.len();
            // Substitute a printable ASCII character so the corrupt input
            // is still a valid string (exercises the parser, not UTF-8).
            let sub = b' ' + ((r >> 32) % 94) as u8;
            let mut corrupt = bytes.to_vec();
            corrupt[pos] = sub;
            let s = String::from_utf8(corrupt).unwrap();
            match from_json(&s) {
                Ok(t) => t.validate().unwrap_or_else(|e| panic!("seed {seed}: {e}")),
                Err(_) => typed += 1,
            }
        }
        assert!(typed > 0, "no substitution was rejected; the fan is toothless");
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join("gpumech_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.trace");
        let trace = workloads::by_name("sdk_transpose").unwrap().with_blocks(1).trace().unwrap();
        save(&trace, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(trace, back);
        std::fs::remove_file(&path).ok();
    }
}
