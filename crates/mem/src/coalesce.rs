//! The memory-access coalescer.
//!
//! A warp's global memory instruction issues one request per *distinct cache
//! line* touched by its active lanes — the paper's definition of memory
//! divergence ("uncoalesced memory accesses"): a fully coalesced instruction
//! issues 1 request, a maximally divergent one issues 32.

use gpumech_isa::WARP_SIZE;
use gpumech_trace::Addrs;

/// The coalesced requests of one warp memory instruction: at most one line
/// per lane, held inline so the cache simulators' inner loops allocate
/// nothing. Dereferences to the slice of line addresses.
#[derive(Debug, Clone, Copy)]
pub struct Lines {
    lines: [u64; WARP_SIZE],
    len: usize,
}

impl std::ops::Deref for Lines {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.lines[..self.len]
    }
}

/// Returns the distinct line-aligned addresses touched by `addrs`, in
/// first-touch order (the order requests are issued). An affine row's
/// lanes are expanded on the stack and take the lane loop of a list.
///
/// # Panics
///
/// Panics if `line_bytes` is not a power of two, or if `addrs` holds more
/// than [`WARP_SIZE`] addresses (a warp instruction has one per active
/// lane; `KernelTrace::validate` enforces it on every trace).
#[must_use]
pub fn coalesce(addrs: Addrs<'_>, line_bytes: u64) -> Lines {
    let mut out = Lines { lines: [0; WARP_SIZE], len: 0 };
    out.len = usize::from(coalesce_into(addrs, line_bytes, &mut out.lines));
    out
}

/// [`coalesce`] into the front of a caller-owned buffer at least as long
/// as `addrs`; returns the number of lines written. Same panics.
pub(crate) fn coalesce_into(addrs: Addrs<'_>, line_bytes: u64, out: &mut [u64]) -> u8 {
    assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
    assert!(addrs.len() <= WARP_SIZE, "a warp instruction has at most {WARP_SIZE} addresses");
    match addrs {
        Addrs::Lanes(lanes) => distinct_lines(lanes, line_bytes, out),
        Addrs::Affine { .. } => distinct_lines(addrs.lanes(&mut [0; WARP_SIZE]), line_bytes, out),
    }
}

/// The distinct lines of `addrs` in first-touch order.
fn distinct_lines(addrs: &[u64], line_bytes: u64, out: &mut [u64]) -> u8 {
    let mask = !(line_bytes - 1);
    let Some(&first) = addrs.first() else { return 0 };
    let first = first & mask;
    out[0] = first;
    let mut n = 1u8;
    let mut prev = first;
    for &a in &addrs[1..] {
        let line = a & mask;
        // Neighbouring lanes mostly share a line; only a change of line
        // pays for the scan of the lines seen so far.
        if line != prev && !out[..usize::from(n)].contains(&line) {
            out[usize::from(n)] = line;
            n += 1;
        }
        prev = line;
    }
    n
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random stream (splitmix64) — the build
    /// environment has no property-testing crate, so the randomized
    /// properties below run over a fixed set of generated cases instead.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn random_addrs(seed: u64, len: usize, modulus: Option<u64>) -> Vec<u64> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                let v = splitmix64(&mut s);
                match modulus {
                    Some(m) => v % m,
                    None => v,
                }
            })
            .collect()
    }

    /// The coalescer [`coalesce`] replaced — one scan of the lines seen so
    /// far per lane — kept as the reference of
    /// `coalescer_matches_the_scan_per_lane_reference`.
    fn reference_coalesce(addrs: &[u64], line_bytes: u64) -> Vec<u64> {
        let mask = !(line_bytes - 1);
        let mut out: Vec<u64> = Vec::new();
        for &a in addrs {
            let line = a & mask;
            if !out.contains(&line) {
                out.push(line);
            }
        }
        out
    }

    #[test]
    fn coalescer_matches_the_scan_per_lane_reference() {
        let lanes = |f: &dyn Fn(u64) -> u64| (0..WARP_SIZE as u64).map(f).collect::<Vec<u64>>();
        let mut inputs: Vec<Vec<u64>> = vec![
            vec![],
            vec![0x1234],
            vec![u64::MAX],
            lanes(&|i| 0x1000 + i * 4),          // all one line
            lanes(&|i| 0x1040 + i * 4),          // one line, then the next
            lanes(&|i| i * 128),                 // one line per lane
            lanes(&|i| i * 64),                  // half-line stride
            lanes(&|i| (31 - i) * 64),           // descending
            lanes(&|i| (i % 4) * 128),           // a line revisited after others
            lanes(&|i| (i / 2 % 2) * 4096 + 8),  // pairs alternating two lines
            lanes(&|_| 0xDEAD_BEE0),             // broadcast
        ];
        for case in 0..200u64 {
            let len = case as usize % (WARP_SIZE + 1);
            // Full-range, within a few lines, and duplicated lanes.
            inputs.push(random_addrs(0x3000 + case, len, None));
            inputs.push(random_addrs(0x4000 + case, len, Some(1024)));
            let mut dup = random_addrs(0x5000 + case, len, Some(1 << 16));
            for i in (1..dup.len()).step_by(3) {
                dup[i] = dup[i - 1];
            }
            inputs.push(dup);
        }
        for addrs in &inputs {
            for line_bytes in [2u64, 32, 128] {
                let got = coalesce(Addrs::Lanes(addrs), line_bytes);
                assert_eq!(*got, *reference_coalesce(addrs, line_bytes), "{addrs:x?} / {line_bytes}");
            }
        }
    }

    /// The affine path against the reference over the lanes it stands
    /// for: strides that stay in a line, cross lines, alias lanes and step
    /// backwards, on bases where the warp wraps past either end of the
    /// address space, under full, one-lane, alternating and random masks.
    #[test]
    fn affine_coalescer_matches_the_reference_over_the_lanes() {
        let strides = [0, 1, 4, 8, 64, 128, 4096, 1 << 63, u64::MAX, 4u64.wrapping_neg()];
        let mut seed = 0xAFF1_u64;
        let mut bases: Vec<u64> = vec![0, 4, 96, 4000, u64::MAX, u64::MAX - 3, u64::MAX - 200];
        bases.extend((0..8).map(|_| splitmix64(&mut seed)));
        bases.extend((0..4).map(|_| splitmix64(&mut seed) % 4096));
        bases.extend((0..4).map(|_| (splitmix64(&mut seed) % 4096).wrapping_neg()));
        let mut masks =
            vec![u32::MAX, 1, 1 << 31, 0x5555_5555, 0xAAAA_AAAA, 0x0000_FFFF, 0xFFFF_0000];
        masks.extend((0..12).map(|_| splitmix64(&mut seed) as u32 | 1 << (seed % 32)));
        let mut cases = 0;
        for &stride in &strides {
            for &base in &bases {
                for &mask in &masks {
                    let addrs = Addrs::Affine { base, stride, mask };
                    let lanes = addrs.to_vec();
                    for line_bytes in [32u64, 128] {
                        let got = coalesce(addrs, line_bytes);
                        assert_eq!(
                            *got,
                            *reference_coalesce(&lanes, line_bytes),
                            "base {base:#x} stride {stride:#x} mask {mask:#x} / {line_bytes}"
                        );
                        assert_eq!(*got, *coalesce(Addrs::Lanes(&lanes), line_bytes));
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, strides.len() * bases.len() * masks.len() * 2);
    }

    #[test]
    fn adjacent_words_coalesce_to_one_line() {
        let addrs: Vec<u64> = (0..32).map(|i| 0x1000 + i * 4).collect();
        assert_eq!(*coalesce(Addrs::Lanes(&addrs), 128), [0x1000]);
        assert_eq!(coalesce(Addrs::Lanes(&addrs), 128).len(), 1);
    }

    #[test]
    fn full_stride_gives_one_request_per_lane() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 128).collect();
        assert_eq!(coalesce(Addrs::Lanes(&addrs), 128).len(), 32);
    }

    #[test]
    fn half_line_stride_gives_sixteen_requests() {
        let addrs: Vec<u64> = (0..32).map(|i| i * 64).collect();
        assert_eq!(coalesce(Addrs::Lanes(&addrs), 128).len(), 16);
    }

    #[test]
    fn duplicate_addresses_merge() {
        let addrs = vec![0x80, 0x84, 0x80, 0x200, 0x27F];
        let lines = coalesce(Addrs::Lanes(&addrs), 128);
        assert_eq!(*lines, [0x80, 0x200]);
    }

    #[test]
    fn first_touch_order_is_preserved() {
        let addrs = vec![0x300, 0x100, 0x200, 0x101];
        // 0x101 shares the 0x100 line; the rest appear in first-touch order.
        assert_eq!(*coalesce(Addrs::Lanes(&addrs), 128), [0x300, 0x100, 0x200]);
    }

    #[test]
    fn empty_input_gives_no_requests() {
        assert_eq!(coalesce(Addrs::Lanes(&[]), 128).len(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_lines() {
        let _ = coalesce(Addrs::Lanes(&[0]), 100);
    }

    #[test]
    #[should_panic(expected = "at most 32 addresses")]
    fn rejects_more_addresses_than_lanes() {
        let _ = coalesce(Addrs::Lanes(&[0; WARP_SIZE + 1]), 128);
    }

    #[test]
    fn request_count_is_bounded_by_lanes_and_one() {
        for case in 0..64u64 {
            let len = 1 + (case as usize % 31);
            let addrs = random_addrs(case, len, None);
            let n = coalesce(Addrs::Lanes(&addrs), 128).len();
            assert!(n >= 1);
            assert!(n <= addrs.len());
        }
    }

    #[test]
    fn every_address_is_covered_by_a_request() {
        for case in 0..64u64 {
            let len = case as usize % (WARP_SIZE + 1);
            let addrs = random_addrs(0x1000 + case, len, Some(1 << 20));
            let lines = coalesce(Addrs::Lanes(&addrs), 128);
            for a in &addrs {
                assert!(lines.contains(&(a & !127u64)));
            }
            // And no request is superfluous.
            for l in lines.iter() {
                assert!(addrs.iter().any(|a| a & !127u64 == *l));
            }
        }
    }

    #[test]
    fn requests_are_line_aligned() {
        for case in 0..64u64 {
            let len = case as usize % (WARP_SIZE + 1);
            for l in coalesce(Addrs::Lanes(&random_addrs(0x2000 + case, len, None)), 128).iter() {
                assert_eq!(l % 128, 0);
            }
        }
    }
}
