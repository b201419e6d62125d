//! A set-associative LRU cache model (tags only, no data).

use gpumech_isa::CacheConfig;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was absent (and filled, if the access allocates).
    Miss,
}

/// Marks a way that holds no line. Line numbers are byte addresses shifted
/// right by at least one bit ([`Cache::new`] rejects 1-byte lines), so no
/// line can equal it.
const EMPTY: u64 = u64::MAX;

/// Tag-array-only set-associative cache with true-LRU replacement.
///
/// A set is `assoc` consecutive line numbers kept in recency order: the
/// most recently used line first, empty ways at the tail. A lookup is one
/// forward pass that carries the looked-up line to the front, each way
/// taking the value carried in and handing its own on, and stops where the
/// line used to be (hit) or runs off the end (miss: what is carried out is
/// the least recently used line, or an empty way). There is no age stamp
/// and no victim search, and a way is 8 bytes.
#[derive(Debug, Clone)]
pub struct Cache {
    ways: Vec<u64>,
    assoc: usize,
    num_sets: u64,
    line_shift: u32,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Builds an empty cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or the line size is not
    /// a power of two of at least 2 bytes (use
    /// [`gpumech_isa::SimConfig::validate`] first).
    #[must_use]
    pub fn new(cfg: &CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.line_bytes >= 2, "line size must be at least 2 bytes");
        let num_sets = cfg.num_sets();
        Self {
            ways: vec![EMPTY; num_sets * cfg.assoc],
            assoc: cfg.assoc,
            num_sets: num_sets as u64,
            line_shift: cfg.line_bytes.trailing_zeros(),
            hits: 0,
            misses: 0,
        }
    }

    /// The line number of `addr` and the range of `ways` holding its set.
    fn locate(&self, addr: u64) -> (u64, std::ops::Range<usize>) {
        let line = addr >> self.line_shift;
        // Table I's L1 has 32 sets and a mask; its L2 has 768 and divides.
        let set = if self.num_sets.is_power_of_two() {
            line & (self.num_sets - 1)
        } else {
            line % self.num_sets
        };
        let first = set as usize * self.assoc;
        (line, first..first + self.assoc)
    }

    /// Looks up the line containing `addr`. On a miss, the line is filled
    /// (evicting the LRU way) when `allocate` is true and left absent
    /// otherwise (no-write-allocate stores).
    // Inlined so that a caller's constant `allocate` folds the first check
    // away: left to the heuristic, the replay loop ran 20% slower.
    #[inline]
    pub fn access(&mut self, addr: u64, allocate: bool) -> Access {
        let (line, set) = self.locate(addr);
        let ways = &mut self.ways[set];
        // A miss that must not allocate leaves the set as it is.
        if !allocate && !ways.contains(&line) {
            self.misses += 1;
            return Access::Miss;
        }
        let mut carried = line;
        for way in ways.iter_mut() {
            std::mem::swap(way, &mut carried);
            if carried == line {
                self.hits += 1;
                return Access::Hit;
            }
        }
        self.misses += 1;
        Access::Miss
    }

    /// `true` if the line containing `addr` is present (no LRU update).
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (line, set) = self.locate(addr);
        self.ways[set].contains(&line)
    }

    /// Lifetime (hits, misses) counters.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
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

    /// The stamp-based cache this module's [`Cache`] replaced (one
    /// `{tag, valid, lru}` record per way, an age stamp per access, a
    /// `min_by_key` victim search), kept as the reference of
    /// `recency_order_matches_the_stamp_based_reference`.
    mod reference {
        use super::{Access, CacheConfig};

        #[derive(Debug, Clone, Copy)]
        struct Way {
            tag: u64,
            valid: bool,
            lru: u64,
        }

        pub(super) struct Cache {
            sets: Vec<Way>,
            assoc: usize,
            num_sets: usize,
            line_shift: u32,
            tick: u64,
            hits: u64,
            misses: u64,
        }

        impl Cache {
            pub(super) fn new(cfg: &CacheConfig) -> Self {
                let num_sets = cfg.num_sets();
                Self {
                    sets: vec![Way { tag: 0, valid: false, lru: 0 }; num_sets * cfg.assoc],
                    assoc: cfg.assoc,
                    num_sets,
                    line_shift: cfg.line_bytes.trailing_zeros(),
                    tick: 0,
                    hits: 0,
                    misses: 0,
                }
            }

            fn set_index(&self, addr: u64) -> usize {
                ((addr >> self.line_shift) % self.num_sets as u64) as usize
            }

            fn tag(&self, addr: u64) -> u64 {
                (addr >> self.line_shift) / self.num_sets as u64
            }

            pub(super) fn access(&mut self, addr: u64, allocate: bool) -> Access {
                self.tick += 1;
                let set = self.set_index(addr);
                let tag = self.tag(addr);
                let ways = &mut self.sets[set * self.assoc..(set + 1) * self.assoc];

                if let Some(way) = ways.iter_mut().find(|w| w.valid && w.tag == tag) {
                    way.lru = self.tick;
                    self.hits += 1;
                    return Access::Hit;
                }
                self.misses += 1;
                if allocate {
                    if let Some(victim) =
                        ways.iter_mut().min_by_key(|w| if w.valid { w.lru } else { 0 })
                    {
                        victim.tag = tag;
                        victim.valid = true;
                        victim.lru = self.tick;
                    }
                }
                Access::Miss
            }

            pub(super) fn probe(&self, addr: u64) -> bool {
                let set = self.set_index(addr);
                let tag = self.tag(addr);
                self.sets[set * self.assoc..(set + 1) * self.assoc]
                    .iter()
                    .any(|w| w.valid && w.tag == tag)
            }

            pub(super) fn stats(&self) -> (u64, u64) {
                (self.hits, self.misses)
            }
        }
    }

    fn small() -> Cache {
        // 2 sets x 2 ways x 128 B lines.
        Cache::new(&CacheConfig { size_bytes: 512, line_bytes: 128, assoc: 2, latency: 1 })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert_eq!(c.access(0x1000, true), Access::Miss);
        assert_eq!(c.access(0x1000, true), Access::Hit);
        assert_eq!(c.access(0x107F, true), Access::Hit, "same line, different offset");
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn no_allocate_leaves_line_absent() {
        let mut c = small();
        assert_eq!(c.access(0x2000, false), Access::Miss);
        assert_eq!(c.access(0x2000, true), Access::Miss, "still absent");
        assert_eq!(c.access(0x2000, false), Access::Hit, "now filled");
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = small();
        // Set 0 lines: line addresses with (addr>>7) % 2 == 0.
        let a = 0u64; // set 0
        let b = 256u64; // set 0
        let d = 512u64; // set 0
        assert_eq!(c.access(a, true), Access::Miss);
        assert_eq!(c.access(b, true), Access::Miss);
        assert_eq!(c.access(a, true), Access::Hit); // a now MRU
        assert_eq!(c.access(d, true), Access::Miss); // evicts b
        assert_eq!(c.access(a, true), Access::Hit, "a survived");
        assert_eq!(c.access(b, true), Access::Miss, "b was evicted");
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small();
        assert_eq!(c.access(0, true), Access::Miss); // set 0
        assert_eq!(c.access(128, true), Access::Miss); // set 1
        assert_eq!(c.access(0, true), Access::Hit);
        assert_eq!(c.access(128, true), Access::Hit);
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = small();
        c.access(0, true);
        c.access(256, true);
        assert!(c.probe(0));
        // Probing 0 must not refresh it: access order is 0 then 256, so a
        // new line evicts 0 (LRU), not 256.
        c.access(512, true);
        assert!(!c.probe(0));
        assert!(c.probe(256));
    }

    #[test]
    fn working_set_within_capacity_fully_hits_after_warmup() {
        let cfg = CacheConfig { size_bytes: 32 * 1024, line_bytes: 128, assoc: 8, latency: 1 };
        let mut c = Cache::new(&cfg);
        let lines: Vec<u64> = (0..cfg.num_lines() as u64).map(|i| i * 128).collect();
        for &l in &lines {
            c.access(l, true);
        }
        for &l in &lines {
            assert_eq!(c.access(l, true), Access::Hit, "line {l:#x} should be resident");
        }
    }

    #[test]
    fn hit_immediately_after_allocating_access() {
        for case in 0..32u64 {
            let mut s = case;
            let mut c = small();
            for _ in 0..(1 + case as usize * 6 % 200) {
                let a = splitmix64(&mut s);
                c.access(a, true);
                assert!(c.probe(a));
            }
        }
    }

    #[test]
    fn hits_plus_misses_equals_accesses() {
        for case in 0..32u64 {
            let mut s = 0x5EED + case;
            let mut c = small();
            let n = 1 + case * 9 % 300;
            for _ in 0..n {
                c.access(splitmix64(&mut s) % 4096, true);
            }
            let (h, m) = c.stats();
            assert_eq!(h + m, n);
        }
    }

    #[test]
    fn recency_order_matches_the_stamp_based_reference() {
        // 1/2/8/16 ways x 1/32/768 sets (Table I's L2 has 768 sets, not a
        // power of two), mixed allocating and non-allocating accesses with
        // probes in between, over an address range a few times the cache.
        let mut case = 0u64;
        for assoc in [1usize, 2, 8, 16] {
            for sets in [1usize, 32, 768] {
                case += 1;
                let cfg =
                    CacheConfig { size_bytes: sets * assoc * 128, line_bytes: 128, assoc, latency: 1 };
                let mut new = Cache::new(&cfg);
                let mut old = reference::Cache::new(&cfg);
                let mut s = 0xCAC4E + case;
                let span = (sets * assoc * 128 * 3) as u64;
                for step in 0..20_000u32 {
                    let r = splitmix64(&mut s);
                    // Mostly a hot range, sometimes anywhere in 64 bits.
                    let addr = if r & 0xF == 0 { splitmix64(&mut s) } else { (r >> 8) % span };
                    if r & 0x30 == 0 {
                        assert_eq!(new.probe(addr), old.probe(addr), "{cfg:?} step {step}");
                    }
                    let allocate = r & 0xC0 != 0;
                    assert_eq!(
                        new.access(addr, allocate),
                        old.access(addr, allocate),
                        "{cfg:?} step {step} addr {addr:#x} allocate {allocate}"
                    );
                }
                assert_eq!(new.stats(), old.stats(), "{cfg:?}");
                let (hits, misses) = new.stats();
                assert!(hits > 0 && misses > 0, "{cfg:?}: the fan must see both outcomes");
            }
        }
    }

    #[test]
    fn no_line_number_equals_the_empty_marker() {
        // The smallest legal line (2 bytes) halves the address space: the
        // highest address maps below the marker and is absent until filled.
        let mut c = Cache::new(&CacheConfig { size_bytes: 8, line_bytes: 2, assoc: 4, latency: 1 });
        assert!(!c.probe(u64::MAX));
        assert_eq!(c.access(u64::MAX, false), Access::Miss);
        assert_eq!(c.access(u64::MAX, true), Access::Miss);
        assert_eq!(c.access(u64::MAX, true), Access::Hit);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn rejects_a_one_byte_line() {
        // With 1-byte lines address u64::MAX would be line u64::MAX, the
        // empty-way marker.
        let _ = Cache::new(&CacheConfig { size_bytes: 8, line_bytes: 1, assoc: 4, latency: 1 });
    }
}
