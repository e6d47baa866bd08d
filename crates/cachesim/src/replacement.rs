//! Replacement policies with mask-constrained victim selection.
//!
//! CAT interposes on victim selection: a fill may only evict from the ways
//! enabled in the workload's capacity bitmask (Figure 1's write-enable
//! logic). Each policy therefore selects victims *within an allowed-way
//! mask*. Three policies are provided: true LRU (default; per-way
//! timestamps), tree-PLRU (what real LLCs approximate), and random
//! (baseline for ablations).
//!
//! The state of a whole cache level lives in flat arrays indexed by set
//! (and way): LRU keeps one `sets × ways` stamp array, tree-PLRU one `u64`
//! of node bits per set, random one generator for the level. No set owns a
//! heap allocation of its own.

use stca_util::Rng64;

/// Which replacement policy to instantiate for a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementKind {
    /// True LRU.
    Lru,
    /// Tree pseudo-LRU.
    TreePlru,
    /// Random victim.
    Random,
}

/// Replacement state of every set of one cache level.
#[derive(Debug, Clone)]
pub(crate) enum Replacement {
    /// True least-recently-used: `stamps[set * ways + way]` is the tick of
    /// the way's last touch; `tick` counts touches level-wide.
    Lru {
        /// Last-touch tick per line, row-major by set.
        stamps: Vec<u64>,
        /// Level-wide touch counter.
        tick: u64,
    },
    /// Tree pseudo-LRU over the next power of two of the way count: one bit
    /// per internal node (1-based heap index), 1 = the right half is colder.
    TreePlru {
        /// Node bits per set.
        bits: Vec<u64>,
        /// Leaves of the tree (`ways.next_power_of_two()`).
        leaves: usize,
    },
    /// Uniform random among allowed ways.
    Random(Rng64),
}

impl Replacement {
    /// Fresh state for `sets` sets of `ways` ways. `seed` drives the random
    /// policy only.
    pub(crate) fn new(kind: ReplacementKind, sets: usize, ways: usize, seed: u64) -> Self {
        match kind {
            ReplacementKind::Lru => Replacement::Lru {
                stamps: vec![0; sets * ways],
                tick: 0,
            },
            ReplacementKind::TreePlru => Replacement::TreePlru {
                bits: vec![0; sets],
                leaves: ways.next_power_of_two(),
            },
            ReplacementKind::Random => Replacement::Random(Rng64::new(seed)),
        }
    }

    /// Record a touch (hit or fill) of `way` in `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, ways: usize, way: usize) {
        match self {
            Replacement::Lru { stamps, tick } => {
                *tick += 1;
                stamps[set * ways + way] = *tick;
            }
            Replacement::TreePlru { bits, leaves } => plru_touch(&mut bits[set], *leaves, way),
            Replacement::Random(_) => {}
        }
    }

    /// Pick a victim in `set` among ways enabled in `allowed` (bit i = way
    /// i usable). `valid` marks ways currently holding valid lines; invalid
    /// allowed ways are preferred. Returns `None` when `allowed` has no bits
    /// for this set width (an empty-mask workload cannot fill).
    #[inline]
    pub(crate) fn victim(
        &mut self,
        set: usize,
        ways: usize,
        allowed: u64,
        valid: u64,
    ) -> Option<usize> {
        let allowed = allowed & way_mask(ways);
        if allowed == 0 {
            return None;
        }
        // Prefer an invalid allowed way (no eviction needed).
        let empty = allowed & !valid;
        if empty != 0 {
            return Some(empty.trailing_zeros() as usize);
        }
        Some(match self {
            Replacement::Lru { stamps, .. } => {
                lru_victim(&stamps[set * ways..(set + 1) * ways], allowed)
            }
            Replacement::TreePlru { bits, leaves } => plru_victim(bits[set], *leaves, allowed),
            Replacement::Random(rng) => {
                // the pick-th allowed way, counting from way 0
                let mut rest = allowed;
                for _ in 0..rng.next_below(allowed.count_ones() as u64) {
                    rest &= rest - 1;
                }
                rest.trailing_zeros() as usize
            }
        })
    }
}

/// Bits of the ways that exist in a `ways`-way set.
#[inline]
pub(crate) fn way_mask(ways: usize) -> u64 {
    if ways == 64 {
        u64::MAX
    } else {
        (1u64 << ways) - 1
    }
}

/// Lowest-indexed allowed way with the minimum stamp.
#[inline]
fn lru_victim(stamps: &[u64], allowed: u64) -> usize {
    let mut rest = allowed;
    let mut best = rest.trailing_zeros() as usize;
    let mut best_stamp = stamps[best];
    rest &= rest - 1;
    while rest != 0 {
        let w = rest.trailing_zeros() as usize;
        if stamps[w] < best_stamp {
            best = w;
            best_stamp = stamps[w];
        }
        rest &= rest - 1;
    }
    best
}

/// Walk root → leaf, pointing each node *away* from the touched way.
fn plru_touch(bits: &mut u64, leaves: usize, way: usize) {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = leaves;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            // touched left: mark right as colder
            *bits |= 1 << node;
            hi = mid;
            node *= 2;
        } else {
            *bits &= !(1 << node);
            lo = mid;
            node = node * 2 + 1;
        }
    }
}

/// Walk toward the cold side, but only into halves containing allowed
/// ways; fall back to the other half when the cold half is empty.
/// `allowed` must be nonzero.
fn plru_victim(bits: u64, leaves: usize, allowed: u64) -> usize {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = leaves;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let left_mask = mask_range(lo, mid) & allowed;
        let right_mask = mask_range(mid, hi) & allowed;
        let prefer_right = (bits >> node) & 1 == 1;
        let go_right = if right_mask == 0 {
            false
        } else if left_mask == 0 {
            true
        } else {
            prefer_right
        };
        if go_right {
            lo = mid;
            node = node * 2 + 1;
        } else {
            hi = mid;
            node *= 2;
        }
    }
    if (allowed >> lo) & 1 == 1 {
        lo
    } else {
        // the walked-to leaf is disallowed (can happen when allowed has
        // gaps relative to the pow2 tree); pick any allowed way
        allowed.trailing_zeros() as usize
    }
}

#[inline]
fn mask_range(lo: usize, hi: usize) -> u64 {
    debug_assert!(hi <= 64 && lo <= hi);
    let hi_mask = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let lo_mask = if lo == 64 { u64::MAX } else { (1u64 << lo) - 1 };
    hi_mask & !lo_mask
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One-set state of `kind` with `ways` ways.
    fn one_set(kind: ReplacementKind, ways: usize, seed: u64) -> Replacement {
        Replacement::new(kind, 1, ways, seed)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = one_set(ReplacementKind::Lru, 4, 1);
        for way in [0, 1, 2, 3, 0] {
            r.touch(0, 4, way);
        }
        // all valid, all allowed: way 1 is the least recently used
        assert_eq!(r.victim(0, 4, 0b1111, 0b1111), Some(1));
    }

    #[test]
    fn invalid_way_preferred_over_eviction() {
        let mut r = one_set(ReplacementKind::Lru, 4, 2);
        r.touch(0, 4, 0);
        // way 2 invalid and allowed: take it even though way 0 is older
        assert_eq!(r.victim(0, 4, 0b0101, 0b0001), Some(2));
    }

    #[test]
    fn mask_restricts_victims() {
        let mut r = one_set(ReplacementKind::Lru, 4, 3);
        for way in 0..4 {
            r.touch(0, 4, way); // way 0 oldest
        }
        // only ways 2-3 allowed: victim must be 2 even though 0 is older
        assert_eq!(r.victim(0, 4, 0b1100, 0b1111), Some(2));
    }

    #[test]
    fn lru_sets_are_independent() {
        let mut r = Replacement::new(ReplacementKind::Lru, 2, 4, 0);
        for way in [3, 2, 1, 0] {
            r.touch(0, 4, way);
        }
        for way in [0, 1, 2, 3] {
            r.touch(1, 4, way);
        }
        assert_eq!(r.victim(0, 4, 0b1111, 0b1111), Some(3));
        assert_eq!(r.victim(1, 4, 0b1111, 0b1111), Some(0));
    }

    #[test]
    fn empty_mask_gives_no_victim() {
        for kind in [
            ReplacementKind::Lru,
            ReplacementKind::TreePlru,
            ReplacementKind::Random,
        ] {
            let mut r = one_set(kind, 4, 4);
            assert_eq!(r.victim(0, 4, 0, 0b1111), None);
            // bits above the way count do not count as allowed
            assert_eq!(r.victim(0, 4, 0b1_0000, 0b1111), None);
        }
    }

    #[test]
    fn random_victim_within_mask() {
        let mut r = one_set(ReplacementKind::Random, 8, 5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = r.victim(0, 8, 0b0011_0000, 0xFF).expect("allowed nonempty");
            assert!(v == 4 || v == 5);
            seen[v] = true;
        }
        assert!(seen[4] && seen[5], "both allowed ways get picked");
    }

    #[test]
    fn plru_victim_is_allowed_and_not_hot() {
        let mut r = one_set(ReplacementKind::TreePlru, 8, 6);
        // touch ways 0..4 heavily; victim among all should be in 4..8
        for _ in 0..4 {
            for w in 0..4 {
                r.touch(0, 8, w);
            }
        }
        let v = r.victim(0, 8, 0xFF, 0xFF).expect("some victim");
        assert!(v >= 4, "PLRU should avoid recently-touched half, got {v}");
        // restricted mask always respected
        for _ in 0..100 {
            let v = r.victim(0, 8, 0b0000_1100, 0xFF).expect("allowed");
            assert!(v == 2 || v == 3);
        }
    }

    #[test]
    fn plru_non_pow2_ways() {
        let mut r = one_set(ReplacementKind::TreePlru, 20, 7);
        let allowed = (1u64 << 20) - 1;
        for _ in 0..100 {
            let v = r.victim(0, 20, allowed, allowed).expect("victim");
            assert!(v < 20);
            r.touch(0, 20, v);
        }
    }

    #[test]
    fn lru_64_ways() {
        let mut r = one_set(ReplacementKind::Lru, 64, 8);
        for w in 0..64 {
            r.touch(0, 64, w);
        }
        assert_eq!(r.victim(0, 64, u64::MAX, u64::MAX), Some(0));
    }
}
