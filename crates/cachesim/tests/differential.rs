//! Differential tests: the structure-of-arrays `CacheLevel` must behave
//! exactly like the array-of-structs reference model in `reference_model/`
//! under every replacement kind, and the `Hierarchy` built on it like the
//! reference hierarchy under both mask modes. Seeded random operation
//! streams drive both; every outcome, eviction, occupancy and all 29
//! counters are compared after every operation.

mod reference_model;

use reference_model::{RefCacheLevel, RefHierarchy};
use stca_cachesim::replacement::ReplacementKind;
use stca_cachesim::{
    AccessKind, CacheGeometry, CacheLevel, Counter, Hierarchy, HierarchyConfig, MaskMode,
};
use stca_cat::CapacityBitmask;
use stca_util::Rng64;

const KINDS: [ReplacementKind; 3] = [
    ReplacementKind::Lru,
    ReplacementKind::TreePlru,
    ReplacementKind::Random,
];

/// A fill mask for a `ways`-way cache: usually a random contiguous run,
/// sometimes full, sometimes gapped, sometimes empty or entirely out of
/// range (both of which must refuse the fill).
fn random_mask(rng: &mut Rng64, ways: usize) -> u64 {
    let full = (1u64 << ways) - 1;
    match rng.next_below(8) {
        0 => 0,
        1 => 1 << ways,
        2 => full,
        3 => rng.next_u64() & full,
        _ => {
            let len = 1 + rng.next_below(ways as u64) as usize;
            let offset = rng.next_below((ways - len + 1) as u64) as usize;
            ((1u64 << len) - 1) << offset
        }
    }
}

#[test]
fn cache_level_matches_reference_model() {
    // 8 sets; 6 ways exercises a non-power-of-two PLRU tree, 16 a deep one
    for (ways, geometry) in [
        (6, CacheGeometry::new(8 * 6 * 64, 6, 64)),
        (16, CacheGeometry::new(8 * 16 * 64, 16, 64)),
    ] {
        for kind in KINDS {
            for seed in 1..=3u64 {
                let mut real = CacheLevel::new(geometry, kind, seed);
                let mut reference = RefCacheLevel::new(geometry, kind, seed);
                let mut rng = Rng64::new(seed * 7919 + ways as u64);
                let lines = 3 * geometry.lines() as u64;
                for step in 0..20_000 {
                    let addr = rng.next_below(lines) * 64 + rng.next_below(64);
                    let owner = rng.next_below(5) as u32;
                    let ctx = format!("{kind:?} ways {ways} seed {seed} step {step}");
                    match rng.next_below(100) {
                        0..=44 => {
                            let mask = random_mask(&mut rng, ways);
                            assert_eq!(
                                real.lookup(addr, mask),
                                reference.lookup(addr, mask),
                                "lookup, {ctx}"
                            );
                        }
                        45..=84 => {
                            let mask = random_mask(&mut rng, ways);
                            let dirty = rng.next_bool(0.3);
                            assert_eq!(
                                real.fill(addr, owner, mask, dirty),
                                reference.fill(addr, owner, mask, dirty),
                                "fill, {ctx}"
                            );
                        }
                        85..=92 => assert_eq!(
                            real.mark_dirty(addr),
                            reference.mark_dirty(addr),
                            "mark_dirty, {ctx}"
                        ),
                        93..=98 => assert_eq!(
                            real.invalidate(addr),
                            reference.invalidate(addr),
                            "invalidate, {ctx}"
                        ),
                        _ => {
                            real.flush_workload(owner);
                            reference.flush_workload(owner);
                        }
                    }
                    for w in 0..6 {
                        assert_eq!(
                            real.occupancy_of(w),
                            reference.occupancy_of(w),
                            "occupancy of {w}, {ctx}"
                        );
                    }
                    assert_eq!(
                        real.total_occupancy(),
                        reference.total_occupancy(),
                        "total occupancy, {ctx}"
                    );
                }
            }
        }
    }
}

fn small_config() -> HierarchyConfig {
    HierarchyConfig {
        l1d: CacheGeometry::new(4 * 4 * 64, 4, 64),
        l1i: CacheGeometry::new(2 * 4 * 64, 4, 64),
        l2: CacheGeometry::new(8 * 8 * 64, 8, 64),
        llc: CacheGeometry::new(16 * 12 * 64, 12, 64),
        latencies: Default::default(),
    }
}

/// Workload ids are sparse on purpose: per-workload state must grow to
/// any id, and never-seen ids must read as zeros and full masks.
const WORKLOADS: [u32; 3] = [0, 2, 5];

#[test]
fn hierarchy_matches_reference_model() {
    let config = small_config();
    let ways = config.llc.ways;
    let llc_lines = config.llc.lines() as u64;
    for mode in [MaskMode::FillOnly, MaskMode::Strict] {
        for seed in [11u64, 12, 13] {
            let mut real = Hierarchy::new(config, seed);
            let mut reference = RefHierarchy::new(config, seed);
            real.set_mask_mode(mode);
            reference.set_mask_mode(mode);
            let mut rng = Rng64::new(seed ^ 0xD1FF);
            let mut expected_accesses = 0u64;
            for step in 0..30_000 {
                let w = WORKLOADS[rng.next_below(3) as usize];
                let ctx = format!("{mode:?} seed {seed} step {step}");
                match rng.next_below(1000) {
                    0..=19 => {
                        // mask switch (a proxy's boost or revoke)
                        let len = 1 + rng.next_below(ways as u64) as usize;
                        let offset = rng.next_below((ways - len + 1) as u64) as usize;
                        let cbm = CapacityBitmask::from_span(offset, len, ways)
                            .expect("span fits the LLC");
                        real.set_llc_mask(w, cbm);
                        reference.set_llc_mask(w, cbm);
                    }
                    20..=21 => {
                        real.remove_workload(w);
                        reference.remove_workload(w);
                    }
                    22..=31 => {
                        let boost = rng.next_bool(0.5);
                        real.update_gauges(w, boost);
                        reference.update_gauges(w, boost);
                        real.retire(w, 100, 40);
                        reference.retire(w, 100, 40);
                    }
                    _ => {
                        // a private region per workload plus a shared one
                        let region = if rng.next_bool(0.3) {
                            0
                        } else {
                            (w as u64 + 1) << 32
                        };
                        let addr = region + rng.next_below(2 * llc_lines) * 64 + rng.next_below(64);
                        let kind = match rng.next_below(10) {
                            0..=5 => AccessKind::Load,
                            6..=8 => AccessKind::Store,
                            _ => AccessKind::IFetch,
                        };
                        expected_accesses += 1;
                        assert_eq!(
                            real.access(w, addr, kind),
                            reference.access(w, addr, kind),
                            "access, {ctx}"
                        );
                    }
                }
                for w in 0..7 {
                    let (got, want) = (real.counters_of(w), reference.counters_of(w));
                    for c in Counter::ALL {
                        assert_eq!(got.get(c), want.get(c), "{c:?} of {w}, {ctx}");
                    }
                    assert_eq!(
                        real.llc_occupancy(w),
                        reference.llc_occupancy(w),
                        "occupancy of {w}, {ctx}"
                    );
                    assert_eq!(
                        real.llc_mask_bits(w),
                        reference.llc_mask_bits(w),
                        "mask of {w}, {ctx}"
                    );
                }
                assert_eq!(real.accesses(), expected_accesses, "accesses, {ctx}");
            }
        }
    }
}
