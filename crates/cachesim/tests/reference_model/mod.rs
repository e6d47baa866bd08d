//! Test-only reference model of the cache simulator: the straightforward
//! array-of-structs layout the optimized `CacheLevel` replaced. Every line
//! is a `Line` struct, each set owns its replacement state on the heap, LRU
//! stamps come from a level-wide tick advanced by every lookup and fill,
//! and per-workload occupancy and fill masks live in `HashMap`s. The
//! differential tests drive this model and the real simulator with the
//! same operation streams and require identical results.

use stca_cachesim::address::AddressMapper;
use stca_cachesim::cache::{AccessOutcome, Evicted};
use stca_cachesim::counters::CounterBank;
use stca_cachesim::replacement::ReplacementKind;
use stca_cachesim::{
    AccessKind, Address, CacheGeometry, Counter, CounterSet, HierarchyConfig, LevelHit, MaskMode,
};
use stca_cat::CapacityBitmask;
use stca_util::Rng64;
use std::collections::HashMap;

type WorkloadId = u32;

#[derive(Debug, Clone)]
enum Replacement {
    Lru(Vec<u64>),
    TreePlru { bits: u64, leaves: usize },
    Random,
}

impl Replacement {
    fn new(kind: ReplacementKind, ways: usize) -> Self {
        match kind {
            ReplacementKind::Lru => Replacement::Lru(vec![0; ways]),
            ReplacementKind::TreePlru => Replacement::TreePlru {
                bits: 0,
                leaves: ways.next_power_of_two(),
            },
            ReplacementKind::Random => Replacement::Random,
        }
    }

    fn touch(&mut self, way: usize, tick: u64) {
        match self {
            Replacement::Lru(last_touch) => last_touch[way] = tick,
            Replacement::TreePlru { bits, leaves } => {
                let mut node = 1usize;
                let mut lo = 0usize;
                let mut hi = *leaves;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if way < mid {
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
            Replacement::Random => {}
        }
    }

    fn victim(&mut self, allowed: u64, valid: u64, ways: usize, rng: &mut Rng64) -> Option<usize> {
        let way_mask = if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        };
        let allowed = allowed & way_mask;
        if allowed == 0 {
            return None;
        }
        let empty = allowed & !valid;
        if empty != 0 {
            return Some(empty.trailing_zeros() as usize);
        }
        match self {
            Replacement::Lru(last_touch) => {
                let mut best: Option<(usize, u64)> = None;
                for (w, &t) in last_touch.iter().enumerate() {
                    if (allowed >> w) & 1 == 1 {
                        match best {
                            Some((_, bt)) if bt <= t => {}
                            _ => best = Some((w, t)),
                        }
                    }
                }
                best.map(|(w, _)| w)
            }
            Replacement::TreePlru { bits, leaves } => {
                let mut node = 1usize;
                let mut lo = 0usize;
                let mut hi = *leaves;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let left = mask_range(lo, mid) & allowed;
                    let right = mask_range(mid, hi) & allowed;
                    let go_right = if right == 0 {
                        false
                    } else if left == 0 {
                        true
                    } else {
                        (*bits >> node) & 1 == 1
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
                    Some(lo)
                } else {
                    Some(allowed.trailing_zeros() as usize)
                }
            }
            Replacement::Random => {
                let pick = rng.next_below(allowed.count_ones() as u64);
                let mut seen = 0;
                for w in 0..ways {
                    if (allowed >> w) & 1 == 1 {
                        if seen == pick {
                            return Some(w);
                        }
                        seen += 1;
                    }
                }
                unreachable!("popcount accounting")
            }
        }
    }
}

fn mask_range(lo: usize, hi: usize) -> u64 {
    let hi_mask = if hi == 64 { u64::MAX } else { (1u64 << hi) - 1 };
    let lo_mask = if lo == 64 { u64::MAX } else { (1u64 << lo) - 1 };
    hi_mask & !lo_mask
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    owner: WorkloadId,
    valid: bool,
    dirty: bool,
}

const INVALID_LINE: Line = Line {
    tag: 0,
    owner: 0,
    valid: false,
    dirty: false,
};

/// Reference cache level.
pub struct RefCacheLevel {
    geometry: CacheGeometry,
    mapper: AddressMapper,
    lines: Vec<Line>,
    repl: Vec<Replacement>,
    valid_bits: Vec<u64>,
    tick: u64,
    occupancy: HashMap<WorkloadId, u64>,
    rng: Rng64,
}

impl RefCacheLevel {
    pub fn new(geometry: CacheGeometry, kind: ReplacementKind, seed: u64) -> Self {
        let sets = geometry.sets();
        let ways = geometry.ways;
        RefCacheLevel {
            geometry,
            mapper: AddressMapper::new(geometry.line_size, sets),
            lines: vec![INVALID_LINE; sets * ways],
            repl: (0..sets).map(|_| Replacement::new(kind, ways)).collect(),
            valid_bits: vec![0; sets],
            tick: 0,
            occupancy: HashMap::new(),
            rng: Rng64::new(seed),
        }
    }

    pub fn lookup(&mut self, addr: Address, fill_mask: u64) -> AccessOutcome {
        let set = self.mapper.set(addr);
        let tag = self.mapper.tag(addr);
        let ways = self.geometry.ways;
        self.tick += 1;
        for w in 0..ways {
            let line = &self.lines[set * ways + w];
            if line.valid && line.tag == tag {
                self.repl[set].touch(w, self.tick);
                return AccessOutcome::Hit {
                    way: w,
                    foreign_way: (fill_mask >> w) & 1 == 0,
                };
            }
        }
        AccessOutcome::Miss
    }

    pub fn mark_dirty(&mut self, addr: Address) -> bool {
        let set = self.mapper.set(addr);
        let tag = self.mapper.tag(addr);
        let ways = self.geometry.ways;
        for w in 0..ways {
            let line = &mut self.lines[set * ways + w];
            if line.valid && line.tag == tag {
                line.dirty = true;
                return true;
            }
        }
        false
    }

    fn release(&mut self, owner: WorkloadId) {
        let n = self.occupancy.get(&owner).copied().unwrap_or(0);
        self.occupancy.insert(owner, n.saturating_sub(1));
    }

    pub fn fill(
        &mut self,
        addr: Address,
        owner: WorkloadId,
        fill_mask: u64,
        dirty: bool,
    ) -> Result<Option<Evicted>, ()> {
        let set = self.mapper.set(addr);
        let tag = self.mapper.tag(addr);
        let ways = self.geometry.ways;
        self.tick += 1;
        let way = self.repl[set]
            .victim(fill_mask, self.valid_bits[set], ways, &mut self.rng)
            .ok_or(())?;
        let slot = self.lines[set * ways + way];
        let evicted = if slot.valid {
            self.release(slot.owner);
            Some(Evicted {
                owner: slot.owner,
                dirty: slot.dirty,
                addr: self.mapper.compose(slot.tag, set),
            })
        } else {
            None
        };
        self.lines[set * ways + way] = Line {
            tag,
            owner,
            valid: true,
            dirty,
        };
        self.valid_bits[set] |= 1 << way;
        *self.occupancy.entry(owner).or_insert(0) += 1;
        self.repl[set].touch(way, self.tick);
        Ok(evicted)
    }

    pub fn invalidate(&mut self, addr: Address) -> bool {
        let set = self.mapper.set(addr);
        let tag = self.mapper.tag(addr);
        let ways = self.geometry.ways;
        for w in 0..ways {
            let line = self.lines[set * ways + w];
            if line.valid && line.tag == tag {
                self.lines[set * ways + w].valid = false;
                self.valid_bits[set] &= !(1 << w);
                self.release(line.owner);
                return true;
            }
        }
        false
    }

    pub fn occupancy_of(&self, workload: WorkloadId) -> u64 {
        self.occupancy.get(&workload).copied().unwrap_or(0)
    }

    pub fn total_occupancy(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }

    pub fn flush_workload(&mut self, workload: WorkloadId) {
        let ways = self.geometry.ways;
        for (i, line) in self.lines.iter_mut().enumerate() {
            if line.valid && line.owner == workload {
                line.valid = false;
                self.valid_bits[i / ways] &= !(1 << (i % ways));
            }
        }
        self.occupancy.insert(workload, 0);
    }
}

struct Privates {
    l1d: RefCacheLevel,
    l1i: RefCacheLevel,
    l2: RefCacheLevel,
}

/// Reference hierarchy: the same walk as `Hierarchy::access`, written with
/// a counter lookup per bump and a mask lookup per access.
pub struct RefHierarchy {
    config: HierarchyConfig,
    llc: RefCacheLevel,
    privates: HashMap<WorkloadId, Privates>,
    fill_masks: HashMap<WorkloadId, u64>,
    counters: CounterBank,
    mask_mode: MaskMode,
    seed: u64,
}

impl RefHierarchy {
    pub fn new(config: HierarchyConfig, seed: u64) -> Self {
        RefHierarchy {
            config,
            llc: RefCacheLevel::new(config.llc, ReplacementKind::Lru, seed ^ 0x11c),
            privates: HashMap::new(),
            fill_masks: HashMap::new(),
            counters: CounterBank::new(),
            mask_mode: MaskMode::FillOnly,
            seed,
        }
    }

    pub fn set_mask_mode(&mut self, mode: MaskMode) {
        self.mask_mode = mode;
    }

    pub fn set_llc_mask(&mut self, w: WorkloadId, mask: CapacityBitmask) {
        self.fill_masks.insert(w, mask.bits());
    }

    pub fn llc_mask_bits(&self, w: WorkloadId) -> u64 {
        let ways = self.config.llc.ways;
        let full = if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        };
        self.fill_masks.get(&w).copied().unwrap_or(full)
    }

    fn privates_of(&mut self, w: WorkloadId) -> &mut Privates {
        let (config, kind, seed) = (self.config, ReplacementKind::Lru, self.seed);
        self.privates.entry(w).or_insert_with(|| {
            let salt = seed ^ ((w as u64) << 8);
            Privates {
                l1d: RefCacheLevel::new(config.l1d, kind, salt | 1),
                l1i: RefCacheLevel::new(config.l1i, kind, salt | 2),
                l2: RefCacheLevel::new(config.l2, kind, salt | 3),
            }
        })
    }

    fn bump(&mut self, w: WorkloadId, c: Counter) {
        self.counters.of_mut(w).bump(c);
    }

    pub fn access(&mut self, w: WorkloadId, addr: Address, kind: AccessKind) -> LevelHit {
        let llc_mask = self.llc_mask_bits(w);
        let lat = self.config.latencies;
        let is_store = kind == AccessKind::Store;
        let (access, miss) = match kind {
            AccessKind::Load => (Counter::L1dLoads, Counter::L1dLoadMisses),
            AccessKind::Store => (Counter::L1dStores, Counter::L1dStoreMisses),
            AccessKind::IFetch => (Counter::L1iFetches, Counter::L1iFetchMisses),
        };
        let p = self.privates_of(w);
        let l1 = if kind == AccessKind::IFetch {
            &mut p.l1i
        } else {
            &mut p.l1d
        };
        let l1_outcome = l1.lookup(addr, u64::MAX);
        self.bump(w, access);
        if let AccessOutcome::Hit { .. } = l1_outcome {
            self.counters.of_mut(w).add(Counter::Cycles, lat.l1);
            if is_store {
                self.llc.mark_dirty(addr);
            }
            return LevelHit::L1;
        }
        self.bump(w, miss);

        let l2_outcome = self.privates_of(w).l2.lookup(addr, u64::MAX);
        self.bump(w, Counter::L2Requests);
        self.bump(
            w,
            if is_store {
                Counter::L2Stores
            } else {
                Counter::L2Loads
            },
        );
        if let AccessOutcome::Hit { .. } = l2_outcome {
            self.fill_l1(w, addr, kind);
            self.counters.of_mut(w).add(Counter::Cycles, lat.l2);
            if is_store {
                self.llc.mark_dirty(addr);
            }
            return LevelHit::L2;
        }
        self.bump(
            w,
            if is_store {
                Counter::L2StoreMisses
            } else {
                Counter::L2LoadMisses
            },
        );

        let mut llc_outcome = self.llc.lookup(addr, llc_mask);
        self.bump(w, Counter::LlcAccesses);
        self.bump(
            w,
            if is_store {
                Counter::LlcStores
            } else {
                Counter::LlcLoads
            },
        );
        if let AccessOutcome::Hit {
            foreign_way: true, ..
        } = llc_outcome
        {
            if self.mask_mode == MaskMode::Strict {
                self.llc.invalidate(addr);
                llc_outcome = AccessOutcome::Miss;
            }
        }
        if let AccessOutcome::Hit { foreign_way, .. } = llc_outcome {
            if foreign_way {
                self.bump(w, Counter::LlcForeignWayHits);
            }
            if is_store {
                self.llc.mark_dirty(addr);
            }
            self.fill_l2(w, addr);
            self.fill_l1(w, addr, kind);
            self.counters.of_mut(w).add(Counter::Cycles, lat.llc);
            return LevelHit::Llc;
        }
        self.bump(w, Counter::LlcMisses);
        self.bump(
            w,
            if is_store {
                Counter::LlcStoreMisses
            } else {
                Counter::LlcLoadMisses
            },
        );
        self.bump(w, Counter::MemReads);
        if let Ok(evicted) = self.llc.fill(addr, w, llc_mask, is_store) {
            self.bump(w, Counter::LlcFills);
            if let Some(ev) = evicted {
                if ev.dirty {
                    self.bump(w, Counter::MemWrites);
                }
                if ev.owner != w {
                    self.bump(w, Counter::LlcEvictionsCaused);
                    self.bump(ev.owner, Counter::LlcEvictionsSuffered);
                }
            }
        }
        self.fill_l2(w, addr);
        self.fill_l1(w, addr, kind);
        self.counters.of_mut(w).add(Counter::Cycles, lat.memory);
        LevelHit::Memory
    }

    fn fill_l1(&mut self, w: WorkloadId, addr: Address, kind: AccessKind) {
        let p = self.privates_of(w);
        let l1 = if kind == AccessKind::IFetch {
            &mut p.l1i
        } else {
            &mut p.l1d
        };
        let evicted = l1.fill(addr, w, u64::MAX, false).unwrap_or(None);
        if evicted.is_some() && kind != AccessKind::IFetch {
            self.bump(w, Counter::L1dEvictions);
        }
    }

    fn fill_l2(&mut self, w: WorkloadId, addr: Address) {
        let p = self.privates_of(w);
        if p.l2
            .fill(addr, w, u64::MAX, false)
            .unwrap_or(None)
            .is_some()
        {
            self.bump(w, Counter::L2Evictions);
        }
    }

    pub fn retire(&mut self, w: WorkloadId, instructions: u64, base_cycles: u64) {
        let c = self.counters.of_mut(w);
        c.add(Counter::Instructions, instructions);
        c.add(Counter::Cycles, base_cycles);
    }

    pub fn update_gauges(&mut self, w: WorkloadId, boost_active: bool) {
        let occ = self.llc.occupancy_of(w);
        let c = self.counters.of_mut(w);
        c.set(Counter::LlcOccupancyLines, occ);
        c.set(Counter::BoostActive, boost_active as u64);
    }

    pub fn counters_of(&self, w: WorkloadId) -> CounterSet {
        self.counters.of(w)
    }

    pub fn llc_occupancy(&self, w: WorkloadId) -> u64 {
        self.llc.occupancy_of(w)
    }

    pub fn remove_workload(&mut self, w: WorkloadId) {
        self.privates.remove(&w);
        self.llc.flush_workload(w);
        self.fill_masks.remove(&w);
    }
}
