//! Integration and property tests of the hybrid DRAM–PCM tier.
//!
//! Integration level: the disabled tier is bit-for-bit the plain run, an
//! enabled tier is repeat-identical and actually hits, and the drift-age
//! resets from dirty demotions pull the LWT escalation rate down.
//!
//! Property level (on the in-repo `prop_harness`): random access
//! sequences against a `TieredDevice` over an instrumented inner device
//! pin the cache invariants — no duplicate residency, the capacity
//! bound, and "every dirty line is written back exactly once, through
//! the inner write path, and never while still clean".

mod prop_harness;

use prop_harness::{check, ensure, ensure_eq};
use readduo::core::{DeviceSpec, SchemeKind, WearConfig};
use readduo::dram::{DramConfig, EvictPolicy, TieredDevice};
use readduo::memsim::{
    DeviceModel, MemoryConfig, ReadMode, ReadOutcome, ScrubOutcome, WriteOutcome,
};
use readduo::trace::Workload;
use readduo_bench::{Harness, MatrixSource};
use readduo_pool::Pool;
use readduo_rng::Rng as _;

fn harness() -> Harness {
    Harness {
        instructions_per_core: 60_000,
        cores: 2,
        seed: 0x00D5_EAD0_2016,
        memory: MemoryConfig::small_test(),
    }
}

/// Tiered spec: the DRAM tier `dram` in front of `spec`'s device.
fn with_tier(spec: DeviceSpec, dram: DramConfig) -> DeviceSpec {
    DeviceSpec { dram: Some(dram), ..spec }
}

/// Disabled tier (zero capacity) == plain run, bit for bit, for every
/// scheme shape — and over a faulty, worn device too. This is the same
/// discipline the fault and wear subsystems obey: off means *absent*,
/// not "present but idle".
#[test]
fn zero_capacity_tier_is_bit_for_bit_the_plain_run() {
    let harness = harness();
    let off = DramConfig { lines: 0, ..DramConfig::new(harness.seed, 1) };
    let wear = WearConfig::new(0x00FA_0017).with_accel(4_000_000);
    let worn = |scheme: SchemeKind| DeviceSpec {
        faults: Some(0x00FA_0017),
        wear: Some(wear),
        ..scheme.into()
    };
    let gcc = Workload::by_name("gcc").expect("gcc");
    let mcf = Workload::by_name("mcf").expect("mcf");
    let mut cases: Vec<(Workload, DeviceSpec)> = Vec::new();
    for scheme in [SchemeKind::Ideal, SchemeKind::Scrubbing, SchemeKind::Lwt { k: 4 }] {
        cases.push((Workload::toy(), scheme.into()));
        cases.push((gcc.clone(), scheme.into()));
    }
    cases.push((mcf.clone(), worn(SchemeKind::Scrubbing)));
    cases.push((mcf.clone(), worn(SchemeKind::Lwt { k: 4 })));
    let mut worn_remaps = 0;
    for (w, spec) in cases {
        let plain = harness.run_one(&w, &spec).expect("valid spec");
        let tiered = harness.run_one(&w, &with_tier(spec, off)).expect("valid spec");
        assert_eq!(
            plain.report, tiered.report,
            "zero-capacity tier perturbed {}/{spec:?}",
            w.name
        );
        assert_eq!(tiered.report.dram_hits + tiered.report.dram_misses, 0);
        worn_remaps += tiered.report.lines_remapped;
    }
    assert!(worn_remaps > 0, "the faulty + worn legs must actually remap lines");
}

/// Seeded tiered runs are repeat-identical, every demand access is
/// classified hit-or-miss, and the tier actually hits at this capacity.
#[test]
fn tiered_runs_are_deterministic_and_account_every_access() {
    let harness = harness();
    let dram = DramConfig::new(harness.seed, 2_048).with_threshold(1);
    for scheme in [SchemeKind::Lwt { k: 4 }, SchemeKind::Scrubbing] {
        let w = Workload::by_name("gcc").expect("gcc");
        let a = harness.run_one(&w, &with_tier(scheme.into(), dram)).expect("valid spec");
        let b = harness.run_one(&w, &with_tier(scheme.into(), dram)).expect("valid spec");
        assert_eq!(a.report, b.report, "tiered {scheme} run not repeat-identical");
        assert!(a.report.dram_hits > 0, "{scheme}: tier never hit");
        assert!(a.report.dram_misses > 0, "{scheme}: tier never missed");
        // Every demand read and every accepted demand write is classified
        // exactly once; scrubs and prefetches are not demand accesses.
        assert_eq!(
            a.report.dram_hits + a.report.dram_misses,
            a.report.reads + a.report.writes,
            "{scheme}: hit/miss classification must cover exactly the demand accesses"
        );
        assert!(
            a.report.dram_demotions >= a.report.dram_writebacks,
            "clean demotions cannot be fewer than dirty ones"
        );
    }
}

/// The headline physics claim: dirty demotions re-program their PCM line
/// through the normal scheme write path, resetting drift age — so a
/// tiered LWT run escalates to RM-reads less often than the bare run,
/// and absorbs PCM write traffic, without any silent corruption.
#[test]
fn dram_tier_reduces_lwt_escalation_and_write_traffic() {
    let harness = harness();
    let scheme = SchemeKind::Lwt { k: 4 };
    let w = Workload::by_name("bzip2").expect("bzip2");
    let base = harness.run_one(&w, &scheme.into()).expect("valid spec");
    let dram = DramConfig::new(harness.seed, 8_192).with_threshold(1);
    let tiered = harness.run_one(&w, &with_tier(scheme.into(), dram)).expect("valid spec");
    assert_eq!(tiered.report.silent_corruptions, 0);
    assert!(
        tiered.report.rm_read_rate() < base.report.rm_read_rate(),
        "drift-age resets must lower the escalation rate: tiered {:.5} vs base {:.5}",
        tiered.report.rm_read_rate(),
        base.report.rm_read_rate()
    );
    assert!(
        tiered.report.cells_written_total() < base.report.cells_written_total(),
        "write absorption must beat demotion traffic: tiered {} vs base {} cells",
        tiered.report.cells_written_total(),
        base.report.cells_written_total()
    );
}

/// A bigger tier holds more of the working set: at a fixed migration
/// threshold the hit rate never falls as capacity grows, and the largest
/// tier hits strictly more often than the smallest.
#[test]
fn dram_hit_rate_grows_with_capacity() {
    let harness = harness();
    let w = Workload::by_name("mcf").expect("mcf");
    let specs: Vec<DeviceSpec> = [64, 256, 1_024]
        .map(|lines| DramConfig::new(harness.seed, lines).with_threshold(1))
        .map(|dram| with_tier(SchemeKind::Lwt { k: 4 }.into(), dram))
        .to_vec();
    let runs = harness
        .run_matrix(&Pool::new(1), &specs, &[w], MatrixSource::Materialised)
        .expect("valid specs");
    let hit_rates: Vec<f64> = runs.iter().map(|r| r.report.dram_hit_rate()).collect();
    assert!(
        hit_rates.windows(2).all(|p| p[1] >= p[0]) && hit_rates[2] > hit_rates[0],
        "hit rate must grow with DRAM capacity: {hit_rates:?}"
    );
}

/// Inner device that remembers every line the tier writes through to it
/// — the probe for the dirty-writeback properties.
struct RecordingDevice {
    writes: Vec<u64>,
    reads: u64,
}

impl RecordingDevice {
    fn new() -> Self {
        Self { writes: Vec::new(), reads: 0 }
    }
}

impl DeviceModel for RecordingDevice {
    fn on_read(&mut self, _line: u64, _now_s: f64) -> ReadOutcome {
        self.reads += 1;
        ReadOutcome::basic(150, ReadMode::RRead, 20.0)
    }

    fn on_write(&mut self, line: u64, _now_s: f64) -> WriteOutcome {
        self.writes.push(line);
        WriteOutcome::basic(1_000, 296, 0, 500.0)
    }

    fn on_scrub(&mut self, _line: u64, _now_s: f64) -> ScrubOutcome {
        ScrubOutcome { read_latency_ns: 150, read_energy_pj: 20.0, rewrite: None }
    }

    fn scrub_interval_s(&self) -> Option<f64> {
        None
    }
}

/// One random access-sequence case: cache geometry (capacity, ways),
/// policy (threshold, clock?), and a list of (is_write, line) ops.
type CacheCase = ((u64, usize), (u32, bool), Vec<(bool, u64)>);

fn gen_cache_case(rng: &mut readduo_rng::rngs::StdRng) -> CacheCase {
    let lines = rng.gen_range(1u64..=64);
    let ways = rng.gen_range(1usize..=8);
    let threshold = rng.gen_range(1u32..=3);
    let clock = rng.gen_range(0u32..2) == 1;
    let nops = rng.gen_range(1usize..=400);
    let span = rng.gen_range(4u64..=256);
    let ops = (0..nops)
        .map(|_| (rng.gen_range(0u32..3) == 0, rng.gen_range(0..span)))
        .collect();
    ((lines, ways), (threshold, clock), ops)
}

/// Residency invariants under arbitrary churn: a line is resident in at
/// most one slot, occupancy never exceeds capacity, and the occupancy
/// counter in `DramStats` agrees with the tag store.
#[test]
fn prop_no_duplicate_residency_and_capacity_bound() {
    check(
        "prop_no_duplicate_residency_and_capacity_bound",
        gen_cache_case,
        |((lines, ways), (threshold, clock), ops)| {
            let policy = if *clock { EvictPolicy::Clock } else { EvictPolicy::Lru };
            let cfg = DramConfig::new(0x00D1_2A4D, *lines)
                .with_ways(*ways)
                .with_threshold(*threshold)
                .with_policy(policy);
            let mut tier = TieredDevice::new(RecordingDevice::new(), cfg);
            for (i, &(is_write, line)) in ops.iter().enumerate() {
                let now = i as f64;
                if is_write {
                    tier.on_write(line, now);
                } else {
                    tier.on_read(line, now);
                }
                let resident = tier.resident_lines();
                let mut dedup = resident.clone();
                dedup.dedup();
                ensure_eq!(dedup, resident); // sorted => dups are adjacent
                ensure!(
                    resident.len() as u64 <= tier.capacity_lines(),
                    "{} resident of {} capacity",
                    resident.len(),
                    tier.capacity_lines()
                );
                ensure_eq!(tier.stats().resident, resident.len() as u64);
            }
            Ok(())
        },
    );
}

/// Dirty-writeback discipline: the tier reaches the inner write path
/// only as a below-threshold pass-through (the op's own line) or as a
/// dirty demotion (a line a previous write dirtied, written back exactly
/// once — it must be re-dirtied before it can be written back again).
/// Clean lines are never written back.
#[test]
fn prop_dirty_lines_write_back_exactly_once() {
    check(
        "prop_dirty_lines_write_back_exactly_once",
        gen_cache_case,
        |((lines, ways), (threshold, clock), ops)| {
            let policy = if *clock { EvictPolicy::Clock } else { EvictPolicy::Lru };
            let cfg = DramConfig::new(0x5EED, *lines)
                .with_ways(*ways)
                .with_threshold(*threshold)
                .with_policy(policy);
            let mut tier = TieredDevice::new(RecordingDevice::new(), cfg);
            let mut dirty: Vec<u64> = Vec::new(); // reference dirty-resident set
            let mut seen_writes = 0usize;
            let mut writebacks = 0u64;
            for (i, &(is_write, line)) in ops.iter().enumerate() {
                let now = i as f64;
                let t = if is_write {
                    let out = tier.on_write(line, now);
                    if out.tier.hit || out.tier.promotion {
                        // Absorbed in DRAM: the line is now dirty-resident.
                        if !dirty.contains(&line) {
                            dirty.push(line);
                        }
                    }
                    out.tier
                } else {
                    tier.on_read(line, now).tier
                };
                ensure!(t.tiered, "every access through the tier is classified");
                let inner_writes = &tier.inner().writes;
                if t.writeback {
                    writebacks += 1;
                    ensure_eq!(inner_writes.len(), seen_writes + 1);
                    let victim = inner_writes[seen_writes];
                    let at = dirty.iter().position(|&d| d == victim);
                    ensure!(
                        at.is_some(),
                        "writeback of {victim} which was not dirty-resident"
                    );
                    dirty.swap_remove(at.unwrap());
                    ensure!(t.demotion, "a writeback is always a demotion");
                    ensure!(t.writeback_cells > 0, "a writeback programs PCM cells");
                } else if is_write && !t.hit && !t.promotion {
                    // Below-threshold write miss: passed through verbatim.
                    ensure_eq!(inner_writes.len(), seen_writes + 1);
                    ensure_eq!(inner_writes[seen_writes], line);
                } else {
                    ensure_eq!(inner_writes.len(), seen_writes);
                }
                seen_writes = inner_writes.len();
                // A dirty line must still be resident until written back.
                let resident = tier.resident_lines();
                for &d in &dirty {
                    ensure!(
                        resident.binary_search(&d).is_ok(),
                        "dirty line {d} left the cache without a writeback"
                    );
                }
            }
            ensure_eq!(tier.stats().writebacks, writebacks);
            Ok(())
        },
    );
}
