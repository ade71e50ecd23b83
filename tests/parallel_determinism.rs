//! Tier-1 guarantee of the sweep executor: the parallel matrix produces
//! bit-for-bit the same `SimReport`s as the sequential one, and the
//! streamed matrix the same as the materialised one, for bare, worn and
//! tiered specs alike.
//!
//! All runs happen inside a single `#[test]` so the `READDUO_THREADS`
//! environment flips cannot race another test in this binary.
//!
//! `READDUO_CHANNELS` widens the topology (default 1), so the same gate
//! covers the sharded engine: with N channels every matrix cell fans its
//! channels out on the ambient pool, and the merged reports must still be
//! identical across thread counts.

use readduo::core::{DeviceSpec, SchemeKind};
use readduo::memsim::MemoryConfig;
use readduo::trace::Workload;
use readduo_bench::{Harness, MatrixSource, RunResult};
use readduo_pool::Pool;

#[test]
fn run_matrix_is_identical_across_thread_counts() {
    let channels = readduo_env::usize_at_least("READDUO_CHANNELS", 1).unwrap_or(1);
    let harness = Harness {
        instructions_per_core: 40_000,
        cores: 2,
        seed: 0x00D5_EAD0_2016,
        memory: MemoryConfig::small_test().with_channels(channels),
    };
    // Worn specs ride the same env flips: with hard faults and remapping
    // enabled the merged report must still be independent of the pool
    // width (the wear table is per-channel state like everything else).
    // Tiered specs too: the DRAM cache is per-channel state, so the merged
    // tiered report must also be independent of the pool width.
    let wear = readduo::core::WearConfig::new(0x00FA_0017).with_accel(4_000_000);
    let dram = readduo::dram::DramConfig::new(harness.seed, 1_024).with_threshold(1);
    let specs = [
        SchemeKind::Scrubbing.into(),
        SchemeKind::MMetric.into(),
        SchemeKind::Lwt { k: 4 }.into(),
        DeviceSpec {
            faults: Some(0x00FA_0017),
            wear: Some(wear),
            ..SchemeKind::Select { k: 4, s: 2 }.into()
        },
        DeviceSpec {
            dram: Some(dram),
            ..SchemeKind::Lwt { k: 4 }.into()
        },
    ];
    let workloads = [
        Workload::toy(),
        Workload::by_name("gcc").expect("gcc"),
        Workload::by_name("mcf").expect("mcf"),
    ];
    let matrix = |source| -> Vec<RunResult> {
        harness
            .run_matrix(&Pool::from_env(), &specs, &workloads, source)
            .expect("valid specs")
    };

    std::env::set_var("READDUO_THREADS", "4");
    let parallel = matrix(MatrixSource::Materialised);
    let streamed_par = matrix(MatrixSource::Streamed);
    std::env::set_var("READDUO_THREADS", "1");
    let sequential = matrix(MatrixSource::Materialised);
    let streamed_seq = matrix(MatrixSource::Streamed);
    std::env::remove_var("READDUO_THREADS");

    assert_eq!(parallel.len(), specs.len() * workloads.len());
    for other in [&sequential, &streamed_par, &streamed_seq] {
        assert_eq!(other.len(), parallel.len());
        for (p, o) in parallel.iter().zip(other) {
            assert_eq!(
                (p.workload, p.scheme),
                (o.workload, o.scheme),
                "matrix order must not depend on completion order"
            );
            assert_eq!(
                p.report, o.report,
                "report diverged for {} / {}",
                p.workload, p.scheme
            );
        }
    }
    // Workload-major, spec-minor order — exactly the old nested loop.
    assert_eq!(parallel[0].workload, "toy");
    assert_eq!(parallel[4].workload, "toy");
    assert_eq!(parallel[5].workload, "gcc");
    assert_eq!(parallel[0].scheme, SchemeKind::Scrubbing);
    assert_eq!(parallel[6].scheme, SchemeKind::MMetric);
    // The layered legs must actually exercise their layer.
    let mcf_worn = &parallel[2 * specs.len() + 3].report;
    assert!(mcf_worn.verify_retries > 0, "worn leg must wear cells out");
    let gcc_tiered = &parallel[specs.len() + 4].report;
    assert!(
        gcc_tiered.dram_hits > 0,
        "tiered leg must actually hit in DRAM"
    );
}
