//! Kernel timings of the fault-injected read path: the scalar BCH decode
//! of a 64-codeword fault-shaped batch and one full-line fault sample at
//! two ages. Prints the median per-call time of each to stdout.
//!
//! Absolute nanoseconds hold for one host only: compare two builds on the
//! same host, interleaved, and report the ratio.

use readduo_bench::handle_help;
use readduo_core::common::FULL_LINE_CELLS;
use readduo_ecc::{Bch, PatternOutcome};
use readduo_pcm::{FaultModel, LineFaults};
use readduo_rng::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// Timed samples per kernel; the median is what gets printed.
const SAMPLES: usize = 21;

/// Wall time one timed batch aims for: long enough that `Instant`'s own
/// overhead is noise.
const TARGET_BATCH_NS: u128 = 200_000;

/// Median per-call nanoseconds of `routine`: the batch size doubles until
/// one batch takes [`TARGET_BATCH_NS`], then [`SAMPLES`] batches are timed.
fn median_ns<T>(mut routine: impl FnMut() -> T) -> f64 {
    let mut batch = 1u32;
    let mut time_batch = |batch: u32| {
        let t = Instant::now();
        for _ in 0..batch {
            black_box(routine());
        }
        t.elapsed().as_nanos()
    };
    while time_batch(batch) < TARGET_BATCH_NS && batch < 1 << 22 {
        batch *= 2;
    }
    let mut per_call: Vec<f64> = (0..SAMPLES)
        .map(|_| time_batch(batch) as f64 / f64::from(batch))
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[SAMPLES / 2]
}

fn main() {
    handle_help(
        "kernels",
        "Median per-call time of the BCH decode and fault-sampler kernels",
    );

    // A fault-injection-shaped batch: mostly clean codewords, a few small
    // error patterns, in the ascending bit order the fault sampler emits.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let code = Bch::new(10, 8, 512);
    let patterns: Vec<Vec<u16>> = (0..64)
        .map(|i| {
            let weight = [0, 0, 0, 0, 0, 1, 2, 5][i % 8];
            let mut pat: Vec<u16> = Vec::new();
            while pat.len() < weight {
                let b = rng.gen_range(0..code.codeword_bits()) as u16;
                if !pat.contains(&b) {
                    pat.push(b);
                }
            }
            pat.sort_unstable();
            pat
        })
        .collect();
    let ns = median_ns(|| {
        patterns
            .iter()
            .filter(|p| matches!(code.decode_error_pattern(p), PatternOutcome::Corrected(_)))
            .count()
    });
    println!(
        "kernel/bch_decode_scalar_64cw  {ns:>10.0} ns  ({:.1} ns/codeword)",
        ns / 64.0
    );

    // One full line, the pattern every injected read samples, at the
    // scrub-interval age and deep into drift.
    let model = FaultModel::paper();
    let mut faults = LineFaults::default();
    for (name, age_s) in [
        ("kernel/fault_sample_line_640s", 640.0),
        ("kernel/fault_sample_line_1e5s", 1e5),
    ] {
        let mut rng = StdRng::seed_from_u64(0xFA17);
        let ns = median_ns(|| {
            model.sample_line_into(age_s, FULL_LINE_CELLS, &mut rng, &mut faults);
            faults.r_cells
        });
        println!("{name}  {ns:>10.0} ns");
    }
}
