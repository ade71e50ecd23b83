//! Property-based tests over the core data structures and invariants,
//! running on the in-repo harness (`prop_harness`, replacing `proptest`).
//!
//! Every property runs ≥ 64 seeded cases; a failure prints a
//! `READDUO_PROP_SEED=<seed>` line that replays exactly the failing input
//! (see README § Reproducing a property-test failure). Properties return
//! `Ok(())` for inputs outside their domain so the shrinker stays inside.

mod prop_harness;

use prop_harness::{check, ensure, ensure_eq, gen_bytes, gen_subset};
use readduo::core::LwtFlags;
use readduo::ecc::{Bch, BitVec, DecodeOutcome, GfField, PatternOutcome};
use readduo::math::{binomial, ln_choose, LogProb};
use readduo::memsim::{ChannelMerge, Topology};
use readduo::pcm::state::{bytes_to_cell_data, cell_data_to_bytes};
use readduo::pcm::{
    drift_exponent, log_metric_at, log_metric_at_slice, log_metric_at_u, WearModel,
};
use readduo::trace::{read_trace, write_trace, TraceGenerator, Workload};
use readduo_rng::{Rng as _, RngCore as _};

/// GF(2^10): field axioms on arbitrary nonzero elements.
#[test]
fn gf_axioms() {
    check(
        "gf_axioms",
        |rng| {
            (
                rng.gen_range(1u32..1024),
                rng.gen_range(1u32..1024),
                rng.gen_range(1u32..1024),
            )
        },
        |&(a, b, c)| {
            if [a, b, c].iter().any(|v| !(1..1024).contains(v)) {
                return Ok(());
            }
            let f = GfField::new(10);
            ensure_eq!(f.mul(a, b), f.mul(b, a));
            ensure_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
            ensure_eq!(f.mul(a, b ^ c), f.mul(a, b) ^ f.mul(a, c));
            ensure_eq!(f.mul(a, f.inv(a)), 1);
            ensure_eq!(f.div(f.mul(a, b), b), a);
            Ok(())
        },
    );
}

/// BCH-8 corrects any ≤8-bit error pattern and restores the data.
#[test]
fn bch_corrects_all_patterns_up_to_t() {
    check(
        "bch_corrects_all_patterns_up_to_t",
        |rng| (gen_bytes(rng, 64, 64), gen_subset(rng, 592, 0, 8)),
        |(data, positions)| {
            if data.len() != 64 || positions.len() > 8 {
                return Ok(());
            }
            let code = Bch::new(10, 8, 512);
            let clean = code.encode(data);
            let mut cw = clean.clone();
            for &p in positions {
                cw.flip(p);
            }
            let out = code.decode(&mut cw);
            if positions.is_empty() {
                ensure_eq!(out, DecodeOutcome::Clean);
            } else {
                ensure_eq!(out, DecodeOutcome::Corrected(positions.len()));
            }
            ensure_eq!(code.extract_data(&clean), *data);
            ensure_eq!(cw, clean);
            Ok(())
        },
    );
}

/// Patterns of 9..=16 errors are detected, never silently corrupted.
#[test]
fn bch_detects_beyond_t() {
    check(
        "bch_detects_beyond_t",
        |rng| (gen_bytes(rng, 64, 64), gen_subset(rng, 592, 9, 16)),
        |(data, positions)| {
            if data.len() != 64 || !(9..=16).contains(&positions.len()) {
                return Ok(());
            }
            let code = Bch::new(10, 8, 512);
            let mut cw = code.encode(data);
            for &p in positions {
                cw.flip(p);
            }
            let before = cw.clone();
            ensure_eq!(code.decode(&mut cw), DecodeOutcome::Detected);
            ensure_eq!(cw, before);
            Ok(())
        },
    );
}

/// Weight-≤t patterns take the BCH-bound shortcut in
/// `decode_error_pattern`; it must agree with a full decode of the
/// materialised word, for every weight 1..=t.
#[test]
fn bch_pattern_shortcut_matches_full_decode() {
    check(
        "bch_pattern_shortcut_matches_full_decode",
        |rng| gen_subset(rng, 592, 1, 8),
        |positions| {
            if positions.is_empty() || positions.len() > 8 {
                return Ok(());
            }
            let code = Bch::new(10, 8, 512);
            let pattern = to_u16(positions.iter().copied());
            let mut cw = BitVec::zeros(code.codeword_bits());
            for &p in positions {
                cw.flip(p);
            }
            ensure_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(positions.len()));
            ensure_eq!(cw.count_ones(), 0);
            ensure_eq!(code.decode_error_pattern(&pattern), PatternOutcome::Corrected(positions.len()));
            Ok(())
        },
    );
    // And every weight explicitly, so no weight rests on the generator.
    let code = Bch::new(10, 8, 512);
    for w in 1..=8u16 {
        let pattern: Vec<u16> = (0..w).map(|i| i * 73 + 5).collect();
        let mut cw = BitVec::zeros(code.codeword_bits());
        for &p in &pattern {
            cw.flip(p as usize);
        }
        assert_eq!(code.decode(&mut cw), DecodeOutcome::Corrected(w as usize));
        assert_eq!(code.decode_error_pattern(&pattern), PatternOutcome::Corrected(w as usize));
    }
}

fn to_u16(positions: impl IntoIterator<Item = usize>) -> Vec<u16> {
    positions.into_iter().map(|p| p as u16).collect()
}

/// The wear scan `WearModel::weakest_cell` replaced: one exact (Newton)
/// quantile per live cell, lowest index on ties.
fn weakest_cell_full_scan(m: &WearModel, line: u64, g: u32, stuck: &[u16]) -> (u64, u32) {
    let mut best = (u64::MAX, 0u32);
    for cell in 0..296 {
        if stuck.binary_search(&(cell as u16)).is_ok() {
            continue;
        }
        let n = m.endurance_cycles(line, cell, g);
        if n < best.0 {
            best = (n, cell);
        }
    }
    best
}

/// The screened wear scan equals the full scan at medians 1e3/1e5/1e7,
/// generations 0–2, while the weakest cell dies again and again.
#[test]
fn wear_screened_scan_matches_full_scan() {
    check(
        "wear_screened_scan_matches_full_scan",
        |rng| (rng.next_u64(), rng.gen_range(0u8..3), rng.next_u64(), rng.gen_range(0u8..=12)),
        |&(seed, median, line, kills)| {
            let median = [1_000, 100_000, 10_000_000][usize::from(median % 3)];
            let m = WearModel::new(seed, median);
            for g in 0..=2 {
                let mut stuck: Vec<u16> = Vec::new();
                for _ in 0..=kills {
                    let want = weakest_cell_full_scan(&m, line, g, &stuck);
                    ensure_eq!(m.weakest_cell(line, g, 296, &stuck), want);
                    let at = stuck.partition_point(|&c| u32::from(c) < want.1);
                    stuck.insert(at, want.1 as u16);
                }
            }
            Ok(())
        },
    );
}

/// Integer-floor ties are real: at seed 0, median 1000, line 18,
/// generation 0, cells 37 and 291 both last 336 cycles. The scan keeps
/// the lower index; a screen on a fixed `z` window would pick 291.
#[test]
fn wear_scan_integer_tie_regression() {
    let m = WearModel::new(0, 1000);
    assert_eq!(m.endurance_cycles(18, 291, 0), 336);
    assert_eq!(weakest_cell_full_scan(&m, 18, 0, &[]), (336, 37));
    assert_eq!(m.weakest_cell(18, 0, 296, &[]), (336, 37));
}

/// Binomial tail is monotone and bounded by the union bound.
#[test]
fn binomial_tail_bounds() {
    check(
        "binomial_tail_bounds",
        |rng| {
            (
                rng.gen_range(1u64..600),
                rng.gen_range(0.0f64..0.01),
                rng.gen_range(1u64..20),
            )
        },
        |&(n, p, k)| {
            if !(1..600).contains(&n) || !(0.0..0.01).contains(&p) || !(1..20).contains(&k) {
                return Ok(());
            }
            let tail = binomial::tail_ge(n, p, k);
            ensure!((0.0..=1.0).contains(&tail), "tail {tail} outside [0,1]");
            // Union bound: P(X >= k) <= C(n,k) p^k.
            if p > 0.0 && k <= n {
                let ub = (ln_choose(n, k) + k as f64 * p.ln()).exp();
                ensure!(
                    tail <= ub * (1.0 + 1e-9) + 1e-300,
                    "tail {tail} above union bound {ub}"
                );
            }
            // Monotonicity in k.
            ensure!(
                binomial::tail_ge(n, p, k + 1) <= tail + 1e-15,
                "tail not monotone in k at n={n} p={p} k={k}"
            );
            Ok(())
        },
    );
}

/// LogProb complement round-trips within tolerance in the mid-range.
#[test]
fn logprob_complement() {
    check(
        "logprob_complement",
        |rng| rng.gen_range(1e-6f64..0.999_999),
        |&p| {
            if !(1e-6..0.999_999).contains(&p) {
                return Ok(());
            }
            let lp = LogProb::from_prob(p);
            let back = lp.complement().complement().to_prob();
            ensure!((back - p).abs() < 1e-9, "round-trip {p} -> {back}");
            Ok(())
        },
    );
}

/// Byte ↔ cell-data conversion round-trips for any payload.
#[test]
fn cell_packing_round_trips() {
    check(
        "cell_packing_round_trips",
        |rng| gen_bytes(rng, 0, 127),
        |data| {
            let cells = bytes_to_cell_data(data);
            ensure_eq!(cells.len(), data.len() * 4);
            ensure_eq!(cell_data_to_bytes(&cells), *data);
            Ok(())
        },
    );
}

/// BitVec ones() agrees with per-bit reads.
#[test]
fn bitvec_ones_consistent() {
    check(
        "bitvec_ones_consistent",
        |rng| gen_subset(rng, 500, 0, 39),
        |bits| {
            let mut v = BitVec::zeros(500);
            for &b in bits {
                v.set(b, true);
            }
            ensure_eq!(v.ones(), bits.iter().copied().collect::<Vec<_>>());
            ensure_eq!(v.count_ones(), bits.len());
            Ok(())
        },
    );
}

/// The LWT-flag safety property, shared by the random-case property and the
/// pinned regression case below: replay any op sequence against ground
/// truth — R allowed ⇒ the last write is within one scrub interval.
fn lwt_flags_safety_prop(ops: &[(u8, f64)]) -> Result<(), String> {
    if ops.is_empty() || ops.iter().any(|&(op, dt)| op >= 3 || !(0.0..0.5).contains(&dt)) {
        return Ok(());
    }
    for k in [2u8, 4, 8] {
        let mut f = LwtFlags::new(k);
        let s_len = 1.0;
        let mut now = 0.0f64;
        let mut last_write = f64::NEG_INFINITY;
        let mut last_scrub = 0.0f64;
        for &(op, dt) in ops {
            now += dt;
            while now - last_scrub >= k as f64 * s_len {
                last_scrub += k as f64 * s_len;
                f.on_scrub(false);
            }
            let sub = (((now - last_scrub) / s_len) as u8).min(k - 1);
            if op == 0 {
                f.on_write(sub);
                last_write = now;
            } else if f.read_allows_r(sub) && now - last_write > k as f64 * s_len + 1e-9 {
                return Err(format!("k={} R allowed at age {}", k, now - last_write));
            }
        }
    }
    Ok(())
}

/// LWT flag safety over random op sequences.
#[test]
fn lwt_flags_safety() {
    check(
        "lwt_flags_safety",
        |rng| {
            let len = rng.gen_range(1usize..=79);
            (0..len)
                .map(|_| (rng.gen_range(0u8..3), rng.gen_range(0.0f64..0.5)))
                .collect::<Vec<_>>()
        },
        |ops| lwt_flags_safety_prop(ops),
    );
}

/// Regression case cc b2cf3c1f (from the retired
/// `tests/proptests.proptest-regressions`): a long burst of writes whose
/// timestamps straddle a scrub boundary, followed by reads — the pattern
/// that once let a stale flag survive the scrub.
#[test]
fn lwt_flags_safety_regression_b2cf3c1f() {
    let ops: Vec<(u8, f64)> = vec![
        (0, 0.3947538264379814),
        (0, 0.48751012065678373),
        (0, 0.40981034828869795),
        (0, 0.2995417221605503),
        (0, 0.09134815778152308),
        (0, 0.4363682083537715),
        (0, 0.4263829786348656),
        (0, 0.4640976361829309),
        (0, 0.34880520364353806),
        (0, 0.32581659319327305),
        (0, 0.4641018554403862),
        (0, 0.22965626196361133),
        (0, 0.40796001606509386),
        (0, 0.3129958785727388),
        (0, 0.2092185219202652),
        (0, 0.44924386823809564),
        (0, 0.3932798375585406),
        (0, 0.18131113594256373),
        (0, 0.4594243050057818),
        (0, 0.3251214899930796),
        (0, 0.11036746582274844),
        (0, 0.48481295582556194),
        (0, 0.026561644968392636),
        (0, 0.1768765003065098),
        (0, 0.06888761789490826),
        (0, 0.14623522039291043),
        (0, 0.4385122682931762),
        (0, 0.45022997436871925),
        (1, 0.48573678310745905),
        (1, 0.47908870280615845),
        (1, 0.31707519272722506),
        (1, 0.3063272057319298),
        (1, 0.39786727545192424),
        (1, 0.48485397355227466),
        (1, 0.4646740937180242),
        (1, 0.22554511247324466),
        (1, 0.1550355201107649),
        (1, 0.23048674579448336),
        (1, 0.12296229657323753),
        (1, 0.187538551880757),
        (1, 0.178585849031391),
    ];
    lwt_flags_safety_prop(&ops).expect("pinned regression case must pass");
}

/// Streaming generation is chunk-size invariant: any refill granularity
/// collects to exactly the trace `generate()` materialises.
#[test]
fn trace_stream_chunk_invariant() {
    check(
        "trace_stream_chunk_invariant",
        |rng| {
            (
                rng.gen::<u64>(),
                rng.gen_range(1_000u64..10_000),
                rng.gen_range(1usize..=512),
            )
        },
        |&(seed, instr, chunk)| {
            if !(1_000..10_000).contains(&instr) || !(1..=512).contains(&chunk) {
                return Ok(());
            }
            let gen = TraceGenerator::new(seed);
            let w = Workload::toy();
            let materialised = gen.generate(&w, instr, 2);
            let collected = gen.stream(&w, instr, 2).with_chunk(chunk).collect_trace();
            ensure_eq!(collected, materialised);
            Ok(())
        },
    );
}

/// The address interleave of an arbitrary topology is bijective — every
/// line decomposes to a valid `(channel, rank, bank, local)` placement,
/// recomposes to itself, and no two lines share a placement — and balanced:
/// enumerating any prefix `[0, L)` of the line space (uniform addresses)
/// loads every `(channel, bank)` pair within one line of every other.
#[test]
fn topology_interleave_bijective_and_balanced() {
    check(
        "topology_interleave_bijective_and_balanced",
        |rng| {
            (
                rng.gen_range(1usize..=8),
                rng.gen_range(1usize..=4),
                rng.gen_range(1usize..=8),
                rng.gen_range(1u64..=4000),
            )
        },
        |&(channels, ranks, banks_per_rank, lines)| {
            if channels == 0 || ranks == 0 || banks_per_rank == 0 || lines == 0 {
                return Ok(());
            }
            let t = Topology { channels, ranks, banks_per_rank };
            let mut counts = vec![0u64; t.total_banks()];
            let mut seen = std::collections::HashSet::new();
            for line in 0..lines {
                let a = t.decompose(line);
                ensure!(a.channel < channels, "channel {} out of range", a.channel);
                ensure!(a.rank < ranks, "rank {} out of range", a.rank);
                ensure!(a.bank < banks_per_rank, "bank {} out of range", a.bank);
                ensure_eq!(a.bank_in_channel, a.rank * banks_per_rank + a.bank);
                ensure_eq!(t.channel_of(line), a.channel);
                ensure_eq!(t.recompose(a.channel, a.bank_in_channel, a.local_line), line);
                ensure!(
                    seen.insert((a.channel, a.bank_in_channel, a.local_line)),
                    "two lines share placement {a:?}"
                );
                counts[a.channel * t.banks_per_channel() + a.bank_in_channel] += 1;
            }
            // Exactly balanced: the stripe cycles through all banks, so any
            // prefix loads banks within one line of each other (far inside
            // the 1% requirement for uniform address streams).
            let max = counts.iter().copied().max().unwrap_or(0);
            let min = counts.iter().copied().min().unwrap_or(0);
            ensure!(
                max - min <= 1,
                "bank load imbalance {max}-{min} over {lines} uniform lines"
            );
            Ok(())
        },
    );
}

/// `ChannelMerge` pops random event soups in exact `(at, channel, seq)`
/// order — verified against a `BinaryHeap` ordered by that key.
#[test]
fn channel_merge_matches_binary_heap_reference() {
    use std::cmp::Reverse;
    check(
        "channel_merge_matches_binary_heap_reference",
        |rng| {
            let channels = rng.gen_range(1usize..=5);
            let events: Vec<(usize, u64)> = (0..rng.gen_range(0usize..=200))
                .map(|_| (rng.gen_range(0..channels), rng.gen_range(0u64..50_000)))
                .collect();
            (channels, events)
        },
        |(channels, events)| {
            let channels = *channels;
            if channels == 0 || events.iter().any(|&(ch, _)| ch >= channels) {
                return Ok(());
            }
            let mut merge = ChannelMerge::new(channels);
            let mut heap = std::collections::BinaryHeap::new();
            let mut seq = vec![0u64; channels];
            for (i, &(ch, at)) in events.iter().enumerate() {
                merge.push(ch, at, i);
                heap.push(Reverse((at, ch, seq[ch], i)));
                seq[ch] += 1;
            }
            ensure_eq!(merge.pending(), events.len());
            let mut popped = Vec::new();
            while let Some((at, ch, kind)) = merge.pop() {
                popped.push((at, ch, kind));
            }
            let mut expected = Vec::new();
            while let Some(Reverse((at, ch, _seq, kind))) = heap.pop() {
                expected.push((at, ch, kind));
            }
            ensure_eq!(popped, expected);
            ensure_eq!(merge.pending(), 0);
            Ok(())
        },
    );
}

/// Hoisting the drift exponent is exact: for any line of cells,
/// `log_metric_at_slice` / `log_metric_at_u` over one shared
/// `drift_exponent(t, t0)` reproduce per-cell `log_metric_at` bit for bit.
#[test]
fn batched_drift_kernel_matches_scalar_bitwise() {
    check(
        "batched_drift_kernel_matches_scalar_bitwise",
        |rng| {
            let t0 = 10f64.powf(rng.gen_range(-9.0f64..0.0));
            // Both sides of the t <= t0 clamp, across ns..centuries.
            let t = 10f64.powf(rng.gen_range(-12.0f64..10.0));
            let cells: Vec<(f64, f64)> = (0..rng.gen_range(0usize..=296))
                .map(|_| (rng.gen_range(0.0f64..8.0), rng.gen_range(0.0f64..0.25)))
                .collect();
            (t, t0, cells)
        },
        |input| {
            let (t, t0, cells) = input;
            if !(*t0 > 0.0 && t.is_finite()) {
                return Ok(());
            }
            let u = drift_exponent(*t, *t0);
            let (x0s, alphas): (Vec<f64>, Vec<f64>) = cells.iter().copied().unzip();
            let mut out = vec![0.0; cells.len()];
            log_metric_at_slice(&x0s, &alphas, u, &mut out);
            for (i, &(x0, a)) in cells.iter().enumerate() {
                let scalar = log_metric_at(x0, a, *t, *t0);
                ensure!(
                    out[i].to_bits() == scalar.to_bits(),
                    "slot {i}: slice kernel {:e} != log_metric_at {scalar:e}",
                    out[i]
                );
                ensure!(
                    log_metric_at_u(x0, a, u).to_bits() == scalar.to_bits(),
                    "slot {i}: log_metric_at_u {:e} != log_metric_at {scalar:e}",
                    log_metric_at_u(x0, a, u)
                );
            }
            Ok(())
        },
    );
}

/// Trace serialisation round-trips for arbitrary generated traces.
#[test]
fn trace_format_round_trips() {
    check(
        "trace_format_round_trips",
        |rng| (rng.gen::<u64>(), rng.gen_range(1_000u64..20_000)),
        |&(seed, instr)| {
            if !(1_000..20_000).contains(&instr) {
                return Ok(());
            }
            let t = TraceGenerator::new(seed).generate(&Workload::toy(), instr, 2);
            let mut buf = Vec::new();
            write_trace(&t, &mut buf).map_err(|e| format!("write failed: {e}"))?;
            let back = read_trace(&buf[..]).map_err(|e| format!("read failed: {e}"))?;
            ensure_eq!(back, t);
            Ok(())
        },
    );
}
