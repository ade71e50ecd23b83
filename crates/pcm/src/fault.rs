//! Monte-Carlo fault model: samples which codeword bits a drifted line
//! actually gets wrong.
//!
//! The reliability crate answers "what is the *probability* a read fails"
//! in closed form; this module answers "which bits *did* fail on this
//! read" by drawing per-cell programmed values and drift coefficients
//! from the same Table I / Table II distributions and pushing them through
//! the same power-law drift and sensing references. The two must agree —
//! `tests/fault_validation.rs` and the `fault_mc` binary assert it — and
//! because they share [`MetricConfig`], [`log_metric_at`] and
//! [`sense_level`](MetricConfig::sense_level), any future parameter edit
//! moves both together.
//!
//! The R- and M-metric outcomes for one cell are sampled with *shared*
//! randomness: one standard-normal pair `(z, z_α)` drives both metrics,
//! reflecting that they are two readouts of the *same* physical cell
//! (`σ_M = σ_R`, `μ_{α,M} = μ_{α,R}/7`, so `α_M = α_R / 7` cell by cell).
//! A consequence worth testing: any cell that misreads under the M-metric
//! also misreads under the R-metric — escalation can only help.
//!
//! The programmed deviate `z` is an inverse-CDF draw, but the sampler
//! rarely computes it: it senses both ends of a closed-form bracket on
//! `z` ([`TruncatedNormal::sample_bracket`]) and, because the sensed level
//! is monotone in `z`, ends that agree decide the cell exactly. Only a
//! bracket straddling a reference pays for the Newton quantile
//! ([`TruncatedNormal::sample_at`]). The RNG is consumed exactly as a
//! per-cell `z_programmed.sample` would, so results are draw-for-draw
//! those of the Newton sampler, which the unit tests keep as the oracle.

use crate::drift::{drift_exponent, log_metric_at_u};
use crate::params::{MetricConfig, PROGRAM_WIDTH_SIGMAS};
use crate::state::CellLevel;
use readduo_math::{Normal, TruncatedNormal};
use readduo_rng::Rng;

/// How many sigmas of drift-coefficient tail the impossibility precheck
/// covers. Matches the integration range of the analytic cell-error model
/// (`readduo-reliability` integrates α over `μ_α ± 10σ_α`), so the fault
/// model and the closed form agree about which (age, level) pairs can
/// produce errors at all.
const ALPHA_TAIL_SIGMAS: f64 = 10.0;

/// Sampled read faults for one line, under both metrics.
///
/// Bit positions index the interleaved codeword layout used by
/// `readduo-ecc`: cell `i` stores codeword bits `2i` (its high data bit)
/// and `2i + 1` (its low bit). A single-level drift flips exactly one of
/// the two (the Table I encoding is Gray along the drift direction);
/// multi-level drifts may flip either or both.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LineFaults {
    /// Erroneous codeword bit positions under R-sensing, ascending.
    pub r_bits: Vec<u16>,
    /// Erroneous codeword bit positions under M-sensing, ascending.
    pub m_bits: Vec<u16>,
    /// Number of cells misread under R-sensing.
    pub r_cells: u32,
    /// Number of cells misread under M-sensing.
    pub m_cells: u32,
}

impl LineFaults {
    /// True when R-sensing reads the line back exactly.
    pub fn r_clean(&self) -> bool {
        self.r_bits.is_empty()
    }

    /// Cell indices (bit position / 2) misread under the M-metric.
    pub fn m_cell_indices(&self) -> Vec<u16> {
        dedup_cells(&self.m_bits)
    }

    /// Cell indices (bit position / 2) misread under the R-metric.
    pub fn r_cell_indices(&self) -> Vec<u16> {
        dedup_cells(&self.r_bits)
    }
}

fn dedup_cells(bits: &[u16]) -> Vec<u16> {
    let mut cells: Vec<u16> = bits.iter().map(|&b| b / 2).collect();
    cells.dedup();
    cells
}

/// Per-cell drift fault sampler for a whole line.
#[derive(Debug, Clone)]
pub struct FaultModel {
    r: MetricConfig,
    m: MetricConfig,
    /// Shared standard-normal programmed-value deviate, truncated to the
    /// program-and-verify window (`±2.746σ`).
    z_programmed: TruncatedNormal,
    z_alpha: Normal,
}

impl FaultModel {
    /// The paper's configuration: Table I R-metric, Table II M-metric.
    pub fn paper() -> Self {
        Self::new(MetricConfig::r_metric(), MetricConfig::m_metric())
    }

    /// A fault model over custom metric configurations.
    ///
    /// The two configurations must share `t0` — the sampler draws one
    /// drift clock per cell.
    ///
    /// # Panics
    ///
    /// Panics if the reference times differ.
    pub fn new(r: MetricConfig, m: MetricConfig) -> Self {
        assert!(
            (r.t0() - m.t0()).abs() < 1e-12,
            "R and M metrics must share t0 ({} vs {})",
            r.t0(),
            m.t0()
        );
        Self {
            r,
            m,
            z_programmed: TruncatedNormal::symmetric(Normal::standard(), PROGRAM_WIDTH_SIGMAS),
            z_alpha: Normal::standard(),
        }
    }

    /// The R-metric configuration being sampled.
    pub fn r_metric(&self) -> &MetricConfig {
        &self.r
    }

    /// The M-metric configuration being sampled.
    pub fn m_metric(&self) -> &MetricConfig {
        &self.m
    }

    /// Whether a cell programmed to `level` can possibly misread under
    /// `cfg` after drifting by the exponent `u = log10(t/t0)`, given the
    /// most adverse draws the model (and the analytic integration it is
    /// validated against) considers: the programmed value at the top of
    /// the verify window and the drift coefficient `10σ_α` above its mean.
    fn level_can_cross(cfg: &MetricConfig, level: CellLevel, u: f64) -> bool {
        let Some(boundary) = cfg.reference_above(level) else {
            return false; // top level: drift has nowhere to go
        };
        let lp = cfg.level(level);
        let x0_max = lp.mu + PROGRAM_WIDTH_SIGMAS * lp.sigma;
        let alpha_max = (lp.mu_alpha + ALPHA_TAIL_SIGMAS * lp.sigma_alpha).max(0.0);
        log_metric_at_u(x0_max, alpha_max, u) > boundary
    }

    /// Samples the fault pattern of one `cells`-cell line read at `age_s`
    /// seconds after its last full write.
    ///
    /// Levels are drawn uniformly (the simulator carries no data
    /// contents; uniform level occupancy is also what the analytic model
    /// averages over). For ages at which no level can cross its sensing
    /// reference the call returns an empty pattern *without consuming any
    /// randomness*, so fault-free epochs cost nothing and perturb no
    /// downstream draws.
    pub fn sample_line<R: Rng + ?Sized>(&self, age_s: f64, cells: u32, rng: &mut R) -> LineFaults {
        // One elapsed time covers the whole line (and both metrics share
        // t0), so the log10 is paid once here instead of once per cell.
        // `log_metric_at(x0, a, t, t0) == x0 + a * drift_exponent(t, t0)`
        // bit for bit — same u, same expression.
        let u = drift_exponent(age_s, self.r.t0());
        let mut can_cross_r = [false; 4];
        let mut any = false;
        for level in CellLevel::ALL {
            // M crossings are a subset of R crossings (same z, α/7), so
            // the R precheck covers both metrics.
            let c = Self::level_can_cross(&self.r, level, u);
            can_cross_r[level.index()] = c;
            any |= c;
        }
        let mut faults = LineFaults::default();
        if !any {
            return faults;
        }
        for cell in 0..cells {
            let level = CellLevel::from_index(rng.gen_range(0..4usize));
            if !can_cross_r[level.index()] {
                continue;
            }
            // The draws `z_programmed.sample` then `z_alpha.sample` make,
            // in that order; the programmed deviate is inverted below.
            let p = TruncatedNormal::draw_uniform(rng);
            let za = self.z_alpha.sample(rng);
            let (sensed_r, sensed_m) = self.sense_cell(level, p, za, u);
            if sensed_r == level {
                continue; // M cannot misread if R did not
            }
            push_cell_bits(&mut faults.r_bits, cell, level, sensed_r);
            faults.r_cells += 1;
            if sensed_m != level {
                push_cell_bits(&mut faults.m_bits, cell, level, sensed_m);
                faults.m_cells += 1;
            }
        }
        faults
    }

    /// Senses one cell under R and M, with programmed deviate
    /// `z = z_programmed.sample_at(p)`, drift deviate `za` and the hoisted
    /// drift exponent `u`: the exact bracketed quantile.
    ///
    /// The sensed level is a monotone step function of `z` (`mu + z·σ`
    /// and `+ α·u` round monotonically, and `sense_level` compares against
    /// fixed references), so when both ends of the closed-form bracket on
    /// `z` sense alike, `z` itself senses the same. Only a bracket that
    /// straddles a reference (R's, or M's for an R misread) pays for the
    /// Newton quantile. The M result is meaningful only when R misreads.
    fn sense_cell(&self, level: CellLevel, p: f64, za: f64, u: f64) -> (CellLevel, CellLevel) {
        let t = &self.z_programmed;
        let (zl, zh) = t.sample_bracket(p);
        let (r_lo, m_lo) = self.sense_both(level, zl, za, u);
        let (r_hi, m_hi) = self.sense_both(level, zh, za, u);
        if r_lo == r_hi && (r_lo == level || m_lo == m_hi) {
            (r_lo, m_lo)
        } else {
            self.sense_both(level, t.sample_at(p), za, u)
        }
    }

    /// [`sense_one`](Self::sense_one) under both metrics.
    fn sense_both(&self, level: CellLevel, z: f64, za: f64, u: f64) -> (CellLevel, CellLevel) {
        (
            self.sense_one(&self.r, level, z, za, u),
            self.sense_one(&self.m, level, z, za, u),
        )
    }

    /// Drifts one cell's shared deviates through `cfg` by the hoisted
    /// exponent `u` and senses it.
    fn sense_one(
        &self,
        cfg: &MetricConfig,
        level: CellLevel,
        z: f64,
        za: f64,
        u: f64,
    ) -> CellLevel {
        let lp = cfg.level(level);
        let x0 = lp.mu + z * lp.sigma;
        let alpha = (lp.mu_alpha + za * lp.sigma_alpha).max(0.0);
        cfg.sense_level(log_metric_at_u(x0, alpha, u))
    }
}

/// Appends the codeword bit positions that differ between the programmed
/// and sensed data of cell `cell`.
fn push_cell_bits(bits: &mut Vec<u16>, cell: u32, level: CellLevel, sensed: CellLevel) {
    let diff = level.data() ^ sensed.data();
    let base = (cell as u16) * 2;
    if diff & 0b10 != 0 {
        bits.push(base);
    }
    if diff & 0b01 != 0 {
        bits.push(base + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, RngCore, SeedableRng};

    /// The per-cell Newton sampler `sample_line` replaced: every crossable
    /// cell pays for the exact quantile via `TruncatedNormal::sample`.
    /// The bracketed sampler must match it draw for draw.
    fn sample_line_newton<R: Rng + ?Sized>(
        model: &FaultModel,
        age_s: f64,
        cells: u32,
        rng: &mut R,
    ) -> LineFaults {
        let u = drift_exponent(age_s, model.r.t0());
        let can_cross_r = CellLevel::ALL.map(|l| FaultModel::level_can_cross(&model.r, l, u));
        let mut faults = LineFaults::default();
        if !can_cross_r.contains(&true) {
            return faults;
        }
        for cell in 0..cells {
            let level = CellLevel::from_index(rng.gen_range(0..4usize));
            if !can_cross_r[level.index()] {
                continue;
            }
            let z = model.z_programmed.sample(rng);
            let za = model.z_alpha.sample(rng);
            let sensed_r = model.sense_one(&model.r, level, z, za, u);
            if sensed_r == level {
                continue;
            }
            push_cell_bits(&mut faults.r_bits, cell, level, sensed_r);
            faults.r_cells += 1;
            let sensed_m = model.sense_one(&model.m, level, z, za, u);
            if sensed_m != level {
                push_cell_bits(&mut faults.m_bits, cell, level, sensed_m);
                faults.m_cells += 1;
            }
        }
        faults
    }

    #[test]
    fn bracketed_sampler_matches_the_newton_oracle_draw_for_draw() {
        // `READDUO_PROP_CASES` seeds (default 64), as for the workspace's
        // property tests; CI reruns this in release at 1024.
        let seeds = std::env::var("READDUO_PROP_CASES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(64)
            .max(40);
        let ages = [0.5, 1.0, 8.0, 64.0, 640.0, 3600.0, 2e4, 3e4, 1e5, 1e6, 1e8];
        let model = FaultModel::paper();
        let mut r_cells = 0u64;
        for seed in 0..seeds {
            for &age in &ages {
                for cells in [256u32, 296] {
                    let key = seed ^ (age as u64).rotate_left(20) ^ (u64::from(cells) << 56);
                    let mut fast = StdRng::seed_from_u64(key);
                    let mut oracle = StdRng::seed_from_u64(key);
                    for line in 0..8 {
                        let got = model.sample_line(age, cells, &mut fast);
                        let want = sample_line_newton(&model, age, cells, &mut oracle);
                        assert_eq!(
                            got, want,
                            "seed {seed}, age {age}, {cells} cells, line {line}"
                        );
                        r_cells += u64::from(got.r_cells);
                    }
                    assert_eq!(
                        fast.next_u64(),
                        oracle.next_u64(),
                        "RNG diverged: seed {seed}, age {age}, {cells} cells"
                    );
                }
            }
        }
        assert!(r_cells > 0, "the ages must exercise misreads");
    }

    #[test]
    fn fresh_lines_are_fault_free_and_draw_nothing() {
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(7);
        let before = rng.next_u64();
        let mut rng = StdRng::seed_from_u64(7);
        let f = model.sample_line(1.0, 296, &mut rng);
        assert!(f.r_bits.is_empty() && f.m_bits.is_empty());
        assert_eq!(rng.next_u64(), before, "no randomness may be consumed");
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let model = FaultModel::paper();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..50 {
            assert_eq!(
                model.sample_line(640.0, 296, &mut a),
                model.sample_line(640.0, 296, &mut b)
            );
        }
    }

    #[test]
    fn bits_are_sorted_unique_and_in_range() {
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let f = model.sample_line(1e5, 296, &mut rng);
            for bits in [&f.r_bits, &f.m_bits] {
                assert!(bits.windows(2).all(|w| w[0] < w[1]), "sorted+unique");
                assert!(bits.iter().all(|&b| b < 592));
            }
            assert_eq!(f.r_cell_indices().len() as u32, f.r_cells);
            assert_eq!(f.m_cell_indices().len() as u32, f.m_cells);
        }
    }

    #[test]
    fn m_errors_are_a_subset_of_r_errors_cellwise() {
        // Shared (z, zα) and α_M = α_R/7 make M misreads a strict subset
        // of R misreads at the cell level.
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(11);
        let mut m_seen = 0u32;
        for _ in 0..300 {
            let f = model.sample_line(1e6, 296, &mut rng);
            let r_cells = f.r_cell_indices();
            for c in f.m_cell_indices() {
                assert!(r_cells.contains(&c), "M error without R error at cell {c}");
                m_seen += 1;
            }
        }
        assert!(m_seen > 0, "age 1e6 s must produce some M-metric errors");
    }

    #[test]
    fn r_error_rate_grows_with_age() {
        let model = FaultModel::paper();
        let count_at = |age: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..400)
                .map(|_| model.sample_line(age, 256, &mut rng).r_cells as u64)
                .sum::<u64>()
        };
        let young = count_at(8.0, 5);
        let old = count_at(640.0, 5);
        assert!(
            old > young,
            "drift errors must accumulate: {young} vs {old}"
        );
    }

    #[test]
    fn m_metric_is_far_more_robust() {
        let model = FaultModel::paper();
        let mut rng = StdRng::seed_from_u64(9);
        let (mut r, mut m) = (0u64, 0u64);
        for _ in 0..400 {
            let f = model.sample_line(1e4, 256, &mut rng);
            r += u64::from(f.r_cells);
            m += u64::from(f.m_cells);
        }
        assert!(r > 0);
        assert!(m * 50 < r, "M errors ({m}) should be ≪ R errors ({r})");
    }

    #[test]
    #[should_panic(expected = "share t0")]
    fn mismatched_t0_rejected() {
        let mut levels = *MetricConfig::r_metric().levels();
        levels[0].mu = 2.9; // keep ordering valid
        let other = MetricConfig::custom(crate::params::MetricKind::M, levels, 2.0);
        let _ = FaultModel::new(MetricConfig::r_metric(), other);
    }
}
