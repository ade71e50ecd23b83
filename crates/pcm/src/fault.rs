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
//!
//! Most crossable cells do not even need the bracket. Before the drift
//! deviate's `ln`/`sqrt` runs, a conservative `Screen` bounds the
//! programmed deviate from a per-bin quantile table and the drift deviate
//! from its raw polar point, and drops every cell whose R-sensing provably
//! returns the programmed level. Cells it cannot clear take the exact path
//! above unchanged, and the RNG is consumed as before.

use crate::drift::{drift_exponent, log_metric_at_u};
use crate::params::{MetricConfig, PROGRAM_WIDTH_SIGMAS};
use crate::state::CellLevel;
use readduo_math::{Normal, TruncatedNormal};
use readduo_rng::Rng;
use std::sync::OnceLock;

/// How many sigmas of drift-coefficient tail the impossibility precheck
/// covers. Matches the integration range of the analytic cell-error model
/// (`readduo-reliability` integrates α over `μ_α ± 10σ_α`), so the fault
/// model and the closed form agree about which (age, level) pairs can
/// produce errors at all.
const ALPHA_TAIL_SIGMAS: f64 = 10.0;

/// Equal-probability bins of the screen's quantile table. A power of two,
/// so `p·BINS` is exact and its floor names a bin whose right edge is at
/// least `p`.
const SCREEN_BINS: usize = 2048;

/// Slack, in standard deviations, added to each bin's quantile bound. It
/// covers the Newton quantile's own f64 error (below `1e-13` inside the
/// `±2.746σ` window) with four orders of margin.
const SCREEN_Z_SLACK: f64 = 1e-9;

/// Slack, in log10 units, the screen holds back from the sensing
/// reference. It covers the rounding of `mu + z·σ + α·u` (about `1e-15`
/// at these magnitudes).
const SCREEN_X_SLACK: f64 = 1e-9;

/// Relative margin on the screen's drift-deviate bound, scaled by the
/// magnitudes the bound is computed from. It covers the rounding of the
/// bound itself and of the polar transform (a few ulps each).
const SCREEN_K_MARGIN: f64 = 1e-9;

/// Tolerance of the M ⊆ R checks in [`FaultModel::new`], relative to the
/// compared magnitudes: absorbs the rounding of configs derived by
/// arithmetic (Table II divides Table I's `μ_α` by 7).
const SUBSET_TOL: f64 = 1e-12;

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
    /// drift clock per cell — and must make every M misread an R misread,
    /// cell by cell, because the sampler senses M only for cells R
    /// misreads. With shared deviates `(z, z_α)` that holds when, per
    /// level, the metrics share `σ`, M's references sit no closer to the
    /// level mean (in `σ`) than R's, and
    /// `max(μ_αM + z·σ_αM, 0) ≤ max(μ_αR + z·σ_αR, 0)` for all `z`, i.e.
    /// `σ_αM ≤ σ_αR`, `μ_αM/σ_αM ≤ μ_αR/σ_αR` and `max(μ_αM, 0) ≤
    /// max(μ_αR, 0)`.
    ///
    /// # Panics
    ///
    /// Panics if the reference times differ or a level breaks M ⊆ R.
    pub fn new(r: MetricConfig, m: MetricConfig) -> Self {
        assert!(
            (r.t0() - m.t0()).abs() < 1e-12,
            "R and M metrics must share t0 ({} vs {})",
            r.t0(),
            m.t0()
        );
        for level in CellLevel::ALL {
            if let Err(why) = m_misreads_imply_r_misreads(&r, &m, level) {
                panic!("M misreads must imply R misreads, but level {level:?} {why}");
            }
        }
        Self {
            r,
            m,
            z_programmed: programmed_deviate(),
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
        let mut faults = LineFaults::default();
        self.sample_line_into(age_s, cells, rng, &mut faults);
        faults
    }

    /// [`sample_line`](Self::sample_line) into a caller-owned pattern,
    /// reusing its buffers: overwrites `out` completely, and allocates
    /// nothing once the buffers have grown to a line's worst case.
    pub fn sample_line_into<R: Rng + ?Sized>(
        &self,
        age_s: f64,
        cells: u32,
        rng: &mut R,
        out: &mut LineFaults,
    ) {
        out.r_bits.clear();
        out.m_bits.clear();
        out.r_cells = 0;
        out.m_cells = 0;
        // One elapsed time covers the whole line (and both metrics share
        // t0), so the log10 is paid once here instead of once per cell.
        // `log_metric_at(x0, a, t, t0) == x0 + a * drift_exponent(t, t0)`
        // bit for bit — same u, same expression.
        let u = drift_exponent(age_s, self.r.t0());
        let mut can_cross_r = [false; 4];
        let mut screens = [Screen::OFF; 4];
        let mut any = false;
        for level in CellLevel::ALL {
            // M crossings are a subset of R crossings (`new` checks it),
            // so the R precheck — and the R screen — cover both metrics.
            let c = Self::level_can_cross(&self.r, level, u);
            can_cross_r[level.index()] = c;
            if c {
                screens[level.index()] = Screen::new(&self.r, level, self.z_programmed.lo(), u);
            }
            any |= c;
        }
        if !any {
            return;
        }
        let z_upper = z_upper_table();
        for cell in 0..cells {
            let level = CellLevel::from_index(rng.gen_range(0..4usize));
            if !can_cross_r[level.index()] {
                continue;
            }
            // The draws `z_programmed.sample` then `z_alpha.sample` make,
            // in that order; both transforms wait for the screen.
            let p = TruncatedNormal::draw_uniform(rng);
            let (v, s) = Normal::draw_polar(rng);
            let z_hi = z_upper[(p * SCREEN_BINS as f64) as usize];
            if screens[level.index()].clears(z_hi, v, s) {
                continue; // R provably senses `level`, so M does too
            }
            let za = self.z_alpha.from_polar(v, s);
            let (sensed_r, sensed_m) = self.sense_cell(level, p, za, u);
            if sensed_r == level {
                continue; // M cannot misread if R did not
            }
            push_cell_bits(&mut out.r_bits, cell, level, sensed_r);
            out.r_cells += 1;
            if sensed_m != level {
                push_cell_bits(&mut out.m_bits, cell, level, sensed_m);
                out.m_cells += 1;
            }
        }
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

/// Checks one level of the M ⊆ R conditions [`FaultModel::new`] lists;
/// the error names the broken one.
fn m_misreads_imply_r_misreads(
    r: &MetricConfig,
    m: &MetricConfig,
    level: CellLevel,
) -> Result<(), String> {
    let le = |a: f64, b: f64| a <= b + SUBSET_TOL * a.abs().max(b.abs());
    let (lr, lm) = (r.level(level), m.level(level));
    if !(le(lr.sigma, lm.sigma) && le(lm.sigma, lr.sigma)) {
        return Err(format!("has σ_M = {} but σ_R = {}", lm.sigma, lr.sigma));
    }
    // Both metrics put the reference above a level at μ + 3σ, so with
    // equal σ only the reference below (the level beneath's upper one)
    // can sit closer to the mean under M than under R.
    let below = |cfg: &MetricConfig| {
        let lower = CellLevel::from_index(level.index().checked_sub(1)?);
        let lp = cfg.level(level);
        Some((cfg.reference_above(lower)? - lp.mu) / lp.sigma)
    };
    if let (Some(or), Some(om)) = (below(r), below(m)) {
        if !le(om, or) {
            return Err(format!("has M's lower reference at {om}σ, inside R's {or}σ"));
        }
    }
    let (sr, sm) = (lr.sigma_alpha, lm.sigma_alpha);
    if !le(sm, sr) {
        return Err(format!("has σ_αM = {sm} above σ_αR = {sr}"));
    }
    if !le(lm.mu_alpha * sr, lr.mu_alpha * sm) || !le(lm.mu_alpha.max(0.0), lr.mu_alpha.max(0.0)) {
        return Err(format!(
            "has μ_αM/σ_αM = {} above μ_αR/σ_αR = {} (or μ_αM above μ_αR)",
            lm.mu_alpha / sm,
            lr.mu_alpha / sr
        ));
    }
    Ok(())
}

/// Upper bounds on the programmed deviate `sample_at(p)` of
/// [`programmed_deviate`], one per equal-probability bin of `p`: the
/// bracket's upper end at the bin's right edge plus [`SCREEN_Z_SLACK`],
/// capped at the window top. Sound because the true quantile is monotone
/// in `p` and the bracket contains the Newton value. Built once per
/// process (16 KB).
fn z_upper_table() -> &'static [f64] {
    static TABLE: OnceLock<Box<[f64]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let t = programmed_deviate();
        (1..=SCREEN_BINS)
            .map(|i| match i {
                SCREEN_BINS => t.hi(),
                _ => {
                    let edge = i as f64 / SCREEN_BINS as f64;
                    (t.sample_bracket(edge).1 + SCREEN_Z_SLACK).min(t.hi())
                }
            })
            .collect()
    })
}

/// The shared standard-normal programmed-value deviate, truncated to the
/// program-and-verify window (`±2.746σ`).
fn programmed_deviate() -> TruncatedNormal {
    TruncatedNormal::symmetric(Normal::standard(), PROGRAM_WIDTH_SIGMAS)
}

/// The lazy-sensing screen for one level at one drift exponent `u`.
///
/// A cell programmed to the level senses it under R when
/// `μ + z·σ + max(μ_α + z_α·σ_α, 0)·u ≤ B` (it cannot sense lower: drift
/// only raises the metric, and [`new`](Self::new) checks the window's
/// bottom). With `z ≤ z_hi` that holds whenever `z_α < k = a − z_hi·c`,
/// where `a = ((B − μ − slack)/u − μ_α)/σ_α` and `c = σ/(u·σ_α)` are
/// hoisted per line. The drift deviate is `z_α = v·sqrt(−2 ln s / s)`
/// from its polar point, and `−ln s ≤ (1 − s)/s` bounds it without the
/// `ln`: `z_α ≤ 0` when `v ≤ 0`, else `z_α² ≤ 2v²(1 − s)/s²`.
#[derive(Debug, Clone, Copy)]
struct Screen {
    /// `a`, less the rounding margin.
    a: f64,
    c: f64,
}

impl Screen {
    /// The screen that clears no cell.
    const OFF: Self = Self { a: f64::NEG_INFINITY, c: 0.0 };

    /// The screen for `level` under `cfg` at drift exponent `u`, whose
    /// programmed deviate never falls below `z_lo`.
    fn new(cfg: &MetricConfig, level: CellLevel, z_lo: f64, u: f64) -> Self {
        let Some(b) = cfg.reference_above(level) else {
            return Self::OFF;
        };
        let lp = cfg.level(level);
        // The bound needs a positive drift scale, a mean α that clamping
        // at 0 cannot exceed, and a window whose bottom senses `level`.
        if !(u > 0.0 && lp.sigma_alpha > 0.0 && lp.mu_alpha >= 0.0)
            || cfg.sense_level(lp.mu + z_lo * lp.sigma) != level
        {
            return Self::OFF;
        }
        let head = (b - lp.mu - SCREEN_X_SLACK) / u;
        let c = lp.sigma / (u * lp.sigma_alpha);
        let a = (head - lp.mu_alpha) / lp.sigma_alpha;
        let scale = 1.0 + (head.abs() + lp.mu_alpha) / lp.sigma_alpha + PROGRAM_WIDTH_SIGMAS * c;
        Self {
            a: a - SCREEN_K_MARGIN * scale,
            c,
        }
    }

    /// Whether a cell with programmed deviate at most `z_hi` and drift
    /// deviate from the polar point `(v, s)` provably senses its level.
    #[inline]
    fn clears(self, z_hi: f64, v: f64, s: f64) -> bool {
        let k = self.a - z_hi * self.c;
        k >= 0.0 && (v <= 0.0 || 2.0 * v * v * (1.0 - s) <= k * k * s * s)
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
    use crate::params::LevelParams;
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

    /// `READDUO_PROP_CASES` (default 64), as for the workspace's property
    /// tests; CI reruns the oracles in release at 1024.
    fn prop_cases() -> u64 {
        std::env::var("READDUO_PROP_CASES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .filter(|&n| n > 0)
            .unwrap_or(64)
    }

    /// A valid custom pair with a wider drift spread than the paper's
    /// (`σ_α/μ_α = 0.6` instead of 0.4), M drifting 7× slower as in
    /// Table II.
    fn wide_alpha_model() -> FaultModel {
        let spread = |cfg: MetricConfig| {
            let levels = cfg.levels().map(|lp| LevelParams {
                sigma_alpha: 0.6 * lp.mu_alpha,
                ..lp
            });
            MetricConfig::custom(cfg.kind(), levels, cfg.t0())
        };
        FaultModel::new(spread(MetricConfig::r_metric()), spread(MetricConfig::m_metric()))
    }

    #[test]
    fn bracketed_sampler_matches_the_newton_oracle_draw_for_draw() {
        let seeds = prop_cases().max(40);
        let ages = [0.5, 1.0, 8.0, 64.0, 640.0, 3600.0, 2e4, 3e4, 1e5, 1e6, 1e8];
        for (name, model) in [("paper", FaultModel::paper()), ("σα/μα=0.6", wide_alpha_model())] {
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
                                "{name}: seed {seed}, age {age}, {cells} cells, line {line}"
                            );
                            r_cells += u64::from(got.r_cells);
                        }
                        assert_eq!(
                            fast.next_u64(),
                            oracle.next_u64(),
                            "{name}: RNG diverged: seed {seed}, age {age}, {cells} cells"
                        );
                    }
                }
            }
            assert!(r_cells > 0, "{name}: the ages must exercise misreads");
        }
    }

    #[test]
    fn screen_clears_only_cells_that_sense_their_level() {
        // Every cell the screen skips must sense (level, level) through
        // the exact path. Ages come in three kinds: where the level has
        // only just become crossable (`a` and `c` are then large and
        // nearly cancel), random, and tuned so that one bin's bound sits
        // on the reference for a drift deviate of 0. A third of the cells
        // are natural draws; a third put `p` at a random bin's right edge,
        // where the table's bound is tightest; a third put `p` at the
        // tuned bin's edge with a drift deviate just below 0 — the cells
        // that land closest to the reference.
        let table = z_upper_table();
        let pow10 = |rng: &mut StdRng, lo: f64, hi: f64| 10f64.powf(rng.gen_range(lo..hi));
        let edge_of = |bin: usize| ((bin + 1) as f64 / SCREEN_BINS as f64).next_down();
        for (name, model) in [("paper", FaultModel::paper()), ("σα/μα=0.6", wide_alpha_model())] {
            let z_lo = model.z_programmed.lo();
            let (mut cleared, mut near) = (0u64, 0u64);
            for case in 0..prop_cases() {
                let mut rng = StdRng::seed_from_u64(0x5C2E_E000 ^ case);
                let level = CellLevel::from_index(rng.gen_range(0..3usize));
                let lp = model.r.level(level);
                let b = model.r.reference_above(level).unwrap();
                let tuned_bin = rng.gen_range(0..SCREEN_BINS);
                let u = match case % 3 {
                    0 => {
                        let x0_max = lp.mu + PROGRAM_WIDTH_SIGMAS * lp.sigma;
                        let alpha_max = lp.mu_alpha + ALPHA_TAIL_SIGMAS * lp.sigma_alpha;
                        (b - x0_max) / alpha_max * (1.0 + pow10(&mut rng, -12.0, 0.0))
                    }
                    1 => rng.gen_range(0.0..9.0),
                    _ => {
                        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                        let jitter = 1.0 + sign * pow10(&mut rng, -12.0, -1.0);
                        (b - lp.mu - table[tuned_bin] * lp.sigma) / lp.mu_alpha * jitter
                    }
                };
                if !FaultModel::level_can_cross(&model.r, level, u) {
                    continue;
                }
                let screen = Screen::new(&model.r, level, z_lo, u);
                for i in 0..3000 {
                    let (p, (v, s)) = match i % 3 {
                        0 => (TruncatedNormal::draw_uniform(&mut rng), Normal::draw_polar(&mut rng)),
                        1 => {
                            let (v, s) = Normal::draw_polar(&mut rng);
                            (edge_of(rng.gen_range(0..SCREEN_BINS)), (v.abs(), s))
                        }
                        _ => {
                            let (_, s) = Normal::draw_polar(&mut rng);
                            (edge_of(tuned_bin), (-pow10(&mut rng, -12.0, -1.0), s))
                        }
                    };
                    let z_hi = table[(p * SCREEN_BINS as f64) as usize];
                    if !screen.clears(z_hi, v, s) {
                        continue;
                    }
                    cleared += 1;
                    let z = model.z_programmed.sample_at(p);
                    let za = model.z_alpha.from_polar(v, s);
                    assert_eq!(
                        model.sense_both(level, z, za, u),
                        (level, level),
                        "{name}: level {level:?}, u {u}, p {p}, (v, s) ({v}, {s})"
                    );
                    let alpha = (lp.mu_alpha + za * lp.sigma_alpha).max(0.0);
                    let x = log_metric_at_u(lp.mu + z * lp.sigma, alpha, u);
                    near += u64::from(b - x < 1e-6 * lp.sigma);
                }
            }
            assert!(cleared > 0, "{name}: the screen must clear cells");
            assert!(near > 0, "{name}: some cleared cells must sit within 1e-6σ of the reference");
        }
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
    #[should_panic(expected = "M misreads must imply R misreads")]
    fn m_drift_spread_above_r_rejected() {
        // M drifting with a wider spread than R: a cell far in the α tail
        // could misread under M alone, which the sampler would drop.
        let m = MetricConfig::m_metric();
        let levels = m.levels().map(|lp| LevelParams {
            sigma_alpha: 50.0 * lp.sigma_alpha,
            ..lp
        });
        let wide = MetricConfig::custom(m.kind(), levels, m.t0());
        let _ = FaultModel::new(MetricConfig::r_metric(), wide);
    }

    #[test]
    #[should_panic(expected = "M misreads must imply R misreads")]
    fn m_sigma_differing_from_r_rejected() {
        let m = MetricConfig::m_metric();
        let levels = m.levels().map(|lp| LevelParams {
            sigma: 1.1 * lp.sigma,
            ..lp
        });
        let _ = FaultModel::new(MetricConfig::r_metric(), MetricConfig::custom(m.kind(), levels, m.t0()));
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
