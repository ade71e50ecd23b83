//! Normal and truncated-normal distributions with stable tails.
//!
//! The PCM drift model places a cell's initial log-resistance on a normal
//! distribution *truncated* to the programmed range (±2.746σ around the level
//! mean per Table I of the paper), and the drift coefficient α on an ordinary
//! normal. Reliability analysis then needs survival functions far into the
//! tail, so both distributions expose `sf` and `ln_sf` built on
//! [`crate::erf::ln_erfc`].
//!
//! [`Normal::quantile`] is exact to f64 working precision but iterative
//! (eight Newton steps of `erf`). Hot loops that only need to know which
//! side of a threshold the quantile falls on use [`std_quantile_bracket`]
//! instead: a closed-form interval guaranteed to contain the Newton value,
//! with the exact quantile kept as the fallback when the interval
//! straddles the threshold.

use crate::erf::{erf, erfc, inverse_erf, ln_erfc};

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// A normal distribution `N(mu, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not finite and strictly positive.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::new(4.0, 0.02);
    /// assert_eq!(n.mean(), 4.0);
    /// ```
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma > 0.0 && mu.is_finite(),
            "normal parameters must be finite with sigma > 0 (mu={mu}, sigma={sigma})"
        );
        Self { mu, sigma }
    }

    /// The standard normal `N(0, 1)`.
    pub fn standard() -> Self {
        Self { mu: 0.0, sigma: 1.0 }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        self.mu
    }

    /// Standard deviation of the distribution.
    pub fn std_dev(&self) -> f64 {
        self.sigma
    }

    /// Standardises `x` to a z-score.
    pub fn z(&self, x: f64) -> f64 {
        (x - self.mu) / self.sigma
    }

    /// Probability density at `x`.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::standard();
    /// assert!((n.pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
    /// ```
    pub fn pdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }

    /// Natural log of the density at `x`; stable far into the tails.
    pub fn ln_pdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        -0.5 * z * z - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Cumulative distribution function `P(X <= x)`.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::standard();
    /// assert!((n.cdf(0.0) - 0.5).abs() < 1e-15);
    /// assert!((n.cdf(1.96) - 0.9750021048517795).abs() < 1e-12);
    /// ```
    pub fn cdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        0.5 * erfc(-z / SQRT_2)
    }

    /// Survival function `P(X > x)`, stable in the right tail.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let p = Normal::standard().sf(8.0);
    /// assert!(p > 6.0e-16 && p < 7.0e-16);
    /// ```
    pub fn sf(&self, x: f64) -> f64 {
        let z = self.z(x);
        0.5 * erfc(z / SQRT_2)
    }

    /// `ln P(X > x)`; usable even when `sf` underflows (e.g. 50σ tails).
    pub fn ln_sf(&self, x: f64) -> f64 {
        let z = self.z(x);
        ln_erfc(z / SQRT_2) - std::f64::consts::LN_2
    }

    /// `ln P(X <= x)`; stable in the *left* tail.
    pub fn ln_cdf(&self, x: f64) -> f64 {
        let z = self.z(x);
        ln_erfc(-z / SQRT_2) - std::f64::consts::LN_2
    }

    /// Quantile (inverse CDF): the `x` with `cdf(x) == p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1)`.
    ///
    /// ```
    /// use readduo_math::Normal;
    /// let n = Normal::new(10.0, 2.0);
    /// let q = n.quantile(0.975);
    /// assert!((q - (10.0 + 2.0 * 1.959963984540054)).abs() < 1e-8);
    /// ```
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        self.mu + self.sigma * SQRT_2 * inverse_erf(2.0 * p - 1.0)
    }

    /// Draws one sample using the polar Box–Muller transform.
    ///
    /// Equivalent to [`draw_polar`](Self::draw_polar) followed by
    /// [`from_polar`](Self::from_polar).
    pub fn sample<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (v, s) = Self::draw_polar(rng);
        self.from_polar(v, s)
    }

    /// The accepted point [`sample`](Self::sample) draws: `(v, s)` with
    /// `v` the coordinate that becomes the deviate and `s = v² + w²` its
    /// squared radius, `0 < s < 1`.
    ///
    /// Callers that split a sample into "draw" and "transform" (to decide
    /// a threshold test before paying for the `ln`/`sqrt`) use this to
    /// consume the generator exactly as `sample` does.
    pub fn draw_polar<R: readduo_rng::Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
        // Polar method: rejection-free of trig, numerically benign.
        loop {
            let v: f64 = rng.gen_range(-1.0..1.0);
            let w: f64 = rng.gen_range(-1.0..1.0);
            let s = v * v + w * w;
            if s > 0.0 && s < 1.0 {
                return (v, s);
            }
        }
    }

    /// The sample the polar point `(v, s)` transforms to:
    /// `mu + sigma·v·sqrt(−2 ln s / s)`.
    #[inline]
    pub fn from_polar(&self, v: f64, s: f64) -> f64 {
        let factor = (-2.0 * s.ln() / s).sqrt();
        self.mu + self.sigma * v * factor
    }
}

/// A normal distribution truncated to `[lo, hi]`.
///
/// Used for the programmed initial resistance of a PCM cell: the iterative
/// program-and-verify write loop guarantees the cell lands inside the target
/// window, producing a truncated normal rather than a full normal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedNormal {
    base: Normal,
    lo: f64,
    hi: f64,
    /// `cdf(lo)` of the base distribution.
    cdf_lo: f64,
    /// Total mass inside the window, `cdf(hi) - cdf(lo)`.
    mass: f64,
}

impl TruncatedNormal {
    /// Truncates `base` to the window `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or the window carries no probability mass.
    ///
    /// ```
    /// use readduo_math::{Normal, TruncatedNormal};
    /// let t = TruncatedNormal::new(Normal::standard(), -2.0, 2.0);
    /// assert!((t.cdf(2.0) - 1.0).abs() < 1e-12);
    /// assert!(t.cdf(-2.0).abs() < 1e-12);
    /// ```
    pub fn new(base: Normal, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "truncation window must satisfy lo < hi ({lo} >= {hi})");
        let cdf_lo = base.cdf(lo);
        let mass = base.cdf(hi) - cdf_lo;
        assert!(
            mass > 0.0,
            "truncation window [{lo}, {hi}] carries no probability mass"
        );
        Self { base, lo, hi, cdf_lo, mass }
    }

    /// Symmetric truncation to `mu ± width_sigmas·sigma`.
    ///
    /// The paper's programmed range is `mu ± 2.746 sigma`.
    pub fn symmetric(base: Normal, width_sigmas: f64) -> Self {
        let w = width_sigmas * base.std_dev();
        Self::new(base, base.mean() - w, base.mean() + w)
    }

    /// The untruncated base distribution.
    pub fn base(&self) -> Normal {
        self.base
    }

    /// Lower truncation bound.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper truncation bound.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Density at `x` (zero outside the window).
    pub fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            0.0
        } else {
            self.base.pdf(x) / self.mass
        }
    }

    /// CDF at `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (self.base.cdf(x) - self.cdf_lo) / self.mass
        }
    }

    /// Survival `P(X > x)`.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= self.lo {
            1.0
        } else if x >= self.hi {
            0.0
        } else {
            // Work from the right edge for stability in the right tail.
            (self.base.sf(x) - self.base.sf(self.hi)) / self.mass
        }
    }

    /// Quantile of the truncated distribution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1], got {p}");
        if p == 0.0 {
            return self.lo;
        }
        if p == 1.0 {
            return self.hi;
        }
        self.base.quantile(self.base_p(p))
    }

    /// Draws one sample by inverse-transform on the truncated CDF.
    ///
    /// Exact (no rejection), so it stays cheap even for narrow windows.
    /// Equivalent to `self.sample_at(TruncatedNormal::draw_uniform(rng))`.
    pub fn sample<R: readduo_rng::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample_at(Self::draw_uniform(rng))
    }

    /// The single uniform [`sample`](Self::sample) draws, in `(0, 1)`.
    ///
    /// Callers that split a sample into "draw" and "invert" (to bracket
    /// the inversion, see [`sample_bracket`](Self::sample_bracket)) use
    /// this to consume the generator exactly as `sample` does.
    pub fn draw_uniform<R: readduo_rng::Rng + ?Sized>(rng: &mut R) -> f64 {
        rng.gen_range(f64::MIN_POSITIVE..1.0)
    }

    /// The sample the uniform `p` inverts to: `quantile(p)` clamped into
    /// the window.
    pub fn sample_at(&self, p: f64) -> f64 {
        self.quantile(p).clamp(self.lo, self.hi)
    }

    /// An interval `[a, b]` guaranteed to contain
    /// [`sample_at(p)`](Self::sample_at), for `p` in `(0, 1)`, without
    /// running the Newton quantile.
    ///
    /// Built from [`std_quantile_bracket`] on the same clamped base
    /// probability `quantile` inverts, mapped through `mu + sigma·z` and
    /// clamped into the window. Every step is monotone under f64
    /// rounding, so the containment carries over. The standard-normal
    /// base (`mu = 0`, `sigma = 1`) reproduces `Normal::quantile`'s final
    /// arithmetic exactly; for other bases the two differ by at most an
    /// ulp, far inside the bracket's `1e-7` slack.
    pub fn sample_bracket(&self, p: f64) -> (f64, f64) {
        let (zl, zh) = std_quantile_bracket(self.base_p(p));
        let (mu, sigma) = (self.base.mu, self.base.sigma);
        (
            (mu + sigma * zl).clamp(self.lo, self.hi),
            (mu + sigma * zh).clamp(self.lo, self.hi),
        )
    }

    /// The base-distribution probability that `quantile(p)` inverts, for
    /// `p` in `(0, 1)`.
    fn base_p(&self, p: f64) -> f64 {
        let target = self.cdf_lo + p * self.mass;
        target.clamp(1e-300, 1.0 - 1e-16)
    }
}

/// Standard-normal CDF convenience, `Φ(z)`.
pub fn phi(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / SQRT_2))
}

/// Slack [`std_quantile_bracket`] adds on each side of its closed-form
/// estimate, in standard deviations.
const QUANTILE_BRACKET_DELTA: f64 = 1e-7;

// Acklam's rational inverse-normal coefficients, as published.
const ACKLAM_A: [f64; 6] = [
    -3.969_683_028_665_376e1,
    2.209_460_984_245_205e2,
    -2.759_285_104_469_687e2,
    1.383_577_518_672_69e2,
    -3.066_479_806_614_716e1,
    2.506_628_277_459_239,
];
const ACKLAM_B: [f64; 5] = [
    -5.447_609_879_822_406e1,
    1.615_858_368_580_409e2,
    -1.556_989_798_598_866e2,
    6.680_131_188_771_972e1,
    -1.328_068_155_288_572e1,
];
const ACKLAM_C: [f64; 6] = [
    -7.784_894_002_430_293e-3,
    -3.223_964_580_411_365e-1,
    -2.400_758_277_161_838,
    -2.549_732_539_343_734,
    4.374_664_141_464_968,
    2.938_163_982_698_783,
];
const ACKLAM_D: [f64; 4] = [
    7.784_695_709_041_462e-3,
    3.224_671_290_700_398e-1,
    2.445_134_137_142_996,
    3.754_408_661_907_416,
];
/// Acklam's switch between the central and the tail rationals.
const ACKLAM_P_LOW: f64 = 0.02425;

/// `1/√(2π)`, the standard-normal density at 0.
const FRAC_1_SQRT_2PI: f64 = 0.398_942_280_401_432_7;

/// Acklam's tail rational in `q = sqrt(-2 ln p)`: the lower-tail quantile.
fn acklam_tail(q: f64) -> f64 {
    let (c, d) = (&ACKLAM_C, &ACKLAM_D);
    (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5])
        / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
}

/// P. J. Acklam's rational inverse normal: relative error at most
/// `1.15e-9` against the true quantile, for `p` in `(0, 1)`.
fn acklam(p: f64) -> f64 {
    if p < ACKLAM_P_LOW {
        acklam_tail((-2.0 * p.ln()).sqrt())
    } else if p <= 1.0 - ACKLAM_P_LOW {
        let (a, b) = (&ACKLAM_A, &ACKLAM_B);
        let q = p - 0.5;
        let r = q * q;
        let num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5];
        let den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0;
        num * q / den
    } else {
        -acklam_tail((-2.0 * (1.0 - p).ln()).sqrt())
    }
}

/// An interval `[z − w, z + w]` guaranteed to contain
/// `Normal::standard().quantile(p)` for every `p` that quantile accepts,
/// computed in closed form (no iteration).
///
/// `z` is Acklam's rational inverse normal (one central rational for
/// `p ∈ [0.02425, 0.97575]`, one in `sqrt(−2 ln p)` per tail; relative
/// error ≤ `1.15e-9` against the true quantile). The half-width is
/// `w = δ` in the central region and `w = δ + min(ε/φ(z), 1)` in the
/// tails, with `δ = QUANTILE_BRACKET_DELTA = 1e-7`, `ε = f64::EPSILON`
/// and `φ` the standard-normal density:
///
/// * `δ` covers Acklam's error (`1.15e-9·|z| ≤ 1e-8` wherever the Newton
///   quantile runs) with ten-fold margin;
/// * `ε/φ(z)` covers the Newton quantile's own f64 limit in the deep
///   tails. It solves `erf(x) = 2p − 1`, and near `±1` both `2p − 1` and
///   `erf` are quantised to `2⁻⁵³`, which moves the root by up to
///   `2⁻⁵⁴/φ(z)` per rounding (measured: ≤ 0.07 at `p = 2.8e-17` against
///   a 0.49 allowance). In the central region it is below `4e-15` and
///   `δ` absorbs it.
///
/// The cap at 1 only binds below `p ≈ 2⁻⁵⁵`, where `2p − 1` rounds to
/// `−1` and `Normal::quantile` cannot run at all; there the interval
/// still holds the true quantile.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
///
/// ```
/// use readduo_math::{normal::std_quantile_bracket, Normal};
/// let (lo, hi) = std_quantile_bracket(0.975);
/// let exact = Normal::standard().quantile(0.975);
/// assert!(lo <= exact && exact <= hi && hi - lo < 3e-7);
/// ```
pub fn std_quantile_bracket(p: f64) -> (f64, f64) {
    assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
    let z = acklam(p);
    let w = if (ACKLAM_P_LOW..=1.0 - ACKLAM_P_LOW).contains(&p) {
        QUANTILE_BRACKET_DELTA
    } else {
        let pdf = (-0.5 * z * z).exp() * FRAC_1_SQRT_2PI;
        QUANTILE_BRACKET_DELTA + (f64::EPSILON / pdf).min(1.0)
    };
    (z - w, z + w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use readduo_rng::{rngs::StdRng, RngCore, SeedableRng};

    #[test]
    fn cdf_sf_sum_to_one() {
        let n = Normal::new(3.0, 0.5);
        for x in [1.0, 2.5, 3.0, 3.7, 5.0] {
            assert!((n.cdf(x) + n.sf(x) - 1.0).abs() < 1e-14);
        }
    }

    #[test]
    fn sf_matches_reference() {
        // P(Z > 3) = 1.349898031630094e-3
        let n = Normal::standard();
        let want = 1.349898031630094e-3;
        assert!(((n.sf(3.0) - want) / want).abs() < 1e-11);
        // P(Z > 10) = 7.61985302416e-24
        let want10 = 7.619853024160526e-24;
        assert!(((n.sf(10.0) - want10) / want10).abs() < 1e-9);
    }

    #[test]
    fn ln_sf_matches_sf_where_representable() {
        let n = Normal::new(-2.0, 3.0);
        for x in [0.0, 5.0, 20.0, 40.0] {
            let a = n.ln_sf(x);
            let b = n.sf(x).ln();
            assert!((a - b).abs() < 1e-8, "x={x}: {a} vs {b}");
        }
    }

    #[test]
    fn ln_sf_extreme_tail_finite() {
        let n = Normal::standard();
        let v = n.ln_sf(60.0);
        assert!(v.is_finite());
        // ln P(Z>60) ≈ -z²/2 - ln(z√(2π)) ≈ -1800 - 5.0
        assert!(v < -1800.0 && v > -1812.0, "ln_sf(60) = {v}");
    }

    #[test]
    fn quantile_inverts_cdf() {
        let n = Normal::new(7.0, 1.3);
        for p in [1e-8, 0.01, 0.3, 0.5, 0.77, 0.999] {
            let x = n.quantile(p);
            assert!((n.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn truncated_mass_renormalises() {
        let t = TruncatedNormal::symmetric(Normal::new(0.0, 1.0), 1.0);
        // Within ±1σ the base holds ~68.27%; truncation rescales to 1.
        assert!((t.cdf(1.0) - 1.0).abs() < 1e-12);
        assert!((t.cdf(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn truncated_sf_right_edge_is_exact_zero() {
        let t = TruncatedNormal::symmetric(Normal::new(4.0, 0.02), 2.746);
        assert_eq!(t.sf(t.hi()), 0.0);
        assert_eq!(t.sf(t.lo()), 1.0);
        assert!(t.sf(4.0) > 0.49 && t.sf(4.0) < 0.51);
    }

    #[test]
    fn truncated_quantile_round_trip() {
        let t = TruncatedNormal::symmetric(Normal::new(4.0, 0.02), 2.746);
        for p in [0.001, 0.25, 0.5, 0.75, 0.999] {
            let x = t.quantile(p);
            assert!((t.cdf(x) - p).abs() < 1e-8, "p={p}");
        }
    }

    #[test]
    fn samples_stay_inside_window_and_match_moments() {
        let base = Normal::new(5.0, 0.06);
        let t = TruncatedNormal::symmetric(base, 2.746);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = t.sample(&mut rng);
            assert!(x >= t.lo() && x <= t.hi());
            sum += x;
        }
        let mean = sum / n as f64;
        // Symmetric truncation keeps the mean at mu.
        assert!((mean - 5.0).abs() < 5e-4, "mean={mean}");
    }

    #[test]
    fn normal_sampling_matches_moments() {
        let n = Normal::new(-1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        let cnt = 50_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..cnt {
            let x = n.sample(&mut rng);
            s += x;
            s2 += x * x;
        }
        let mean = s / cnt as f64;
        let var = s2 / cnt as f64 - mean * mean;
        assert!((mean + 1.0).abs() < 0.03, "mean={mean}");
        assert!((var - 4.0).abs() < 0.12, "var={var}");
    }

    /// Asserts `std_quantile_bracket(p)` holds the Newton quantile.
    fn assert_brackets_newton(p: f64) {
        let exact = Normal::standard().quantile(p);
        let (lo, hi) = std_quantile_bracket(p);
        assert!(lo <= exact && exact <= hi, "p={p:e}: {exact} outside [{lo}, {hi}]");
    }

    #[test]
    fn bracket_contains_newton_quantile_on_a_dense_grid() {
        for i in 1..200_000 {
            assert_brackets_newton(f64::from(i) / 200_000.0);
        }
        // Log grid into both tails, down to where `2p − 1` still resolves.
        for k in 0..=16_000 {
            let p = 0.5 * 10f64.powf(-f64::from(k) * 16.2 / 16_000.0);
            assert_brackets_newton(p);
            if 1.0 - p < 1.0 {
                assert_brackets_newton(1.0 - p);
            }
        }
    }

    #[test]
    fn bracket_contains_newton_quantile_at_region_switches_and_clamps() {
        for edge in [ACKLAM_P_LOW, 1.0 - ACKLAM_P_LOW] {
            let mut lo = edge;
            let mut hi = edge;
            for _ in 0..64 {
                assert_brackets_newton(lo);
                assert_brackets_newton(hi);
                lo = lo.next_down();
                hi = hi.next_up();
            }
        }
        // TruncatedNormal::quantile's clamps. At 1 − 1e-16 Newton runs;
        // at 1e-300 it cannot (2p − 1 rounds to −1), so the bracket must
        // hold the true quantile, found by bisection on the stable ln_cdf.
        assert_brackets_newton(1.0 - 1e-16);
        let n = Normal::standard();
        let target = 1e-300f64.ln();
        let (mut a, mut b) = (-40.0, -30.0);
        for _ in 0..200 {
            let mid = 0.5 * (a + b);
            if n.ln_cdf(mid) < target {
                a = mid;
            } else {
                b = mid;
            }
        }
        let (lo, hi) = std_quantile_bracket(1e-300);
        assert!(lo.is_finite() && hi.is_finite() && hi - lo <= 2.0 + 1e-6);
        assert!(lo <= a && b <= hi, "true quantile {a} outside [{lo}, {hi}]");
    }

    #[test]
    fn bracket_contains_newton_quantile_at_wear_hash_extremes() {
        // The wear model's uniform `((h >> 11) + 0.5) / 2^53`, at both ends
        // of the 53-bit range and at random interior hashes. The very top
        // mantissa rounds to exactly 1.0, which quantile rejects too.
        let uniform = |m: u64| (m as f64 + 0.5) / (1u64 << 53) as f64;
        let top = (1u64 << 53) - 1;
        for k in 0..4096u64 {
            assert_brackets_newton(uniform(k));
            let u = uniform(top - k);
            if u < 1.0 {
                assert_brackets_newton(u);
            }
        }
        let mut rng = StdRng::seed_from_u64(0x57EA);
        for _ in 0..20_000 {
            assert_brackets_newton(uniform(rng.next_u64() >> 11));
        }
    }

    #[test]
    fn bracket_is_tight_where_the_newton_quantile_is_well_conditioned() {
        for p in [1e-6, 0.001, 0.3, 0.5, 0.9, 0.999_999] {
            let (lo, hi) = std_quantile_bracket(p);
            assert!(hi - lo < 2.1e-7, "p={p}: width {}", hi - lo);
        }
    }

    #[test]
    fn truncated_sample_bracket_contains_sample_at() {
        let t = TruncatedNormal::symmetric(Normal::standard(), 2.746);
        let shifted = TruncatedNormal::symmetric(Normal::new(4.0, 0.02), 2.746);
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..50_000 {
            let p = if i < 2 {
                [f64::MIN_POSITIVE, 1.0 - f64::EPSILON / 2.0][i]
            } else {
                TruncatedNormal::draw_uniform(&mut rng)
            };
            for d in [&t, &shifted] {
                let x = d.sample_at(p);
                let (lo, hi) = d.sample_bracket(p);
                assert!(lo <= x && x <= hi, "p={p:e}: {x} outside [{lo}, {hi}]");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sigma > 0")]
    fn rejects_nonpositive_sigma() {
        let _ = Normal::new(0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn rejects_empty_window() {
        let _ = TruncatedNormal::new(Normal::standard(), 1.0, 1.0);
    }
}
