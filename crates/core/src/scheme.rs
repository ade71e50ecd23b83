//! Device construction: [`SchemeKind`] names every readout scheme the
//! evaluation runs, and [`DeviceSpec`] describes one device — a scheme
//! plus the optional fault, wear and DRAM-tier layers — and builds it,
//! channel by channel.

use crate::area::LineStorage;
use crate::schemes::{
    FaultCapable, HybridScheme, LineScheme, LwtScheme, MMetricScheme, ScrubbingScheme, TlcScheme,
};
use crate::wear::WearConfig;
use readduo_dram::{DramConfig, TieredDevice};
use readduo_memsim::{DeviceModel, FixedLatencyDevice};

/// Derives one channel's device seed from the run seed: channel 0 keeps
/// the seed unchanged (so a single-channel topology reproduces the
/// pre-topology device construction bit-for-bit) and later channels are
/// decorrelated by a golden-ratio multiply of the channel index.
pub fn channel_seed(seed: u64, channel: usize) -> u64 {
    seed ^ (channel as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Every scheme configuration in the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Drift-free MLC (the normalisation baseline).
    Ideal,
    /// Efficient scrubbing [2], R-sensing, `(BCH=8, S=8, W=1)`.
    Scrubbing,
    /// The reliability-sound `(BCH=8, S=8, W=0)` variant.
    ScrubbingW0,
    /// M-sensing only, `(BCH=8, S=640, W=1)`.
    MMetric,
    /// ReadDuo-Hybrid, `(BCH=8, S=640, W=0)`.
    Hybrid,
    /// ReadDuo-LWT-k.
    Lwt {
        /// Sub-intervals per scrub interval.
        k: u8,
    },
    /// LWT-k with R-M-read conversion disabled (Figure 14 ablation).
    LwtNoConversion {
        /// Sub-intervals per scrub interval.
        k: u8,
    },
    /// ReadDuo-Select-(k:s).
    Select {
        /// Sub-intervals per scrub interval.
        k: u8,
        /// Full-write window in sub-intervals.
        s: u8,
    },
    /// Tri-Level-Cell baseline [26].
    Tlc,
}

impl SchemeKind {
    /// The six headline schemes of Figures 9/10/15.
    pub fn headline() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Ideal,
            SchemeKind::Scrubbing,
            SchemeKind::MMetric,
            SchemeKind::Hybrid,
            SchemeKind::Lwt { k: 4 },
            SchemeKind::Select { k: 4, s: 2 },
        ]
    }

    /// Display label used in figures.
    pub fn label(&self) -> String {
        match self {
            SchemeKind::Ideal => "Ideal".into(),
            SchemeKind::Scrubbing => "Scrubbing".into(),
            SchemeKind::ScrubbingW0 => "Scrubbing-W0".into(),
            SchemeKind::MMetric => "M-metric".into(),
            SchemeKind::Hybrid => "Hybrid".into(),
            SchemeKind::Lwt { k } => format!("LWT-{k}"),
            SchemeKind::LwtNoConversion { k } => format!("LWT-{k}-noconv"),
            SchemeKind::Select { k, s } => format!("Select-{k}:{s}"),
            SchemeKind::Tlc => "TLC".into(),
        }
    }

    /// Builds the bare device model, seeding its RNG streams: the
    /// single-channel [`DeviceSpec::build`] with no layers and no hints.
    pub fn build(&self, seed: u64) -> Box<dyn DeviceModel> {
        DeviceSpec::from(*self).build(seed, 0, 1, DeviceHints::default())
    }

    /// Single-channel [`DeviceSpec::build`] of the bare scheme. Kept, with
    /// this signature, for the benchmark in `perfbench/`.
    pub fn build_for(
        &self,
        seed: u64,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Box<dyn DeviceModel> {
        DeviceSpec::from(*self)
            .single_channel(seed, warm_boundary, footprint_lines)
            .expect("a bare scheme is always a valid spec")
    }

    /// Single-channel [`DeviceSpec::build`] with a DRAM tier. Kept, with
    /// this signature, for the benchmark in `perfbench/`.
    pub fn build_tiered(
        &self,
        seed: u64,
        dram: DramConfig,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Box<dyn DeviceModel> {
        let spec = DeviceSpec {
            dram: Some(dram),
            ..(*self).into()
        };
        spec.single_channel(seed, warm_boundary, footprint_lines)
            .expect("a tier fits every scheme")
    }

    /// Single-channel [`DeviceSpec::build`] with fault injection; `None`
    /// where [`DeviceSpec::validate`] rejects the spec. Kept, with this
    /// signature, for the benchmark in `perfbench/`.
    pub fn build_faulty(
        &self,
        seed: u64,
        fault_seed: u64,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Option<Box<dyn DeviceModel>> {
        let spec = DeviceSpec {
            faults: Some(fault_seed),
            ..(*self).into()
        };
        spec.single_channel(seed, warm_boundary, footprint_lines)
    }

    /// [`build_faulty`](SchemeKind::build_faulty) plus the endurance
    /// model. Kept, with this signature, for the benchmark in `perfbench/`.
    pub fn build_worn(
        &self,
        seed: u64,
        fault_seed: u64,
        wear: WearConfig,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Option<Box<dyn DeviceModel>> {
        let spec = DeviceSpec {
            faults: Some(fault_seed),
            wear: Some(wear),
            ..(*self).into()
        };
        spec.single_channel(seed, warm_boundary, footprint_lines)
    }

    /// Per-line storage cost for the area factor of EDAP.
    pub fn storage(&self) -> LineStorage {
        match *self {
            SchemeKind::Ideal | SchemeKind::MMetric | SchemeKind::Hybrid => LineStorage::mlc_bch8(),
            SchemeKind::Scrubbing | SchemeKind::ScrubbingW0 => LineStorage::scrubbing(),
            SchemeKind::Lwt { k }
            | SchemeKind::LwtNoConversion { k }
            | SchemeKind::Select { k, .. } => LineStorage::lwt(k),
            SchemeKind::Tlc => LineStorage::tlc(),
        }
    }
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// What a device build knows about the workload it will serve. Neither
/// hint changes which lines are representable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceHints {
    /// Lines `[0, warm_boundary)` are the workload's warm (actively
    /// written) region: they default to steady-state recent writes
    /// instead of ancient ones.
    pub warm_boundary: u64,
    /// About how many distinct lines the workload touches: pre-sizes the
    /// line table ([`LineTable::reserve`](crate::LineTable::reserve)) and
    /// never changes results.
    pub footprint_lines: u64,
}

/// One device configuration: a readout scheme plus the optional layers
/// over it. Every device a run simulates is described by one of these and
/// built by [`DeviceSpec::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSpec {
    /// The readout scheme.
    pub scheme: SchemeKind,
    /// Monte-Carlo fault injection, seeded independently of the scheme's
    /// analytic sampler: demand reads decode real error patterns.
    pub faults: Option<u64>,
    /// The endurance model: cells age per program, dead cells read back
    /// stuck-at, and over-margin lines remap onto spares.
    pub wear: Option<WearConfig>,
    /// A hybrid DRAM–PCM migration tier in front of the device; `lines` is
    /// the total over all channels, and zero lines means no tier.
    pub dram: Option<DramConfig>,
}

impl From<SchemeKind> for DeviceSpec {
    fn from(scheme: SchemeKind) -> Self {
        Self {
            scheme,
            faults: None,
            wear: None,
            dram: None,
        }
    }
}

/// A device configuration that cannot be built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpecError {
    /// The scheme a layer was attached to.
    pub scheme: SchemeKind,
    /// The layer it cannot take.
    pub layer: &'static str,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cannot take {}: it has no injected read path (faults and wear \
             need Scrubbing, Scrubbing-W0, Hybrid, LWT or Select)",
            self.scheme, self.layer
        )
    }
}

impl std::error::Error for SpecError {}

impl DeviceSpec {
    /// Checks that every layer fits the scheme. Faults and wear need an
    /// injected read path: Ideal and TLC are drift-free by construction,
    /// and M-metric's direct M-reads never exercise the escalation chain
    /// the injector models.
    pub fn validate(&self) -> Result<(), SpecError> {
        let layer = match (self.faults, self.wear) {
            (Some(_), _) => "fault injection",
            (None, Some(_)) => "wear",
            (None, None) => return Ok(()),
        };
        match self.scheme {
            SchemeKind::Ideal | SchemeKind::MMetric | SchemeKind::Tlc => Err(SpecError {
                scheme: self.scheme,
                layer,
            }),
            _ => Ok(()),
        }
    }

    /// The device of a one-channel topology, or `None` where
    /// [`validate`](DeviceSpec::validate) rejects the spec.
    fn single_channel(
        &self,
        seed: u64,
        warm_boundary: u64,
        footprint_lines: u64,
    ) -> Option<Box<dyn DeviceModel>> {
        self.validate().ok()?;
        let hints = DeviceHints {
            warm_boundary,
            footprint_lines,
        };
        Some(self.build(seed, 0, 1, hints))
    }

    /// Builds the device of channel `channel` in a `channels`-channel
    /// topology. Layers stack scheme → faults and wear → DRAM tier, the
    /// tier being a decorator over whatever the rest builds.
    ///
    /// Every seed — the scheme's `seed`, the fault seed, the wear seed and
    /// the tier's set-hash seed — is decorrelated per channel through
    /// [`channel_seed`], which is the identity on channel 0; the tier's
    /// capacity is the channel's [`DramConfig::sliced`] share.
    ///
    /// # Panics
    ///
    /// Panics if [`validate`](DeviceSpec::validate) rejects the spec.
    pub fn build(
        &self,
        seed: u64,
        channel: usize,
        channels: usize,
        hints: DeviceHints,
    ) -> Box<dyn DeviceModel> {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        let seed = channel_seed(seed, channel);
        let faults = self.faults.map(|s| channel_seed(s, channel));
        let wear = self.wear.map(|w| WearConfig {
            seed: channel_seed(w.seed, channel),
            ..w
        });
        let DeviceHints {
            warm_boundary: warm,
            footprint_lines: lines,
        } = hints;
        let pcm: Box<dyn DeviceModel> = match self.scheme {
            SchemeKind::Ideal => Box::new(FixedLatencyDevice::ideal()),
            SchemeKind::Tlc => Box::new(TlcScheme::paper()),
            SchemeKind::MMetric => Box::new(
                MMetricScheme::paper(seed)
                    .with_warm_region(warm)
                    .reserve_lines(lines),
            ),
            SchemeKind::Scrubbing => {
                layered(ScrubbingScheme::paper(seed), warm, lines, faults, wear)
            }
            // The `W = 0` schemes take no warm region: every line
            // defaults to "written at its last scrub".
            SchemeKind::ScrubbingW0 => {
                layered(ScrubbingScheme::paper_w0(seed), 0, lines, faults, wear)
            }
            SchemeKind::Hybrid => layered(HybridScheme::paper(seed), 0, lines, faults, wear),
            SchemeKind::Lwt { k } => layered(LwtScheme::paper(seed, k), warm, lines, faults, wear),
            SchemeKind::LwtNoConversion { k } => layered(
                LwtScheme::without_conversion(seed, k),
                warm,
                lines,
                faults,
                wear,
            ),
            SchemeKind::Select { k, s } => {
                layered(LwtScheme::select(seed, k, s), warm, lines, faults, wear)
            }
        };
        match self.dram {
            Some(dram) if dram.lines > 0 => {
                let cfg = DramConfig {
                    seed: channel_seed(dram.seed, channel),
                    ..dram.sliced(channels)
                };
                Box::new(TieredDevice::new(pcm, cfg).with_channel(channel))
            }
            _ => pcm,
        }
    }
}

/// A fault-capable scheme with its hints and optional layers attached.
fn layered<P: FaultCapable>(
    scheme: LineScheme<P>,
    warm_boundary: u64,
    lines: u64,
    faults: Option<u64>,
    wear: Option<WearConfig>,
) -> Box<dyn DeviceModel>
where
    LineScheme<P>: DeviceModel + 'static,
{
    let mut s = scheme;
    if let Some(seed) = faults {
        s = s.with_fault_injection(seed);
    }
    if let Some(cfg) = wear {
        s = s.with_wear(cfg);
    }
    // Layers before the capacity hint: the fault injector's decode tables
    // are allocated before the line table grows, which keeps peak RSS
    // lower (perfbench `fault_reads`).
    Box::new(s.with_warm_region(warm_boundary).reserve_lines(lines))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_set_matches_figures() {
        let h = SchemeKind::headline();
        assert_eq!(h.len(), 6);
        assert_eq!(h[0], SchemeKind::Ideal);
        assert_eq!(h[5].label(), "Select-4:2");
    }

    #[test]
    fn all_kinds_build() {
        let kinds = [
            SchemeKind::Ideal,
            SchemeKind::Scrubbing,
            SchemeKind::ScrubbingW0,
            SchemeKind::MMetric,
            SchemeKind::Hybrid,
            SchemeKind::Lwt { k: 4 },
            SchemeKind::LwtNoConversion { k: 2 },
            SchemeKind::Select { k: 4, s: 1 },
            SchemeKind::Tlc,
        ];
        for k in kinds {
            let mut dev = k.build(1);
            // Every device must answer a read without panicking.
            let r = dev.on_read(0, 10.0);
            assert!(r.latency_ns >= 150, "{k}");
            let _ = k.storage();
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn faulty_builds_cover_the_injectable_schemes() {
        let injectable = [
            SchemeKind::Scrubbing,
            SchemeKind::ScrubbingW0,
            SchemeKind::Hybrid,
            SchemeKind::Lwt { k: 4 },
            SchemeKind::LwtNoConversion { k: 2 },
            SchemeKind::Select { k: 4, s: 1 },
        ];
        for k in injectable {
            let mut dev = k.build_faulty(1, 2, 0, 0).expect("injectable scheme");
            let r = dev.on_read(0, 10.0);
            assert!(r.latency_ns >= 150, "{k}");
        }
        for k in [SchemeKind::Ideal, SchemeKind::MMetric, SchemeKind::Tlc] {
            assert!(k.build_faulty(1, 2, 0, 0).is_none(), "{k}");
            // Rejected up front, naming the scheme and the layer.
            let worn = DeviceSpec {
                wear: Some(WearConfig::new(3)),
                ..k.into()
            };
            let err = worn.validate().expect_err("no injected read path");
            assert_eq!(
                err,
                SpecError {
                    scheme: k,
                    layer: "wear"
                }
            );
            assert!(
                err.to_string()
                    .starts_with(&format!("{k} cannot take wear")),
                "{err}"
            );
        }
    }

    #[test]
    fn storage_maps_to_expected_variants() {
        assert_eq!(SchemeKind::Tlc.storage().tlc_cells, 432);
        assert_eq!(SchemeKind::Scrubbing.storage().mlc_cells, 304);
        assert_eq!(SchemeKind::Lwt { k: 4 }.storage().slc_bits, 6);
    }
}
