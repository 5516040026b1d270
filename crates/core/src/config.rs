//! Compilation configuration and the paper's plot variants.

use lgen_cir::passes::{PassPipeline, UnrollPolicy};
use lgen_cir::VerifyLevel;
use lgen_isa::Microarch;
use lgen_sigma::MvmStrategy;

/// The LGen variants compared throughout Chapter 5.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Variant {
    /// `LGen` — the base version without any thesis optimizations.
    Base,
    /// `LGen-Align` — alignment detection enabled (§3.2).
    Align,
    /// `LGen-MVM` — the MVH/RR matrix-vector strategy (§3.3).
    Mvm,
    /// `LGen-Full` — all optimizations (alignment detection + MVH/RR +
    /// specialized leftover ν-BLACs, §3.4).
    Full,
}

impl Variant {
    /// All four variants in plot order.
    pub const ALL: [Variant; 4] = [Variant::Base, Variant::Align, Variant::Mvm, Variant::Full];

    /// Plot label.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "LGen",
            Variant::Align => "LGen-Align",
            Variant::Mvm => "LGen-MVM",
            Variant::Full => "LGen-Full",
        }
    }
}

/// Full configuration for one compilation.
///
/// `Hash`/`Eq` make the config usable as part of the kernel-cache key:
/// every field below changes generated code (the [`PassPipeline`] hashes
/// structurally and [`fingerprint`](PassPipeline::fingerprint)s its spec),
/// so two compilations of the same BLAC under equal configs yield
/// identical kernels — and two configs with different pipelines never
/// collide.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CompileConfig {
    /// Target core (fixes the vector ISA).
    pub arch: Microarch,
    /// Matrix-vector strategy (§3.3).
    pub mvm: MvmStrategy,
    /// The C-IR optimization schedule. Variants with alignment detection
    /// (§3.2) end in the `align` pass; the base schedule omits it.
    pub pipeline: PassPipeline,
    /// Alignment versioning with runtime dispatch (§3.2.4) — opt-in, used
    /// for the arbitrary-alignment experiments (Fig. 5.9). Replaces the
    /// pipeline's `align` step with per-version detection.
    pub alignment_versioning: bool,
    /// Specialized leftover ν-BLACs on NEON (§3.4).
    pub specialized_leftovers: bool,
    /// §6 future-work loop peeling: version the kernel on a shared base
    /// offset of its (vector-sized) parameter arrays, peeling the leading
    /// elements of linearly-driven outputs so the main loops run aligned —
    /// the Eigen-style answer to the Fig. 5.9 limitation.
    pub peeling: bool,
    /// Loop unrolling decision (part of the autotuning search space).
    pub unroll: UnrollPolicy,
    /// Static verification level for the pipeline (does not change the
    /// generated code, but is part of the cache key so hits reflect the
    /// requested checking exactly).
    pub verify: VerifyLevel,
}

impl CompileConfig {
    /// Configuration for a paper variant on a core, with the default
    /// unrolling decision (the autotuner overrides it).
    pub fn variant(arch: Microarch, v: Variant) -> Self {
        let full = matches!(v, Variant::Full);
        let align = matches!(v, Variant::Align | Variant::Full);
        CompileConfig {
            arch,
            mvm: if matches!(v, Variant::Mvm | Variant::Full) {
                MvmStrategy::MvhRr
            } else {
                MvmStrategy::Classic
            },
            pipeline: if align {
                PassPipeline::standard()
            } else {
                PassPipeline::standard().without("align")
            },
            alignment_versioning: false,
            specialized_leftovers: full,
            peeling: false,
            unroll: UnrollPolicy::Full { max_trip: 8 },
            verify: VerifyLevel::from_env(),
        }
    }

    /// `LGen-Full` on `arch`.
    pub fn full(arch: Microarch) -> Self {
        Self::variant(arch, Variant::Full)
    }

    /// `LGen` (base) on `arch`.
    pub fn base(arch: Microarch) -> Self {
        Self::variant(arch, Variant::Base)
    }

    /// Returns a copy with a different unrolling decision.
    #[must_use]
    pub fn with_unroll(mut self, unroll: UnrollPolicy) -> Self {
        self.unroll = unroll;
        self
    }

    /// Returns a copy with a different optimization schedule.
    #[must_use]
    pub fn with_passes(mut self, pipeline: PassPipeline) -> Self {
        self.pipeline = pipeline;
        self
    }

    /// Returns a copy with alignment versioning enabled.
    #[must_use]
    pub fn with_versioning(mut self) -> Self {
        self.alignment_versioning = true;
        self
    }

    /// Returns a copy with §6-style loop peeling enabled.
    #[must_use]
    pub fn with_peeling(mut self) -> Self {
        self.peeling = true;
        self
    }

    /// Returns a copy with the given static verification level.
    #[must_use]
    pub fn with_verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_toggle_the_right_options() {
        let base = CompileConfig::variant(Microarch::Atom, Variant::Base);
        assert_eq!(base.mvm, MvmStrategy::Classic);
        assert!(!base.pipeline.contains("align"));
        assert!(!base.specialized_leftovers);
        assert_eq!(base.pipeline.to_spec(), "unroll,scalrep,copyprop,dce");

        let align = CompileConfig::variant(Microarch::Atom, Variant::Align);
        assert!(align.pipeline.contains("align"));
        assert_eq!(align.mvm, MvmStrategy::Classic);

        let mvm = CompileConfig::variant(Microarch::Atom, Variant::Mvm);
        assert!(!mvm.pipeline.contains("align"));
        assert_eq!(mvm.mvm, MvmStrategy::MvhRr);

        let full = CompileConfig::full(Microarch::CortexA8);
        assert!(full.pipeline.contains("align"));
        assert!(full.specialized_leftovers);
        assert_eq!(full.mvm, MvmStrategy::MvhRr);
        assert_eq!(full.pipeline, PassPipeline::standard());
    }

    #[test]
    fn with_passes_swaps_the_schedule() {
        let cfg = CompileConfig::full(Microarch::Atom);
        let custom = PassPipeline::parse("unroll,repeat(copyprop,dce)").unwrap();
        let swapped = cfg.clone().with_passes(custom.clone());
        assert_eq!(swapped.pipeline, custom);
        assert_ne!(cfg, swapped, "pipeline is part of config identity");
        assert!(!swapped.pipeline.contains("align"));
    }

    #[test]
    fn labels() {
        assert_eq!(Variant::Base.label(), "LGen");
        assert_eq!(Variant::Full.label(), "LGen-Full");
        assert_eq!(Variant::ALL.len(), 4);
    }
}
