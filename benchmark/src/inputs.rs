//! The one seeded input generator behind every workload.
//!
//! Inputs are LL sources: the paper's BLAC suite (§5.1.1) at sizes drawn
//! from the sweep ranges of `crates/bench/src/drivers.rs::sweeps`, plus
//! multi-statement programs (Kalman predict with symmetric operands,
//! triangular apply, and `t = A*x; y = A*t` chains). Each input runs on
//! one of the four modelled cores under the base or full variant.
//!
//! Pools are *stratified*: entry `i` of a pool takes its family, size band
//! and (core, variant) pair round-robin (every (band, pair) combination
//! equally often where the pool has room for all of them), and the seed
//! only picks the exact size inside the band and the pairings. Every seed therefore
//! yields the same mix of cheap and expensive inputs, which keeps the
//! medians and tails comparable across seeds.

use lgen_core::{CompileConfig, Variant};
use lgen_isa::Microarch;
use lgen_ll::{parse_program, Blac, Program, Statement};

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Size sweeps of the paper's figures (`drivers.rs::sweeps`).
pub mod sweeps {
    pub const PANEL: &[usize] = &[
        2, 5, 8, 16, 23, 36, 64, 101, 128, 254, 361, 512, 695, 893, 1024, 1190,
    ];
    pub const PANEL_SHORT: &[usize] = &[2, 6, 12, 24, 48, 96, 190, 380, 574, 710, 946];
    pub const MICRO: &[usize] = &[2, 3, 4, 5, 6, 7, 8, 9, 10];
    pub const VARYING: &[usize] = &[2, 9, 16, 23, 30, 37, 44, 58, 72, 86, 100];
    pub const VECTOR: &[usize] = &[16, 64, 256, 542, 1082, 2162, 3242, 3782];
    pub const LEFTOVER: &[usize] = &[2, 4, 6, 8, 10, 12, 16, 20, 24];
}

/// One input family: a shape builder over one size sweep.
struct Family {
    name: &'static str,
    /// Multi-statement program (capped by `PoolSpec::max_program_size`).
    program: bool,
    sizes: &'static [usize],
    /// The LL source at size `n`.
    build: fn(usize) -> String,
}

fn blac_text(b: Blac) -> String {
    let n = b.operands.len();
    Program {
        operands: b.operands,
        temps: vec![false; n],
        statements: vec![Statement {
            target: b.output,
            expr: b.expr,
        }],
    }
    .text()
}

fn kalman(n: usize) -> String {
    let m = (n / 2).max(1);
    format!(
        "F = matrix({n}, {n})\nB = matrix({n}, {m})\nu = vector({m})\nx = vector({n})\n\
         x_next = vector({n})\nP = matrix({n}, {n}) symmetric\nQ = matrix({n}, {n}) symmetric\n\
         P_next = matrix({n}, {n})\n\
         x_next = F * x + B * u;\nS = P * F';\nP_next = F * S + Q;\n"
    )
}

fn triangular(n: usize) -> String {
    let side = if n.is_multiple_of(2) {
        "lower"
    } else {
        "upper"
    };
    format!(
        "L = matrix({n}, {n}) triangular({side})\nx = vector({n})\ny = vector({n})\n\
         t = L * x;\ny = L' * t;\n"
    )
}

fn chain(n: usize) -> String {
    format!("A = matrix({n}, {n})\nx = vector({n})\ny = vector({n})\nt = A * x;\ny = A * t;\n")
}

use lgen_ll::paper;
use sweeps::*;

/// The families, in pool round-robin order.
fn families() -> Vec<Family> {
    macro_rules! fam {
        ($name:expr, $sizes:expr, $f:expr) => {
            Family {
                name: $name,
                program: false,
                sizes: $sizes,
                build: $f,
            }
        };
        (program $name:expr, $sizes:expr, $f:expr) => {
            Family {
                name: $name,
                program: true,
                sizes: $sizes,
                build: $f,
            }
        };
    }
    vec![
        fam!("mvm 4xn", PANEL, |n| blac_text(paper::mvm(4, n))),
        fam!("mvm nxn", MICRO, |n| blac_text(paper::mvm(n, n))),
        fam!("mmm 4x4xn", PANEL_SHORT, |n| blac_text(paper::mmm(4, 4, n))),
        fam!("mmm nxnxn", MICRO, |n| blac_text(paper::mmm(n, n, n))),
        fam!("axpy n", VECTOR, |n| blac_text(paper::axpy(n))),
        fam!("gemv 4xn", PANEL, |n| blac_text(paper::gemv(4, n))),
        fam!("gemv nx4", PANEL, |n| blac_text(paper::gemv(n, 4))),
        fam!("gemv 30xn", VARYING, |n| blac_text(paper::gemv(30, n))),
        fam!("gemm 4xnx4", PANEL_SHORT, |n| blac_text(paper::gemm(
            4, n, 4
        ))),
        fam!("gemm nxnxn", MICRO, |n| blac_text(paper::gemm(n, n, n))),
        fam!("two_gemv 4xn", PANEL, |n| blac_text(paper::two_gemv(4, n))),
        fam!("bilinear 4xn", PANEL, |n| blac_text(paper::bilinear(4, n))),
        fam!("bilinear nxn", MICRO, |n| blac_text(paper::bilinear(n, n))),
        fam!("addt_gemm nx4x4", PANEL_SHORT, |n| blac_text(
            paper::addt_gemm(n, 4, 4)
        )),
        fam!("madd nxn", VARYING, |n| blac_text(paper::madd(n, n))),
        fam!("transpose 4xn", PANEL, |n| blac_text(paper::transpose(
            4, n
        ))),
        fam!(program "kalman n", MICRO, kalman),
        fam!(program "triangular n", LEFTOVER, triangular),
        fam!(program "chain n", LEFTOVER, chain),
    ]
}

/// Per-workload generation knobs.
#[derive(Clone, Copy, Debug)]
pub struct PoolSpec {
    /// Entries in the pool.
    pub len: usize,
    /// Upper size bound applied to every sweep (the workload's cost cap).
    pub max_size: usize,
    /// Upper size bound for the multi-statement program families.
    pub max_program_size: usize,
    /// One in `extra_every` single-BLAC entries asks for alignment
    /// versioning, and another one in `extra_every` for peeling
    /// (0 = never).
    pub extra_every: usize,
    /// One in `prune_every` entries tunes with `PrunePolicy::TopK(4)`
    /// (0 = never).
    pub prune_every: usize,
}

/// One generated input.
#[derive(Clone, Debug)]
pub struct Input {
    /// Family and size, e.g. `gemv 4xn n=37`.
    pub label: String,
    /// LL source text.
    pub text: String,
    /// The parsed source.
    pub program: Program,
    pub target: Microarch,
    pub variant: Variant,
    pub version_align: bool,
    pub peel: bool,
    pub prune: bool,
}

impl Input {
    /// Whether the input takes the single-kernel (BLAC) path: one
    /// statement and no temporaries, exactly as `lgenc` decides.
    pub fn single(&self) -> bool {
        self.program.statements.len() == 1 && !self.program.temps.iter().any(|&t| t)
    }

    /// The compile configuration `lgenc --target <t> --variant <v>` builds.
    pub fn config(&self) -> CompileConfig {
        let mut cfg = CompileConfig::variant(self.target, self.variant);
        if self.single() && self.version_align {
            cfg = cfg.with_versioning();
        }
        if self.single() && self.peel {
            cfg = cfg.with_peeling();
        }
        cfg
    }

    pub fn flops(&self) -> u64 {
        self.program.flops()
    }

    pub fn describe(&self) -> String {
        let mut s = format!(
            "{} on {} ({})",
            self.label,
            target_name(self.target),
            variant_name(self.variant)
        );
        if self.version_align {
            s.push_str(" --version-align");
        }
        if self.peel {
            s.push_str(" --peel");
        }
        if self.prune {
            s.push_str(" --prune topk:4");
        }
        s
    }
}

/// The `--target` spelling of a core, as `lgenc` and `lgend` accept it.
pub fn target_name(t: Microarch) -> &'static str {
    match t {
        Microarch::Atom => "atom",
        Microarch::CortexA8 => "cortex-a8",
        Microarch::CortexA9 => "cortex-a9",
        Microarch::Arm1176 => "arm1176",
        other => unreachable!("only the four evaluated cores are generated, not {other:?}"),
    }
}

pub fn variant_name(v: Variant) -> &'static str {
    match v {
        Variant::Base => "base",
        Variant::Align => "align",
        Variant::Mvm => "mvm",
        Variant::Full => "full",
    }
}

/// The eight (core, variant) pairs every input family is spread over.
fn pairs() -> Vec<(Microarch, Variant)> {
    let mut v = Vec::new();
    for t in Microarch::EVALUATED {
        for var in [Variant::Base, Variant::Full] {
            v.push((t, var));
        }
    }
    v
}

/// Element `round % n` of a seeded permutation of `0..n`, fresh for every
/// block of `n` rounds: each block covers every stratum exactly once, and
/// the pairing between kinds of strata changes from block to block.
fn stratum(seed: u64, family: usize, kind: u64, round: usize, n: usize) -> usize {
    let block = (round / n) as u64;
    let mut rng = Rng::new(seed ^ (family as u64) << 40 ^ kind << 32 ^ block);
    let mut perm: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut perm);
    perm[round % n]
}

/// Generates a stratified pool (see the module docs).
pub fn pool(seed: u64, spec: PoolSpec) -> Vec<Input> {
    let mut rng = Rng::new(seed);
    let fams = families();
    let pairs = pairs();
    let extra_offset = rng.below(spec.extra_every.max(1));
    let prune_offset = rng.below(spec.prune_every.max(1));
    let mut out = Vec::with_capacity(spec.len);
    for i in 0..spec.len {
        let f = i % fams.len();
        let round = i / fams.len();
        let fam = &fams[f];
        let cap = if fam.program {
            spec.max_program_size
        } else {
            spec.max_size
        };
        let mut sizes: Vec<usize> = fam.sizes.iter().copied().filter(|&s| s <= cap).collect();
        if sizes.len() < fam.sizes.len() {
            sizes.push(cap + 1); // the capped last band ends at the cap
        }
        let bands = sizes.len() - 1;
        let combos = bands * pairs.len();
        let (band, pair) = if combos <= spec.len / fams.len() {
            // Few enough (band, pair) combinations to cover them all: every
            // seed gets each one equally often.
            let c = stratum(seed, f, 0, round, combos);
            (c % bands, c / bands)
        } else {
            (
                stratum(seed, f, 0, round, bands),
                stratum(seed, f, 1, round, pairs.len()),
            )
        };
        let (lo, hi) = (sizes[band], sizes[band + 1]);
        let n = lo + rng.below(hi - lo);
        let (target, variant) = pairs[pair];
        let text = (fam.build)(n);
        let program = parse_program(&text).expect("generated LL sources parse");
        let mut input = Input {
            label: format!("{} n={n}", fam.name),
            text,
            program,
            target,
            variant,
            version_align: false,
            peel: false,
            prune: spec.prune_every > 0 && (i + prune_offset).is_multiple_of(spec.prune_every),
        };
        if input.single() && spec.extra_every > 0 {
            // By round, so every seed gives the extras to the same families.
            let k = (round + extra_offset) % spec.extra_every;
            input.peel = k == 0;
            input.version_align = k == spec.extra_every / 2 && versionable(&input.program);
        }
        out.push(input);
    }
    out
}

/// Alignment versioning makes `4^a + 1` versions over the `a` vector-sized
/// parameters (it refuses `a > 3`); the workload keeps to `a <= 2`, so one
/// versioned compile costs at most 17 bodies.
fn versionable(program: &Program) -> bool {
    program
        .operands
        .iter()
        .filter(|o| o.dims.rows * o.dims.cols >= 4)
        .count()
        <= 2
}

/// A seeded visiting order over `0..len` covering every index once per
/// `len` ops (a fresh permutation per lap), so a time-bounded loop touches
/// every pool entry before repeating one.
pub fn schedule(seed: u64, len: usize, laps: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5c4e_d01e);
    let mut out = Vec::with_capacity(len * laps);
    for _ in 0..laps {
        let mut lap: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut lap);
        out.extend(lap);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: PoolSpec = PoolSpec {
        len: 400,
        max_size: 4000,
        max_program_size: 24,
        extra_every: 10,
        prune_every: 3,
    };

    #[test]
    fn one_seed_always_gives_the_same_inputs_and_schedule() {
        let a = pool(7, SPEC);
        let b = pool(7, SPEC);
        let texts = |p: &[Input]| p.iter().map(|i| i.describe() + &i.text).collect::<Vec<_>>();
        assert_eq!(texts(&a), texts(&b));
        assert_eq!(schedule(7, 50, 3), schedule(7, 50, 3));
        assert_ne!(texts(&a), texts(&pool(8, SPEC)));
        assert_ne!(schedule(7, 50, 3), schedule(8, 50, 3));
    }

    #[test]
    fn pools_are_stratified_across_seeds() {
        // Same family and pair counts for every seed; only sizes move.
        let count = |seed| {
            let mut m = std::collections::BTreeMap::new();
            for i in pool(seed, SPEC) {
                let fam = i.label.split(" n=").next().unwrap().to_string();
                *m.entry(fam).or_insert(0) += 1;
            }
            m
        };
        assert_eq!(count(1), count(2));
        let pairs_of = |seed| {
            let mut v: Vec<_> = pool(seed, SPEC)
                .iter()
                .map(|i| (target_name(i.target), variant_name(i.variant)))
                .collect();
            v.sort();
            v
        };
        assert_eq!(pairs_of(1).len(), SPEC.len);
    }

    #[test]
    fn schedule_covers_every_entry_each_lap() {
        let s = schedule(3, 40, 2);
        for lap in s.chunks(40) {
            let mut l = lap.to_vec();
            l.sort();
            assert_eq!(l, (0..40).collect::<Vec<_>>());
        }
    }

    #[test]
    fn extras_only_on_single_blacs() {
        let p = pool(11, SPEC);
        assert!(p.iter().any(|i| i.version_align));
        assert!(p.iter().any(|i| i.peel));
        assert!(p
            .iter()
            .filter(|i| i.version_align || i.peel)
            .all(Input::single));
        assert!(p.iter().any(|i| !i.single()));
    }
}
