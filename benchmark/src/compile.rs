//! The `compile` workload: parse one LL source, one uncached compile
//! through the public entry point, unparse (`lgenc` without `--tune`).
//! Closed loop, one thread.

use crate::inputs::{self, Input, PoolSpec};
use crate::layers::{self, compile_one_shot, compile_staged, contained, KERNEL};
use crate::stats;
use crate::trace::Tracer;
use crate::{med, peak_rss_mb, repeated_setup, Args, Report, Sample};
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// 2400 inputs over every family, full sweep ranges; in one round of
/// twenty the single BLACs use `--peel`, in another `--version-align`.
/// Those extras are the costliest compiles, so p99 rests on a few dozen
/// of them; a smaller pool left it to the few a seed happened to draw.
const SPEC: PoolSpec = PoolSpec {
    len: 2400,
    max_size: 4000,
    max_program_size: 24,
    extra_every: 20,
    prune_every: 0,
};

/// Visiting laps generated up front; a run that finishes them wraps.
const LAPS: usize = 60;

struct Op {
    input: usize,
    c_hash: Option<u64>,
}

fn setup(seed: u64) -> Result<(Vec<Input>, Vec<usize>), String> {
    let pool = inputs::pool(seed, SPEC);
    // Warm-up: every input once (allocator, page faults, lazy statics).
    for input in &pool {
        let _ = contained(|| compile_one_shot(&input.text, KERNEL, &input.config()));
    }
    let sched = inputs::schedule(seed, pool.len(), LAPS);
    Ok((pool, sched))
}

fn op(input: &Input) -> Option<u64> {
    contained(|| compile_one_shot(&input.text, KERNEL, &input.config()))
        .map(|o| o.c_hash)
        .ok()
}

pub fn run(args: &Args) -> Result<Report, String> {
    let ((pool, sched), setup_s) = repeated_setup(3, || setup(args.seed))?;
    let mut ops = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let idx = sched[k % sched.len()];
        k += 1;
        let t = Instant::now();
        let c_hash = op(&pool[idx]);
        samples.push(Sample {
            at: start.elapsed(),
            latency_us: t.elapsed().as_nanos() as f64 / 1e3,
            ok: c_hash.is_some(),
        });
        ops.push(Op { input: idx, c_hash });
    }
    let wall = start.elapsed();
    let mut r = Report::default();
    r.timing(&samples, wall);
    check(&pool, &ops, &mut r);
    r.metric("peak_rss_mb", peak_rss_mb("self"), "MiB");
    r.metric("setup_s", setup_s, "s");
    Ok(r)
}

/// Validates every pool input's kernel against the reference, measures
/// it, and fails every op whose C differs from that validated kernel's.
/// Adds `kernel_flops_per_cycle_geomean` over the whole pool, so the
/// figure does not depend on how far the timed loop got.
fn check(pool: &[Input], ops: &[Op], r: &mut Report) {
    let mut reference: Vec<Option<u64>> = Vec::with_capacity(pool.len());
    let mut fpc = Vec::new();
    for input in pool {
        let verdict = contained(|| {
            let out = compile_one_shot(&input.text, KERNEL, &input.config())?;
            layers::validate(input, &out.kernel, 1)?;
            let m = layers::simulate(input, &out.kernel)?;
            Ok((out.c_hash, m))
        });
        match verdict {
            Ok((hash, m)) => {
                if m.flops > 0 {
                    fpc.push(m.flops_per_cycle());
                }
                reference.push(Some(hash));
            }
            Err(e) => {
                r.failed_checks.push(format!("{}: {e}", input.describe()));
                reference.push(None);
            }
        }
    }
    r.attempted = ops.len() as u64;
    r.failed = ops
        .iter()
        .filter(|o| o.c_hash.is_none() || o.c_hash != reference[o.input])
        .count() as u64;
    r.metric(
        "kernel_flops_per_cycle_geomean",
        stats::geomean(&fpc).unwrap_or(0.0),
        "flops/cycle",
    );
    let digest = stats::set_digest(reference.iter().flatten().copied());
    r.note("c_output_digest", format!("{digest:016x}"));
}

/// Traced compile phase. Each op runs the one-shot compile and its staged
/// twin (spans around every layer call) on the same input; the staged C
/// must match byte for byte. In the main phase both are timed and their
/// p50 ratio is the tracing overhead.
pub fn run_traced(args: &Args, t: &mut Tracer, main: bool) -> Result<Report, String> {
    let pool = inputs::pool(args.seed, SPEC);
    let sched = inputs::schedule(args.seed, pool.len(), LAPS);
    let mut r = Report::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut mismatches = 0u64;
    let mut validated = vec![false; pool.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let idx = sched[k % sched.len()];
        k += 1;
        let input = &pool[idx];
        let cfg = input.config();
        r.attempted += 1;
        let t0 = Instant::now();
        let one = contained(|| compile_one_shot(&input.text, KERNEL, &cfg));
        plain.push(t0.elapsed().as_nanos() as f64 / 1e3);
        t.next_op();
        let t1 = Instant::now();
        let staged = t.span("op.compile", |t| {
            contained(|| compile_staged(t, &input.text, KERNEL, &cfg))
        });
        traced.push(t1.elapsed().as_nanos() as f64 / 1e3);
        let (Ok(one), Ok(staged)) = (one, staged) else {
            r.failed += 1;
            continue;
        };
        if one.c_hash != staged.c_hash {
            mismatches += 1;
            eprintln!(
                "perfbench: staged C differs from one-shot C: {}",
                input.describe()
            );
        }
        t.span("cir.verify", |_| lgen_cir::verify_kernel(&staged.kernel));
        if !validated[idx] {
            validated[idx] = true;
            if let Err(e) = layers::validate(input, &one.kernel, 1) {
                r.failed += 1;
                r.failed_checks.push(e);
            }
        }
    }
    for (name, span) in [
        ("ll.parse_us", "ll.parse"),
        ("sigma.fuse_us", "sigma.fuse"),
        ("sigma.codegen_us", "sigma.codegen"),
        ("cir.unroll_us", "cir.unroll"),
        ("cir.scalrep_us", "cir.scalrep"),
        ("cir.copyprop_us", "cir.copyprop"),
        ("cir.dce_us", "cir.dce"),
        ("cir.align_us", "cir.align"),
        ("cir.version_us", "cir.version"),
        ("cir.verify_us", "cir.verify"),
        ("cir.unparse_us", "cir.unparse"),
    ] {
        r.metric(name, med(&t.self_us(span)), "us");
    }
    for name in [
        "sigma.insts",
        "cir.unroll_insts",
        "cir.scalrep_insts",
        "cir.copyprop_insts",
        "cir.dce_insts",
        "cir.align_insts",
    ] {
        r.metric(name, med(t.counts(name)), "count");
    }
    r.metric("cir.c_bytes", med(t.counts("cir.c_bytes")), "bytes");
    r.metric("trace.staged_mismatches", mismatches as f64, "count");
    if main {
        r.metric(
            "trace_overhead_frac",
            med(&traced) / med(&plain) - 1.0,
            "ratio",
        );
    }
    r.note("ops", plain.len());
    Ok(r)
}

/// `cir.cc_ok_frac`: the share of a fixed seeded sample of scalar
/// (ARM1176) and SSSE3 (Atom) kernels that `cc -std=c99 -fsyntax-only`
/// accepts (`-mssse3` for SSSE3). Skipped with a message when `cc` is
/// missing. Reported only: it stays out of the failure count.
pub fn cc_syntax_metric() -> Vec<crate::Metric> {
    if Command::new("cc")
        .arg("--version")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_err()
    {
        eprintln!("perfbench: cc not found; cir.cc_ok_frac skipped");
        return Vec::new();
    }
    let spec = PoolSpec {
        len: 200,
        max_size: 64,
        max_program_size: 8,
        extra_every: 0,
        prune_every: 0,
    };
    let sample = inputs::pool(0xCC, spec);
    let mut picked = Vec::new();
    for arch in [lgen_isa::Microarch::Arm1176, lgen_isa::Microarch::Atom] {
        picked.extend(sample.iter().filter(|i| i.target == arch).take(8));
    }
    let mut ok = 0;
    for input in &picked {
        let isa = input.target.vector_isa();
        let Ok(out) = contained(|| compile_one_shot(&input.text, KERNEL, &input.config())) else {
            continue;
        };
        let c = lgen_cir::unparse::unparse(&out.kernel, isa);
        let mut cmd = Command::new("cc");
        cmd.args(["-std=c99", "-fsyntax-only"]);
        if isa == lgen_isa::VectorIsa::Ssse3 {
            cmd.arg("-mssse3");
        }
        let accepted = cmd
            .args(["-x", "c", "-"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .and_then(|mut child| {
                if let Some(mut stdin) = child.stdin.take() {
                    stdin.write_all(c.as_bytes())?;
                }
                child.wait()
            })
            .is_ok_and(|s| s.success());
        ok += usize::from(accepted);
    }
    vec![crate::Metric {
        name: "cir.cc_ok_frac".into(),
        value: stats::frac(ok as u64, picked.len() as u64),
        unit: "ratio",
    }]
}
