//! The `tune` workload: one autotune per op from a fresh `KernelCache`,
//! as `lgenc --tune` runs it. Closed loop, one tune at a time; a BLAC
//! tune evaluates its candidates on a pool of `nproc` workers.

use crate::inputs::{self, Input, PoolSpec};
use crate::layers::{self, compile_one_shot, contained, replay_candidates, tune, Tuned, KERNEL};
use crate::stats;
use crate::trace::Tracer;
use crate::{med, nproc, peak_rss_mb, repeated_setup, Args, Report, Sample};
use lgen_machine::Measurement;
use std::time::{Duration, Instant};

/// 950 inputs over every family; one in three tunes pruned with `topk:4`.
/// Sizes are capped (32, programs 4): a tune simulates every candidate,
/// so its cost grows with the simulated instruction count, and larger
/// caps left p99 to the few most expensive inputs a seed happened to draw.
const SPEC: PoolSpec = PoolSpec {
    len: 950,
    max_size: 32,
    max_program_size: 4,
    extra_every: 0,
    prune_every: 3,
};

const LAPS: usize = 400;

/// Set-up warms the worker pool and allocator with one tune of each of
/// the first `WARMUP` inputs of a fixed-seed pool, the same work for
/// every `--seed`.
const WARMUP: usize = 57;
const WARMUP_SEED: u64 = 0x3a3a;

/// The first result seen for one input.
struct Winner {
    c_hash: u64,
    kernel: lgen_cir::Kernel,
    measurement: Measurement,
}

fn setup(seed: u64) -> Result<(Vec<Input>, Vec<usize>), String> {
    let pool = inputs::pool(seed, SPEC);
    let sched = inputs::schedule(seed, pool.len(), LAPS);
    for input in inputs::pool(WARMUP_SEED, SPEC).iter().take(WARMUP) {
        let _ = contained(|| tune(input, nproc()).map(|t| t.out.c_hash));
    }
    Ok((pool, sched))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let ((pool, sched), setup_s) = repeated_setup(3, || setup(args.seed))?;
    let threads = nproc();
    let mut winners: Vec<Option<Winner>> = (0..pool.len()).map(|_| None).collect();
    let mut ops: Vec<(usize, Option<u64>)> = Vec::new();
    let mut samples = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let idx = sched[k % sched.len()];
        k += 1;
        let t = Instant::now();
        let result = contained(|| tune(&pool[idx], threads));
        samples.push(Sample {
            at: start.elapsed(),
            latency_us: t.elapsed().as_nanos() as f64 / 1e3,
            ok: result.is_ok(),
        });
        let hash = result.ok().map(|tuned| {
            let h = tuned.out.c_hash;
            winners[idx].get_or_insert(Winner {
                c_hash: h,
                kernel: tuned.out.kernel,
                measurement: tuned.measurement,
            });
            h
        });
        ops.push((idx, hash));
    }
    let wall = start.elapsed();
    let mut r = Report::default();
    r.timing(&samples, wall);
    r.note(
        "pool_laps",
        format!("{:.2}", ops.len() as f64 / pool.len() as f64),
    );
    let input_ok = check(&pool, &mut winners, &mut r);
    r.attempted = ops.len() as u64;
    r.failed = ops
        .iter()
        .filter(|(i, h)| {
            h.is_none() || !input_ok[*i] || *h != winners[*i].as_ref().map(|w| w.c_hash)
        })
        .count() as u64;
    r.metric("peak_rss_mb", peak_rss_mb("self"), "MiB");
    r.metric("setup_s", setup_s, "s");
    Ok(r)
}

/// Completes and checks the winners of every pool input: tunes inputs
/// the loop never reached, validates each winner against the reference,
/// requires an exhaustive winner's cycles to be at most the
/// default-config kernel's (pruned misses are counted only), and
/// re-tunes a few BLACs on one worker to confirm the pool width does not
/// change the winner. Returns the per-input verdicts and adds
/// `kernel_flops_per_cycle_geomean` over the whole pool.
fn check(pool: &[Input], winners: &mut [Option<Winner>], r: &mut Report) -> Vec<bool> {
    let mut input_ok = vec![true; pool.len()];
    let mut fail = |i: usize, msg: String, r: &mut Report| {
        input_ok[i] = false;
        r.failed_checks
            .push(format!("{}: {msg}", pool[i].describe()));
    };
    let mut fpc = Vec::new();
    let mut width_checked = 0;
    let mut pruned_worse = 0;
    for (i, input) in pool.iter().enumerate() {
        if winners[i].is_none() {
            match contained(|| tune(input, nproc())) {
                Ok(t) => {
                    winners[i] = Some(Winner {
                        c_hash: t.out.c_hash,
                        kernel: t.out.kernel,
                        measurement: t.measurement,
                    })
                }
                Err(e) => {
                    fail(i, format!("tune failed: {e}"), r);
                    continue;
                }
            }
        }
        let w = winners[i].as_ref().expect("filled above");
        if let Err(e) = layers::validate(input, &w.kernel, 1) {
            fail(i, e, r);
        }
        let default = contained(|| {
            let out = compile_one_shot(&input.text, KERNEL, &input.config())?;
            layers::simulate(input, &out.kernel)
        });
        match default {
            // A pruned search never simulates the candidates the static
            // model ranks out, so it may miss the default: counted and
            // reported, not a failure.
            Ok(d) if w.measurement.cycles > d.cycles && input.prune => {
                pruned_worse += 1;
                eprintln!(
                    "perfbench: pruned tune of {} kept {} cycles, default config has {}",
                    input.describe(),
                    w.measurement.cycles,
                    d.cycles
                );
            }
            Ok(d) if w.measurement.cycles > d.cycles => fail(
                i,
                format!(
                    "winner {} cycles > default-config {} cycles",
                    w.measurement.cycles, d.cycles
                ),
                r,
            ),
            Ok(_) => {}
            Err(e) => fail(i, format!("default compile: {e}"), r),
        }
        if input.single() && width_checked < 4 && nproc() > 1 {
            width_checked += 1;
            match contained(|| tune(input, 1)) {
                Ok(t) if t.out.c_hash == w.c_hash => {}
                Ok(_) => fail(i, "pool width 1 and nproc pick different winners".into(), r),
                Err(e) => fail(i, format!("width-1 tune: {e}"), r),
            }
        }
        if w.measurement.flops > 0 {
            fpc.push(w.measurement.flops_per_cycle());
        }
    }
    r.metric(
        "kernel_flops_per_cycle_geomean",
        stats::geomean(&fpc).unwrap_or(0.0),
        "flops/cycle",
    );
    let digest = stats::set_digest(winners.iter().flatten().map(|w| w.c_hash));
    r.note("c_output_digest", format!("{digest:016x}"));
    r.note("width_checked", width_checked);
    r.note("pruned_winners_worse_than_default", pruned_worse);
    input_ok
}

/// Traced tune phase: each op is a tune inside a `core.tune` span,
/// followed (outside the op's time) by a replay of its candidates one
/// layer call at a time. In the main phase a plain tune of the same input
/// runs before each traced one, and their p50 ratio is the overhead.
pub fn run_traced(args: &Args, t: &mut Tracer, main: bool) -> Result<Report, String> {
    let pool = inputs::pool(args.seed, SPEC);
    let sched = inputs::schedule(args.seed, pool.len(), LAPS);
    let threads = nproc();
    let mut r = Report::default();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut candidates, mut measured) = (0u64, 0u64);
    let (mut pruned_cands, mut pruned) = (0u64, 0u64);
    let (mut hits, mut lookups, mut memo_hits, mut memo_lookups) = (0u64, 0u64, 0u64, 0u64);
    let mut per_tune_candidates = Vec::new();
    let mut rank = Vec::new();
    let mut replay_mismatches = 0usize;
    let mut validated = vec![false; pool.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut k = 0;
    while Instant::now() < deadline {
        let idx = sched[k % sched.len()];
        k += 1;
        let input = &pool[idx];
        r.attempted += 1;
        if main {
            let t0 = Instant::now();
            let _ = contained(|| tune(input, threads).map(|x| x.out.c_hash));
            plain.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        t.next_op();
        let t1 = Instant::now();
        let result: Result<Tuned, String> =
            t.span("core.tune", |_| contained(|| tune(input, threads)));
        traced.push(t1.elapsed().as_nanos() as f64 / 1e3);
        let tuned = match result {
            Ok(x) => x,
            Err(e) => {
                r.failed += 1;
                r.failed_checks.push(format!("{}: {e}", input.describe()));
                continue;
            }
        };
        if !validated[idx] {
            validated[idx] = true;
            if let Err(e) = layers::validate(input, &tuned.out.kernel, 1) {
                r.failed += 1;
                r.failed_checks.push(e);
            }
        }
        match t.span("core.replay", |t| replay_candidates(t, input, &tuned)) {
            Ok(n) => replay_mismatches += n,
            Err(e) => r
                .failed_checks
                .push(format!("replay of {}: {e}", input.describe())),
        }
        per_tune_candidates.push(tuned.candidates as f64);
        candidates += tuned.candidates as u64;
        measured += tuned.samples.len() as u64;
        if input.prune {
            pruned_cands += tuned.candidates as u64;
            pruned += tuned.pruned as u64;
            rank.extend(tuned.rank_correlation);
        }
        let s = tuned.cache.stats();
        hits += s.hits;
        lookups += s.hits + s.misses;
        memo_hits += s.memo_hits;
        memo_lookups += s.memo_hits + s.memo_misses;
    }
    let sim_us: f64 = t.self_us("machine.simulate").iter().sum();
    let dyn_insts = t.counts("machine.dyn_insts");
    r.metric("cir.interp_us", med(&t.self_us("cir.interp")), "us");
    r.metric("cir.interp_dyn_insts", med(dyn_insts), "count");
    r.metric(
        "machine.simulate_us",
        med(&t.self_us("machine.simulate")),
        "us",
    );
    r.metric("machine.dyn_insts", med(dyn_insts), "count");
    r.metric(
        "machine.insts_per_us",
        if sim_us > 0.0 {
            dyn_insts.iter().sum::<f64>() / sim_us
        } else {
            0.0
        },
        "1/us",
    );
    r.metric(
        "analysis.static_us",
        med(&t.self_us("analysis.static")),
        "us",
    );
    r.metric("analysis.rank_correlation", med(&rank), "ratio");
    r.metric(
        "analysis.pruned_frac",
        stats::frac(pruned, pruned_cands),
        "ratio",
    );
    r.metric("core.tune.candidates", med(&per_tune_candidates), "count");
    r.metric(
        "core.tune.measured_frac",
        stats::frac(measured, candidates),
        "ratio",
    );
    r.metric(
        "core.candidate_us",
        med(t.counts("core.candidate_us")),
        "us",
    );
    r.metric("core.cache.hit_frac", stats::frac(hits, lookups), "ratio");
    r.metric(
        "core.memo.hit_frac",
        stats::frac(memo_hits, memo_lookups),
        "ratio",
    );
    r.metric("trace.replay_mismatches", replay_mismatches as f64, "count");
    if main {
        r.metric(
            "trace_overhead_frac",
            med(&traced) / med(&plain) - 1.0,
            "ratio",
        );
    }
    r.note("ops", traced.len());
    Ok(r)
}
