//! `lgen-perfbench`: the repository's benchmark.
//!
//! ```text
//! lgen-perfbench --workload compile|tune|serve --seed N --seconds S --trace 0|1
//!                --lgend <path to lgend> [--out <dir>]
//! ```
//!
//! Untraced (`--trace 0`), it runs one workload and prints the end-to-end
//! metrics. Traced (`--trace 1`), it runs the named workload alternating
//! plain and traced ops (their p50 ratio is `trace_overhead_frac`), plus
//! shorter traced passes of the other two workloads, so every per-layer
//! metric is printed by every traced run. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. Details (the
//! seed, `nproc`, build profile, commit, output digests, spans) go to
//! stderr and to `<out>/`.

mod compile;
mod inputs;
mod json;
mod layers;
mod serve;
mod stats;
mod trace;
mod tune;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Knobs that silently change what the crates do; the benchmark clears
/// them for itself and for the `lgend` it spawns.
pub const PINNED_ENV: &[&str] = &[
    "LGEN_VERIFY",
    "LGEN_FAULTS",
    "LGEN_TRACE",
    "LGEN_SCHED_TRACE",
];

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub lgend: PathBuf,
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut lgend) =
        (None, None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(val()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => trace = Some(val()? == "1"),
            "--lgend" => lgend = Some(PathBuf::from(val()?)),
            "--out" => out = PathBuf::from(val()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["compile", "tune", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        lgend: lgend.ok_or("--lgend is required")?,
        out,
    })
}

/// One metric of the final JSON line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a phase hands back to `main`.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks outside single ops (determinism, tune quality) that failed.
    pub failed_checks: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Facts for the results file and stderr only.
    pub notes: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Latency and throughput metrics of a timed loop of length `wall`.
    ///
    /// The loop is cut into an odd number of equal time windows (at most
    /// [`MAX_WINDOWS`], about 1200 ops each), each window gets its own
    /// p50, p99 and throughput, and the report takes the median window: a
    /// burst of outside load that slows one window does not move the
    /// figures. Each window's p99 has about twelve samples beyond it.
    pub fn timing(&mut self, samples: &[Sample], wall: Duration) {
        let windows = match (samples.len() / 1200).clamp(1, MAX_WINDOWS) {
            w if w % 2 == 0 => w - 1,
            w => w,
        };
        let width = wall.as_secs_f64() / windows as f64;
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); windows];
        let mut ok = vec![0u64; windows];
        for s in samples {
            let w = ((s.at.as_secs_f64() / width) as usize).min(windows - 1);
            lat[w].push(s.latency_us);
            ok[w] += u64::from(s.ok);
        }
        let per = |f: &dyn Fn(usize) -> f64| med(&(0..windows).map(f).collect::<Vec<_>>());
        let q = |w: usize, p: f64| stats::quantile(&lat[w], p).unwrap_or(0.0);
        self.metric("latency_us_p50", per(&|w| q(w, 0.5)), "us");
        self.metric("latency_us_p99", per(&|w| q(w, 0.99)), "us");
        self.metric("throughput_ops_s", per(&|w| ok[w] as f64 / width), "ops/s");
        let tail = (0..windows)
            .map(|w| stats::beyond(&lat[w], 0.99))
            .min()
            .unwrap_or(0);
        self.note("samples", samples.len());
        self.note("windows", windows);
        self.note(
            "window_p50_us",
            format!(
                "{:.1?}",
                (0..windows).map(|w| q(w, 0.5)).collect::<Vec<_>>()
            ),
        );
        self.note("min_samples_beyond_p99_per_window", tail);
        if tail < 10 {
            eprintln!("perfbench: warning: a window has only {tail} samples beyond p99");
        }
    }
}

/// Upper bound on timing windows per run.
const MAX_WINDOWS: usize = 15;

/// One timed op: when it ended (since the loop started), how long it took,
/// and whether it succeeded.
pub struct Sample {
    pub at: Duration,
    pub latency_us: f64,
    pub ok: bool,
}

/// `VmHWM` of a process in MiB (`self` or a pid), from `/proc`.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeats a set-up `reps` times and returns the last result with the
/// median set-up time in seconds.
pub fn repeated_setup<T>(
    reps: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        let v = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    eprintln!("perfbench: set-up times (s): {times:?}");
    Ok((
        last.expect("reps >= 1"),
        stats::median(&times).expect("reps >= 1"),
    ))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn main() {
    for var in PINNED_ENV {
        std::env::remove_var(var);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(1);
    }
    let result = if args.trace {
        traced(&args)
    } else {
        match args.workload.as_str() {
            "compile" => compile::run(&args),
            "tune" => tune::run(&args),
            _ => serve::run(&args),
        }
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: run failed: {e}");
            std::process::exit(1);
        }
    };
    report.note("workload", &args.workload);
    report.note("seed", args.seed);
    report.note("seconds", args.seconds);
    report.note("trace", u8::from(args.trace));
    report.note("nproc", nproc());
    report.note(
        "profile",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    );
    report.note("commit", commit());
    report.note("pinned_env_cleared", PINNED_ENV.join(","));
    report.note("failed_frac", stats::frac(report.failed, report.attempted));
    for c in &report.failed_checks {
        eprintln!("perfbench: FAILED CHECK: {c}");
    }
    let correct = report.failed == 0 && report.failed_checks.is_empty();

    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            if m.value.is_finite() { m.value } else { 0.0 },
            m.unit
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failed
    );
    let mut notes = String::new();
    for (k, v) in &report.notes {
        eprintln!("perfbench: {k} = {v}");
        let _ = writeln!(notes, "{k}\t{v}");
    }
    let tag = format!(
        "{}-{}{}",
        args.workload,
        args.seed,
        if args.trace { "-trace" } else { "" }
    );
    let _ = std::fs::write(
        args.out.join(format!("result-{tag}.txt")),
        format!("{notes}{line}\n"),
    );
    println!("{line}");
}

/// The traced run: the named workload gets half the time with plain and
/// traced ops alternating; the other two workloads get a quarter each,
/// traced, so every per-layer metric comes out of every traced run.
fn traced(args: &Args) -> Result<Report, String> {
    let epoch = Instant::now();
    let mut order = vec![args.workload.clone()];
    order.extend(
        ["compile", "tune", "serve"]
            .iter()
            .filter(|w| **w != args.workload)
            .map(|w| w.to_string()),
    );
    let mut report = Report::default();
    let mut tracer = trace::Tracer::new(epoch, 0);
    for (i, w) in order.iter().enumerate() {
        let share = if i == 0 { 0.5 } else { 0.25 };
        let sub = Args {
            seconds: args.seconds * share,
            ..args.clone()
        };
        let main = i == 0;
        let mut t = trace::Tracer::new(epoch, i as u32 + 1);
        let part = match w.as_str() {
            "compile" => compile::run_traced(&sub, &mut t, main)?,
            "tune" => tune::run_traced(&sub, &mut t, main)?,
            _ => serve::run_traced(&sub, &mut t, main)?,
        };
        report.attempted += part.attempted;
        report.failed += part.failed;
        report.failed_checks.extend(part.failed_checks);
        report.metrics.extend(part.metrics);
        report
            .notes
            .extend(part.notes.into_iter().map(|(k, v)| (format!("{w}.{k}"), v)));
        tracer.absorb(t);
    }
    report.metrics.extend(compile::cc_syntax_metric());
    let path = args.out.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, tracer.chrome_json()).map_err(|e| e.to_string())?;
    report.note("spans", tracer.span_count());
    report.note("trace_file", path.display());
    // Stable order for readers of the JSON line.
    report.metrics.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(report)
}

/// Median of `v`, or 0 when the layer did no work this run.
pub fn med(v: &[f64]) -> f64 {
    stats::median(v).unwrap_or(0.0)
}
