//! The Mediator scheduler (§4.3–4.4, Fig. 4.1).
//!
//! One FIFO queue and one worker thread per (device, core): experiments on
//! the same core execute strictly one at a time; experiments that may run
//! on several cores (their affinity list) are enqueued on the least-loaded
//! one (load balancing). Jobs are processed synchronously (the caller
//! blocks, Fig. 4.2) or asynchronously with polling against the results
//! cache (Fig. 4.3), whose entries expire after a configurable time.
//!
//! **Fault tolerance.** A device farm sees flaky runs: a measurement that
//! segfaults, hangs, or trips a transient SSH-level error must not take
//! the worker (or the whole campaign) down. Every experiment attempt is
//! one [`run_outcomes`] call on the core's worker thread, the runtime
//! that also isolates the autotuner's candidates: a panic is reported as
//! a 500 (`InternalError`), never propagated into the core worker. An
//! optional per-experiment [`timeout`](ExperimentSpec::timeout) bounds
//! each attempt, which then runs on the worker's persistent deadline
//! runner: a run still going when it expires is abandoned (the thesis
//! kills the SSH session; threads cannot be killed, so the worker walks
//! away, the stray attempt finishes unobserved, and the runner is
//! replaced) and reported as a 408 (`InstructionTimeoutError`). No
//! thread is spawned per attempt or per job. Transient failures — the
//! work returning `Err` — are retried up to
//! [`retries`](ExperimentSpec::retries) times with exponential backoff
//! before the 405 is reported; the attempt count is surfaced in
//! [`ExperimentResults::attempts`]. A job is checked whole before any of
//! its experiments is enqueued, so a rejected job runs nothing. Finally,
//! a background sweeper settles asynchronous jobs and evicts expired
//! results-cache entries even when nobody polls, so a long-lived Mediator
//! cannot leak finished jobs.

use crate::api::{ApiError, ErrorReason, ExperimentResults, JobResults, JobState, JobStatus};
use lgen_core::pool::run_outcomes;
use lgen_core::JobOutcome;
use lgen_isa::Microarch;
use lgen_telemetry::{metric_counter, metric_histogram};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An experiment payload: runs on the assigned device core and returns one
/// output string per repetition (stdout/output-file contents in the
/// thesis). `Fn` (not `FnOnce`) so a transient failure can be retried.
pub(crate) type WorkFn = Box<dyn Fn(Microarch, usize) -> Result<Vec<String>, String> + Send + Sync>;

/// Shared form of the payload: every attempt hands the pool its own
/// owning handle, and a timed-out attempt outlives its call.
type SharedWork = Arc<dyn Fn(Microarch, usize) -> Result<Vec<String>, String> + Send + Sync>;

/// A device registration (replaces the SSH `Device` of Table A.1).
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Hostname-like identifier.
    pub hostname: String,
    /// Microarchitecture of its cores.
    pub arch: Microarch,
    /// Number of cores.
    pub cores: usize,
}

/// One experiment of a job (Table A.1, `Experiment`).
pub struct ExperimentSpec {
    /// Target device hostname.
    pub device: String,
    /// Cores this experiment may run on (Table A.1 `affinity`); empty
    /// means any core.
    pub affinity: Vec<usize>,
    /// The payload.
    pub work: WorkFn,
    /// Per-attempt deadline; an attempt still running when it expires is
    /// abandoned and reported as `InstructionTimeoutError` (408). `None`
    /// (the default) lets the attempt run to completion.
    pub timeout: Option<Duration>,
    /// How many times a transient failure (the work returning `Err`) is
    /// retried, with exponential backoff, before the error is reported.
    pub retries: usize,
}

impl ExperimentSpec {
    /// An experiment on any core of `device`, no timeout, no retries.
    pub fn new(device: impl Into<String>, work: WorkFn) -> Self {
        ExperimentSpec {
            device: device.into(),
            affinity: Vec::new(),
            work,
            timeout: None,
            retries: 0,
        }
    }

    /// Restricts the experiment to the given cores.
    #[must_use]
    pub fn on_cores(mut self, affinity: Vec<usize>) -> Self {
        self.affinity = affinity;
        self
    }

    /// Sets the per-attempt deadline.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the transient-failure retry bound.
    #[must_use]
    pub fn with_retries(mut self, retries: usize) -> Self {
        self.retries = retries;
        self
    }
}

/// What a worker reports per experiment: the outcome and how many
/// attempts it took.
type Verdict = (Result<Vec<String>, ApiError>, usize);

/// One experiment queued on a core.
struct Run {
    work: SharedWork,
    device: String,
    arch: Microarch,
    core: usize,
    timeout: Option<Duration>,
    retries: usize,
    /// When the experiment entered the core queue; the worker turns this
    /// into the queue-wait histogram.
    enqueued: Instant,
    reply: Sender<Verdict>,
}

struct CoreWorker {
    queue: Sender<Run>,
    pending: Arc<AtomicUsize>,
    handle: JoinHandle<()>,
}

struct DeviceHandle {
    arch: Microarch,
    cores: Vec<CoreWorker>,
    /// Serializes core selection + enqueue: least-loaded selection reads
    /// every core's `pending` counter, and without the lock two concurrent
    /// enqueues can both observe the same minimum and pile onto one core
    /// (TOCTOU). Held only for the (cheap) pick/increment/send sequence.
    enqueue: Mutex<()>,
}

/// A dispatched experiment: where it runs and its reply channel.
struct Wait {
    device_hostname: String,
    core: usize,
    reply: Receiver<Verdict>,
}

impl Wait {
    fn result(&self, (outcome, attempts): Verdict) -> ExperimentResults {
        ExperimentResults {
            device_hostname: self.device_hostname.clone(),
            core: self.core,
            attempts,
            outcome,
        }
    }
}

/// The verdict of an experiment whose worker hung up without one.
fn worker_died() -> Verdict {
    let died = ApiError::new(ErrorReason::InternalError, "worker died");
    (Err(died), 0)
}

/// An asynchronous job in the results cache: its experiments, the
/// results taken so far (one slot each), and when the last one arrived.
struct JobEntry {
    waits: Vec<Wait>,
    taken: Vec<Option<ExperimentResults>>,
    finished_at: Option<Instant>,
}

/// Settles every cached job — takes each verdict that has arrived, and
/// starts a job's expiry clock once its last one has — then drops the
/// jobs finished more than `expiry` ago.
fn sweep(jobs: &mut HashMap<String, JobEntry>, expiry: Duration) {
    for e in jobs.values_mut() {
        for (w, slot) in e.waits.iter().zip(&mut e.taken) {
            if slot.is_none() {
                *slot = match w.reply.try_recv() {
                    Ok(verdict) => Some(w.result(verdict)),
                    Err(TryRecvError::Disconnected) => Some(w.result(worker_died())),
                    Err(TryRecvError::Empty) => None,
                };
            }
        }
        if e.finished_at.is_none() && e.taken.iter().all(Option::is_some) {
            e.finished_at = Some(Instant::now());
        }
    }
    jobs.retain(|_, e| e.finished_at.is_none_or(|t| t.elapsed() < expiry));
}

/// The middleware: registered devices, per-core workers, results cache.
pub struct Mediator {
    devices: HashMap<String, DeviceHandle>,
    jobs: Arc<Mutex<HashMap<String, JobEntry>>>,
    next_job: AtomicUsize,
    /// Results expire this long after completion (§4.3).
    expiry: Duration,
    /// Dropped to stop the background sweeper.
    sweep_stop: Option<Sender<()>>,
    sweeper: Option<JoinHandle<()>>,
}

/// Exponential backoff before retry `attempt` (1-based): 1, 2, 4, … ms,
/// capped at 64 ms so a retry burst stays cheap.
fn backoff(attempt: usize) -> Duration {
    Duration::from_millis(1u64 << (attempt - 1).min(6) as u32)
}

/// A core's worker: runs its queue in FIFO order until the Mediator drops
/// the sending end.
fn core_worker(queue: Receiver<Run>, pending: &AtomicUsize) {
    for run in queue.iter() {
        let queue_wait = run.enqueued.elapsed();
        metric_histogram!("lgen.mediator.queue_wait_us").record(queue_wait.as_micros() as u64);
        let mut span = lgen_telemetry::span("experiment");
        if span.is_recording() {
            span.attr("device", &run.device);
            span.attr("core", run.core);
            span.attr("queue_wait_us", queue_wait.as_micros());
        }
        let run_start = Instant::now();
        let verdict = run.verdict();
        metric_histogram!("lgen.mediator.run_us").record(run_start.elapsed().as_micros() as u64);
        metric_counter!("lgen.mediator.experiments").inc();
        let (outcome, attempts) = &verdict;
        if *attempts > 1 {
            metric_counter!("lgen.mediator.retries").add(*attempts as u64 - 1);
        }
        if span.is_recording() {
            span.attr("attempts", attempts);
            span.attr(
                "outcome",
                match outcome {
                    Ok(_) => "ok".to_string(),
                    Err(e) => format!("error{}", e.code),
                },
            );
        }
        drop(span);
        pending.fetch_sub(1, Ordering::SeqCst);
        let _ = run.reply.send(verdict);
    }
}

impl Run {
    /// Runs the experiment to its final verdict: transient failures (405)
    /// are retried with backoff up to `retries` times; timeouts and panics
    /// are terminal (the deadline budget is spent, and a panicking payload
    /// is not presumed transient).
    fn verdict(&self) -> Verdict {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let outcome = self.attempt();
            match &outcome {
                Err(e)
                    if e.reason == ErrorReason::InstructionExecutionError
                        && attempts <= self.retries =>
                {
                    std::thread::sleep(backoff(attempts));
                }
                _ => return (outcome, attempts),
            }
        }
    }

    /// One attempt, isolated by the pool on the calling core worker:
    /// inline without a timeout, else on the worker's persistent deadline
    /// runner.
    fn attempt(&self) -> Result<Vec<String>, ApiError> {
        let (work, arch, core) = (self.work.clone(), self.arch, self.core);
        let attempt = Arc::new(move |_: usize, _: Option<Instant>| Ok(work(arch, core)));
        let outcome = run_outcomes(vec![0], 1, self.timeout, || false, attempt).pop();
        let (reason, message) = match (outcome, self.timeout) {
            (Some(JobOutcome::Ok(out)), _) => {
                return out
                    .map_err(|msg| ApiError::new(ErrorReason::InstructionExecutionError, msg))
            }
            (Some(JobOutcome::Panicked(msg)), _) => (
                ErrorReason::InternalError,
                format!("experiment panicked: {msg}"),
            ),
            (Some(JobOutcome::TimedOut), Some(limit)) => (
                ErrorReason::InstructionTimeoutError,
                format!("experiment exceeded its {limit:?} deadline"),
            ),
            // No verifier and no stop predicate: nothing else ends an attempt.
            _ => (ErrorReason::InternalError, "experiment was not run".into()),
        };
        Err(ApiError::new(reason, message))
    }
}

impl Mediator {
    /// Creates a Mediator with the given devices and a results-cache expiry.
    pub fn new(devices: Vec<DeviceSpec>, expiry: Duration) -> Self {
        let mut map = HashMap::new();
        for d in devices {
            let cores = (0..d.cores)
                .map(|_core| {
                    let (queue, rx) = channel::<Run>();
                    let pending = Arc::new(AtomicUsize::new(0));
                    let counter = pending.clone();
                    let handle = std::thread::spawn(move || core_worker(rx, &counter));
                    CoreWorker {
                        queue,
                        pending,
                        handle,
                    }
                })
                .collect();
            map.insert(
                d.hostname.clone(),
                DeviceHandle {
                    arch: d.arch,
                    cores,
                    enqueue: Mutex::new(()),
                },
            );
        }
        let jobs: Arc<Mutex<HashMap<String, JobEntry>>> = Arc::new(Mutex::new(HashMap::new()));
        // Background expiry sweep (§4.3): entries leave the cache on
        // schedule even if nobody polls. Sweeping at a fraction of the
        // expiry keeps eviction prompt at test-scale expiries without
        // busy-waking long-lived farms.
        let interval = (expiry / 4).clamp(Duration::from_millis(1), Duration::from_millis(500));
        let (sweep_stop, stop_rx) = channel::<()>();
        let jobs2 = jobs.clone();
        let sweeper = std::thread::spawn(move || {
            while let Err(RecvTimeoutError::Timeout) = stop_rx.recv_timeout(interval) {
                sweep(&mut jobs2.lock(), expiry);
            }
        });
        Mediator {
            devices: map,
            jobs,
            next_job: AtomicUsize::new(1),
            expiry,
            sweep_stop: Some(sweep_stop),
            sweeper: Some(sweeper),
        }
    }

    /// Least-loaded core among the affinity set (the load-balance rule of
    /// §4.3: "assigns the experiment to the core that has the least number
    /// of pending experiments"). Callers that enqueue on the pick must
    /// hold the device's `enqueue` lock so the counter scan and the
    /// subsequent increment are atomic with respect to other enqueues.
    fn pick_core(dev: &DeviceHandle, affinity: &[usize]) -> Result<usize, ApiError> {
        let candidates: Vec<usize> = if affinity.is_empty() {
            (0..dev.cores.len()).collect()
        } else {
            affinity.to_vec()
        };
        candidates
            .iter()
            .copied()
            .filter(|&c| c < dev.cores.len())
            .min_by_key(|&c| dev.cores[c].pending.load(Ordering::SeqCst))
            .ok_or_else(|| ApiError::new(ErrorReason::BadRequest, "affinity names no valid core"))
    }

    /// Enqueues every experiment of a job, or none: device and affinity
    /// are checked for all of them first.
    fn dispatch(&self, experiments: Vec<ExperimentSpec>) -> Result<Vec<Wait>, ApiError> {
        let devices = experiments
            .iter()
            .map(|e| {
                let dev = self.devices.get(&e.device).ok_or_else(|| {
                    ApiError::new(
                        ErrorReason::SshAuthenticationError,
                        format!("unknown device {}", e.device),
                    )
                })?;
                Self::pick_core(dev, &e.affinity).map(|_| dev)
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut waits = Vec::with_capacity(experiments.len());
        for (e, dev) in experiments.into_iter().zip(devices) {
            // Pick + increment + send under the device lock: without it,
            // concurrent enqueues race the `pending` scan and pile onto
            // the same "least-loaded" core.
            let guard = dev.enqueue.lock();
            let core = Self::pick_core(dev, &e.affinity)?;
            let (reply_tx, reply) = channel();
            dev.cores[core].pending.fetch_add(1, Ordering::SeqCst);
            dev.cores[core]
                .queue
                .send(Run {
                    work: Arc::from(e.work),
                    device: e.device.clone(),
                    arch: dev.arch,
                    core,
                    timeout: e.timeout,
                    retries: e.retries,
                    enqueued: Instant::now(),
                    reply: reply_tx,
                })
                .map_err(|_| ApiError::new(ErrorReason::InternalError, "worker gone"))?;
            drop(guard);
            waits.push(Wait {
                device_hostname: e.device,
                core,
                reply,
            });
        }
        Ok(waits)
    }

    /// Synchronous processing (Fig. 4.2): blocks until all experiments of
    /// the job finish and returns their results.
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] if the request fails preliminary checks
    /// (unknown device, bad affinity).
    pub fn submit_sync(&self, experiments: Vec<ExperimentSpec>) -> Result<JobResults, ApiError> {
        let data = self
            .dispatch(experiments)?
            .iter()
            .map(|w| w.result(w.reply.recv().unwrap_or_else(|_| worker_died())))
            .collect();
        Ok(JobResults { data })
    }

    /// Asynchronous processing (Fig. 4.3): preliminary checks run
    /// immediately; on success the job id is returned and the job's
    /// results land in the cache for [`poll`](Self::poll) as they arrive
    /// (each poll and each sweeper tick takes what has arrived).
    ///
    /// # Errors
    ///
    /// Returns an [`ApiError`] if the preliminary checks fail.
    pub fn submit_async(&self, experiments: Vec<ExperimentSpec>) -> Result<String, ApiError> {
        let waits = self.dispatch(experiments)?;
        let id = format!("job{:08x}", self.next_job.fetch_add(1, Ordering::SeqCst));
        self.jobs.lock().insert(
            id.clone(),
            JobEntry {
                taken: waits.iter().map(|_| None).collect(),
                waits,
                finished_at: None,
            },
        );
        Ok(id)
    }

    /// Polls a job (Fig. 4.3). Expired results report
    /// [`JobState::NotFound`].
    pub fn poll(&self, job_id: &str) -> JobStatus {
        let mut map = self.jobs.lock();
        // Settle and expire on read too (§4.3: "results that stay in the
        // Results Cache for more than a specific amount of time expire")
        // — the background sweeper handles the no-poll case.
        sweep(&mut map, self.expiry);
        let (state, data) = match map.get(job_id) {
            None => (JobState::NotFound, None),
            Some(e) => match e.taken.iter().cloned().collect() {
                Some(data) => (JobState::Finished, Some(JobResults { data })),
                None => (JobState::Pending, None),
            },
        };
        JobStatus {
            job_id: job_id.into(),
            state,
            data,
        }
    }

    /// Number of entries currently held by the results cache (finished or
    /// still pending). Expired entries leave on the next sweep even if
    /// nobody polls.
    #[cfg(test)]
    pub(crate) fn cached_results(&self) -> usize {
        self.jobs.lock().len()
    }

    /// Number of experiments currently queued or running on a core.
    #[cfg(test)]
    pub(crate) fn pending_on(&self, device: &str, core: usize) -> Option<usize> {
        self.devices
            .get(device)
            .and_then(|d| d.cores.get(core))
            .map(|c| c.pending.load(Ordering::SeqCst))
    }
}

impl Drop for Mediator {
    /// Hangs up the sweeper's and every core worker's channel, which ends
    /// their loops, and joins them.
    fn drop(&mut self) {
        self.sweep_stop.take();
        let cores = std::mem::take(&mut self.devices)
            .into_values()
            .flat_map(|d| d.cores)
            .map(|c| c.handle);
        let threads: Vec<JoinHandle<()>> = self.sweeper.take().into_iter().chain(cores).collect();
        for t in threads {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn mediator() -> Mediator {
        Mediator::new(
            vec![
                DeviceSpec {
                    hostname: "zbox".into(),
                    arch: Microarch::Atom,
                    cores: 2,
                },
                DeviceSpec {
                    hostname: "kayla".into(),
                    arch: Microarch::CortexA9,
                    cores: 4,
                },
            ],
            Duration::from_secs(60),
        )
    }

    #[test]
    fn sync_job_returns_results_in_order() {
        let m = mediator();
        let exps = (0..3)
            .map(|i| {
                ExperimentSpec::new(
                    "zbox",
                    Box::new(move |arch, _| Ok(vec![format!("{i} on {arch}")])),
                )
            })
            .collect();
        let results = m.submit_sync(exps).unwrap();
        assert_eq!(results.data.len(), 3);
        for (i, r) in results.data.iter().enumerate() {
            assert_eq!(r.outcome.as_ref().unwrap()[0], format!("{i} on Intel Atom"));
            assert_eq!(r.attempts, 1);
        }
        assert_eq!(results.failures(), 0);
    }

    #[test]
    fn unknown_device_is_auth_error() {
        let m = mediator();
        let err = m
            .submit_sync(vec![ExperimentSpec::new(
                "nope",
                Box::new(|_, _| Ok(vec![])),
            )])
            .unwrap_err();
        assert_eq!(err.code, 401);
    }

    #[test]
    fn failed_experiment_reports_execution_error() {
        let m = mediator();
        let results = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(|_, _| Err("segfault".into())),
            )])
            .unwrap();
        let err = results.data[0].outcome.as_ref().unwrap_err();
        assert_eq!(err.code, 405);
        assert!(err.message.contains("segfault"));
        assert_eq!(results.data[0].attempts, 1, "no retries requested");
        assert_eq!(results.failures(), 1);
    }

    #[test]
    fn panicking_experiment_is_contained_as_internal_error() {
        let m = mediator();
        let results = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(|_, _| panic!("measurement blew up")),
            )
            .on_cores(vec![0])])
            .unwrap();
        let err = results.data[0].outcome.as_ref().unwrap_err();
        assert_eq!(err.code, 500);
        assert!(err.message.contains("measurement blew up"));
        // The core worker survived the panic and serves the next job.
        let again = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(|_, _| Ok(vec!["alive".into()])),
            )
            .on_cores(vec![0])])
            .unwrap();
        assert_eq!(again.data[0].outcome.as_ref().unwrap()[0], "alive");
    }

    #[test]
    fn hung_experiment_times_out_with_408() {
        let m = mediator();
        let results = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(|_, _| {
                    std::thread::sleep(Duration::from_secs(5));
                    Ok(vec!["too late".into()])
                }),
            )
            .on_cores(vec![1])
            .with_timeout(Duration::from_millis(20))])
            .unwrap();
        let err = results.data[0].outcome.as_ref().unwrap_err();
        assert_eq!(err.code, 408);
        assert_eq!(results.data[0].attempts, 1, "timeouts are not retried");
        // The core is free again immediately (the hung attempt was
        // abandoned, not waited for).
        let again = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(|_, _| Ok(vec!["next".into()])),
            )
            .on_cores(vec![1])
            .with_timeout(Duration::from_secs(5))])
            .unwrap();
        assert_eq!(again.data[0].outcome.as_ref().unwrap()[0], "next");
    }

    /// Timed attempts run on the core worker's persistent deadline
    /// runner: no thread per attempt.
    #[test]
    fn timed_attempts_share_one_runner_thread() {
        let m = mediator();
        let exps = (0..20)
            .map(|_| {
                ExperimentSpec::new(
                    "zbox",
                    Box::new(|_, _| Ok(vec![format!("{:?}", std::thread::current().id())])),
                )
                .on_cores(vec![0])
                .with_timeout(Duration::from_secs(5))
            })
            .collect();
        let results = m.submit_sync(exps).unwrap();
        let ids: std::collections::HashSet<String> = results
            .data
            .iter()
            .map(|r| r.outcome.as_ref().unwrap()[0].clone())
            .collect();
        assert_eq!(ids.len(), 1, "attempts ran on {} threads", ids.len());
    }

    /// A job rejected by its preliminary checks runs none of its
    /// experiments, not even the ones listed before the bad one. The
    /// follow-up job on the same core runs after anything enqueued
    /// before it (per-core FIFO), so the counter is final when read.
    #[test]
    fn rejected_job_runs_none_of_its_experiments() {
        let m = mediator();
        for (device, affinity, code) in [("nope", vec![], 401), ("zbox", vec![9], 400)] {
            for sync in [true, false] {
                let ran = Arc::new(AtomicUsize::new(0));
                let counter = ran.clone();
                let first = ExperimentSpec::new(
                    "zbox",
                    Box::new(move |_, _| {
                        counter.fetch_add(1, Ordering::SeqCst);
                        Ok(vec![])
                    }),
                )
                .on_cores(vec![0]);
                let bad = ExperimentSpec::new(device, Box::new(|_, _| Ok(vec![])))
                    .on_cores(affinity.clone());
                let err = if sync {
                    m.submit_sync(vec![first, bad]).unwrap_err()
                } else {
                    m.submit_async(vec![first, bad]).unwrap_err()
                };
                assert_eq!(err.code, code);
                m.submit_sync(vec![ExperimentSpec::new(
                    "zbox",
                    Box::new(|_, _| Ok(vec![])),
                )
                .on_cores(vec![0])])
                    .unwrap();
                assert_eq!(
                    ran.load(Ordering::SeqCst),
                    0,
                    "a rejected job ran an experiment (sync: {sync})"
                );
            }
        }
    }

    #[test]
    fn transient_failures_are_retried_with_bounded_attempts() {
        let m = mediator();
        let flaky_calls = Arc::new(AtomicUsize::new(0));
        let calls = flaky_calls.clone();
        let results = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(move |_, _| {
                    if calls.fetch_add(1, Ordering::SeqCst) < 2 {
                        Err("transient".into())
                    } else {
                        Ok(vec!["recovered".into()])
                    }
                }),
            )
            .with_retries(3)])
            .unwrap();
        assert_eq!(results.data[0].outcome.as_ref().unwrap()[0], "recovered");
        assert_eq!(results.data[0].attempts, 3, "two failures + the success");
        assert_eq!(flaky_calls.load(Ordering::SeqCst), 3);

        // Retries are bounded: a permanent failure stops after 1 + retries
        // attempts and reports the 405.
        let always_calls = Arc::new(AtomicUsize::new(0));
        let calls = always_calls.clone();
        let results = m
            .submit_sync(vec![ExperimentSpec::new(
                "zbox",
                Box::new(move |_, _| {
                    calls.fetch_add(1, Ordering::SeqCst);
                    Err("permanent".into())
                }),
            )
            .with_retries(2)])
            .unwrap();
        let err = results.data[0].outcome.as_ref().unwrap_err();
        assert_eq!(err.code, 405);
        assert_eq!(results.data[0].attempts, 3);
        assert_eq!(always_calls.load(Ordering::SeqCst), 3);
        assert_eq!(results.data.iter().map(|r| r.attempts).sum::<usize>(), 3);
    }

    /// The central guarantee: experiments pinned to one core never overlap.
    #[test]
    fn mutual_exclusion_per_core() {
        let m = mediator();
        let busy = Arc::new(AtomicBool::new(false));
        let violated = Arc::new(AtomicBool::new(false));
        let exps = (0..8)
            .map(|_| {
                let busy = busy.clone();
                let violated = violated.clone();
                ExperimentSpec::new(
                    "kayla",
                    Box::new(move |_, core| {
                        assert_eq!(core, 1);
                        if busy.swap(true, Ordering::SeqCst) {
                            violated.store(true, Ordering::SeqCst);
                        }
                        std::thread::sleep(Duration::from_millis(2));
                        busy.store(false, Ordering::SeqCst);
                        Ok(vec!["ok".into()])
                    }),
                )
                .on_cores(vec![1]) // all pinned to core 1
            })
            .collect();
        let results = m.submit_sync(exps).unwrap();
        assert_eq!(results.data.len(), 8);
        assert!(
            !violated.load(Ordering::SeqCst),
            "two experiments overlapped on core 1"
        );
    }

    /// Load balancing: with the jobs gated (none can finish before every
    /// one is enqueued), least-loaded selection must deal 12 unpinned
    /// experiments onto 4 cores exactly 3-3-3-3.
    #[test]
    fn load_balancing_uses_all_cores() {
        let m = Arc::new(mediator());
        let gate = Arc::new(AtomicBool::new(false));
        let exps = (0..12)
            .map(|_| {
                let gate = gate.clone();
                ExperimentSpec::new(
                    "kayla",
                    Box::new(move |_, core| {
                        while !gate.load(Ordering::SeqCst) {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                        Ok(vec![format!("core{core}")])
                    }),
                )
            })
            .collect();
        let opener = {
            let m = m.clone();
            let gate = gate.clone();
            std::thread::spawn(move || {
                // Open the gate only once all 12 are enqueued, so no job
                // can finish while enqueue decisions are still being made.
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    let queued: usize = (0..4).map(|c| m.pending_on("kayla", c).unwrap()).sum();
                    if queued == 12 {
                        break;
                    }
                    assert!(Instant::now() < deadline, "enqueues never landed");
                    std::thread::sleep(Duration::from_micros(100));
                }
                gate.store(true, Ordering::SeqCst);
            })
        };
        let results = m.submit_sync(exps).unwrap();
        opener.join().unwrap();
        let mut per_core = [0usize; 4];
        for r in &results.data {
            per_core[r.core] += 1;
        }
        assert_eq!(
            per_core,
            [3, 3, 3, 3],
            "least-loaded selection must deal evenly"
        );
    }

    /// The TOCTOU regression: concurrent submitters racing the `pending`
    /// scan must still deal evenly because selection + enqueue happen
    /// under the device lock.
    #[test]
    fn concurrent_enqueues_balance_exactly() {
        let m = Arc::new(mediator());
        let gate = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = m.clone();
                let gate = gate.clone();
                std::thread::spawn(move || {
                    let exps = (0..2)
                        .map(|_| {
                            let gate = gate.clone();
                            ExperimentSpec::new(
                                "kayla",
                                Box::new(move |_, core| {
                                    while !gate.load(Ordering::SeqCst) {
                                        std::thread::sleep(Duration::from_micros(50));
                                    }
                                    Ok(vec![format!("core{core}")])
                                }),
                            )
                        })
                        .collect();
                    m.submit_sync(exps).unwrap()
                })
            })
            .collect();
        // Wait until all 8 experiments are enqueued, then open the gate.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let queued: usize = (0..4).map(|c| m.pending_on("kayla", c).unwrap()).sum();
            if queued == 8 {
                break;
            }
            assert!(Instant::now() < deadline, "enqueues never landed");
            std::thread::sleep(Duration::from_micros(100));
        }
        let mut per_core = [0usize; 4];
        for (c, slot) in per_core.iter_mut().enumerate() {
            *slot = m.pending_on("kayla", c).unwrap();
        }
        gate.store(true, Ordering::SeqCst);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            per_core,
            [2, 2, 2, 2],
            "racing submitters must not pile onto one core"
        );
    }

    #[test]
    fn async_polling_lifecycle() {
        let m = mediator();
        let id = m
            .submit_async(vec![ExperimentSpec::new(
                "zbox",
                Box::new(|_, _| {
                    std::thread::sleep(Duration::from_millis(10));
                    Ok(vec!["42".into()])
                }),
            )
            .on_cores(vec![0])])
            .unwrap();
        // Poll until finished.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let st = m.poll(&id);
            match st.state {
                JobState::Finished => {
                    let data = st.data.unwrap();
                    assert_eq!(data.data[0].outcome.as_ref().unwrap()[0], "42");
                    break;
                }
                JobState::Pending | JobState::Submitted => {
                    assert!(Instant::now() < deadline, "job never finished");
                    std::thread::sleep(Duration::from_millis(1));
                }
                JobState::NotFound => panic!("job lost"),
            }
        }
    }

    #[test]
    fn results_expire() {
        let m = Mediator::new(
            vec![DeviceSpec {
                hostname: "pi".into(),
                arch: Microarch::Arm1176,
                cores: 1,
            }],
            Duration::from_millis(5),
        );
        let id = m
            .submit_async(vec![ExperimentSpec::new(
                "pi",
                Box::new(|_, _| Ok(vec!["x".into()])),
            )])
            .unwrap();
        // Wait for completion.
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.poll(&id).state != JobState::Finished {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.cached_results(), 1);
        // The background sweeper must evict the entry *without any poll*
        // touching the map (the leak this test regresses).
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.cached_results() != 0 {
            assert!(Instant::now() < deadline, "sweeper never evicted");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.poll(&id).state, JobState::NotFound);
    }

    #[test]
    fn unknown_job_is_not_found() {
        let m = mediator();
        assert_eq!(m.poll("nope").state, JobState::NotFound);
    }

    #[test]
    fn experiments_record_queue_and_run_histograms() {
        let run_before = lgen_telemetry::histogram("lgen.mediator.run_us").count();
        let wait_before = lgen_telemetry::histogram("lgen.mediator.queue_wait_us").count();
        let retries_before = lgen_telemetry::counter("lgen.mediator.retries").get();
        let m = mediator();
        let calls = Arc::new(AtomicUsize::new(0));
        let c = calls.clone();
        m.submit_sync(vec![ExperimentSpec::new(
            "zbox",
            Box::new(move |_, _| {
                if c.fetch_add(1, Ordering::SeqCst) == 0 {
                    Err("transient".into())
                } else {
                    Ok(vec!["ok".into()])
                }
            }),
        )
        .with_retries(2)])
            .unwrap();
        assert!(lgen_telemetry::histogram("lgen.mediator.run_us").count() > run_before);
        assert!(lgen_telemetry::histogram("lgen.mediator.queue_wait_us").count() > wait_before);
        assert!(lgen_telemetry::counter("lgen.mediator.retries").get() > retries_before);
    }
}
