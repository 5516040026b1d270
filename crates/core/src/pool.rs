//! The one isolation runtime: a worker pool for embarrassingly parallel
//! jobs that may panic or hang.
//!
//! Jobs are index-addressed: job `i` writes result slot `i`, so the output
//! order is the input order no matter which worker ran what — the
//! determinism the autotuner's reduction relies on. Workers claim jobs
//! through a single atomic counter (jobs are coarse — a full
//! compile+validate+measure each — so contention is negligible).
//!
//! [`run_outcomes`] is the one entry point that runs jobs. It runs them on
//! one process-wide pool of parked helper threads. The pool starts lazily
//! and grows to the widest width requested, and the caller works as one of
//! the workers, so once the pool is warm a call spawns no thread. Jobs are
//! claimed in an order the caller gives. A panicking, hanging, or
//! verifier-rejected job is *contained*: every job is wrapped in
//! `catch_unwind`, optionally raced against a per-job deadline on its
//! worker's persistent runner thread, and reported as a [`JobOutcome`] so
//! the caller can degrade gracefully instead of aborting. Its callers are
//! the autotuner, the Mediator's experiment attempts (one call per
//! attempt, on the core's worker thread), `lgend`'s requests (one call per
//! request, inline on the daemon's worker), and `run_indexed`, the batch
//! compiler's layer that turns the first contained panic back into one.

use lgen_cir::VerifyFailure;
use parking_lot::Mutex;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, LazyLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resolves a requested thread count: `0` means "one per available core".
pub fn effective_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }
}

/// How one isolated job ended.
///
/// The lattice the fault-tolerant tuner reduces over: `Ok` beats
/// everything, the three failure modes are recorded (reason + counters)
/// and excluded from the reduction. `TimedOut` covers both a job that
/// exceeded its per-job deadline and a job never started because the
/// run's stop predicate (budget/cancel) already fired.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job completed.
    Ok(T),
    /// The job reported a verification failure (corrupt C-IR).
    Rejected(VerifyFailure),
    /// The job panicked; the payload rendered as text.
    Panicked(String),
    /// The job exceeded its deadline (its abandoned runner thread may
    /// still be unwinding) or was skipped because the run was stopped.
    TimedOut,
}

impl<T> JobOutcome<T> {
    /// The success value, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(t) => Some(t),
            _ => None,
        }
    }
}

/// Renders a caught panic payload (the common `&str`/`String` cases).
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `job(0..n_jobs)` on up to `threads` workers of the pool behind
/// [`run_outcomes`] and returns the results in job order. With
/// `threads <= 1` (or a single job) everything runs on the caller's
/// thread — the sequential path is the parallel path.
///
/// # Panics
///
/// A panicking job propagates out, matching the sequential behaviour the
/// batch compiler documents: a trusted input failing is a compiler bug,
/// not a recoverable condition. The first panic stops the workers from
/// claiming new (doomed) jobs instead of running the rest of the batch to
/// completion first; once the call returns, the first failing job's panic
/// is re-raised with its message.
pub(crate) fn run_indexed<T, F>(n_jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(usize) -> T + Send + Sync + 'static,
{
    /// Marks the run failed when the job it guards unwinds.
    struct Fail<'a>(&'a AtomicBool);
    impl Drop for Fail<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.store(true, Ordering::Relaxed);
            }
        }
    }
    let failed = Arc::new(AtomicBool::new(false));
    let stop = failed.clone();
    let outcomes = run_outcomes(
        (0..n_jobs).collect(),
        threads,
        None,
        move || stop.load(Ordering::Relaxed),
        Arc::new(move |i, _| {
            let _fail = Fail(&failed);
            Ok(job(i))
        }),
    );
    let mut first_panic = None;
    let results = outcomes
        .into_iter()
        .filter_map(|o| match o {
            JobOutcome::Ok(t) => Some(t),
            JobOutcome::Panicked(msg) => {
                first_panic.get_or_insert(msg);
                None
            }
            // Skipped once a job failed; nothing here rejects.
            JobOutcome::Rejected(_) | JobOutcome::TimedOut => None,
        })
        .collect();
    if let Some(msg) = first_panic {
        resume_unwind(Box::new(msg));
    }
    results
}

/// A caught job result as it travels back from a runner thread.
type Caught<T> = Result<Result<T, VerifyFailure>, Box<dyn Any + Send>>;

/// One runner reply: the job index plus its caught result and measured
/// duration — `None` when the runner skipped the job after `halt` fired.
type Reply<T> = (usize, Option<(Caught<T>, Duration)>);

fn outcome_of<T>(caught: Caught<T>) -> JobOutcome<T> {
    match caught {
        Ok(Ok(t)) => JobOutcome::Ok(t),
        Ok(Err(v)) => JobOutcome::Rejected(v),
        Err(payload) => JobOutcome::Panicked(panic_message(payload.as_ref())),
    }
}

/// The bounds of an isolated job: job index and optional deadline in,
/// result or verification failure out, callable from any thread.
trait JobFn<T>: Fn(usize, Option<Instant>) -> Result<T, VerifyFailure> + Send + Sync + 'static {}

impl<T, F> JobFn<T> for F where
    F: Fn(usize, Option<Instant>) -> Result<T, VerifyFailure> + Send + Sync + 'static
{
}

/// The bounds of a call's stop predicate.
trait StopFn: Fn() -> bool + Send + Sync + 'static {}

impl<S: Fn() -> bool + Send + Sync + 'static> StopFn for S {}

/// What a deadline runner runs: job `i` of one call, reported to the
/// worker that sent it. `false` means that worker stopped listening (the
/// job overran its deadline), which retires the runner.
type RunnerTask = (Arc<dyn Fn(usize) -> bool + Send + Sync>, usize);

/// A worker's deadline runner: a thread that runs deadline-guarded jobs
/// while the worker watches the clock.
///
/// Spawning a thread per deadline-guarded job used to dominate a memoized
/// tuning sweep (the jobs finish in microseconds; a spawn costs tens, and
/// the per-job channel round-trip costs two context switches on a single
/// core). Instead each worker thread keeps one runner across jobs and
/// calls, streams jobs through it, and replaces it only when a job
/// overruns its deadline, so the hung-job guarantee is unchanged.
struct Runner(mpsc::Sender<RunnerTask>);

thread_local! {
    /// This thread's deadline runner, kept between calls.
    static RUNNER: Cell<Option<Runner>> = const { Cell::new(None) };
}

fn spawn_runner(spawns: &AtomicUsize) -> Runner {
    let (tx, rx) = mpsc::channel::<RunnerTask>();
    spawns.fetch_add(1, Ordering::Relaxed);
    // Detached, not joined: a runner abandoned at a deadline may still be
    // running the job that overran, and nobody waits for it. Jobs run
    // under `catch_unwind`, so the loop itself does not panic.
    std::thread::spawn(move || {
        while let Ok((task, i)) = rx.recv() {
            if !task(i) {
                break;
            }
        }
    });
    Runner(tx)
}

/// One worker's line to its runner within one call: the task that runs a
/// job of the call and sends back its result and measured duration, the
/// receiving end, and `halt`, which makes the runner skip the worker's
/// queued jobs once the call's stop predicate fires (skipped jobs come
/// back as `None` payloads). A runner is replaced together with its line,
/// so a hung job's late result has nowhere to go and is never mistaken
/// for a later job's.
struct Line<T> {
    task: Arc<dyn Fn(usize) -> bool + Send + Sync>,
    results: mpsc::Receiver<Reply<T>>,
    halt: Arc<AtomicBool>,
}

impl<T: Send + 'static> Line<T> {
    fn new(job: &Arc<impl JobFn<T>>, deadline: Duration) -> Self {
        let (tx, results) = mpsc::channel();
        let halt = Arc::new(AtomicBool::new(false));
        let (job, halted) = (job.clone(), halt.clone());
        let task = Arc::new(move |i: usize| {
            let payload = if halted.load(Ordering::Relaxed) {
                None
            } else {
                let t = Instant::now();
                let caught = catch_unwind(AssertUnwindSafe(|| job(i, Some(t + deadline))));
                Some((caught, t.elapsed()))
            };
            tx.send((i, payload)).is_ok()
        });
        Line {
            task,
            results,
            halt,
        }
    }
}

/// One [`run_outcomes`] call, shared by its caller and the helpers that
/// join it.
struct Call<T, F, S> {
    job: Arc<F>,
    stop: S,
    deadline: Option<Duration>,
    /// Job indices in claim order.
    order: Vec<usize>,
    /// Next position in `order` to claim.
    next: AtomicUsize,
    slots: Mutex<Vec<Option<JobOutcome<T>>>>,
    gate: Mutex<Gate>,
    left: Condvar,
}

/// The helpers inside a call, and whether its caller has closed it.
#[derive(Default)]
struct Gate {
    active: usize,
    closed: bool,
}

impl<T: Send + 'static, F: JobFn<T>, S: StopFn> Call<T, F, S> {
    fn claim(&self) -> Option<usize> {
        let at = self.next.fetch_add(1, Ordering::Relaxed);
        self.order.get(at).copied()
    }

    fn put(&self, i: usize, outcome: JobOutcome<T>) {
        self.slots.lock()[i] = Some(outcome);
    }

    /// Claims and runs jobs until none is left or `stop` fires: inline
    /// under `catch_unwind`, or on this thread's runner under a deadline.
    fn work(&self, spawns: &AtomicUsize) {
        match self.deadline {
            Some(deadline) => supervise(self, deadline, spawns),
            None => {
                while !(self.stop)() {
                    let Some(i) = self.claim() else { break };
                    let caught = catch_unwind(AssertUnwindSafe(|| (self.job)(i, None)));
                    self.put(i, outcome_of(caught));
                }
            }
        }
    }

    /// Lets no further helper in and waits for the ones inside to finish
    /// their claims.
    fn close(&self) {
        let mut gate = self.gate.lock();
        gate.closed = true;
        let _idle = self
            .left
            .wait_while(gate, |g| g.active > 0)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// A call as a helper sees it.
trait Work: Send + Sync {
    /// Works on the call as one more worker, unless its caller has
    /// already closed it.
    fn join(&self, spawns: &AtomicUsize);
}

impl<T: Send + 'static, F: JobFn<T>, S: StopFn> Work for Call<T, F, S> {
    fn join(&self, spawns: &AtomicUsize) {
        /// Leaves the call even if `work` unwinds, so `close` never waits
        /// for a helper that is gone.
        struct Leave<'a>(&'a Mutex<Gate>, &'a Condvar);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.lock().active -= 1;
                self.1.notify_all();
            }
        }
        {
            let mut gate = self.gate.lock();
            if gate.closed {
                return;
            }
            gate.active += 1;
        }
        let _leave = Leave(&self.gate, &self.left);
        self.work(spawns);
    }
}

/// One worker's claim/dispatch loop for deadline-guarded jobs.
///
/// Jobs run on the thread's [`Runner`]; the worker adapts how far it
/// claims ahead of the results it has collected. One sub-millisecond job
/// opens the claim-ahead window fully (the runner then streams through
/// the queue in one timeslice instead of paying a channel round-trip —
/// two context switches on a single core — per job; this is the case a
/// memoized tuning sweep hits), anything slower snaps it back to one (so
/// slow jobs keep the claim-by-claim budget check and cross-worker
/// balance of the unpipelined loop). A job that has not produced a result
/// within `deadline` of becoming the oldest outstanding one is reported
/// [`JobOutcome::TimedOut`]; its runner and line are abandoned, and the
/// remaining claims are re-sent to a fresh runner, which the thread keeps.
fn supervise<T: Send + 'static, F: JobFn<T>, S: StopFn>(
    call: &Call<T, F, S>,
    deadline: Duration,
    spawns: &AtomicUsize,
) {
    /// Jobs faster than this open the claim-ahead window; a channel
    /// round-trip is pure overhead for them.
    const FAST: Duration = Duration::from_millis(1);
    const MAX_AHEAD: usize = 32;

    let mut runner = RUNNER.take();
    let mut line = Line::new(&call.job, deadline);
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut head_started = Instant::now();
    let mut limit = 1usize;
    let mut stopped = false;
    let mut exhausted = false;
    loop {
        while pending.len() < limit && !stopped && !exhausted {
            if (call.stop)() {
                stopped = true;
                break;
            }
            let Some(i) = call.claim() else {
                exhausted = true;
                break;
            };
            let r = runner.get_or_insert_with(|| spawn_runner(spawns));
            if pending.is_empty() {
                head_started = Instant::now();
            }
            r.0.send((line.task.clone(), i))
                .expect("runner thread alive");
            pending.push_back(i);
        }
        if pending.is_empty() {
            break;
        }
        if stopped {
            // Budget spent: queued claims are skipped by the runner and
            // reported TimedOut, matching the unclaimed-slot convention.
            line.halt.store(true, Ordering::Relaxed);
        }
        // In fast mode, yield the CPU to the runner a few times before
        // parking: on a loaded (or single-core) host the runner then
        // streams through its queued jobs in one timeslice and the worker
        // drains a batch per wake-up, instead of paying a futex wake and
        // two context switches per microsecond-sized job.
        let mut received = None;
        if limit > 1 {
            for _ in 0..4 {
                std::thread::yield_now();
                if let Ok(msg) = line.results.try_recv() {
                    received = Some(msg);
                    break;
                }
            }
        }
        if received.is_none() {
            let wait = (head_started + deadline).saturating_duration_since(Instant::now());
            // A result racing the deadline still counts: prefer draining
            // the channel over declaring a timeout.
            received = line
                .results
                .recv_timeout(wait)
                .ok()
                .or_else(|| line.results.try_recv().ok());
        }
        match received {
            Some((i, payload)) => {
                debug_assert_eq!(pending.front().copied(), Some(i));
                pending.pop_front();
                head_started = Instant::now();
                match payload {
                    Some((caught, dur)) => {
                        // A job that panicked past its deadline (the tuner's
                        // candidates stop themselves there) timed out, even
                        // when its panic beat this clock.
                        let outcome = match caught {
                            Err(_) if dur >= deadline => JobOutcome::TimedOut,
                            caught => outcome_of(caught),
                        };
                        call.put(i, outcome);
                        limit = if dur < FAST { MAX_AHEAD } else { 1 };
                    }
                    None => call.put(i, JobOutcome::TimedOut),
                }
            }
            None => {
                let i = pending.pop_front().expect("pending is non-empty");
                call.put(i, JobOutcome::TimedOut);
                // Dropping the sender and the line retires the old runner
                // once its hung job returns; its queue is never run.
                runner = None;
                line = Line::new(&call.job, deadline);
                limit = 1;
                head_started = Instant::now();
                if !pending.is_empty() {
                    let r = runner.insert(spawn_runner(spawns));
                    for &i in &pending {
                        r.0.send((line.task.clone(), i))
                            .expect("fresh runner thread alive");
                    }
                }
            }
        }
    }
    RUNNER.set(runner);
}

/// The persistent pool behind [`run_outcomes`]: helper threads, parked
/// between calls, that take tickets to join calls.
struct Pool {
    shared: Arc<Shared>,
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    /// Threads spawned for this pool: its helpers, and the deadline
    /// runners of its helpers and callers.
    spawns: AtomicUsize,
}

#[derive(Default)]
struct State {
    helpers: Vec<JoinHandle<()>>,
    /// One ticket per helper a call asked for.
    tickets: VecDeque<Arc<dyn Work>>,
    shutdown: bool,
}

/// The process-wide pool [`run_outcomes`] runs on.
static POOL: LazyLock<Pool> = LazyLock::new(Pool::new);

impl Pool {
    fn new() -> Self {
        Pool {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
                spawns: AtomicUsize::new(0),
            }),
        }
    }

    /// Threads spawned for this pool so far.
    #[cfg(test)]
    fn spawns(&self) -> usize {
        self.shared.spawns.load(Ordering::Relaxed)
    }

    /// [`run_outcomes`] on this pool: the caller works as one worker and
    /// hands a ticket to as many helpers as the width asks for beyond it,
    /// growing the pool to that many.
    fn outcomes<T: Send + 'static, F: JobFn<T>>(
        &self,
        order: Vec<usize>,
        threads: usize,
        deadline: Option<Duration>,
        stop: impl StopFn,
        job: Arc<F>,
    ) -> Vec<JobOutcome<T>> {
        let n_jobs = order.len();
        let helpers = effective_threads(threads).min(n_jobs.max(1)) - 1;
        let call = Arc::new(Call {
            job,
            stop,
            deadline,
            order,
            next: AtomicUsize::new(0),
            slots: Mutex::new((0..n_jobs).map(|_| None).collect()),
            gate: Mutex::new(Gate::default()),
            left: Condvar::new(),
        });
        let spawns = &self.shared.spawns;
        if helpers > 0 {
            let mut state = self.shared.state.lock();
            while state.helpers.len() < helpers {
                spawns.fetch_add(1, Ordering::Relaxed);
                let shared = self.shared.clone();
                state
                    .helpers
                    .push(std::thread::spawn(move || shared.serve()));
            }
            for _ in 0..helpers {
                state.tickets.push_back(call.clone());
                self.shared.wake.notify_one();
            }
        }
        call.work(spawns);
        if helpers > 0 {
            let ours = Arc::as_ptr(&call);
            self.shared
                .state
                .lock()
                .tickets
                .retain(|t| !std::ptr::addr_eq(Arc::as_ptr(t), ours));
            call.close();
        }
        let slots = std::mem::take(&mut *call.slots.lock());
        slots
            .into_iter()
            .map(|s| s.unwrap_or(JobOutcome::TimedOut))
            .collect()
    }
}

impl Drop for Pool {
    /// Stops and joins the helpers. Deadline runners are detached by
    /// design: one may still be running a job that overran.
    fn drop(&mut self) {
        let helpers = {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            std::mem::take(&mut state.helpers)
        };
        self.shared.wake.notify_all();
        for helper in helpers {
            // `serve` contains every panic; there is nothing to report.
            let _ = helper.join();
        }
    }
}

impl Shared {
    /// A helper's life: take a ticket and join its call, park when there
    /// is none.
    fn serve(&self) {
        loop {
            let ticket = {
                let mut state = self.state.lock();
                loop {
                    if state.shutdown {
                        return;
                    }
                    if let Some(ticket) = state.tickets.pop_front() {
                        break ticket;
                    }
                    state = self
                        .wake
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // Job panics are contained in their outcomes; nothing else
            // may take the helper down either.
            let _ = catch_unwind(AssertUnwindSafe(|| ticket.join(&self.spawns)));
        }
    }
}

/// Runs job `i` for every `i` in `order` (a permutation of
/// `0..order.len()`) on the process-wide persistent pool, claiming jobs in
/// that order, and returns the outcomes in job order. Every job is
/// contained (`catch_unwind`, optional per-job `deadline`), failures
/// become [`JobOutcome`]s instead of aborting the run, and `stop` is
/// checked before every claim, so workers stop claiming once the run is
/// doomed or its budget is spent; unclaimed slots — the end of `order` —
/// report [`JobOutcome::TimedOut`].
///
/// The `'static` bounds exist because helpers and deadline runners are
/// long-lived threads and a hung job's runner may outlive the call; share
/// context via `Arc`.
pub fn run_outcomes<T, F, S>(
    order: Vec<usize>,
    threads: usize,
    deadline: Option<Duration>,
    stop: S,
    job: Arc<F>,
) -> Vec<JobOutcome<T>>
where
    T: Send + 'static,
    F: Fn(usize, Option<Instant>) -> Result<T, VerifyFailure> + Send + Sync + 'static,
    S: Fn() -> bool + Send + Sync + 'static,
{
    POOL.outcomes(order, threads, deadline, stop, job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_in_job_order() {
        for threads in [1, 2, 8] {
            let out = run_indexed(25, threads, |i| i * i);
            assert_eq!(out, (0..25).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let count = counter.clone();
        let out = run_indexed(100, 4, move |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn zero_jobs_is_fine() {
        let out: Vec<usize> = run_indexed(0, 8, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn effective_threads_resolves_zero() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn panicking_job_still_propagates() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(8, 4, |i| {
                if i == 3 {
                    panic!("job 3 exploded");
                }
                i
            })
        }));
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "job 3 exploded");
    }

    /// Regression: after one job panics, remaining workers must stop
    /// claiming doomed jobs instead of running the rest of the batch to
    /// completion before the scope joins.
    #[test]
    fn panicking_job_cancels_sibling_claims() {
        let ran = Arc::new(AtomicUsize::new(0));
        let counted = ran.clone();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_indexed(200, 4, move |i| {
                if i == 0 {
                    panic!("doomed");
                }
                // Slow enough that the cancel flag is set long before the
                // batch could drain.
                std::thread::sleep(Duration::from_millis(5));
                counted.fetch_add(1, Ordering::Relaxed);
            })
        }));
        assert!(caught.is_err(), "the panic still propagates");
        let ran = ran.load(Ordering::Relaxed);
        assert!(
            ran < 40,
            "cancel flag ignored: {ran}/200 doomed jobs still ran"
        );
    }

    #[test]
    fn outcomes_contain_panics_and_preserve_order() {
        for threads in [1, 4] {
            let out: Vec<JobOutcome<usize>> = run_outcomes(
                (0..10).collect(),
                threads,
                None,
                || false,
                Arc::new(|i, _| {
                    if i % 3 == 0 {
                        panic!("candidate {i} panicked");
                    }
                    Ok(i * 2)
                }),
            );
            assert_eq!(out.len(), 10);
            for (i, o) in out.iter().enumerate() {
                match o {
                    JobOutcome::Panicked(msg) => {
                        assert_eq!(i % 3, 0);
                        assert!(msg.contains("panicked"), "{msg}");
                    }
                    JobOutcome::Ok(v) => assert_eq!(*v, i * 2),
                    other => panic!("job {i}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn hung_job_times_out_and_the_run_continues() {
        let start = Instant::now();
        let out: Vec<JobOutcome<usize>> = run_outcomes(
            (0..6).collect(),
            2,
            Some(Duration::from_millis(30)),
            || false,
            Arc::new(|i, _| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(i)
            }),
        );
        assert!(matches!(out[1], JobOutcome::TimedOut));
        let completed = out
            .iter()
            .filter(|o| matches!(o, JobOutcome::Ok(_)))
            .count();
        assert_eq!(completed, 5);
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "the pool must not wait for the hung job"
        );
    }

    #[test]
    fn a_job_that_panics_past_its_deadline_timed_out() {
        // Every job stops itself at its (zero) deadline, which may beat
        // the worker's clock: each is still reported timed out.
        for threads in [1, 2] {
            let out: Vec<JobOutcome<usize>> = run_outcomes(
                (0..20).collect(),
                threads,
                Some(Duration::ZERO),
                || false,
                Arc::new(|i, deadline: Option<Instant>| {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        panic!("job {i} abandoned at its deadline");
                    }
                    Ok(i)
                }),
            );
            assert!(
                out.iter().all(|o| matches!(o, JobOutcome::TimedOut)),
                "{threads} workers: {out:?}"
            );
        }
    }

    #[test]
    fn stop_predicate_skips_unclaimed_jobs() {
        // A stop predicate that fires after 4 completions: the remaining
        // slots must be reported TimedOut, not run.
        let done = Arc::new(AtomicUsize::new(0));
        let done_job = done.clone();
        let out: Vec<JobOutcome<usize>> = run_outcomes(
            (0..50).collect(),
            2,
            None,
            move || done.load(Ordering::Relaxed) >= 4,
            Arc::new(move |i, _| {
                done_job.fetch_add(1, Ordering::Relaxed);
                Ok(i)
            }),
        );
        assert_eq!(out.len(), 50);
        let skipped = out
            .iter()
            .filter(|o| matches!(o, JobOutcome::TimedOut))
            .count();
        assert!(skipped >= 40, "only {skipped}/50 jobs were skipped");

        // A stop predicate that is already true skips everything.
        let out2: Vec<JobOutcome<usize>> =
            run_outcomes((0..50).collect(), 2, None, || true, Arc::new(|i, _| Ok(i)));
        assert!(out2.iter().all(|o| matches!(o, JobOutcome::TimedOut)));
    }

    #[test]
    fn jobs_are_claimed_in_the_given_order() {
        let order = vec![3, 0, 4, 1, 2];
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        let out: Vec<JobOutcome<usize>> = run_outcomes(
            order.clone(),
            1,
            None,
            || false,
            Arc::new(move |i, _| {
                log.lock().push(i);
                Ok(i * 10)
            }),
        );
        assert_eq!(*seen.lock(), order, "one worker claims in the given order");
        for (i, o) in out.into_iter().enumerate() {
            assert_eq!(o.ok(), Some(i * 10), "slot {i} holds job {i}");
        }
    }

    /// Runs one width-2 call whose two jobs meet at a barrier, so the
    /// caller and a helper each run one and both have a deadline runner
    /// when `deadline` is set.
    fn warm(pool: &Pool, deadline: Option<Duration>) {
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let out: Vec<JobOutcome<()>> = pool.outcomes(
            vec![0, 1],
            2,
            deadline,
            || false,
            Arc::new(move |_, _| {
                barrier.wait();
                Ok(())
            }),
        );
        assert!(out.iter().all(|o| matches!(o, JobOutcome::Ok(()))));
    }

    #[test]
    fn a_warm_pool_spawns_no_thread() {
        let pool = Pool::new();
        let deadline = Some(Duration::from_secs(30));
        warm(&pool, None);
        warm(&pool, deadline);
        let spawned = pool.spawns();
        assert_eq!(spawned, 3, "one helper and two runners");
        for deadline in [None, deadline] {
            for _ in 0..20 {
                let out: Vec<JobOutcome<usize>> = pool.outcomes(
                    (0..16).collect(),
                    2,
                    deadline,
                    || false,
                    Arc::new(|i, _| Ok(i)),
                );
                assert_eq!(out.into_iter().filter_map(JobOutcome::ok).count(), 16);
            }
        }
        assert_eq!(pool.spawns(), spawned, "a call on a warm pool spawned");
    }

    #[test]
    fn an_overrun_replaces_the_runner_and_the_next_call_completes() {
        let pool = Pool::new();
        let deadline = Some(Duration::from_millis(100));
        let quick = |pool: &Pool| -> Vec<JobOutcome<usize>> {
            pool.outcomes(
                (0..4).collect(),
                1,
                deadline,
                || false,
                Arc::new(|i, _| Ok(i)),
            )
        };
        assert!(quick(&pool).iter().all(|o| matches!(o, JobOutcome::Ok(_))));
        assert_eq!(pool.spawns(), 1, "the caller's runner");
        let out: Vec<JobOutcome<usize>> = pool.outcomes(
            (0..4).collect(),
            1,
            deadline,
            || false,
            Arc::new(|i, _| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(1000));
                }
                Ok(i)
            }),
        );
        assert!(matches!(out[1], JobOutcome::TimedOut));
        for i in [0, 2, 3] {
            assert!(matches!(out[i], JobOutcome::Ok(v) if v == i), "job {i}");
        }
        assert_eq!(pool.spawns(), 2, "the overrun replaced the runner once");
        assert!(quick(&pool).iter().all(|o| matches!(o, JobOutcome::Ok(_))));
        assert_eq!(pool.spawns(), 2, "the replacement runner is kept");
    }
}
