//! Admission control: a bounded, per-tenant fair work queue.
//!
//! The Mediator's per-core FIFOs (Fig. 4.1) solve mutual exclusion, but
//! `lgend`'s front door has two problems they don't: unbounded backlog
//! (a client that floods the socket must get pushback, not an OOM), and
//! tenant starvation (one chatty tenant must not monopolize the workers
//! while everyone else's requests age out). [`FairQueue`] solves both:
//!
//! * **Bounded.** Total capacity is fixed at construction;
//!   [`push`](FairQueue::push) never blocks — a full queue rejects the
//!   item back to the caller, which turns it into a retryable "busy"
//!   response at the protocol layer. Backpressure is therefore visible to
//!   clients instead of accumulating invisibly in the daemon.
//! * **Fair.** Items are drained round-robin *across tenants* in tenant
//!   arrival order: each [`pop_timed`](FairQueue::pop_timed) serves the
//!   next tenant after the previously served one that has anything
//!   queued, so a tenant with 1 queued request waits O(tenants) pops, not
//!   O(backlog).
//! * **Observable.** Depth is mirrored into the
//!   `lgen.serve.queue_depth` gauge on every transition, so the replay
//!   harness (and operators) can watch backlog build and drain.
//!
//! Workers block in [`pop_timed`](FairQueue::pop_timed) on a condvar;
//! [`close`](FairQueue::close) wakes them all, lets the backlog drain, and
//! then yields `None` so worker loops exit cleanly on shutdown. All locks
//! swallow poisoning — a worker that panics mid-`pop` must not wedge
//! admission for every future request (see the lock-poisoning sweep in
//! DESIGN.md "The compile service").

use lgen_telemetry::{metric_gauge, metric_histogram_family};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Queue state under one lock: per-tenant FIFOs plus the round-robin
/// cursor over tenant arrival order.
struct State<T> {
    /// FIFO per tenant (with each item's enqueue time, so `pop_timed` can
    /// bill queue wait to the tenant); entries stay (empty) once a tenant
    /// has been seen so the rotation order is stable.
    lanes: HashMap<String, VecDeque<(Instant, T)>>,
    /// Tenants in first-arrival order; rotation index advances over this.
    order: Vec<String>,
    /// Next index in `order` to serve.
    cursor: usize,
    /// Total queued items across lanes.
    depth: usize,
    /// Closed queues reject pushes and return `None` once drained.
    closed: bool,
}

/// A bounded multi-tenant work queue with round-robin draining (see
/// module docs).
pub(crate) struct FairQueue<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
    capacity: usize,
}

/// Why a [`FairQueue::push`] was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AdmissionError {
    /// The queue is at capacity; retry later (HTTP-429 moral equivalent).
    Full,
    /// The queue is shutting down; do not retry.
    Closed,
}

fn lock<'a, T>(m: &'a Mutex<State<T>>) -> std::sync::MutexGuard<'a, State<T>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> FairQueue<T> {
    /// An open queue admitting at most `capacity` items in total.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 (a queue that can never admit is a
    /// configuration error, not a runtime state).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "admission queue capacity must be positive");
        metric_gauge!("lgen.serve.queue_depth").set(0);
        FairQueue {
            state: Mutex::new(State {
                lanes: HashMap::new(),
                order: Vec::new(),
                cursor: 0,
                depth: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues `item` on `tenant`'s lane, or refuses immediately.
    pub fn push(&self, tenant: &str, item: T) -> Result<(), AdmissionError> {
        let mut st = lock(&self.state);
        if st.closed {
            return Err(AdmissionError::Closed);
        }
        if st.depth >= self.capacity {
            return Err(AdmissionError::Full);
        }
        if !st.lanes.contains_key(tenant) {
            st.order.push(tenant.to_string());
            st.lanes.insert(tenant.to_string(), VecDeque::new());
        }
        st.lanes
            .get_mut(tenant)
            .expect("lane just ensured")
            .push_back((Instant::now(), item));
        st.depth += 1;
        metric_gauge!("lgen.serve.queue_depth").set(st.depth as i64);
        drop(st);
        self.cv.notify_one();
        Ok(())
    }

    /// [`pop_timed`](Self::pop_timed) without the wait.
    #[cfg(test)]
    pub fn pop(&self) -> Option<(String, T)> {
        self.pop_timed().map(|(tenant, item, _)| (tenant, item))
    }

    /// Blocks until an item is available and returns it with its tenant
    /// and how long it sat queued, serving tenants round-robin; returns
    /// `None` once the queue is closed *and* drained. The wait is billed
    /// to the tenant via the `lgen.serve.queue_wait_us{tenant}` histogram
    /// family — the per-tenant backlog signal `stats --json` surfaces.
    pub(crate) fn pop_timed(&self) -> Option<(String, T, Duration)> {
        let mut st = lock(&self.state);
        loop {
            if st.depth > 0 {
                let n = st.order.len();
                for step in 0..n {
                    let idx = (st.cursor + step) % n;
                    let tenant = st.order[idx].clone();
                    let lane = st.lanes.get_mut(&tenant).expect("lane for ordered tenant");
                    if let Some((queued_at, item)) = lane.pop_front() {
                        st.cursor = (idx + 1) % n;
                        st.depth -= 1;
                        metric_gauge!("lgen.serve.queue_depth").set(st.depth as i64);
                        drop(st);
                        let wait = queued_at.elapsed();
                        metric_histogram_family!("lgen.serve.queue_wait_us", "tenant")
                            .with(&[&tenant])
                            .record(wait.as_micros() as u64);
                        return Some((tenant, item, wait));
                    }
                }
                unreachable!("depth > 0 with all lanes empty");
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Closes the queue: future pushes fail with
    /// [`AdmissionError::Closed`], blocked and future pops
    /// drain the backlog and then return `None`.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.cv.notify_all();
    }

    /// Items currently queued across all tenants.
    pub fn depth(&self) -> usize {
        lock(&self.state).depth
    }

    /// Total capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Tenants seen since construction (lanes are retained once created).
    pub fn tenants(&self) -> usize {
        lock(&self.state).order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn drains_round_robin_across_tenants() {
        let q = FairQueue::new(16);
        // Tenant a floods first; b and c each queue one item afterwards.
        for i in 0..6 {
            q.push("a", ("a", i)).unwrap();
        }
        q.push("b", ("b", 0)).unwrap();
        q.push("c", ("c", 0)).unwrap();
        let order: Vec<&str> = (0..8).map(|_| q.pop().unwrap().1 .0).collect();
        // Round-robin: b and c are served within the first 3 pops even
        // though a queued 6 items first.
        assert_eq!(&order[..3], &["a", "b", "c"], "got {order:?}");
        assert_eq!(order.iter().filter(|t| **t == "a").count(), 6);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn per_tenant_fifo_order_is_preserved() {
        let q = FairQueue::new(8);
        for i in 0..4 {
            q.push("a", i).unwrap();
        }
        let drained: Vec<i32> = (0..4).map(|_| q.pop().unwrap().1).collect();
        assert_eq!(drained, [0, 1, 2, 3]);
    }

    #[test]
    fn full_queue_rejects_without_blocking() {
        let q = FairQueue::new(2);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        assert_eq!(q.push("c", 3), Err(AdmissionError::Full));
        let _ = q.pop().unwrap();
        q.push("c", 3).unwrap();
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn close_drains_then_unblocks_workers() {
        let q = Arc::new(FairQueue::new(8));
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some((_, v)) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        // Give the worker a chance to start draining, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(q.push("a", 3), Err(AdmissionError::Closed));
        let got = waiter.join().unwrap();
        assert_eq!(got, [1, 2], "backlog drains before workers exit");
        assert!(q.pop().is_none(), "closed and drained");
    }

    #[test]
    fn pop_timed_reports_queue_wait() {
        let q = FairQueue::new(4);
        q.push("slow-tenant", 1).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(15));
        let (tenant, item, wait) = q.pop_timed().unwrap();
        assert_eq!((tenant.as_str(), item), ("slow-tenant", 1));
        assert!(
            wait >= std::time::Duration::from_millis(10),
            "wait {wait:?} should cover the sleep"
        );
        // The wait landed in the per-tenant histogram family.
        let snap = lgen_telemetry::registry().snapshot();
        let fam = snap
            .histogram_families
            .iter()
            .find(|(n, _)| n == "lgen.serve.queue_wait_us")
            .map(|(_, f)| f)
            .expect("queue-wait family registered");
        let h = fam.get(&["slow-tenant"]).expect("tenant series");
        assert!(h.count >= 1);
        assert!(h.max >= 10_000, "recorded {}us", h.max);
    }

    #[test]
    fn concurrent_producers_and_consumers_balance() {
        let q = Arc::new(FairQueue::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                std::thread::spawn(move || {
                    let mut per_tenant: HashMap<String, usize> = HashMap::new();
                    while let Some((t, _)) = q.pop() {
                        *per_tenant.entry(t).or_default() += 1;
                    }
                    per_tenant
                })
            })
            .collect();
        std::thread::scope(|s| {
            for t in ["a", "b", "c"] {
                s.spawn(|| {
                    for i in 0..50 {
                        q.push(t, i).unwrap();
                    }
                });
            }
        });
        // Let the consumers drain, then close to release them.
        while q.depth() > 0 {
            std::thread::yield_now();
        }
        q.close();
        let mut totals: HashMap<String, usize> = HashMap::new();
        for c in consumers {
            for (t, n) in c.join().unwrap() {
                *totals.entry(t).or_default() += n;
            }
        }
        assert_eq!(totals.values().sum::<usize>(), 150);
        assert!(totals.values().all(|&n| n == 50), "{totals:?}");
    }
}
