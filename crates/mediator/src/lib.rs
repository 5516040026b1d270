//! Mediator: middleware for coordinated performance experiments (Chapter 4).
//!
//! The thesis's Mediator is a web application that receives experiment
//! jobs, runs them on SSH-accessible devices — guaranteeing that **only one
//! experiment runs at a time per core per device** while load-balancing
//! over a device's cores — and returns measurements synchronously or via
//! asynchronous polling, with a results cache that expires old entries.
//!
//! This reimplementation keeps the architecture of Fig. 4.1 — listener,
//! per-core queues, worker threads, results cache — and the wire model of
//! Appendix A (plain request/response/error types), with one
//! substitution documented in DESIGN.md: "devices" are instances of the
//! `lgen-machine` simulator instead of SSH targets, and an experiment's
//! payload is a closure executed on the device's core instead of shell
//! commands. The scheduling semantics (mutual exclusion per core, load
//! balancing, sync/async processing, expiry) are implemented and tested
//! for real, with actual worker threads. Each experiment attempt is
//! isolated by `lgen_core::pool::run_outcomes`, the runtime the autotuner
//! and `lgend` use too: a panic becomes a 500, an overrun deadline a 408.

pub(crate) mod api;
pub mod measure;
pub(crate) mod scheduler;

pub use api::{ApiError, ErrorReason, ExperimentResults, JobResults, JobState, JobStatus};
pub use measure::MeasurementModule;
pub use scheduler::{DeviceSpec, ExperimentSpec, Mediator};
