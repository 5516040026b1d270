//! `lgen-serve` — the `lgend` compile service.
//!
//! A long-running daemon that compiles LL programs over a Unix-domain
//! socket, plus the matching blocking client and a deterministic
//! traffic-replay load harness. The daemon stacks the pieces the rest
//! of the workspace provides:
//!
//! - **Protocol** ([`proto`]): length-prefixed frames carrying a small
//!   text message (verb line, `key: value` headers, body) — requests
//!   for `compile`/`tune`/`stats`/`ping`/`shutdown`.
//! - **Admission** (`admission::FairQueue`): a bounded queue with
//!   per-tenant round-robin fairness; overload answers `error busy`
//!   instead of queueing without bound.
//! - **Coalescing** ([`lgen_core::Coalescer`]): identical in-flight
//!   fingerprints compile once; waiters share the result.
//! - **Persistence** ([`lgen_core::DiskCache`]): a content-addressed
//!   on-disk kernel cache (checksummed, write-temp-then-rename,
//!   corrupt entries quarantined) so a restarted daemon starts warm.
//! - **Telemetry** ([`lgen_telemetry`]): queue-depth gauge, per-request
//!   spans, and hit/coalesced/compiled counters; `stats` responses
//!   render the live registry.
//!
//! See `DESIGN.md` ("The compile service") for the protocol and cache
//! layout in detail, and `src/bin/lgend.rs` / `src/bin/lgen-cli.rs` for
//! the command-line entry points.

mod admission;
pub mod client;
pub mod proto;
pub mod recorder;
pub mod replay;
pub(crate) mod server;
pub mod trace;

pub use client::Client;
pub use proto::{ErrorKind, ProtoError, Request, Response, Verb};
pub use recorder::{CacheTier, CoalesceRole, FlightRecord, FlightRecorder};
pub use replay::{replay, ReplayConfig, ReplayReport};
pub use server::{Lgend, ServeConfig, DEFAULT_RECORDER_CAP};
