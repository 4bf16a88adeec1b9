//! # cqfit-sim
//!
//! Deterministic simulation testing for the durable fitting stack
//! (FoundationDB / madsim style): the whole production code path —
//! `cqfit-store`'s write-ahead log and `cqfit-engine` on top of it — runs
//! unmodified against a **simulated filesystem** ([`SimFs`]) and a
//! **seeded deterministic scheduler** ([`SimScheduler`]), both injected
//! through the [`cqfit_env::Env`] abstraction introduced alongside this
//! crate.
//!
//! The harness ([`harness::explore`]) runs seeded churn workloads
//! (`cqfit_gen::churn_workload`) through crash→recover→compare loops and
//! checks three invariants on every execution:
//!
//! 1. **fold(log) == state** — the engine recovered from the surviving
//!    log bytes answers every question byte-identically to a storeless
//!    oracle driven with the surviving mutation prefix;
//! 2. **at-most-one-lost-ack** — a crash never loses an acknowledged
//!    mutation: the recovered revision is at least the acknowledged
//!    count (and at most the issued count);
//! 3. **drops-stay-dropped** — an acknowledged workspace drop never
//!    resurrects after recovery.
//!
//! Crash points are exhaustive where it matters: every record boundary
//! of a log and at least one mid-record byte per record (phase A), plus
//! seeded mid-run crashes with compaction in flight (phase B) and
//! short-write / failed-sync fault injection (phase C).
//!
//! Since PR 7 the simulator also covers the **network**: phase N runs a
//! real [`cqfit_engine::Server`] and resilient [`cqfit_engine::Client`]
//! over an in-memory [`SimNet`] (seeded partial frames, refused
//! connects, and connection cuts at every frame boundary and mid-frame),
//! checking three more invariants on every execution:
//!
//! 4. **acked-mutations-survive** — a mutation whose response reached the
//!    client is present in the final state, across any number of
//!    reconnects;
//! 5. **exactly-once retries** — a mutation retried after an ambiguous
//!    drop is applied once (revisions never double-bump): the final
//!    state is byte-identical to a never-dropped oracle's;
//! 6. **drain-replies** — shutdown drain answers every fully-received
//!    request instead of dropping the socket.
//!
//! Since PR 9 the harness also cross-checks the **observability layer**
//! (`cqfit-obs`, threaded through store, engine, server, and client) in
//! a dedicated phase M:
//!
//! 7. **metrics-count-reality** — the acked-append counter equals the
//!    oracle's acknowledged logged mutations, engine-level counters
//!    byte-match a storeless oracle's, compaction events agree with the
//!    compaction counter, a fault-free wire session reports zero
//!    retries, and every injected cut that consumed a request surfaces
//!    as exactly one client retry (batch replays appearing one-for-one
//!    in the server's memo-replay counter).
//!
//! Every failure message embeds the seed; reproduce with
//! `CQFIT_SIM_SEED=<seed> cargo run --release -p cqfit-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod fs;
pub mod harness;
pub mod net;
pub mod sched;

pub use env::SimEnv;
pub use fs::{FaultPlan, SimFs};
pub use harness::{explore, sweep, ExploreStats, SimConfig, SweepOutcome};
pub use net::{NetFaultPlan, SimNet};
pub use sched::{SimScheduler, SimTask};

/// One step of the splitmix64 sequence (the crate's only random source —
/// everything in the simulator derives from an explicit seed).
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
