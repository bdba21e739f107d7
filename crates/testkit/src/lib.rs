//! Test support for the PEERING reproduction.
//!
//! Two pieces live here, shared by the integration suites:
//!
//! - [`oracle`]: a convergence oracle that sweeps a built platform and
//!   asserts the global invariants that must hold in any quiescent state —
//!   every Established session's Adj-RIB-Out matches its peer's
//!   Adj-RIB-In, the vBGP mux mirrors the per-neighbor tables, no
//!   experiment route survives a dead tunnel, and the enforcement engines
//!   agree with the data plane.
//! - [`harness`]: a deterministic chaos harness that builds the paper
//!   topology, attaches an experiment, unleashes a seeded [`ChaosPlan`]
//!   against it, waits out the retry/damping window, and runs the oracle.
//!   Failing seeds shrink to a minimal reproducer by incident removal.
//!
//! [`ChaosPlan`]: peering_netsim::ChaosPlan

#![forbid(unsafe_code)]

pub mod harness;
pub mod oracle;

pub use harness::{run_chaos_schedule, shrink_failing_plan, ChaosOutcome, HarnessOptions};
pub use oracle::check_convergence;
