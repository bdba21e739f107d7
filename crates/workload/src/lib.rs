//! Internet-scale workloads for the PEERING reproduction.
//!
//! The paper's production mux serves 923 peers with a full Internet table
//! per neighbor (§4.2, §6). This crate turns that deployment context into
//! a reproducible workload: a seeded synthetic-DFZ generator with
//! realistic prefix-length and AS-path-length distributions
//! ([`dfz::DfzGenerator`]), an IXP-fabric builder that stands up a PoP
//! with hundreds of route-server members each feeding a slice of the
//! table ([`fabric::DfzFabric`]), and a trace-shaped churn replayer
//! calibrated to AMS-IX update rates ([`churn::ChurnSchedule`]).
//!
//! Everything is deterministic from `u64` seeds: the same configuration
//! replays the identical route stream, fabric, and churn schedule, so a
//! failing run IS its own reproducer — and the sharded simulator must
//! produce bit-identical results on the workload at any shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod dfz;
pub mod fabric;
pub mod serving;
pub mod traffic;

pub use churn::{ChurnConfig, ChurnEvent, ChurnSchedule};
pub use dfz::{DfzConfig, DfzGenerator, DfzRoute};
pub use fabric::{DfzFabric, FabricConfig, FeedStats};
pub use serving::{run_serving, ServingOutcome, ServingSpec};
pub use traffic::{Flow, FlowClass, FlowProto, TrafficConfig, TrafficGenerator, TrafficMix};
