//! # peering-platform
//!
//! The PEERING platform (paper §§4–5): everything that turns a pile of vBGP
//! routers into a community testbed.
//!
//! | Module | Paper | What it does |
//! |---|---|---|
//! | [`allocation`] | §4.2 | The numbered-resource registry: 8 ASNs, 40 IPv4 /24s, one IPv6 /32, leased per experiment |
//! | [`experiment`] | §4.6, §4.7 | Experiment lifecycle: proposal → review (risky ones rejected) → approval with capabilities → credentials |
//! | [`intent`] | §5 | Intent-based configuration: the central desired-state model compiled into per-service configs (routing engine, VPN, enforcement), with rendered BIRD-style text |
//! | [`netconf`] | §5 | An in-memory model of Linux network state (interfaces, primary/secondary addresses, routes, rules) with Netlink-style request/response semantics |
//! | [`controller`] | §5 | The network controller with transactional semantics: diff intended vs. actual, minimal changes, rollback on failure, primary-address repair |
//! | [`vpn`] | §4.5, §4.6 | Simulated OpenVPN service: credentials, connect/disconnect, tunnel bookkeeping |
//! | [`internet`] | §2 (substrate) | Synthetic Internet ASes with Gao–Rexford policies: route propagation, customer cones, full data-plane forwarding |
//! | [`topology`] | §4.2 | Footprint generator parameterized to the paper's published counts (13 PoPs, 923 peers, 12 transits, peer-type mix) |
//! | [`platform`] | §4 | [`platform::Peering`]: builds the whole testbed in the simulator and provisions experiments turn-key |
//! | [`serving`] | §3.3, §4.7 | Anycast serving harness: announce one prefix from N PoPs, predict + observe per-PoP catchment, drive churn shifts |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocation;
pub mod controller;
pub mod experiment;
pub mod intent;
pub mod internet;
pub mod json;
pub mod netconf;
pub mod platform;
pub mod serving;
pub mod topology;
pub mod vpn;

pub use allocation::{AllocationError, AllocationRegistry, Lease};
pub use controller::{ApplyReport, NetworkController, TransactionError};
pub use experiment::{Proposal, ProposalDecision, ProposalStatus, Review};
pub use intent::{
    compile_pop, ConfigStore, ExperimentIntent, NeighborIntent, NeighborRole, PlatformIntent,
    PopIntent, PopKind, ServiceConfigs,
};
pub use internet::{InternetAs, Relationship};
pub use netconf::{Address, Interface, NetState, NetconfError, NetconfOp, RouteEntry};
pub use platform::{AttachedExperiment, BuildProfile, Peering, PeeringError};
pub use serving::{AnycastServing, ServingParams};
pub use topology::{FootprintReport, TopologyParams};
pub use vpn::{VpnCredentials, VpnServer};
