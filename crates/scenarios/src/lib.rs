//! Adversarial interdomain scenarios, run as first-class PEERING
//! experiments against the synthetic internet (ROADMAP item: scenario
//! library; related work: "Flexsealing BGP Against Route Leaks" and
//! "Withdrawing the BGP Re-Routing Curtain", see PAPERS.md).
//!
//! Three seeded, scripted scenario families:
//!
//! - [`leak`] — a multihomed customer AS re-exports provider/peer-learned
//!   routes upstream (the RFC 7908 route leak), with configurable
//!   Peerlock / peerlock-lite filter deployment at the transit tier and a
//!   reactive-containment phase measuring time-to-containment.
//! - [`poison`] — AS-path poisoning through the platform's poisoning
//!   capability, sweeping poison depth and reporting which synthetic ASes
//!   drop poisoned paths (own-ASN filters, path-length caps) plus the
//!   achieved return-path steering, verified by traceroute-style probes.
//! - [`te`] — inbound traffic engineering with action communities
//!   (prepend-to-peer, do-not-announce-regional) interpreted by the
//!   Gao–Rexford policy engine, measuring ingress PoP catchment shifts.
//!
//! Every scenario runs on a [`net::ScenarioNet`] (a small PEERING
//! deployment plus a seeded AS hierarchy under its transits), emits a
//! structured [`report::ScenarioReport`], and is verified against the
//! pure-Rust reference propagation model in [`model`]. Reports are
//! bit-identical across simulator shard counts for the same seed.

#![forbid(unsafe_code)]

pub mod leak;
pub mod model;
pub mod net;
pub mod poison;
pub mod report;
pub mod te;

pub use leak::{run_leak, FilterMode, LeakParams};
pub use model::{rel_pref, Injection, Model, ModelAs, Predicted, Rel};
pub use net::{
    addr_in, reconcile, AsInfo, Observed, ScenarioNet, ScenarioParams, SessionInfo, MID_ASN0,
    PLATFORM_ASN, STUB_ASN0, TRANSIT_ASN0, VANTAGE_ASN,
};
pub use poison::{run_poison, PoisonParams, LEN_CAPS, POISON_ORDER};
pub use report::{AsVerdict, ScenarioReport};
pub use te::{run_te, TeParams};
