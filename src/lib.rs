//! # peering-repro
//!
//! Umbrella crate for the reproduction of *PEERING: Virtualizing BGP at the
//! Edge for Research* (CoNEXT 2019). It re-exports every workspace crate so
//! the `examples/` and `tests/` at the repository root can exercise the whole
//! system through one dependency.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every figure and table.

#![forbid(unsafe_code)]

pub use peering_bgp as bgp;
pub use peering_netsim as netsim;
pub use peering_obs as obs;
pub use peering_platform as platform;
pub use peering_toolkit as toolkit;
pub use peering_vbgp as vbgp;
