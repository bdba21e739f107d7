//! # peering-toolkit
//!
//! The experiment-side client toolkit (paper §4.5, Table 1). Experiments
//! connect to PEERING PoPs over tunnels, establish BGP sessions with the
//! vBGP routers, and then behave exactly like any BGP router on the
//! Internet — ARPing for next hops, steering packets by destination MAC,
//! announcing and withdrawing prefixes.
//!
//! * [`node::ExperimentNode`] — a standard experiment router as a simulator
//!   node: speaks BGP over its tunnels, resolves virtual next hops via ARP,
//!   forwards traffic by best route or by explicit per-packet choice (the
//!   X1 "standard software router" and X2 "Espresso-like controller" setups
//!   of paper Fig. 1 are both drivable from it).
//! * [`client`] — the Table 1 wrapper functionality: tunnel open/close/
//!   status, session start/stop/status, announce/withdraw with community,
//!   prepend and poison manipulation.
//! * [`cli`] — the textual command interface over [`client`], mirroring
//!   the `peering` utility (`peering prefix announce …`).

#![forbid(unsafe_code)]

pub mod cli;
pub mod client;
pub mod node;

pub use cli::CliError;
pub use client::{AnnounceOptions, SessionStatus, Toolkit, TunnelStatus};
pub use node::{ExperimentNode, ReceivedPacket};
