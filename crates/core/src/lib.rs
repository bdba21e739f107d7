//! # peering-vbgp
//!
//! The paper's core contribution: **vBGP**, a framework that virtualizes the
//! data and control planes of a BGP edge router so that multiple parallel
//! experiments each get control and visibility equivalent to owning the
//! router, while enforcement engines interpose on everything they do (paper
//! §3).
//!
//! The pieces, mapped to the paper:
//!
//! | Module | Paper | What it does |
//! |---|---|---|
//! | [`vnh`] | §3.2.2, §4.4 | Allocates per-neighbor virtual (IP, MAC) pairs from the local `127.65/16` and platform-global `127.127/16` pools |
//! | [`communities`] | §3.2.1 | The control-community scheme experiments use to steer which neighbors receive an announcement |
//! | [`capability`] | §4.7 | The per-experiment capability framework (poisoning, communities, transitive attributes, transit, 6to4) |
//! | [`enforcement`] | §3.3, §4.7 | Control-plane and data-plane enforcement engines, decoupled from the routing engine, stateful, fail-closed |
//! | [`transport`] | §2.2 | BGP-over-simulated-Ethernet session transport shared by vBGP routers, experiments and synthetic Internet ASes |
//! | [`mux`] | §3.2.2 | The data-plane mux: destination-MAC classification onto per-neighbor tables, ARP responder for virtual next hops, source-MAC rewriting toward experiments |
//! | [`policies`] | §3.2, §4.4 | Generated speaker policies: per-neighbor next-hop rewrites on import, community steering + control-community stripping on export, global↔local pool mapping across the backbone |
//! | [`router`] | §3 | [`router::VbgpRouter`]: the complete virtualized edge router as a simulator node |
//!
//! ```
//! use peering_vbgp::{ControlCommunities, NeighborId};
//!
//! // The §3.2.1 steering interface: experiments label announcements with
//! // control communities to pick which neighbors hear them.
//! let cc = ControlCommunities::new(47065);
//! let only_n3 = vec![cc.announce_to(NeighborId(3))];
//! assert!(cc.allows_export(&only_n3, NeighborId(3)));
//! assert!(!cc.allows_export(&only_n3, NeighborId(5)));
//! assert!(cc.allows_export(&[], NeighborId(5))); // no steering → everyone
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capability;
pub mod communities;
pub mod enforcement;
pub mod fasthash;
pub mod ids;
pub mod mux;
pub mod policies;
pub mod router;
pub mod transport;
pub mod vnh;

pub use capability::{CapabilityKind, CapabilitySet, Grant};
pub use communities::ControlCommunities;
pub use enforcement::control::{ControlEnforcer, ExperimentPolicy, Rejection};
pub use enforcement::data::{DataEnforcer, DataVerdict};
pub use fasthash::{FastHashMap, FxHasher};
pub use ids::{ExperimentId, NeighborId, PopId};
pub use mux::{Delivery, Egress, MuxTarget, VbgpMux};
pub use router::{
    BackboneConfig, ExperimentConfig, NeighborConfig, NeighborKind, RemoteNeighbor, VbgpRouter,
};
pub use transport::{BgpHost, HostEvent, ETHERTYPE_BGP};
pub use vnh::{VnhAllocator, GLOBAL_POOL, LOCAL_POOL};
