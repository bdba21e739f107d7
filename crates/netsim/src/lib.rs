//! # peering-netsim
//!
//! A deterministic, discrete-event network simulator providing the substrate
//! that the PEERING paper ran on top of the real Internet and Linux kernel:
//! Ethernet frames and MAC addressing, ARP, IPv4/IPv6 packets, point-to-point
//! links with configurable latency/bandwidth/fault-injection, L2 learning
//! switches (IXP fabrics), and a Reno-style TCP flow model used for the
//! backbone-throughput experiments (paper §6).
//!
//! The design follows the smoltcp idiom: protocol logic is event-driven and
//! sans-IO. Nodes implement [`Node`] and exchange [`EtherFrame`]s; all
//! randomness (loss, corruption) is drawn from a seeded RNG so every run is
//! reproducible.
//!
//! Runs can also be sharded across worker threads without changing any
//! observable output: see [`Simulator::set_shards`] and the module docs of
//! [`sim`] for the conservative-lookahead design.
//!
//! ```
//! use peering_netsim::{Simulator, SimDuration, LinkConfig};
//! let mut sim = Simulator::new(42);
//! assert_eq!(sim.now().as_nanos(), 0);
//! sim.run_for(SimDuration::from_millis(5));
//! assert_eq!(sim.now().as_millis(), 5);
//! let _cfg = LinkConfig::default();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod bytes;
pub mod chaos;
pub mod event;
pub mod frame;
pub mod icmp;
pub mod ip;
pub mod link;
pub mod mac;
pub mod sim;
pub mod switch;
pub mod tcp;
pub mod time;

pub use crate::bytes::Bytes;
pub use arp::{ArpCache, ArpOp, ArpPacket};
pub use chaos::{ChaosChange, ChaosPlan, ChaosStep, Incident, IncidentKind};
pub use event::{Event, EventKey, EventKind, EventQueue, CLASS_CHAOS, CLASS_NODE, EXTERNAL_SRC};
pub use frame::{EtherFrame, EtherType};
pub use icmp::IcmpPacket;
pub use ip::{IpPacket, IpProto, Ipv4Header};
pub use link::{FaultInjector, Link, LinkConfig, LinkStats};
pub use mac::MacAddr;
pub use sim::{Ctx, LinkId, Node, NodeId, PortId, SimRng, Simulator};
pub use switch::LearningSwitch;
pub use tcp::{TcpFlowConfig, TcpReceiver, TcpSegment, TcpSender};
pub use time::{SimDuration, SimTime};
