//! The complete vBGP edge router as a simulator node (paper §3, Fig. 3).
//!
//! [`VbgpRouter`] composes the pieces exactly as the paper's architecture
//! does:
//!
//! * the **routing engine** — a [`peering_bgp::Speaker`] wrapped in a
//!   [`BgpHost`] (the BIRD role), with per-session generated policies from
//!   [`crate::policies`];
//! * the **control-plane enforcement engine** — interposed between
//!   experiment sessions and the routing engine via the transport's
//!   interposition hook (the ExaBGP role, §3.3);
//! * the **data-plane enforcement engine** — consulted on every packet an
//!   experiment sends (the eBPF role, §3.3);
//! * the **mux** — per-neighbor tables, MAC classification, the virtual
//!   next-hop ARP responder, and source-MAC rewriting (§3.2.2, §4.4).
//!
//! The router makes no routing decisions of its own: experiments do
//! (§3.2.2 "Because all routing decisions are delegated to experiments").

use std::collections::{HashMap, HashSet};
use std::net::{IpAddr, Ipv4Addr};

use peering_bgp::policy::Policy;
use peering_bgp::rib::{PeerId, Route};
use peering_bgp::speaker::{PeerConfig, Speaker, SpeakerConfig};
use peering_bgp::types::{Afi, Asn, PathId, Prefix, RouterId};
use peering_netsim::arp::{ArpOp, ArpPacket};
use peering_netsim::{
    Bytes, Ctx, EtherFrame, EtherType, IcmpPacket, IpPacket, IpProto, MacAddr, Node, PortId,
    SimDuration,
};

use peering_obs::{EventKind as ObsEvent, Obs};

use crate::communities::ControlCommunities;
use crate::enforcement::control::{ControlEnforcer, ExperimentPolicy, RateLedger};
use crate::enforcement::data::{DataEnforcer, DataVerdict, ExperimentDataPolicy, TokenBucket};
use crate::enforcement::pprog::PacketView;
use crate::fasthash::FastHashMap;
use crate::ids::{ExperimentId, NeighborId, PopId};
use crate::mux::{Delivery, Egress, MuxTarget, VbgpMux};
use crate::policies;
use crate::transport::{BgpHost, Endpoint, HostEvent};
use crate::vnh::{self, global_ip};

/// The relationship with a neighbor (paper §4.2's interconnection types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NeighborKind {
    /// A transit provider (full table, reaches everything).
    Transit,
    /// A bilateral peer (its customer cone).
    Peer,
    /// An IXP route server (multilateral peering).
    RouteServer,
}

/// Configuration for one directly-attached BGP neighbor.
#[derive(Debug, Clone)]
pub struct NeighborConfig {
    /// Platform-wide neighbor id (also the community steering handle).
    pub id: NeighborId,
    /// The neighbor's ASN.
    pub asn: Asn,
    /// Interconnection type.
    pub kind: NeighborKind,
    /// Port the neighbor is reached on (dedicated or shared IXP fabric).
    pub port: PortId,
    /// The neighbor router's MAC.
    pub remote_mac: MacAddr,
    /// Our address on the session.
    pub local_addr: Ipv4Addr,
    /// The neighbor's address (its real next hop, e.g. `1.1.1.1` in Fig. 2).
    pub remote_addr: Ipv4Addr,
    /// Platform-global index for the §4.4 pool (`127.127/16`).
    pub global_index: u16,
    /// Open passively.
    pub passive: bool,
}

/// Configuration for one experiment attachment (a VPN tunnel in the paper).
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// The experiment.
    pub id: ExperimentId,
    /// The experiment's ASN.
    pub asn: Asn,
    /// The tunnel port.
    pub port: PortId,
    /// The experiment router's MAC.
    pub remote_mac: MacAddr,
    /// Our tunnel-side address.
    pub local_addr: Ipv4Addr,
    /// The experiment's tunnel-side address.
    pub remote_addr: Ipv4Addr,
    /// Platform-global index for delivering its traffic across the
    /// backbone (`None` for single-PoP experiments).
    pub global_index: Option<u16>,
    /// Control-plane allocations/capabilities.
    pub policy: ExperimentPolicy,
    /// Data-plane policy (anti-spoof sources, shaping).
    pub data: ExperimentDataPolicy,
}

/// A neighbor at another PoP, reachable over a backbone session (§4.4).
#[derive(Debug, Clone, Copy)]
pub struct RemoteNeighbor {
    /// Its platform-wide id.
    pub id: NeighborId,
    /// Its global-pool index.
    pub global_index: u16,
}

/// Configuration for a backbone (iBGP mesh) session to another PoP.
#[derive(Debug, Clone)]
pub struct BackboneConfig {
    /// Backbone port for this PoP pair.
    pub port: PortId,
    /// The remote vBGP router's MAC on that segment.
    pub remote_mac: MacAddr,
    /// Our backbone address.
    pub local_addr: Ipv4Addr,
    /// The remote router's backbone address.
    pub remote_addr: Ipv4Addr,
    /// The neighbors attached at the remote PoP (intent-based central
    /// config, §5).
    pub remote_neighbors: Vec<RemoteNeighbor>,
    /// Open passively (one side of each pair initiates).
    pub passive: bool,
}

/// What a learned route was installed as in the mux.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Installed {
    NeighborRoute(NeighborId),
    DeliveryEntry(Delivery),
}

/// Whether a route for `prefix` gets data-plane state (a neighbor-table
/// route or a delivery entry). The data plane is IPv4-only, so an IPv6
/// route stays in the control plane (Adj-RIB-In, Loc-RIB, exports) and
/// installs nothing in the mux.
fn in_data_plane(prefix: &Prefix) -> bool {
    prefix.afi() == Afi::Ipv4
}

/// Router counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct RouterStats {
    /// Packets dropped by the data-plane enforcement engine.
    pub data_blocked: u64,
    /// Inbound packets dropped by the ingress serving pipeline (uRPF,
    /// ingress program, flood budget) before delivery to an experiment.
    pub ingress_blocked: u64,
    /// Packets passed with a packet-program header rewrite applied.
    pub data_transformed: u64,
    /// Rate-ledger gossip frames sent to backbone peers.
    pub ledger_gossip_tx: u64,
    /// Rate-ledger gossip frames received and applied.
    pub ledger_gossip_rx: u64,
    /// Packets dropped for TTL expiry.
    pub ttl_expired: u64,
    /// Packets dropped with no matching route or delivery entry.
    pub no_route: u64,
    /// Updates dropped (fully) by the control-plane engine.
    pub updates_blocked: u64,
    /// Updates passed (possibly partially) to the routing engine.
    pub updates_passed: u64,
    /// ICMP error messages generated.
    pub icmp_sent: u64,
    /// ICMP errors suppressed because the offending packet was itself an
    /// ICMP error (RFC 1122 §3.2.2).
    pub icmp_suppressed_error: u64,
    /// ICMP errors suppressed by the per-router rate limit.
    pub icmp_rate_limited: u64,
}

const TOKEN_ARP_RETRY: u64 = 1;

/// Timer token for the rate-ledger housekeeping/gossip tick. The timer is
/// armed lazily (first ledger activity) and re-armed only while the ledger
/// holds state, so an idle platform still quiesces.
const TOKEN_LEDGER: u64 = 2;

/// Ledger gossip / housekeeping period. One period is also the
/// reconciliation bound after a backbone partition heals.
const LEDGER_GOSSIP_SECS: u64 = 60;

/// EtherType for ledger gossip frames on backbone segments (an
/// experimental-range value; [`BgpHost`] ignores non-BGP ethertypes, so
/// these coexist with the iBGP mesh on the same links).
const LEDGER_ETHERTYPE: u16 = 0x88B5;

/// Leading magic of a gossip payload ("PLGR").
const LEDGER_MAGIC: u32 = 0x504C_4752;

/// Gossip payload version.
const LEDGER_VERSION: u8 = 2;

/// ICMP error generation rate limit (RFC 1812 §4.3.2.8): sustained
/// messages per second and burst depth. Bucket tokens are whole messages.
const ICMP_ERRORS_PER_SEC: u64 = 100;
const ICMP_ERROR_BURST: u64 = 50;

/// ICMP message types that are themselves error reports (destination
/// unreachable, source quench, redirect, time exceeded, parameter
/// problem). RFC 1122 §3.2.2: an ICMP error message must never be sent in
/// response to one of these. A raw first-byte peek suffices — a packet
/// too mangled to classify gets no error either way.
fn icmp_is_error(payload: &[u8]) -> bool {
    matches!(payload.first(), Some(3 | 4 | 5 | 11 | 12))
}

/// How long the routing engine retains routes learned from a neighbor or
/// backbone session after it drops, giving the peer a chance to
/// re-establish and refresh them before they are flushed. Experiment
/// sessions get no retention: a dead tunnel must lose its routes at once
/// so announcements never outlive the experiment's connectivity.
const SESSION_RETENTION_SECS: u16 = 30;

/// The virtualized edge router.
pub struct VbgpRouter {
    pop: PopId,
    asn: Asn,
    cc: ControlCommunities,
    /// The routing engine + transport.
    pub host: BgpHost,
    /// The data-plane mux.
    pub mux: VbgpMux,
    /// Control-plane enforcement.
    pub control: ControlEnforcer,
    /// Data-plane enforcement.
    pub data: DataEnforcer,
    /// Counters.
    pub stats: RouterStats,
    /// Observability (journal events live, counters mirrored by
    /// [`VbgpRouter::publish_obs`]).
    obs: Obs,
    /// Per-router ICMP error-generation limiter (RFC 1812 §4.3.2.8).
    icmp_bucket: TokenBucket,
    // The two maps on the per-packet path use the fast hasher; the rest are
    // control-plane-rate only.
    port_macs: FastHashMap<PortId, MacAddr>,
    iface_ips: HashMap<Ipv4Addr, (PortId, MacAddr)>,
    neighbor_peers: HashMap<PeerId, NeighborId>,
    exp_peers: HashMap<PeerId, ExperimentId>,
    exp_ports: FastHashMap<PortId, ExperimentId>,
    exp_tunnel_addr: HashMap<ExperimentId, Ipv4Addr>,
    exp_global: HashMap<ExperimentId, Ipv4Addr>,
    backbone_peers: HashSet<PeerId>,
    /// `(port, remote MAC)` of every backbone segment — where ledger
    /// gossip frames go.
    backbone_links: Vec<(PortId, MacAddr)>,
    /// Whether a [`TOKEN_LEDGER`] timer is outstanding.
    ledger_timer_armed: bool,
    /// Last day index the ledger was pruned at (housekeeping runs once per
    /// simulated day).
    last_pruned_day: u64,
    /// Last flood window the ledger was pruned at (flood windows roll much
    /// faster than days, so they get their own prune trigger).
    last_pruned_window: u64,
    ingress_neighbor: FastHashMap<(PortId, MacAddr), NeighborId>,
    local_neighbor_globals: Vec<(Ipv4Addr, Ipv4Addr)>, // (vnh local, global)
    installed: HashMap<(PeerId, Prefix, PathId), Installed>,
    next_peer: u32,
    started: bool,
    // Reused batch scratch (cleared by each callee).
    egress_scratch: Vec<Option<Egress>>,
    delivery_scratch: Vec<Option<(Egress, Option<MacAddr>, ExperimentId)>>,
    verdict_scratch: Vec<DataVerdict>,
}

/// How a run of same-instant IPv4 frames will be forwarded; consecutive
/// frames sharing a plan are processed as one batch.
#[derive(Clone, Copy, PartialEq, Eq)]
enum IpPlan {
    Neighbor(NeighborId),
    Delivery(Option<NeighborId>),
}

impl VbgpRouter {
    /// Create a router for a PoP.
    pub fn new(
        pop: PopId,
        asn: Asn,
        router_id: RouterId,
        control: ControlEnforcer,
        data: DataEnforcer,
    ) -> Self {
        assert!(asn.is_2byte(), "platform ASN must fit the community scheme");
        let cc = ControlCommunities::new(asn.0 as u16);
        let speaker = Speaker::new(SpeakerConfig { asn, router_id });
        VbgpRouter {
            pop,
            asn,
            cc,
            host: BgpHost::new(speaker),
            mux: VbgpMux::new(),
            control,
            data,
            stats: RouterStats::default(),
            obs: Obs::new(),
            icmp_bucket: TokenBucket::new(ICMP_ERRORS_PER_SEC, ICMP_ERROR_BURST),
            port_macs: FastHashMap::default(),
            iface_ips: HashMap::new(),
            neighbor_peers: HashMap::new(),
            exp_peers: HashMap::new(),
            exp_ports: FastHashMap::default(),
            exp_tunnel_addr: HashMap::new(),
            exp_global: HashMap::new(),
            backbone_peers: HashSet::new(),
            backbone_links: Vec::new(),
            ledger_timer_armed: false,
            last_pruned_day: 0,
            last_pruned_window: 0,
            ingress_neighbor: FastHashMap::default(),
            local_neighbor_globals: Vec::new(),
            installed: HashMap::new(),
            next_peer: 0,
            started: false,
            egress_scratch: Vec::new(),
            delivery_scratch: Vec::new(),
            verdict_scratch: Vec::new(),
        }
    }

    /// The PoP this router serves.
    pub fn pop(&self) -> PopId {
        self.pop
    }

    /// Attach a shared observability handle (typically scoped per PoP by
    /// the platform) and cascade it into the mux and the routing engine.
    pub fn set_obs(&mut self, obs: Obs) {
        self.mux.set_obs(obs.clone());
        self.host.set_obs(obs.clone());
        self.control.set_obs(obs.clone());
        self.data.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Mirror this router's plain-integer counters (and those of its mux,
    /// enforcement engines and routing engine) into the metrics registry.
    /// Called at snapshot points, never on the forwarding hot path.
    pub fn publish_obs(&self) {
        let o = &self.obs;
        let s = &self.stats;
        o.counter("router.data_blocked").set(s.data_blocked);
        o.counter("router.ingress_blocked").set(s.ingress_blocked);
        o.counter("router.data_transformed").set(s.data_transformed);
        o.counter("router.ledger_gossip_tx").set(s.ledger_gossip_tx);
        o.counter("router.ledger_gossip_rx").set(s.ledger_gossip_rx);
        o.counter("router.ttl_expired").set(s.ttl_expired);
        o.counter("router.no_route").set(s.no_route);
        o.counter("router.updates_blocked").set(s.updates_blocked);
        o.counter("router.updates_passed").set(s.updates_passed);
        o.counter("router.icmp_sent").set(s.icmp_sent);
        o.counter("router.icmp_suppressed_error")
            .set(s.icmp_suppressed_error);
        o.counter("router.icmp_rate_limited")
            .set(s.icmp_rate_limited);
        let cs = &self.control.stats;
        o.counter("control.evaluated").set(cs.evaluated);
        o.counter("control.accepted").set(cs.accepted);
        for (r, n) in &cs.rejected {
            o.counter(&format!("control.rejected{{reason={}}}", r.code()))
                .set(*n);
        }
        let ds = &self.data.stats;
        o.counter("data.evaluated").set(ds.evaluated);
        o.counter("data.allowed").set(ds.allowed);
        o.counter("data.prog_runs").set(ds.prog_runs);
        o.counter("data.prog_cache_hits").set(ds.prog_cache_hits);
        for (label, n) in &ds.blocked {
            o.counter(&format!("data.blocked{{policy={label}}}"))
                .set(*n);
        }
        o.counter("data.ingress_evaluated")
            .set(ds.ingress_evaluated);
        o.counter("data.ingress_allowed").set(ds.ingress_allowed);
        for (label, n) in &ds.ingress_blocked {
            o.counter(&format!("data.ingress_blocked{{policy={label}}}"))
                .set(*n);
        }
        self.mux.publish_obs();
        self.host.publish_obs();
    }

    /// The platform ASN.
    pub fn asn(&self) -> Asn {
        self.asn
    }

    /// The control-community codec.
    pub fn control_communities(&self) -> ControlCommunities {
        self.cc
    }

    /// Declare a port and the MAC this router uses on it.
    pub fn set_port_mac(&mut self, port: PortId, mac: MacAddr) {
        self.port_macs.insert(port, mac);
    }

    fn port_mac(&self, port: PortId) -> MacAddr {
        self.port_macs
            .get(&port)
            .copied()
            .unwrap_or_else(|| panic!("port {port:?} has no MAC configured"))
    }

    fn alloc_peer(&mut self) -> PeerId {
        let id = PeerId(self.next_peer);
        self.next_peer += 1;
        id
    }

    /// Register a directly-attached neighbor.
    pub fn add_neighbor(&mut self, cfg: NeighborConfig) -> PeerId {
        let local_mac = self.port_mac(cfg.port);
        let vnh = self.mux.add_local_neighbor(
            cfg.id,
            cfg.port,
            cfg.remote_mac,
            Some(global_ip(cfg.global_index)),
        );
        self.local_neighbor_globals
            .push((vnh.ip, global_ip(cfg.global_index)));
        let peer = self.alloc_peer();
        let mut peer_cfg = PeerConfig::ebgp(cfg.asn, cfg.remote_addr.into(), cfg.local_addr.into())
            .with_retention(SESSION_RETENTION_SECS)
            .with_import(policies::neighbor_import(self.cc.platform_asn, vnh.ip))
            .with_export(policies::neighbor_export(&self.cc, cfg.id));
        if cfg.passive {
            peer_cfg = peer_cfg.with_passive();
        }
        self.host.add_session(
            peer,
            peer_cfg,
            Endpoint {
                port: cfg.port,
                local_mac,
                remote_mac: cfg.remote_mac,
            },
            false,
        );
        self.neighbor_peers.insert(peer, cfg.id);
        self.iface_ips.insert(cfg.local_addr, (cfg.port, local_mac));
        self.ingress_neighbor
            .insert((cfg.port, cfg.remote_mac), cfg.id);
        peer
    }

    /// Attach an experiment (its session is interposed by the control-plane
    /// enforcement engine).
    pub fn add_experiment(&mut self, cfg: ExperimentConfig) -> PeerId {
        let local_mac = self.port_mac(cfg.port);
        let global = cfg.global_index.map(global_ip);
        self.mux
            .add_experiment(cfg.id, cfg.port, cfg.remote_mac, global);
        if let Some(g) = global {
            self.exp_global.insert(cfg.id, g);
        }
        self.control.set_experiment(cfg.id, cfg.policy);
        self.data.set_experiment(cfg.id, cfg.data);
        let peer = self.alloc_peer();
        let peer_cfg = PeerConfig::ebgp(cfg.asn, cfg.remote_addr.into(), cfg.local_addr.into())
            .with_all_paths()
            .with_next_hop_unchanged()
            .with_passive()
            .with_import(policies::experiment_import(self.cc.platform_asn))
            .with_export(policies::experiment_export(self.cc.platform_asn));
        self.host.add_session(
            peer,
            peer_cfg,
            Endpoint {
                port: cfg.port,
                local_mac,
                remote_mac: cfg.remote_mac,
            },
            true,
        );
        self.exp_peers.insert(peer, cfg.id);
        self.exp_ports.insert(cfg.port, cfg.id);
        self.exp_tunnel_addr.insert(cfg.id, cfg.remote_addr);
        self.iface_ips.insert(cfg.local_addr, (cfg.port, local_mac));
        self.refresh_backbone_exports();
        peer
    }

    /// Deconfigure a directly-attached neighbor at runtime (the §5
    /// interconnection-management operation): the session is closed, the
    /// virtual next hop released, and the neighbor's routes leave every
    /// experiment's view through normal withdrawal processing.
    pub fn remove_neighbor(&mut self, ctx: &mut Ctx<'_>, id: NeighborId) {
        let Some((&peer, _)) = self.neighbor_peers.iter().find(|(_, n)| **n == id) else {
            return;
        };
        let events = self.host.remove_session(ctx, peer);
        self.process_events(ctx, events);
        self.neighbor_peers.remove(&peer);
        self.ingress_neighbor.retain(|_, n| *n != id);
        if let Some(vnh) = self.mux.vnh(id) {
            self.local_neighbor_globals.retain(|(l, _)| *l != vnh.ip);
        }
        self.mux.remove_neighbor(id);
    }

    /// Detach an experiment (tunnel closed / allocation ended).
    pub fn remove_experiment(&mut self, ctx: &mut Ctx<'_>, id: ExperimentId) {
        let Some((&peer, _)) = self.exp_peers.iter().find(|(_, e)| **e == id) else {
            return;
        };
        let events = self.host.remove_session(ctx, peer);
        self.process_events(ctx, events);
        self.exp_peers.remove(&peer);
        self.exp_ports.retain(|_, e| *e != id);
        self.exp_tunnel_addr.remove(&id);
        self.exp_global.remove(&id);
        self.mux.remove_experiment(id);
        self.control.remove_experiment(id);
        self.data.remove_experiment(id);
        self.refresh_backbone_exports();
    }

    /// Register a backbone session to another PoP.
    pub fn add_backbone_peer(&mut self, cfg: BackboneConfig) -> PeerId {
        let local_mac = self.port_mac(cfg.port);
        let mut import_map = Vec::new();
        for rn in &cfg.remote_neighbors {
            let gip = global_ip(rn.global_index);
            let vnh = self.mux.add_remote_neighbor(rn.id, cfg.port, gip);
            import_map.push((gip, vnh.ip));
        }
        let peer = self.alloc_peer();
        // iBGP: the remote PoP shares the platform ASN.
        let mut peer_cfg =
            PeerConfig::ebgp(self.asn, cfg.remote_addr.into(), cfg.local_addr.into())
                .with_all_paths()
                .with_next_hop_unchanged()
                .with_retention(SESSION_RETENTION_SECS)
                .with_import(policies::backbone_import(&import_map))
                .with_export(self.backbone_export_policy());
        if cfg.passive {
            peer_cfg = peer_cfg.with_passive();
        }
        self.host.add_session(
            peer,
            peer_cfg,
            Endpoint {
                port: cfg.port,
                local_mac,
                remote_mac: cfg.remote_mac,
            },
            false,
        );
        self.backbone_peers.insert(peer);
        self.backbone_links.push((cfg.port, cfg.remote_mac));
        self.iface_ips.insert(cfg.local_addr, (cfg.port, local_mac));
        peer
    }

    fn backbone_export_policy(&self) -> Policy {
        let mut mappings = self.local_neighbor_globals.clone();
        for (exp, global) in &self.exp_global {
            if let Some(tunnel) = self.exp_tunnel_addr.get(exp) {
                mappings.push((*tunnel, *global));
            }
        }
        policies::backbone_export(self.cc.platform_asn, &mappings)
    }

    fn refresh_backbone_exports(&mut self) {
        let policy = self.backbone_export_policy();
        let peers: Vec<PeerId> = self.backbone_peers.iter().copied().collect();
        for peer in peers {
            // Outputs (re-advertisements) are applied next time the node
            // runs in a ctx; here we only swap policies for future routes.
            // The platform attaches experiments before starting sessions,
            // so in practice nothing has been advertised yet.
            let _ = self.host.speaker.set_export_policy(peer, policy.clone());
        }
    }

    /// Start one session (used when sessions are added after [`Self::start`],
    /// e.g. an experiment attaching to a running PoP — §4.6's "without
    /// disrupting ongoing experiments or running BGP sessions").
    pub fn start_session(&mut self, ctx: &mut Ctx<'_>, peer: PeerId) {
        let events = self.host.start(ctx, peer);
        self.process_events(ctx, events);
    }

    /// Start every configured session and prefetch backbone ARP bindings.
    /// Call once, via [`peering_netsim::Simulator::with_node_ctx`].
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.started = true;
        let peers = self.host.speaker.peer_ids();
        for peer in peers {
            let events = self.host.start(ctx, peer);
            self.process_events(ctx, events);
        }
        self.arp_prefetch(ctx);
    }

    fn arp_prefetch(&mut self, ctx: &mut Ctx<'_>) {
        let mut pending = false;
        for (port, gip) in self.mux.unresolved_globals() {
            pending = true;
            let mac = self.port_mac(port);
            let req = ArpPacket::request(mac, Ipv4Addr::UNSPECIFIED, gip);
            ctx.send_frame(
                port,
                EtherFrame::new(MacAddr::BROADCAST, mac, EtherType::Arp, req.encode()),
            );
        }
        if pending {
            ctx.set_timer(SimDuration::from_secs(1), TOKEN_ARP_RETRY);
        }
    }

    fn process_events(&mut self, ctx: &mut Ctx<'_>, events: Vec<HostEvent>) {
        for event in events {
            match event {
                HostEvent::InterposedUpdate(peer, update) => {
                    let Some(&exp) = self.exp_peers.get(&peer) else {
                        continue;
                    };
                    let (compliant, rejections) =
                        self.control.check_update(exp, &update, ctx.now());
                    for (_, r) in &rejections {
                        self.obs.record(ObsEvent::EnforcementReject {
                            experiment: exp.0,
                            reason: r.code(),
                        });
                    }
                    if compliant.announce.is_empty()
                        && compliant.withdrawn.is_empty()
                        && !update.is_end_of_rib()
                        && !rejections.is_empty()
                    {
                        self.stats.updates_blocked += 1;
                        continue;
                    }
                    self.stats.updates_passed += 1;
                    // The update charged the rate ledger: make sure the
                    // housekeeping/gossip tick is running.
                    self.ensure_ledger_timer(ctx);
                    let more = self.host.deliver(ctx, peer, compliant);
                    self.process_events(ctx, more);
                }
                HostEvent::RouteLearned(peer, route) => self.on_route_learned(ctx, peer, route),
                HostEvent::RouteWithdrawn(peer, prefix, path_id) => {
                    self.on_route_withdrawn(peer, prefix, path_id)
                }
                HostEvent::SessionUp(_) | HostEvent::SessionDown(_, _) => {}
            }
        }
    }

    fn on_route_learned(&mut self, ctx: &mut Ctx<'_>, peer: PeerId, route: Route) {
        if !in_data_plane(&route.prefix) {
            return;
        }
        let key = (peer, route.prefix, route.path_id);
        // Replacement: remove the previous installation first.
        if let Some(old) = self.installed.remove(&key) {
            self.uninstall(old, route.prefix);
        }
        let installed = if let Some(&exp) = self.exp_peers.get(&peer) {
            let delivery = self.mux.install_delivery_local(route.prefix, exp);
            Some(Installed::DeliveryEntry(delivery))
        } else {
            match route.attrs.next_hop {
                Some(std::net::IpAddr::V4(nh)) if vnh::is_local(nh) => {
                    // A neighbor route (local or backbone-mapped): steer into
                    // the owning neighbor's table.
                    self.mux.vnh_neighbor(nh).map(|nbr| {
                        self.mux.install_route(nbr, route.prefix);
                        Installed::NeighborRoute(nbr)
                    })
                }
                Some(std::net::IpAddr::V4(nh)) if vnh::is_global(nh) => {
                    // A remote experiment's prefix: deliverable across the
                    // backbone. Prefetch the global address's MAC so the
                    // first delivered packet is not lost to resolution.
                    let port = self
                        .host
                        .endpoint(peer)
                        .map(|ep| ep.port)
                        .unwrap_or(PortId(0));
                    let delivery = self.mux.install_delivery_remote(route.prefix, port, nh);
                    let mac = self.port_mac(port);
                    let req = ArpPacket::request(mac, Ipv4Addr::UNSPECIFIED, nh);
                    ctx.send_frame(
                        port,
                        EtherFrame::new(MacAddr::BROADCAST, mac, EtherType::Arp, req.encode()),
                    );
                    Some(Installed::DeliveryEntry(delivery))
                }
                _ => None,
            }
        };
        if let Some(installed) = installed {
            self.installed.insert(key, installed);
        }
    }

    fn on_route_withdrawn(&mut self, peer: PeerId, prefix: Prefix, path_id: PathId) {
        if let Some(installed) = self.installed.remove(&(peer, prefix, path_id)) {
            self.uninstall(installed, prefix);
        }
    }

    fn uninstall(&mut self, installed: Installed, prefix: Prefix) {
        match installed {
            Installed::NeighborRoute(nbr) => self.mux.remove_route(nbr, prefix),
            Installed::DeliveryEntry(delivery) => self.mux.remove_delivery(prefix, &delivery),
        }
    }

    /// The experiment attached over a peer session, if any.
    pub fn experiment_of_peer(&self, peer: PeerId) -> Option<ExperimentId> {
        self.exp_peers.get(&peer).copied()
    }

    /// The neighbor on a peer session, if any.
    pub fn neighbor_of_peer(&self, peer: PeerId) -> Option<NeighborId> {
        self.neighbor_peers.get(&peer).copied()
    }

    /// Whether a peer session is a backbone (inter-PoP) session.
    pub fn is_backbone_peer(&self, peer: PeerId) -> bool {
        self.backbone_peers.contains(&peer)
    }

    /// Fault hook for the chaos harness's self-test: when enabled, the
    /// routing engine skips replaying its Adj-RIB-Out when a session
    /// re-establishes (the resync bug the convergence oracle must catch).
    pub fn set_fault_skip_session_up_replay(&mut self, on: bool) {
        self.host.speaker.set_fault_skip_session_up_replay(on);
    }

    /// Cross-check this router's layers against each other: the mux's
    /// per-neighbor tables and delivery table against the control plane's
    /// installation bookkeeping, that bookkeeping against the routing
    /// engine's Adj-RIBs-In, dead experiment tunnels against retained
    /// routes, and the enforcement engines against attached experiments.
    /// Returns one human-readable line per violation; empty means
    /// consistent. Used by the convergence oracle after chaos quiesces.
    pub fn verify_consistency(&self) -> Vec<String> {
        let mut problems = Vec::new();

        // What the mux should hold, recomputed from scratch.
        let mut want_tables: HashMap<(NeighborId, Prefix), u32> = HashMap::new();
        let mut want_delivery: HashMap<Prefix, u32> = HashMap::new();
        for ((_, prefix, _), what) in &self.installed {
            match what {
                Installed::NeighborRoute(nbr) => {
                    *want_tables.entry((*nbr, *prefix)).or_insert(0) += 1
                }
                Installed::DeliveryEntry(_) => *want_delivery.entry(*prefix).or_insert(0) += 1,
            }
        }

        let mut seen_tables: HashMap<(NeighborId, Prefix), u32> = HashMap::new();
        for nbr in self.mux.neighbor_ids() {
            for (prefix, count) in self.mux.table_entries(nbr) {
                seen_tables.insert((nbr, prefix), count);
            }
        }
        for (key, want) in &want_tables {
            match seen_tables.get(key) {
                Some(got) if got == want => {}
                Some(got) => problems.push(format!(
                    "{}: neighbor {} table {}: mux refcount {got}, {want} installed",
                    self.pop, key.0 .0, key.1
                )),
                None => problems.push(format!(
                    "{}: neighbor {} table missing {} ({want} installed)",
                    self.pop, key.0 .0, key.1
                )),
            }
        }
        for (key, got) in &seen_tables {
            if !want_tables.contains_key(key) {
                problems.push(format!(
                    "{}: neighbor {} table has orphan {} (refcount {got})",
                    self.pop, key.0 .0, key.1
                ));
            }
        }

        let mut seen_delivery: HashMap<Prefix, u32> = HashMap::new();
        for (prefix, count, _) in self.mux.delivery_entries() {
            seen_delivery.insert(prefix, count);
        }
        for (prefix, want) in &want_delivery {
            match seen_delivery.get(prefix) {
                Some(got) if got == want => {}
                Some(got) => problems.push(format!(
                    "{}: delivery {prefix}: mux refcount {got}, {want} installed",
                    self.pop
                )),
                None => problems.push(format!(
                    "{}: delivery table missing {prefix} ({want} installed)",
                    self.pop
                )),
            }
        }
        for (prefix, got) in &seen_delivery {
            if !want_delivery.contains_key(prefix) {
                problems.push(format!(
                    "{}: delivery table has orphan {prefix} (refcount {got})",
                    self.pop
                ));
            }
        }

        // Every installation is backed by a path still in an Adj-RIB-In,
        // and every Adj-RIB-In path the mux can place is installed.
        for (peer, prefix, pid) in self.installed.keys() {
            let backed = self
                .host
                .speaker
                .adj_rib_in(*peer)
                .map(|rib| rib.paths(prefix).any(|r| r.path_id == *pid))
                .unwrap_or(false);
            if !backed {
                problems.push(format!(
                    "{}: installed entry {prefix} path {} not in peer {}'s adj-rib-in",
                    self.pop, pid, peer.0
                ));
            }
        }
        for peer in self.host.speaker.peer_ids() {
            let Some(rib) = self.host.speaker.adj_rib_in(peer) else {
                continue;
            };
            for route in rib.iter().filter(|r| in_data_plane(&r.prefix)) {
                let placeable = if self.exp_peers.contains_key(&peer) {
                    true
                } else {
                    match route.attrs.next_hop {
                        Some(std::net::IpAddr::V4(nh)) if vnh::is_local(nh) => {
                            self.mux.vnh_neighbor(nh).is_some()
                        }
                        Some(std::net::IpAddr::V4(nh)) => vnh::is_global(nh),
                        _ => false,
                    }
                };
                if placeable
                    && !self
                        .installed
                        .contains_key(&(peer, route.prefix, route.path_id))
                {
                    problems.push(format!(
                        "{}: adj-rib-in route {} path {} on peer {} not installed in mux",
                        self.pop, route.prefix, route.path_id, peer.0
                    ));
                }
            }
        }

        // A dead tunnel holds no routes (experiments get no retention).
        for (peer, exp) in &self.exp_peers {
            if !self.host.speaker.is_established(*peer) {
                let held = self
                    .host
                    .speaker
                    .adj_rib_in(*peer)
                    .map(|rib| rib.iter().count())
                    .unwrap_or(0);
                if held > 0 {
                    problems.push(format!(
                        "{}: experiment {} session is down but still holds {held} routes",
                        self.pop, exp.0
                    ));
                }
            }
        }

        // Enforcement engines and mux know every attached experiment.
        for exp in self.exp_peers.values() {
            if !self.control.has_experiment(*exp) {
                problems.push(format!(
                    "{}: experiment {} has no control-plane policy",
                    self.pop, exp.0
                ));
            }
            if !self.data.has_experiment(*exp) {
                problems.push(format!(
                    "{}: experiment {} has no data-plane policy",
                    self.pop, exp.0
                ));
            }
            if self.mux.experiment_port(*exp).is_none() {
                problems.push(format!(
                    "{}: experiment {} has no mux delivery entry",
                    self.pop, exp.0
                ));
            }
        }

        problems.sort();
        problems
    }

    fn on_arp(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &EtherFrame) {
        let Some(packet) = ArpPacket::decode(&frame.payload) else {
            return;
        };
        match packet.op {
            ArpOp::Request => {
                let answer = self
                    .mux
                    .arp_answer(packet.target_ip)
                    .or_else(|| self.iface_ips.get(&packet.target_ip).map(|(_, mac)| *mac));
                if let Some(mac) = answer {
                    let reply = ArpPacket::reply_to(&packet, mac);
                    ctx.send_frame(
                        port,
                        EtherFrame::new(packet.sender_mac, mac, EtherType::Arp, reply.encode()),
                    );
                }
            }
            ArpOp::Reply => {
                if vnh::is_global(packet.sender_ip) {
                    self.mux
                        .note_resolution(packet.sender_ip, packet.sender_mac);
                }
            }
        }
    }

    /// RFC 792 time-exceeded, sourced from the ingress interface's address
    /// (the *primary* address, which is exactly why the paper's network
    /// controller repairs address ordering — §5). Deliverable only when the
    /// probe source is an experiment prefix the platform knows.
    fn send_time_exceeded(&mut self, ctx: &mut Ctx<'_>, expired: &IpPacket, ingress: PortId) {
        // RFC 1122 §3.2.2: never answer an ICMP error with another ICMP
        // error — otherwise two misconfigured hops can ping-pong
        // TTL-exceeded-for-TTL-exceeded forever. Informational ICMP (echo
        // probes) still elicits one, which traceroute-over-ICMP needs.
        if expired.header.proto == IpProto::Icmp && icmp_is_error(&expired.payload) {
            self.stats.icmp_suppressed_error += 1;
            self.obs.record(ObsEvent::IcmpSuppressed {
                reason: "error-for-error",
            });
            return;
        }
        let Some((&our_addr, _)) = self.iface_ips.iter().find(|(_, (p, _))| *p == ingress) else {
            return;
        };
        // RFC 1812 §4.3.2.8: bound the error-generation rate per router so
        // a line-rate TTL-expiring flood cannot be amplified into a
        // line-rate ICMP flood toward the (possibly spoofed) source.
        if !self.icmp_bucket.admit(1, ctx.now()) {
            self.stats.icmp_rate_limited += 1;
            self.obs.record(ObsEvent::IcmpSuppressed {
                reason: "rate-limit",
            });
            return;
        }
        let te = IcmpPacket::time_exceeded_for(expired);
        let reply = IpPacket::new(our_addr, expired.header.src, IpProto::Icmp, te.encode());
        match self.mux.deliver_to_experiment(reply.header.dst, None) {
            Some((Egress::Frame { port: out, dst_mac }, _, _)) => {
                let src = self.port_mac(out);
                self.stats.icmp_sent += 1;
                ctx.send_frame(
                    out,
                    EtherFrame::new(dst_mac, src, EtherType::Ipv4, reply.encode()),
                );
            }
            _ => {
                self.stats.no_route += 1;
            }
        }
    }

    /// The plan for one IPv4 frame (which batch it can join).
    fn plan_for(&self, port: PortId, frame: &EtherFrame) -> IpPlan {
        match self.mux.classify(frame.dst) {
            Some(MuxTarget::NeighborTable(nbr)) => IpPlan::Neighbor(nbr),
            // Traffic toward an experiment prefix: from a neighbor (dst is
            // our port MAC), or from the backbone (dst is a delivery MAC).
            Some(MuxTarget::ExperimentDelivery(_)) | None => {
                IpPlan::Delivery(self.ingress_neighbor.get(&(port, frame.src)).copied())
            }
        }
    }

    fn on_ip(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: &EtherFrame) {
        match self.plan_for(port, frame) {
            IpPlan::Neighbor(nbr) => {
                self.forward_via_neighbor(ctx, port, nbr, std::slice::from_ref(frame))
            }
            IpPlan::Delivery(from) => self.deliver_frames(ctx, from, std::slice::from_ref(frame)),
        }
    }

    /// Forward a run of frames that an experiment (or remote PoP) steered
    /// into `nbr`'s table (Fig. 2b steps 8–10). Enforcement, TTL, lookup
    /// and emission run as batch passes — verdicts, stats and the emitted
    /// frame order are identical to handling each frame alone, but the
    /// table selection, FIB sync and wire-egress resolution are paid once.
    fn forward_via_neighbor(
        &mut self,
        ctx: &mut Ctx<'_>,
        port: PortId,
        nbr: NeighborId,
        frames: &[EtherFrame],
    ) {
        // Undecodable frames drop silently, as in the single-frame path.
        let mut pkts: Vec<Option<IpPacket>> = frames
            .iter()
            .map(|f| IpPacket::decode(&f.payload))
            .collect();
        // Data-plane enforcement first: a blocked packet must not consume
        // TTL or trigger resolution. Each decodable packet becomes a
        // header view (ports parsed from the transport header when
        // present) for the enforcement pipeline and the packet programs.
        if let Some(&exp) = self.exp_ports.get(&port) {
            let views: Vec<PacketView> = pkts
                .iter()
                .zip(frames)
                .filter_map(|(p, f)| p.as_ref().map(|p| packet_view(p, f.wire_len())))
                .collect();
            let mut verdicts = std::mem::take(&mut self.verdict_scratch);
            self.data
                .check_egress_batch(exp, &views, Some(nbr), ctx.now(), &mut verdicts);
            let mut vi = 0;
            for p in pkts.iter_mut() {
                let Some(pkt) = p else { continue };
                match verdicts[vi] {
                    DataVerdict::Allow => {}
                    DataVerdict::Transform(rw) => {
                        // Apply the program's header rewrite before TTL
                        // and lookup, so a rewritten destination is
                        // re-routed on its new address.
                        if let Some(ttl) = rw.ttl {
                            pkt.header.ttl = ttl;
                        }
                        if let Some(src) = rw.src {
                            pkt.header.src = src;
                        }
                        if let Some(dst) = rw.dst {
                            pkt.header.dst = dst;
                        }
                        self.stats.data_transformed += 1;
                    }
                    DataVerdict::Block(reason) => {
                        self.stats.data_blocked += 1;
                        self.obs.record(ObsEvent::DataBlocked {
                            experiment: exp.0,
                            reason,
                        });
                        *p = None;
                    }
                }
                vi += 1;
            }
            self.verdict_scratch = verdicts;
        }
        // TTL; expired packets are set aside (their ICMP replies are sent in
        // the emission pass, keeping the single-path frame order) and do not
        // consume a lookup.
        let mut expired: Vec<Option<IpPacket>> = vec![None; pkts.len()];
        let mut dsts: Vec<Ipv4Addr> = Vec::with_capacity(pkts.len());
        for (i, p) in pkts.iter_mut().enumerate() {
            let Some(pkt) = p else { continue };
            if !pkt.decrement_ttl() {
                self.stats.ttl_expired += 1;
                expired[i] = p.take();
                continue;
            }
            dsts.push(pkt.header.dst);
        }
        // One batched lookup for the surviving packets.
        let mut egress = std::mem::take(&mut self.egress_scratch);
        self.mux.egress_via_neighbor_batch(nbr, &dsts, &mut egress);
        // Emission, in original frame order.
        let mut ei = 0;
        for (i, p) in pkts.iter().enumerate() {
            if let Some(ex) = &expired[i] {
                self.send_time_exceeded(ctx, ex, port);
                continue;
            }
            let Some(pkt) = p else { continue };
            match egress[ei] {
                Some(Egress::Frame { port: out, dst_mac }) => {
                    let src = self.port_mac(out);
                    ctx.send_frame(
                        out,
                        EtherFrame::new(dst_mac, src, EtherType::Ipv4, pkt.encode()),
                    );
                }
                Some(Egress::Unresolved {
                    port: out,
                    global_ip,
                }) => {
                    // Trigger resolution; the packet is dropped (the paper's
                    // deployment would also drop pre-ARP).
                    let mac = self.port_mac(out);
                    let req = ArpPacket::request(mac, Ipv4Addr::UNSPECIFIED, global_ip);
                    ctx.send_frame(
                        out,
                        EtherFrame::new(MacAddr::BROADCAST, mac, EtherType::Arp, req.encode()),
                    );
                }
                None => self.stats.no_route += 1,
            }
            ei += 1;
        }
        self.egress_scratch = egress;
    }

    /// Deliver a run of frames toward whatever experiments own their
    /// destinations; `from` names the ingress neighbor (resolved once per
    /// run — it determines the source-MAC rewrite the experiment sees).
    fn deliver_frames(
        &mut self,
        ctx: &mut Ctx<'_>,
        from: Option<NeighborId>,
        frames: &[EtherFrame],
    ) {
        let mut pkts: Vec<Option<IpPacket>> = frames
            .iter()
            .map(|f| IpPacket::decode(&f.payload))
            .collect();
        let mut dsts: Vec<Ipv4Addr> = Vec::with_capacity(pkts.len());
        for p in pkts.iter_mut() {
            let Some(pkt) = p else { continue };
            if !pkt.decrement_ttl() {
                self.stats.ttl_expired += 1;
                *p = None;
                continue;
            }
            dsts.push(pkt.header.dst);
        }
        let mut decisions = std::mem::take(&mut self.delivery_scratch);
        self.mux
            .deliver_to_experiment_batch(&dsts, from, &mut decisions);
        // Ingress serving pipeline: local deliveries toward experiments
        // that opted into ingress policing (uRPF / ingress program / flood
        // budget) are vetted before emission. Experiments that never opted
        // in take the fast path — one `ingress_active` probe per packet,
        // no views, no verdicts. Views are built after the TTL decrement
        // above, so programs see the TTL the experiment would.
        let mut skip: Vec<bool> = Vec::new();
        {
            // (original frame index, delivery index, owner) per policed
            // local delivery; remote deliveries carry the sentinel id and
            // are never policed here (the owning PoP polices them).
            let mut targets: Vec<(usize, usize, ExperimentId)> = Vec::new();
            let mut di = 0usize;
            for (i, p) in pkts.iter().enumerate() {
                if p.is_none() {
                    continue;
                }
                if let Some((_, _, exp)) = decisions[di] {
                    if exp != ExperimentId(u32::MAX) && self.data.ingress_active(exp) {
                        targets.push((i, di, exp));
                    }
                }
                di += 1;
            }
            if !targets.is_empty() {
                skip = vec![false; decisions.len()];
                let mut verdicts = std::mem::take(&mut self.verdict_scratch);
                let mut views: Vec<PacketView> = Vec::new();
                let mut urpf_ok: Vec<bool> = Vec::new();
                let mut any_flood = false;
                let now = ctx.now();
                // Consecutive same-experiment runs share one batch call,
                // mirroring the egress batching.
                let mut start = 0usize;
                while start < targets.len() {
                    let exp = targets[start].2;
                    let mut end = start + 1;
                    while end < targets.len() && targets[end].2 == exp {
                        end += 1;
                    }
                    let run = &targets[start..end];
                    views.clear();
                    for &(i, _, _) in run {
                        let pkt = pkts[i].as_ref().expect("target packets survive");
                        views.push(packet_view(pkt, frames[i].wire_len()));
                    }
                    // uRPF asks the ingress neighbor's own table whether it
                    // covers the claimed source; traffic with no neighbor
                    // context (backbone transit, locally injected) skips it.
                    let urpf = match from {
                        Some(nbr) if self.data.ingress_urpf(exp) => {
                            urpf_ok.clear();
                            for &(i, _, _) in run {
                                let src =
                                    pkts[i].as_ref().expect("target packets survive").header.src;
                                urpf_ok.push(self.mux.source_routable(nbr, src));
                            }
                            Some(urpf_ok.as_slice())
                        }
                        _ => None,
                    };
                    self.data
                        .check_ingress_batch(exp, &views, urpf, now, &mut verdicts);
                    any_flood |= self.data.flood_active(exp);
                    for (k, &(i, di, _)) in run.iter().enumerate() {
                        match verdicts[k] {
                            DataVerdict::Allow => {}
                            DataVerdict::Transform(rw) => {
                                // Ingress rewrites patch headers in place;
                                // the delivery decision is already made, so
                                // a dst rewrite does not re-route.
                                let pkt = pkts[i].as_mut().expect("target packets survive");
                                if let Some(ttl) = rw.ttl {
                                    pkt.header.ttl = ttl;
                                }
                                if let Some(src) = rw.src {
                                    pkt.header.src = src;
                                }
                                if let Some(dst) = rw.dst {
                                    pkt.header.dst = dst;
                                }
                                self.stats.data_transformed += 1;
                            }
                            DataVerdict::Block(reason) => {
                                self.stats.ingress_blocked += 1;
                                self.obs.record(ObsEvent::DataBlocked {
                                    experiment: exp.0,
                                    reason,
                                });
                                skip[di] = true;
                            }
                        }
                    }
                    start = end;
                }
                self.verdict_scratch = verdicts;
                // Flood charges landed in the shared ledger: make sure the
                // gossip/prune tick is running so other PoPs hear about
                // them (and windows eventually expire).
                if any_flood {
                    self.ensure_ledger_timer(ctx);
                }
            }
        }
        for (di, pkt) in pkts.iter().flatten().enumerate() {
            if skip.get(di).copied().unwrap_or(false) {
                continue;
            }
            match decisions[di] {
                Some((Egress::Frame { port: out, dst_mac }, src_rewrite, _exp)) => {
                    let src = src_rewrite.unwrap_or_else(|| self.port_mac(out));
                    ctx.send_frame(
                        out,
                        EtherFrame::new(dst_mac, src, EtherType::Ipv4, pkt.encode()),
                    );
                }
                Some((
                    Egress::Unresolved {
                        port: out,
                        global_ip,
                    },
                    _,
                    _,
                )) => {
                    let mac = self.port_mac(out);
                    let req = ArpPacket::request(mac, Ipv4Addr::UNSPECIFIED, global_ip);
                    ctx.send_frame(
                        out,
                        EtherFrame::new(MacAddr::BROADCAST, mac, EtherType::Arp, req.encode()),
                    );
                }
                None => self.stats.no_route += 1,
            }
        }
        self.delivery_scratch = decisions;
    }

    /// Arm the ledger housekeeping/gossip timer if it is not already
    /// outstanding and the ledger holds state worth ticking for. Armed
    /// lazily (and re-armed only while non-empty) so a platform with no
    /// ledger activity still goes idle.
    fn ensure_ledger_timer(&mut self, ctx: &mut Ctx<'_>) {
        if self.ledger_timer_armed {
            return;
        }
        if self.control.ledger().lock().unwrap().is_empty() {
            return;
        }
        self.ledger_timer_armed = true;
        ctx.set_timer(SimDuration::from_secs(LEDGER_GOSSIP_SECS), TOKEN_LEDGER);
    }

    /// One ledger tick: prune expired day buckets (and flood windows) on
    /// rollover, gossip this PoP's current-day tallies (only when an
    /// AS-wide update budget is configured — without one, remote tallies
    /// are never consulted) and its current-window flood tallies (always,
    /// when present — the ledger cannot see per-experiment flood configs,
    /// and an AS-wide flood limit at any PoP needs every PoP's counts),
    /// then re-arm while the ledger stays non-empty.
    fn on_ledger_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.ledger_timer_armed = false;
        let now = ctx.now();
        let day = RateLedger::day_index(now);
        let window = RateLedger::flood_window(now);
        let ledger = self.control.ledger();
        let mut guard = ledger.lock().unwrap();
        if day > self.last_pruned_day || window > self.last_pruned_window {
            let dropped = guard.prune(now);
            self.last_pruned_day = day;
            self.last_pruned_window = window;
            if dropped > 0 {
                self.obs.record(ObsEvent::LedgerPrune {
                    dropped: dropped as u64,
                });
            }
        }
        let entries = if guard.as_wide_limit().is_some() {
            guard.gossip_entries(self.pop, now)
        } else {
            Vec::new()
        };
        let flood_entries = guard.flood_gossip_entries(self.pop, now);
        let keep_ticking = !guard.is_empty();
        drop(guard);
        if !entries.is_empty() || !flood_entries.is_empty() {
            let payload = encode_ledger_gossip(self.pop, day, &entries, window, &flood_entries);
            let links = self.backbone_links.clone();
            for (port, remote_mac) in links {
                let src = self.port_mac(port);
                ctx.send_frame(
                    port,
                    EtherFrame::new(
                        remote_mac,
                        src,
                        EtherType::Other(LEDGER_ETHERTYPE),
                        payload.clone(),
                    ),
                );
                self.stats.ledger_gossip_tx += 1;
            }
        }
        if keep_ticking {
            self.ledger_timer_armed = true;
            ctx.set_timer(SimDuration::from_secs(LEDGER_GOSSIP_SECS), TOKEN_LEDGER);
        }
    }

    /// Apply one received ledger gossip frame (max-merge; malformed frames
    /// are dropped silently — gossip is advisory, enforcement never
    /// loosens without it).
    fn on_ledger_gossip(&mut self, ctx: &mut Ctx<'_>, frame: &EtherFrame) {
        let Some((origin, day, entries, window, flood_entries)) =
            decode_ledger_gossip(&frame.payload)
        else {
            return;
        };
        if origin == self.pop {
            return;
        }
        self.stats.ledger_gossip_rx += 1;
        {
            let ledger = self.control.ledger();
            let mut guard = ledger.lock().unwrap();
            guard.observe_remote(origin, day, &entries);
            guard.observe_remote_flood(origin, window, &flood_entries);
        }
        self.obs.record(ObsEvent::LedgerGossip {
            from_pop: origin.0,
            entries: (entries.len() + flood_entries.len()) as u32,
        });
        // A receive-only PoP still needs the tick for day-rollover pruning.
        self.ensure_ledger_timer(ctx);
    }

    /// Force-compile the mux's fast-path structures (flat FIBs) and
    /// cross-check them against the source tables they were compiled from.
    /// Returns one line per divergence; the convergence oracle runs this
    /// after chaos quiesces.
    pub fn verify_data_plane(&mut self) -> Vec<String> {
        let pop = self.pop;
        let mut problems: Vec<String> = self
            .mux
            .verify_fast_path()
            .into_iter()
            .map(|p| format!("{pop}: {p}"))
            .collect();
        problems.sort();
        problems
    }
}

/// Decode the header view enforcement (and packet programs) sees for one
/// packet: addresses, protocol, TTL as received, the frame's wire length
/// (what shapers charge), and — for TCP/UDP with enough payload — the
/// transport ports (both headers start `src_port:u16, dst_port:u16`).
fn packet_view(pkt: &IpPacket, wire_len: usize) -> PacketView {
    let (src_port, dst_port) = match pkt.header.proto {
        IpProto::Tcp | IpProto::Udp if pkt.payload.len() >= 4 => (
            u16::from_be_bytes([pkt.payload[0], pkt.payload[1]]),
            u16::from_be_bytes([pkt.payload[2], pkt.payload[3]]),
        ),
        _ => (0, 0),
    };
    PacketView {
        src: IpAddr::V4(pkt.header.src),
        dst: IpAddr::V4(pkt.header.dst),
        proto: pkt.header.proto.to_u8(),
        src_port,
        dst_port,
        len: wire_len as u32,
        ttl: pkt.header.ttl,
    }
}

/// Encode a ledger gossip payload. Fixed header (magic, version, origin
/// PoP, day, entry count) followed by fixed-width update-rate entries,
/// then (since version 2) the flood section: window index, flood entry
/// count, and fixed-width flood entries in the same 26-byte layout.
/// Everything big-endian, entries pre-sorted by the caller so the payload
/// is byte-deterministic.
fn encode_ledger_gossip(
    origin: PopId,
    day: u64,
    entries: &[(ExperimentId, Prefix, u32)],
    window: u64,
    flood_entries: &[(ExperimentId, Prefix, u32)],
) -> Bytes {
    fn put_entries(buf: &mut Vec<u8>, entries: &[(ExperimentId, Prefix, u32)]) {
        for (exp, prefix, used) in entries {
            buf.extend_from_slice(&exp.0.to_be_bytes());
            let (afi, plen, addr) = match prefix {
                Prefix::V4 { addr, len } => {
                    let mut a = [0u8; 16];
                    a[..4].copy_from_slice(&addr.octets());
                    (4u8, *len, a)
                }
                Prefix::V6 { addr, len } => (6u8, *len, addr.octets()),
            };
            buf.push(afi);
            buf.push(plen);
            buf.extend_from_slice(&addr);
            buf.extend_from_slice(&used.to_be_bytes());
        }
    }
    let count = entries.len().min(u16::MAX as usize);
    let fcount = flood_entries.len().min(u16::MAX as usize);
    let mut buf = Vec::with_capacity(29 + (count + fcount) * 26);
    buf.extend_from_slice(&LEDGER_MAGIC.to_be_bytes());
    buf.push(LEDGER_VERSION);
    buf.extend_from_slice(&origin.0.to_be_bytes());
    buf.extend_from_slice(&day.to_be_bytes());
    buf.extend_from_slice(&(count as u16).to_be_bytes());
    put_entries(&mut buf, &entries[..count]);
    buf.extend_from_slice(&window.to_be_bytes());
    buf.extend_from_slice(&(fcount as u16).to_be_bytes());
    put_entries(&mut buf, &flood_entries[..fcount]);
    Bytes::from(buf)
}

/// One decoded gossip tally: how many updates (or flood-window packets)
/// `ExperimentId` spent on `Prefix` at the originating PoP.
type GossipEntry = (ExperimentId, Prefix, u32);

/// Decode a ledger gossip payload; `None` on anything malformed.
#[allow(clippy::type_complexity)]
fn decode_ledger_gossip(
    payload: &[u8],
) -> Option<(PopId, u64, Vec<GossipEntry>, u64, Vec<GossipEntry>)> {
    fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if buf.len() < n {
            return None;
        }
        let (head, tail) = buf.split_at(n);
        *buf = tail;
        Some(head)
    }
    fn take_entries(buf: &mut &[u8]) -> Option<Vec<GossipEntry>> {
        let count = u16::from_be_bytes(take(buf, 2)?.try_into().ok()?) as usize;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            let exp = ExperimentId(u32::from_be_bytes(take(buf, 4)?.try_into().ok()?));
            let afi = take(buf, 1)?[0];
            let plen = take(buf, 1)?[0];
            let addr: [u8; 16] = take(buf, 16)?.try_into().ok()?;
            let used = u32::from_be_bytes(take(buf, 4)?.try_into().ok()?);
            let prefix = match afi {
                4 if plen <= 32 => Prefix::V4 {
                    addr: Ipv4Addr::new(addr[0], addr[1], addr[2], addr[3]),
                    len: plen,
                },
                6 if plen <= 128 => Prefix::V6 {
                    addr: addr.into(),
                    len: plen,
                },
                _ => return None,
            };
            entries.push((exp, prefix, used));
        }
        Some(entries)
    }
    let mut buf = payload;
    let magic = u32::from_be_bytes(take(&mut buf, 4)?.try_into().ok()?);
    if magic != LEDGER_MAGIC {
        return None;
    }
    if take(&mut buf, 1)?[0] != LEDGER_VERSION {
        return None;
    }
    let origin = PopId(u32::from_be_bytes(take(&mut buf, 4)?.try_into().ok()?));
    let day = u64::from_be_bytes(take(&mut buf, 8)?.try_into().ok()?);
    let entries = take_entries(&mut buf)?;
    let window = u64::from_be_bytes(take(&mut buf, 8)?.try_into().ok()?);
    let flood_entries = take_entries(&mut buf)?;
    buf.is_empty()
        .then_some((origin, day, entries, window, flood_entries))
}

impl Node for VbgpRouter {
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
        if let Some(events) = self.host.on_frame(ctx, port, &frame) {
            self.process_events(ctx, events);
            return;
        }
        match frame.ethertype {
            EtherType::Arp => self.on_arp(ctx, port, &frame),
            EtherType::Ipv4 => self.on_ip(ctx, port, &frame),
            EtherType::Other(LEDGER_ETHERTYPE) => self.on_ledger_gossip(ctx, &frame),
            _ => {}
        }
    }

    /// Same-instant frames on one port: consecutive IPv4 frames that
    /// classify to the same forwarding plan are handled as one batch;
    /// everything else (BGP transport, ARP) is processed singly, in order.
    /// Plans are computed as each frame is reached, so a control-plane
    /// frame mid-batch still affects the frames behind it.
    fn on_frames(&mut self, ctx: &mut Ctx<'_>, port: PortId, frames: Vec<EtherFrame>) {
        let mut run: Vec<EtherFrame> = Vec::new();
        let mut run_plan: Option<IpPlan> = None;
        for frame in frames {
            let plan = if frame.ethertype == EtherType::Ipv4 {
                Some(self.plan_for(port, &frame))
            } else {
                None
            };
            if plan.is_some() && plan == run_plan {
                run.push(frame);
                continue;
            }
            if let Some(prev) = run_plan.take() {
                match prev {
                    IpPlan::Neighbor(nbr) => self.forward_via_neighbor(ctx, port, nbr, &run),
                    IpPlan::Delivery(from) => self.deliver_frames(ctx, from, &run),
                }
                run.clear();
            }
            match plan {
                Some(p) => {
                    run_plan = Some(p);
                    run.push(frame);
                }
                None => self.on_frame(ctx, port, frame),
            }
        }
        if let Some(prev) = run_plan {
            match prev {
                IpPlan::Neighbor(nbr) => self.forward_via_neighbor(ctx, port, nbr, &run),
                IpPlan::Delivery(from) => self.deliver_frames(ctx, from, &run),
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if BgpHost::owns_timer(token) {
            let events = self.host.on_timer(ctx, token);
            self.process_events(ctx, events);
        } else if token == TOKEN_ARP_RETRY {
            self.arp_prefetch(ctx);
        } else if token == TOKEN_LEDGER {
            self.on_ledger_timer(ctx);
        }
    }

    fn label(&self) -> String {
        format!("vbgp-router {} {}", self.pop, self.asn)
    }
}
