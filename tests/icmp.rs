//! ICMP error-generation hygiene at the vBGP router (RFC 1122 §3.2.2,
//! RFC 1812 §4.3.2.8).
//!
//! A router must never answer an ICMP *error* with another ICMP error —
//! two buggy hops would otherwise ping-pong time-exceededs forever — and
//! its error generation must be rate-limited so a TTL-expiring packet
//! flood cannot be amplified into an ICMP flood. Informational ICMP
//! (echo requests) still elicits time-exceeded: traceroute-over-ICMP
//! depends on it. Both behaviors are observable: suppressions land in
//! `RouterStats`, the metrics registry, and the event journal.

use std::net::Ipv4Addr;

use peering_repro::bgp::types::{prefix, Asn, RouterId};
use peering_repro::netsim::{
    ArpOp, ArpPacket, Bytes, Ctx, EtherFrame, EtherType, IcmpPacket, IpPacket, IpProto, LinkConfig,
    MacAddr, Node, PortId, SimDuration, Simulator,
};
use peering_repro::platform::experiment::Proposal;
use peering_repro::platform::intent::NeighborRole;
use peering_repro::platform::internet::InternetAs;
use peering_repro::platform::platform::Peering;
use peering_repro::platform::topology::{paper_intent, TopologyParams};
use peering_repro::toolkit::client::AnnounceOptions;
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::{
    BackboneConfig, ControlCommunities, ControlEnforcer, DataEnforcer, NeighborConfig, NeighborId,
    NeighborKind, PopId, VbgpRouter,
};

/// Platform with one experiment attached at the first PoP, its prefix
/// announced (so replies can route back), and a destination address
/// reachable through the synthetic Internet.
struct IcmpRig {
    p: Peering,
    exp_node: peering_repro::netsim::NodeId,
    router: peering_repro::netsim::NodeId,
    src: Ipv4Addr,
    dst: Ipv4Addr,
    tunnel_port: peering_repro::netsim::PortId,
    next_hop: Ipv4Addr,
}

fn build_rig(seed: u64) -> IcmpRig {
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), seed);
    let pops = p.pop_names();
    let pop_a = pops[0].clone();

    let mut proposal = Proposal::basic("icmp-hygiene");
    proposal.pops = vec![pop_a.clone()];
    let mut exp = p.submit(proposal).unwrap();
    exp.toolkit.open_tunnel(&mut p.sim, &pop_a).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pop_a).unwrap();
    p.run_for(SimDuration::from_secs(10));

    let exp_prefix = exp.lease.v4[0];
    exp.toolkit
        .announce(&mut p.sim, &pop_a, exp_prefix, &AnnounceOptions::default())
        .unwrap();
    p.run_for(SimDuration::from_secs(5));

    let remote_transit = p
        .neighbors_at(&pops[1])
        .into_iter()
        .find(|(_, r)| *r == NeighborRole::Transit)
        .map(|(id, _)| id)
        .unwrap();
    let remote_node = p.neighbor_node(remote_transit).unwrap();
    let target_prefix = p.sim.node::<InternetAs>(remote_node).unwrap().originated()[0];
    let dst = match target_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + 1),
        _ => unreachable!(),
    };
    let src = match exp_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + 5),
        _ => unreachable!(),
    };

    // Any route toward the destination gives us the tunnel port and the
    // virtual next hop the experiment forwards through.
    let (tunnel_port, next_hop) = {
        let node = p.sim.node::<ExperimentNode>(exp.node).unwrap();
        let route = node
            .routes_for(&target_prefix)
            .into_iter()
            .next()
            .expect("destination learned");
        let ep = node.host.endpoint(route.source.peer().unwrap()).unwrap();
        let nh = match route.attrs.next_hop {
            Some(std::net::IpAddr::V4(nh)) => nh,
            _ => unreachable!(),
        };
        (ep.port, nh)
    };

    let router = p.router_node(&pop_a).unwrap();
    IcmpRig {
        p,
        exp_node: exp.node,
        router,
        src,
        dst,
        tunnel_port,
        next_hop,
    }
}

/// Send one raw IP packet from the experiment toward the next hop.
fn send(rig: &mut IcmpRig, pkt: IpPacket) {
    let port = rig.tunnel_port;
    let nh = rig.next_hop;
    rig.p
        .sim
        .with_node_ctx::<ExperimentNode, _>(rig.exp_node, |n, ctx| {
            n.send_to_next_hop(ctx, port, nh, pkt);
        });
}

/// Count time-exceeded replies the experiment received.
fn time_exceeded_count(rig: &IcmpRig) -> usize {
    rig.p
        .sim
        .node::<ExperimentNode>(rig.exp_node)
        .unwrap()
        .received
        .iter()
        .filter(|r| {
            matches!(
                IcmpPacket::decode(&r.packet.payload),
                Some(IcmpPacket::TimeExceeded { .. })
            )
        })
        .count()
}

#[test]
fn no_icmp_error_is_generated_for_an_icmp_error() {
    let mut rig = build_rig(4242);

    // A TTL=1 packet that is itself an ICMP error (time-exceeded): the
    // router must drop it silently — no reply, one suppression.
    let inner = IpPacket::new(rig.src, rig.dst, IpProto::Udp, Bytes::from_static(b"orig"));
    let error_payload = IcmpPacket::time_exceeded_for(&inner).encode();
    let mut poison = IpPacket::new(rig.src, rig.dst, IpProto::Icmp, error_payload);
    poison.header.ttl = 1;
    send(&mut rig, poison);
    rig.p.run_for(SimDuration::from_secs(3));
    assert_eq!(
        time_exceeded_count(&rig),
        0,
        "router answered an ICMP error with an ICMP error"
    );

    // Informational ICMP is NOT an error: a TTL=1 echo request still gets
    // time-exceeded (traceroute-over-ICMP relies on this).
    let echo = IcmpPacket::EchoRequest {
        ident: 7,
        seq: 1,
        payload: Bytes::from_static(b"probe"),
    };
    let mut ping = IpPacket::new(rig.src, rig.dst, IpProto::Icmp, echo.encode());
    ping.header.ttl = 1;
    send(&mut rig, ping);
    rig.p.run_for(SimDuration::from_secs(3));
    assert_eq!(
        time_exceeded_count(&rig),
        1,
        "TTL-expired echo request must still elicit time-exceeded"
    );

    let stats = &rig.p.sim.node::<VbgpRouter>(rig.router).unwrap().stats;
    assert_eq!(stats.icmp_suppressed_error, 1);
    assert_eq!(stats.icmp_rate_limited, 0);
    assert!(stats.icmp_sent >= 1);

    // The suppression is observable: registry counter + journal event.
    let snap = rig.p.obs_snapshot();
    let suppressed: u64 = snap
        .names()
        .filter(|n| n.contains("router.icmp_suppressed_error"))
        .map(|n| snap.counter(n).unwrap_or(0))
        .sum();
    assert_eq!(suppressed, 1);
    assert!(
        rig.p
            .obs()
            .journal_tail(512)
            .contains("icmp-suppressed reason=error-for-error"),
        "journal must record the suppression"
    );
}

#[test]
fn icmp_errors_are_rate_limited_per_router() {
    let mut rig = build_rig(777);

    // Flood: 200 TTL-expiring UDP packets inside one second. The token
    // bucket (burst 50, refill 100/s) must clamp the replies.
    const FLOOD: usize = 200;
    for i in 0..FLOOD {
        let mut probe = IpPacket::new(
            rig.src,
            rig.dst,
            IpProto::Udp,
            Bytes::from_static(b"flooding"),
        );
        probe.header.ttl = 1;
        probe.header.ident = i as u16;
        send(&mut rig, probe);
    }
    rig.p.run_for(SimDuration::from_secs(5));

    let replies = time_exceeded_count(&rig);
    let stats = &rig.p.sim.node::<VbgpRouter>(rig.router).unwrap().stats;
    assert_eq!(
        replies as u64 + stats.icmp_rate_limited,
        FLOOD as u64,
        "every expiry is either answered or counted as rate-limited"
    );
    assert!(
        stats.icmp_rate_limited > 0,
        "a {FLOOD}-packet burst must trip the rate limit"
    );
    assert!(
        replies < FLOOD,
        "rate limit let the whole flood through ({replies} replies)"
    );
    assert!(replies > 0, "rate limit must not silence ICMP entirely");
    assert!(
        rig.p
            .obs()
            .journal_tail(1024)
            .contains("icmp-suppressed reason=rate-limit"),
        "journal must record rate-limit suppressions"
    );
}

/// Records every frame that reaches it.
struct Capture {
    frames: Vec<EtherFrame>,
}

impl Node for Capture {
    fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, frame: EtherFrame) {
        self.frames.push(frame);
    }
}

#[test]
fn time_exceeded_toward_an_unresolved_pop_sends_arp() {
    // One router: a local neighbor on port 0, a backbone segment on port
    // 1. The experiment prefix is delivered over the backbone to a remote
    // PoP whose global address has not been ARPed yet.
    let mut sim = Simulator::new(3);
    let platform_asn = 47065u32;
    let control =
        ControlEnforcer::standalone(PopId(0), ControlCommunities::new(platform_asn as u16));
    let mut router = VbgpRouter::new(
        PopId(0),
        Asn(platform_asn),
        RouterId(1),
        control,
        DataEnforcer::new(),
    );
    router.set_port_mac(PortId(0), MacAddr::from_id(0x1000));
    router.set_port_mac(PortId(1), MacAddr::from_id(0x1001));
    router.add_neighbor(NeighborConfig {
        id: NeighborId(1),
        asn: Asn(100),
        kind: NeighborKind::Transit,
        port: PortId(0),
        remote_mac: MacAddr::from_id(0x100),
        local_addr: "10.0.1.2".parse().unwrap(),
        remote_addr: "1.1.1.1".parse().unwrap(),
        global_index: 1,
        passive: true,
    });
    router.add_backbone_peer(BackboneConfig {
        port: PortId(1),
        remote_mac: MacAddr::from_id(0x2001),
        local_addr: "10.255.0.1".parse().unwrap(),
        remote_addr: "10.255.0.2".parse().unwrap(),
        remote_neighbors: Vec::new(),
        passive: true,
    });
    let remote_pop: Ipv4Addr = "127.127.0.9".parse().unwrap();
    router
        .mux
        .install_delivery_remote(prefix("184.164.226.0/24"), PortId(1), remote_pop);
    let vnh_mac = router.mux.vnh(NeighborId(1)).unwrap().mac;
    let router = sim.add_node(Box::new(router));
    let backbone = sim.add_node(Box::new(Capture { frames: Vec::new() }));
    sim.connect(
        router,
        PortId(1),
        backbone,
        PortId(0),
        LinkConfig::with_latency(SimDuration::from_millis(1)),
    );

    // The remote PoP relays an experiment's packet steered into the local
    // neighbor's table; its TTL runs out here.
    let src: Ipv4Addr = "184.164.226.5".parse().unwrap();
    let mut probe = IpPacket::new(
        src,
        "192.168.0.1".parse().unwrap(),
        IpProto::Udp,
        Bytes::from_static(b"probe"),
    );
    probe.header.ttl = 1;
    let frame = EtherFrame::new(
        vnh_mac,
        MacAddr::from_id(0x2001),
        EtherType::Ipv4,
        probe.encode(),
    );
    sim.inject_frame(router, PortId(1), frame);
    sim.run_for(SimDuration::from_millis(10));

    // The reply cannot go out yet, but the router asks for the remote
    // PoP's MAC on the backbone, as it does for any data frame.
    let stats = &sim.node::<VbgpRouter>(router).unwrap().stats;
    assert_eq!(stats.ttl_expired, 1);
    assert_eq!(stats.icmp_sent, 0);
    assert_eq!(
        stats.no_route, 0,
        "a deliverable reply is not a no-route drop"
    );
    let asked: Vec<Ipv4Addr> = sim
        .node::<Capture>(backbone)
        .unwrap()
        .frames
        .iter()
        .filter(|f| f.ethertype == EtherType::Arp)
        .filter_map(|f| ArpPacket::decode(&f.payload))
        .filter(|a| a.op == ArpOp::Request)
        .map(|a| a.target_ip)
        .collect();
    assert_eq!(asked, vec![remote_pop]);
}
