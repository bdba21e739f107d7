//! Failure injection across the platform: link failures, tunnel drops,
//! lossy and corrupted control channels. The paper's testbed runs on real
//! networks where all of this happens routinely; the reproduction must
//! converge back to a consistent state every time.

use peering_repro::bgp::types::{prefix, Prefix};
use peering_repro::netsim::SimDuration;
use peering_repro::platform::experiment::Proposal;
use peering_repro::platform::intent::NeighborRole;
use peering_repro::platform::platform::Peering;
use peering_repro::platform::topology::{paper_intent, TopologyParams};
use peering_repro::toolkit::client::{AnnounceOptions, SessionStatus};
use peering_repro::toolkit::node::ExperimentNode;
use peering_repro::vbgp::VbgpRouter;

fn tiny() -> Peering {
    Peering::build(paper_intent(&TopologyParams::tiny()), 555)
}

#[test]
fn tunnel_close_withdraws_experiment_routes() {
    let mut p = tiny();
    let pops = p.pop_names();
    let mut proposal = Proposal::basic("flaky");
    proposal.pops = vec![pops[0].clone()];
    let mut exp = p.submit(proposal).unwrap();
    exp.toolkit.open_tunnel(&mut p.sim, &pops[0]).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pops[0]).unwrap();
    p.run_for(SimDuration::from_secs(10));
    let exp_prefix = exp.lease.v4[0];
    exp.toolkit
        .announce(
            &mut p.sim,
            &pops[0],
            exp_prefix,
            &AnnounceOptions::default(),
        )
        .unwrap();
    p.run_for(SimDuration::from_secs(5));

    let transit = p
        .neighbors_at(&pops[0])
        .into_iter()
        .find(|(_, r)| *r == NeighborRole::Transit)
        .map(|(id, _)| id)
        .unwrap();
    let dst = match exp_prefix {
        peering_repro::bgp::Prefix::V4 { addr, .. } => {
            std::net::Ipv4Addr::from(u32::from(addr) + 1)
        }
        _ => unreachable!(),
    };
    assert!(p.looking_glass(transit, dst).is_some());

    // Kill the tunnel. The session's hold timer (90 s) notices; the routes
    // must be withdrawn platform-wide.
    exp.toolkit.close_tunnel(&mut p.sim, &pops[0]).unwrap();
    p.run_for(SimDuration::from_secs(120));
    assert!(
        p.looking_glass(transit, dst).is_none(),
        "dead-tunnel routes must be withdrawn after hold timeout"
    );

    // Reconnect: the session recovers and the announcement can return.
    exp.toolkit.open_tunnel(&mut p.sim, &pops[0]).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pops[0]).unwrap();
    p.run_for(SimDuration::from_secs(60));
    assert_eq!(
        exp.toolkit.session_status(&p.sim, &pops[0]).unwrap(),
        SessionStatus::Established
    );
    exp.toolkit
        .announce(
            &mut p.sim,
            &pops[0],
            exp_prefix,
            &AnnounceOptions::default(),
        )
        .unwrap();
    p.run_for(SimDuration::from_secs(5));
    assert!(p.looking_glass(transit, dst).is_some());
}

#[test]
fn backbone_partition_withdraws_remote_visibility() {
    let mut p = tiny();
    let pops = p.pop_names();
    let mut proposal = Proposal::basic("bb");
    proposal.pops = vec![pops[0].clone()];
    let mut exp = p.submit(proposal).unwrap();
    exp.toolkit.open_tunnel(&mut p.sim, &pops[0]).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pops[0]).unwrap();
    p.run_for(SimDuration::from_secs(10));

    // The experiment sees pop B's transit prefix with a 127.65 next hop.
    let nbr_b = p.neighbors_at(&pops[1])[0].0;
    let target = {
        let node = p.neighbor_node(nbr_b).unwrap();
        p.sim
            .node::<peering_repro::platform::internet::InternetAs>(node)
            .unwrap()
            .originated()[0]
    };
    let count_before = p
        .sim
        .node::<ExperimentNode>(exp.node)
        .unwrap()
        .routes_for(&target)
        .len();
    assert!(count_before >= 2, "local + remote paths visible");

    // Sever every backbone link of pop A's router by disconnecting its
    // backbone ports (ports 1.. are backbone; port 0 is the fabric; tunnel
    // ports come after the backbone ones — find links via disconnects of
    // ports 1 and 2).
    // Simplest faithful failure: drop pop A's router ports 1 and 2.
    // (tiny() has 3 backbone PoPs → 2 backbone ports per router.)
    // We locate the links through the simulator's connect bookkeeping by
    // disconnecting the known port pairs.
    let router_a = p.router_node(&pops[0]).unwrap();
    // Ports were assigned deterministically: backbone ports 1 and 2.
    for link in p.sim.links_of(router_a) {
        let ((na, pa), (nb, pb)) = link.1;
        let backbone = (na == router_a && pa.0 >= 1 && pa.0 <= 2)
            || (nb == router_a && pb.0 >= 1 && pb.0 <= 2);
        if backbone {
            p.sim.disconnect(link.0);
        }
    }
    // Hold timers expire; the backbone sessions drop; remote routes vanish.
    p.run_for(SimDuration::from_secs(150));
    let routes_after = p
        .sim
        .node::<ExperimentNode>(exp.node)
        .unwrap()
        .routes_for(&target);
    assert!(
        routes_after.len() < count_before,
        "remote paths must be withdrawn after partition ({} -> {})",
        count_before,
        routes_after.len()
    );
    // The local path (via pop A's own transit, learned through the core)
    // survives.
    assert!(!routes_after.is_empty(), "local connectivity survives");
}

#[test]
fn corrupted_control_stream_drops_and_recovers_session() {
    use peering_repro::netsim::{Bytes, EtherFrame, MacAddr, PortId};
    let mut p = tiny();
    let pops = p.pop_names();
    let router = p.router_node(&pops[0]).unwrap();
    let nbr = p.neighbors_at(&pops[0])[0].0;
    let nbr_node = p.neighbor_node(nbr).unwrap();
    // Craft a garbage BGP frame from the neighbor's MAC. Its wild sequence
    // number reads as a gap in the stream, so the transport must kill the
    // session (fail closed) and then auto-recover.
    let nbr_mac = {
        let r = p.sim.node::<VbgpRouter>(router).unwrap();
        // ingress map knows the neighbor's MAC: reuse the platform's
        // deterministic scheme.
        let _ = r;
        MacAddr::from_id(0x0200_0000 | nbr.0)
    };
    let mut garbage = vec![3u8]; // OP_DATA
    garbage.extend_from_slice(&u32::MAX.to_be_bytes()); // wild sequence number
    garbage.extend_from_slice(&[0u8; 19]); // zeroed "BGP header": bad marker
    let frame = EtherFrame::new(
        MacAddr::from_id(0x0100_0000), // router port-0 MAC (pop 0, port 0)
        nbr_mac,
        peering_repro::vbgp::ETHERTYPE_BGP,
        Bytes::from(garbage),
    );
    p.sim.inject_frame(router, PortId(0), frame);
    p.run_for(SimDuration::from_secs(1));
    {
        let r = p.sim.node::<VbgpRouter>(router).unwrap();
        let down = r
            .host
            .speaker
            .peer_ids()
            .iter()
            .any(|pid| !r.host.speaker.is_established(*pid));
        assert!(down, "corrupt stream must drop a session");
    }
    // Connect-retry (30 s) brings it back; the neighbor side also recovers.
    p.run_for(SimDuration::from_secs(120));
    let r = p.sim.node::<VbgpRouter>(router).unwrap();
    for pid in r.host.speaker.peer_ids() {
        assert!(
            r.host.speaker.is_established(pid),
            "session {pid:?} must auto-recover"
        );
    }
    let _ = nbr_node;
}

#[test]
fn ipv6_prefix_announced_through_the_full_stack() {
    let mut p = tiny();
    let pops = p.pop_names();
    let mut proposal = Proposal::basic("v6");
    proposal.want_v6 = true;
    proposal.pops = vec![pops[0].clone()];
    let mut exp = p.submit(proposal).unwrap();
    let v6 = exp.lease.v6.expect("v6 allocation");
    exp.toolkit.open_tunnel(&mut p.sim, &pops[0]).unwrap();
    exp.toolkit.start_bgp(&mut p.sim, &pops[0]).unwrap();
    p.run_for(SimDuration::from_secs(10));

    // Announce the IPv6 allocation (MP-BGP through the interposed session,
    // the enforcement engine and the export policies).
    exp.toolkit
        .announce(&mut p.sim, &pops[0], v6, &AnnounceOptions::default())
        .unwrap();
    p.run_for(SimDuration::from_secs(5));

    let transit = p.neighbors_at(&pops[0])[0].0;
    let node = p.neighbor_node(transit).unwrap();
    let nbr = p
        .sim
        .node::<peering_repro::platform::internet::InternetAs>(node)
        .unwrap();
    let routes = nbr.host.speaker.loc_rib().candidates(&v6);
    assert!(
        !routes.is_empty(),
        "IPv6 allocation must reach the neighbor via MP-BGP"
    );
    assert_eq!(
        routes[0].attrs.as_path.asns(),
        vec![peering_repro::bgp::Asn(47065), exp.lease.asn]
    );

    // The v6 lease lives in the routers' control plane only: the data
    // plane is IPv4-only, so no PoP's mux tables or delivery table hold it,
    // and the layer cross-checks stay clean.
    let router = p.router_node(&pops[0]).unwrap();
    let r = p.sim.node::<VbgpRouter>(router).unwrap();
    assert!(
        !r.host.speaker.loc_rib().candidates(&v6).is_empty(),
        "router's Loc-RIB must hold the v6 lease"
    );
    let is_v6 = |p: &Prefix| matches!(p, Prefix::V6 { .. });
    for pop in &pops {
        let router = p.router_node(pop).unwrap();
        let r = p.sim.node_mut::<VbgpRouter>(router).unwrap();
        for nbr in r.mux.neighbor_ids() {
            let v6_routes: Vec<_> = r.mux.table_entries(nbr).filter(|(p, _)| is_v6(p)).collect();
            assert!(
                v6_routes.is_empty(),
                "{pop}: neighbor {nbr:?} table holds v6 routes: {v6_routes:?}"
            );
        }
        let v6_delivery: Vec<_> = r
            .mux
            .delivery_entries()
            .filter(|(p, ..)| is_v6(p))
            .collect();
        assert!(
            v6_delivery.is_empty(),
            "{pop}: delivery table holds v6 entries: {v6_delivery:?}"
        );
        assert_eq!(r.verify_consistency(), Vec::<String>::new(), "{pop}");
        assert_eq!(r.mux.verify_fast_path(), Vec::<String>::new(), "{pop}");
    }

    // And a hijack of foreign v6 space is still blocked.
    exp.toolkit
        .announce(
            &mut p.sim,
            &pops[0],
            prefix("2001:db8::/32"),
            &AnnounceOptions::default(),
        )
        .unwrap();
    p.run_for(SimDuration::from_secs(5));
    let nbr = p
        .sim
        .node::<peering_repro::platform::internet::InternetAs>(node)
        .unwrap();
    assert!(nbr
        .host
        .speaker
        .loc_rib()
        .candidates(&prefix("2001:db8::/32"))
        .is_empty());
}
