//! Per-layer replays, run only in the traced run and only after its
//! measured phase: each feeds one layer's public batch entry point a
//! stream taken from the workload and reports nanoseconds per item.

use std::net::{IpAddr, Ipv4Addr};
use std::time::Instant;

use peering_bgp::message::{Message, UpdateMsg};
use peering_bgp::types::Prefix;
use peering_netsim::{IpProto, NodeId};
use peering_platform::Peering;
use peering_vbgp::enforcement::pprog::PacketView;
use peering_vbgp::{ExperimentId, VbgpRouter};
use peering_workload::DfzGenerator;

use crate::common::local_delivery;
use crate::trace::Tracer;

/// Batch size the router hands the batch entry points in a run of
/// frames of one class.
const BATCH: usize = 32;

/// One replay's result.
pub struct Replay {
    pub ns_per_item: f64,
    pub items: u64,
}

/// Replay up to `limit` IPv4 routes of `gen` as single-route UPDATEs
/// through `Speaker::on_bytes` on the Fig. 6b single-router pair (the
/// per-neighbor import rewrite plus the ADD-PATH export fan-out to three
/// experiments).
pub fn on_bytes(tr: &mut Tracer, gen: &DfzGenerator, limit: usize) -> Replay {
    let mut pair = peering_bench::fig6b_configs::single_router();
    let ctx = pair.dut.codec_ctx(pair.dut_peer);
    let n = gen.config().v4_routes.min(limit);
    let wires: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            let r = gen.route(i);
            Message::Update(UpdateMsg::announce(vec![(r.prefix, None)], r.attrs)).encode(&ctx)
        })
        .collect();
    let open = tr.begin("bgp.on_bytes");
    let t = Instant::now();
    for w in &wires {
        pair.feed(w);
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(open);
    Replay {
        ns_per_item: secs * 1e9 / n.max(1) as f64,
        items: n as u64,
    }
}

/// Replay destinations through `VbgpMux::deliver_to_experiment_batch`
/// on the live router `router`, in router-sized batches.
pub fn deliver(tr: &mut Tracer, p: &mut Peering, router: NodeId, dsts: &[Ipv4Addr]) -> Replay {
    let r = p.sim.node_mut::<VbgpRouter>(router).expect("router node");
    let mut out = Vec::with_capacity(BATCH);
    let mut delivered = 0u64;
    let open = tr.begin("mux.deliver");
    let t = Instant::now();
    for chunk in dsts.chunks(BATCH) {
        r.mux.deliver_to_experiment_batch(chunk, None, &mut out);
        delivered += out.iter().filter(|d| d.is_some()).count() as u64;
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(open);
    assert!(
        delivered > 0,
        "delivery replay matched no experiment prefix"
    );
    Replay {
        ns_per_item: secs * 1e9 / dsts.len().max(1) as f64,
        items: dsts.len() as u64,
    }
}

/// Replay packet views through `DataEnforcer::check_ingress_batch` on
/// the live router `router` for experiment `exp`. `urpf_ok` is the
/// per-packet reverse-path verdict the router would have computed from
/// the ingress neighbor's table (computed by the caller, outside the
/// timed region); `None` skips uRPF as for backbone-relayed traffic.
pub fn ingress(
    tr: &mut Tracer,
    p: &mut Peering,
    router: NodeId,
    exp: ExperimentId,
    views: &[PacketView],
    urpf_ok: Option<&[bool]>,
) -> Replay {
    let now = p.sim.now();
    let r = p.sim.node_mut::<VbgpRouter>(router).expect("router node");
    let mut out = Vec::with_capacity(BATCH);
    let open = tr.begin("data.check_ingress");
    let t = Instant::now();
    for (k, chunk) in views.chunks(BATCH).enumerate() {
        let ok = urpf_ok.map(|u| &u[k * BATCH..k * BATCH + chunk.len()]);
        r.data.check_ingress_batch(exp, chunk, ok, now, &mut out);
        std::hint::black_box(&out);
    }
    let secs = t.elapsed().as_secs_f64();
    tr.end(open);
    Replay {
        ns_per_item: secs * 1e9 / views.len().max(1) as f64,
        items: views.len() as u64,
    }
}

/// Delivery and ingress replays toward the first local experiment
/// prefix a router delivers (see [`local_delivery`]), for workloads
/// without a packet schedule of their own: destinations cycle through
/// the prefix's first 250 hosts, sources through `gen`'s v4 routes.
pub fn toward_local_experiment(
    tr: &mut Tracer,
    p: &mut Peering,
    gen: &DfzGenerator,
    n: usize,
) -> (Replay, Replay) {
    let (router, prefix, exp) =
        local_delivery(p).expect("some router delivers to a local experiment");
    let dsts: Vec<Ipv4Addr> = (0..n as u32)
        .map(|k| v4_host(prefix, 1 + k % 250))
        .collect();
    let deliver = deliver(tr, p, router, &dsts);
    let v4 = gen.config().v4_routes;
    let views: Vec<PacketView> = dsts
        .iter()
        .enumerate()
        .map(|(k, &dst)| {
            let src = v4_host(gen.prefix(k % v4), 1);
            udp_view(src, dst, 1024 + (k % 60_000) as u16, 80, 64)
        })
        .collect();
    let ingress = ingress(tr, p, router, exp, &views, None);
    (deliver, ingress)
}

/// Host `host` of an IPv4 prefix.
pub fn v4_host(p: Prefix, host: u32) -> Ipv4Addr {
    match p {
        Prefix::V4 { addr, .. } => Ipv4Addr::from(u32::from(addr) + host),
        Prefix::V6 { .. } => unreachable!("v4 prefix expected"),
    }
}

/// A UDP view from `src` to `dst` as the router decodes it.
pub fn udp_view(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    len: u32,
) -> PacketView {
    PacketView {
        src: IpAddr::V4(src),
        dst: IpAddr::V4(dst),
        proto: IpProto::Udp.to_u8(),
        src_port,
        dst_port,
        len,
        ttl: 64,
    }
}
