//! `serve-attack`: an 8-PoP anycast deployment serving an open-loop
//! client schedule under a mixed DDoS, defenses installed.
//!
//! Open loop in simulated time: the flows starting in each 1-s quantum
//! are injected at its boundary whatever the platform did with the
//! previous quantum, so arrivals never depend on the system under test
//! and there is no wall-clock generator lateness to report. The wall
//! time of each quantum (inject + simulate) is the lag measure.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::time::Instant;

use peering_bgp::types::Prefix;
use peering_netsim::{Bytes, IpPacket, IpProto};
use peering_platform::{AnycastServing, ServingParams};
use peering_vbgp::NeighborId;
use peering_workload::serving::{calibrate_flood, class_tag, syn_block_program};
use peering_workload::{
    DfzConfig, DfzGenerator, Flow, FlowClass, FlowProto, TrafficConfig, TrafficGenerator,
    TrafficMix,
};

use crate::calib::Meter;
use crate::common::{
    proc_status_mb, quantile, rib_bytes_by_role, sync_probe, Digest, PhaseStart,
};
use crate::layers::LayerInputs;
use crate::trace::Tracer;
use crate::{replay, Rep, RepArgs, Size};

struct Params {
    pops: usize,
    flows: usize,
    serve_ms: u64,
    dfz_routes: usize,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            pops: 8,
            flows: 100_000,
            serve_ms: 150_000,
            dfz_routes: 4096,
        },
        Size::Tiny => Params {
            pops: 4,
            flows: 1_500,
            serve_ms: 150_000,
            dfz_routes: 1024,
        },
    }
}

/// Destination of the lazy-sync probes: inside the client cones every
/// transit exports, so the lookup hits.
const PROBE_DST: Ipv4Addr = Ipv4Addr::new(20, 0, 0, 1);

/// Most items a per-layer replay feeds its layer.
const REPLAY_LIMIT: usize = 50_000;

fn packet(f: &Flow, dst: Ipv4Addr) -> IpPacket {
    let payload = vec![
        (f.src_port >> 8) as u8,
        (f.src_port & 0xff) as u8,
        (f.dst_port >> 8) as u8,
        (f.dst_port & 0xff) as u8,
        class_tag(f.class),
        0,
        0,
        0,
    ];
    let proto = match f.proto {
        FlowProto::Udp => IpProto::Udp,
        FlowProto::Tcp => IpProto::Tcp,
    };
    IpPacket::new(f.src, dst, proto, Bytes::from(payload))
}

fn dfz(seed: u64, routes: usize) -> DfzGenerator {
    DfzGenerator::new(DfzConfig::sized(seed ^ 0xD0F2, routes, 0))
}

pub fn rep(a: &RepArgs) -> Rep {
    let pr = params(a.size);
    let mut tr = Tracer::new(a.traced, a.seed);
    let t_setup = Instant::now();

    // --- set-up: deployment, client cones, anycast, schedule, defenses.
    let setup = tr.begin("phase.setup");
    let t_harness = Instant::now();
    let mut net = tr.time("peering.build", || {
        AnycastServing::build(ServingParams::new(a.seed, pr.pops).with_shards(a.shards))
    });
    let harness_s = t_harness.elapsed().as_secs_f64();
    let cones: Vec<Prefix> = (20u8..84)
        .map(|o| Prefix::v4(Ipv4Addr::new(o, 0, 0, 0), 8).expect("/8 cone"))
        .collect();
    tr.time("workload.originate", || net.originate_cones(&cones));
    tr.time("peering.establish", || net.run_secs(20));
    tr.time("workload.originate", || net.announce_all());
    tr.time("peering.establish", || net.run_secs(20));
    let (gen, by_quantum) = tr.time("workload.gen", || {
        let mut cfg =
            TrafficConfig::new(a.seed, pr.flows, pr.pops as u32, TrafficMix::under_attack());
        cfg.duration_ms = pr.serve_ms;
        let gen = TrafficGenerator::new(cfg, dfz(a.seed, pr.dfz_routes));
        let mut by_quantum: Vec<Vec<Flow>> = vec![Vec::new(); pr.serve_ms.div_ceil(1000) as usize];
        for f in gen.iter() {
            by_quantum[(f.start_ms / 1000) as usize].push(f);
        }
        (gen, by_quantum)
    });
    let flood = calibrate_flood(&gen);
    tr.time("peering.policy", || {
        net.install_serving_policy(
            true,
            Some(syn_block_program(gen.config().syn_port)),
            Some(flood),
        )
        .expect("serving policy installs")
    });
    tr.end(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let steady_rss_mb = proc_status_mb("VmRSS");

    // --- measured phase: the serve quanta only.
    let start = PhaseStart::take(&mut net.platform);
    let mut sent: BTreeMap<u8, u64> = BTreeMap::new();
    let mut injected = 0u64;
    let (mut sync_s, mut sync_probes) = (0.0, 0);
    let measured = tr.begin("phase.measured");
    let mut meter = Meter::new(&mut tr);
    for flows in &by_quantum {
        let lap = meter.start();
        tr.time("workload.inject", || {
            for f in flows {
                let pkt = packet(f, net.anycast_addr(f.dst_host as u32));
                for _ in 0..f.packets {
                    net.inject(f.home_pop as usize, pkt.clone());
                }
                injected += f.packets as u64;
                *sent.entry(class_tag(f.class)).or_insert(0) += f.packets as u64;
            }
        });
        tr.time("netsim.run", || net.run_millis(1000));
        let (s, n) = tr.time("mux.sync", || sync_probe(&mut net.platform, PROBE_DST));
        sync_s += s;
        sync_probes += n;
        meter.stop(&mut tr, lap);
    }
    let laps = meter.finish(&mut tr);
    tr.end(measured);
    let phase_s: f64 = laps.raw_s.iter().sum();
    let ref_phase_s: f64 = laps.ref_s.iter().sum();
    let phase = start.end(&mut net.platform);

    // --- drain and account.
    net.run_secs(5);
    let delivered = net.delivered_by_tag();
    let legit = class_tag(FlowClass::Legit);
    let legit_sent = sent.get(&legit).copied().unwrap_or(0);
    let legit_delivered = delivered.get(&legit).copied().unwrap_or(0);
    let attack_sent: u64 = sent
        .iter()
        .filter(|(t, _)| **t != legit)
        .map(|(_, n)| n)
        .sum();
    let attack_delivered: u64 = delivered
        .iter()
        .filter(|(t, _)| **t != legit)
        .map(|(_, n)| n)
        .sum();
    let legit_delivery = legit_delivered as f64 / legit_sent.max(1) as f64;
    let attack_block = 1.0 - attack_delivered as f64 / attack_sent.max(1) as f64;
    let snap = net.platform.obs_snapshot();
    let mut digest = Digest::new()
        .str(&snap.to_text())
        .u64(net.platform.obs().journal_digest())
        .u64(phase.events)
        .u64(injected);
    for (tag, n) in sent.iter().chain(delivered.iter()) {
        digest = digest.u64(*tag as u64).u64(*n);
    }

    let legit_floor = if a.wrong_expectation { 1.01 } else { 0.99 };
    let checks = vec![
        (
            "legit_delivery".to_string(),
            legit_delivery >= legit_floor,
            format!(
                "{legit_delivered}/{legit_sent} legitimate packets delivered, floor {legit_floor}"
            ),
        ),
        (
            "attack_block".to_string(),
            attack_block >= 0.95,
            format!(
                "{}/{attack_sent} attack packets blocked, floor 0.95",
                attack_sent - attack_delivered
            ),
        ),
    ];
    let details = vec![
        (
            "serve_pps".to_string(),
            injected as f64 / phase_s,
            "packets/s",
        ),
        (
            "ref_serve_pps".to_string(),
            injected as f64 / ref_phase_s,
            "packets/s",
        ),
        (
            "serve_quantum_p50_ms".to_string(),
            quantile(&laps.raw_s, 0.5) * 1e3,
            "ms",
        ),
        (
            "serve_quantum_p90_ms".to_string(),
            quantile(&laps.raw_s, 0.9) * 1e3,
            "ms",
        ),
        ("legit_loss".to_string(), 1.0 - legit_delivery, "ratio"),
        (
            "attack_leak".to_string(),
            attack_delivered as f64 / attack_sent.max(1) as f64,
            "ratio",
        ),
        ("packets_injected".to_string(), injected as f64, "count"),
        ("setup_s".to_string(), setup_s, "s"),
    ];

    // --- traced repetition only: per-layer replays.
    let layers = if a.traced {
        let replays = tr.begin("phase.replay");
        let on_bytes = replay::on_bytes(&mut tr, &dfz(a.seed, pr.dfz_routes), REPLAY_LIMIT);
        let router = net.platform.router_node("pop0").expect("pop0 router");
        let flows: Vec<Flow> = gen.iter().take(REPLAY_LIMIT).collect();
        let dsts: Vec<Ipv4Addr> = flows
            .iter()
            .map(|f| net.anycast_addr(f.dst_host as u32))
            .collect();
        let deliver = replay::deliver(&mut tr, &mut net.platform, router, &dsts);
        let views: Vec<_> = flows
            .iter()
            .zip(&dsts)
            .map(|(f, &dst)| replay::udp_view(f.src, dst, f.src_port, f.dst_port, 64))
            .collect();
        // The router's own uRPF input: does pop0's transit route back to
        // the claimed source?
        let urpf: Vec<bool> = {
            let r = net
                .platform
                .sim
                .node_mut::<peering_vbgp::VbgpRouter>(router)
                .expect("router node");
            flows
                .iter()
                .map(|f| r.mux.source_routable(NeighborId(1), f.src))
                .collect()
        };
        let exp = net.exp.id;
        let ingress = replay::ingress(&mut tr, &mut net.platform, router, exp, &views, Some(&urpf));
        tr.end(replays);
        let profile = net.platform.build_profile;
        let inputs = LayerInputs {
            phase,
            ops: injected,
            rib_bytes: rib_bytes_by_role(&net.platform),
            build_s: profile.total_secs,
            build_converge_s: profile.converge_secs,
            attach_s: harness_s - profile.total_secs,
            sync_s,
            sync_probes,
            attack_sent,
            attack_delivered,
            toggles: 0,
            on_bytes,
            deliver,
            ingress,
            steady_rss_mb,
        };
        Some((tr, inputs))
    } else {
        None
    };

    Rep {
        setup_s,
        measured_s: phase_s,
        ref_measured_s: ref_phase_s,
        ops: injected,
        ops_s: phase_s,
        ref_ops_s: ref_phase_s,
        quanta_ms: laps.raw_s.iter().map(|s| s * 1e3).collect(),
        ref_quanta_ms: laps.ref_s.iter().map(|s| s * 1e3).collect(),
        kernel_ms: laps.samples_ms,
        digest: digest.value(),
        attempted: injected,
        failed: legit_sent - legit_delivered.min(legit_sent),
        checks,
        details,
        layers,
    }
}
