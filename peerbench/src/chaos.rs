//! `scale-chaos`: a 16-PoP platform (8 IXP + 8 university PoPs, full
//! backbone mesh) hosting 64 experiments on two PoPs each, disturbed by
//! a dense seeded chaos plan over every router link, then left to
//! settle. Many small sessions instead of one big table: FSM, transport
//! resets, Adj-RIB resync and replay, backbone relay, control
//! enforcement and the sharded engine.

use std::time::Instant;

use peering_netsim::{ChaosPlan, FaultInjector, Incident, LinkId, SimDuration, SimRng};
use peering_platform::{
    NeighborIntent, NeighborRole, Peering, PlatformIntent, PopIntent, PopKind, Proposal,
};
use peering_toolkit::AnnounceOptions;
use peering_workload::{DfzConfig, DfzGenerator};

use crate::calib::Meter;
use crate::common::{
    obs_counter, proc_status_mb, rib_bytes_by_role, routers, sync_probe, Digest, PhaseStart,
};
use crate::layers::LayerInputs;
use crate::trace::Tracer;
use crate::{replay, Rep, RepArgs, Size};

struct Params {
    pops: usize,
    experiments: usize,
    /// Incidents start within this window.
    window_s: u64,
    incidents: usize,
    /// Simulated settle time after the last incident ends: the
    /// worst-case recovery of the testkit chaos harness (90-s hold timer
    /// plus a fully damped 300-s ConnectRetry).
    settle_s: u64,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            pops: 16,
            experiments: 64,
            window_s: 450,
            incidents: 300,
            settle_s: 450,
        },
        Size::Tiny => Params {
            pops: 4,
            experiments: 8,
            window_s: 60,
            incidents: 12,
            settle_s: 450,
        },
    }
}

/// Simulated seconds per quantum. The routers' work comes in 30-s
/// waves (alternate 15-s quanta were nearly idle), so a quantum holds
/// one wave; it also holds about 20 incident starts.
const QUANTUM_S: u64 = 30;

/// Chaos plans per run. The work of one plan, and above all how it
/// falls over the quanta, is a draw of its seed: across seeds the
/// quantum percentiles of one plan spread by about 0.2 (IQR ÷ median),
/// against 0.03 between repetitions of one plan. So a run cycles its
/// repetitions through this many plans drawn from its seed, and pools
/// their quanta.
pub const PLANS: usize = 3;

/// Decorrelates the chaos plan from the platform-build seed.
const PLAN_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Separates the plans of one run (plan 0 keeps the seed's own plan).
const PLAN_STRIDE: u64 = 0x6a09_e667_f3bc_c909;

/// Routes the `on_bytes` replay feeds (this workload has no table of its
/// own, so it replays a small synthetic one).
const REPLAY_ROUTES: usize = 4096;

/// Even-indexed PoPs are IXP-style (transit, two bilateral peers, a route
/// server with three members), odd ones university-style; every PoP is
/// on the backbone mesh.
fn intent(n_pops: usize) -> PlatformIntent {
    let mut pops = Vec::new();
    let mut next = 1u32;
    for i in 0..n_pops {
        let name = format!("pop{i:02}");
        let mut neighbors = vec![NeighborIntent {
            id: next,
            name: format!("{name}-transit"),
            asn: 3000 + next,
            role: NeighborRole::Transit,
            rs_members: 0,
        }];
        next += 1;
        for j in 0..2 {
            neighbors.push(NeighborIntent {
                id: next,
                name: format!("{name}-peer-{j}"),
                asn: 10_000 + next,
                role: NeighborRole::Peer,
                rs_members: 0,
            });
            next += 1;
        }
        if i % 2 == 0 {
            neighbors.push(NeighborIntent {
                id: next,
                name: format!("{name}-rs"),
                asn: 6000 + next,
                role: NeighborRole::RouteServer,
                rs_members: 3,
            });
            next += 1;
        }
        pops.push(PopIntent {
            name,
            kind: if i % 2 == 0 {
                PopKind::Ixp
            } else {
                PopKind::University
            },
            neighbors,
            bandwidth_limit: None,
            backbone: true,
        });
    }
    PlatformIntent {
        platform_asn: 47065,
        pops,
        experiments: Vec::new(),
    }
}

/// Every link touching a vBGP router: fabric, backbone, tunnels.
fn router_links(p: &Peering) -> Vec<LinkId> {
    let mut links: Vec<LinkId> = Vec::new();
    for id in routers(p) {
        for (link, _) in p.sim.links_of(id) {
            if !links.contains(&link) {
                links.push(link);
            }
        }
    }
    links.sort_by_key(|l| l.0);
    links
}

/// Exactly `n` incidents starting within `window`: every router link is
/// hit in turn (in a seeded order), the five incident kinds of
/// `ChaosPlan::generate` (two flap draws, partition, loss burst,
/// reorder/duplicate/corrupt burst) are dealt in rotation, starts are
/// spread evenly over the window, and durations and fault rates are
/// drawn as `generate` draws them.
/// `generate` also draws the incident count, kinds and links, so the
/// work of a run would swing with the seed; this keeps the amount and
/// mix of work fixed. An outage that would overlap one already holding a
/// link down becomes a loss burst instead.
fn plan(rng: &mut SimRng, targets: &[LinkId], window: SimDuration, n: usize) -> ChaosPlan {
    let mut order = targets.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut plan = ChaosPlan::new();
    let mut busy: Vec<(LinkId, SimDuration)> = Vec::new();
    let free = |busy: &[(LinkId, SimDuration)], l: LinkId, at: SimDuration| {
        !busy.iter().any(|&(b, until)| b == l && at < until)
    };
    for k in 0..n {
        let link = order[k % order.len()];
        // Stratified starts: incident k starts somewhere in the k-th of
        // n equal slices of the window, so every quantum of the window
        // carries the same number of incident starts.
        let slice = window.as_nanos() / n as u64;
        let start = SimDuration::from_nanos(k as u64 * slice + rng.below(slice.max(1)));
        let loss = |rng: &mut SimRng| {
            Incident::burst(
                link,
                start,
                SimDuration::from_secs(5 + rng.below(36)),
                FaultInjector::dropping(20 + rng.below(60) as u8),
            )
        };
        let incident = match (k + k / order.len()) % 5 {
            0 | 1 if free(&busy, link, start) => {
                let d = SimDuration::from_secs(2 + rng.below(44));
                busy.push((link, start + d));
                Incident::flap(link, start, d)
            }
            2 => {
                let want = 2 + rng.below(3) as usize;
                let mut links = vec![link];
                for _ in 0..want * 3 {
                    let l = targets[rng.below(targets.len() as u64) as usize];
                    if links.len() < want && !links.contains(&l) {
                        links.push(l);
                    }
                }
                if links.iter().all(|&l| free(&busy, l, start)) {
                    let d = SimDuration::from_secs(5 + rng.below(56));
                    busy.extend(links.iter().map(|&l| (l, start + d)));
                    Incident::partition(links, start, d)
                } else {
                    loss(rng)
                }
            }
            4 => {
                let d = SimDuration::from_secs(5 + rng.below(36));
                let faults = FaultInjector::none()
                    .reordering(
                        20 + rng.below(40) as u8,
                        SimDuration::from_millis(50 + rng.below(450)),
                    )
                    .duplicating(10 + rng.below(30) as u8)
                    .corrupting(5 + rng.below(25) as u8);
                Incident::burst(link, start, d, faults)
            }
            _ => loss(rng),
        };
        plan.push(incident);
    }
    plan
}

pub fn rep(a: &RepArgs) -> Rep {
    let pr = params(a.size);
    let mut tr = Tracer::new(a.traced, a.seed);
    let t_setup = Instant::now();

    // --- set-up: build, attach 64 experiments, sessions up, announce.
    let setup = tr.begin("phase.setup");
    let mut p = tr.time("peering.build", || Peering::build(intent(pr.pops), a.seed));
    p.grow_allocation_pools(pr.experiments + 8, pr.experiments + 8);
    p.set_shards(a.shards);
    let pops = p.pop_names();
    let t_attach = Instant::now();
    let mut experiments = tr.time("peering.attach", || {
        (0..pr.experiments)
            .map(|i| {
                let pair = vec![
                    pops[i % pops.len()].clone(),
                    pops[(i + pops.len() / 2 + 1) % pops.len()].clone(),
                ];
                let mut proposal = Proposal::basic(&format!("scale-{i:03}"));
                proposal.pops = pair.clone();
                let mut exp = p.submit(proposal).expect("scale proposal accepted");
                for pop in &pair {
                    exp.toolkit
                        .open_tunnel(&mut p.sim, pop)
                        .expect("tunnel opens");
                    exp.toolkit.start_bgp(&mut p.sim, pop).expect("bgp starts");
                }
                exp
            })
            .collect::<Vec<_>>()
    });
    let attach_s = t_attach.elapsed().as_secs_f64();
    tr.time("peering.establish", || {
        p.run_for(SimDuration::from_secs(15))
    });
    tr.time("workload.originate", || {
        for exp in &mut experiments {
            let prefix = exp.lease.v4[0];
            exp.toolkit
                .announce_everywhere(&mut p.sim, prefix, &AnnounceOptions::default())
                .expect("announce");
        }
    });
    tr.time("peering.establish", || {
        p.run_for(SimDuration::from_secs(15))
    });
    let chaos = tr.time("workload.gen", || {
        let mut rng =
            SimRng::new((a.seed ^ PLAN_SALT).wrapping_add(a.variant as u64 * PLAN_STRIDE));
        plan(
            &mut rng,
            &router_links(&p),
            SimDuration::from_secs(pr.window_s),
            pr.incidents,
        )
    });
    tr.end(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let steady_rss_mb = proc_status_mb("VmRSS");

    // --- measured phase: chaos plus settle, in quanta.
    let start = PhaseStart::take(&mut p);
    let span_s = (chaos
        .end()
        .max(SimDuration::from_secs(pr.window_s))
        .as_secs_f64() as u64)
        + pr.settle_s;
    let quanta = span_s.div_ceil(QUANTUM_S);
    let probe_dst = replay::v4_host(experiments[0].lease.v4[0], 1);
    let mut window_laps = Vec::with_capacity(quanta as usize);
    let (mut sync_s, mut sync_probes) = (0.0, 0);
    let measured = tr.begin("phase.measured");
    let mut meter = Meter::new(&mut tr);
    let lap = meter.start();
    tr.time("workload.inject", || p.sim.schedule_chaos(&chaos));
    meter.stop(&mut tr, lap);
    for q in 0..quanta {
        let lap = meter.start();
        tr.time("netsim.run", || {
            p.run_for(SimDuration::from_secs(QUANTUM_S))
        });
        let (s, n) = tr.time("mux.sync", || sync_probe(&mut p, probe_dst));
        sync_s += s;
        sync_probes += n;
        // Quantum samples come from the chaos window only: the settle
        // quanta are mostly idle, and mixing the two populations would
        // put the median on the boundary between them.
        if q * QUANTUM_S < pr.window_s {
            window_laps.push(meter.laps());
        }
        meter.stop(&mut tr, lap);
    }
    let laps = meter.finish(&mut tr);
    tr.end(measured);
    let phase_s: f64 = laps.raw_s.iter().sum();
    let ref_phase_s: f64 = laps.ref_s.iter().sum();
    let phase = start.end(&mut p);

    let snap = p.obs_snapshot();
    let digest = Digest::new()
        .str(&snap.to_text())
        .u64(p.obs().journal_digest())
        .u64(phase.events);
    let (sessions, down) = (
        phase.gauges.sessions,
        phase.gauges.sessions - phase.gauges.established,
    );
    // Every planned link change must have been applied inside the
    // measured phase.
    let steps = chaos
        .incidents
        .iter()
        .map(|i| 2 * i.links.len() as u64)
        .sum::<u64>()
        + u64::from(a.wrong_expectation);
    let applied = obs_counter(&snap, "netsim.chaos_steps");
    let checks = vec![(
        "chaos_applied".to_string(),
        applied == steps,
        format!("{applied} chaos steps applied, {steps} planned"),
    )];
    let details = vec![
        ("chaos_run_s".to_string(), phase_s, "s"),
        ("ref_chaos_run_s".to_string(), ref_phase_s, "s"),
        (
            "session_loss".to_string(),
            down as f64 / sessions as f64,
            "ratio",
        ),
        (
            "incidents".to_string(),
            chaos.incidents.len() as f64,
            "count",
        ),
        ("events".to_string(), phase.events as f64, "count"),
        ("setup_s".to_string(), setup_s, "s"),
    ];

    let layers = if a.traced {
        let replays = tr.begin("phase.replay");
        let gen = DfzGenerator::new(DfzConfig::sized(a.seed, REPLAY_ROUTES, 0));
        let on_bytes = replay::on_bytes(&mut tr, &gen, REPLAY_ROUTES);
        let (deliver, ingress) =
            replay::toward_local_experiment(&mut tr, &mut p, &gen, REPLAY_ROUTES);
        tr.end(replays);
        let profile = p.build_profile;
        let inputs = LayerInputs {
            phase,
            ops: chaos.incidents.len() as u64,
            rib_bytes: rib_bytes_by_role(&p),
            build_s: profile.total_secs,
            build_converge_s: profile.converge_secs,
            attach_s,
            sync_s,
            sync_probes,
            attack_sent: 0,
            attack_delivered: 0,
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
        ops: chaos.incidents.len() as u64,
        ops_s: phase_s,
        ref_ops_s: ref_phase_s,
        quanta_ms: window_laps.iter().map(|&k| laps.raw_s[k] * 1e3).collect(),
        ref_quanta_ms: window_laps.iter().map(|&k| laps.ref_s[k] * 1e3).collect(),
        kernel_ms: laps.samples_ms,
        digest: digest.value(),
        attempted: sessions,
        failed: down,
        checks,
        details,
        layers,
    }
}
