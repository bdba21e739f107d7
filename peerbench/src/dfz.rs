//! `dfz-churn`: one IXP PoP whose route-server members feed a scaled
//! synthetic DFZ to the vBGP router and four ADD-PATH experiments, then
//! AMS-IX-calibrated churn with one data-plane probe per quantum, then
//! heal.
//!
//! Two measured phases: the feed (timed from the first originate to a
//! table that holds still for three simulated seconds) and the churn
//! quanta (toggles + simulate + probes). Heal and its settle run are
//! checked, not timed.

use std::time::Instant;

use peering_bgp::attrs::PathAttributes;
use peering_bgp::types::Prefix;
use peering_netsim::SimDuration;
use peering_platform::InternetAs;
use peering_workload::{
    ChurnConfig, ChurnSchedule, DfzConfig, DfzFabric, DfzGenerator, FabricConfig,
};

use crate::calib::Meter;
use crate::common::{
    proc_status_mb, quantile, rib_bytes_by_role, routers, sync_probe, Digest, PhaseStart,
};
use crate::layers::LayerInputs;
use crate::trace::Tracer;
use crate::{replay, Rep, RepArgs, Size};

struct Params {
    v4: usize,
    v6: usize,
    members: usize,
    experiments: usize,
    churn_secs: u32,
}

fn params(size: Size) -> Params {
    match size {
        Size::Full => Params {
            v4: 15_000,
            v6: 3_000,
            members: 64,
            experiments: 4,
            churn_secs: 20,
        },
        Size::Tiny => Params {
            v4: 1_500,
            v6: 300,
            members: 8,
            experiments: 2,
            churn_secs: 4,
        },
    }
}

const QUANTUM_MS: u64 = 250;

/// Seed of the DFZ table: one fixed table for every run. The run seed
/// drives the fabric, the churn schedule and the probes. Where a table's
/// prefixes land moves the feed rate by up to 40% with the same message
/// counts (seed 4 fed about 24k prefixes/s, seeds 1–3 about 17.5k, on
/// one host in one hour), which would make the feed rate a draw of the
/// table rather than a measure of the program.
const TABLE_SEED: u64 = 1;

/// Most UPDATEs the `on_bytes` replay feeds.
const REPLAY_LIMIT: usize = 20_000;

fn prefix_count(fabric: &DfzFabric) -> usize {
    let id = routers(&fabric.peering)[0];
    fabric
        .peering
        .sim
        .node::<peering_vbgp::VbgpRouter>(id)
        .expect("router node")
        .host
        .speaker
        .loc_rib()
        .prefix_count()
}

/// One data-plane probe from a rotating experiment toward a rotating v4
/// DFZ destination (the probe `DfzFabric::replay` sends per quantum).
fn probe(fabric: &mut DfzFabric, i: usize) {
    let route = (i * 7919) % fabric.gen.config().v4_routes;
    let prefix = fabric.gen.prefix(route);
    let exp = i % fabric.experiments.len();
    fabric.probe(exp, prefix, replay::v4_host(prefix, 1));
}

pub fn rep(a: &RepArgs) -> Rep {
    let pr = params(a.size);
    let mut tr = Tracer::new(a.traced, a.seed);
    let t_setup = Instant::now();

    // --- set-up: table, fabric with sessions up, member slices, churn.
    let setup = tr.begin("phase.setup");
    let gen = tr.time("workload.gen", || {
        DfzGenerator::new(DfzConfig::sized(TABLE_SEED, pr.v4, pr.v6))
    });
    let cfg = FabricConfig {
        seed: a.seed,
        pops: 1,
        members: pr.members,
        experiments: pr.experiments,
        shards: a.shards,
    };
    let t_harness = Instant::now();
    let mut fabric = tr.time("peering.build", || DfzFabric::build(cfg, gen));
    let harness_s = t_harness.elapsed().as_secs_f64();
    // Drain whatever session set-up left queued before the feed is
    // timed (`DfzFabric::build` already converges, so this is short).
    tr.time("peering.establish", || {
        fabric.peering.run_for(SimDuration::from_secs(5))
    });
    let (mut slices, schedule) = tr.time("workload.gen", || {
        let slices: Vec<Vec<(Prefix, PathAttributes)>> = (0..pr.members)
            .map(|m| {
                let (start, end) = fabric.slice_of(m);
                (start..end)
                    .map(|i| {
                        let r = fabric.gen.route(i);
                        (r.prefix, r.attrs)
                    })
                    .collect()
            })
            .collect();
        let schedule = ChurnSchedule::generate(ChurnConfig::amsix(
            a.seed ^ 0xc4,
            pr.churn_secs,
            fabric.gen.len(),
        ));
        (slices, schedule)
    });
    tr.end(setup);
    let setup_s = t_setup.elapsed().as_secs_f64();
    let floor = fabric.expected_router_prefixes();
    let expected = floor + usize::from(a.wrong_expectation);

    let start = PhaseStart::take(&mut fabric.peering);
    let measured = tr.begin("phase.measured");
    let mut meter = Meter::new(&mut tr);

    // --- measured phase 1: the feed.
    let sim0 = fabric.peering.sim.now();
    let members = fabric.member_nodes().to_vec();
    for (m, &node) in members.iter().enumerate() {
        let lap = meter.start();
        let routes = std::mem::take(&mut slices[m]);
        tr.time("workload.originate", || {
            fabric
                .peering
                .sim
                .with_node_ctx::<InternetAs, _>(node, |n, ctx| {
                    let out = n.host.speaker.originate_many(routes);
                    n.host.apply(ctx, out);
                })
        });
        // Drain between members so TCP windows never back up behind the
        // whole table at once.
        tr.time("netsim.run", || {
            fabric.peering.run_for(SimDuration::from_millis(200))
        });
        meter.stop(&mut tr, lap);
    }
    let (mut stable, mut last, mut converged_at) = (0, usize::MAX, fabric.peering.sim.now());
    while stable < 3 {
        let lap = meter.start();
        tr.time("netsim.run", || {
            fabric.peering.run_for(SimDuration::from_secs(1))
        });
        let count = prefix_count(&fabric);
        if count == last && count >= floor {
            stable += 1;
        } else {
            stable = 0;
            converged_at = fabric.peering.sim.now();
            last = count;
        }
        meter.stop(&mut tr, lap);
        // A table that can never reach the floor must not spin forever.
        if (fabric.peering.sim.now() - sim0).as_secs_f64() > 600.0 {
            break;
        }
    }
    let feed_laps = meter.laps();
    let fed = prefix_count(&fabric);
    let converge_sim_s = (converged_at - sim0).as_secs_f64();
    let steady_rss_mb = proc_status_mb("VmRSS");

    // --- measured phase 2: the churn quanta.
    let quanta = (pr.churn_secs as u64 * 1000).div_ceil(QUANTUM_MS);
    let events = schedule.events();
    let mut next = 0;
    let (mut sync_s, mut sync_probes) = (0.0, 0);
    let probe_dst = replay::v4_host(fabric.gen.prefix(0), 1);
    for q in 0..quanta {
        let lap = meter.start();
        let end_ms = (q + 1) * QUANTUM_MS;
        tr.time("workload.inject", || {
            while next < events.len() && events[next].at_ms < end_ms {
                fabric.toggle(events[next].route);
                next += 1;
            }
        });
        tr.time("netsim.run", || {
            fabric.peering.run_for(SimDuration::from_millis(QUANTUM_MS))
        });
        tr.time("workload.inject", || probe(&mut fabric, q as usize + 1));
        let (s, n) = tr.time("mux.sync", || sync_probe(&mut fabric.peering, probe_dst));
        sync_s += s;
        sync_probes += n;
        meter.stop(&mut tr, lap);
    }
    let laps = meter.finish(&mut tr);
    tr.end(measured);
    let (feed_raw, churn_raw) = laps.raw_s.split_at(feed_laps);
    let (feed_ref, churn_ref) = laps.ref_s.split_at(feed_laps);
    let feed_s: f64 = feed_raw.iter().sum();
    let ref_feed_s: f64 = feed_ref.iter().sum();
    let churn_s: f64 = churn_raw.iter().sum();
    let measured_s = feed_s + churn_s;
    let quanta_ms: Vec<f64> = churn_raw.iter().map(|s| s * 1e3).collect();
    let ref_quanta_ms: Vec<f64> = churn_ref.iter().map(|s| s * 1e3).collect();
    let toggles = next as u64;
    let phase = start.end(&mut fabric.peering);

    // --- heal, settle, check.
    fabric.heal();
    fabric.peering.run_for(SimDuration::from_secs(30));
    let healed = prefix_count(&fabric);
    let snap = fabric.peering.obs_snapshot();
    let digest = Digest::new()
        .str(&snap.to_text())
        .u64(fabric.peering.obs().journal_digest())
        .u64(phase.events)
        .u64(fed as u64)
        .u64(healed as u64)
        .u64(toggles)
        .u64(converge_sim_s.to_bits());
    let missing_fed = expected.saturating_sub(fed);
    let missing_healed = expected.saturating_sub(healed);
    let checks = vec![
        (
            "table_after_feed".to_string(),
            missing_fed == 0,
            format!("router holds {fed} prefixes after the feed, floor {expected}"),
        ),
        (
            "table_after_heal".to_string(),
            missing_healed == 0,
            format!("router holds {healed} prefixes after heal, floor {expected}"),
        ),
    ];
    let details = vec![
        (
            "feed_prefixes_per_s".to_string(),
            fed as f64 / feed_s,
            "prefixes/s",
        ),
        (
            "ref_feed_prefixes_per_s".to_string(),
            fed as f64 / ref_feed_s,
            "prefixes/s",
        ),
        ("feed_converge_sim_s".to_string(), converge_sim_s, "s"),
        (
            "churn_rtf".to_string(),
            pr.churn_secs as f64 / churn_s,
            "s/s",
        ),
        (
            "churn_quantum_p90_ms".to_string(),
            quantile(&quanta_ms, 0.9),
            "ms",
        ),
        (
            "table_loss".to_string(),
            missing_healed as f64 / expected as f64,
            "ratio",
        ),
        ("steady_rss_mb".to_string(), steady_rss_mb, "MB"),
        ("router_prefixes".to_string(), fed as f64, "count"),
        ("churn_toggles".to_string(), toggles as f64, "count"),
        ("setup_s".to_string(), setup_s, "s"),
    ];

    let layers = if a.traced {
        let replays = tr.begin("phase.replay");
        let on_bytes = replay::on_bytes(&mut tr, &fabric.gen, REPLAY_LIMIT);
        let (deliver, ingress) = replay::toward_local_experiment(
            &mut tr,
            &mut fabric.peering,
            &fabric.gen,
            REPLAY_LIMIT,
        );
        tr.end(replays);
        let profile = fabric.peering.build_profile;
        let inputs = LayerInputs {
            phase,
            ops: fed as u64 + toggles,
            rib_bytes: rib_bytes_by_role(&fabric.peering),
            build_s: profile.total_secs,
            build_converge_s: profile.converge_secs,
            attach_s: harness_s - profile.total_secs,
            sync_s,
            sync_probes,
            attack_sent: 0,
            attack_delivered: 0,
            toggles,
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
        measured_s,
        ref_measured_s: laps.ref_s.iter().sum(),
        ops: fed as u64,
        ops_s: feed_s,
        ref_ops_s: ref_feed_s,
        quanta_ms,
        ref_quanta_ms,
        kernel_ms: laps.samples_ms,
        digest: digest.value(),
        attempted: 2 * expected as u64,
        failed: (missing_fed + missing_healed) as u64,
        checks,
        details,
        layers,
    }
}
