//! The per-layer metrics of a traced repetition.

use crate::common::{ratio, PhaseDelta};
use crate::replay::Replay;
use crate::trace::Tracer;

/// Everything a workload measured about the layers in its traced
/// repetition, beyond what the spans already hold.
pub struct LayerInputs {
    /// What the layers did over the measured phase.
    pub phase: PhaseDelta,
    /// The workload's operations in the measured phase (base of
    /// `netsim.events_per_op`).
    pub ops: u64,
    /// `Speaker::rib_memory_bytes` by role: routers, world, experiments.
    pub rib_bytes: (u64, u64, u64),
    /// `Peering::build` wall time and its convergence part
    /// (`Peering::build_profile`).
    pub build_s: f64,
    pub build_converge_s: f64,
    /// Harness attach wall time: what the harness constructor does after
    /// `Peering::build` (tunnels, sessions, member policies), or the
    /// benchmark's own attach calls.
    pub attach_s: f64,
    /// Lazy-sync probes: wall seconds and lookups.
    pub sync_s: f64,
    pub sync_probes: u64,
    /// Attack packets sent and delivered in the measured phase.
    pub attack_sent: u64,
    pub attack_delivered: u64,
    /// Route toggles the workload applied in the measured phase.
    pub toggles: u64,
    pub on_bytes: Replay,
    pub deliver: Replay,
    pub ingress: Replay,
    /// RSS once the setup (and, for dfz-churn, the feed) has converged.
    pub steady_rss_mb: f64,
}

/// Layers every workload reports a self time for, in print order.
pub const LAYERS: [&str; 7] = [
    "workload", "peering", "netsim", "bgp", "mux", "data", "phase",
];

/// Build the per-layer metric list of a traced repetition.
pub fn metrics(
    tr: &Tracer,
    inp: &LayerInputs,
    overhead: f64,
    shards: usize,
    shard_speedup: f64,
) -> Vec<(String, f64, &'static str)> {
    let d = &inp.phase.counters;
    let g = &inp.phase.gauges;
    let events = inp.phase.events;
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));

    put("workload.gen_s", tr.total("workload.gen"), "s");
    put("workload.originate_s", tr.total("workload.originate"), "s");
    put("workload.inject_s", tr.total("workload.inject"), "s");
    put("workload.toggles", inp.toggles as f64, "count");

    put("peering.build_s", inp.build_s, "s");
    put("peering.build.converge_s", inp.build_converge_s, "s");
    put("peering.attach_s", inp.attach_s, "s");
    put("peering.establish_s", tr.total("peering.establish"), "s");

    let run_s = tr.total("netsim.run");
    put("netsim.run_s", run_s, "s");
    put("netsim.events", events as f64, "count");
    put(
        "netsim.ns_per_event",
        ratio(run_s * 1e9, events as f64),
        "ns",
    );
    put(
        "netsim.events_per_op",
        ratio(events as f64, inp.ops as f64),
        "ratio",
    );
    put("netsim.ops", inp.ops as f64, "count");
    put("netsim.shards", shards as f64, "count");
    put("netsim.shard_speedup", shard_speedup, "x");

    put("bgp.msgs_in", d.msgs_in as f64, "count");
    put("bgp.updates_in", d.updates_in as f64, "count");
    put("bgp.updates_out", d.updates_out as f64, "count");
    put(
        "bgp.nlri_per_update",
        ratio(g.adj_in_paths as f64, inp.phase.updates_in_total as f64),
        "ratio",
    );
    put(
        "bgp.updates_in_total",
        inp.phase.updates_in_total as f64,
        "count",
    );
    put(
        "bgp.attr_dedup",
        ratio(g.adj_in_paths as f64, g.interned_attrs as f64),
        "ratio",
    );
    put("bgp.adj_in_paths", g.adj_in_paths as f64, "count");
    put("bgp.on_bytes_ns_per_update", inp.on_bytes.ns_per_item, "ns");
    put("bgp.on_bytes_updates", inp.on_bytes.items as f64, "count");
    let mb = |b: u64| b as f64 / (1024.0 * 1024.0);
    put("bgp.rib_mb.router", mb(inp.rib_bytes.0), "MB");
    put("bgp.rib_mb.world", mb(inp.rib_bytes.1), "MB");
    put("bgp.rib_mb.experiments", mb(inp.rib_bytes.2), "MB");
    put(
        "bgp.resync_replays",
        inp.phase.resync_replays as f64,
        "count",
    );
    put("bgp.codec_errors", d.codec_errors as f64, "count");

    put("transport.gap_resets", d.gap_resets as f64, "count");
    put("transport.decode_resets", d.decode_resets as f64, "count");

    put("control.evaluated", d.control_evaluated as f64, "count");
    put("control.rejected", d.control_rejected as f64, "count");
    put("control.fail_closed", g.fail_closed as f64, "count");

    put("mux.fib_rebuilds", d.fib_rebuilds as f64, "count");
    put("mux.fib_patch_rounds", d.fib_patch_rounds as f64, "count");
    put(
        "mux.fib_prefixes_patched",
        d.fib_prefixes_patched as f64,
        "count",
    );
    put("mux.sync_ms", inp.sync_s * 1e3, "ms");
    put("mux.sync_probes", inp.sync_probes as f64, "count");
    put("mux.fib_entries", g.fib_entries as f64, "count");
    let lookups = d.flow_cache_hits + d.flow_cache_misses;
    put(
        "mux.flow_cache_hit_ratio",
        ratio(d.flow_cache_hits as f64, lookups as f64),
        "ratio",
    );
    put("mux.flow_cache_lookups", lookups as f64, "count");
    put("mux.deliver_ns", inp.deliver.ns_per_item, "ns");
    put("mux.deliver_pkts", inp.deliver.items as f64, "count");

    put(
        "data.ingress_evaluated",
        d.ingress_evaluated as f64,
        "count",
    );
    put("data.blocked.urpf", d.blocked_urpf as f64, "count");
    put("data.blocked.program", d.blocked_program as f64, "count");
    put("data.blocked.flood", d.blocked_flood as f64, "count");
    let prog = d.prog_runs + d.prog_cache_hits;
    put(
        "data.prog_cache_hit_ratio",
        ratio(d.prog_cache_hits as f64, prog as f64),
        "ratio",
    );
    put("data.prog_lookups", prog as f64, "count");
    put("data.ingress_ns_per_pkt", inp.ingress.ns_per_item, "ns");
    put("data.ingress_replayed", inp.ingress.items as f64, "count");
    put(
        "data.attack_leak",
        ratio(inp.attack_delivered as f64, inp.attack_sent as f64),
        "ratio",
    );
    put("data.attack_sent", inp.attack_sent as f64, "count");
    put(
        "router.ledger_gossip_tx",
        d.ledger_gossip_tx as f64,
        "count",
    );

    put("mem.steady_rss_mb", inp.steady_rss_mb, "MB");

    let by_layer = tr.self_secs_by_layer();
    for layer in LAYERS {
        let v = by_layer
            .iter()
            .find(|(l, _)| l == layer)
            .map_or(0.0, |(_, v)| *v);
        put(&format!("self_s.{layer}"), v, "s");
    }
    let measured = tr.find("phase.measured").expect("measured phase span");
    let span = &tr.spans()[measured];
    put(
        "trace.measured_coverage",
        ratio(tr.children_secs(measured), span.secs()),
        "ratio",
    );
    put("trace.measured_s", span.secs(), "s");
    put("trace.overhead", overhead, "ratio");
    put("trace.spans", tr.spans().len() as f64, "count");
    m
}
