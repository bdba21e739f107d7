//! Helpers shared by the workloads: statistics, process memory, output
//! digests, the layer counters read from the live routers, and the
//! report every run prints.

use std::net::Ipv4Addr;
use std::time::Instant;

use peering_bgp::types::Prefix;
use peering_netsim::NodeId;
use peering_platform::{InternetAs, Peering};
use peering_toolkit::ExperimentNode;
use peering_vbgp::{ExperimentId, VbgpRouter};

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when `den` is 0 (every ratio is printed beside its
/// base, so a 0 with base 0 reads as "nothing to measure").
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `/proc/self/status` field in megabytes (`VmRSS`, `VmHWM`).
pub fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: f64 = rest
                .trim_start_matches(':')
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// FNV-1a over a byte stream: the digest of a run's deterministic outputs.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in bytes.
    pub fn bytes(mut self, b: &[u8]) -> Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold in a string.
    pub fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Fold in an integer.
    pub fn u64(self, v: u64) -> Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Router node of every PoP, in PoP order.
pub fn routers(p: &Peering) -> Vec<NodeId> {
    p.pop_names()
        .iter()
        .filter_map(|pop| p.router_node(pop))
        .collect()
}

/// Cumulative counters summed over every vBGP router, read from the
/// public `stats` fields and speaker peer stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub msgs_in: u64,
    pub updates_in: u64,
    pub updates_out: u64,
    pub codec_errors: u64,
    pub gap_resets: u64,
    pub decode_resets: u64,
    pub control_evaluated: u64,
    pub control_rejected: u64,
    pub fib_rebuilds: u64,
    pub fib_patch_rounds: u64,
    pub fib_prefixes_patched: u64,
    pub flow_cache_hits: u64,
    pub flow_cache_misses: u64,
    pub ingress_evaluated: u64,
    pub blocked_urpf: u64,
    pub blocked_flood: u64,
    pub blocked_program: u64,
    pub prog_runs: u64,
    pub prog_cache_hits: u64,
    pub ledger_gossip_tx: u64,
}

impl Counters {
    /// Read the counters of every router of `p`.
    pub fn read(p: &Peering) -> Self {
        let mut c = Counters::default();
        for id in routers(p) {
            let r = p.sim.node::<VbgpRouter>(id).expect("router node");
            let speaker = &r.host.speaker;
            for peer in speaker.peer_ids() {
                if let Some(s) = speaker.peer_stats(peer) {
                    c.msgs_in += s.msgs_in;
                    c.updates_in += s.updates_in;
                    c.updates_out += s.updates_out;
                    c.codec_errors += s.codec_errors;
                }
            }
            c.gap_resets += r.host.stats.gap_resets;
            c.decode_resets += r.host.stats.decode_resets;
            c.control_evaluated += r.control.stats.evaluated;
            c.control_rejected += r.control.stats.rejected.values().sum::<u64>();
            let m = &r.mux.stats;
            c.fib_rebuilds += m.fib_rebuilds;
            c.fib_patch_rounds += m.fib_patch_rounds;
            c.fib_prefixes_patched += m.fib_prefixes_patched;
            c.flow_cache_hits += m.flow_cache_hits;
            c.flow_cache_misses += m.flow_cache_misses;
            let d = &r.data.stats;
            c.ingress_evaluated += d.ingress_evaluated;
            for (&label, &n) in &d.ingress_blocked {
                match label {
                    "urpf" => c.blocked_urpf += n,
                    "flood-budget" => c.blocked_flood += n,
                    "not-experiment-destination" | "unknown-experiment" => {}
                    _ => c.blocked_program += n,
                }
            }
            c.prog_runs += d.prog_runs;
            c.prog_cache_hits += d.prog_cache_hits;
            c.ledger_gossip_tx += r.stats.ledger_gossip_tx;
        }
        c
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        Counters {
            msgs_in: self.msgs_in - before.msgs_in,
            updates_in: self.updates_in - before.updates_in,
            updates_out: self.updates_out - before.updates_out,
            codec_errors: self.codec_errors - before.codec_errors,
            gap_resets: self.gap_resets - before.gap_resets,
            decode_resets: self.decode_resets - before.decode_resets,
            control_evaluated: self.control_evaluated - before.control_evaluated,
            control_rejected: self.control_rejected - before.control_rejected,
            fib_rebuilds: self.fib_rebuilds - before.fib_rebuilds,
            fib_patch_rounds: self.fib_patch_rounds - before.fib_patch_rounds,
            fib_prefixes_patched: self.fib_prefixes_patched - before.fib_prefixes_patched,
            flow_cache_hits: self.flow_cache_hits - before.flow_cache_hits,
            flow_cache_misses: self.flow_cache_misses - before.flow_cache_misses,
            ingress_evaluated: self.ingress_evaluated - before.ingress_evaluated,
            blocked_urpf: self.blocked_urpf - before.blocked_urpf,
            blocked_flood: self.blocked_flood - before.blocked_flood,
            blocked_program: self.blocked_program - before.blocked_program,
            prog_runs: self.prog_runs - before.prog_runs,
            prog_cache_hits: self.prog_cache_hits - before.prog_cache_hits,
            ledger_gossip_tx: self.ledger_gossip_tx - before.ledger_gossip_tx,
        }
    }
}

/// Gauges read once at the end of the measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Routers whose control enforcer is failing closed.
    pub fail_closed: u64,
    /// Compiled FIB entries over every router's mux tables.
    pub fib_entries: u64,
    /// Adj-RIB-In paths over every router.
    pub adj_in_paths: u64,
    /// Interned attribute sets over every router.
    pub interned_attrs: u64,
    /// Router BGP sessions, and how many of them are Established.
    pub sessions: u64,
    pub established: u64,
}

impl Gauges {
    /// Read the gauges of every router of `p`.
    pub fn read(p: &Peering) -> Self {
        let mut g = Gauges::default();
        for id in routers(p) {
            let r = p.sim.node::<VbgpRouter>(id).expect("router node");
            g.fail_closed += u64::from(r.control.fail_closed());
            g.fib_entries += r.mux.total_fib_entries() as u64;
            g.adj_in_paths += r.host.speaker.total_adj_in_paths() as u64;
            g.interned_attrs += r.host.speaker.attr_store().len() as u64;
            for peer in r.host.speaker.peer_ids() {
                g.sessions += 1;
                g.established += u64::from(r.host.speaker.is_established(peer));
            }
        }
        g
    }
}

/// Layer state at the start of a measured phase.
pub struct PhaseStart {
    counters: Counters,
    events: u64,
    resync_replays: u64,
}

/// What the layers did over a measured phase.
pub struct PhaseDelta {
    /// Router counter deltas.
    pub counters: Counters,
    /// Router gauges at the end of the phase.
    pub gauges: Gauges,
    /// `Simulator::processed_events` delta.
    pub events: u64,
    /// `bgp.resync_replays` (obs) delta.
    pub resync_replays: u64,
    /// Router UPDATEs received since the platform was built.
    pub updates_in_total: u64,
}

impl PhaseStart {
    /// Read the layers of `p` now. Publishes obs gauges, so traced and
    /// untraced runs both call it at the same points.
    pub fn take(p: &mut Peering) -> Self {
        PhaseStart {
            counters: Counters::read(p),
            events: p.sim.processed_events,
            resync_replays: obs_counter(&p.obs_snapshot(), "bgp.resync_replays"),
        }
    }

    /// Read the layers of `p` again and return the deltas since `take`.
    pub fn end(&self, p: &mut Peering) -> PhaseDelta {
        let now = Counters::read(p);
        PhaseDelta {
            counters: now.since(&self.counters),
            gauges: Gauges::read(p),
            events: p.sim.processed_events - self.events,
            resync_replays: obs_counter(&p.obs_snapshot(), "bgp.resync_replays")
                - self.resync_replays,
            updates_in_total: now.updates_in,
        }
    }
}

/// Sum of an obs counter family (`bgp.resync_replays`, …) over every
/// scope that registers it.
pub fn obs_counter(snap: &peering_obs::Snapshot, name: &str) -> u64 {
    snap.names()
        .filter(|n| n.contains(name))
        .filter_map(|n| snap.counter(n))
        .sum()
}

/// The first router, in PoP order, that delivers an IPv4 prefix to a
/// local experiment: `(router, prefix, experiment)`. Chaos can leave an
/// experiment's session down, so replays pick a delivery that exists.
pub fn local_delivery(p: &Peering) -> Option<(NodeId, Prefix, ExperimentId)> {
    routers(p).into_iter().find_map(|id| {
        let r = p.sim.node::<VbgpRouter>(id).expect("router node");
        r.mux
            .delivery_entries()
            .find_map(|(prefix, _, exp)| match (prefix, exp) {
                (Prefix::V4 { .. }, Some(exp)) => Some((id, prefix, exp)),
                _ => None,
            })
    })
}

/// RIB bytes (`Speaker::rib_memory_bytes`) summed by node role:
/// `(vBGP routers, simulated world, experiments)`.
pub fn rib_bytes_by_role(p: &Peering) -> (u64, u64, u64) {
    let (mut router, mut world, mut exps) = (0u64, 0u64, 0u64);
    for id in p.sim.node_ids() {
        if let Some(r) = p.sim.node::<VbgpRouter>(id) {
            router += r.host.speaker.rib_memory_bytes() as u64;
        } else if let Some(n) = p.sim.node::<InternetAs>(id) {
            world += n.host.speaker.rib_memory_bytes() as u64;
        } else if let Some(n) = p.sim.node::<ExperimentNode>(id) {
            exps += n.host.speaker.rib_memory_bytes() as u64;
        }
    }
    (router, world, exps)
}

/// The first lookup into every PoP-local neighbor table after a quantum
/// pays that table's pending lazy FlatFib sync. Returns
/// `(wall seconds, lookups)`. Run in traced and untraced runs alike, so
/// the counters it bumps are part of the workload's deterministic output.
pub fn sync_probe(p: &mut Peering, dst: Ipv4Addr) -> (f64, u64) {
    let mut secs = 0.0;
    let mut n = 0;
    for pop in p.pop_names() {
        let Some(router) = p.router_node(&pop) else {
            continue;
        };
        let local: Vec<_> = p.neighbors_at(&pop).into_iter().map(|(id, _)| id).collect();
        let r = p.sim.node_mut::<VbgpRouter>(router).expect("router node");
        for nbr in local {
            let t = Instant::now();
            std::hint::black_box(r.mux.egress_via_neighbor(nbr, dst));
            secs += t.elapsed().as_secs_f64();
            n += 1;
        }
    }
    (secs, n)
}

/// What one run prints: checks, counts, end-to-end or per-layer
/// metrics, and the run record.
#[derive(Default)]
pub struct Report {
    pub checks: Vec<(String, bool, String)>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Workload-specific figures under the names the README uses
    /// (printed as `detail` lines, not in the JSON result).
    pub details: Vec<(String, f64, &'static str)>,
    pub record: Vec<(String, String)>,
}

impl Report {
    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, what: String) {
        self.checks.push((name.to_string(), ok, what));
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    pub fn record(&mut self, key: &str, value: impl ToString) {
        self.record.push((key.to_string(), value.to_string()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
    }
}
