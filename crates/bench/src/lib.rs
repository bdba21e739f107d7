//! Shared harness code for the benchmark suite.
//!
//! Every figure and table of the paper's evaluation (§6) has a regenerating
//! binary in `src/bin/` plus a Criterion micro-benchmark in `benches/`:
//!
//! | Paper artifact | Binary | Criterion bench |
//! |---|---|---|
//! | Fig. 6a (memory vs routes, 3 lines) | `fig6a` | `fig6a_memory` |
//! | Fig. 6b (CPU vs update rate, 3 lines) | `fig6b` | `fig6b_cpu` |
//! | §6 backbone throughput (iperf3 matrix) | `backbone_tput` | `backbone_throughput` |
//! | §4.2 footprint table | `footprint` | — |
//! | §6 AMS-IX scale anecdotes | `amsix_scale` | — |
//! | design ablations (§3.3, §7.2) | — | `ablations` |

#![forbid(unsafe_code)]

use std::net::Ipv4Addr;

use peering_bgp::attrs::{AsPath, PathAttributes};
use peering_bgp::message::UpdateMsg;
use peering_bgp::policy::Policy;
use peering_bgp::rib::{PeerId, Route, RouteSource};
use peering_bgp::speaker::{PeerConfig, Speaker, SpeakerConfig, SpeakerOutput};
use peering_bgp::types::{Asn, Prefix, RouterId};

/// Minimal wall-clock benchmark runner. The seed used Criterion; that is
/// unavailable offline, and these harnesses only need stable
/// per-iteration timings printed to stdout.
pub mod timing {
    use std::time::Instant;

    /// Run `f` `iters` times (after one warmup call) and print + return the
    /// mean seconds per iteration.
    pub fn bench<R>(name: &str, iters: u32, mut f: impl FnMut() -> R) -> f64 {
        assert!(iters > 0);
        std::hint::black_box(f());
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(f());
        }
        let per = start.elapsed().as_secs_f64() / iters as f64;
        report(name, per);
        per
    }

    /// Like [`bench()`] but rebuilds state with `setup` before every timed
    /// call (Criterion's `iter_batched`): setup time is excluded.
    pub fn bench_batched<S, R>(
        name: &str,
        iters: u32,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> f64 {
        assert!(iters > 0);
        std::hint::black_box(f(setup()));
        let mut total = 0.0f64;
        for _ in 0..iters {
            let state = setup();
            let start = Instant::now();
            std::hint::black_box(f(state));
            total += start.elapsed().as_secs_f64();
        }
        let per = total / iters as f64;
        report(name, per);
        per
    }

    fn report(name: &str, per: f64) {
        if per >= 1e-3 {
            println!("{name:<52} {:>12.3} ms/iter", per * 1e3);
        } else {
            println!("{name:<52} {:>12.3} µs/iter", per * 1e6);
        }
    }
}

/// Deterministically synthesize the `i`-th route prefix (IXP-table-like
/// spread of /16–/24s).
pub fn synth_prefix(i: u64) -> Prefix {
    let len = 16 + (i % 9) as u8; // 16..=24
    let base = (i.wrapping_mul(2_654_435_761)) as u32;
    let addr = ((base | 0x0100_0000) & 0x7fff_ffff) & (u32::MAX << (32 - len as u32));
    Prefix::v4(Ipv4Addr::from(addr), len).expect("synthetic prefix valid")
}

/// Deterministically synthesize the `i`-th data-plane FIB prefix: like
/// [`synth_prefix`] but spanning /16–/28, so a compiled DIR-24-8 FIB also
/// exercises its longer-than-/24 overflow chunks, not just the base table.
pub fn synth_fib_prefix(i: u64) -> Prefix {
    let len = 16 + (i % 13) as u8; // 16..=28
    let base = (i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 16) as u32;
    let addr = ((base | 0x0100_0000) & 0x7fff_ffff) & (u32::MAX << (32 - len as u32));
    Prefix::v4(Ipv4Addr::from(addr), len).expect("synthetic prefix valid")
}

/// SplitMix64 step — the deterministic address stream generator the
/// data-plane benchmark and tests draw probe addresses from.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Distinct attribute sets in the synthetic workload. Real tables share
/// attribute data heavily — an IXP feed of hundreds of thousands of
/// prefixes draws from only tens of thousands of distinct AS paths — and
/// the hash-consed attribute store exploits exactly that redundancy.
pub const ATTR_POOL: u64 = 4_096;

/// Synthesize attributes for the `i`-th route: realistic AS-path lengths
/// (2–6 hops), occasional communities, and table-like redundancy (the
/// `i`-th route draws its path from a pool of [`ATTR_POOL`] variants).
pub fn synth_attrs(i: u64, next_hop: Ipv4Addr) -> PathAttributes {
    let v = i % ATTR_POOL;
    let path_len = 2 + (v % 5) as usize;
    let asns: Vec<Asn> = (0..path_len)
        .map(|k| Asn(1_000 + ((v.wrapping_mul(31).wrapping_add(k as u64 * 7)) % 60_000) as u32))
        .collect();
    let mut attrs = PathAttributes {
        as_path: AsPath::from_asns(&asns),
        next_hop: Some(next_hop.into()),
        ..Default::default()
    };
    if v.is_multiple_of(4) {
        attrs
            .communities
            .push(peering_bgp::types::Community::new(3356, (v % 1000) as u16));
    }
    attrs
}

/// A synthetic route for direct RIB insertion.
pub fn synth_route(i: u64, peer: PeerId) -> Route {
    Route {
        prefix: synth_prefix(i),
        path_id: 0,
        attrs: synth_attrs(i, Ipv4Addr::new(10, 0, 0, 1)).into(),
        source: RouteSource::Peer {
            peer,
            ebgp: true,
            router_id: RouterId(peer.0 + 1),
            addr: Ipv4Addr::new(10, 0, 0, 1).into(),
        },
        stamp: i,
    }
}

/// An UPDATE announcing the `i`-th synthetic route.
pub fn synth_update(i: u64) -> UpdateMsg {
    UpdateMsg::announce(
        vec![(synth_prefix(i), None)],
        synth_attrs(i, Ipv4Addr::new(10, 0, 0, 1)),
    )
}

/// Two speakers joined by an in-memory wire, pumped to Established —
/// the minimal "router + neighbor" pair the update-processing benchmarks
/// feed.
pub struct SpeakerPair {
    /// The device under test ("the vBGP router").
    pub dut: Speaker,
    /// Load generators / attached experiments, one per DUT session.
    pub feeders: Vec<Speaker>,
    /// Session id on the DUT for the feeding neighbor.
    pub dut_peer: PeerId,
    /// Session id on each feeder.
    pub feeder_peer: PeerId,
}

impl SpeakerPair {
    /// Build and establish the DUT with a feeding neighbor (`dut_import`
    /// is the filter configuration under test) plus any number of extra
    /// peers (`dut_export_peers`) — each backed by its own remote speaker
    /// so the session actually reaches Established and its export policy
    /// really runs on every route change.
    pub fn establish(dut_import: Policy, dut_export_peers: Vec<PeerConfig>) -> Self {
        let mut dut = Speaker::new(SpeakerConfig {
            asn: Asn(47065),
            router_id: RouterId(1),
        });
        let mut feeders: Vec<Speaker> = Vec::new();

        // Session 0: the feeding neighbor.
        dut.add_peer(
            PeerId(0),
            PeerConfig::ebgp(
                Asn(100),
                "10.0.0.1".parse().unwrap(),
                "10.0.0.2".parse().unwrap(),
            )
            .with_import(dut_import),
        );
        let mut f0 = Speaker::new(SpeakerConfig {
            asn: Asn(100),
            router_id: RouterId(100),
        });
        f0.add_peer(
            PeerId(0),
            PeerConfig::ebgp(
                Asn(47065),
                "10.0.0.2".parse().unwrap(),
                "10.0.0.1".parse().unwrap(),
            )
            .with_passive(),
        );
        feeders.push(f0);

        // Extra sessions: one remote per export peer, mirroring ADD-PATH.
        for (idx, cfg) in dut_export_peers.into_iter().enumerate() {
            let remote_asn = cfg.remote_asn;
            let add_path = cfg.add_path;
            let remote_addr = cfg.remote_addr;
            let local_addr = cfg.local_addr;
            dut.add_peer(PeerId(1 + idx as u32), cfg);
            let mut f = Speaker::new(SpeakerConfig {
                asn: remote_asn,
                router_id: RouterId(200 + idx as u32),
            });
            let mut fcfg = PeerConfig::ebgp(Asn(47065), local_addr, remote_addr).with_passive();
            if add_path {
                fcfg = fcfg.with_add_path();
            }
            f.add_peer(PeerId(0), fcfg);
            feeders.push(f);
        }

        // Pump every session to Established.
        let n = feeders.len();
        let mut to_feeder: Vec<Vec<Vec<u8>>> = vec![Vec::new(); n];
        let mut to_dut: Vec<(u32, Vec<u8>)> = Vec::new();
        fn route_out(
            out: SpeakerOutput,
            from_dut: bool,
            feeder_idx: u32,
            to_feeder: &mut [Vec<Vec<u8>>],
            to_dut: &mut Vec<(u32, Vec<u8>)>,
        ) -> Vec<u32> {
            let mut opened = Vec::new();
            for ev in &out.events {
                if let peering_bgp::speaker::SpeakerEvent::TransportOpen(p) = ev {
                    opened.push(p.0);
                }
            }
            for (pid, bytes) in out.send {
                if from_dut {
                    to_feeder[pid.0 as usize].push(bytes);
                } else {
                    to_dut.push((feeder_idx, bytes));
                }
            }
            opened
        }
        for (i, f) in feeders.iter_mut().enumerate() {
            let out = f.start_peer(PeerId(0));
            route_out(out, false, i as u32, &mut to_feeder, &mut to_dut);
        }
        for i in 0..n as u32 {
            let out = dut.start_peer(PeerId(i));
            let opened = route_out(out, true, 0, &mut to_feeder, &mut to_dut);
            for p in opened {
                let out = dut.on_transport_up(PeerId(p));
                route_out(out, true, 0, &mut to_feeder, &mut to_dut);
                let out = feeders[p as usize].on_transport_up(PeerId(0));
                route_out(out, false, p, &mut to_feeder, &mut to_dut);
            }
        }
        for _ in 0..40 {
            if to_dut.is_empty() && to_feeder.iter().all(Vec::is_empty) {
                break;
            }
            for (i, batch) in to_feeder
                .iter_mut()
                .map(std::mem::take)
                .enumerate()
                .collect::<Vec<_>>()
            {
                for bytes in batch {
                    let out = feeders[i].on_bytes(PeerId(0), &bytes);
                    route_out(out, false, i as u32, &mut to_feeder, &mut to_dut);
                }
            }
            for (i, bytes) in std::mem::take(&mut to_dut) {
                let out = dut.on_bytes(PeerId(i), &bytes);
                route_out(out, true, 0, &mut to_feeder, &mut to_dut);
            }
        }
        for i in 0..n as u32 {
            assert!(
                dut.is_established(PeerId(i)),
                "bench pair session {i} failed to establish"
            );
        }
        SpeakerPair {
            dut,
            feeders,
            dut_peer: PeerId(0),
            feeder_peer: PeerId(0),
        }
    }

    /// Feed one pre-encoded update into the DUT, discarding outputs (the
    /// wire side is not under test).
    pub fn feed(&mut self, wire: &[u8]) {
        let out = self.dut.on_bytes(self.dut_peer, wire);
        std::hint::black_box(out);
    }

    /// Pre-encode `n` synthetic updates with the session codec.
    pub fn encoded_updates(&self, n: u64) -> Vec<Vec<u8>> {
        let ctx = self.dut.codec_ctx(self.dut_peer);
        (0..n)
            .map(|i| peering_bgp::message::Message::Update(synth_update(i)).encode(&ctx))
            .collect()
    }
}

/// The three Fig. 6b filter configurations.
pub mod fig6b_configs {
    use super::*;
    use peering_vbgp::policies;

    pub fn experiment_peers() -> Vec<PeerConfig> {
        (0..3)
            .map(|i| {
                PeerConfig::ebgp(
                    Asn(61574 + i),
                    format!("100.125.{}.2", i + 1).parse().unwrap(),
                    format!("100.125.{}.1", i + 1).parse().unwrap(),
                )
                .with_all_paths()
                .with_next_hop_unchanged()
                .with_export(policies::experiment_export(47065))
            })
            .collect()
    }

    /// "Accept": no filtering at all — the CPU lower bound.
    pub fn accept() -> SpeakerPair {
        SpeakerPair::establish(Policy::accept_all(), Vec::new())
    }

    /// "Single-router vBGP": the per-neighbor import rewrite plus the
    /// experiment-facing ADD-PATH export fan-out (3 attached experiments).
    pub fn single_router() -> SpeakerPair {
        let import = policies::neighbor_import(47065, "127.65.0.1".parse().unwrap());
        SpeakerPair::establish(import, experiment_peers())
    }

    /// "Multi-router vBGP": the backbone-mesh configuration — the import
    /// policy additionally maps hundreds of global-pool next hops into the
    /// local pool (§4.4's "more complex handling of BGP next hops").
    pub fn multi_router() -> SpeakerPair {
        let mappings: Vec<(Ipv4Addr, Ipv4Addr)> = (1..=400u16)
            .map(|i| {
                (
                    Ipv4Addr::new(127, 127, (i >> 8) as u8, i as u8),
                    Ipv4Addr::new(127, 65, (i >> 8) as u8, i as u8),
                )
            })
            .collect();
        let mut import = policies::backbone_import(&mappings);
        import.rules.pop(); // drop its terminal accept…
        import
            .rules
            .extend(policies::neighbor_import(47065, "127.65.1.1".parse().unwrap()).rules);
        SpeakerPair::establish(import, experiment_peers())
    }
}

/// Fig. 6a accounting: bytes used by the three table configurations at a
/// given route count.
pub struct MemoryPoint {
    /// Routes loaded.
    pub routes: u64,
    /// Unique (prefix, path) entries after dedup.
    pub unique: usize,
    /// Control-plane only: one global RIB.
    pub control_plane: usize,
    /// Plus the per-interconnection data plane: one FIB entry per known
    /// route in per-neighbor tables.
    pub per_interconnection: usize,
    /// Plus a synchronized default/best-path kernel table.
    pub with_default: usize,
}

/// Approximate per-FIB-entry bytes (trie node + next-hop record — what a
/// kernel route entry costs in the paper's deployment).
pub const FIB_ENTRY_BYTES: usize = 96;

/// Load `n` synthetic routes into a speaker RIB (direct insertion — the
/// wire path is benchmarked separately) and account memory per Fig. 6a.
pub fn memory_sweep(points: &[u64], interconnections: u32) -> Vec<MemoryPoint> {
    use peering_bgp::rib::{route_memory_bytes, AdjRibIn};
    let mut out = Vec::new();
    for &n in points {
        let mut adj = AdjRibIn::new();
        let mut rib_bytes = 0usize;
        for i in 0..n {
            let route = synth_route(i, PeerId(i as u32 % interconnections));
            rib_bytes += route_memory_bytes(&route);
            adj.insert(route);
        }
        let unique = adj.path_count;
        let control_plane = rib_bytes;
        let per_interconnection = control_plane + unique * FIB_ENTRY_BYTES;
        let with_default = per_interconnection + unique * FIB_ENTRY_BYTES;
        out.push(MemoryPoint {
            routes: n,
            unique,
            control_plane,
            per_interconnection,
            with_default,
        });
    }
    out
}

/// Fig. 6a companion (PR 1): load `n` synthetic routes through a real
/// established session and return `(naive_bytes, interned_bytes)` — the
/// RIB footprint under per-route-owned attributes vs the hash-consed
/// attribute store actually in use.
pub fn interned_memory(n: u64) -> (usize, usize) {
    let mut pair = fig6b_configs::accept();
    let updates = pair.encoded_updates(n);
    for u in &updates {
        pair.feed(u);
    }
    (
        pair.dut.naive_rib_memory_bytes(),
        pair.dut.rib_memory_bytes(),
    )
}

/// Fig. 6b companion (PR 1): mean UPDATE messages emitted toward the
/// attached experiment sessions per churn round. Each round delivers one
/// burst re-announcing `burst` prefixes twice with changing attributes
/// (flap-like churn drawing final paths from a small pool); `batching`
/// selects per-delta emission (the pre-batching speaker) or the coalesced
/// per-round flush.
pub fn churn_fanout(batching: bool, rounds: u64, burst: u64) -> f64 {
    use peering_bgp::message::Message;
    let mut pair = SpeakerPair::establish(Policy::accept_all(), fig6b_configs::experiment_peers());
    let _ = pair.dut.set_batching(batching);
    let ctx = pair.dut.codec_ctx(pair.dut_peer);
    let exp_peers: Vec<PeerId> = (1..=3).map(PeerId).collect();
    let before: u64 = exp_peers
        .iter()
        .map(|&p| pair.dut.peer_stats(p).unwrap().updates_out)
        .sum();
    for r in 0..rounds {
        let mut wire = Vec::new();
        for i in 0..burst {
            for pass in 0..2u64 {
                let attrs = synth_attrs(
                    (i % 16).wrapping_add((r * 2 + pass).wrapping_mul(7_919)),
                    Ipv4Addr::new(10, 0, 0, 1),
                );
                let update = UpdateMsg::announce(vec![(synth_prefix(i), None)], attrs);
                wire.extend(Message::Update(update).encode(&ctx));
            }
        }
        pair.feed(&wire);
    }
    let after: u64 = exp_peers
        .iter()
        .map(|&p| pair.dut.peer_stats(p).unwrap().updates_out)
        .sum();
    (after - before) as f64 / rounds as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_prefixes_are_valid_and_diverse() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000 {
            seen.insert(synth_prefix(i));
        }
        assert!(seen.len() > 9_000, "low prefix diversity: {}", seen.len());
    }

    #[test]
    fn pair_establishes_and_processes_updates() {
        let mut pair = fig6b_configs::accept();
        let updates = pair.encoded_updates(100);
        for u in &updates {
            pair.feed(u);
        }
        assert!(pair.dut.total_adj_in_paths() > 90);
    }

    #[test]
    fn single_router_config_rewrites_next_hops() {
        let mut pair = fig6b_configs::single_router();
        let updates = pair.encoded_updates(10);
        for u in &updates {
            pair.feed(u);
        }
        let (_, candidates) = pair.dut.loc_rib().iter().next().unwrap();
        assert_eq!(
            candidates[0].attrs.next_hop,
            Some("127.65.0.1".parse().unwrap())
        );
    }

    #[test]
    fn multi_router_config_processes_updates() {
        let mut pair = fig6b_configs::multi_router();
        let updates = pair.encoded_updates(50);
        for u in &updates {
            pair.feed(u);
        }
        assert!(pair.dut.total_adj_in_paths() > 40);
    }

    #[test]
    fn interning_reduces_rib_memory() {
        let (naive, interned) = interned_memory(20_000);
        assert!(
            (interned as f64) <= naive as f64 * 0.7,
            "expected ≥30% reduction: naive {naive} vs interned {interned}"
        );
    }

    #[test]
    fn batching_reduces_churn_fanout() {
        let per_delta = churn_fanout(false, 4, 64);
        let coalesced = churn_fanout(true, 4, 64);
        assert!(
            coalesced < per_delta,
            "coalesced {coalesced} must be strictly below per-delta {per_delta}"
        );
    }

    #[test]
    fn memory_sweep_is_monotonic_and_ordered() {
        let points = memory_sweep(&[1_000, 10_000], 8);
        assert!(points[1].control_plane > points[0].control_plane);
        for p in &points {
            assert!(p.control_plane < p.per_interconnection);
            assert!(p.per_interconnection < p.with_default);
        }
        // Bytes/route in the paper's order of magnitude (they measure 327).
        let bpr = points[1].control_plane as f64 / points[1].routes as f64;
        assert!((100.0..2_000.0).contains(&bpr), "bytes/route = {bpr}");
    }
}
