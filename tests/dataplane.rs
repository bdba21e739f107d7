//! Differential tests for the compiled data-plane fast path (ISSUE PR 3).
//!
//! The [`FlatFib`] is only correct if it is *indistinguishable* from the
//! binary trie it was compiled from, at every point of a churning
//! lifetime: after the initial build, after incremental patches, after
//! threshold-triggered full rebuilds, and with chunk spill/reclaim on the
//! IPv4 /25–/32 path. These tests drive seeded random install/remove
//! churn through both structures and compare longest-prefix-match answers
//! on random probe addresses after every sync (IPv4 only: the data plane,
//! and so the FIB, holds no IPv6). A second battery drives the same kind
//! of churn through a whole [`VbgpMux`] and checks the fast path (FIB +
//! flow cache, single and batched) against the slow trie-walking path.

use std::net::Ipv4Addr;

use peering_repro::bgp::flatfib::{FlatFib, CHURN_REBUILD_THRESHOLD};
use peering_repro::bgp::trie::PrefixTrie;
use peering_repro::bgp::types::Prefix;
use peering_repro::netsim::{MacAddr, PortId};
use peering_repro::vbgp::{NeighborId, VbgpMux};

/// SplitMix64 — deterministic churn and probe generator.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A random IPv4 prefix, biased toward short-to-host lengths so both
    /// the DIR-24-8 base table and the overflow chunks get exercised, with
    /// addresses drawn from a narrow pool so prefixes nest and collide.
    fn v4_prefix(&mut self) -> Prefix {
        let len = 8 + (self.next() % 25) as u8; // 8..=32
        let addr = 0x0a00_0000 | (self.next() as u32 & 0x000f_ffff);
        let masked = if len == 0 {
            0
        } else {
            addr & (u32::MAX << (32 - u32::from(len)))
        };
        Prefix::v4(Ipv4Addr::from(masked), len).unwrap()
    }

    /// A probe address near the churn pool (so most probes are covered).
    fn v4_addr(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(0x0a00_0000 | (self.next() as u32 & 0x001f_ffff))
    }
}

fn assert_fib_matches(trie: &PrefixTrie<u32>, fib: &FlatFib, addr: Ipv4Addr, ctx: &str) {
    let want = trie.lookup(addr.into()).map(|(p, v)| (p, *v));
    assert_eq!(fib.lookup(addr), want, "{ctx}: diverged on {addr}");
    assert_eq!(
        fib.covers(addr),
        want.is_some(),
        "{ctx}: covers() on {addr}"
    );
}

/// The core differential property: under random install/remove churn with
/// syncs at random points, the compiled FIB answers every lookup exactly
/// like the trie — incremental-patch and rebuild paths.
#[test]
fn flat_fib_matches_trie_under_random_churn() {
    for seed in 0..4u64 {
        let mut g = Gen(seed);
        let mut trie: PrefixTrie<u32> = PrefixTrie::new();
        let mut fib = FlatFib::new();
        let mut live: Vec<Prefix> = Vec::new();
        for round in 0..100 {
            // A burst of operations between syncs; size straddles the
            // rebuild threshold so both patch and rebuild paths run.
            let burst = 1 + (g.next() as usize % (CHURN_REBUILD_THRESHOLD + 8));
            for _ in 0..burst {
                let p = g.v4_prefix();
                let remove = !live.is_empty() && g.next().is_multiple_of(3);
                if remove {
                    let victim = live.swap_remove(g.next() as usize % live.len());
                    trie.remove(&victim);
                    fib.mark_dirty(&victim);
                } else {
                    trie.insert(p, g.next() as u32);
                    fib.mark_dirty(&p);
                    if !live.contains(&p) {
                        live.push(p);
                    }
                }
            }
            fib.sync(&trie);
            let ctx = format!("seed {seed} round {round}");
            for _ in 0..64 {
                assert_fib_matches(&trie, &fib, g.v4_addr(), &ctx);
            }
            // Default routes and address-space boundaries are the classic
            // flat-FIB off-by-ones; probe them every round.
            assert_fib_matches(&trie, &fib, Ipv4Addr::new(0, 0, 0, 0), &ctx);
            assert_fib_matches(&trie, &fib, Ipv4Addr::new(255, 255, 255, 255), &ctx);
        }
    }
}

/// A sync with no marked changes must not bump the generation (flow caches
/// key validity on it), and a sync after changes must.
#[test]
fn generation_bumps_exactly_on_change() {
    let mut g = Gen(7);
    let mut trie: PrefixTrie<u32> = PrefixTrie::new();
    let mut fib = FlatFib::new();
    let p = g.v4_prefix();
    trie.insert(p, 1);
    fib.mark_dirty(&p);
    assert!(fib.sync(&trie));
    let gen1 = fib.generation();
    assert!(!fib.sync(&trie));
    assert_eq!(fib.generation(), gen1);
    trie.remove(&p);
    fib.mark_dirty(&p);
    assert!(fib.sync(&trie));
    assert!(fib.generation() > gen1);
}

/// Drive churn through a whole mux and check the fast path (compiled FIB +
/// flow cache) against the slow path, single and batched, on the same
/// probe streams. The flow cache is deliberately re-probed across churn
/// rounds so stale-entry invalidation is what's under test.
#[test]
fn mux_fast_path_matches_slow_path_under_churn() {
    const NBR: NeighborId = NeighborId(9);
    let mut g = Gen(0x5eed);
    let mut mux = VbgpMux::new();
    mux.add_local_neighbor(NBR, PortId(1), MacAddr([2, 0, 0, 0, 0, 9]), None);
    let mut live: Vec<Prefix> = Vec::new();
    let mut batch_out = Vec::new();
    for round in 0..60 {
        for _ in 0..(1 + g.next() as usize % 40) {
            let p = g.v4_prefix();
            if !live.is_empty() && g.next().is_multiple_of(3) {
                let victim = live.swap_remove(g.next() as usize % live.len());
                mux.remove_route(NBR, victim);
            } else {
                mux.install_route(NBR, p);
                live.push(p);
            }
        }
        let probes: Vec<Ipv4Addr> = (0..128).map(|_| g.v4_addr()).collect();
        // Slow path answers first (they never consult compiled state)...
        mux.set_fast_path(false);
        let want: Vec<bool> = probes
            .iter()
            .map(|&ip| mux.egress_via_neighbor(NBR, ip).is_some())
            .collect();
        // ...then the fast path must agree, singly and batched.
        mux.set_fast_path(true);
        for (i, &ip) in probes.iter().enumerate() {
            assert_eq!(
                mux.egress_via_neighbor(NBR, ip).is_some(),
                want[i],
                "round {round}: single fast path diverged on {ip}"
            );
        }
        mux.egress_via_neighbor_batch(NBR, &probes, &mut batch_out);
        for (i, (&ip, got)) in probes.iter().zip(batch_out.iter()).enumerate() {
            assert_eq!(
                got.is_some(),
                want[i],
                "round {round}: batched fast path diverged on {ip}"
            );
        }
        // The oracle's own cross-check must also stay clean mid-churn.
        assert_eq!(mux.verify_fast_path(), Vec::<String>::new());
    }
    assert!(
        mux.stats.flow_cache_hits > 0,
        "churn test never exercised the flow cache"
    );
}

/// The observability layer sees exactly what the data plane did: cache
/// hits and misses, FIB patches vs rebuilds, and flow-cache invalidations
/// all land in the registry snapshot, and the sync/invalidation events
/// land in the journal.
#[test]
fn mux_observability_tracks_the_fast_path() {
    use peering_repro::obs::Obs;
    const NBR: NeighborId = NeighborId(3);
    let mut g = Gen(0x0b5);
    let obs = Obs::new();
    let mut mux = VbgpMux::new();
    mux.set_obs(obs.clone());
    mux.add_local_neighbor(NBR, PortId(1), MacAddr([2, 0, 0, 0, 0, 3]), None);
    for _ in 0..200 {
        let p = g.v4_prefix();
        mux.install_route(NBR, p);
    }
    let probes: Vec<Ipv4Addr> = (0..64).map(|_| g.v4_addr()).collect();
    // First pass compiles the FIB and misses the cold flow cache; the
    // second pass over the same stream hits it.
    for pass in 0..2 {
        for &ip in &probes {
            let _ = mux.egress_via_neighbor(NBR, ip);
        }
        let _ = pass;
    }
    // A post-traffic route change invalidates the flow cache on the next
    // lookup (generation bump), via the incremental patch path.
    let extra = g.v4_prefix();
    mux.install_route(NBR, extra);
    let _ = mux.egress_via_neighbor(NBR, probes[0]);

    mux.publish_obs();
    let snap = obs.snapshot();
    let counter = |name: &str| snap.counter(name).unwrap_or(0);
    assert!(
        counter("mux.flow_cache_misses") > 0,
        "no cache misses counted"
    );
    assert!(counter("mux.flow_cache_hits") > 0, "no cache hits counted");
    assert_eq!(
        counter("mux.fib_rebuilds") + counter("mux.fib_patch_rounds"),
        counter("mux.flow_invalidations"),
        "every FIB sync must invalidate the flow caches exactly once"
    );
    assert!(
        counter("mux.flow_invalidations") >= 2,
        "initial compile + post-churn patch both sync"
    );
    assert_eq!(
        counter("mux.egress_pkts{nbr=3}"),
        2 * probes.len() as u64 + 1,
        "per-neighbor egress packet count"
    );
    assert!(snap.gauge("mux.table_routes{nbr=3}").unwrap_or(0) > 0);
    let tail = obs.journal_tail(16);
    assert!(
        tail.contains("fib-sync"),
        "journal lacks fib-sync events:\n{tail}"
    );
    assert!(
        tail.contains("flow-cache-invalidate"),
        "journal lacks invalidation events:\n{tail}"
    );
    // Snapshots of the same state render identically (the differential
    // artifact the bench bin writes is reproducible).
    assert_eq!(snap.to_text(), obs.snapshot().to_text());
}
