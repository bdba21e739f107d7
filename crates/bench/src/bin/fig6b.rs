//! Regenerates **Figure 6b**: CPU utilization as a function of the BGP
//! update rate, for the three filter configurations the paper plots —
//! *accept* (no filtering), *single-router vBGP* (the per-neighbor rewrite
//! and experiment fan-out filters), and *multi-router vBGP* (the backbone
//! mesh's next-hop mapping filters).
//!
//! Method: measure the per-update processing cost of each configuration by
//! running a batch of synthetic updates through an established session,
//! then convert to CPU% at each update rate (CPU% = rate × cost). The
//! paper's findings to reproduce: linear growth, *accept* cheapest,
//! *multi-router* most expensive, and filters NOT dominating the cost —
//! all three lines staying within a small factor of each other, far below
//! saturation at AMS-IX's observed p99 of ≈400 updates/s.
//!
//! Run with: `cargo run --release --bin fig6b [updates_per_batch]`

#![forbid(unsafe_code)]

use std::time::Instant;

use peering_bench::fig6b_configs;

fn per_update_cost_us(make: impl Fn() -> peering_bench::SpeakerPair, batch: u64) -> f64 {
    // Warm-up pass (allocator, caches), then a measured pass on a fresh
    // pair so tables start empty both times.
    for pass in 0..2 {
        let mut pair = make();
        let updates = pair.encoded_updates(batch);
        let start = Instant::now();
        for u in &updates {
            pair.feed(u);
        }
        let elapsed = start.elapsed();
        if pass == 1 {
            return elapsed.as_secs_f64() * 1e6 / batch as f64;
        }
    }
    unreachable!()
}

fn main() {
    let batch: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(50_000);

    println!("# Figure 6b — CPU utilization vs update rate");
    println!("# measuring per-update processing cost over {batch} updates per configuration…\n");

    let accept = per_update_cost_us(fig6b_configs::accept, batch);
    let single = per_update_cost_us(fig6b_configs::single_router, batch);
    let multi = per_update_cost_us(fig6b_configs::multi_router, batch);

    println!("per-update cost: accept {accept:.2} µs | single-router vBGP {single:.2} µs | multi-router vBGP {multi:.2} µs");

    // Linearity check: the per-update cost must be batch-size independent
    // (otherwise CPU% would not be linear in the update rate).
    let accept_small = per_update_cost_us(fig6b_configs::accept, batch / 4);
    let ratio = accept / accept_small;
    println!(
        "linearity: accept cost at {} vs {} updates: {:.2} µs vs {:.2} µs (ratio {:.2})\n",
        batch,
        batch / 4,
        accept,
        accept_small,
        ratio
    );
    println!(
        "{:>12} {:>12} {:>22} {:>22}",
        "updates/s", "accept(%)", "single-router vBGP(%)", "multi-router vBGP(%)"
    );
    for rate in (0..=8).map(|i| i * 500u64) {
        let cpu = |us: f64| (rate as f64 * us / 1e6) * 100.0;
        println!(
            "{:>12} {:>12.1} {:>22.1} {:>22.1}",
            rate,
            cpu(accept),
            cpu(single),
            cpu(multi)
        );
    }

    println!("\nshape checks (paper's claims):");
    println!(
        "  accept <= single <= multi:            {}",
        accept <= single && single <= multi
    );
    println!(
        "  filters do not dominate (multi < 5x): {} ({:.1}x)",
        multi < accept * 5.0,
        multi / accept
    );
    let sustainable = 1e6 / multi;
    println!(
        "  headroom at AMS-IX p99 (≈400 upd/s):  {:.0} updates/s sustainable ({:.0}x)",
        sustainable,
        sustainable / 400.0
    );
    println!(
        "  linear in rate (cost batch-independent within 2x): {}",
        ratio > 0.5 && ratio < 2.0
    );

    // Update batching: messages emitted toward the 3 attached ADD-PATH
    // experiment sessions per bursty churn round, per-delta vs coalesced.
    let rounds = 20;
    let burst = 256;
    let per_delta = peering_bench::churn_fanout(false, rounds, burst);
    let coalesced = peering_bench::churn_fanout(true, rounds, burst);
    println!("\n# update batching ({rounds} rounds × {burst}-prefix double-write bursts)");
    println!("  baseline (per-delta emission):  {per_delta:>8.1} UPDATEs/round");
    println!("  optimized (coalesced flush):    {coalesced:>8.1} UPDATEs/round");
    println!(
        "  reduction: {:.1}x fewer messages (acceptance bar: strictly fewer)",
        per_delta / coalesced
    );
}
