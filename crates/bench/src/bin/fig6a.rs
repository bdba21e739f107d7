//! Regenerates **Figure 6a**: routing-table memory as a function of the
//! number of known routes, for the three configurations the paper plots —
//! control plane only, per-interconnection data plane, and
//! per-interconnection data plane with a synchronized default table.
//!
//! The paper measures BIRD at ~327 B/route and shows all three lines
//! growing linearly, with the data-plane lines offset above the
//! control-plane line. Absolute bytes differ (different implementation
//! language and structures); the linearity, ordering and order of
//! magnitude are the reproduced shape.
//!
//! Run with: `cargo run --release --bin fig6a [max_routes]`

#![forbid(unsafe_code)]

use peering_bench::memory_sweep;

fn main() {
    let max: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000_000);
    let points: Vec<u64> = (0..=8).map(|i| i * max / 8).collect();
    // AMS-IX scale: routes arrive over ~240 interconnections (§6).
    let sweep = memory_sweep(&points, 240);

    println!("# Figure 6a — memory vs known routes");
    println!("# paper: BIRD ≈327 B/route, linear; data-plane lines offset above control plane");
    println!(
        "{:>12} {:>16} {:>26} {:>22}",
        "routes", "control-plane(MB)", "per-interconnection(MB)", "with-default(MB)"
    );
    let mb = |b: usize| b as f64 / 1e6;
    for p in &sweep {
        println!(
            "{:>12} {:>16.1} {:>26.1} {:>22.1}",
            p.routes,
            mb(p.control_plane),
            mb(p.per_interconnection),
            mb(p.with_default)
        );
    }
    if let Some(last) = sweep.last() {
        if last.routes > 0 {
            println!(
                "\nbytes/route (control plane): {:.0}   (paper: ≈327)",
                last.control_plane as f64 / last.routes as f64
            );
            println!(
                "routes per 32 GiB server:    {:.0} million   (paper: ≈100 million)",
                32.0 * 1024.0 * 1024.0 * 1024.0
                    / (last.control_plane as f64 / last.routes as f64)
                    / 1e6
            );
        }
    }

    // RIB memory model: hash-consed path attributes vs per-route-owned
    // attributes, measured over a real established session.
    let n = max.min(500_000);
    let (naive, interned) = peering_bench::interned_memory(n);
    let saving = if naive > 0 {
        100.0 * (1.0 - interned as f64 / naive as f64)
    } else {
        0.0
    };
    println!("\n# attribute interning at {n} routes (one session, live RIB)");
    println!(
        "  baseline (per-route-owned attrs): {:>10.1} MB",
        naive as f64 / 1e6
    );
    println!(
        "  optimized (hash-consed store):    {:>10.1} MB",
        interned as f64 / 1e6
    );
    println!("  reduction: {saving:.1}%  (acceptance bar: ≥30%)");
}
