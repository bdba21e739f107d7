//! Regenerates the **§4.2 footprint and connectivity** numbers: PoPs,
//! transits, per-IXP peer counts, bilateral vs route-server peers, and the
//! PeeringDB peer-type mix.
//!
//! Run with: `cargo run --release --bin footprint`

#![forbid(unsafe_code)]

use peering_platform::topology::{
    intent_footprint, paper_footprint, paper_intent, paper_ixps, PeerType, TopologyParams,
};

fn main() {
    println!("# §4.2 footprint — published numbers vs generated intent\n");

    let published = paper_footprint();
    let intent = paper_intent(&TopologyParams::default());
    let generated = intent_footprint(&intent);

    println!(
        "PoPs:                 {:>5}  (paper: 13 — 4 IXP + 9 university)",
        generated.pops
    );
    println!("  at IXPs:            {:>5}", generated.ixp_pops);
    println!("  at universities:    {:>5}", generated.university_pops);
    println!(
        "transit interconnections: {} (paper: 12)",
        generated.transits
    );
    println!();

    println!("{:>14} {:>12} {:>12}", "IXP", "peers", "bilateral");
    for spec in paper_ixps() {
        println!(
            "{:>14} {:>12} {:>12}",
            spec.name, spec.total_peers, spec.bilateral
        );
    }
    println!(
        "{:>14} {:>12} {:>12}",
        "total", published.total_peers, published.bilateral_peers
    );
    println!(
        "\ngenerated instance: {} peers ({} bilateral, {} via route servers)",
        generated.total_peers, generated.bilateral_peers, generated.route_server_peers
    );

    println!(
        "\npeer classification (paper: 33% transit, 28% access, 23% content, 8% unclassified):"
    );
    let total = generated.total_peers.max(1);
    for (ty, label) in [
        (PeerType::Transit, "transit"),
        (PeerType::AccessIsp, "cable/DSL/ISP"),
        (PeerType::Content, "content"),
        (PeerType::Education, "education/research"),
        (PeerType::Enterprise, "enterprise"),
        (PeerType::NonProfit, "non-profit/RS"),
        (PeerType::Unclassified, "unclassified"),
    ] {
        let count = generated.peer_types.get(&ty).copied().unwrap_or(0);
        println!(
            "  {:<20} {:>5}  ({:>4.1}%)",
            label,
            count,
            100.0 * count as f64 / total as f64
        );
    }

    println!(
        "\nintent JSON size: {} bytes ({} PoPs, {} neighbor entries)",
        intent.to_json().len(),
        intent.pops.len(),
        intent.pops.iter().map(|p| p.neighbors.len()).sum::<usize>(),
    );
}
