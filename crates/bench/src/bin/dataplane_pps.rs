//! Data-plane fast-path throughput: compiled flat FIB + flow cache vs the
//! binary-trie baseline, on one neighbor table at full-Internet scale.
//!
//! Builds a [`VbgpMux`] with one local neighbor, installs N synthetic IPv4
//! prefixes (/16–/28, so the DIR-24-8 overflow chunks are exercised), then
//! measures `egress_via_neighbor` lookups per second under three
//! configurations:
//!
//! - `baseline-trie`: fast path disabled — every packet walks the binary
//!   trie (the pre-optimization data plane).
//! - `fastpath-fib`: compiled flat FIB, cache-hostile probe stream (256k
//!   distinct destinations — the flow cache almost never hits, so this
//!   isolates the DIR-24-8 lookup itself).
//! - `fastpath-cached`: same FIB, flow-heavy probe stream (2k distinct
//!   destinations — the direct-mapped flow cache absorbs most lookups).
//! - `fastpath-batch`: batched `egress_via_neighbor_batch` in runs of 64,
//!   cache-hostile stream (amortized table selection + egress resolution).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p peering-bench --bin dataplane_pps            # 900k prefixes
//! cargo run --release -p peering-bench --bin dataplane_pps -- 50000  # smaller table
//! cargo run --release -p peering-bench --bin dataplane_pps -- 900000 --write
//! cargo run --release -p peering-bench --bin dataplane_pps -- 20000 --check
//! ```
//!
//! `--write` records the rows to `docs/results/BENCH_dataplane.json`;
//! `--check` (the CI smoke mode) re-measures on whatever table size was
//! given and fails if the optimized single-lookup throughput regressed
//! more than 5x below the committed number.

#![forbid(unsafe_code)]

use std::net::Ipv4Addr;

use peering_bench::{splitmix, synth_fib_prefix, timing};
use peering_bgp::types::Prefix;
use peering_netsim::{MacAddr, PortId};
use peering_obs::Obs;
use peering_vbgp::{NeighborId, VbgpMux};

const RESULTS: &str = "docs/results/BENCH_dataplane.json";
const OBS_RESULTS: &str = "docs/results/OBS_dataplane.txt";
const NEIGHBOR: NeighborId = NeighborId(1);

/// Draw `count` probe addresses covered by installed prefixes, cycling a
/// pool of `distinct` destinations. A small pool keeps the stream inside
/// the flow cache; a large pool defeats it.
fn probes(prefixes: &[Prefix], distinct: usize, count: usize, seed: u64) -> Vec<Ipv4Addr> {
    let mut state = seed;
    let pool: Vec<Ipv4Addr> = (0..distinct)
        .map(|_| {
            let r = splitmix(&mut state);
            let Prefix::V4 { addr, len } = prefixes[(r as usize) % prefixes.len()] else {
                unreachable!("synthetic prefixes are IPv4");
            };
            let host_bits = 32 - u32::from(len);
            let offset = (splitmix(&mut state) as u32) & (((1u64 << host_bits) - 1) as u32);
            Ipv4Addr::from(u32::from(addr) | offset)
        })
        .collect();
    (0..count)
        .map(|_| pool[(splitmix(&mut state) as usize) % pool.len()])
        .collect()
}

fn build_mux(prefixes: &[Prefix]) -> VbgpMux {
    let mut mux = VbgpMux::new();
    mux.add_local_neighbor(NEIGHBOR, PortId(1), MacAddr([2, 0, 0, 0, 0, 1]), None);
    for p in prefixes {
        mux.install_route(NEIGHBOR, *p);
    }
    mux
}

/// Lookups/sec for a probe stream through `egress_via_neighbor`.
fn measure_single(mux: &mut VbgpMux, probes: &[Ipv4Addr], iters: u32) -> f64 {
    let name = if mux.fast_path() {
        "fastpath"
    } else {
        "baseline"
    };
    let per = timing::bench(name, iters, || {
        let mut hits = 0u64;
        for &ip in probes {
            if mux.egress_via_neighbor(NEIGHBOR, ip).is_some() {
                hits += 1;
            }
        }
        hits
    });
    probes.len() as f64 / per
}

/// Lookups/sec through `egress_via_neighbor_batch` in runs of `batch`.
fn measure_batch(mux: &mut VbgpMux, probes: &[Ipv4Addr], batch: usize, iters: u32) -> f64 {
    let mut out = Vec::with_capacity(batch);
    let per = timing::bench("fastpath-batch", iters, || {
        let mut hits = 0u64;
        for run in probes.chunks(batch) {
            mux.egress_via_neighbor_batch(NEIGHBOR, run, &mut out);
            hits += out.iter().flatten().count() as u64;
        }
        hits
    });
    probes.len() as f64 / per
}

/// Pull `"key": <number>` out of hand-written JSON (the results files are
/// flat enough that a real parser would be overkill, and the platform's
/// json module is integer-only).
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn main() {
    let mut n_prefixes: usize = 900_000;
    let mut write = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--write" => write = true,
            "--check" => check = true,
            other => {
                n_prefixes = other
                    .parse()
                    .unwrap_or_else(|_| panic!("unrecognized argument {other:?}"));
            }
        }
    }

    let prefixes: Vec<Prefix> = (0..n_prefixes as u64).map(synth_fib_prefix).collect();
    let mut mux = build_mux(&prefixes);
    let obs = Obs::new();
    mux.set_obs(obs.clone());
    let table_entries = mux.table_entries(NEIGHBOR).count();
    println!("dataplane_pps: {n_prefixes} installs -> {table_entries} unique prefixes (/16-/28)");

    let hostile = probes(&prefixes, 1 << 18, 1 << 18, 0xda7a);
    let flows = probes(&prefixes, 2_048, 1 << 18, 0xf10e);
    let iters = 5;

    mux.set_fast_path(false);
    let baseline_pps = measure_single(&mut mux, &hostile, iters);
    mux.set_fast_path(true);
    let fib_pps = measure_single(&mut mux, &hostile, iters);
    let cached_pps = measure_single(&mut mux, &flows, iters);
    let batch_pps = measure_batch(&mut mux, &hostile, 64, iters);

    let fib_speedup = fib_pps / baseline_pps;
    let batch_speedup = batch_pps / baseline_pps;
    let cached_speedup = cached_pps / baseline_pps;

    println!();
    println!("config           probe stream     lookups/sec      vs baseline");
    println!("baseline-trie    256k distinct    {baseline_pps:>12.0}    1.00x");
    println!("fastpath-fib     256k distinct    {fib_pps:>12.0}    {fib_speedup:.2}x");
    println!("fastpath-cached  2k distinct      {cached_pps:>12.0}    {cached_speedup:.2}x");
    println!("fastpath-batch   256k dist, x64   {batch_pps:>12.0}    {batch_speedup:.2}x");
    println!("flow cache hits: {}", mux.stats.flow_cache_hits);

    // Mirror the mux counters into the registry and show what the run did
    // to the data plane (cache hit/miss split, FIB patches vs rebuilds).
    mux.publish_obs();
    let snap = obs.snapshot();
    println!();
    println!("registry snapshot ({} series):", snap.len());
    for line in snap.to_text().lines() {
        println!("  {line}");
    }

    if check {
        let committed = std::fs::read_to_string(RESULTS)
            .unwrap_or_else(|e| panic!("--check needs {RESULTS}: {e}"));
        let committed_pps = json_number(&committed, "optimized_fib_pps")
            .unwrap_or_else(|| panic!("{RESULTS} has no optimized_fib_pps"));
        // The smoke table is much smaller than the committed 900k run, so
        // the measured number should be at or above the committed one; a
        // >5x shortfall means the fast path itself regressed.
        let floor = committed_pps / 5.0;
        assert!(
            fib_pps >= floor,
            "fast-path regression: measured {fib_pps:.0} pps < {floor:.0} \
             (committed {committed_pps:.0} / 5)"
        );
        assert!(
            fib_speedup >= 1.0,
            "fast path slower than trie baseline: {fib_speedup:.2}x"
        );
        println!("check OK: {fib_pps:.0} pps >= floor {floor:.0}");
    }

    if write {
        let json = format!(
            r#"{{
  "generated": "2026-08-06",
  "commands": {{
    "regenerate": "cargo run --release -p peering-bench --bin dataplane_pps -- {n_prefixes} --write",
    "ci_smoke": "cargo run --release -p peering-bench --bin dataplane_pps -- 20000 --check"
  }},
  "dataplane_pps": {{
    "description": "egress_via_neighbor lookups/sec on one neighbor table; baseline walks the binary trie per packet, optimized consults the compiled DIR-24-8 FIB with a direct-mapped flow cache in front; batch row amortizes table selection over runs of 64 frames",
    "prefix_installs": {n_prefixes},
    "unique_prefixes": {table_entries},
    "prefix_lengths": "/16-/28",
    "probe_stream": "256k destinations drawn from installed prefixes (cache-hostile); cached row uses 2k destinations",
    "baseline_trie_pps": {baseline_pps:.0},
    "optimized_fib_pps": {fib_pps:.0},
    "optimized_cached_pps": {cached_pps:.0},
    "optimized_batch64_pps": {batch_pps:.0},
    "fib_speedup": {fib_speedup:.2},
    "cached_speedup": {cached_speedup:.2},
    "batch_speedup": {batch_speedup:.2},
    "acceptance_bar": "optimized >= 5x baseline at ~900k IPv4 prefixes",
    "paper_context": {{
      "claim": "the PEERING mux multiplexes the full Internet routing table per neighbor on commodity hardware; forwarding must not walk a per-packet trie at line rate",
      "section": "4.2 data-plane scalability"
    }}
  }}
}}
"#
        );
        std::fs::write(RESULTS, json).expect("write results JSON");
        println!("wrote {RESULTS}");
        std::fs::write(OBS_RESULTS, snap.to_text()).expect("write obs snapshot");
        println!("wrote {OBS_RESULTS}");
    }
}
