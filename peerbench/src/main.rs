//! The platform benchmark: three workloads, each run in its own process
//! from a seed, each stressing a different layer stack.
//!
//! ```text
//! peerbench --workload <serve-attack|dfz-churn|scale-chaos> --seed <n> --seconds <s> --trace <0|1>
//!           [--size full|tiny] [--wrong-expectation]
//! ```
//!
//! A run repeats set-up plus measured phase until `--seconds` have
//! passed and reports medians over the timed repetitions. Measured
//! times are reported at a reference host speed (`calib`), with the
//! wall-clock figures beside them as `detail` lines. The first
//! repetition is a warm-up: it pays the process's first-time heap growth,
//! so it is checked but not timed. With
//! `--trace 1` it then runs one more repetition with spans on and prints
//! the per-layer metrics instead of the end-to-end ones. Every
//! repetition of a run uses the same seed, so their output digests must
//! match exactly. The last line of stdout is the JSON result; the
//! process exits 1 when any correctness or determinism check fails.
//! `README.md` beside this crate defines every metric.

mod calib;
mod chaos;
mod common;
mod dfz;
mod layers;
mod replay;
mod serve;
mod trace;

use std::time::Instant;

use common::{median, proc_status_mb, quantile, Report};
use layers::LayerInputs;
use trace::Tracer;

/// Fewest timed repetitions a run makes, however long they take.
const MIN_REPS: usize = 3;

/// Workload scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Full,
    /// A seconds-long pass through the same code, for the tests.
    Tiny,
}

/// What one repetition gives back.
pub struct Rep {
    /// Wall seconds from the start of the repetition to its first
    /// measured phase.
    pub setup_s: f64,
    /// Wall seconds of every measured phase, calibration excluded: the
    /// base of the tracing overhead and the shard speedup.
    pub measured_s: f64,
    /// The same at the reference host speed.
    pub ref_measured_s: f64,
    /// Operations of the rate metric, and the seconds they took: wall
    /// time and time at the reference host speed.
    pub ops: u64,
    pub ops_s: f64,
    pub ref_ops_s: f64,
    /// Milliseconds per simulated quantum: wall time and time at the
    /// reference host speed.
    pub quanta_ms: Vec<f64>,
    pub ref_quanta_ms: Vec<f64>,
    /// Every calibration kernel sample of the measured phase, in ms.
    pub kernel_ms: Vec<f64>,
    /// Digest of every deterministic output of the repetition.
    pub digest: u64,
    /// Operations of the workload's failure share, and how many failed.
    /// Deterministic: every repetition of a seed gives the same counts.
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool, String)>,
    /// Workload figures under their own names (printed as `detail`).
    pub details: Vec<(String, f64, &'static str)>,
    /// Filled by traced repetitions only.
    pub layers: Option<(Tracer, LayerInputs)>,
}

/// How a workload runs one repetition.
pub struct RepArgs {
    pub seed: u64,
    /// Which of the workload's input variants (`Workload::variants`)
    /// this repetition runs.
    pub variant: usize,
    pub size: Size,
    pub shards: usize,
    pub traced: bool,
    pub wrong_expectation: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    ServeAttack,
    DfzChurn,
    ScaleChaos,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "serve-attack" => Some(Workload::ServeAttack),
            "dfz-churn" => Some(Workload::DfzChurn),
            "scale-chaos" => Some(Workload::ScaleChaos),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeAttack => "serve-attack",
            Workload::DfzChurn => "dfz-churn",
            Workload::ScaleChaos => "scale-chaos",
        }
    }

    /// Shards the traced run also measures the workload on, besides one:
    /// scale-chaos runs on two when the host has the cores. Timed
    /// repetitions always run on one shard: on a shared 2-core host two
    /// shards ran scale-chaos no faster and no steadier (README).
    fn sharded(self) -> Option<usize> {
        match self {
            Workload::ScaleChaos if nproc() > 1 => Some(2),
            _ => None,
        }
    }

    /// Input variants a run cycles its repetitions through, all drawn
    /// from its seed: scale-chaos pools several chaos plans.
    fn variants(self) -> usize {
        match self {
            Workload::ScaleChaos => chaos::PLANS,
            _ => 1,
        }
    }

    fn rep(self, a: &RepArgs) -> Rep {
        match self {
            Workload::ServeAttack => serve::rep(a),
            Workload::DfzChurn => dfz::rep(a),
            Workload::ScaleChaos => chaos::rep(a),
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    wrong_expectation: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut wrong_expectation = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => seconds = Some(value()?.parse::<f64>().map_err(|e| e.to_string())?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    v => return Err(format!("unknown size {v:?}")),
                }
            }
            "--wrong-expectation" => wrong_expectation = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
        wrong_expectation,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(r: &Report) {
    for (name, ok, what) in &r.checks {
        println!("check {name} {} {what}", if *ok { "ok" } else { "FAIL" });
    }
    for (name, v, unit) in &r.details {
        println!("detail {name} {v} {unit}");
    }
    for (name, v, unit) in &r.metrics {
        println!("metric {name} {v} {unit}");
    }
    let record: Vec<String> = r
        .record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("record {{{}}}", record.join(", "));
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("peerbench: {e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let wl = args.workload;
    let variants = wl.variants();
    let rep_args = |variant: usize, shards: usize, traced: bool| RepArgs {
        seed: args.seed,
        variant,
        size: args.size,
        shards,
        traced,
        wrong_expectation: args.wrong_expectation,
    };

    // Untraced repetitions: these give the end-to-end metrics, and the
    // baseline the traced repetition's overhead is taken against. The
    // timed ones (all but the warm-up) cycle through the variants and
    // stop at a whole number of cycles, so each variant weighs the same.
    let mut reps: Vec<Rep> = Vec::new();
    let variant_of = |k: usize| k.saturating_sub(1) % variants;
    while reps.len() < 1 + MIN_REPS.max(variants)
        || started.elapsed().as_secs_f64() < args.seconds
        || (reps.len() - 1) % variants != 0
    {
        let v = variant_of(reps.len());
        let r = wl.rep(&rep_args(v, 1, false));
        println!(
            "rep {}{} variant {v} setup_s {} measured_s {} ops_per_s {} ref_ops_per_s {} kernel_ms {}",
            reps.len(),
            if reps.is_empty() { " (warm-up)" } else { "" },
            r.setup_s,
            r.measured_s,
            r.ops as f64 / r.ops_s,
            r.ops as f64 / r.ref_ops_s,
            median(&r.kernel_ms)
        );
        reps.push(r);
    }
    let timed = &reps[1..];

    let mut report = Report::default();
    // The failure counts are part of what every repetition must repeat.
    let digest_of = |r: &Rep| {
        common::Digest::new()
            .u64(r.digest)
            .u64(r.attempted)
            .u64(r.failed)
            .value()
    };
    let mut digests: Vec<(usize, String, u64)> = reps
        .iter()
        .enumerate()
        .map(|(k, r)| (variant_of(k), "1-shard".to_string(), digest_of(r)))
        .collect();

    if args.trace {
        // Baseline: the timed repetitions of variant 0, which the traced
        // and the sharded repetitions run.
        // Reference times, so that the host's speed swings between the
        // repetitions do not read as overhead or speedup.
        let measured_median = median(
            &timed
                .iter()
                .step_by(variants)
                .map(|r| r.ref_measured_s)
                .collect::<Vec<_>>(),
        );
        // A shardable workload also runs once, untraced, on more shards:
        // the denominator of the shard speedup, and one more digest the
        // one-shard repetitions must match.
        let (shards, speedup) = match wl.sharded() {
            Some(n) => {
                let r = wl.rep(&rep_args(0, n, false));
                digests.push((0, format!("{n}-shard"), digest_of(&r)));
                (n, measured_median / r.ref_measured_s)
            }
            None => (1, 1.0),
        };
        let mut traced = wl.rep(&rep_args(0, 1, true));
        digests.push((0, "1-shard traced".to_string(), digest_of(&traced)));
        let (tr, inputs) = traced
            .layers
            .take()
            .expect("traced repetition fills layers");
        let overhead = traced.ref_measured_s / measured_median - 1.0;
        report.metrics = layers::metrics(&tr, &inputs, overhead, shards, speedup);
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.tsv",
            wl.name(),
            args.seed
        ));
        if let Err(e) = tr.write_tsv(&path) {
            eprintln!("peerbench: cannot write {}: {e}", path.display());
        }
        report.record("spans", path.display());
        report.checks.extend(
            traced
                .checks
                .iter()
                .map(|(name, ok, what)| (format!("traced.{name}"), *ok, what.clone())),
        );
    } else {
        let setup: Vec<f64> = timed.iter().map(|r| r.setup_s).collect();
        let pool = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
            timed.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let (quanta, ref_quanta) = (pool(|r| &r.quanta_ms), pool(|r| &r.ref_quanta_ms));
        // Rate: each variant's operations over the median time they
        // took, summed over the variants (one variant: the median rate).
        let rate = |secs: fn(&Rep) -> f64| -> f64 {
            let (mut ops, mut s) = (0.0, 0.0);
            for v in 0..variants {
                let of_v: Vec<&Rep> = timed.iter().skip(v).step_by(variants).collect();
                ops += of_v[0].ops as f64;
                s += median(&of_v.iter().map(|r| secs(r)).collect::<Vec<_>>());
            }
            ops / s
        };
        report.metric("setup_s", median(&setup), "s");
        report.metric("ref_ops_per_s", rate(|r| r.ref_ops_s), "1/s");
        report.metric("ref_quantum_p50_ms", quantile(&ref_quanta, 0.5), "ms");
        report.metric("ref_quantum_p90_ms", quantile(&ref_quanta, 0.9), "ms");
        report.metric("peak_rss_mb", proc_status_mb("VmHWM"), "MB");
        // The same figures in wall time, and the host speed they were
        // rescaled from.
        report.detail("ops_per_s", rate(|r| r.ops_s), "1/s");
        report.detail("quantum_p50_ms", quantile(&quanta, 0.5), "ms");
        report.detail("quantum_p90_ms", quantile(&quanta, 0.9), "ms");
        report.detail("kernel_ms", median(&pool(|r| &r.kernel_ms)), "ms");
        // Workload figures: medians over the repetitions.
        for (k, (name, _, unit)) in timed[0].details.iter().enumerate() {
            let v: Vec<f64> = timed.iter().map(|r| r.details[k].1).collect();
            report.detail(name, median(&v), unit);
        }
        report.detail("quanta", quanta.len() as f64, "count");
    }

    // Counts of one repetition per variant (the first cycle of timed
    // ones): the determinism check holds every repetition of a variant
    // to the same counts, so the result depends on the seed alone and
    // not on how many repetitions fitted in the run.
    for r in &reps[1..=variants] {
        report.attempted += r.attempted;
        report.failed += r.failed;
    }
    // Each check must hold in every repetition; report it once.
    for (k, (name, _, _)) in reps[0].checks.iter().enumerate() {
        let failing = reps.iter().find(|r| !r.checks[k].1);
        let (ok, what) = match failing {
            Some(r) => (false, r.checks[k].2.clone()),
            None => (true, reps[0].checks[k].2.clone()),
        };
        report.check(name, ok, what);
    }
    // Every repetition must give the digest of the first one of its
    // variant.
    let bases: Vec<u64> = (0..variants)
        .map(|v| digests.iter().find(|d| d.0 == v).expect("a repetition per variant").2)
        .collect();
    let diverged: Vec<String> = digests
        .iter()
        .filter(|(v, _, d)| *d != bases[*v])
        .map(|(v, l, _)| format!("{l} (variant {v})"))
        .collect();
    let shown: Vec<String> = bases.iter().map(|b| format!("{b:016x}")).collect();
    report.check(
        "determinism",
        diverged.is_empty(),
        format!(
            "{} repetitions of seed {} give digest {}{}",
            digests.len(),
            args.seed,
            shown.join("/"),
            if diverged.is_empty() {
                String::new()
            } else {
                format!("; diverged: {}", diverged.join(", "))
            }
        ),
    );

    report.record("workload", wl.name());
    report.record("seed", args.seed);
    report.record("trace", u8::from(args.trace));
    report.record("size", format!("{:?}", args.size).to_lowercase());
    report.record("reps", reps.len());
    report.record("nproc", nproc());
    report.record(
        "rustc",
        std::env::var("PEERBENCH_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
    );
    report.record(
        "rev",
        std::env::var("PEERBENCH_REV").unwrap_or_else(|_| "unknown".to_string()),
    );
    report.record("digest", shown.join("/"));
    report.record("variants", variants);
    report.record("wall_s", started.elapsed().as_secs_f64());
    print_report(&report);
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use peering_bgp::message::decode_nlri;
    use peering_bgp::types::Afi;

    /// Known defect (README): NLRI that ends right after an ADD-PATH path
    /// id makes the decoder index past the buffer instead of returning an
    /// error. scale-chaos frame corruption can produce exactly this; when
    /// this test starts failing, the decoder is fixed.
    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn decode_nlri_panics_on_a_trailing_path_id() {
        let _ = decode_nlri(&[0, 0, 0, 1], Afi::Ipv4, true);
    }
}
