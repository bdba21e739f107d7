//! Deterministic chaos harness over the paper topology.
//!
//! One `u64` seed determines everything: the platform build, the attached
//! experiment, the chaos schedule, and every packet-level perturbation.
//! Re-running a seed replays the identical run; a failing seed therefore
//! IS the bug report. The harness shrinks a failing plan by removing
//! incidents one at a time (each removal is a full fresh run) until no
//! single incident can be dropped without the failure disappearing.

use peering_netsim::{ChaosPlan, LinkId, PortId, SimDuration, SimRng};
use peering_obs::Snapshot;
use peering_platform::topology::paper_intent;
use peering_platform::{InternetAs, Peering, Proposal, TopologyParams};
use peering_toolkit::{AnnounceOptions, ExperimentNode};
use peering_vbgp::{HostEvent, VbgpRouter};

use crate::oracle::check_convergence;

/// Decorrelates plan generation from the platform-build seed: the plan is
/// drawn from an independent stream so that replaying a shrunk subset of
/// incidents does not shift any draw the simulation itself makes.
const PLAN_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Knobs for a chaos run.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Window within which incidents may start.
    pub window: SimDuration,
    /// Upper bound on generated incidents per plan.
    pub max_incidents: usize,
    /// Quiet time after the last incident ends. Must cover the worst-case
    /// recovery: a session that loses its last keepalives right as the
    /// chaos window closes only notices at hold-timer expiry (90 s), and a
    /// fully damped ConnectRetry waits up to 240 s + 25% jitter = 300 s on
    /// top of that before reconnecting.
    pub settle: SimDuration,
    /// Inject the deliberate resync bug (skip the Adj-RIB-Out replay when
    /// a session re-establishes) into every router. Exists so the test
    /// suite can prove the oracle actually catches resync divergence.
    pub skip_session_up_replay: bool,
    /// Number of simulator shards to run on (1 = one shard, run inline). The
    /// outcome is bit-identical at any shard count; tests sweep this to
    /// prove it.
    pub shards: usize,
    /// Cap on the adaptive lookahead-window multiplier
    /// ([`peering_netsim::Simulator::set_window_cap`]); `None` keeps the
    /// engine default.
    /// The cap only paces how far a quiet run doubles its windows — any
    /// value ≥ 1 is bit-identical, which the property tests sweep.
    pub window_cap: Option<u64>,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            window: SimDuration::from_secs(120),
            max_incidents: 6,
            settle: SimDuration::from_secs(450),
            skip_session_up_replay: false,
            shards: 1,
            window_cap: None,
        }
    }
}

/// Result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// The seed that drove the run.
    pub seed: u64,
    /// The schedule that was executed.
    pub plan: ChaosPlan,
    /// Oracle violations after quiescence (empty = converged).
    pub problems: Vec<String>,
    /// Session-down events observed by neighbor and experiment nodes over
    /// the whole run. Tells a test whether the chaos actually bit (an
    /// all-converged sweep where nothing ever dropped proves nothing).
    pub sessions_dropped: usize,
    /// Metrics registry snapshot after quiescence, with every layer's
    /// counters freshly published.
    pub snapshot: Snapshot,
    /// Registry lines that changed between the pre-chaos steady state and
    /// quiescence — what the schedule actually exercised.
    pub metric_deltas: Vec<String>,
    /// Rendered tail of the structured event journal (newest last).
    pub journal_tail: String,
    /// Order-sensitive digest of the full event journal at quiescence,
    /// taken before the oracle's own probes run. Two runs with the same
    /// seed must produce the same digest at any shard count.
    pub journal_digest: u64,
}

impl ChaosOutcome {
    /// Did the run converge cleanly?
    pub fn converged(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Build the paper topology, attach one experiment at every PoP, and
/// announce its allocation everywhere — the steady state chaos perturbs.
fn build_platform(seed: u64, opts: &HarnessOptions) -> Peering {
    let mut p = Peering::build(paper_intent(&TopologyParams::tiny()), seed);
    p.set_shards(opts.shards);
    if let Some(cap) = opts.window_cap {
        p.sim.set_window_cap(cap);
    }
    let pops = p.pop_names();
    let mut proposal = Proposal::basic("chaos");
    proposal.pops = pops.clone();
    let mut exp = p.submit(proposal).expect("chaos proposal accepted");
    for pop in &pops {
        exp.toolkit
            .open_tunnel(&mut p.sim, pop)
            .expect("tunnel opens");
        exp.toolkit.start_bgp(&mut p.sim, pop).expect("bgp starts");
    }
    p.run_for(SimDuration::from_secs(15));
    let prefix = exp.lease.v4[0];
    exp.toolkit
        .announce_everywhere(&mut p.sim, prefix, &AnnounceOptions::default())
        .expect("announce");
    p.run_for(SimDuration::from_secs(15));
    if opts.skip_session_up_replay {
        for pop in &pops {
            let router = p.router_node(pop).expect("router exists");
            p.sim
                .node_mut::<VbgpRouter>(router)
                .expect("router node")
                .set_fault_skip_session_up_replay(true);
        }
    }
    p
}

/// Every link touching a vBGP router: fabric links to the PoP switch,
/// backbone links between PoPs, experiment tunnels. These are the chaos
/// targets — faulting any of them stresses a BGP session.
pub fn chaos_targets(p: &Peering) -> Vec<LinkId> {
    let mut links: Vec<LinkId> = Vec::new();
    for pop in p.pop_names() {
        let Some(router) = p.router_node(&pop) else {
            continue;
        };
        for (link, _) in p.sim.links_of(router) {
            if !links.contains(&link) {
                links.push(link);
            }
        }
    }
    links.sort_by_key(|l| l.0);
    links
}

/// The fabric link (router port 0 to the PoP switch) at `pop`. Handy for
/// hand-written incidents that must drop every neighbor session at once.
pub fn fabric_link(p: &Peering, pop: &str) -> Option<LinkId> {
    let router = p.router_node(pop)?;
    p.sim
        .links_of(router)
        .into_iter()
        .find(|(_, ends)| (ends.0 == (router, PortId(0))) || (ends.1 == (router, PortId(0))))
        .map(|(link, _)| link)
}

/// The plan a given seed produces against a built platform's links.
pub fn plan_for_seed(seed: u64, p: &Peering, opts: &HarnessOptions) -> ChaosPlan {
    let targets = chaos_targets(p);
    let mut rng = SimRng::new(seed ^ PLAN_SALT);
    ChaosPlan::generate(&mut rng, &targets, opts.window, opts.max_incidents)
}

fn run_scheduled(
    mut p: Peering,
    seed: u64,
    plan: ChaosPlan,
    opts: &HarnessOptions,
) -> ChaosOutcome {
    let baseline = p.obs_snapshot();
    p.sim.schedule_chaos(&plan);
    p.run_for(plan.end().max(opts.window) + opts.settle);
    // Capture the journal before the oracle runs: its data-plane check
    // force-syncs every FIB, and those syncs would crowd the run's own
    // story (session flaps, resyncs, chaos injections) out of the tail.
    let journal_tail = p.obs().journal_tail(256);
    let journal_digest = p.obs().journal_digest();
    let problems = check_convergence(&mut p);
    let sessions_dropped = count_session_drops(&p);
    let snapshot = p.obs_snapshot();
    let metric_deltas = snapshot.diff(&baseline);
    ChaosOutcome {
        seed,
        plan,
        problems,
        sessions_dropped,
        snapshot,
        metric_deltas,
        journal_tail,
        journal_digest,
    }
}

fn count_session_drops(p: &Peering) -> usize {
    let is_drop = |e: &HostEvent| matches!(e, HostEvent::SessionDown(_, _));
    p.sim
        .node_ids()
        .into_iter()
        .map(|id| {
            if let Some(n) = p.sim.node::<InternetAs>(id) {
                n.events.iter().filter(|e| is_drop(e)).count()
            } else if let Some(e) = p.sim.node::<ExperimentNode>(id) {
                e.events.iter().filter(|ev| is_drop(ev)).count()
            } else {
                0
            }
        })
        .sum()
}

/// One full seeded chaos run: build, generate, disturb, quiesce, check.
pub fn run_chaos_schedule(seed: u64, opts: &HarnessOptions) -> ChaosOutcome {
    let p = build_platform(seed, opts);
    let plan = plan_for_seed(seed, &p, opts);
    run_scheduled(p, seed, plan, opts)
}

/// Re-run `seed` with an explicit plan (the shrinker's building block —
/// also useful to replay a minimal reproducer from a bug report).
pub fn run_plan(seed: u64, plan: &ChaosPlan, opts: &HarnessOptions) -> ChaosOutcome {
    let p = build_platform(seed, opts);
    run_scheduled(p, seed, plan.clone(), opts)
}

/// Shrink a failing plan to a local minimum: repeatedly drop any single
/// incident whose removal keeps the run failing. Every candidate is a
/// complete fresh run of the same seed, so the result is a genuine
/// minimal reproducer, not a guess.
pub fn shrink_failing_plan(seed: u64, plan: &ChaosPlan, opts: &HarnessOptions) -> ChaosPlan {
    let mut plan = plan.clone();
    'outer: loop {
        for i in 0..plan.incidents.len() {
            let candidate = plan.without(i);
            if !run_plan(seed, &candidate, opts).problems.is_empty() {
                plan = candidate;
                continue 'outer;
            }
        }
        return plan;
    }
}
