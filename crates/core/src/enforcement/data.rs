//! Data-plane enforcement (paper §3.3 "Data plane enforcement", §4.7).
//!
//! The paper loads eBPF programs that inspect each packet between the
//! experiments and the Internet and render stateless or stateful verdicts:
//! allow, transform, or block. This module reproduces that interposition
//! point: per-experiment source validation (anti-spoofing — "an experiment
//! cannot source traffic using address space that is not part of the
//! experiment's allocation"), per-experiment sandboxed packet programs
//! (see [`crate::enforcement::pprog`]), per-experiment and per-PoP
//! token-bucket rate limiting ("Peering shapes traffic at (two) sites with
//! bandwidth constraints"), and per-neighbor limits.
//!
//! Packet programs run after the source-prefix check and before shaping.
//! Their verdicts are cached in a direct-mapped flow cache (same shape as
//! the mux's) keyed off a policy generation, so a flow-invariant program
//! executes once per flow, not once per packet; any policy change bumps the
//! generation and wholesale-invalidates the cache. A malformed program or a
//! fuel-exhausted run fails closed: verdict `Block`, counted in
//! [`DataStats::blocked`], journaled via `peering-obs`.

use std::collections::HashMap;
use std::hash::Hasher;
use std::net::{IpAddr, Ipv4Addr};
use std::sync::{Arc, Mutex};

use peering_bgp::types::Prefix;
use peering_netsim::{SimDuration, SimTime};
use peering_obs::{EventKind, Obs};

use crate::fasthash::FxHasher;
use crate::ids::{ExperimentId, NeighborId, PopId};

use super::control::RateLedger;
use super::pprog::{PacketProgram, PacketView, ProgError, ProgOutcome, Rewrite};

/// Verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataVerdict {
    /// Forward the packet.
    Allow,
    /// Forward the packet with the header rewrite applied (a packet
    /// program's transform verdict, §3.3).
    Transform(Rewrite),
    /// Drop it; the label names the policy that fired (for attribution
    /// logs, §3.3).
    Block(&'static str),
}

impl DataVerdict {
    /// Whether the packet passes (possibly rewritten).
    pub fn is_allow(self) -> bool {
        matches!(self, DataVerdict::Allow | DataVerdict::Transform(_))
    }
}

/// A token bucket (the classic shaper the paper's eBPF programs implement).
#[derive(Debug, Clone)]
pub struct TokenBucket {
    /// Sustained rate in bytes per second.
    pub rate_bytes_per_sec: u64,
    /// Bucket depth in bytes.
    pub burst_bytes: u64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// A bucket starting full.
    pub fn new(rate_bytes_per_sec: u64, burst_bytes: u64) -> Self {
        TokenBucket {
            rate_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes as f64,
            last: SimTime::ZERO,
        }
    }

    /// Tokens available at `now`: the stored level plus refill accrued
    /// since the last charge, capped at the burst depth.
    fn tokens_at(&self, now: SimTime) -> f64 {
        let elapsed = now.saturating_since(self.last);
        (self.tokens + elapsed.as_secs_f64() * self.rate_bytes_per_sec as f64)
            .min(self.burst_bytes as f64)
    }

    /// Try to consume `len` bytes at time `now`.
    pub fn admit(&mut self, len: usize, now: SimTime) -> bool {
        self.tokens = self.tokens_at(now);
        self.last = now;
        if self.tokens >= len as f64 {
            self.tokens -= len as f64;
            true
        } else {
            false
        }
    }

    /// Time until `len` bytes would be admitted, measured from `now` (for
    /// diagnostics). Projects the refill accrued since the last charge
    /// forward before computing the deficit — without that, any idle
    /// period inflates the answer.
    pub fn time_until(&self, len: usize, now: SimTime) -> SimDuration {
        let tokens = self.tokens_at(now);
        if tokens >= len as f64 || self.rate_bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let deficit = len as f64 - tokens;
        SimDuration::from_secs_f64(deficit / self.rate_bytes_per_sec as f64)
    }
}

/// Ingress flood budget: packets per flood window
/// ([`super::control::FLOOD_WINDOW_SECS`]) charged against `(experiment,
/// aggregated source prefix)` buckets in the shared [`RateLedger`]. The
/// per-PoP limit is exact; the AS-wide limit is enforced on each PoP's
/// best knowledge, reconciled by backbone gossip — the same
/// eventual-consistency contract as the update-rate ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodPolicy {
    /// Source aggregation: sources are bucketed by their first
    /// `bucket_len` bits (16 groups a /16's worth of spoof-rotating
    /// sources into one budget).
    pub bucket_len: u8,
    /// Packets one PoP admits per bucket per window.
    pub per_pop_limit: u32,
    /// Optional platform-wide packets per bucket per window.
    pub as_wide_limit: Option<u32>,
}

/// Per-experiment data-plane policy.
#[derive(Debug, Clone, Default)]
pub struct ExperimentDataPolicy {
    /// Source prefixes the experiment may emit from (its allocation).
    pub allowed_sources: Vec<Prefix>,
    /// Optional per-experiment egress shaper (bytes/s, burst).
    pub rate: Option<(u64, u64)>,
    /// Optional sandboxed packet program (§3.3). A program that fails
    /// validation is still installed and blocks every packet (fail
    /// closed).
    pub program: Option<PacketProgram>,
    /// Strict reverse-path validation on ingress: traffic arriving from a
    /// neighbor is dropped unless that neighbor's own table covers the
    /// claimed source. Off by default (the paper's platform does not
    /// police ingress content, §4.7) — serving experiments opt in.
    pub ingress_urpf: bool,
    /// Optional sandboxed packet program run on *ingress* (traffic toward
    /// the experiment), with the same fail-closed semantics as `program`.
    pub ingress_program: Option<PacketProgram>,
    /// Optional ingress flood budget (see [`FloodPolicy`]).
    pub flood: Option<FloodPolicy>,
}

/// Counters for the data-plane pipeline. `evaluated`, `allowed` and
/// `blocked` count egress only ([`DataEnforcer::check_egress_batch`]);
/// ingress has its own `ingress_*` counters.
#[derive(Debug, Clone, Default)]
pub struct DataStats {
    /// Egress packets evaluated.
    pub evaluated: u64,
    /// Egress packets allowed (possibly rewritten).
    pub allowed: u64,
    /// Packet-program executions (cache misses), egress + ingress.
    pub prog_runs: u64,
    /// Packet-program verdicts served from the flow cache, egress +
    /// ingress.
    pub prog_cache_hits: u64,
    /// Egress drops by policy label.
    pub blocked: HashMap<&'static str, u64>,
    /// Ingress packets evaluated by the full pipeline
    /// ([`DataEnforcer::check_ingress_batch`]).
    pub ingress_evaluated: u64,
    /// Ingress packets allowed through to delivery.
    pub ingress_allowed: u64,
    /// Ingress drops by policy label (`urpf`, `flood-budget`, the
    /// program labels, …).
    pub ingress_blocked: HashMap<&'static str, u64>,
}

impl DataStats {
    /// Count `n` egress drops under `label`.
    fn block_egress(&mut self, label: &'static str, n: u64) {
        *self.blocked.entry(label).or_insert(0) += n;
    }

    /// Count `n` ingress drops under `label`.
    fn block_ingress(&mut self, label: &'static str, n: u64) {
        *self.ingress_blocked.entry(label).or_insert(0) += n;
    }
}

/// What a packet program decided for a flow — the unit the verdict cache
/// stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgDecision {
    Pass,
    Rewrite(Rewrite),
    Block(&'static str),
}

/// Install-time digest of an experiment's program.
#[derive(Debug, Clone)]
struct ProgEntry {
    program: PacketProgram,
    /// Validation result at install time; an invalid entry blocks every
    /// packet (fail closed), it is never skipped.
    valid: bool,
    /// Whether per-flow verdict caching is sound for this program.
    flow_invariant: bool,
}

/// One verdict-cache slot: `(experiment, flow key, generation, decision)`;
/// generation 0 means the slot was never written.
type VerdictSlot = (u32, (u64, u64, u64), u64, ProgDecision);

/// Direct-mapped program-verdict cache, the same shape as the mux's flow
/// cache: no chaining, no eviction policy, a generation stamp instead of
/// invalidation walks. Slots whose generation is stale are simply misses,
/// so a policy change invalidates wholesale by bumping the generation.
struct VerdictCache {
    slots: Box<[VerdictSlot]>,
}

const VERDICT_CACHE_SLOTS: usize = 4096;

impl VerdictCache {
    fn new() -> Self {
        VerdictCache {
            slots: vec![(0, (0, 0, 0), 0, ProgDecision::Pass); VERDICT_CACHE_SLOTS]
                .into_boxed_slice(),
        }
    }

    fn index(exp: u32, key: (u64, u64, u64)) -> usize {
        let mut h = FxHasher::default();
        h.write_u32(exp);
        h.write_u64(key.0);
        h.write_u64(key.1);
        h.write_u64(key.2);
        h.finish() as usize & (VERDICT_CACHE_SLOTS - 1)
    }

    fn get(&self, exp: u32, key: (u64, u64, u64), generation: u64) -> Option<ProgDecision> {
        let s = &self.slots[Self::index(exp, key)];
        if s.0 == exp && s.1 == key && s.2 == generation {
            Some(s.3)
        } else {
            None
        }
    }

    fn put(&mut self, exp: u32, key: (u64, u64, u64), generation: u64, decision: ProgDecision) {
        self.slots[Self::index(exp, key)] = (exp, key, generation, decision);
    }
}

/// The data-plane enforcement engine for one PoP.
pub struct DataEnforcer {
    policies: HashMap<ExperimentId, ExperimentDataPolicy>,
    buckets: HashMap<ExperimentId, TokenBucket>,
    /// Optional whole-PoP shaper (the two bandwidth-constrained sites).
    pop_shaper: Option<TokenBucket>,
    /// Optional per-neighbor shapers.
    neighbor_shapers: HashMap<NeighborId, TokenBucket>,
    /// Per-experiment packet programs (digested at install time).
    programs: HashMap<ExperimentId, ProgEntry>,
    /// Per-experiment *ingress* packet programs. Separate map so the two
    /// directions version and fail independently; verdicts share the one
    /// cache with the experiment key's top bit set (see
    /// [`INGRESS_CACHE_BIT`]).
    ingress_programs: HashMap<ExperimentId, ProgEntry>,
    /// Program-verdict flow cache; entries are valid only for the current
    /// generation.
    verdict_cache: VerdictCache,
    /// Bumped on every policy install/remove: wholesale cache
    /// invalidation. Starts at 1 so generation 0 marks empty slots.
    prog_generation: u64,
    /// The shared rate ledger flood budgets are charged against, plus the
    /// PoP identity the charges are filed under. `None` until the
    /// platform wires it (standalone enforcers skip flood budgeting).
    flood_ledger: Option<(PopId, Arc<Mutex<RateLedger>>)>,
    /// Journal handle (fail-closed events).
    obs: Obs,
    /// Counters.
    pub stats: DataStats,
}

/// Top bit of the verdict-cache experiment key, set for ingress-program
/// verdicts so the two directions of one experiment never alias a slot.
/// Experiment ids are small integers handed out by the platform, far
/// below this bit.
const INGRESS_CACHE_BIT: u32 = 0x8000_0000;

impl Default for DataEnforcer {
    fn default() -> Self {
        DataEnforcer {
            policies: HashMap::new(),
            buckets: HashMap::new(),
            pop_shaper: None,
            neighbor_shapers: HashMap::new(),
            programs: HashMap::new(),
            ingress_programs: HashMap::new(),
            verdict_cache: VerdictCache::new(),
            prog_generation: 1,
            flood_ledger: None,
            obs: Obs::new(),
            stats: DataStats::default(),
        }
    }
}

impl DataEnforcer {
    /// An enforcer with no site-wide constraints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a shared observability handle (fail-closed journal events).
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Configure a whole-PoP egress shaper.
    pub fn set_pop_shaper(&mut self, rate_bytes_per_sec: u64, burst_bytes: u64) {
        self.pop_shaper = Some(TokenBucket::new(rate_bytes_per_sec, burst_bytes));
    }

    /// Configure a per-neighbor shaper.
    pub fn set_neighbor_shaper(
        &mut self,
        nbr: NeighborId,
        rate_bytes_per_sec: u64,
        burst_bytes: u64,
    ) {
        self.neighbor_shapers
            .insert(nbr, TokenBucket::new(rate_bytes_per_sec, burst_bytes));
    }

    /// Wire the shared rate ledger flood budgets are charged against (and
    /// the PoP identity to file charges under). Without this, flood
    /// policies are inert.
    pub fn set_flood_ledger(&mut self, pop: PopId, ledger: Arc<Mutex<RateLedger>>) {
        self.flood_ledger = Some((pop, ledger));
    }

    /// Register (or update) an experiment's data-plane policy. Any change
    /// bumps the program generation, invalidating cached verdicts.
    pub fn set_experiment(&mut self, exp: ExperimentId, policy: ExperimentDataPolicy) {
        if let Some((rate, burst)) = policy.rate {
            self.buckets.insert(exp, TokenBucket::new(rate, burst));
        } else {
            self.buckets.remove(&exp);
        }
        // Validation failure is not an error here: the invalid program is
        // installed fail-closed and the install event journals it.
        let _ = self.install_program_entry(exp, policy.program.clone(), false);
        let _ = self.install_program_entry(exp, policy.ingress_program.clone(), true);
        self.policies.insert(exp, policy);
    }

    /// Install (or clear, with `None`) an experiment's packet program
    /// without touching the rest of its policy. Returns the validation
    /// result; an invalid program is still installed and blocks every
    /// packet (fail closed) — the error tells the experimenter why.
    pub fn install_packet_program(
        &mut self,
        exp: ExperimentId,
        program: Option<PacketProgram>,
    ) -> Result<(), ProgError> {
        let result = self.install_program_entry(exp, program.clone(), false);
        if let Some(policy) = self.policies.get_mut(&exp) {
            policy.program = program;
        }
        result
    }

    /// Install (or clear) an experiment's *ingress* packet program, with
    /// the same fail-closed contract as
    /// [`DataEnforcer::install_packet_program`].
    pub fn install_ingress_program(
        &mut self,
        exp: ExperimentId,
        program: Option<PacketProgram>,
    ) -> Result<(), ProgError> {
        let result = self.install_program_entry(exp, program.clone(), true);
        if let Some(policy) = self.policies.get_mut(&exp) {
            policy.ingress_program = program;
        }
        result
    }

    /// Update an experiment's ingress knobs (uRPF, flood budget) without
    /// touching its program or egress policy.
    pub fn set_ingress_guards(
        &mut self,
        exp: ExperimentId,
        urpf: bool,
        flood: Option<FloodPolicy>,
    ) {
        if let Some(policy) = self.policies.get_mut(&exp) {
            policy.ingress_urpf = urpf;
            policy.flood = flood;
        }
    }

    /// Digest a program at install time and bump the cache generation.
    fn install_program_entry(
        &mut self,
        exp: ExperimentId,
        program: Option<PacketProgram>,
        ingress: bool,
    ) -> Result<(), ProgError> {
        self.prog_generation += 1;
        let map = if ingress {
            &mut self.ingress_programs
        } else {
            &mut self.programs
        };
        let Some(program) = program else {
            map.remove(&exp);
            return Ok(());
        };
        let validation = program.validate();
        let valid = validation.is_ok();
        let flow_invariant = valid && program.flow_invariant();
        self.obs.record(EventKind::ProgramInstall {
            experiment: exp.0,
            valid,
        });
        map.insert(
            exp,
            ProgEntry {
                program,
                valid,
                flow_invariant,
            },
        );
        validation
    }

    /// Remove an experiment.
    pub fn remove_experiment(&mut self, exp: ExperimentId) {
        self.policies.remove(&exp);
        self.buckets.remove(&exp);
        if self.programs.remove(&exp).is_some() {
            self.prog_generation += 1;
        }
        if self.ingress_programs.remove(&exp).is_some() {
            self.prog_generation += 1;
        }
    }

    /// Whether an experiment has a registered policy.
    pub fn has_experiment(&self, exp: ExperimentId) -> bool {
        self.policies.contains_key(&exp)
    }

    /// The current program-policy generation (cached verdicts from older
    /// generations are dead).
    pub fn prog_generation(&self) -> u64 {
        self.prog_generation
    }

    /// Whether `exp` opted into ingress reverse-path validation.
    pub fn ingress_urpf(&self, exp: ExperimentId) -> bool {
        self.policies.get(&exp).is_some_and(|p| p.ingress_urpf)
    }

    /// Whether `exp` has a flood budget AND the ledger is wired (both are
    /// required for flood charging to do anything).
    pub fn flood_active(&self, exp: ExperimentId) -> bool {
        self.flood_ledger.is_some() && self.policies.get(&exp).is_some_and(|p| p.flood.is_some())
    }

    /// Whether any ingress policing (uRPF, ingress program, flood budget)
    /// is configured for `exp`. The router uses this to skip the ingress
    /// pipeline entirely on the common path — experiments that never opted
    /// in pay nothing.
    pub fn ingress_active(&self, exp: ExperimentId) -> bool {
        self.policies
            .get(&exp)
            .is_some_and(|p| p.ingress_urpf || p.ingress_program.is_some() || p.flood.is_some())
    }

    /// Run the experiment's packet program (or serve its cached verdict).
    /// Invariant: only flow-invariant programs are cached, so the cached
    /// decision equals what a fresh run on this packet would produce.
    fn prog_decision(&mut self, exp: ExperimentId, pkt: &PacketView) -> ProgDecision {
        let Some(entry) = self.programs.get(&exp) else {
            return ProgDecision::Pass;
        };
        run_program_entry(
            entry,
            exp.0,
            pkt,
            self.prog_generation,
            &mut self.verdict_cache,
            &mut self.stats,
            &self.obs,
            exp.0,
        )
    }

    /// Evaluate one egress packet (experiment → Internet): a one-packet
    /// [`Self::check_egress_batch`].
    pub fn check_egress(
        &mut self,
        exp: ExperimentId,
        pkt: &PacketView,
        nbr: Option<NeighborId>,
        now: SimTime,
    ) -> DataVerdict {
        let mut out = Vec::with_capacity(1);
        self.check_egress_batch(exp, std::slice::from_ref(pkt), nbr, now, &mut out);
        out[0]
    }

    /// Evaluate a run of egress packets (experiment → Internet) from one
    /// experiment toward one neighbor: source validation, then the
    /// experiment's packet program, then per-experiment, per-neighbor and
    /// per-PoP shaping. The policy and shaper lookups are hoisted out of
    /// the per-packet loop; token buckets and the verdict cache are
    /// stateful, so packets are still admitted one by one in order, and a
    /// run gets the verdicts and counters the same packets would get one
    /// at a time. `out[i]` corresponds to `pkts[i]`; `out` is cleared first
    /// (caller-owned scratch).
    pub fn check_egress_batch(
        &mut self,
        exp: ExperimentId,
        pkts: &[PacketView],
        nbr: Option<NeighborId>,
        now: SimTime,
        out: &mut Vec<DataVerdict>,
    ) {
        out.clear();
        self.stats.evaluated += pkts.len() as u64;
        let Some(policy) = self.policies.get(&exp) else {
            // Unknown experiment: fail closed.
            self.stats
                .block_egress("unknown-experiment", pkts.len() as u64);
            out.resize(pkts.len(), DataVerdict::Block("unknown-experiment"));
            return;
        };
        // Pass 1: anti-spoofing, against the one policy borrow.
        for pkt in pkts {
            if policy
                .allowed_sources
                .iter()
                .any(|p| p.contains_addr(pkt.src))
            {
                out.push(DataVerdict::Allow);
            } else {
                self.stats.block_egress("spoofed-source", 1);
                out.push(DataVerdict::Block("spoofed-source"));
            }
        }
        // Pass 2: packet program, after the source check (§3.3), in packet
        // order (the verdict cache fills mid-run).
        for (i, pkt) in pkts.iter().enumerate() {
            if !out[i].is_allow() {
                continue;
            }
            match self.prog_decision(exp, pkt) {
                ProgDecision::Pass => {}
                ProgDecision::Rewrite(rw) => out[i] = DataVerdict::Transform(rw),
                ProgDecision::Block(label) => {
                    self.stats.block_egress(label, 1);
                    out[i] = DataVerdict::Block(label);
                }
            }
        }
        // Pass 3: shaping. The three bucket references are disjoint fields,
        // so they can be hoisted together; admission stays in packet order.
        let mut exp_bucket = self.buckets.get_mut(&exp);
        let mut nbr_bucket = nbr.and_then(|n| self.neighbor_shapers.get_mut(&n));
        let mut pop_bucket = self.pop_shaper.as_mut();
        let mut allowed = 0u64;
        for (i, pkt) in pkts.iter().enumerate() {
            if !out[i].is_allow() {
                continue;
            }
            let len = pkt.len as usize;
            let mut label: Option<&'static str> = None;
            if let Some(b) = exp_bucket.as_deref_mut() {
                if !b.admit(len, now) {
                    label = Some("experiment-rate-limit");
                }
            }
            if label.is_none() {
                if let Some(b) = nbr_bucket.as_deref_mut() {
                    if !b.admit(len, now) {
                        label = Some("neighbor-rate-limit");
                    }
                }
            }
            if label.is_none() {
                if let Some(b) = pop_bucket.as_deref_mut() {
                    if !b.admit(len, now) {
                        label = Some("pop-rate-limit");
                    }
                }
            }
            match label {
                Some(l) => {
                    self.stats.block_egress(l, 1);
                    out[i] = DataVerdict::Block(l);
                }
                None => allowed += 1,
            }
        }
        self.stats.allowed += allowed;
    }

    /// Evaluate a run of ingress packets (Internet → one experiment)
    /// through the full serving pipeline: destination ownership, optional
    /// reverse-path validation, the experiment's ingress packet program,
    /// then the flood budget. `urpf_ok[i]` says whether the ingress
    /// neighbor's own table covers `pkts[i]`'s claimed source (computed by
    /// the router, which owns the tables); `None` means the traffic did
    /// not arrive from a policed neighbor (backbone transit), so uRPF is
    /// skipped. `out[i]` corresponds to `pkts[i]`; `out` is cleared first.
    ///
    /// Ordering matters for attribution: a spoofed-source packet is
    /// counted under `urpf`, not against the flood budget — the budget
    /// only charges packets that passed every cheaper check, so
    /// legitimate-looking floods are what exhaust it.
    pub fn check_ingress_batch(
        &mut self,
        exp: ExperimentId,
        pkts: &[PacketView],
        urpf_ok: Option<&[bool]>,
        now: SimTime,
        out: &mut Vec<DataVerdict>,
    ) {
        out.clear();
        self.stats.ingress_evaluated += pkts.len() as u64;
        let Some(policy) = self.policies.get(&exp) else {
            // Unknown experiment: fail closed (mirrors egress).
            self.stats
                .block_ingress("unknown-experiment", pkts.len() as u64);
            out.resize(pkts.len(), DataVerdict::Block("unknown-experiment"));
            return;
        };
        let flood = policy.flood;
        // Pass 1: destination ownership + uRPF, against the one policy
        // borrow.
        for (i, pkt) in pkts.iter().enumerate() {
            if !policy
                .allowed_sources
                .iter()
                .any(|p| p.contains_addr(pkt.dst))
            {
                self.stats.block_ingress("not-experiment-destination", 1);
                out.push(DataVerdict::Block("not-experiment-destination"));
                continue;
            }
            if policy.ingress_urpf {
                if let Some(ok) = urpf_ok {
                    if !ok[i] {
                        self.stats.block_ingress("urpf", 1);
                        out.push(DataVerdict::Block("urpf"));
                        continue;
                    }
                }
            }
            out.push(DataVerdict::Allow);
        }
        // Pass 2: ingress program, in packet order. Verdicts share the
        // egress flow cache under a salted experiment key so the two
        // directions never alias.
        if let Some(entry) = self.ingress_programs.get(&exp) {
            let generation = self.prog_generation;
            for (i, pkt) in pkts.iter().enumerate() {
                if !out[i].is_allow() {
                    continue;
                }
                let decision = run_program_entry(
                    entry,
                    exp.0 | INGRESS_CACHE_BIT,
                    pkt,
                    generation,
                    &mut self.verdict_cache,
                    &mut self.stats,
                    &self.obs,
                    exp.0,
                );
                match decision {
                    ProgDecision::Pass => {}
                    ProgDecision::Rewrite(rw) => out[i] = DataVerdict::Transform(rw),
                    ProgDecision::Block(label) => {
                        self.stats.block_ingress(label, 1);
                        out[i] = DataVerdict::Block(label);
                    }
                }
            }
        }
        // Pass 3: flood budget — one ledger lock per batch, charges in
        // packet order. IPv6 sources are exempt (the synthetic attack
        // space is v4; a v6 budget would need its own bucketing).
        if let (Some(fp), Some((pop, ledger))) = (flood, self.flood_ledger.as_ref()) {
            let pop = *pop;
            let mut guard = ledger.lock().expect("flood ledger poisoned");
            for (i, pkt) in pkts.iter().enumerate() {
                if !out[i].is_allow() {
                    continue;
                }
                let IpAddr::V4(v4) = pkt.src else { continue };
                let mask = if fp.bucket_len == 0 {
                    0
                } else {
                    u32::MAX << (32 - u32::from(fp.bucket_len).min(32))
                };
                let bucket = Prefix::V4 {
                    addr: Ipv4Addr::from(u32::from(v4) & mask),
                    len: fp.bucket_len,
                };
                if !guard.charge_flood(exp, bucket, pop, now, fp.per_pop_limit, fp.as_wide_limit) {
                    self.stats.block_ingress("flood-budget", 1);
                    out[i] = DataVerdict::Block("flood-budget");
                }
            }
        }
        self.stats.ingress_allowed += out.iter().filter(|v| v.is_allow()).count() as u64;
    }
}

/// Execute one program entry against one packet (or serve its cached
/// verdict). Standalone so callers can hold a `&ProgEntry` borrowed from
/// either program map while mutating the disjoint cache and stats fields.
/// `cache_key` is the verdict-cache experiment key (ingress callers salt
/// it with [`INGRESS_CACHE_BIT`]); `exp_for_event` is the unsalted id for
/// journal events.
#[allow(clippy::too_many_arguments)]
fn run_program_entry(
    entry: &ProgEntry,
    cache_key: u32,
    pkt: &PacketView,
    generation: u64,
    cache: &mut VerdictCache,
    stats: &mut DataStats,
    obs: &Obs,
    exp_for_event: u32,
) -> ProgDecision {
    if !entry.valid {
        // Malformed program: fail closed, no execution.
        return ProgDecision::Block("program-invalid");
    }
    let key = pkt.flow_key();
    if entry.flow_invariant {
        if let Some(cached) = cache.get(cache_key, key, generation) {
            stats.prog_cache_hits += 1;
            return cached;
        }
    }
    stats.prog_runs += 1;
    let (outcome, _fuel) = entry.program.run(pkt);
    let decision = match outcome {
        ProgOutcome::Allow => ProgDecision::Pass,
        ProgOutcome::Transform(rw) => ProgDecision::Rewrite(rw),
        ProgOutcome::Block => ProgDecision::Block("program-block"),
        ProgOutcome::FuelExhausted => {
            obs.record(EventKind::ProgramFailClosed {
                experiment: exp_for_event,
                reason: "program-fuel",
            });
            ProgDecision::Block("program-fuel")
        }
    };
    if entry.flow_invariant {
        cache.put(cache_key, key, generation, decision);
    }
    decision
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enforcement::pprog::{Field, Insn};
    use peering_bgp::types::prefix;

    const EXP: ExperimentId = ExperimentId(1);

    fn enforcer() -> DataEnforcer {
        let mut e = DataEnforcer::new();
        e.set_experiment(
            EXP,
            ExperimentDataPolicy {
                allowed_sources: vec![prefix("184.164.224.0/23")],
                ..Default::default()
            },
        );
        e
    }

    fn src(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn view(s: &str, len: usize) -> PacketView {
        PacketView::basic(src(s), len)
    }

    #[test]
    fn valid_source_allowed() {
        let mut e = enforcer();
        let v = e.check_egress(EXP, &view("184.164.224.9", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Allow);
        assert_eq!(e.stats.allowed, 1);
    }

    #[test]
    fn spoofed_source_blocked() {
        let mut e = enforcer();
        let v = e.check_egress(EXP, &view("8.8.8.8", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("spoofed-source"));
        assert!(!v.is_allow());
        assert_eq!(e.stats.blocked["spoofed-source"], 1);
    }

    #[test]
    fn unknown_experiment_fails_closed() {
        let mut e = enforcer();
        let v = e.check_egress(
            ExperimentId(9),
            &view("184.164.224.9", 100),
            None,
            SimTime::ZERO,
        );
        assert_eq!(v, DataVerdict::Block("unknown-experiment"));
    }

    #[test]
    fn token_bucket_refills_over_time() {
        let mut b = TokenBucket::new(1000, 1000); // 1 kB/s, 1 kB burst
        assert!(b.admit(1000, SimTime::ZERO));
        assert!(!b.admit(1, SimTime::ZERO));
        assert!(b.time_until(500, SimTime::ZERO) > SimDuration::ZERO);
        // After 500 ms, 500 bytes refilled.
        let t = SimTime::ZERO + SimDuration::from_millis(500);
        assert!(b.admit(400, t));
        assert!(!b.admit(200, t));
        // Never exceeds burst depth.
        let much_later = SimTime::ZERO + SimDuration::from_secs(100);
        assert!(b.admit(1000, much_later));
        assert!(!b.admit(1, much_later));
    }

    #[test]
    fn time_until_accounts_for_accrued_refill() {
        // Regression: `time_until` used to ignore refill accrued since the
        // last charge, so after any idle period it overestimated the wait.
        let mut b = TokenBucket::new(1000, 1000);
        assert!(b.admit(1000, SimTime::ZERO)); // drained at t=0
        let half = SimTime::ZERO + SimDuration::from_millis(500);
        // 500 tokens have refilled by t=500ms: 500 bytes are admissible now.
        assert_eq!(b.time_until(500, half), SimDuration::ZERO);
        // 800 bytes still need 300 more tokens = 300 ms, not 800 ms.
        let wait = b.time_until(800, half);
        assert!(wait > SimDuration::from_millis(299) && wait < SimDuration::from_millis(301));
        // Consistency: admitting after the projected wait succeeds.
        let t = SimTime::ZERO + SimDuration::from_millis(500) + wait;
        assert!(b.admit(800, t));
    }

    #[test]
    fn experiment_rate_limit_applies() {
        let mut e = enforcer();
        e.set_experiment(
            EXP,
            ExperimentDataPolicy {
                allowed_sources: vec![prefix("184.164.224.0/23")],
                rate: Some((1000, 1500)),
                ..Default::default()
            },
        );
        assert!(e
            .check_egress(EXP, &view("184.164.224.1", 1500), None, SimTime::ZERO)
            .is_allow());
        let v = e.check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("experiment-rate-limit"));
    }

    #[test]
    fn pop_shaper_caps_all_experiments() {
        let mut e = enforcer();
        e.set_experiment(
            ExperimentId(2),
            ExperimentDataPolicy {
                allowed_sources: vec![prefix("184.164.226.0/24")],
                ..Default::default()
            },
        );
        e.set_pop_shaper(1000, 1000);
        assert!(e
            .check_egress(EXP, &view("184.164.224.1", 800), None, SimTime::ZERO)
            .is_allow());
        // A different experiment shares the site budget.
        let v = e.check_egress(
            ExperimentId(2),
            &view("184.164.226.1", 800),
            None,
            SimTime::ZERO,
        );
        assert_eq!(v, DataVerdict::Block("pop-rate-limit"));
    }

    #[test]
    fn neighbor_shaper_is_per_neighbor() {
        let mut e = enforcer();
        e.set_neighbor_shaper(NeighborId(1), 1000, 1000);
        assert!(e
            .check_egress(
                EXP,
                &view("184.164.224.1", 900),
                Some(NeighborId(1)),
                SimTime::ZERO
            )
            .is_allow());
        let v = e.check_egress(
            EXP,
            &view("184.164.224.1", 900),
            Some(NeighborId(1)),
            SimTime::ZERO,
        );
        assert_eq!(v, DataVerdict::Block("neighbor-rate-limit"));
        // Another neighbor is unconstrained.
        assert!(e
            .check_egress(
                EXP,
                &view("184.164.224.1", 900),
                Some(NeighborId(2)),
                SimTime::ZERO
            )
            .is_allow());
    }

    #[test]
    fn batch_matches_sequential_singles() {
        // Two enforcers with identical config; one sees the packets as a
        // batch, the other one at a time. Verdicts and stats must agree,
        // including short-circuit bucket charging.
        let make = || {
            let mut e = enforcer();
            e.set_experiment(
                EXP,
                ExperimentDataPolicy {
                    allowed_sources: vec![prefix("184.164.224.0/23")],
                    rate: Some((1000, 2000)),
                    ..Default::default()
                },
            );
            e.set_neighbor_shaper(NeighborId(1), 1000, 1500);
            e.set_pop_shaper(1000, 1200);
            e
        };
        let pkts: Vec<PacketView> = vec![
            view("184.164.224.1", 1000),
            view("8.8.8.8", 100), // spoofed: must not charge any bucket
            view("184.164.224.2", 600),
            view("184.164.224.3", 600), // pop bucket exhausted here
            view("184.164.225.4", 100),
        ];
        let mut sequential = make();
        let singles: Vec<DataVerdict> = pkts
            .iter()
            .map(|p| sequential.check_egress(EXP, p, Some(NeighborId(1)), SimTime::ZERO))
            .collect();
        let mut batched = make();
        let mut verdicts = Vec::new();
        batched.check_egress_batch(
            EXP,
            &pkts,
            Some(NeighborId(1)),
            SimTime::ZERO,
            &mut verdicts,
        );
        assert_eq!(verdicts, singles);
        assert_eq!(batched.stats.evaluated, sequential.stats.evaluated);
        assert_eq!(batched.stats.allowed, sequential.stats.allowed);
        assert_eq!(batched.stats.blocked, sequential.stats.blocked);
        // Unknown experiment fails the whole batch closed.
        batched.check_egress_batch(ExperimentId(9), &pkts, None, SimTime::ZERO, &mut verdicts);
        assert!(verdicts
            .iter()
            .all(|v| *v == DataVerdict::Block("unknown-experiment")));
    }

    #[test]
    fn program_blocks_after_source_check() {
        let mut e = enforcer();
        e.install_packet_program(EXP, Some(PacketProgram::block_all()))
            .unwrap();
        // Spoofed source fires first (program runs after the source check).
        let v = e.check_egress(EXP, &view("9.9.9.9", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("spoofed-source"));
        let v = e.check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("program-block"));
        assert_eq!(e.stats.blocked["program-block"], 1);
    }

    #[test]
    fn malformed_program_fails_closed() {
        let mut e = enforcer();
        let bad = PacketProgram::new(vec![Insn::Jmp(99)]);
        assert!(e.install_packet_program(EXP, Some(bad)).is_err());
        let v = e.check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("program-invalid"));
        // Never Allow, and no execution happened.
        assert_eq!(e.stats.prog_runs, 0);
    }

    #[test]
    fn fuel_exhaustion_fails_closed() {
        let mut e = enforcer();
        let spin = PacketProgram::new(vec![Insn::Jmp(0)]).with_fuel(32);
        e.install_packet_program(EXP, Some(spin)).unwrap();
        let v = e.check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("program-fuel"));
    }

    #[test]
    fn transform_verdict_carries_rewrite() {
        let mut e = enforcer();
        let p = PacketProgram::new(vec![Insn::LdImm(0, 7), Insn::SetTtl(0), Insn::Allow]);
        e.install_packet_program(EXP, Some(p)).unwrap();
        let v = e.check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO);
        let DataVerdict::Transform(rw) = v else {
            panic!("expected transform, got {v:?}");
        };
        assert!(v.is_allow());
        assert_eq!(rw.ttl, Some(7));
    }

    #[test]
    fn verdict_cache_serves_flows_and_generation_invalidates() {
        let mut e = enforcer();
        // Flow-invariant program (reads ports, not len/ttl).
        let p = PacketProgram::new(vec![
            Insn::Ld(0, Field::DstPort),
            Insn::JeqImm(0, 53, 3),
            Insn::Allow,
            Insn::Block,
        ]);
        e.install_packet_program(EXP, Some(p)).unwrap();
        let pkt = view("184.164.224.1", 100);
        assert!(e.check_egress(EXP, &pkt, None, SimTime::ZERO).is_allow());
        assert_eq!((e.stats.prog_runs, e.stats.prog_cache_hits), (1, 0));
        // Same flow again: served from the cache.
        assert!(e.check_egress(EXP, &pkt, None, SimTime::ZERO).is_allow());
        assert_eq!((e.stats.prog_runs, e.stats.prog_cache_hits), (1, 1));
        // Policy change bumps the generation: the next packet re-runs.
        let gen_before = e.prog_generation();
        e.install_packet_program(EXP, Some(PacketProgram::block_all()))
            .unwrap();
        assert!(e.prog_generation() > gen_before);
        let v = e.check_egress(EXP, &pkt, None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("program-block"));
        assert_eq!(e.stats.prog_runs, 2);
    }

    #[test]
    fn len_reading_program_is_never_cached() {
        let mut e = enforcer();
        // Blocks packets longer than 500 bytes: per-packet, not per-flow.
        let p = PacketProgram::new(vec![
            Insn::Ld(0, Field::Len),
            Insn::JgtImm(0, 500, 3),
            Insn::Allow,
            Insn::Block,
        ]);
        e.install_packet_program(EXP, Some(p)).unwrap();
        assert!(e
            .check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO)
            .is_allow());
        let v = e.check_egress(EXP, &view("184.164.224.1", 900), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("program-block"));
        // Both packets executed the program — no unsound cache hit.
        assert_eq!((e.stats.prog_runs, e.stats.prog_cache_hits), (2, 0));
    }

    #[test]
    fn removed_experiment_fails_closed() {
        let mut e = enforcer();
        e.remove_experiment(EXP);
        let v = e.check_egress(EXP, &view("184.164.224.1", 10), None, SimTime::ZERO);
        assert_eq!(v, DataVerdict::Block("unknown-experiment"));
    }

    /// An inbound packet toward the experiment's allocation.
    fn inbound(src_s: &str, dst_s: &str) -> PacketView {
        PacketView {
            src: src(src_s),
            dst: src(dst_s),
            proto: 17,
            src_port: 4000,
            dst_port: 80,
            len: 100,
            ttl: 60,
        }
    }

    #[test]
    fn ingress_batch_checks_destination_and_urpf() {
        let mut e = enforcer();
        e.set_ingress_guards(EXP, true, None);
        assert!(e.ingress_urpf(EXP) && e.ingress_active(EXP));
        let pkts = vec![
            inbound("20.1.2.3", "184.164.224.9"), // fine
            inbound("20.1.2.3", "9.9.9.9"),       // not our prefix
            inbound("92.0.0.1", "184.164.224.9"), // spoofed (uRPF says no)
        ];
        let urpf_ok = vec![true, true, false];
        let mut out = Vec::new();
        e.check_ingress_batch(EXP, &pkts, Some(&urpf_ok), SimTime::ZERO, &mut out);
        assert_eq!(
            out,
            vec![
                DataVerdict::Allow,
                DataVerdict::Block("not-experiment-destination"),
                DataVerdict::Block("urpf"),
            ]
        );
        assert_eq!(e.stats.ingress_evaluated, 3);
        assert_eq!(e.stats.ingress_allowed, 1);
        assert_eq!(e.stats.ingress_blocked["urpf"], 1);
        // No neighbor context (backbone ingress): uRPF is skipped.
        e.check_ingress_batch(EXP, &pkts[2..], None, SimTime::ZERO, &mut out);
        assert_eq!(out, vec![DataVerdict::Allow]);
    }

    #[test]
    fn ingress_program_blocks_syn_port_and_caches() {
        let mut e = enforcer();
        // Block dst port 443, allow the rest — flow-invariant.
        let p = PacketProgram::new(vec![
            Insn::Ld(0, Field::DstPort),
            Insn::JeqImm(0, 443, 3),
            Insn::Allow,
            Insn::Block,
        ]);
        e.install_ingress_program(EXP, Some(p)).unwrap();
        assert!(e.ingress_active(EXP));
        let mut syn = inbound("20.1.2.3", "184.164.224.9");
        syn.dst_port = 443;
        let pkts = vec![
            inbound("20.1.2.3", "184.164.224.9"),
            syn,
            syn, // same flow again: cache hit
        ];
        let mut out = Vec::new();
        e.check_ingress_batch(EXP, &pkts, None, SimTime::ZERO, &mut out);
        assert_eq!(
            out,
            vec![
                DataVerdict::Allow,
                DataVerdict::Block("program-block"),
                DataVerdict::Block("program-block"),
            ]
        );
        assert_eq!((e.stats.prog_runs, e.stats.prog_cache_hits), (2, 1));
        assert_eq!(e.stats.ingress_blocked["program-block"], 2);
        // The egress direction is untouched by the ingress program.
        assert!(e
            .check_egress(EXP, &view("184.164.224.1", 100), None, SimTime::ZERO)
            .is_allow());
    }

    #[test]
    fn ingress_and_egress_programs_do_not_alias_cache() {
        let mut e = enforcer();
        // Egress: allow everything. Ingress: block everything. Same flow
        // key must get different (cached) verdicts per direction.
        e.install_packet_program(EXP, Some(PacketProgram::new(vec![Insn::Allow])))
            .unwrap();
        e.install_ingress_program(EXP, Some(PacketProgram::block_all()))
            .unwrap();
        let pkt = inbound("184.164.224.1", "184.164.224.2");
        let mut out = Vec::new();
        for _ in 0..2 {
            assert!(e.check_egress(EXP, &pkt, None, SimTime::ZERO).is_allow());
            e.check_ingress_batch(
                EXP,
                std::slice::from_ref(&pkt),
                None,
                SimTime::ZERO,
                &mut out,
            );
            assert_eq!(out, vec![DataVerdict::Block("program-block")]);
        }
        // One real run per direction; the second round was all cache hits.
        assert_eq!((e.stats.prog_runs, e.stats.prog_cache_hits), (2, 2));
    }

    #[test]
    fn invalid_ingress_program_fails_closed() {
        let mut e = enforcer();
        assert!(e
            .install_ingress_program(EXP, Some(PacketProgram::new(vec![Insn::Jmp(99)])))
            .is_err());
        let mut out = Vec::new();
        e.check_ingress_batch(
            EXP,
            &[inbound("20.1.2.3", "184.164.224.9")],
            None,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(out, vec![DataVerdict::Block("program-invalid")]);
        assert_eq!(e.stats.prog_runs, 0);
    }

    #[test]
    fn flood_budget_charges_shared_ledger() {
        use super::super::control::FLOOD_WINDOW_SECS;
        let mut e = enforcer();
        let ledger = Arc::new(Mutex::new(RateLedger::default()));
        e.set_flood_ledger(PopId(1), Arc::clone(&ledger));
        e.set_ingress_guards(
            EXP,
            false,
            Some(FloodPolicy {
                bucket_len: 16,
                per_pop_limit: 3,
                as_wide_limit: Some(5),
            }),
        );
        assert!(e.flood_active(EXP) && e.ingress_active(EXP));
        // Five packets from one /16 (different hosts), one from another.
        let pkts: Vec<PacketView> = vec![
            inbound("20.1.0.1", "184.164.224.9"),
            inbound("20.1.0.2", "184.164.224.9"),
            inbound("20.1.9.9", "184.164.224.9"),
            inbound("20.1.3.4", "184.164.224.9"), // 4th in bucket: over per-PoP limit
            inbound("20.1.5.6", "184.164.224.9"),
            inbound("55.2.0.1", "184.164.224.9"), // different bucket: fine
        ];
        let mut out = Vec::new();
        e.check_ingress_batch(EXP, &pkts, None, SimTime::ZERO, &mut out);
        assert_eq!(
            out.iter().filter(|v| v.is_allow()).count(),
            4,
            "3 from the hot /16 + 1 from the cold one"
        );
        assert_eq!(e.stats.ingress_blocked["flood-budget"], 2);
        // Remote gossip can exhaust the AS-wide budget: another PoP
        // reports 5 admits for the cold bucket (local count is only 1, far
        // under the per-PoP limit), pushing the platform-wide total past
        // the AS-wide limit of 5 — the next packet is blocked here even
        // though this PoP barely saw the bucket.
        let window = SimTime::ZERO.as_secs() / FLOOD_WINDOW_SECS;
        let bucket = prefix("55.2.0.0/16");
        ledger
            .lock()
            .unwrap()
            .observe_remote_flood(PopId(2), window, &[(EXP, bucket, 5)]);
        e.check_ingress_batch(
            EXP,
            &[inbound("55.2.0.9", "184.164.224.9")],
            None,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(
            out,
            vec![DataVerdict::Block("flood-budget")],
            "AS-wide limit (5) already consumed remotely"
        );
    }

    #[test]
    fn ingress_batch_unknown_experiment_fails_closed() {
        let mut e = enforcer();
        let mut out = Vec::new();
        e.check_ingress_batch(
            ExperimentId(9),
            &[inbound("20.1.2.3", "184.164.224.9")],
            None,
            SimTime::ZERO,
            &mut out,
        );
        assert_eq!(out, vec![DataVerdict::Block("unknown-experiment")]);
        assert_eq!(e.stats.ingress_blocked["unknown-experiment"], 1);
    }
}
