//! Convergence oracle: global consistency checks over a quiescent platform.
//!
//! The oracle knows nothing about what the chaos schedule did — it only
//! states what must be true of ANY quiescent state:
//!
//! 1. **Session symmetry.** Sessions come in wired pairs (matched by the
//!    endpoint MAC pair). After quiescence both sides agree on whether the
//!    session is Established; a half-open session means a lost FIN or a
//!    stuck FSM.
//! 2. **RIB agreement.** For every Established pair, the sender's
//!    Adj-RIB-Out — filtered through the receiver's import pipeline
//!    ([`Speaker::would_accept`]) — equals the receiver's Adj-RIB-In,
//!    path-id for path-id, attribute for attribute. Missing entries mean
//!    lost UPDATEs; extra entries mean ghost routes that survived a resync.
//! 3. **No leftover staleness.** Graceful-retention marks routes stale on
//!    session loss; once the session is Established again and the network
//!    is quiet, every stale path must have been refreshed or swept.
//! 4. **Router self-consistency.** Each vBGP router's mux tables, installed
//!    bookkeeping, Adj-RIB-Ins and enforcement engines must mutually agree
//!    ([`VbgpRouter::verify_consistency`], which also asserts that no
//!    experiment route survives a dead tunnel).
//! 5. **Data-plane compilation.** Each router's compiled fast-path FIBs
//!    (the DIR-24-8 tables packets actually consult) must
//!    agree with the per-neighbor and delivery tables they were compiled
//!    from ([`VbgpRouter::verify_data_plane`]) — a stale generation or a
//!    bad incremental patch after churn shows up here.
//!
//! [`Speaker::would_accept`]: peering_bgp::speaker::Speaker::would_accept
//! [`VbgpRouter::verify_consistency`]: peering_vbgp::VbgpRouter::verify_consistency
//! [`VbgpRouter::verify_data_plane`]: peering_vbgp::VbgpRouter::verify_data_plane

use std::collections::BTreeMap;
use std::collections::HashMap;

use peering_bgp::attrs::PathAttributes;
use peering_bgp::rib::PeerId;
use peering_bgp::types::{PathId, Prefix};
use peering_netsim::{MacAddr, NodeId, Simulator};
use peering_platform::{InternetAs, Peering};
use peering_toolkit::ExperimentNode;
use peering_vbgp::{BgpHost, VbgpRouter};

/// One side of a BGP session, located in the simulator.
struct SessionView {
    node: NodeId,
    label: String,
    peer: PeerId,
    local_mac: MacAddr,
    remote_mac: MacAddr,
    established: bool,
    /// Experiments announce through the raw advertise path (the toolkit's
    /// `announce_via`), which bypasses Adj-RIB-Out bookkeeping — so the
    /// experiment→router direction cannot be checked from snapshots.
    experiment: bool,
}

/// Find the [`BgpHost`] embedded in whatever node type lives at `id`.
fn host_of(sim: &Simulator, id: NodeId) -> Option<(&BgpHost, String, bool)> {
    if let Some(r) = sim.node::<VbgpRouter>(id) {
        return Some((&r.host, format!("router:{}", r.pop()), false));
    }
    if let Some(n) = sim.node::<InternetAs>(id) {
        return Some((&n.host, format!("as{}", n.asn()), false));
    }
    if let Some(e) = sim.node::<ExperimentNode>(id) {
        return Some((&e.host, format!("exp-as{}", e.asn()), true));
    }
    None
}

fn collect_sessions(sim: &Simulator) -> Vec<SessionView> {
    let mut views = Vec::new();
    for id in sim.node_ids() {
        let Some((host, label, experiment)) = host_of(sim, id) else {
            continue;
        };
        for peer in host.speaker.peer_ids() {
            let Some(ep) = host.endpoint(peer) else {
                continue;
            };
            views.push(SessionView {
                node: id,
                label: label.clone(),
                peer,
                local_mac: ep.local_mac,
                remote_mac: ep.remote_mac,
                established: host.speaker.is_established(peer),
                experiment,
            });
        }
    }
    views
}

/// Compare one direction of an Established pair: what `sender` has in its
/// Adj-RIB-Out, passed through `receiver`'s import pipeline, must be
/// exactly the receiver's Adj-RIB-In.
fn check_direction(
    sim: &Simulator,
    sender: &SessionView,
    receiver: &SessionView,
    problems: &mut Vec<String>,
) {
    let (s_host, ..) = host_of(sim, sender.node).expect("sender exists");
    let (r_host, ..) = host_of(sim, receiver.node).expect("receiver exists");
    let mut want: BTreeMap<(Prefix, PathId), PathAttributes> = BTreeMap::new();
    for (prefix, paths) in s_host.speaker.adj_rib_out_snapshot(sender.peer) {
        for (pid, attrs) in paths {
            if let Some(imported) = r_host
                .speaker
                .would_accept(receiver.peer, prefix, pid, &attrs)
            {
                want.insert((prefix, pid), imported);
            }
        }
    }
    let mut got: BTreeMap<(Prefix, PathId), PathAttributes> = BTreeMap::new();
    for (prefix, paths) in r_host.speaker.adj_rib_in_snapshot(receiver.peer) {
        for (pid, attrs) in paths {
            got.insert((prefix, pid), attrs);
        }
    }
    let dir = format!("{} -> {}", sender.label, receiver.label);
    for ((prefix, pid), attrs) in &want {
        match got.get(&(*prefix, *pid)) {
            None => problems.push(format!(
                "{dir}: advertised {prefix} path {pid} missing from peer's Adj-RIB-In"
            )),
            Some(g) if g != attrs => problems.push(format!(
                "{dir}: {prefix} path {pid} attributes diverge after import"
            )),
            _ => {}
        }
    }
    for (prefix, pid) in got.keys() {
        if !want.contains_key(&(*prefix, *pid)) {
            problems.push(format!(
                "{dir}: peer holds {prefix} path {pid} that was never advertised"
            ));
        }
    }
}

/// Ledger gossip soundness: what any PoP believes about a *remote* PoP's
/// update spend is a monotone lower bound of that PoP's own local tally.
/// Gossip max-merges monotone counters, so a remote figure larger than the
/// origin's truth can only come from a corrupt frame, a mis-keyed merge, or
/// a pruned origin bucket that stale gossip resurrected elsewhere.
fn check_ledger_gossip(p: &Peering, problems: &mut Vec<String>) {
    let now = p.sim.now();
    // Origin truth: (pop, exp, prefix) -> the origin's local count.
    let mut truth: HashMap<(u32, u32, Prefix), u32> = HashMap::new();
    let mut ledgers = Vec::new();
    for pop in p.pop_names() {
        let Some(node) = p.router_node(&pop) else {
            continue;
        };
        let Some(r) = p.sim.node::<VbgpRouter>(node) else {
            continue;
        };
        let pop_id = r.control.pop_id();
        let ledger = r.control.ledger();
        let entries = ledger.lock().unwrap().entries_today(now);
        for (exp, prefix, at, count) in &entries {
            if *at == pop_id {
                truth.insert((at.0, exp.0, *prefix), count.local);
            }
        }
        ledgers.push((pop.clone(), pop_id, entries));
    }
    for (pop, pop_id, entries) in &ledgers {
        for (exp, prefix, at, count) in entries {
            if at == pop_id || count.remote == 0 {
                continue;
            }
            let origin_local = truth.get(&(at.0, exp.0, *prefix)).copied().unwrap_or(0);
            if count.remote > origin_local {
                problems.push(format!(
                    "ledger at {pop}: remote tally {} for pop {} exp {} {prefix} \
                     exceeds that pop's own local tally {origin_local}",
                    count.remote, at.0, exp.0
                ));
            }
        }
    }
}

/// Run every global invariant; returns human-readable violations (empty =
/// converged). The list is sorted so failures are stable across runs.
/// Takes `&mut` because the data-plane check force-compiles each router's
/// fast-path FIBs before comparing them to their source tables.
pub fn check_convergence(p: &mut Peering) -> Vec<String> {
    let mut problems = Vec::new();
    let views = collect_sessions(&p.sim);

    // Pair sessions by their endpoint MAC pair: the reverse of (local,
    // remote) is the other side of the same wire.
    let mut by_macs: HashMap<(MacAddr, MacAddr), usize> = HashMap::new();
    for (i, v) in views.iter().enumerate() {
        if let Some(prev) = by_macs.insert((v.local_mac, v.remote_mac), i) {
            problems.push(format!(
                "ambiguous session endpoints: {} and {} share a MAC pair",
                views[prev].label, v.label
            ));
        }
    }

    for (i, v) in views.iter().enumerate() {
        let Some(&j) = by_macs.get(&(v.remote_mac, v.local_mac)) else {
            if v.established {
                problems.push(format!(
                    "{}: session {:?} Established with no counterpart",
                    v.label, v.peer
                ));
            }
            continue;
        };
        let peer_view = &views[j];
        if v.established != peer_view.established {
            // Report once per pair.
            if i < j {
                problems.push(format!(
                    "half-open session: {} Established={}, {} Established={}",
                    v.label, v.established, peer_view.label, peer_view.established
                ));
            }
            continue;
        }
        if !v.established {
            continue;
        }
        let (host, ..) = host_of(&p.sim, v.node).expect("view exists");
        let stale = host.speaker.stale_path_count(v.peer);
        if stale != 0 {
            problems.push(format!(
                "{}: {stale} stale paths linger on Established session to {}",
                v.label, peer_view.label
            ));
        }
        if !v.experiment {
            check_direction(&p.sim, v, peer_view, &mut problems);
        }
    }

    // Router-internal invariants: mux vs installed vs Adj-RIB-In vs
    // enforcement, and the dead-tunnel rule. Then the compiled data plane:
    // the fast-path FIBs must match the tables the control plane converged
    // to, no matter what churn the chaos schedule drove through them.
    for pop in p.pop_names() {
        if let Some(router) = p.router_node(&pop) {
            if let Some(r) = p.sim.node::<VbgpRouter>(router) {
                problems.extend(r.verify_consistency());
            }
            if let Some(r) = p.sim.node_mut::<VbgpRouter>(router) {
                problems.extend(r.verify_data_plane());
            }
        }
    }

    check_ledger_gossip(p, &mut problems);

    problems.sort();

    // Violations ship with their context: the tail of the structured event
    // journal (session transitions, resync rounds, enforcement rejections,
    // chaos injections) is appended after the sorted violations so a
    // failing seed's report already contains the timeline that led there.
    if !problems.is_empty() {
        let tail = p.obs().journal_tail(32);
        for line in tail.lines() {
            problems.push(format!("journal: {line}"));
        }
    }
    problems
}
