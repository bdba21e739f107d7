//! Bounded structured event journal with a canonical, shard-count-invariant
//! order.
//!
//! Events are small, typed, and carry only integers and `'static` strings,
//! so recording one never allocates on the heap beyond the lane buffer's
//! amortized growth. To stay deterministic when the simulator runs sharded
//! across worker threads, the journal is split into per-shard *lanes*:
//! each worker appends only to its own lane, and every record carries the
//! [`DispatchKey`] of the simulator event whose handler produced it. Reads
//! merge the lanes in `(dispatch key, lane, intra-dispatch order)` order —
//! a total order fixed by the simulation itself, not by thread timing — so
//! the same seed yields a byte-identical journal at 1, 2 or N shards.

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;

/// Default retained-event bound. Big enough to hold the interesting tail
/// of a chaos run (every session transition, rejection and injection),
/// small enough that an unbounded event source cannot grow memory.
pub const JOURNAL_CAPACITY: usize = 4096;

/// Maximum number of journal lanes (one per simulator shard, plus lane 0
/// for everything recorded outside a worker thread).
pub const MAX_LANES: usize = 64;

/// Per-lane raw-record bound. This is a memory safety valve, not the
/// retention policy: [`JOURNAL_CAPACITY`] governs what reads return. It is
/// sized so no realistic run ever trips it — if one does, eviction happens
/// per-lane and the merged order is no longer guaranteed shard-count
/// invariant (visible in [`Journal::dropped`]).
const LANE_SOFT_CAP: usize = 1 << 20;

/// Sentinel `neighbor` label for FIB/flow-cache events on a table that has
/// no owning neighbor (the experiment delivery table).
pub const DELIVERY_TABLE: u32 = u32::MAX;

/// Canonical position of one journal record in the simulation's total
/// order: the queue key of the simulator event being dispatched when the
/// record was made.
///
/// The simulator orders events by `(time, class, destination node, source,
/// sequence)`; that order is independent of how nodes are partitioned into
/// shards, which is exactly what makes the merged journal deterministic.
/// Records made outside the event loop (platform build, test drivers, the
/// oracle) use [`DispatchKey::outside`], which sorts after any in-loop
/// record at the same timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DispatchKey {
    /// Event time in simulated nanoseconds.
    pub at_nanos: u64,
    /// Event class rank (chaos steps sort before node events; see the
    /// simulator's event ordering).
    pub class: u8,
    /// Destination node of the dispatched event.
    pub dst: u32,
    /// Source node of the dispatched event (`u32::MAX` for external).
    pub src: u32,
    /// Per-source sequence number of the dispatched event.
    pub seq: u64,
}

impl DispatchKey {
    /// Class rank used for records made outside any event dispatch.
    pub const OUTSIDE_CLASS: u8 = u8::MAX;

    /// The key for a record made outside the event loop at clock `nanos`.
    pub fn outside(nanos: u64) -> Self {
        DispatchKey {
            at_nanos: nanos,
            class: Self::OUTSIDE_CLASS,
            dst: u32::MAX,
            src: u32::MAX,
            seq: 0,
        }
    }
}

/// What happened. Reason strings are `'static` reason codes, label
/// integers are the same compact slot indexes the metrics use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A BGP session FSM moved between states.
    SessionTransition {
        /// Peer slot index.
        peer: u32,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A session dropped back to Idle with exponential backoff applied.
    SessionBackoff {
        /// Peer slot index.
        peer: u32,
        /// Backoff level reached.
        level: u32,
    },
    /// The control-plane enforcer rejected part of an experiment UPDATE.
    EnforcementReject {
        /// Experiment slot index.
        experiment: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// The data-plane enforcer blocked an experiment packet class.
    DataBlocked {
        /// Experiment slot index.
        experiment: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// A re-established session replayed its Adj-RIB-Out.
    ResyncReplay {
        /// Peer slot index.
        peer: u32,
        /// Routes replayed.
        routes: u64,
    },
    /// A neighbor table's flow cache was invalidated by a generation bump.
    FlowCacheInvalidation {
        /// Neighbor slot index (or [`DELIVERY_TABLE`]).
        neighbor: u32,
        /// New generation.
        generation: u64,
    },
    /// A compiled FIB caught up with its table, by patch or rebuild.
    FibSync {
        /// Neighbor slot index (or [`DELIVERY_TABLE`]).
        neighbor: u32,
        /// Whether the sync was a wholesale rebuild.
        rebuild: bool,
        /// Entries changed.
        changed: u64,
    },
    /// The sequenced BGP transport reset after a gap or remote close.
    TransportReset {
        /// Peer slot index.
        peer: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// A chaos step fired on a link.
    ChaosInjection {
        /// Link index.
        link: u32,
        /// Static change code (`link-down`, `set-faults`, ...).
        change: &'static str,
    },
    /// The router declined to generate an ICMP error.
    IcmpSuppressed {
        /// Static reason code.
        reason: &'static str,
    },
    /// An export policy suppressed a route toward a peer — the
    /// valley-free (Gao–Rexford) enforcement firing at a synthetic
    /// internet AS. Journaled only on speakers that opt in, because the
    /// suppression itself is the steady state of every mid-tier AS.
    ExportSuppressed {
        /// Peer slot index.
        peer: u32,
    },
    /// A packet program was installed (or re-installed) for an experiment.
    ProgramInstall {
        /// Experiment slot index.
        experiment: u32,
        /// Whether the program passed install-time validation. An invalid
        /// program is still installed and blocks every packet.
        valid: bool,
    },
    /// A packet program failed closed at run time (fuel exhaustion).
    ProgramFailClosed {
        /// Experiment slot index.
        experiment: u32,
        /// Static reason code.
        reason: &'static str,
    },
    /// The control-plane enforcer entered or left fail-closed mode
    /// (overload semantics, paper §4.7).
    FailClosed {
        /// PoP index of the enforcer.
        pop: u32,
        /// `true` on entering fail-closed, `false` on leaving.
        entered: bool,
    },
    /// A rate-ledger gossip frame was applied from a backbone peer.
    LedgerGossip {
        /// Originating PoP index.
        from_pop: u32,
        /// Number of (experiment, prefix) entries in the frame.
        entries: u32,
    },
    /// The rate ledger dropped expired per-day buckets on day rollover.
    LedgerPrune {
        /// Entries removed.
        dropped: u64,
    },
}

fn nbr_label(neighbor: u32, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    if neighbor == DELIVERY_TABLE {
        write!(f, "delivery")
    } else {
        write!(f, "{neighbor}")
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::SessionTransition { peer, from, to } => {
                write!(f, "session peer={peer} {from}->{to}")
            }
            EventKind::SessionBackoff { peer, level } => {
                write!(f, "backoff peer={peer} level={level}")
            }
            EventKind::EnforcementReject { experiment, reason } => {
                write!(f, "reject exp={experiment} reason={reason}")
            }
            EventKind::DataBlocked { experiment, reason } => {
                write!(f, "data-block exp={experiment} reason={reason}")
            }
            EventKind::ResyncReplay { peer, routes } => {
                write!(f, "resync peer={peer} routes={routes}")
            }
            EventKind::FlowCacheInvalidation {
                neighbor,
                generation,
            } => {
                write!(f, "flow-cache-invalidate nbr=")?;
                nbr_label(*neighbor, f)?;
                write!(f, " gen={generation}")
            }
            EventKind::FibSync {
                neighbor,
                rebuild,
                changed,
            } => {
                write!(f, "fib-sync nbr=")?;
                nbr_label(*neighbor, f)?;
                write!(
                    f,
                    " mode={} changed={changed}",
                    if *rebuild { "rebuild" } else { "patch" }
                )
            }
            EventKind::TransportReset { peer, reason } => {
                write!(f, "transport-reset peer={peer} reason={reason}")
            }
            EventKind::ChaosInjection { link, change } => {
                write!(f, "chaos link={link} change={change}")
            }
            EventKind::IcmpSuppressed { reason } => write!(f, "icmp-suppressed reason={reason}"),
            EventKind::ExportSuppressed { peer } => {
                write!(f, "export-suppressed peer={peer}")
            }
            EventKind::ProgramInstall { experiment, valid } => {
                write!(f, "prog-install exp={experiment} valid={valid}")
            }
            EventKind::ProgramFailClosed { experiment, reason } => {
                write!(f, "prog-fail-closed exp={experiment} reason={reason}")
            }
            EventKind::FailClosed { pop, entered } => {
                write!(
                    f,
                    "fail-closed pop={pop} {}",
                    if *entered { "entered" } else { "cleared" }
                )
            }
            EventKind::LedgerGossip { from_pop, entries } => {
                write!(f, "ledger-gossip from={from_pop} entries={entries}")
            }
            EventKind::LedgerPrune { dropped } => {
                write!(f, "ledger-prune dropped={dropped}")
            }
        }
    }
}

/// One journal entry: a deterministic timestamp plus the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time in nanoseconds (zero for standalone components).
    pub t_nanos: u64,
    /// What happened.
    pub kind: EventKind,
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.t_nanos / 1_000_000_000;
        let millis = (self.t_nanos / 1_000_000) % 1_000;
        write!(f, "[{secs:>5}.{millis:03}s] {}", self.kind)
    }
}

/// One lane record: the event plus its canonical position.
#[derive(Clone, Copy)]
struct TaggedEvent {
    tag: DispatchKey,
    sub: u64,
    event: Event,
}

#[derive(Default)]
struct LaneBuf {
    records: VecDeque<TaggedEvent>,
    next_sub: u64,
    evicted: u64,
}

/// Lane-striped journal. Lane 0 is the main thread (one-shard runs, chaos);
/// sharded simulator workers write lanes `1..n`.
pub(crate) struct Journal {
    lanes: [Mutex<LaneBuf>; MAX_LANES],
    capacity: usize,
}

impl Journal {
    pub fn new(capacity: usize) -> Self {
        Journal {
            lanes: std::array::from_fn(|_| Mutex::new(LaneBuf::default())),
            capacity,
        }
    }

    pub fn push(&self, lane: usize, tag: DispatchKey, event: Event) {
        let mut buf = self.lanes[lane.min(MAX_LANES - 1)]
            .lock()
            .expect("journal lane poisoned");
        let sub = buf.next_sub;
        buf.next_sub += 1;
        if buf.records.len() == LANE_SOFT_CAP {
            buf.records.pop_front();
            buf.evicted += 1;
        }
        buf.records.push_back(TaggedEvent { tag, sub, event });
    }

    /// All records, merged into canonical order (not yet capped).
    fn merged(&self) -> (Vec<TaggedEvent>, u64) {
        let mut all: Vec<(TaggedEvent, usize)> = Vec::new();
        let mut evicted = 0;
        for (lane, buf) in self.lanes.iter().enumerate() {
            let buf = buf.lock().expect("journal lane poisoned");
            evicted += buf.evicted;
            all.extend(buf.records.iter().map(|r| (*r, lane)));
        }
        all.sort_by_key(|(r, lane)| (r.tag, *lane, r.sub));
        (all.into_iter().map(|(r, _)| r).collect(), evicted)
    }

    pub fn len(&self) -> usize {
        let total: usize = self
            .lanes
            .iter()
            .map(|b| b.lock().expect("journal lane poisoned").records.len())
            .sum();
        total.min(self.capacity)
    }

    pub fn dropped(&self) -> u64 {
        let mut total = 0usize;
        let mut evicted = 0u64;
        for buf in &self.lanes {
            let buf = buf.lock().expect("journal lane poisoned");
            total += buf.records.len();
            evicted += buf.evicted;
        }
        evicted + total.saturating_sub(self.capacity) as u64
    }

    /// Retained events in canonical order, oldest first: the last
    /// `capacity` records of the merged stream.
    pub fn events(&self) -> Vec<Event> {
        let (merged, _) = self.merged();
        let skip = merged.len().saturating_sub(self.capacity);
        merged[skip..].iter().map(|r| r.event).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, peer: u32) -> Event {
        Event {
            t_nanos: t,
            kind: EventKind::SessionBackoff { peer, level: 1 },
        }
    }

    fn key(at: u64, dst: u32, src: u32, seq: u64) -> DispatchKey {
        DispatchKey {
            at_nanos: at,
            class: 1,
            dst,
            src,
            seq,
        }
    }

    #[test]
    fn lanes_merge_in_dispatch_order_not_arrival_order() {
        let j = Journal::new(16);
        // Lane 2 records "later" events first — wall-clock arrival order
        // must not matter.
        j.push(2, key(10, 7, 1, 0), ev(10, 7));
        j.push(1, key(5, 3, 0, 0), ev(5, 3));
        j.push(1, key(10, 2, 9, 4), ev(10, 2));
        let events = j.events();
        let times: Vec<u64> = events.iter().map(|e| e.t_nanos).collect();
        assert_eq!(times, vec![5, 10, 10]);
        // At t=10, dst 2 sorts before dst 7.
        let peers: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::SessionBackoff { peer, .. } => peer,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(peers, vec![3, 2, 7]);
    }

    #[test]
    fn outside_records_sort_after_in_loop_records_at_same_time() {
        let j = Journal::new(16);
        j.push(0, DispatchKey::outside(10), ev(10, 100));
        j.push(1, key(10, 0, 0, 0), ev(10, 200));
        let events = j.events();
        let peers: Vec<u32> = events
            .iter()
            .map(|e| match e.kind {
                EventKind::SessionBackoff { peer, .. } => peer,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(peers, vec![200, 100]);
    }

    #[test]
    fn capacity_keeps_newest_and_counts_dropped() {
        let j = Journal::new(4);
        for i in 0..10u64 {
            j.push(0, DispatchKey::outside(i), ev(i, i as u32));
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.dropped(), 6);
        let events = j.events();
        assert_eq!(events.first().unwrap().t_nanos, 6);
        assert_eq!(events.last().unwrap().t_nanos, 9);
    }
}
