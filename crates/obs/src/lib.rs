//! Platform-wide observability: a metrics registry and a structured
//! event journal, both deterministic and allocation-free on hot paths.
//!
//! The registry interns metric names to dense [`MetricId`]s and hands out
//! cheap clone-able handles ([`Counter`], [`Gauge`], [`Histogram`]) backed
//! by shared atomic cells, so instrumented code increments a plain integer
//! — no lock, no lookup, no allocation per event. Label dimensions
//! (per-neighbor, per-experiment, per-pop) are encoded into the metric
//! name at registration time from the same compact slot indexes the data
//! plane already uses, so a hot loop never formats a string.
//!
//! The journal is a bounded store of typed [`Event`]s stamped from a clock
//! the simulator advances. Runs are seeded, and when the simulator shards
//! its event loop across worker threads each thread writes its own journal
//! *lane* (see [`set_thread_lane`]); records carry the [`DispatchKey`] of
//! the simulator event that produced them, and reads merge lanes in that
//! key's order. Identical seeds therefore produce byte-identical journals
//! and [`registry snapshots`](Obs::snapshot) at 1, 2 or N shards — which
//! is what lets tests assert on them and lets the convergence oracle
//! attach "what led up to this" to an invariant violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod journal;
mod registry;
mod snapshot;

pub use journal::{DispatchKey, Event, EventKind, DELIVERY_TABLE, JOURNAL_CAPACITY, MAX_LANES};
pub use registry::{Counter, Gauge, Histogram, MetricId};
pub use snapshot::{Snapshot, SnapshotValue};

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use journal::Journal;
use registry::{Registry, SharedRegistry};

thread_local! {
    static THREAD_LANE: Cell<usize> = const { Cell::new(0) };
    static DISPATCH_KEY: Cell<Option<DispatchKey>> = const { Cell::new(None) };
}

/// Bind the current thread to a journal lane (0 .. [`MAX_LANES`]).
///
/// The sharded simulator calls this once per worker thread so concurrent
/// [`Obs::record`] calls never contend and can be merged deterministically.
/// Lane 0 is the default for the main thread and standalone components.
pub fn set_thread_lane(lane: usize) {
    THREAD_LANE.with(|l| l.set(lane.min(MAX_LANES - 1)));
}

/// The journal lane the current thread writes to.
pub fn thread_lane() -> usize {
    THREAD_LANE.with(|l| l.get())
}

/// Declare the simulator event the current thread is about to dispatch.
///
/// Every [`Obs::record`] until the next [`clear_dispatch_key`] is tagged
/// with `key`, which fixes its position in the merged journal independent
/// of thread scheduling.
pub fn set_dispatch_key(key: DispatchKey) {
    DISPATCH_KEY.with(|k| k.set(Some(key)));
}

/// Mark the current thread as outside any event dispatch; subsequent
/// records are tagged as out-of-loop at their clock time.
pub fn clear_dispatch_key() {
    DISPATCH_KEY.with(|k| k.set(None));
}

/// Shared observability handle: one underlying registry + journal +
/// deterministic clock, cheaply cloned into every instrumented component.
///
/// Cloning shares the same storage; [`Obs::scoped`] returns a handle that
/// prefixes every metric it registers (e.g. `pop0/`), which is how one
/// platform-wide registry hosts many routers without name collisions.
#[derive(Clone)]
pub struct Obs {
    prefix: String,
    /// One clock per journal lane; each simulator worker advances only
    /// its own lane's clock, so stamps stay deterministic without locks.
    clocks: Arc<[AtomicU64; MAX_LANES]>,
    registry: Arc<SharedRegistry>,
    journal: Arc<Journal>,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// A fresh registry + journal with the clock at zero.
    pub fn new() -> Self {
        Obs {
            prefix: String::new(),
            clocks: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
            registry: Arc::new(SharedRegistry::new(Registry::new())),
            journal: Arc::new(Journal::new(JOURNAL_CAPACITY)),
        }
    }

    /// A handle onto the same storage that registers every metric under
    /// `scope` + `/`. Scopes nest: `obs.scoped("pop0").scoped("mux")`
    /// registers under `pop0/mux/`.
    pub fn scoped(&self, scope: &str) -> Obs {
        let mut child = self.clone();
        child.prefix = format!("{}{scope}/", self.prefix);
        child
    }

    /// True if `other` shares this handle's underlying storage.
    pub fn same_store(&self, other: &Obs) -> bool {
        Arc::ptr_eq(&self.registry, &other.registry)
    }

    // --- deterministic clock ---------------------------------------------

    /// Advance the journal clock for the current thread's lane (the
    /// simulator calls this as simulated time moves; standalone
    /// components leave it at zero).
    pub fn set_now_nanos(&self, nanos: u64) {
        self.clocks[thread_lane()].store(nanos, Ordering::Relaxed);
    }

    /// Current journal clock for this thread's lane.
    pub fn now_nanos(&self) -> u64 {
        self.clocks[thread_lane()].load(Ordering::Relaxed)
    }

    // --- metric registration ---------------------------------------------

    fn full_name(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}{name}", self.prefix)
        }
    }

    /// Intern a metric name (scoped by this handle's prefix) to its id.
    pub fn metric_id(&self, name: &str) -> MetricId {
        self.registry
            .lock()
            .expect("obs registry poisoned")
            .intern(&self.full_name(name))
    }

    /// A monotonic counter handle. Idempotent: the same name always
    /// resolves to the same underlying cell.
    ///
    /// # Panics
    /// Panics if `name` was already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let id = self.metric_id(name);
        self.registry
            .lock()
            .expect("obs registry poisoned")
            .counter(id)
    }

    /// A counter carrying one label dimension encoded as a compact index,
    /// e.g. `counter_dim("mux.egress_pkts", "nbr", 3)` registers
    /// `mux.egress_pkts{nbr=3}`. The formatting happens once, here.
    pub fn counter_dim(&self, name: &str, dim: &str, idx: u32) -> Counter {
        self.counter(&format!("{name}{{{dim}={idx}}}"))
    }

    /// A gauge handle (a settable signed level).
    pub fn gauge(&self, name: &str) -> Gauge {
        let id = self.metric_id(name);
        self.registry
            .lock()
            .expect("obs registry poisoned")
            .gauge(id)
    }

    /// A gauge carrying one label dimension (see [`Obs::counter_dim`]).
    pub fn gauge_dim(&self, name: &str, dim: &str, idx: u32) -> Gauge {
        self.gauge(&format!("{name}{{{dim}={idx}}}"))
    }

    /// A fixed-bucket histogram handle. `bounds` are inclusive upper
    /// bucket bounds; one overflow bucket is added past the last bound.
    /// Re-registering must use identical bounds.
    pub fn histogram(&self, name: &str, bounds: &'static [u64]) -> Histogram {
        let id = self.metric_id(name);
        self.registry
            .lock()
            .expect("obs registry poisoned")
            .histogram(id, bounds)
    }

    // --- journal ----------------------------------------------------------

    /// Append a typed event, stamped with the current lane clock and
    /// tagged with the thread's dispatch key (see [`set_dispatch_key`]).
    pub fn record(&self, kind: EventKind) {
        let lane = thread_lane();
        let nanos = self.clocks[lane].load(Ordering::Relaxed);
        let tag = DISPATCH_KEY
            .with(|k| k.get())
            .unwrap_or_else(|| DispatchKey::outside(nanos));
        self.journal.push(
            lane,
            tag,
            Event {
                t_nanos: nanos,
                kind,
            },
        );
    }

    /// Copy of the retained journal contents in canonical (dispatch-key)
    /// order, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.journal.events()
    }

    /// Number of events currently retained.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Events evicted because the journal was full.
    pub fn journal_dropped(&self) -> u64 {
        self.journal.dropped()
    }

    /// Render the most recent `last` events, one per line — the
    /// attachment the oracle ships with an invariant violation.
    pub fn journal_tail(&self, last: usize) -> String {
        let events = self.events();
        let skip = events.len().saturating_sub(last);
        let mut out = String::new();
        for ev in &events[skip..] {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// FNV-1a digest of the rendered journal (canonical order). Two runs
    /// with identical journals produce identical digests, so determinism
    /// tests can compare a single u64 instead of whole transcripts.
    pub fn journal_digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf29ce484222325;
        for ev in self.events() {
            for byte in ev.to_string().bytes().chain(std::iter::once(b'\n')) {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x100000001b3);
            }
        }
        hash
    }

    // --- snapshot ---------------------------------------------------------

    /// A stable, name-sorted snapshot of every registered metric.
    pub fn snapshot(&self) -> Snapshot {
        self.registry
            .lock()
            .expect("obs registry poisoned")
            .snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let obs = Obs::new();
        let a = obs.counter("x.count");
        let b = obs.counter("x.count");
        a.add(3);
        b.inc();
        assert_eq!(obs.snapshot().counter("x.count"), Some(4));
    }

    #[test]
    fn scoped_handles_prefix_names() {
        let obs = Obs::new();
        let pop = obs.scoped("pop0");
        pop.counter("router.drops").add(2);
        assert_eq!(obs.snapshot().counter("pop0/router.drops"), Some(2));
        assert!(obs.same_store(&pop));
    }

    #[test]
    fn snapshot_is_sorted_and_stable_across_registration_order() {
        let a = Obs::new();
        a.counter("b").inc();
        a.gauge("a").set(7);
        let b = Obs::new();
        b.gauge("a").set(7);
        b.counter("b").inc();
        assert_eq!(a.snapshot().to_text(), b.snapshot().to_text());
        let snap = a.snapshot();
        let names: Vec<&str> = snap.names().collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    #[should_panic(expected = "registered as a different kind")]
    fn kind_mismatch_panics() {
        let obs = Obs::new();
        obs.counter("x");
        obs.gauge("x");
    }

    #[test]
    fn journal_stamps_from_clock_and_bounds_size() {
        let obs = Obs::new();
        obs.set_now_nanos(5_000_000_000);
        obs.record(EventKind::ChaosInjection {
            link: 3,
            change: "link-down",
        });
        let events = obs.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].t_nanos, 5_000_000_000);
        for _ in 0..(JOURNAL_CAPACITY + 10) {
            obs.record(EventKind::IcmpSuppressed { reason: "test" });
        }
        assert_eq!(obs.journal_len(), JOURNAL_CAPACITY);
        assert_eq!(obs.journal_dropped(), 11);
    }

    #[test]
    fn histogram_buckets_observe() {
        let obs = Obs::new();
        let h = obs.histogram("sizes", &[1, 8, 64]);
        for v in [0, 1, 5, 9, 100] {
            h.observe(v);
        }
        let snap = obs.snapshot();
        let Some(SnapshotValue::Histogram {
            buckets,
            count,
            sum,
            ..
        }) = snap.get("sizes")
        else {
            panic!("missing histogram");
        };
        assert_eq!(buckets, &[2, 1, 1, 1]);
        assert_eq!(*count, 5);
        assert_eq!(*sum, 115);
    }

    #[test]
    fn journal_digest_tracks_content() {
        let a = Obs::new();
        let b = Obs::new();
        for obs in [&a, &b] {
            obs.set_now_nanos(7);
            obs.record(EventKind::IcmpSuppressed { reason: "x" });
        }
        assert_eq!(a.journal_digest(), b.journal_digest());
        b.record(EventKind::IcmpSuppressed { reason: "y" });
        assert_ne!(a.journal_digest(), b.journal_digest());
    }

    #[test]
    fn lane_records_merge_by_dispatch_key() {
        let obs = Obs::new();
        obs.set_now_nanos(20);
        set_dispatch_key(DispatchKey {
            at_nanos: 20,
            class: 1,
            dst: 5,
            src: 0,
            seq: 0,
        });
        obs.record(EventKind::IcmpSuppressed { reason: "late" });
        set_dispatch_key(DispatchKey {
            at_nanos: 10,
            class: 1,
            dst: 1,
            src: 0,
            seq: 0,
        });
        obs.set_now_nanos(10);
        obs.record(EventKind::IcmpSuppressed { reason: "early" });
        clear_dispatch_key();
        let events = obs.events();
        assert_eq!(events[0].t_nanos, 10);
        assert_eq!(events[1].t_nanos, 20);
    }
}
