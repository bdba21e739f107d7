//! The simulator: nodes, ports, links and the event loop.
//!
//! A [`Simulator`] owns a set of [`Node`]s connected by point-to-point
//! [`Link`]s. Nodes react to frames and timers through a [`Ctx`] handle that
//! collects their outputs; the simulator applies those outputs after each
//! callback, keeping borrows simple and execution deterministic.
//!
//! # One windowed engine over owned shards
//!
//! The nodes are partitioned into shards ([`Simulator::set_shards`]; one by
//! default). A shard owns its nodes, its event queue and one outbox per
//! destination shard. Every run advances in windows `[gvt, end)`: `gvt` is
//! the global minimum event time, and `end` is chosen so that no frame
//! emitted inside the window can reach another shard before the window
//! closes, so within it every shard runs independently. On one shard the
//! window runs inline on the caller's thread. With more shards, each shard
//! with due events is moved by value to its worker on a persistent pinned
//! pool (one thread per shard, spawned once per shard-count change and
//! parked on a channel between windows), and the worker sends it back on
//! the done channel. At that barrier the coordinator drains the outboxes
//! into the destination queues. Chaos steps are applied by the coordinator
//! between windows (a window never crosses a chaos timestamp), so link
//! state is frozen while shards run.
//!
//! Window bounds are adaptive. The sound bound is `min over shards s with
//! pending events of (t_s + L_out(s))`, where `t_s` is shard `s`'s earliest
//! queued event and `L_out(s)` the minimum latency of its cross-shard
//! links: any cross-shard arrival emitted during the window is the end of a
//! causal chain starting at an event at or after `t_s` whose final hop adds
//! at least `L_out(s)`. Below that sits a doubling heuristic cap — windows
//! widen while no cross-shard traffic appears and snap back to the minimum
//! cross-shard latency when an outbox carries a frame — purely to pace
//! barrier frequency; soundness never depends on it, so the window
//! schedule is unobservable in the results. A wired zero-latency link
//! between two shards leaves no such window, so a layout with one runs as a
//! single shard.
//!
//! Runs are bit-identical at any shard count because nothing observable
//! depends on the layout:
//!
//! * events are ordered by an intrinsic [`EventKey`] rather than a global
//!   insertion counter, so each shard pops its events in the same order the
//!   single-shard run would;
//! * every node and every link direction draws from its own seeded
//!   [`SimRng`] stream, so the random rolls a frame sees depend only on
//!   which link carried it and how many frames preceded it there;
//! * observability records carry their dispatch key and merge canonically
//!   (see `peering-obs`), so snapshots and journal digests match too.
//!
//! [`Simulator::run_until_idle`] counts its event budget inside windows and
//! before every chaos step: on one shard it stops after exactly the budget,
//! with more shards at the barrier of the window that spent it. A panic on
//! a shard worker does not abort the process: the worker sends its shard
//! back with the panic message, the simulator is poisoned, and the
//! coordinator re-raises a diagnostic naming the shard, the window bounds
//! and the journal tail.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};

use peering_obs::{Counter, DispatchKey, EventKind as ObsEvent, Obs, MAX_LANES};

use crate::chaos::{ChaosChange, ChaosPlan};
use crate::event::{Event, EventKey, EventKind, EventQueue, CLASS_CHAOS, CLASS_NODE, EXTERNAL_SRC};
use crate::frame::EtherFrame;
use crate::link::{FaultInjector, Link, LinkConfig, LinkStats, TxOutcome};
use crate::time::{SimDuration, SimTime};

/// Identifies a node within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies a port on a node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PortId(pub u16);

/// Identifies a link within a simulator.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub u32);

/// The two `(node, port)` endpoints of a link.
pub type LinkEnds = ((NodeId, PortId), (NodeId, PortId));

/// Deterministic pseudo-random source for fault injection (SplitMix64).
///
/// Everything random in the simulator — loss rolls, corruption positions —
/// draws from one of these. Each node and each link direction owns an
/// independent stream derived from the simulator seed, so the rolls a
/// component sees depend only on its own history, never on how the
/// simulator's work is partitioned across shards.
#[derive(Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: seed.wrapping_add(0x9e37_79b9_7f4a_7c15),
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound` must be non-zero).
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift mapping: fine for fault injection, avoids modulo
        // bias better than `% bound` for small bounds.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }
}

/// Salt mixed into per-node RNG streams (`"NODE"` in ASCII, high bits).
const NODE_STREAM_SALT: u64 = 0x4E4F_4445_0000_0000;

/// Salt mixed into per-link-direction RNG streams (`"LINK"` in ASCII).
const LINK_STREAM_SALT: u64 = 0x4C49_4E4B_0000_0000;

/// Derive an independent stream from the simulator seed and a stable salt.
fn stream(seed: u64, salt: u64) -> SimRng {
    let mut mixer = SimRng::new(salt);
    SimRng::new(seed ^ mixer.next_u64())
}

/// Behaviour plugged into the simulator.
///
/// Implementors are event-driven: they receive frames and timer expirations,
/// and emit frames / arm timers through the [`Ctx`]. The `Any` supertrait
/// lets callers downcast back to the concrete type via [`Simulator::node`];
/// the `Send` supertrait lets sharded-parallel runs move whole shards onto
/// worker threads.
pub trait Node: Any + Send {
    /// A frame arrived on `port`.
    fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame);

    /// Several frames arrived on `port` at the same instant. The simulator
    /// coalesces same-time deliveries to one `(node, port)` into a single
    /// call so nodes with a batched fast path can amortize per-packet work;
    /// the default just replays them through [`Node::on_frame`] in order.
    fn on_frames(&mut self, ctx: &mut Ctx<'_>, port: PortId, frames: Vec<EtherFrame>) {
        for frame in frames {
            self.on_frame(ctx, port, frame);
        }
    }

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Human-readable label for diagnostics.
    fn label(&self) -> String {
        "node".to_string()
    }
}

enum Action {
    Send { port: PortId, frame: EtherFrame },
    Timer { at: SimTime, token: u64 },
}

/// Handle given to node callbacks for interacting with the simulation.
pub struct Ctx<'a> {
    now: SimTime,
    node: NodeId,
    actions: &'a mut Vec<Action>,
    rng: &'a mut SimRng,
}

impl<'a> Ctx<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node being called.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Transmit a frame out of `port`. If the port is unconnected the frame
    /// is silently discarded (counted by the simulator).
    pub fn send_frame(&mut self, port: PortId, frame: EtherFrame) {
        self.actions.push(Action::Send { port, frame });
    }

    /// Arm a timer that fires after `delay` with the given token.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::Timer {
            at: self.now + delay,
            token,
        });
    }

    /// Deterministic randomness: this node's private stream, derived from
    /// the simulator seed at registration.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }
}

/// A node's storage: the behaviour box, its private RNG stream and the
/// per-source sequence counter that numbers the events it emits.
struct NodeSlot {
    node: Box<dyn Node>,
    rng: SimRng,
    seq: u64,
    /// Reusable action buffer: drained by `apply_actions` after every
    /// callback, so it is always empty between dispatches. Keeping it in
    /// the slot means the per-event `Vec` allocation happens once per node
    /// instead of once per dispatch.
    actions: Vec<Action>,
}

/// Where a node's slot lives: its shard and its position in that shard's
/// `nodes`.
#[derive(Clone, Copy)]
struct NodeLoc {
    shard: u32,
    index: u32,
}

/// A link plus its endpoints and the two per-direction fault-roll streams.
struct LinkState {
    link: Link,
    ends: [(NodeId, PortId); 2],
    rngs: [SimRng; 2],
}

/// What every shard reads during a window: the wiring, the node placement
/// and the metric handles. A pool worker holds an `Arc` of it only while it
/// runs a window, so between windows the simulator is the sole owner and
/// changes it through [`Arc::get_mut`]. Links sit behind mutexes because
/// two shards may transmit the two directions of one cross-shard link
/// concurrently; each direction's state (queue backlog, stats, RNG) still
/// has a single deterministic writer.
struct Shared {
    links: Vec<Mutex<LinkState>>,
    ports: HashMap<(NodeId, PortId), (LinkId, usize)>,
    /// Where each node id's slot is; nodes move only in
    /// `Simulator::ensure_partition`.
    loc: Vec<NodeLoc>,
    counters: SimCounters,
    obs: Obs,
}

impl Shared {
    /// The shard holding node `dst` (events for unknown ids go to shard 0,
    /// whose dispatch drops them).
    fn shard_of(&self, dst: u32) -> usize {
        self.loc.get(dst as usize).map_or(0, |l| l.shard as usize)
    }
}

/// One shard: the nodes it owns, their pending events, and the events they
/// emitted this window for nodes on other shards. Moved by value to a pool
/// worker for a window and back at the barrier.
#[derive(Default)]
struct Shard {
    index: usize,
    nodes: Vec<NodeSlot>,
    queue: EventQueue,
    /// `outbox[d]`: this window's events for shard `d`, drained into its
    /// queue by the coordinator at the barrier.
    outbox: Vec<Vec<Event>>,
    /// Reusable buffer for the events one dispatch emits.
    out: Vec<Event>,
}

impl Shard {
    fn new(index: usize, shards: usize) -> Self {
        Shard {
            index,
            outbox: (0..shards).map(|_| Vec::new()).collect(),
            ..Shard::default()
        }
    }
}

/// The simulator's own metric handles (cloneable, atomics-backed).
#[derive(Clone)]
struct SimCounters {
    link_drops: Counter,
    corrupted: Counter,
    duplicated: Counter,
    reordered: Counter,
    chaos_steps: Counter,
}

impl SimCounters {
    fn register(obs: &Obs) -> Self {
        SimCounters {
            link_drops: obs.counter("netsim.link_drops"),
            corrupted: obs.counter("netsim.frames_corrupted"),
            duplicated: obs.counter("netsim.frames_duplicated"),
            reordered: obs.counter("netsim.frames_reordered"),
            chaos_steps: obs.counter("netsim.chaos_steps"),
        }
    }
}

/// Per-window tallies, merged into the simulator at the barrier (the sums
/// are commutative, so merge order cannot affect the result).
#[derive(Default)]
struct LocalStats {
    unrouted: u64,
    processed: u64,
}

/// Everything an event dispatch needs besides the shard it runs in.
struct DispatchEnv<'a> {
    shared: &'a Shared,
    out: &'a mut Vec<Event>,
    stats: &'a mut LocalStats,
}

fn key_for(at: SimTime, dst: u32, src: u32, seq: &mut u64) -> EventKey {
    let key = EventKey {
        at,
        class: CLASS_NODE,
        dst,
        src,
        seq: *seq,
    };
    *seq += 1;
    key
}

/// Apply a node's (or an external driver's) buffered actions: arm timers and
/// offer frames to links. Emitted events go to `env.out`; the caller routes
/// them to the right shard queue.
fn apply_actions(
    env: &mut DispatchEnv<'_>,
    node: NodeId,
    now: SimTime,
    actions: &mut Vec<Action>,
    src: u32,
    seq: &mut u64,
) {
    for action in actions.drain(..) {
        match action {
            Action::Timer { at, token } => {
                env.out.push(Event {
                    key: key_for(at, node.0, src, seq),
                    kind: EventKind::Timer { node, token },
                });
            }
            Action::Send { port, frame } => {
                let Some(&(link_id, end)) = env.shared.ports.get(&(node, port)) else {
                    env.stats.unrouted += 1;
                    continue;
                };
                let counters = &env.shared.counters;
                let mut guard = env.shared.links[link_id.0 as usize]
                    .lock()
                    .expect("link lock poisoned");
                let state = &mut *guard;
                let rng = &mut state.rngs[end];
                let drop_roll = rng.below(100) as u8;
                let corrupt_roll = rng.below(100) as u8;
                let is_data_plane = matches!(
                    frame.ethertype,
                    crate::frame::EtherType::Ipv4 | crate::frame::EtherType::Ipv6
                );
                let (outcome, corrupt) = state.link.transmit_typed(
                    end,
                    now,
                    frame.wire_len(),
                    drop_roll,
                    corrupt_roll,
                    is_data_plane,
                );
                if matches!(outcome, TxOutcome::Dropped) {
                    counters.link_drops.inc();
                }
                if let TxOutcome::Deliver(at) = outcome {
                    let (dst_node, dst_port) = state.ends[1 - end];
                    let faults = state.link.config.faults;
                    let rng = &mut state.rngs[end];
                    let mut frame = frame;
                    if corrupt && !frame.payload.is_empty() {
                        let mut payload = frame.payload.to_vec();
                        let idx = rng.below(payload.len() as u64) as usize;
                        payload[idx] ^= 1 << rng.below(8);
                        frame.payload = payload.into();
                        counters.corrupted.inc();
                    }
                    // Reorder/duplicate rolls are only drawn when the
                    // link configures them, so runs without these faults
                    // keep their exact RNG stream.
                    let mut at = at;
                    let mut duplicate = false;
                    if faults.perturbs_delivery() && (is_data_plane || !faults.data_plane_only) {
                        let reorder_roll = rng.below(100) as u8;
                        let dup_roll = rng.below(100) as u8;
                        if reorder_roll < faults.reorder_pct
                            && faults.reorder_window > SimDuration::ZERO
                        {
                            let extra = rng.below(faults.reorder_window.as_nanos().max(1));
                            at += SimDuration::from_nanos(extra);
                            counters.reordered.inc();
                        }
                        duplicate = dup_roll < faults.duplicate_pct;
                    }
                    if duplicate {
                        counters.duplicated.inc();
                        env.out.push(Event {
                            key: key_for(at, dst_node.0, src, seq),
                            kind: EventKind::FrameDelivery {
                                node: dst_node,
                                port: dst_port,
                                frame: frame.clone(),
                            },
                        });
                    }
                    env.out.push(Event {
                        key: key_for(at, dst_node.0, src, seq),
                        kind: EventKind::FrameDelivery {
                            node: dst_node,
                            port: dst_port,
                            frame,
                        },
                    });
                }
            }
        }
    }
}

/// Run one node callback and apply the actions it buffered.
fn dispatch_node(
    env: &mut DispatchEnv<'_>,
    now: SimTime,
    id: NodeId,
    slot: &mut NodeSlot,
    f: impl FnOnce(&mut dyn Node, &mut Ctx<'_>),
) {
    let NodeSlot {
        node,
        rng,
        seq,
        actions,
    } = slot;
    let mut ctx = Ctx {
        now,
        node: id,
        actions,
        rng,
    };
    f(node.as_mut(), &mut ctx);
    apply_actions(env, id, now, actions, id.0, seq);
}

/// The slot of node `id` among a shard's `nodes`, if the node exists.
fn slot_in<'n>(shared: &Shared, nodes: &'n mut [NodeSlot], id: NodeId) -> Option<&'n mut NodeSlot> {
    let loc = shared.loc.get(id.0 as usize)?;
    nodes.get_mut(loc.index as usize)
}

/// Process one node event popped from `queue`. Same-instant deliveries to
/// the same `(node, port)` are coalesced from the queue head into one
/// batched callback, as long as the window's event `budget` lasts. Chaos
/// events never reach here — the coordinator applies them between windows.
fn process_node_event(
    env: &mut DispatchEnv<'_>,
    event: Event,
    queue: &mut EventQueue,
    nodes: &mut [NodeSlot],
    budget: u64,
) {
    let key = event.key;
    let now = key.at;
    env.shared.obs.set_now_nanos(now.as_nanos());
    peering_obs::set_dispatch_key(DispatchKey {
        at_nanos: now.as_nanos(),
        class: key.class,
        dst: key.dst,
        src: key.src,
        seq: key.seq,
    });
    env.stats.processed += 1;
    match event.kind {
        EventKind::FrameDelivery { node, port, frame } => {
            // Coalesce the consecutive deliveries for the same instant,
            // node and port into one batched callback. Only head-of-queue
            // events are taken, so the key order across nodes is untouched.
            let mut batch: Option<Vec<EtherFrame>> = None;
            while env.stats.processed < budget {
                let Some(next) = queue.peek() else {
                    break;
                };
                let same = next.key.at == now
                    && matches!(
                        &next.kind,
                        EventKind::FrameDelivery { node: n, port: p, .. }
                            if *n == node && *p == port
                    );
                if !same {
                    break;
                }
                let Some(ev) = queue.pop() else {
                    break;
                };
                let EventKind::FrameDelivery { frame, .. } = ev.kind else {
                    unreachable!("peek said FrameDelivery");
                };
                env.stats.processed += 1;
                batch
                    .get_or_insert_with(|| Vec::with_capacity(4))
                    .push(frame);
            }
            let Some(slot) = slot_in(env.shared, nodes, node) else {
                return;
            };
            match batch {
                None => dispatch_node(env, now, node, slot, |n, ctx| n.on_frame(ctx, port, frame)),
                Some(mut rest) => {
                    rest.insert(0, frame);
                    dispatch_node(env, now, node, slot, |n, ctx| n.on_frames(ctx, port, rest));
                }
            }
        }
        EventKind::Timer { node, token } => {
            if let Some(slot) = slot_in(env.shared, nodes, node) {
                dispatch_node(env, now, node, slot, |n, ctx| n.on_timer(ctx, token));
            }
        }
        EventKind::Chaos(_) => unreachable!("chaos events are applied between windows"),
    }
}

/// Execute `shard`'s events due before `end`, stopping once `budget`
/// events have been processed. Events a dispatch emits for the shard's own
/// nodes go straight back into its queue; the rest wait in its outboxes
/// for the barrier. Returns the window's tallies and the time of its last
/// event (`start` if it ran none).
fn run_window(
    shard: &mut Shard,
    shared: &Shared,
    start: SimTime,
    end: SimTime,
    budget: u64,
) -> (LocalStats, SimTime) {
    let Shard {
        index,
        nodes,
        queue,
        outbox,
        out,
    } = shard;
    let mut stats = LocalStats::default();
    let mut last = start;
    while stats.processed < budget && queue.peek_time().is_some_and(|t| t < end) {
        let ev = queue.pop().expect("peeked event");
        debug_assert!(ev.key.at >= last, "time went backwards");
        last = ev.key.at;
        let mut env = DispatchEnv {
            shared,
            out: &mut *out,
            stats: &mut stats,
        };
        process_node_event(&mut env, ev, queue, nodes, budget);
        for e in out.drain(..) {
            let dst = shared.shard_of(e.key.dst);
            if dst == *index {
                queue.push(e.key, e.kind);
            } else {
                outbox[dst].push(e);
            }
        }
    }
    (stats, last)
}

/// Default ceiling for the adaptive-window doubling multiplier: windows
/// may widen up to `4096 × min cross-shard latency` while no cross-shard
/// traffic appears. Purely a barrier-pacing heuristic — any value ≥ 1
/// yields bit-identical results (see `tests/props.rs`).
const DEFAULT_WINDOW_CAP: u64 = 4096;

/// One window of work for one shard, sent to its pool worker, which sends
/// the shard back in a [`WorkerDone`].
struct Window {
    shard: Shard,
    shared: Arc<Shared>,
    start: SimTime,
    end: SimTime,
    budget: u64,
}

/// A worker's end-of-window report: the shard, plus the window's tallies
/// or, when the shard panicked mid-window, the panic message.
struct WorkerDone {
    shard: Shard,
    result: Result<(LocalStats, SimTime), String>,
}

/// Persistent pinned worker pool: one thread per shard, spawned once per
/// shard-count change and parked on a blocking channel `recv` between
/// windows, so a run pays the spawn cost once rather than per window.
struct WorkerPool {
    jobs: Vec<mpsc::Sender<Window>>,
    done_rx: mpsc::Receiver<WorkerDone>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(shards: usize) -> Self {
        let (done_tx, done_rx) = mpsc::channel();
        let mut jobs = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = mpsc::channel();
            let done = done_tx.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("netsim-shard-{shard}"))
                    .spawn(move || worker_main(shard, rx, done))
                    .expect("spawn shard worker"),
            );
            jobs.push(tx);
        }
        WorkerPool {
            jobs,
            done_rx,
            handles,
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's `recv` loop.
        self.jobs.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Body of a pool worker: park on `recv`, run the window, send the shard
/// back, repeat. Panics inside a window are caught and shipped back as a
/// diagnostic so the coordinator can poison the run instead of aborting
/// opaquely.
fn worker_main(shard: usize, rx: mpsc::Receiver<Window>, done: mpsc::Sender<WorkerDone>) {
    // Lane 0 is the main thread; workers are 1-based so each shard's
    // journal records stay distinguishable.
    peering_obs::set_thread_lane(shard + 1);
    while let Ok(Window {
        mut shard,
        shared,
        start,
        end,
        budget,
    }) = rx.recv()
    {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_window(&mut shard, &shared, start, end, budget)
        }))
        .map_err(|payload| panic_message(payload.as_ref()));
        // Let go of the shared state before reporting, so the coordinator
        // owns it alone once every worker is back.
        drop(shared);
        peering_obs::clear_dispatch_key();
        if done.send(WorkerDone { shard, result }).is_err() {
            break;
        }
    }
}

/// Render a caught panic payload for the poison diagnostic.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `t + d` in nanoseconds, saturating (the "no cross-shard links" bound is
/// effectively infinite).
fn sat_add(t: SimTime, d: SimDuration) -> SimTime {
    SimTime::from_nanos(t.as_nanos().saturating_add(d.as_nanos()))
}

/// The discrete-event simulator.
pub struct Simulator {
    time: SimTime,
    /// Requested shard count (see [`Simulator::set_shards`]).
    shards: usize,
    /// Requested shard per node id; `ensure_partition` applies it.
    node_shard: Vec<u32>,
    /// The shards. A slot is an empty placeholder only while its shard is
    /// out on a pool worker.
    parts: Vec<Shard>,
    /// Chaos steps, applied by the coordinator between windows.
    chaos_queue: EventQueue,
    /// Sequence counter for externally-pushed events (`src = EXTERNAL_SRC`).
    ext_seq: u64,
    /// Sequence counter for chaos events.
    chaos_seq: u64,
    needs_repartition: bool,
    shared: Arc<Shared>,
    seed: u64,
    /// Control-plane stream for callers ([`Simulator::rng_mut`]), e.g. chaos
    /// plan generation; node callbacks use their own per-node streams.
    rng: SimRng,
    /// Frames sent to unconnected ports (usually a wiring bug in a scenario).
    pub unrouted_frames: u64,
    /// Total events processed.
    pub processed_events: u64,
    /// Persistent worker pool, built on the first multi-shard window and
    /// rebuilt when the shard count changes.
    pool: Option<WorkerPool>,
    /// Fatal diagnostic from a panicked shard worker. Node state inside
    /// the panicked window is torn, so every subsequent run re-raises it.
    poisoned: Option<String>,
    /// Adaptive-window doubling ceiling (see [`Simulator::set_window_cap`]).
    window_cap: u64,
}

impl Simulator {
    /// Create a simulator with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        let obs = Obs::new();
        let counters = SimCounters::register(&obs);
        Simulator {
            time: SimTime::ZERO,
            shards: 1,
            node_shard: Vec::new(),
            parts: vec![Shard::new(0, 1)],
            chaos_queue: EventQueue::new(),
            ext_seq: 0,
            chaos_seq: 0,
            needs_repartition: false,
            shared: Arc::new(Shared {
                links: Vec::new(),
                ports: HashMap::new(),
                loc: Vec::new(),
                counters,
                obs,
            }),
            seed,
            rng: SimRng::new(seed),
            unrouted_frames: 0,
            processed_events: 0,
            pool: None,
            poisoned: None,
            window_cap: DEFAULT_WINDOW_CAP,
        }
    }

    /// The shared state, mutably. Workers let go of it before reporting a
    /// window done, so between windows the simulator holds the only handle.
    fn shared_mut(&mut self) -> &mut Shared {
        Arc::get_mut(&mut self.shared).expect("shared state is only lent out during a window")
    }

    /// Adopt a shared observability handle (the platform installs one
    /// registry for the whole topology); the simulator's own counters and
    /// chaos events move to it, and the journal clock tracks `now()`.
    pub fn set_obs(&mut self, obs: Obs) {
        let counters = SimCounters::register(&obs);
        obs.set_now_nanos(self.time.as_nanos());
        let shared = self.shared_mut();
        shared.obs = obs;
        shared.counters = counters;
    }

    /// The simulator's observability handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// Partition nodes into `shards` event-queue shards, round-robin by node
    /// id (use [`Simulator::set_node_shard`] to refine). Clamped to
    /// `1..=63` so every shard gets its own observability journal lane.
    /// With more than one shard, runs execute their windows on worker
    /// threads; results are bit-identical to one shard.
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.clamp(1, MAX_LANES - 1);
        self.shards = shards;
        for (i, s) in self.node_shard.iter_mut().enumerate() {
            *s = (i % shards) as u32;
        }
        self.needs_repartition = true;
    }

    /// Cap the adaptive-window doubling multiplier: while windows see no
    /// cross-shard traffic they widen by doubling, up to `cap × min
    /// cross-shard latency`, and snap back to the conservative bound when
    /// a cross-shard frame appears. The schedule is a pacing detail only —
    /// any `cap ≥ 1` produces bit-identical results (property-tested in
    /// `tests/props.rs`); `1` pins the engine to fixed conservative
    /// windows.
    pub fn set_window_cap(&mut self, cap: u64) {
        self.window_cap = cap.max(1);
    }

    /// Current shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Pin a node to a specific shard (e.g. the platform places each PoP's
    /// routers together so only inter-PoP links cross shards).
    ///
    /// # Panics
    /// Panics if `shard >= self.shards()`.
    pub fn set_node_shard(&mut self, node: NodeId, shard: usize) {
        assert!(
            shard < self.shards,
            "shard {shard} out of range (shards={})",
            self.shards
        );
        self.node_shard[node.0 as usize] = shard as u32;
        self.needs_repartition = true;
    }

    /// The shard a node is currently assigned to.
    pub fn node_shard(&self, node: NodeId) -> usize {
        self.node_shard.get(node.0 as usize).copied().unwrap_or(0) as usize
    }

    /// Apply the requested placement after a layout change: move every node
    /// slot (with its state, RNG stream and sequence counter) and every
    /// pending event to its shard. A wired zero-latency link between two
    /// requested shards leaves no safe window, so such a layout runs as one
    /// shard.
    fn ensure_partition(&mut self) {
        if !self.needs_repartition {
            return;
        }
        self.needs_repartition = false;
        let zero_latency_crossing = self.shards > 1
            && self.wired_links().any(|(_, ((a, _), (b, _)), latency)| {
                latency == SimDuration::ZERO
                    && self.node_shard.get(a.0 as usize) != self.node_shard.get(b.0 as usize)
            });
        let count = if zero_latency_crossing {
            1
        } else {
            self.shards
        };
        let mut events = Vec::new();
        let mut old: Vec<Vec<Option<NodeSlot>>> = Vec::with_capacity(self.parts.len());
        for mut part in self.parts.drain(..) {
            events.append(&mut part.queue.drain());
            old.push(part.nodes.into_iter().map(Some).collect());
        }
        self.parts = (0..count).map(|i| Shard::new(i, count)).collect();
        let mut loc = Vec::with_capacity(self.node_shard.len());
        for (want, at) in self.node_shard.iter().zip(&self.shared.loc) {
            let shard = if count == 1 { 0 } else { *want as usize };
            let slot = old[at.shard as usize][at.index as usize]
                .take()
                .expect("every node has exactly one slot");
            let part = &mut self.parts[shard];
            loc.push(NodeLoc {
                shard: shard as u32,
                index: part.nodes.len() as u32,
            });
            part.nodes.push(slot);
        }
        self.shared_mut().loc = loc;
        for e in events {
            self.push_event(e);
        }
    }

    /// Queue an event on the shard that holds its destination node.
    fn push_event(&mut self, e: Event) {
        let shard = self.shared.shard_of(e.key.dst);
        self.parts[shard].queue.push(e.key, e.kind);
    }

    /// Re-raise the diagnostic from an earlier shard-worker panic: the
    /// panicked window left node state half-applied, so the run cannot
    /// continue meaningfully.
    fn check_poisoned(&self) {
        if let Some(diag) = &self.poisoned {
            panic!("simulator poisoned by an earlier shard-worker panic: {diag}");
        }
    }

    fn ext_key(&mut self, at: SimTime, dst: u32) -> EventKey {
        let seq = self.ext_seq;
        self.ext_seq += 1;
        EventKey {
            at,
            class: CLASS_NODE,
            dst,
            src: EXTERNAL_SRC,
            seq,
        }
    }

    /// Register a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = self.node_shard.len() as u32;
        let want = id as usize % self.shards;
        self.node_shard.push(want as u32);
        // Joins its requested shard if the current layout has it; a pending
        // repartition places it otherwise.
        let shard = want.min(self.parts.len() - 1);
        let part = &mut self.parts[shard];
        let loc = NodeLoc {
            shard: shard as u32,
            index: part.nodes.len() as u32,
        };
        part.nodes.push(NodeSlot {
            node,
            rng: stream(self.seed, NODE_STREAM_SALT | id as u64),
            seq: 0,
            actions: Vec::new(),
        });
        self.shared_mut().loc.push(loc);
        NodeId(id)
    }

    /// Every registered node id, in registration order. Harnesses use this
    /// to sweep the whole topology without tracking ids themselves.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (0..self.node_shard.len() as u32).map(NodeId).collect()
    }

    /// Connect `(a, pa)` to `(b, pb)` with the given link configuration.
    ///
    /// # Panics
    /// Panics if either port is already connected — topology is fixed wiring,
    /// and double-connecting is always a scenario bug.
    pub fn connect(
        &mut self,
        a: NodeId,
        pa: PortId,
        b: NodeId,
        pb: PortId,
        config: LinkConfig,
    ) -> LinkId {
        assert!(
            !self.shared.ports.contains_key(&(a, pa)),
            "port {pa:?} on {a:?} already connected"
        );
        assert!(
            !self.shared.ports.contains_key(&(b, pb)),
            "port {pb:?} on {b:?} already connected"
        );
        // A zero-latency link may join two shards (see `ensure_partition`).
        self.needs_repartition |= config.latency == SimDuration::ZERO;
        let seed = self.seed;
        let shared = self.shared_mut();
        let id = LinkId(shared.links.len() as u32);
        let base = LINK_STREAM_SALT | ((id.0 as u64) << 1);
        shared.links.push(Mutex::new(LinkState {
            link: Link::new(config),
            ends: [(a, pa), (b, pb)],
            rngs: [stream(seed, base), stream(seed, base | 1)],
        }));
        shared.ports.insert((a, pa), (id, 0));
        shared.ports.insert((b, pb), (id, 1));
        id
    }

    fn link_state(&self, link: LinkId) -> MutexGuard<'_, LinkState> {
        self.shared.links[link.0 as usize]
            .lock()
            .expect("link lock poisoned")
    }

    /// `(id, ends, latency)` of every link that is still wired, in id order.
    fn wired_links(&self) -> impl Iterator<Item = (LinkId, LinkEnds, SimDuration)> + '_ {
        self.shared
            .links
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                let id = LinkId(i as u32);
                let state = slot.lock().expect("link lock poisoned");
                // Disconnect removes the ports; the slot stays.
                let wired = self.shared.ports.get(&state.ends[0]) == Some(&(id, 0));
                wired.then_some((
                    id,
                    (state.ends[0], state.ends[1]),
                    state.link.config.latency,
                ))
            })
    }

    /// Tear down a link (e.g. a session reset test); both ports become
    /// unconnected. Link stats are retained until the slot is reused.
    pub fn disconnect(&mut self, link: LinkId) {
        let (ends, latency) = {
            let state = self.link_state(link);
            (state.ends, state.link.config.latency)
        };
        self.needs_repartition |= latency == SimDuration::ZERO;
        let shared = self.shared_mut();
        for end in ends {
            shared.ports.remove(&end);
        }
    }

    /// Per-direction stats for a link.
    pub fn link_stats(&self, link: LinkId) -> [LinkStats; 2] {
        self.link_state(link).link.stats
    }

    /// Administratively raise or lower a link. A downed link stays wired
    /// but drops every frame until raised again — the substrate for chaos
    /// link flaps, partitions and tunnel resets.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        self.link_state(link).link.up = up;
    }

    /// Whether a link is administratively up.
    pub fn link_up(&self, link: LinkId) -> bool {
        self.link_state(link).link.up
    }

    /// Replace a link's fault injector (chaos fault bursts).
    pub fn set_link_faults(&mut self, link: LinkId, faults: FaultInjector) {
        self.link_state(link).link.config.faults = faults;
    }

    /// A link's current fault injector.
    pub fn link_faults(&self, link: LinkId) -> FaultInjector {
        self.link_state(link).link.config.faults
    }

    /// Restore a link's fault injector to the configuration it was created
    /// with (ends a chaos fault burst).
    pub fn restore_link_faults(&mut self, link: LinkId) {
        let mut state = self.link_state(link);
        state.link.config.faults = state.link.base_faults;
    }

    /// Mutable access to the simulator's control RNG stream, so chaos plans
    /// can be generated from a deterministic stream tied to the seed.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Schedule every step of a chaos plan relative to the current time.
    /// Steps are applied between windows at their appointed instants; no
    /// window crosses a chaos timestamp.
    pub fn schedule_chaos(&mut self, plan: &ChaosPlan) {
        for (offset, step) in plan.steps() {
            let key = EventKey {
                at: self.time + offset,
                class: CLASS_CHAOS,
                dst: step.link.0,
                src: EXTERNAL_SRC,
                seq: self.chaos_seq,
            };
            self.chaos_seq += 1;
            self.chaos_queue.push(key, EventKind::Chaos(step));
        }
    }

    /// All currently-connected links touching `node`, with their endpoints.
    pub fn links_of(&self, node: NodeId) -> Vec<(LinkId, LinkEnds)> {
        self.wired_links()
            .filter(|(_, (a, b), _)| a.0 == node || b.0 == node)
            .map(|(id, ends, _)| (id, ends))
            .collect()
    }

    fn slot(&self, id: NodeId) -> Option<&NodeSlot> {
        let loc = self.shared.loc.get(id.0 as usize)?;
        self.parts[loc.shard as usize].nodes.get(loc.index as usize)
    }

    fn slot_mut(&mut self, id: NodeId) -> Option<&mut NodeSlot> {
        let loc = *self.shared.loc.get(id.0 as usize)?;
        self.parts[loc.shard as usize]
            .nodes
            .get_mut(loc.index as usize)
    }

    /// Downcast a node to its concrete type.
    pub fn node<T: Node>(&self, id: NodeId) -> Option<&T> {
        (&*self.slot(id)?.node as &dyn Any).downcast_ref::<T>()
    }

    /// Downcast a node to its concrete type, mutably.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> Option<&mut T> {
        (&mut *self.slot_mut(id)?.node as &mut dyn Any).downcast_mut::<T>()
    }

    /// Inject a frame for delivery to `(node, port)` right now, as if it
    /// arrived from outside the simulated topology.
    pub fn inject_frame(&mut self, node: NodeId, port: PortId, frame: EtherFrame) {
        let key = self.ext_key(self.time, node.0);
        self.push_event(Event {
            key,
            kind: EventKind::FrameDelivery { node, port, frame },
        });
    }

    /// Transmit a frame from `(node, port)` over its connected link, exactly
    /// as if the node itself had sent it. Useful for external drivers (the
    /// experiment toolkit injects traffic this way).
    pub fn send_from(&mut self, node: NodeId, port: PortId, frame: EtherFrame) {
        let mut actions = vec![Action::Send { port, frame }];
        self.apply_external_actions(node, &mut actions);
    }

    /// Arm a timer on behalf of a node.
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, token: u64) {
        let key = self.ext_key(self.time + delay, node.0);
        self.push_event(Event {
            key,
            kind: EventKind::Timer { node, token },
        });
    }

    /// Invoke a closure with mutable access to a node and a [`Ctx`], so
    /// external drivers can call node methods that need to emit frames.
    ///
    /// # Panics
    /// Panics if the node id is stale or of the wrong type.
    pub fn with_node_ctx<T: Node, R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut T, &mut Ctx<'_>) -> R,
    ) -> R {
        let now = self.time;
        let mut actions = Vec::new();
        let slot = self.slot_mut(id).expect("unknown node id");
        let node = (&mut *slot.node as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("node type mismatch");
        let mut ctx = Ctx {
            now,
            node: id,
            actions: &mut actions,
            rng: &mut slot.rng,
        };
        let result = f(node, &mut ctx);
        self.apply_external_actions(id, &mut actions);
        result
    }

    /// Apply actions buffered by an external driver (traffic injection,
    /// `with_node_ctx`): these draw their event sequence numbers from the
    /// shared external counter.
    fn apply_external_actions(&mut self, node: NodeId, actions: &mut Vec<Action>) {
        let mut out = Vec::new();
        let mut stats = LocalStats::default();
        let mut env = DispatchEnv {
            shared: &self.shared,
            out: &mut out,
            stats: &mut stats,
        };
        apply_actions(
            &mut env,
            node,
            self.time,
            actions,
            EXTERNAL_SRC,
            &mut self.ext_seq,
        );
        self.unrouted_frames += stats.unrouted;
        for e in out {
            self.push_event(e);
        }
    }

    /// Apply one chaos step between windows, so link state is frozen while
    /// shards execute.
    fn apply_chaos_event(&mut self, ev: Event) {
        let key = ev.key;
        debug_assert!(key.at >= self.time, "time went backwards");
        self.time = key.at;
        let obs = &self.shared.obs;
        obs.set_now_nanos(self.time.as_nanos());
        peering_obs::set_dispatch_key(DispatchKey {
            at_nanos: key.at.as_nanos(),
            class: key.class,
            dst: key.dst,
            src: key.src,
            seq: key.seq,
        });
        self.processed_events += 1;
        let EventKind::Chaos(step) = ev.kind else {
            unreachable!("chaos queue holds only chaos events");
        };
        if let Some(slot) = self.shared.links.get(step.link.0 as usize) {
            let mut state = slot.lock().expect("link lock poisoned");
            let change = match step.change {
                ChaosChange::LinkDown => {
                    state.link.up = false;
                    "link-down"
                }
                ChaosChange::LinkUp => {
                    state.link.up = true;
                    "link-up"
                }
                ChaosChange::SetFaults(faults) => {
                    state.link.config.faults = faults;
                    "set-faults"
                }
                ChaosChange::RestoreFaults => {
                    state.link.config.faults = state.link.base_faults;
                    "restore-faults"
                }
            };
            drop(state);
            self.shared.counters.chaos_steps.inc();
            obs.record(ObsEvent::ChaosInjection {
                link: step.link.0,
                change,
            });
        }
        peering_obs::clear_dispatch_key();
    }

    /// Run until the queue is exhausted or `deadline` is reached; the clock
    /// ends at `deadline` if it was reached, otherwise at the last event.
    ///
    /// With more than one shard, windows execute on worker threads; the
    /// results — node state, counters, journal, clock — are bit-identical
    /// to a single-shard run.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_windows(deadline, u64::MAX);
        if self.time < deadline {
            self.time = deadline;
            self.shared.obs.set_now_nanos(self.time.as_nanos());
        }
    }

    /// Run for `duration` of simulated time.
    pub fn run_for(&mut self, duration: SimDuration) {
        let deadline = self.time + duration;
        self.run_until(deadline);
    }

    /// Run until no events remain (the network is quiescent), with a safety
    /// cap on event count to catch livelock in tests. Returns `false` when
    /// the cap trips: on one shard after exactly `max_events` events (a
    /// chaos step counts as one), with more shards at the barrier of the
    /// window that spent the budget.
    pub fn run_until_idle(&mut self, max_events: u64) -> bool {
        self.run_windows(SimTime::from_nanos(u64::MAX), max_events)
    }

    /// Number of pending events (all shards plus scheduled chaos steps).
    pub fn pending_events(&self) -> usize {
        self.parts.iter().map(|p| p.queue.len()).sum::<usize>() + self.chaos_queue.len()
    }

    /// Per-shard minimum latency over cross-shard links incident to each
    /// shard (`L_out`). Any cross-shard arrival emitted by shard `s` is
    /// the end of a causal chain whose final hop adds at least
    /// `L_out(s)`, so shard `s` cannot disturb anyone before
    /// `t_s + L_out(s)`. Shards with no cross-shard links (every shard of
    /// a one-shard layout) get the saturating "never" bound.
    fn per_shard_out_lookahead(&self) -> Vec<SimDuration> {
        let mut out = vec![SimDuration::from_nanos(u64::MAX); self.parts.len()];
        if self.parts.len() > 1 {
            for (_, ((a, _), (b, _)), latency) in self.wired_links() {
                let (a, b) = (self.shared.shard_of(a.0), self.shared.shard_of(b.0));
                if a != b {
                    out[a] = out[a].min(latency);
                    out[b] = out[b].min(latency);
                }
            }
        }
        out
    }

    /// The engine: advance in windows `[gvt, end)` where
    ///
    /// ```text
    /// end = min( gvt + lookahead × cap,            doubling heuristic
    ///            min_s (t_s + L_out(s)),           sound emission bound
    ///            next chaos step,
    ///            deadline + 1ns )
    /// ```
    ///
    /// and `lookahead` is the minimum cross-shard latency. The `cap`
    /// multiplier doubles while windows stay cross-shard quiet (up to
    /// [`Simulator::set_window_cap`]) and snaps back to 1 when an outbox
    /// carries traffic; the sound bound keeps any schedule correct.
    /// Returns `false` once `max_events` events (chaos steps included)
    /// have been processed, `true` when the queues drain or the next event
    /// lies past `deadline`.
    fn run_windows(&mut self, deadline: SimTime, max_events: u64) -> bool {
        self.check_poisoned();
        self.ensure_partition();
        let count = self.parts.len();
        if count > 1 && self.pool.as_ref().map(|p| p.jobs.len()) != Some(count) {
            self.pool = Some(WorkerPool::new(count));
        }
        let l_out = self.per_shard_out_lookahead();
        let lookahead = l_out.iter().copied().min().unwrap_or(SimDuration::ZERO);
        let horizon = sat_add(deadline, SimDuration::from_nanos(1));
        let start = self.processed_events;
        let mut cap_mult: u64 = 1;
        loop {
            let spent = self.processed_events - start;
            if spent >= max_events {
                return false;
            }
            let t_chaos = self.chaos_queue.peek_time();
            let t_node = self.parts.iter().filter_map(|p| p.queue.peek_time()).min();
            let Some(gvt) = t_chaos.into_iter().chain(t_node).min() else {
                return true;
            };
            if gvt > deadline {
                return true;
            }
            if t_chaos == Some(gvt) {
                // Chaos sorts before node events at the same instant
                // (CLASS_CHAOS): apply the step, then look again.
                let ev = self.chaos_queue.pop().expect("peeked chaos event");
                self.apply_chaos_event(ev);
                continue;
            }
            // Heuristic width, then clamp to the sound emission bound:
            // no shard can receive a cross-shard event before
            // min_s(t_s + L_out(s)), so any end at or below it is safe.
            let mut end = sat_add(
                gvt,
                SimDuration::from_nanos(lookahead.as_nanos().saturating_mul(cap_mult)),
            );
            for (part, l) in self.parts.iter().zip(&l_out) {
                if let Some(t) = part.queue.peek_time() {
                    end = end.min(sat_add(t, *l));
                }
            }
            if let Some(tc) = t_chaos {
                end = end.min(tc);
            }
            end = end.min(horizon);
            let crossed = self.run_window_on_shards(gvt, end, max_events - spent);
            cap_mult = if crossed {
                1
            } else {
                cap_mult.saturating_mul(2).min(self.window_cap)
            };
        }
    }

    /// Run one window `[start, end)` on every shard with due events —
    /// inline on one shard, otherwise on the pool — and collect it at the
    /// barrier. Returns whether any event crossed shards.
    fn run_window_on_shards(&mut self, start: SimTime, end: SimTime, budget: u64) -> bool {
        if let [part] = self.parts.as_mut_slice() {
            let (stats, last) = run_window(part, &self.shared, start, end, budget);
            peering_obs::clear_dispatch_key();
            self.absorb(stats, last);
            return false;
        }
        let pool = self.pool.as_ref().expect("pool built for this shard count");
        let mut active = 0usize;
        for (part, jobs) in self.parts.iter_mut().zip(&pool.jobs) {
            if part.queue.peek_time().is_none_or(|t| t >= end) {
                continue; // nothing to do this window
            }
            let window = Window {
                shard: std::mem::take(part),
                shared: Arc::clone(&self.shared),
                start,
                end,
                budget,
            };
            jobs.send(window).expect("shard worker channel closed");
            active += 1;
        }
        debug_assert!(
            active > 0,
            "window [{start:?}, {end:?}) dispatched no shard"
        );
        // Barrier: every dispatched shard comes back, panicked or not.
        let mut poison: Option<(usize, String)> = None;
        for _ in 0..active {
            let WorkerDone { shard, result } = self
                .pool
                .as_ref()
                .expect("pool built for this shard count")
                .done_rx
                .recv()
                .expect("shard worker died without reporting");
            let index = shard.index;
            self.parts[index] = shard;
            match result {
                Ok((stats, last)) => self.absorb(stats, last),
                Err(msg) => poison = Some((index, msg)),
            }
        }
        // Drain the outboxes into the destination queues. Push order
        // cannot matter: queues order by EventKey.
        let count = self.parts.len();
        let mut crossed = false;
        for src in 0..count {
            for dst in 0..count {
                let mut moved = std::mem::take(&mut self.parts[src].outbox[dst]);
                crossed |= !moved.is_empty();
                for e in moved.drain(..) {
                    self.parts[dst].queue.push(e.key, e.kind);
                }
                self.parts[src].outbox[dst] = moved;
            }
        }
        if let Some((shard, msg)) = poison {
            let tail = self.shared.obs.journal_tail(12);
            let diag = format!(
                "shard {shard} worker panicked in window [{}ns, {}ns): {msg}\njournal tail:\n{tail}",
                start.as_nanos(),
                end.as_nanos()
            );
            self.poisoned = Some(diag.clone());
            panic!("{diag}");
        }
        crossed
    }

    /// Merge one shard's window tallies and advance the clock to its last
    /// event.
    fn absorb(&mut self, stats: LocalStats, last: SimTime) {
        self.unrouted_frames += stats.unrouted;
        self.processed_events += stats.processed;
        self.time = self.time.max(last);
        self.shared.obs.set_now_nanos(self.time.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytes::Bytes;
    use crate::frame::EtherType;
    use crate::mac::MacAddr;

    /// Echoes every frame back out the port it arrived on, swapping MACs.
    struct Echo {
        seen: u64,
    }

    impl Node for Echo {
        fn on_frame(&mut self, ctx: &mut Ctx<'_>, port: PortId, frame: EtherFrame) {
            self.seen += 1;
            let reply = EtherFrame::new(frame.src, frame.dst, frame.ethertype, frame.payload);
            ctx.send_frame(port, reply);
        }
    }

    /// Sends one frame at t=0 via a timer, records replies.
    struct Pinger {
        replies: u64,
        target: MacAddr,
        me: MacAddr,
    }

    impl Node for Pinger {
        fn on_frame(&mut self, _ctx: &mut Ctx<'_>, _port: PortId, _frame: EtherFrame) {
            self.replies += 1;
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
            ctx.send_frame(
                PortId(0),
                EtherFrame::new(
                    self.target,
                    self.me,
                    EtherType::Other(0x9999),
                    Bytes::from_static(b"ping"),
                ),
            );
        }
    }

    #[test]
    fn ping_pong_over_link() {
        let mut sim = Simulator::new(1);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(
            pinger,
            PortId(0),
            echo,
            PortId(0),
            LinkConfig::with_latency(SimDuration::from_millis(5)),
        );
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        assert!(sim.run_until_idle(100));
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 1);
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 1);
        // Round trip = 2 × 5 ms.
        assert_eq!(sim.now().as_millis(), 10);
    }

    #[test]
    fn unconnected_port_counts_unrouted() {
        let mut sim = Simulator::new(1);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::BROADCAST,
            me: MacAddr::from_id(1),
        }));
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        sim.run_until_idle(10);
        assert_eq!(sim.unrouted_frames, 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> (u64, u64) {
            let mut sim = Simulator::new(seed);
            let pinger = sim.add_node(Box::new(Pinger {
                replies: 0,
                target: MacAddr::from_id(2),
                me: MacAddr::from_id(1),
            }));
            let echo = sim.add_node(Box::new(Echo { seen: 0 }));
            let cfg = LinkConfig::default().with_faults(crate::link::FaultInjector::dropping(50));
            sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
            for i in 0..50 {
                sim.set_timer(pinger, SimDuration::from_millis(i), i);
            }
            sim.run_until_idle(10_000);
            (
                sim.node::<Echo>(echo).unwrap().seen,
                sim.node::<Pinger>(pinger).unwrap().replies,
            )
        }
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn downcast_wrong_type_is_none() {
        let mut sim = Simulator::new(1);
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        assert!(sim.node::<Pinger>(echo).is_none());
        assert!(sim.node::<Echo>(echo).is_some());
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut sim = Simulator::new(1);
        sim.run_until(SimTime::from_nanos(1_000));
        assert_eq!(sim.now(), SimTime::from_nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut sim = Simulator::new(1);
        let a = sim.add_node(Box::new(Echo { seen: 0 }));
        let b = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(a, PortId(0), b, PortId(0), LinkConfig::default());
        sim.connect(a, PortId(0), b, PortId(1), LinkConfig::default());
    }

    #[test]
    fn disconnect_stops_delivery() {
        let mut sim = Simulator::new(1);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let link = sim.connect(pinger, PortId(0), echo, PortId(0), LinkConfig::default());
        sim.disconnect(link);
        sim.set_timer(pinger, SimDuration::ZERO, 0);
        sim.run_until_idle(10);
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 0);
        assert_eq!(sim.unrouted_frames, 1);
    }

    /// A faulty ping-pong workload whose observable outcome must not depend
    /// on the shard count (the tentpole property).
    fn sharded_outcome(shards: usize) -> (u64, u64, u64, u64, u64) {
        let mut sim = Simulator::new(42);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let cfg = LinkConfig::with_latency(SimDuration::from_millis(2))
            .with_faults(FaultInjector::dropping(20));
        sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
        sim.set_shards(shards);
        for i in 0..40 {
            sim.set_timer(pinger, SimDuration::from_millis(i), i);
        }
        sim.run_until(SimTime::from_nanos(1_000_000_000));
        (
            sim.node::<Echo>(echo).unwrap().seen,
            sim.node::<Pinger>(pinger).unwrap().replies,
            sim.processed_events,
            sim.unrouted_frames,
            sim.now().as_nanos(),
        )
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let base = sharded_outcome(1);
        assert!(base.0 > 0, "workload should deliver some frames");
        assert_eq!(sharded_outcome(2), base);
        assert_eq!(sharded_outcome(4), base);
    }

    #[test]
    fn one_shard_run_until_idle_stops_after_exactly_n_events() {
        let mut sim = Simulator::new(5);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        let cfg = LinkConfig::with_latency(SimDuration::from_millis(1));
        let link = sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
        for i in 0..10 {
            sim.set_timer(pinger, SimDuration::from_millis(10 * i), i);
        }
        // Link down at 1.5 ms: between the ping's arrival (1 ms) and the
        // echo's (2 ms).
        let mut plan = ChaosPlan::new();
        plan.push(crate::chaos::Incident::flap(
            link,
            SimDuration::from_micros(1_500),
            SimDuration::from_secs(1),
        ));
        sim.schedule_chaos(&plan);
        // Timer, ping delivery, chaos step: three events, then stop.
        assert!(!sim.run_until_idle(3));
        assert_eq!(sim.processed_events, 3);
        assert!(!sim.link_up(link), "the chaos step counts as one event");
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 1);
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 0);
        // One more: the echo in flight before the flap.
        assert!(!sim.run_until_idle(1));
        assert_eq!(sim.processed_events, 4);
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 1);
        // Nine more timers (their pings die on the downed link) and the
        // link-up step drain the queue.
        assert!(sim.run_until_idle(100));
        assert_eq!(sim.processed_events, 14);
        assert!(sim.link_up(link));
    }

    #[test]
    fn zero_latency_cross_shard_link_runs_as_one_shard() {
        let outcome = |shards: usize| {
            let mut sim = Simulator::new(8);
            let pinger = sim.add_node(Box::new(Pinger {
                replies: 0,
                target: MacAddr::from_id(2),
                me: MacAddr::from_id(1),
            }));
            let echo = sim.add_node(Box::new(Echo { seen: 0 }));
            let cfg = LinkConfig::with_latency(SimDuration::ZERO);
            sim.connect(pinger, PortId(0), echo, PortId(0), cfg);
            sim.set_shards(shards);
            sim.set_node_shard(echo, shards - 1);
            for i in 0..5 {
                sim.set_timer(pinger, SimDuration::from_millis(i), i);
            }
            assert!(sim.run_until_idle(1_000));
            (
                sim.node::<Echo>(echo).unwrap().seen,
                sim.node::<Pinger>(pinger).unwrap().replies,
                sim.processed_events,
                sim.now(),
            )
        };
        let base = outcome(1);
        assert_eq!(base.1, 5);
        assert_eq!(outcome(2), base);
    }

    #[test]
    fn repartition_preserves_pending_events() {
        let mut sim = Simulator::new(3);
        let pinger = sim.add_node(Box::new(Pinger {
            replies: 0,
            target: MacAddr::from_id(2),
            me: MacAddr::from_id(1),
        }));
        let echo = sim.add_node(Box::new(Echo { seen: 0 }));
        sim.connect(pinger, PortId(0), echo, PortId(0), LinkConfig::default());
        sim.set_timer(pinger, SimDuration::from_millis(1), 0);
        // Re-shard with an event already queued: it must survive the move.
        sim.set_shards(2);
        sim.set_node_shard(echo, 1);
        assert!(sim.run_until_idle(100));
        assert_eq!(sim.node::<Echo>(echo).unwrap().seen, 1);
        assert_eq!(sim.node::<Pinger>(pinger).unwrap().replies, 1);
    }
}
