//! The vBGP data-plane mux (paper §3.2.2 and §4.4, Fig. 2b).
//!
//! Pure state machine — no simulator types beyond addresses — so every
//! behaviour is unit-testable, per the paper's argument for decoupling
//! (§3.3). The mux owns:
//!
//! * the virtual next-hop allocator and the **MAC → routing-table**
//!   classification that turns an experiment's frame into a per-neighbor
//!   forwarding decision (Fig. 2b steps 8–10);
//! * one routing table per neighbor (refcounted prefixes fed from the
//!   control plane);
//! * the ARP responder for virtual next-hop IPs (steps 6–7) and for
//!   global-pool addresses owned by this PoP (§4.4);
//! * the delivery table that maps experiment prefixes to tunnels (local)
//!   or across the backbone (remote), including the **source-MAC rewrite**
//!   that tells experiments which neighbor delivered a packet.
//!
//! # The fast path
//!
//! Per-neighbor tables and the delivery table are [`PrefixTrie`]s — the
//! mutable source of truth the control plane edits. The data plane is
//! IPv4-only, so the router installs no mux state for an IPv6 route and
//! these tables hold IPv4 routes. Forwarding does not walk them per packet:
//! each table lazily compiles a DIR-24-8 [`FlatFib`] and fronts it with a
//! small direct-mapped flow cache keyed on the destination address and the
//! FIB's generation counter. Route install/remove marks the FIB dirty; the
//! next lookup re-syncs it, which bumps the generation and thereby
//! invalidates the flow cache without touching it.
//! [`VbgpMux::set_fast_path`] disables all of this (pure trie walks) for
//! differential testing and baseline benchmarks.
//!
//! Neighbor and experiment state lives in dense slot arrays indexed by
//! compact ids handed out at `add_*` time; the classifier decodes the
//! destination MAC's tag bits straight into those slots.

use std::net::Ipv4Addr;

use peering_bgp::flatfib::FlatFib;
use peering_bgp::trie::PrefixTrie;
use peering_bgp::types::Prefix;
use peering_netsim::{MacAddr, PortId};
use peering_obs::{EventKind as ObsEvent, Obs, DELIVERY_TABLE};

use crate::fasthash::{hash_u32, FastHashMap};
use crate::ids::{ExperimentId, NeighborId};
use crate::vnh::{self, Vnh, VnhAllocator};

/// MAC namespace tag for experiment-delivery MACs (answers to backbone ARP
/// for an experiment tunnel's global address).
const MAC_TAG_EXP: u32 = 0x4500_0000;

/// What a destination MAC classifies to (Fig. 2b step 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxTarget {
    /// Look the packet up in this neighbor's routing table.
    NeighborTable(NeighborId),
    /// Deliver down this experiment's tunnel.
    ExperimentDelivery(ExperimentId),
}

/// How to reach a neighbor on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NeighborFwd {
    /// Directly attached: out `port` with the neighbor router's MAC.
    Local { port: PortId, dst_mac: MacAddr },
    /// At another PoP: out the backbone `port` toward the neighbor's
    /// global-pool address (MAC resolved by backbone ARP, §4.4).
    Remote { port: PortId, global_ip: Ipv4Addr },
}

/// A concrete forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Egress {
    /// Transmit out `port` with the given destination MAC.
    Frame {
        /// Egress port.
        port: PortId,
        /// Destination MAC.
        dst_mac: MacAddr,
    },
    /// The neighbor is remote and its global address is not yet resolved;
    /// the caller should trigger an ARP for it and drop/queue the packet.
    Unresolved {
        /// Backbone port to resolve over.
        port: PortId,
        /// The global-pool address to ARP for.
        global_ip: Ipv4Addr,
    },
}

/// Where traffic for an experiment prefix should go.
///
/// The variant order is load-bearing: `Ord` ranks `Local` ahead of
/// `Remote`, and `DeliverySet::active` picks the minimum — a packet is
/// always handed down a local tunnel when one exists rather than relayed
/// across the backbone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Delivery {
    /// Down a local tunnel.
    Local(ExperimentId),
    /// Across the backbone toward the owning PoP's global address.
    Remote {
        /// Backbone port to send out of.
        port: PortId,
        /// The global-pool address to ARP for.
        global_ip: Ipv4Addr,
    },
}

/// Refcounted delivery options for one prefix. Several control-plane
/// routes can make the same prefix deliverable at once — its own tunnel
/// plus copies re-advertised across the backbone — and the data plane must
/// keep serving the best remaining option as individual routes come and
/// go, not just the most recently installed one.
struct DeliverySet {
    entries: Vec<(Delivery, u32)>,
}

impl DeliverySet {
    fn active(&self) -> Delivery {
        self.entries
            .iter()
            .map(|(d, _)| *d)
            .min()
            .expect("delivery sets are removed when emptied")
    }
}

/// Mux counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxStats {
    /// Frames forwarded to a neighbor.
    pub to_neighbor: u64,
    /// Frames delivered to a local experiment.
    pub to_experiment: u64,
    /// Frames relayed across the backbone.
    pub to_backbone: u64,
    /// Drops: destination not in the selected neighbor table.
    pub no_route: u64,
    /// Drops: remote neighbor's MAC not yet resolved.
    pub unresolved: u64,
    /// ARP queries answered.
    pub arp_answered: u64,
    /// Forwarding lookups served by a flow cache without touching a FIB.
    pub flow_cache_hits: u64,
    /// Forwarding lookups that missed every flow cache and hit a FIB.
    pub flow_cache_misses: u64,
    /// Flow-cache invalidations (one per effective FIB sync — the
    /// generation bump invalidates the whole cache without touching it).
    pub flow_invalidations: u64,
    /// FIB syncs satisfied by a full recompile.
    pub fib_rebuilds: u64,
    /// FIB syncs satisfied by patching only the dirty prefixes.
    pub fib_patch_rounds: u64,
    /// Individual prefixes patched across all patch rounds.
    pub fib_prefixes_patched: u64,
}

impl MuxStats {
    /// Record an effective FIB sync: classify patch vs rebuild from the
    /// FIB's own report, count it, and journal the sync + the flow-cache
    /// invalidation it implies. `neighbor` is [`DELIVERY_TABLE`] for the
    /// experiment delivery table.
    fn note_fib_sync(&mut self, obs: &Obs, neighbor: u32, fib: &FlatFib) {
        let (rebuild, changed) = fib.last_sync().unwrap_or((true, 0));
        if rebuild {
            self.fib_rebuilds += 1;
        } else {
            self.fib_patch_rounds += 1;
            self.fib_prefixes_patched += changed;
        }
        self.flow_invalidations += 1;
        obs.record(ObsEvent::FibSync {
            neighbor,
            rebuild,
            changed,
        });
        obs.record(ObsEvent::FlowCacheInvalidation {
            neighbor,
            generation: fib.generation(),
        });
    }
}

/// Direct-mapped flow cache: dst address → last lookup outcome, valid only
/// while the backing FIB's generation is unchanged. Invalidated wholesale
/// by a generation bump (no per-entry work on route churn).
struct FlowCache<T> {
    /// `(dst ip, generation, value)`; generation 0 = empty (real
    /// generations start at 1).
    slots: Box<[(u32, u64, T)]>,
}

const FLOW_CACHE_SLOTS: usize = 8192;

impl<T: Copy + Default> FlowCache<T> {
    fn new() -> Self {
        FlowCache {
            slots: vec![(0, 0, T::default()); FLOW_CACHE_SLOTS].into_boxed_slice(),
        }
    }

    #[inline]
    fn get(&self, ip: u32, generation: u64) -> Option<T> {
        let s = &self.slots[hash_u32(ip) as usize & (FLOW_CACHE_SLOTS - 1)];
        if s.0 == ip && s.1 == generation {
            Some(s.2)
        } else {
            None
        }
    }

    #[inline]
    fn put(&mut self, ip: u32, generation: u64, value: T) {
        self.slots[hash_u32(ip) as usize & (FLOW_CACHE_SLOTS - 1)] = (ip, generation, value);
    }
}

/// Dense per-neighbor state, held in a slot array indexed by the compact
/// id handed out at `add_*_neighbor` time.
struct NeighborEntry {
    id: NeighborId,
    fwd: NeighborFwd,
    /// Source of truth, edited by the control plane (refcount per prefix).
    table: PrefixTrie<u32>,
    /// Compiled fast path; built lazily on first forwarded packet.
    fib: Option<FlatFib>,
    cache: Option<Box<FlowCache<bool>>>,
    /// The local-pool MAC index (for classifier cleanup on removal).
    vnh_idx: u32,
    /// Packets forwarded out via this neighbor's table.
    pkts_out: u64,
    /// Packets delivered to an experiment that ingressed via this neighbor.
    pkts_in: u64,
}

impl NeighborEntry {
    /// Whether `dst_ip` has a route, via the compiled FIB + flow cache.
    #[inline]
    fn fast_has_route(&mut self, dst_ip: Ipv4Addr, stats: &mut MuxStats, obs: &Obs) -> bool {
        let fib = self.fib.get_or_insert_with(FlatFib::new);
        if fib.sync(&self.table) {
            stats.note_fib_sync(obs, self.id.0, fib);
        }
        let generation = fib.generation();
        let key = u32::from(dst_ip);
        let cache = self.cache.get_or_insert_with(|| Box::new(FlowCache::new()));
        if let Some(hit) = cache.get(key, generation) {
            stats.flow_cache_hits += 1;
            return hit;
        }
        stats.flow_cache_misses += 1;
        let hit = fib.covers(dst_ip);
        cache.put(key, generation, hit);
        hit
    }
}

struct ExperimentEntry {
    id: ExperimentId,
    port: PortId,
    mac: MacAddr,
    delivery_mac: MacAddr,
}

/// The mux.
pub struct VbgpMux {
    alloc: VnhAllocator,
    /// Fast path on (compiled FIBs + flow caches) or off (pure trie walks,
    /// for baselines and differential tests).
    fast_path: bool,
    neighbors: Vec<Option<NeighborEntry>>,
    free_neighbor_slots: Vec<u32>,
    neighbor_slot: FastHashMap<NeighborId, u32>,
    /// Classifier: local-pool MAC index → neighbor slot + 1 (0 = none).
    vnh_mac_slots: Vec<u32>,
    experiments: Vec<Option<ExperimentEntry>>,
    free_experiment_slots: Vec<u32>,
    experiment_slot: FastHashMap<ExperimentId, u32>,
    /// Delivery source of truth: prefix → index into `delivery_sets`.
    delivery: PrefixTrie<u32>,
    delivery_sets: Vec<Option<DeliverySet>>,
    free_delivery_sets: Vec<u32>,
    delivery_fib: Option<FlatFib>,
    delivery_cache: Option<Box<FlowCache<Option<u32>>>>,
    /// ARP: global/virtual IPs this PoP answers for → answering MAC.
    owned_ips: FastHashMap<Ipv4Addr, MacAddr>,
    /// Backbone ARP cache: global IP → remote MAC.
    resolved: FastHashMap<Ipv4Addr, MacAddr>,
    /// Counters.
    pub stats: MuxStats,
    /// Observability handle (journal events live; counters mirrored by
    /// [`VbgpMux::publish_obs`]).
    obs: Obs,
}

impl Default for VbgpMux {
    fn default() -> Self {
        Self::new()
    }
}

impl VbgpMux {
    /// An empty mux (fast path enabled).
    pub fn new() -> Self {
        VbgpMux {
            alloc: VnhAllocator::new(),
            fast_path: true,
            neighbors: Vec::new(),
            free_neighbor_slots: Vec::new(),
            neighbor_slot: FastHashMap::default(),
            vnh_mac_slots: Vec::new(),
            experiments: Vec::new(),
            free_experiment_slots: Vec::new(),
            experiment_slot: FastHashMap::default(),
            delivery: PrefixTrie::new(),
            delivery_sets: Vec::new(),
            free_delivery_sets: Vec::new(),
            delivery_fib: None,
            delivery_cache: None,
            owned_ips: FastHashMap::default(),
            resolved: FastHashMap::default(),
            stats: MuxStats::default(),
            obs: Obs::new(),
        }
    }

    /// Attach a shared observability handle (typically already scoped to
    /// this PoP). Until called, events land in a private default store.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Mirror the mux's plain-integer counters into the metrics registry.
    /// Called at snapshot points (not per packet) so the forwarding hot
    /// path never touches the registry.
    pub fn publish_obs(&self) {
        let s = &self.stats;
        let o = &self.obs;
        o.counter("mux.to_neighbor").set(s.to_neighbor);
        o.counter("mux.to_experiment").set(s.to_experiment);
        o.counter("mux.to_backbone").set(s.to_backbone);
        o.counter("mux.no_route").set(s.no_route);
        o.counter("mux.unresolved").set(s.unresolved);
        o.counter("mux.arp_answered").set(s.arp_answered);
        o.counter("mux.flow_cache_hits").set(s.flow_cache_hits);
        o.counter("mux.flow_cache_misses").set(s.flow_cache_misses);
        o.counter("mux.flow_invalidations")
            .set(s.flow_invalidations);
        o.counter("mux.fib_rebuilds").set(s.fib_rebuilds);
        o.counter("mux.fib_patch_rounds").set(s.fib_patch_rounds);
        o.counter("mux.fib_prefixes_patched")
            .set(s.fib_prefixes_patched);
        for entry in self.neighbors.iter().flatten() {
            let nbr = entry.id.0;
            o.counter_dim("mux.egress_pkts", "nbr", nbr)
                .set(entry.pkts_out);
            o.counter_dim("mux.ingress_pkts", "nbr", nbr)
                .set(entry.pkts_in);
            o.gauge_dim("mux.table_routes", "nbr", nbr)
                .set(entry.table.len() as i64);
        }
        o.gauge("mux.delivery_routes")
            .set(self.delivery.len() as i64);
    }

    /// Toggle the compiled fast path. Off = every lookup walks the source
    /// tries directly; used for baseline benchmarks and to differentially
    /// test the compiled structures against the reference.
    pub fn set_fast_path(&mut self, on: bool) {
        self.fast_path = on;
    }

    /// Whether the compiled fast path is enabled.
    pub fn fast_path(&self) -> bool {
        self.fast_path
    }

    fn insert_neighbor_entry(&mut self, entry: NeighborEntry) -> u32 {
        let slot = match self.free_neighbor_slots.pop() {
            Some(s) => {
                self.neighbors[s as usize] = Some(entry);
                s
            }
            None => {
                self.neighbors.push(Some(entry));
                self.neighbors.len() as u32 - 1
            }
        };
        self.neighbor_slot.insert(
            self.neighbors[slot as usize].as_ref().expect("just set").id,
            slot,
        );
        slot
    }

    fn register_vnh_mac(&mut self, vnh: &Vnh, slot: u32) -> u32 {
        let idx = (vnh.mac.id().expect("vnh MACs are synthetic") & 0x00ff_ffff) as usize;
        if self.vnh_mac_slots.len() <= idx {
            self.vnh_mac_slots.resize(idx + 1, 0);
        }
        self.vnh_mac_slots[idx] = slot + 1;
        idx as u32
    }

    /// Register a directly-attached neighbor. `global_ip`, when set, makes
    /// this PoP answer backbone ARP for it so other PoPs can steer traffic
    /// out this neighbor (§4.4).
    pub fn add_local_neighbor(
        &mut self,
        id: NeighborId,
        port: PortId,
        neighbor_mac: MacAddr,
        global_ip: Option<Ipv4Addr>,
    ) -> Vnh {
        let vnh = self.alloc.allocate(id);
        let slot = self.insert_neighbor_entry(NeighborEntry {
            id,
            fwd: NeighborFwd::Local {
                port,
                dst_mac: neighbor_mac,
            },
            table: PrefixTrie::new(),
            fib: None,
            cache: None,
            vnh_idx: 0,
            pkts_out: 0,
            pkts_in: 0,
        });
        let idx = self.register_vnh_mac(&vnh, slot);
        self.neighbors[slot as usize]
            .as_mut()
            .expect("just set")
            .vnh_idx = idx;
        self.owned_ips.insert(vnh.ip, vnh.mac);
        if let Some(gip) = global_ip {
            self.owned_ips.insert(gip, vnh.mac);
        }
        vnh
    }

    /// Register a neighbor that lives at another PoP, reached over the
    /// backbone via its global-pool address. Experiments here still get a
    /// local virtual next hop for it (§4.4's local-pool rewrite).
    pub fn add_remote_neighbor(
        &mut self,
        id: NeighborId,
        backbone_port: PortId,
        global_ip: Ipv4Addr,
    ) -> Vnh {
        let vnh = self.alloc.allocate(id);
        let slot = self.insert_neighbor_entry(NeighborEntry {
            id,
            fwd: NeighborFwd::Remote {
                port: backbone_port,
                global_ip,
            },
            table: PrefixTrie::new(),
            fib: None,
            cache: None,
            vnh_idx: 0,
            pkts_out: 0,
            pkts_in: 0,
        });
        let idx = self.register_vnh_mac(&vnh, slot);
        self.neighbors[slot as usize]
            .as_mut()
            .expect("just set")
            .vnh_idx = idx;
        self.owned_ips.insert(vnh.ip, vnh.mac);
        vnh
    }

    /// Remove a neighbor entirely.
    pub fn remove_neighbor(&mut self, id: NeighborId) {
        if let Some(vnh) = self.alloc.release(id) {
            self.owned_ips.remove(&vnh.ip);
            self.owned_ips.retain(|_, m| *m != vnh.mac);
        }
        if let Some(slot) = self.neighbor_slot.remove(&id) {
            if let Some(entry) = self.neighbors[slot as usize].take() {
                self.vnh_mac_slots[entry.vnh_idx as usize] = 0;
            }
            self.free_neighbor_slots.push(slot);
        }
    }

    fn neighbor(&self, id: NeighborId) -> Option<&NeighborEntry> {
        let &slot = self.neighbor_slot.get(&id)?;
        self.neighbors[slot as usize].as_ref()
    }

    fn neighbor_mut(&mut self, id: NeighborId) -> Option<&mut NeighborEntry> {
        let &slot = self.neighbor_slot.get(&id)?;
        self.neighbors[slot as usize].as_mut()
    }

    /// The virtual next hop assigned to a neighbor.
    pub fn vnh(&self, id: NeighborId) -> Option<Vnh> {
        self.alloc.get(id)
    }

    /// The neighbor owning a virtual next-hop IP (classifying learned
    /// routes back to their tables).
    pub fn vnh_neighbor(&self, ip: Ipv4Addr) -> Option<NeighborId> {
        self.alloc.neighbor_of_ip(ip)
    }

    /// Register a local experiment tunnel. `global_ip`, when set, lets
    /// other PoPs deliver traffic for the experiment across the backbone.
    pub fn add_experiment(
        &mut self,
        id: ExperimentId,
        port: PortId,
        experiment_mac: MacAddr,
        global_ip: Option<Ipv4Addr>,
    ) -> MacAddr {
        let delivery_mac = MacAddr::from_id(MAC_TAG_EXP | id.0);
        if let Some(gip) = global_ip {
            self.owned_ips.insert(gip, delivery_mac);
        }
        let entry = ExperimentEntry {
            id,
            port,
            mac: experiment_mac,
            delivery_mac,
        };
        let slot = match self.free_experiment_slots.pop() {
            Some(s) => {
                self.experiments[s as usize] = Some(entry);
                s
            }
            None => {
                self.experiments.push(Some(entry));
                self.experiments.len() as u32 - 1
            }
        };
        self.experiment_slot.insert(id, slot);
        delivery_mac
    }

    /// Remove an experiment.
    pub fn remove_experiment(&mut self, id: ExperimentId) {
        if let Some(slot) = self.experiment_slot.remove(&id) {
            if let Some(entry) = self.experiments[slot as usize].take() {
                self.owned_ips.retain(|_, m| *m != entry.delivery_mac);
            }
            self.free_experiment_slots.push(slot);
        }
        // Delivery entries for its prefixes are withdrawn by the control
        // plane as the session drops.
    }

    fn experiment(&self, id: ExperimentId) -> Option<&ExperimentEntry> {
        let &slot = self.experiment_slot.get(&id)?;
        self.experiments[slot as usize].as_ref()
    }

    // ---- control-plane feed ----

    /// A route for `prefix` via `neighbor` was installed (refcounted: one
    /// per (path, session) the control plane holds).
    pub fn install_route(&mut self, neighbor: NeighborId, prefix: Prefix) {
        let Some(&slot) = self.neighbor_slot.get(&neighbor) else {
            return;
        };
        let Some(entry) = self.neighbors[slot as usize].as_mut() else {
            return;
        };
        match entry.table.get_mut(&prefix) {
            Some(count) => *count += 1, // presence unchanged: FIB stays clean
            None => {
                entry.table.insert(prefix, 1);
                if let Some(fib) = &mut entry.fib {
                    fib.mark_dirty(&prefix);
                }
            }
        }
    }

    /// A route for `prefix` via `neighbor` was removed.
    pub fn remove_route(&mut self, neighbor: NeighborId, prefix: Prefix) {
        let Some(&slot) = self.neighbor_slot.get(&neighbor) else {
            return;
        };
        let Some(entry) = self.neighbors[slot as usize].as_mut() else {
            return;
        };
        if let Some(count) = entry.table.get_mut(&prefix) {
            *count -= 1;
            if *count == 0 {
                entry.table.remove(&prefix);
                if let Some(fib) = &mut entry.fib {
                    fib.mark_dirty(&prefix);
                }
            }
        }
    }

    /// Number of FIB entries for a neighbor.
    pub fn table_len(&self, neighbor: NeighborId) -> usize {
        self.neighbor(neighbor).map(|e| e.table.len()).unwrap_or(0)
    }

    /// Total FIB entries across all per-neighbor tables (the
    /// "per-interconnection data plane" overhead of Fig. 6a).
    pub fn total_fib_entries(&self) -> usize {
        self.neighbors.iter().flatten().map(|e| e.table.len()).sum()
    }

    /// An experiment prefix became deliverable down a local tunnel.
    /// Returns the installed entry so the caller can remove exactly it
    /// when the backing route is withdrawn.
    pub fn install_delivery_local(&mut self, prefix: Prefix, exp: ExperimentId) -> Delivery {
        let delivery = Delivery::Local(exp);
        self.install_delivery(prefix, delivery);
        delivery
    }

    /// An experiment prefix became deliverable across the backbone.
    /// Returns the installed entry so the caller can remove exactly it
    /// when the backing route is withdrawn.
    pub fn install_delivery_remote(
        &mut self,
        prefix: Prefix,
        port: PortId,
        global_ip: Ipv4Addr,
    ) -> Delivery {
        let delivery = Delivery::Remote { port, global_ip };
        self.install_delivery(prefix, delivery);
        delivery
    }

    fn install_delivery(&mut self, prefix: Prefix, delivery: Delivery) {
        if let Some(&idx) = self.delivery.get(&prefix) {
            let set = self.delivery_sets[idx as usize]
                .as_mut()
                .expect("trie points at live set");
            if let Some(entry) = set.entries.iter_mut().find(|(d, _)| *d == delivery) {
                entry.1 += 1;
            } else {
                set.entries.push((delivery, 1));
            }
            // The set's membership changed but the prefix → set mapping did
            // not; flow caches store the set index, so nothing to invalidate.
            return;
        }
        let set = DeliverySet {
            entries: vec![(delivery, 1)],
        };
        let idx = match self.free_delivery_sets.pop() {
            Some(i) => {
                self.delivery_sets[i as usize] = Some(set);
                i
            }
            None => {
                self.delivery_sets.push(Some(set));
                self.delivery_sets.len() as u32 - 1
            }
        };
        self.delivery.insert(prefix, idx);
        if let Some(fib) = &mut self.delivery_fib {
            fib.mark_dirty(&prefix);
        }
    }

    /// One backing route for a delivery entry was withdrawn. The prefix
    /// stays deliverable as long as any other backing route remains.
    pub fn remove_delivery(&mut self, prefix: Prefix, delivery: &Delivery) {
        let Some(&idx) = self.delivery.get(&prefix) else {
            return;
        };
        let set = self.delivery_sets[idx as usize]
            .as_mut()
            .expect("trie points at live set");
        let Some(pos) = set.entries.iter().position(|(d, _)| d == delivery) else {
            return;
        };
        set.entries[pos].1 -= 1;
        if set.entries[pos].1 == 0 {
            set.entries.remove(pos);
        }
        if set.entries.is_empty() {
            self.delivery_sets[idx as usize] = None;
            self.free_delivery_sets.push(idx);
            self.delivery.remove(&prefix);
            if let Some(fib) = &mut self.delivery_fib {
                fib.mark_dirty(&prefix);
            }
        }
    }

    // ---- ARP ----

    /// Answer an ARP query: the MAC owning `ip` at this PoP, if any
    /// (virtual next hops and owned global addresses).
    pub fn arp_answer(&mut self, ip: Ipv4Addr) -> Option<MacAddr> {
        let mac = self.owned_ips.get(&ip).copied();
        if mac.is_some() {
            self.stats.arp_answered += 1;
        }
        mac
    }

    /// Record a backbone ARP resolution (global IP → remote PoP's MAC).
    pub fn note_resolution(&mut self, global_ip: Ipv4Addr, mac: MacAddr) {
        self.resolved.insert(global_ip, mac);
    }

    /// All remote global addresses that still need resolving (prefetched by
    /// the router at configuration time). Lazy — called from the router's
    /// tick loop, so it must not allocate.
    pub fn unresolved_globals(&self) -> impl Iterator<Item = (PortId, Ipv4Addr)> + '_ {
        self.neighbors.iter().flatten().filter_map(|e| match e.fwd {
            NeighborFwd::Remote { port, global_ip } if !self.resolved.contains_key(&global_ip) => {
                Some((port, global_ip))
            }
            _ => None,
        })
    }

    // ---- forwarding ----

    /// Classify a frame's destination MAC (Fig. 2b step 9): decode the
    /// synthetic MAC's tag bits straight into the dense slot arrays.
    pub fn classify(&self, dst_mac: MacAddr) -> Option<MuxTarget> {
        let id = dst_mac.id()?;
        let idx = (id & 0x00ff_ffff) as usize;
        match id & 0xff00_0000 {
            vnh::MAC_TAG_LOCAL => {
                let &slot = self.vnh_mac_slots.get(idx)?;
                if slot == 0 {
                    return None;
                }
                self.neighbors[(slot - 1) as usize]
                    .as_ref()
                    .map(|e| MuxTarget::NeighborTable(e.id))
            }
            MAC_TAG_EXP => {
                let eid = ExperimentId(idx as u32);
                self.experiment(eid)
                    .map(|_| MuxTarget::ExperimentDelivery(eid))
            }
            _ => None,
        }
    }

    /// Resolve a neighbor's wire egress (assumes a route exists).
    fn resolve_fwd(fwd: NeighborFwd, resolved: &FastHashMap<Ipv4Addr, MacAddr>) -> Egress {
        match fwd {
            NeighborFwd::Local { port, dst_mac } => Egress::Frame { port, dst_mac },
            NeighborFwd::Remote { port, global_ip } => match resolved.get(&global_ip) {
                Some(mac) => Egress::Frame {
                    port,
                    dst_mac: *mac,
                },
                None => Egress::Unresolved { port, global_ip },
            },
        }
    }

    fn count_egress(stats: &mut MuxStats, fwd: NeighborFwd, egress: Egress) {
        match egress {
            Egress::Frame { .. } => match fwd {
                NeighborFwd::Local { .. } => stats.to_neighbor += 1,
                NeighborFwd::Remote { .. } => stats.to_backbone += 1,
            },
            Egress::Unresolved { .. } => stats.unresolved += 1,
        }
    }

    /// Forward a packet that an experiment steered into `neighbor`'s table:
    /// longest-prefix-match in that table, then resolve the wire egress
    /// (Fig. 2b steps 10–11). Returns `None` if the table has no route.
    pub fn egress_via_neighbor(
        &mut self,
        neighbor: NeighborId,
        dst_ip: Ipv4Addr,
    ) -> Option<Egress> {
        let &slot = self.neighbor_slot.get(&neighbor)?;
        let entry = self.neighbors[slot as usize].as_mut()?;
        let has_route = if self.fast_path {
            entry.fast_has_route(dst_ip, &mut self.stats, &self.obs)
        } else {
            entry.table.lookup(dst_ip.into()).is_some()
        };
        if !has_route {
            self.stats.no_route += 1;
            return None;
        }
        let egress = Self::resolve_fwd(entry.fwd, &self.resolved);
        Self::count_egress(&mut self.stats, entry.fwd, egress);
        entry.pkts_out += 1;
        Some(egress)
    }

    /// Strict reverse-path check for ingress enforcement: whether
    /// `src_ip` is covered by a route in `neighbor`'s table — i.e. the
    /// neighbor that handed us this packet could itself route back to the
    /// claimed source. Uses the same compiled FIB + flow cache as the
    /// forward path (a uRPF miss and a no-route lookup are the same
    /// machine operation), so per-packet cost matches
    /// [`Self::egress_via_neighbor`]'s lookup.
    pub fn source_routable(&mut self, neighbor: NeighborId, src_ip: Ipv4Addr) -> bool {
        let Some(&slot) = self.neighbor_slot.get(&neighbor) else {
            return false;
        };
        let Some(entry) = self.neighbors[slot as usize].as_mut() else {
            return false;
        };
        if self.fast_path {
            entry.fast_has_route(src_ip, &mut self.stats, &self.obs)
        } else {
            entry.table.lookup(src_ip.into()).is_some()
        }
    }

    /// Batched [`Self::egress_via_neighbor`]: one table selection, one FIB
    /// sync and one wire-egress resolution for a whole run of frames that
    /// classified to the same neighbor. `out[i]` corresponds to
    /// `dst_ips[i]`; `out` is cleared first (caller-owned scratch).
    pub fn egress_via_neighbor_batch(
        &mut self,
        neighbor: NeighborId,
        dst_ips: &[Ipv4Addr],
        out: &mut Vec<Option<Egress>>,
    ) {
        out.clear();
        let Some(&slot) = self.neighbor_slot.get(&neighbor) else {
            out.resize(dst_ips.len(), None);
            return;
        };
        let Some(entry) = self.neighbors[slot as usize].as_mut() else {
            out.resize(dst_ips.len(), None);
            return;
        };
        // Resolution state cannot change mid-batch: compute the hit egress
        // once and reuse it for every frame with a route.
        let egress = Self::resolve_fwd(entry.fwd, &self.resolved);
        if self.fast_path {
            // One sync for the whole run, then prefetch every frame's
            // base-table slot before resolving any of them: the random
            // DRAM loads that dominate a cold lookup overlap instead of
            // serializing per packet.
            let fib = entry.fib.get_or_insert_with(FlatFib::new);
            if fib.sync(&entry.table) {
                self.stats.note_fib_sync(&self.obs, entry.id.0, fib);
            }
            let fib = entry.fib.as_ref().expect("just built");
            let generation = fib.generation();
            let cache = entry
                .cache
                .get_or_insert_with(|| Box::new(FlowCache::new()));
            for &ip in dst_ips {
                fib.prefetch_v4(ip);
            }
            for &ip in dst_ips {
                let key = u32::from(ip);
                let has_route = match cache.get(key, generation) {
                    Some(hit) => {
                        self.stats.flow_cache_hits += 1;
                        hit
                    }
                    None => {
                        self.stats.flow_cache_misses += 1;
                        let hit = fib.covers(ip);
                        cache.put(key, generation, hit);
                        hit
                    }
                };
                if has_route {
                    Self::count_egress(&mut self.stats, entry.fwd, egress);
                    entry.pkts_out += 1;
                    out.push(Some(egress));
                } else {
                    self.stats.no_route += 1;
                    out.push(None);
                }
            }
        } else {
            for &ip in dst_ips {
                if entry.table.lookup(ip.into()).is_some() {
                    Self::count_egress(&mut self.stats, entry.fwd, egress);
                    entry.pkts_out += 1;
                    out.push(Some(egress));
                } else {
                    self.stats.no_route += 1;
                    out.push(None);
                }
            }
        }
    }

    /// Look up the delivery set covering `dst_ip` (fast or slow path).
    #[inline]
    fn delivery_set_for(&mut self, dst_ip: Ipv4Addr) -> Option<u32> {
        if self.fast_path {
            let fib = self.delivery_fib.get_or_insert_with(FlatFib::new);
            if fib.sync(&self.delivery) {
                self.stats.note_fib_sync(&self.obs, DELIVERY_TABLE, fib);
            }
            let generation = fib.generation();
            let key = u32::from(dst_ip);
            let cache = self
                .delivery_cache
                .get_or_insert_with(|| Box::new(FlowCache::new()));
            if let Some(hit) = cache.get(key, generation) {
                self.stats.flow_cache_hits += 1;
                return hit;
            }
            self.stats.flow_cache_misses += 1;
            let hit = fib.lookup(dst_ip).map(|(_, idx)| idx);
            cache.put(key, generation, hit);
            hit
        } else {
            self.delivery.lookup(dst_ip.into()).map(|(_, idx)| *idx)
        }
    }

    fn delivery_decision(
        &mut self,
        set_idx: u32,
        src_rewrite: Option<MacAddr>,
    ) -> Option<(Egress, Option<MacAddr>, ExperimentId)> {
        let set = self.delivery_sets[set_idx as usize].as_ref()?;
        match set.active() {
            Delivery::Local(exp) => {
                let entry = self.experiment(exp)?;
                let (port, mac) = (entry.port, entry.mac);
                self.stats.to_experiment += 1;
                Some((Egress::Frame { port, dst_mac: mac }, src_rewrite, exp))
            }
            Delivery::Remote { port, global_ip } => {
                let exp = ExperimentId(u32::MAX); // unknown at this PoP
                match self.resolved.get(&global_ip) {
                    Some(mac) => {
                        self.stats.to_backbone += 1;
                        Some((
                            Egress::Frame {
                                port,
                                dst_mac: *mac,
                            },
                            None,
                            exp,
                        ))
                    }
                    None => {
                        self.stats.unresolved += 1;
                        Some((Egress::Unresolved { port, global_ip }, None, exp))
                    }
                }
            }
        }
    }

    /// Deliver inbound traffic toward whatever experiment owns `dst_ip`.
    /// `from_neighbor` names the ingress neighbor when known; the returned
    /// source MAC is then that neighbor's virtual MAC so the experiment can
    /// see who delivered the packet (paper §3.2.2 "Routing traffic to
    /// experiments").
    pub fn deliver_to_experiment(
        &mut self,
        dst_ip: Ipv4Addr,
        from_neighbor: Option<NeighborId>,
    ) -> Option<(Egress, Option<MacAddr>, ExperimentId)> {
        let set_idx = self.delivery_set_for(dst_ip)?;
        let src_rewrite = from_neighbor.and_then(|n| self.alloc.get(n)).map(|v| v.mac);
        let decision = self.delivery_decision(set_idx, src_rewrite);
        if decision.is_some() {
            if let Some(entry) = from_neighbor.and_then(|n| self.neighbor_mut(n)) {
                entry.pkts_in += 1;
            }
        }
        decision
    }

    /// Batched [`Self::deliver_to_experiment`]: the ingress-neighbor MAC
    /// rewrite is resolved once for the whole run. `out[i]` corresponds to
    /// `dst_ips[i]`; `out` is cleared first (caller-owned scratch).
    #[allow(clippy::type_complexity)]
    pub fn deliver_to_experiment_batch(
        &mut self,
        dst_ips: &[Ipv4Addr],
        from_neighbor: Option<NeighborId>,
        out: &mut Vec<Option<(Egress, Option<MacAddr>, ExperimentId)>>,
    ) {
        out.clear();
        let src_rewrite = from_neighbor.and_then(|n| self.alloc.get(n)).map(|v| v.mac);
        let mut delivered = 0u64;
        for &ip in dst_ips {
            let decision = self
                .delivery_set_for(ip)
                .and_then(|idx| self.delivery_decision(idx, src_rewrite));
            if decision.is_some() {
                delivered += 1;
            }
            out.push(decision);
        }
        if delivered > 0 {
            if let Some(entry) = from_neighbor.and_then(|n| self.neighbor_mut(n)) {
                entry.pkts_in += delivered;
            }
        }
    }

    /// The tunnel port of a local experiment.
    pub fn experiment_port(&self, id: ExperimentId) -> Option<PortId> {
        self.experiment(id).map(|e| e.port)
    }

    // ---- inspection (consistency checking) ----

    /// Every neighbor with a routing table at this PoP, sorted.
    pub fn neighbor_ids(&self) -> Vec<NeighborId> {
        let mut ids: Vec<NeighborId> = self.neighbors.iter().flatten().map(|e| e.id).collect();
        ids.sort();
        ids
    }

    /// The `(prefix, refcount)` entries of one neighbor's table. Lazy —
    /// no per-call allocation.
    pub fn table_entries(&self, neighbor: NeighborId) -> impl Iterator<Item = (Prefix, u32)> + '_ {
        self.neighbor(neighbor)
            .into_iter()
            .flat_map(|e| e.table.iter().map(|(p, c)| (p, *c)))
    }

    /// The delivery table as `(prefix, refcount, owner)`; the owner is
    /// `None` for entries relayed across the backbone. Lazy — no per-call
    /// allocation.
    pub fn delivery_entries(
        &self,
    ) -> impl Iterator<Item = (Prefix, u32, Option<ExperimentId>)> + '_ {
        self.delivery.iter().map(|(p, idx)| {
            let set = self.delivery_sets[*idx as usize]
                .as_ref()
                .expect("trie points at live set");
            let total = set.entries.iter().map(|(_, c)| *c).sum();
            let exp = match set.active() {
                Delivery::Local(e) => Some(e),
                Delivery::Remote { .. } => None,
            };
            (p, total, exp)
        })
    }

    /// Local experiments registered with the mux, sorted.
    pub fn experiment_ids(&self) -> Vec<ExperimentId> {
        let mut ids: Vec<ExperimentId> = self.experiments.iter().flatten().map(|e| e.id).collect();
        ids.sort();
        ids
    }

    /// Force-compile every FIB and cross-check it against its source trie:
    /// for each stored prefix, the compiled structure and the trie must
    /// agree on the longest match at the prefix's first and last covered
    /// addresses. Returns one line per divergence; used by the convergence
    /// oracle after chaos quiesces.
    pub fn verify_fast_path(&mut self) -> Vec<String> {
        let mut problems = Vec::new();
        for entry in self.neighbors.iter_mut().flatten() {
            let fib = entry.fib.get_or_insert_with(FlatFib::new);
            if fib.sync(&entry.table) {
                self.stats.note_fib_sync(&self.obs, entry.id.0, fib);
            }
            for (prefix, _) in entry.table.iter() {
                for addr in probe_addrs(&prefix).into_iter().flatten() {
                    let want = entry.table.lookup(addr.into()).map(|(p, _)| p);
                    let got = fib.lookup(addr).map(|(p, _)| p);
                    if want != got {
                        problems.push(format!(
                            "neighbor {}: compiled FIB disagrees at {addr}: trie {want:?}, fib {got:?}",
                            entry.id.0
                        ));
                    }
                }
            }
        }
        let fib = self.delivery_fib.get_or_insert_with(FlatFib::new);
        if fib.sync(&self.delivery) {
            self.stats.note_fib_sync(&self.obs, DELIVERY_TABLE, fib);
        }
        for (prefix, idx) in self.delivery.iter() {
            for addr in probe_addrs(&prefix).into_iter().flatten() {
                let want = self.delivery.lookup(addr.into()).map(|(p, v)| (p, *v));
                let got = fib.lookup(addr);
                if want != got {
                    problems.push(format!(
                        "delivery: compiled FIB disagrees at {addr}: trie {want:?}, fib {got:?}"
                    ));
                }
            }
            if self.delivery_sets[*idx as usize].is_none() {
                problems.push(format!("delivery: {prefix} points at a freed set"));
            }
        }
        problems
    }
}

/// The first and last host addresses an IPv4 prefix covers (LPM probe
/// points). `None` for IPv6, which the compiled FIBs do not hold.
fn probe_addrs(prefix: &Prefix) -> Option<[Ipv4Addr; 2]> {
    let Prefix::V4 { addr, len } = prefix else {
        return None;
    };
    let base = u32::from(*addr);
    let mask = if *len == 0 {
        0
    } else {
        u32::MAX << (32 - *len as u32)
    };
    Some([Ipv4Addr::from(base), Ipv4Addr::from(base | !mask)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use peering_bgp::types::prefix;

    const N1: NeighborId = NeighborId(1);
    const N2: NeighborId = NeighborId(2);
    const X1: ExperimentId = ExperimentId(1);

    fn mux() -> VbgpMux {
        let mut m = VbgpMux::new();
        m.add_local_neighbor(N1, PortId(0), MacAddr::from_id(0x11), None);
        m.add_local_neighbor(N2, PortId(1), MacAddr::from_id(0x22), None);
        m
    }

    #[test]
    fn per_neighbor_tables_steer_by_mac() {
        let mut m = mux();
        let p = prefix("192.168.0.0/24");
        // Both neighbors announce the same destination (paper Fig. 1).
        m.install_route(N1, p);
        m.install_route(N2, p);
        let vnh2 = m.vnh(N2).unwrap();
        // A frame addressed to N2's virtual MAC classifies to N2's table...
        assert_eq!(m.classify(vnh2.mac), Some(MuxTarget::NeighborTable(N2)));
        // ...and egresses out N2's port, not N1's.
        let egress = m
            .egress_via_neighbor(N2, "192.168.0.1".parse().unwrap())
            .unwrap();
        assert_eq!(
            egress,
            Egress::Frame {
                port: PortId(1),
                dst_mac: MacAddr::from_id(0x22)
            }
        );
        assert_eq!(m.stats.to_neighbor, 1);
    }

    #[test]
    fn no_route_in_selected_table_drops() {
        let mut m = mux();
        m.install_route(N1, prefix("192.168.0.0/24"));
        // N2's table is empty: steering via N2 fails even though N1 has it.
        assert!(m
            .egress_via_neighbor(N2, "192.168.0.1".parse().unwrap())
            .is_none());
        assert_eq!(m.stats.no_route, 1);
    }

    #[test]
    fn refcounted_routes() {
        let mut m = mux();
        let p = prefix("10.0.0.0/8");
        m.install_route(N1, p);
        m.install_route(N1, p);
        assert_eq!(m.table_len(N1), 1);
        m.remove_route(N1, p);
        assert!(m
            .egress_via_neighbor(N1, "10.1.1.1".parse().unwrap())
            .is_some());
        m.remove_route(N1, p);
        assert!(m
            .egress_via_neighbor(N1, "10.1.1.1".parse().unwrap())
            .is_none());
        assert_eq!(m.total_fib_entries(), 0);
    }

    #[test]
    fn arp_responder_answers_vnh_queries() {
        let mut m = mux();
        let vnh1 = m.vnh(N1).unwrap();
        assert_eq!(m.arp_answer(vnh1.ip), Some(vnh1.mac));
        assert_eq!(m.arp_answer("9.9.9.9".parse().unwrap()), None);
        assert_eq!(m.stats.arp_answered, 1);
    }

    #[test]
    fn global_ownership_answers_backbone_arp() {
        let mut m = mux();
        let gip: Ipv4Addr = "127.127.0.1".parse().unwrap();
        let vnh = m.add_local_neighbor(NeighborId(3), PortId(2), MacAddr::from_id(0x33), Some(gip));
        assert_eq!(m.arp_answer(gip), Some(vnh.mac));
        // The answering MAC classifies straight to the neighbor's table.
        assert_eq!(
            m.classify(vnh.mac),
            Some(MuxTarget::NeighborTable(NeighborId(3)))
        );
    }

    #[test]
    fn remote_neighbor_resolution_flow() {
        let mut m = mux();
        let gip: Ipv4Addr = "127.127.0.9".parse().unwrap();
        m.add_remote_neighbor(NeighborId(9), PortId(5), gip);
        m.install_route(NeighborId(9), prefix("192.168.0.0/24"));
        // Unresolved: caller must ARP.
        assert_eq!(
            m.unresolved_globals().collect::<Vec<_>>(),
            vec![(PortId(5), gip)]
        );
        let egress = m
            .egress_via_neighbor(NeighborId(9), "192.168.0.1".parse().unwrap())
            .unwrap();
        assert_eq!(
            egress,
            Egress::Unresolved {
                port: PortId(5),
                global_ip: gip
            }
        );
        // Resolution arrives.
        m.note_resolution(gip, MacAddr::from_id(0x99));
        assert!(m.unresolved_globals().next().is_none());
        let egress = m
            .egress_via_neighbor(NeighborId(9), "192.168.0.1".parse().unwrap())
            .unwrap();
        assert_eq!(
            egress,
            Egress::Frame {
                port: PortId(5),
                dst_mac: MacAddr::from_id(0x99)
            }
        );
        assert_eq!(m.stats.to_backbone, 1);
        assert_eq!(m.stats.unresolved, 1);
    }

    #[test]
    fn experiment_delivery_rewrites_source_mac() {
        let mut m = mux();
        m.add_experiment(X1, PortId(7), MacAddr::from_id(0x77), None);
        m.install_delivery_local(prefix("184.164.224.0/24"), X1);
        let (egress, src_rewrite, exp) = m
            .deliver_to_experiment("184.164.224.9".parse().unwrap(), Some(N1))
            .unwrap();
        assert_eq!(exp, X1);
        assert_eq!(
            egress,
            Egress::Frame {
                port: PortId(7),
                dst_mac: MacAddr::from_id(0x77)
            }
        );
        // The source MAC is the ingress neighbor's virtual MAC (§3.2.2).
        assert_eq!(src_rewrite, Some(m.vnh(N1).unwrap().mac));
        // Unknown ingress → no rewrite hint.
        let (_, src_rewrite, _) = m
            .deliver_to_experiment("184.164.224.9".parse().unwrap(), None)
            .unwrap();
        assert_eq!(src_rewrite, None);
    }

    #[test]
    fn remote_delivery_goes_over_backbone() {
        let mut m = mux();
        let gip: Ipv4Addr = "127.127.1.1".parse().unwrap();
        m.install_delivery_remote(prefix("184.164.226.0/24"), PortId(4), gip);
        let (egress, _, _) = m
            .deliver_to_experiment("184.164.226.1".parse().unwrap(), None)
            .unwrap();
        assert_eq!(
            egress,
            Egress::Unresolved {
                port: PortId(4),
                global_ip: gip
            }
        );
        m.note_resolution(gip, MacAddr::from_id(0xAA));
        let (egress, _, _) = m
            .deliver_to_experiment("184.164.226.1".parse().unwrap(), None)
            .unwrap();
        assert_eq!(
            egress,
            Egress::Frame {
                port: PortId(4),
                dst_mac: MacAddr::from_id(0xAA)
            }
        );
    }

    #[test]
    fn delivery_refcounts_and_removal() {
        let mut m = mux();
        m.add_experiment(X1, PortId(7), MacAddr::from_id(0x77), None);
        let p = prefix("184.164.224.0/24");
        let d = m.install_delivery_local(p, X1);
        m.install_delivery_local(p, X1);
        m.remove_delivery(p, &d);
        assert!(m
            .deliver_to_experiment("184.164.224.1".parse().unwrap(), None)
            .is_some());
        m.remove_delivery(p, &d);
        assert!(m
            .deliver_to_experiment("184.164.224.1".parse().unwrap(), None)
            .is_none());
    }

    #[test]
    fn local_delivery_outranks_backbone_and_survives_partial_withdraw() {
        let mut m = mux();
        m.add_experiment(X1, PortId(7), MacAddr::from_id(0x77), None);
        let p = prefix("184.164.224.0/24");
        // Backbone copy learned first, then the experiment's own tunnel.
        let remote = m.install_delivery_remote(p, PortId(2), "100.125.0.1".parse().unwrap());
        let local = m.install_delivery_local(p, X1);
        // Local wins regardless of install order.
        let (egress, _, exp) = m
            .deliver_to_experiment("184.164.224.1".parse().unwrap(), None)
            .unwrap();
        assert_eq!(exp, X1);
        assert_eq!(
            egress,
            Egress::Frame {
                port: PortId(7),
                dst_mac: MacAddr::from_id(0x77)
            }
        );
        // Withdrawing the backbone copy must not tear down local delivery.
        m.remove_delivery(p, &remote);
        assert!(m
            .deliver_to_experiment("184.164.224.1".parse().unwrap(), None)
            .is_some());
        // And vice versa: after the tunnel route goes, the backbone copy
        // (re-installed) still delivers.
        m.remove_delivery(p, &local);
        assert!(m
            .deliver_to_experiment("184.164.224.1".parse().unwrap(), None)
            .is_none());
        m.install_delivery_remote(p, PortId(2), "100.125.0.1".parse().unwrap());
        assert!(m
            .deliver_to_experiment("184.164.224.1".parse().unwrap(), None)
            .is_some());
    }

    #[test]
    fn remove_neighbor_cleans_up() {
        let mut m = mux();
        let vnh = m.vnh(N1).unwrap();
        m.install_route(N1, prefix("10.0.0.0/8"));
        m.remove_neighbor(N1);
        assert_eq!(m.classify(vnh.mac), None);
        assert_eq!(m.arp_answer(vnh.ip), None);
        assert!(m
            .egress_via_neighbor(N1, "10.0.0.1".parse().unwrap())
            .is_none());
    }

    #[test]
    fn remove_experiment_cleans_up() {
        let mut m = mux();
        let dmac = m.add_experiment(
            X1,
            PortId(7),
            MacAddr::from_id(0x77),
            Some("127.127.2.2".parse().unwrap()),
        );
        assert_eq!(m.classify(dmac), Some(MuxTarget::ExperimentDelivery(X1)));
        m.remove_experiment(X1);
        assert_eq!(m.classify(dmac), None);
        assert_eq!(m.arp_answer("127.127.2.2".parse().unwrap()), None);
    }

    #[test]
    fn fast_and_slow_paths_agree_under_churn() {
        let mut m = mux();
        let prefixes = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.1.2.200/32",
        ];
        let probes: Vec<Ipv4Addr> = [
            "10.1.2.200",
            "10.1.2.127",
            "10.1.2.129",
            "10.9.9.9",
            "192.0.2.1",
        ]
        .iter()
        .map(|a| a.parse().unwrap())
        .collect();
        for p in prefixes {
            m.install_route(N1, prefix(p));
            for &probe in &probes {
                m.set_fast_path(true);
                let fast = m.egress_via_neighbor(N1, probe);
                m.set_fast_path(false);
                let slow = m.egress_via_neighbor(N1, probe);
                assert_eq!(fast, slow, "probe {probe} after install {p}");
            }
        }
        for p in prefixes {
            m.remove_route(N1, prefix(p));
            for &probe in &probes {
                m.set_fast_path(true);
                let fast = m.egress_via_neighbor(N1, probe);
                m.set_fast_path(false);
                let slow = m.egress_via_neighbor(N1, probe);
                assert_eq!(fast, slow, "probe {probe} after remove {p}");
            }
        }
        assert!(m.verify_fast_path().is_empty());
    }

    #[test]
    fn batch_matches_singles() {
        let mut m = mux();
        m.install_route(N1, prefix("10.0.0.0/8"));
        m.install_route(N1, prefix("10.1.0.0/16"));
        let ips: Vec<Ipv4Addr> = ["10.1.0.1", "10.2.0.1", "11.0.0.1", "10.1.0.1"]
            .iter()
            .map(|a| a.parse().unwrap())
            .collect();
        let mut batched = Vec::new();
        m.egress_via_neighbor_batch(N1, &ips, &mut batched);
        let singles: Vec<_> = ips
            .iter()
            .map(|&ip| m.egress_via_neighbor(N1, ip))
            .collect();
        assert_eq!(batched, singles);

        m.add_experiment(X1, PortId(7), MacAddr::from_id(0x77), None);
        m.install_delivery_local(prefix("184.164.224.0/24"), X1);
        let dips: Vec<Ipv4Addr> = ["184.164.224.9", "184.164.225.9", "184.164.224.1"]
            .iter()
            .map(|a| a.parse().unwrap())
            .collect();
        let mut dbatched = Vec::new();
        m.deliver_to_experiment_batch(&dips, Some(N1), &mut dbatched);
        let dsingles: Vec<_> = dips
            .iter()
            .map(|&ip| m.deliver_to_experiment(ip, Some(N1)))
            .collect();
        assert_eq!(dbatched, dsingles);
    }

    #[test]
    fn flow_cache_serves_repeats_and_invalidates_on_change() {
        let mut m = mux();
        m.install_route(N1, prefix("10.0.0.0/8"));
        let ip: Ipv4Addr = "10.1.1.1".parse().unwrap();
        assert!(m.egress_via_neighbor(N1, ip).is_some()); // compile + miss
        let before = m.stats.flow_cache_hits;
        assert!(m.egress_via_neighbor(N1, ip).is_some());
        assert_eq!(m.stats.flow_cache_hits, before + 1);
        // A more specific install must invalidate the cached answer.
        m.install_route(N1, prefix("10.1.0.0/16"));
        m.remove_route(N1, prefix("10.0.0.0/8"));
        assert!(m.egress_via_neighbor(N1, ip).is_some()); // via the /16 now
        assert!(m
            .egress_via_neighbor(N1, "10.2.0.1".parse().unwrap())
            .is_none());
        assert!(m.verify_fast_path().is_empty());
    }
}
