//! A compiled flat FIB for the data-plane fast path.
//!
//! [`PrefixTrie`] stays the mutable source of truth (it is what
//! `install_route`/`remove_route` edit), but walking one `Box` node per bit
//! is ~32 dependent loads per packet. A [`FlatFib`] is compiled *from* a
//! trie and answers longest-prefix match in one or two array indexes:
//!
//! It uses the classic DIR-24-8 layout: a 2^24-entry base table indexed by
//! the top 24 address bits, plus 256-entry overflow chunks for slots
//! covered by a /25–/32. Routes of length ≤ 24 resolve with a single load;
//! longer ones with two.
//!
//! The table is IPv4-only, like the data plane it serves (`IpPacket`, mux
//! egress and delivery all carry IPv4). IPv6 prefixes in the source trie
//! are ignored: they are never compiled and never answered.
//!
//! Synchronisation is generation-based and lazy. Mutators call
//! [`FlatFib::mark_dirty`] with the changed prefix; nothing is recompiled
//! until [`FlatFib::sync`] is called with the authoritative trie (typically
//! right before a batch of lookups). A sync with few dirty IPv4 prefixes
//! patches only the covered base-table slots; above
//! [`CHURN_REBUILD_THRESHOLD`] it rebuilds from scratch, which is cheaper
//! than many scattered patches. Every sync that changed anything bumps
//! [`FlatFib::generation`], which downstream flow caches compare to
//! invalidate themselves.

use crate::trie::PrefixTrie;
use crate::types::{Afi, Prefix};
use std::net::{IpAddr, Ipv4Addr};

/// Above this many dirty IPv4 prefixes a sync abandons per-prefix patching
/// and rebuilds the whole table; bulk RIB swings (session reset, initial
/// convergence) touch thousands of prefixes and a linear rebuild is cheaper
/// than that many scattered subtree recomputations.
pub const CHURN_REBUILD_THRESHOLD: usize = 64;

/// Base-table slot encoding for the DIR-24-8 IPv4 table.
///
/// * `0` — empty, no route covers this /24.
/// * MSB set — low 31 bits index an overflow chunk (some /25–/32 lives
///   under this slot).
/// * otherwise — `entry index + 1` into [`FlatFib::entries`].
const CHUNK_FLAG: u32 = 1 << 31;

#[derive(Clone)]
struct Chunk {
    /// Fully resolved entry-index+1 (0 = none) per low-byte value.
    slots: Box<[u32; 256]>,
}

impl Default for Chunk {
    fn default() -> Self {
        Chunk {
            slots: Box::new([0; 256]),
        }
    }
}

/// A compiled, immutable-between-syncs longest-prefix-match table.
///
/// Values are *entry indexes*: [`FlatFib::lookup`] returns the matched
/// prefix plus the `u32` value stored in the source trie (the trie must
/// hold `u32` values — in the mux these are next-hop/delivery codes).
pub struct FlatFib {
    /// DIR-24-8 base table, indexed by `addr >> 8`.
    base: Vec<u32>,
    chunks: Vec<Chunk>,
    free_chunks: Vec<u32>,
    /// Matched `(prefix, value)` pairs; base/chunk slots store index+1.
    entries: Vec<(Prefix, u32)>,
    /// Dirty IPv4 prefixes accumulated since the last sync. `None` means
    /// "too many — full rebuild" (the overflow state of the churn counter).
    dirty_v4: Option<Vec<Prefix>>,
    /// Monotone counter bumped on every sync that changed the tables; flow
    /// caches key their validity on this.
    generation: u64,
    /// Set once the first sync/build has run; an unbuilt FlatFib must not
    /// serve lookups (it would claim "no route" for everything).
    built: bool,
    /// What the most recent effective sync did (None until one has run):
    /// `(rebuilt, prefixes_patched)`. A full rebuild reports 0 patched.
    last_sync: Option<(bool, u64)>,
    /// Cumulative full rebuilds across the FIB's lifetime.
    rebuilds: u64,
    /// Cumulative incremental patch rounds.
    patch_rounds: u64,
    /// Cumulative individual prefixes patched across all patch rounds.
    patched_prefixes: u64,
}

impl Default for FlatFib {
    fn default() -> Self {
        Self::new()
    }
}

impl FlatFib {
    /// An empty, unbuilt FIB. The 16M-entry base table is allocated zeroed
    /// up front: the zero page is shared until written, so sparsely
    /// populated tables stay physically small.
    pub fn new() -> Self {
        FlatFib {
            base: vec![0; 1 << 24],
            chunks: Vec::new(),
            free_chunks: Vec::new(),
            entries: Vec::new(),
            dirty_v4: Some(Vec::new()),
            generation: 0,
            built: false,
            last_sync: None,
            rebuilds: 0,
            patch_rounds: 0,
            patched_prefixes: 0,
        }
    }

    /// Current generation; bumps exactly once per table-changing sync.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the FIB has been compiled at least once.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// What the most recent effective sync did: `(rebuilt, prefixes_patched)`.
    /// `None` until a sync has done work.
    pub fn last_sync(&self) -> Option<(bool, u64)> {
        self.last_sync
    }

    /// Lifetime sync totals: `(full rebuilds, patch rounds, prefixes patched)`.
    pub fn sync_totals(&self) -> (u64, u64, u64) {
        (self.rebuilds, self.patch_rounds, self.patched_prefixes)
    }

    /// Whether a sync would do any work.
    pub fn is_dirty(&self) -> bool {
        !self.built
            || match &self.dirty_v4 {
                None => true,
                Some(d) => !d.is_empty(),
            }
    }

    /// Record that `prefix`'s mapping in the source trie changed (installed,
    /// removed, or its value/delivery changed). Cheap; the actual recompile
    /// happens at the next [`sync`](Self::sync). An IPv6 prefix is a no-op:
    /// the compiled table holds IPv4 only.
    pub fn mark_dirty(&mut self, prefix: &Prefix) {
        if prefix.afi() != Afi::Ipv4 {
            return;
        }
        if let Some(dirty) = &mut self.dirty_v4 {
            // Dedup before counting toward the threshold: sustained churn
            // concentrated on a few prefixes (one flapping session
            // re-dirtying the same /24 every update) must not masquerade as
            // a wide dirty set and force a wholesale rebuild. The crossover
            // to rebuild is then monotone in the number of DISTINCT dirty
            // prefixes. Linear scan is fine: the list is capped at
            // CHURN_REBUILD_THRESHOLD entries.
            if dirty.contains(prefix) {
                return;
            }
            if dirty.len() >= CHURN_REBUILD_THRESHOLD {
                self.dirty_v4 = None;
            } else {
                dirty.push(*prefix);
            }
        }
    }

    /// Bring the compiled tables up to date with `trie`. Returns `true` if
    /// anything was recompiled (and the generation bumped).
    pub fn sync(&mut self, trie: &PrefixTrie<u32>) -> bool {
        if !self.is_dirty() {
            return false;
        }
        // Patches intern fresh entries and only a rebuild clears them, so a
        // long run of patch-only churn falls back to a rebuild once the
        // garbage outweighs the live table.
        let bloated = self.entries.len() > 2 * trie.len() + CHURN_REBUILD_THRESHOLD;
        if !self.built || self.dirty_v4.is_none() || bloated {
            self.rebuild(trie);
            self.rebuilds += 1;
            self.last_sync = Some((true, 0));
        } else {
            let dirty = std::mem::take(&mut self.dirty_v4).unwrap_or_default();
            for p in &dirty {
                self.patch_v4(trie, p);
            }
            self.dirty_v4 = Some(Vec::new());
            self.patch_rounds += 1;
            self.patched_prefixes += dirty.len() as u64;
            self.last_sync = Some((false, dirty.len() as u64));
        }
        self.built = true;
        self.generation += 1;
        true
    }

    /// Longest-prefix match. Must only be called on a built FIB (call
    /// [`sync`](Self::sync) first); an unbuilt FIB answers `None` for
    /// everything, which callers must not mistake for "no route".
    #[inline]
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Prefix, u32)> {
        let a = u32::from(addr);
        let slot = self.base[(a >> 8) as usize];
        let idx = if slot & CHUNK_FLAG != 0 {
            self.chunks[(slot & !CHUNK_FLAG) as usize].slots[(a & 0xff) as usize]
        } else {
            slot
        };
        if idx == 0 {
            None
        } else {
            Some(self.entries[(idx - 1) as usize])
        }
    }

    /// Does any route cover `addr`? Cheaper than [`lookup`](Self::lookup)
    /// on the hot path: slot codes are compared against zero without ever
    /// dereferencing the entry table, so a /24-or-shorter hit is a single
    /// array load. Same build requirement as `lookup`.
    #[inline]
    pub fn covers(&self, addr: Ipv4Addr) -> bool {
        let a = u32::from(addr);
        let slot = self.base[(a >> 8) as usize];
        if slot & CHUNK_FLAG != 0 {
            self.chunks[(slot & !CHUNK_FLAG) as usize].slots[(a & 0xff) as usize] != 0
        } else {
            slot != 0
        }
    }

    /// Hint the CPU to pull `addr`'s base-table slot toward the cache. The
    /// batched forwarding path issues these for a whole run of frames
    /// before resolving any of them, overlapping the DRAM latency that
    /// otherwise dominates random-destination lookups.
    #[inline]
    #[allow(unsafe_code)]
    pub fn prefetch_v4(&self, addr: Ipv4Addr) {
        let idx = (u32::from(addr) >> 8) as usize;
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch has no memory effects and `idx` is in bounds
        // (the base table always holds 2^24 slots).
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.base.as_ptr().add(idx).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        // No stable prefetch intrinsic elsewhere: an early plain read has
        // the same warming effect (black_box keeps it from being elided).
        std::hint::black_box(self.base[idx]);
    }

    /// Full rebuild from the IPv4 routes of the trie.
    fn rebuild(&mut self, trie: &PrefixTrie<u32>) {
        // Reallocate rather than zero in place: a fresh `vec![0; …]` is a
        // calloc whose pages stay uncommitted until written, so sparse
        // tables never touch most of the 64 MB base array.
        self.base = vec![0; 1 << 24];
        self.chunks.clear();
        self.free_chunks.clear();
        self.entries.clear();
        self.dirty_v4 = Some(Vec::new());

        // Ascending length order: each insertion overwrites only the slots
        // it covers more specifically, so when a /16 is processed before
        // the /24 inside it, the /24 wins exactly where it should.
        let mut v4: Vec<(Prefix, u32)> = Vec::new();
        for (p, v) in trie.iter() {
            if p.afi() == Afi::Ipv4 {
                v4.push((p, *v));
            }
        }
        v4.sort_by_key(|(p, _)| p.len());
        for (p, v) in v4 {
            let e = self.intern(p, v);
            self.paint_v4(p, e);
        }
    }

    /// Allocate an entry slot, returning its index+1 code.
    fn intern(&mut self, p: Prefix, v: u32) -> u32 {
        self.entries.push((p, v));
        self.entries.len() as u32
    }

    /// Write entry code `e` for prefix `p` over the slots it covers,
    /// respecting already-painted more-specific routes (callers paint in
    /// ascending length order, so "respecting" means plain overwrite for
    /// base slots but per-slot length comparison inside chunks).
    fn paint_v4(&mut self, p: Prefix, e: u32) {
        let Prefix::V4 { addr, len } = p else {
            unreachable!("paint_v4 called with v6 prefix");
        };
        let a = u32::from(addr);
        if len <= 24 {
            let lo = (a >> 8) as usize;
            let hi = if len == 0 {
                1usize << 24
            } else {
                lo + (1usize << (24 - len as usize))
            };
            for slot in lo..hi {
                if self.base[slot] & CHUNK_FLAG != 0 {
                    let ci = (self.base[slot] & !CHUNK_FLAG) as usize;
                    let chunk = &mut self.chunks[ci];
                    // Entry lens are unknown per chunk slot during a plain
                    // ascending-order build this branch never runs (chunks
                    // are created after all ≤/24s), but patching reuses
                    // paint: fill only less-specific positions.
                    for s in chunk.slots.iter_mut() {
                        if *s == 0 || self.entries[(*s - 1) as usize].0.len() <= len {
                            *s = e;
                        }
                    }
                } else {
                    self.base[slot] = e;
                }
            }
        } else {
            let slot = (a >> 8) as usize;
            let ci = if self.base[slot] & CHUNK_FLAG != 0 {
                (self.base[slot] & !CHUNK_FLAG) as usize
            } else {
                // Spill this /24 slot into a chunk, leaf-pushing the
                // current ≤/24 best match into every chunk position.
                let ci = match self.free_chunks.pop() {
                    Some(i) => i as usize,
                    None => {
                        self.chunks.push(Chunk::default());
                        self.chunks.len() - 1
                    }
                };
                let fill = self.base[slot];
                self.chunks[ci].slots.fill(fill);
                self.base[slot] = CHUNK_FLAG | ci as u32;
                ci
            };
            let lo = (a & 0xff) as usize;
            let hi = lo + (1usize << (32 - len as u32));
            let chunk = &mut self.chunks[ci];
            for s in &mut chunk.slots[lo..hi] {
                if *s == 0 || self.entries[(*s - 1) as usize].0.len() <= len {
                    *s = e;
                }
            }
        }
    }

    /// Recompute every base-table slot covered by `changed` directly from
    /// the trie. Order-independent and idempotent, so a batch of dirty
    /// prefixes can be patched in any order.
    fn patch_v4(&mut self, trie: &PrefixTrie<u32>, changed: &Prefix) {
        let Prefix::V4 { addr, len } = changed else {
            return;
        };
        let a = u32::from(*addr);
        let (lo, hi) = if *len == 0 {
            (0usize, 1usize << 24)
        } else if *len <= 24 {
            let lo = (a >> 8) as usize;
            (lo, lo + (1usize << (24 - *len as usize)))
        } else {
            let lo = (a >> 8) as usize;
            (lo, lo + 1)
        };
        // A /0 or very short prefix covers the whole table — treat as a
        // rebuild rather than iterating 16M slots one trie lookup each.
        if hi - lo > (1 << 16) {
            self.rebuild(trie);
            return;
        }
        let mut last_coarse = None;
        for slot in lo..hi {
            self.recompute_slot(trie, slot as u32, &mut last_coarse);
        }
    }

    /// Recompute one /24 base slot (and its chunk, if any /25+ lives there)
    /// from the trie. `last_coarse` carries the previous slot's coarse
    /// `(prefix, code)` so a run of slots under one route shares one entry.
    fn recompute_slot(
        &mut self,
        trie: &PrefixTrie<u32>,
        slot: u32,
        last_coarse: &mut Option<(Prefix, u32)>,
    ) {
        let slot_addr = Ipv4Addr::from(slot << 8);
        let slot_prefix = Prefix::V4 {
            addr: slot_addr,
            len: 24,
        };
        // Best route at /24 or shorter covering this slot.
        let coarse = trie.lookup_at_most(IpAddr::V4(slot_addr), 24);
        // Patches intern a fresh entry rather than searching the list for
        // an equal one (a linear scan would be wasteful at DFZ scale);
        // `sync` rebuilds once the garbage outgrows the table.
        let coarse_code = coarse.map(|(p, v)| match *last_coarse {
            Some((lp, code)) if lp == p => code,
            _ => {
                let code = self.intern(p, *v);
                *last_coarse = Some((p, code));
                code
            }
        });
        // Any /25–/32 under this slot?
        let mut fine: Vec<(Prefix, u32)> = trie
            .iter_under(&slot_prefix)
            .filter(|(p, _)| p.len() > 24)
            .map(|(p, v)| (p, *v))
            .collect();

        let old = self.base[slot as usize];
        if fine.is_empty() {
            if old & CHUNK_FLAG != 0 {
                self.free_chunks.push(old & !CHUNK_FLAG);
            }
            self.base[slot as usize] = coarse_code.unwrap_or(0);
            return;
        }
        let ci = if old & CHUNK_FLAG != 0 {
            (old & !CHUNK_FLAG) as usize
        } else {
            match self.free_chunks.pop() {
                Some(i) => i as usize,
                None => {
                    self.chunks.push(Chunk::default());
                    self.chunks.len() - 1
                }
            }
        };
        let fill = coarse_code.unwrap_or(0);
        self.chunks[ci].slots.fill(fill);
        fine.sort_by_key(|(p, _)| p.len());
        for (p, v) in fine {
            let e = self.intern(p, v);
            let Prefix::V4 { addr, len } = p else {
                continue;
            };
            let lo = (u32::from(addr) & 0xff) as usize;
            let hi = lo + (1usize << (32 - len as u32));
            for s in &mut self.chunks[ci].slots[lo..hi] {
                *s = e;
            }
        }
        self.base[slot as usize] = CHUNK_FLAG | ci as u32;
    }

    /// Approximate heap size of the compiled structures, for stats.
    pub fn memory_bytes(&self) -> usize {
        self.base.len() * 4
            + self.chunks.len() * 256 * 4
            + self.entries.len() * std::mem::size_of::<(Prefix, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::prefix;

    fn built(pairs: &[(&str, u32)]) -> (PrefixTrie<u32>, FlatFib) {
        let mut t = PrefixTrie::new();
        for (p, v) in pairs {
            t.insert(prefix(p), *v);
        }
        let mut f = FlatFib::new();
        f.sync(&t);
        (t, f)
    }

    fn assert_agree(t: &PrefixTrie<u32>, f: &FlatFib, addr: &str) {
        let addr: Ipv4Addr = addr.parse().unwrap();
        let want = t.lookup(addr.into()).map(|(p, v)| (p, *v));
        assert_eq!(f.lookup(addr), want, "disagree on {addr}");
    }

    #[test]
    fn v4_basic_lpm() {
        let (t, f) = built(&[
            ("0.0.0.0/0", 1),
            ("10.0.0.0/8", 2),
            ("10.1.0.0/16", 3),
            ("10.1.2.0/24", 4),
            ("10.1.2.128/25", 5),
            ("10.1.2.200/32", 6),
        ]);
        for a in [
            "10.1.2.200",
            "10.1.2.201",
            "10.1.2.127",
            "10.1.2.128",
            "10.1.3.1",
            "10.9.9.9",
            "192.0.2.1",
        ] {
            assert_agree(&t, &f, a);
        }
    }

    #[test]
    fn empty_fib_misses() {
        let (t, f) = built(&[]);
        assert_agree(&t, &f, "10.0.0.1");
    }

    #[test]
    fn incremental_patch_tracks_trie() {
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1), ("10.1.0.0/16", 2)]);
        let g0 = f.generation();

        t.insert(prefix("10.1.2.0/24"), 3);
        f.mark_dirty(&prefix("10.1.2.0/24"));
        assert!(f.sync(&t));
        assert!(f.generation() > g0);
        assert_agree(&t, &f, "10.1.2.9");

        t.insert(prefix("10.1.2.128/25"), 4); // forces a chunk spill
        f.mark_dirty(&prefix("10.1.2.128/25"));
        f.sync(&t);
        assert_agree(&t, &f, "10.1.2.129");
        assert_agree(&t, &f, "10.1.2.1");

        t.remove(&prefix("10.1.2.128/25"));
        f.mark_dirty(&prefix("10.1.2.128/25"));
        f.sync(&t);
        assert_agree(&t, &f, "10.1.2.129");

        t.remove(&prefix("10.1.2.0/24"));
        f.mark_dirty(&prefix("10.1.2.0/24"));
        f.sync(&t);
        assert_agree(&t, &f, "10.1.2.9");
    }

    #[test]
    fn sync_without_dirt_is_free() {
        let (t, mut f) = built(&[("10.0.0.0/8", 1)]);
        let g = f.generation();
        assert!(!f.sync(&t));
        assert_eq!(f.generation(), g);
    }

    #[test]
    fn churn_threshold_forces_rebuild() {
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        for i in 0..(CHURN_REBUILD_THRESHOLD as u32 + 10) {
            let p = Prefix::v4(Ipv4Addr::from(0x0a00_0000 | (i << 8)), 24).unwrap();
            t.insert(p, 100 + i);
            f.mark_dirty(&p);
        }
        assert!(f.sync(&t));
        for i in 0..(CHURN_REBUILD_THRESHOLD as u32 + 10) {
            let a = Ipv4Addr::from(0x0a00_0001 | (i << 8));
            assert_eq!(f.lookup(a).map(|(_, v)| v), Some(100 + i));
        }
    }

    #[test]
    fn default_route_patch_is_a_rebuild() {
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
        t.insert(prefix("0.0.0.0/0"), 9);
        f.mark_dirty(&prefix("0.0.0.0/0"));
        f.sync(&t);
        assert_agree(&t, &f, "192.0.2.1");
        assert_agree(&t, &f, "10.1.1.1");
    }

    #[test]
    fn repeated_marks_of_one_prefix_patch_not_rebuild() {
        // Regression: mark_dirty used to count duplicates toward the
        // rebuild threshold, so a single flapping prefix re-marked 64+
        // times between syncs forced a wholesale rebuild of the 16M-slot
        // table. Sustained churn on one prefix must stay a 1-prefix patch.
        let (mut t, mut f) = built(&[("10.0.0.0/8", 1), ("10.1.2.0/24", 2)]);
        let (rebuilds_before, ..) = f.sync_totals();
        let p = prefix("10.1.2.0/24");
        for i in 0..(CHURN_REBUILD_THRESHOLD as u32 * 4) {
            t.insert(p, 100 + i);
            f.mark_dirty(&p);
        }
        assert!(f.sync(&t));
        assert_eq!(
            f.last_sync(),
            Some((false, 1)),
            "one flapping prefix must patch one prefix, not rebuild"
        );
        let (rebuilds_after, ..) = f.sync_totals();
        assert_eq!(rebuilds_before, rebuilds_after);
        assert_agree(&t, &f, "10.1.2.1");
    }

    #[test]
    fn rebuild_crossover_monotone_in_distinct_prefixes() {
        // The patch-vs-rebuild decision must be a monotone function of the
        // number of DISTINCT dirty prefixes: patch at or below the
        // threshold, rebuild above it — regardless of how many times each
        // prefix was re-marked.
        for distinct in [
            1usize,
            7,
            CHURN_REBUILD_THRESHOLD,
            CHURN_REBUILD_THRESHOLD + 1,
        ] {
            let (mut t, mut f) = built(&[("10.0.0.0/8", 1)]);
            for round in 0..3u32 {
                for i in 0..distinct as u32 {
                    let p = Prefix::v4(Ipv4Addr::from(0x0a00_0000 | (i << 8)), 24).unwrap();
                    t.insert(p, 100 + i + round);
                    f.mark_dirty(&p);
                }
            }
            assert!(f.sync(&t));
            let want_rebuild = distinct > CHURN_REBUILD_THRESHOLD;
            let (was_rebuild, patched) = f.last_sync().expect("sync happened");
            assert_eq!(
                was_rebuild, want_rebuild,
                "{distinct} distinct dirty prefixes: rebuild={was_rebuild}"
            );
            if !want_rebuild {
                assert_eq!(patched as usize, distinct, "patched exactly the dirty set");
            }
            for i in 0..distinct as u32 {
                let a = Ipv4Addr::from(0x0a00_0001 | (i << 8));
                assert_eq!(f.lookup(a).map(|(_, v)| v), Some(100 + i + 2));
            }
        }
    }

    #[test]
    fn patch_only_churn_keeps_entries_bounded() {
        // Regression: every patch interns fresh entries and only a rebuild
        // cleared them, so churn below the rebuild threshold grew
        // `entries` without bound. Flap a fixed table's prefixes one per
        // sync for thousands of rounds: the list must stay within the
        // fallback bound plus one round's growth.
        let mut pairs = vec![
            ("10.0.0.0/8".to_string(), 1),
            ("10.1.0.0/16".to_string(), 2),
            ("10.1.2.0/24".to_string(), 3),
            ("10.1.2.128/25".to_string(), 4),
            ("10.1.2.200/30".to_string(), 5),
        ];
        for i in 0..200u32 {
            pairs.push((format!("10.2.{i}.0/24"), 10 + i));
        }
        let refs: Vec<(&str, u32)> = pairs.iter().map(|(p, v)| (p.as_str(), *v)).collect();
        let (mut t, mut f) = built(&refs);
        let flapping = [
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
            "10.1.2.200/30",
        ];
        // The worst round is the /16: its coarse entry (interned again
        // after the 10.1.2.0/24 slot breaks the run), that /24, and the
        // /25 and /30 under it.
        let max_round_growth = 5;
        let bound = 2 * t.len() + CHURN_REBUILD_THRESHOLD + max_round_growth;
        for round in 0..3000u32 {
            let p = prefix(flapping[round as usize % flapping.len()]);
            t.insert(p, 1000 + round);
            f.mark_dirty(&p);
            assert!(f.sync(&t));
            assert!(
                f.entries.len() <= bound,
                "round {round}: {} entries for a {}-route table",
                f.entries.len(),
                t.len()
            );
            for a in [
                "10.1.2.201",
                "10.1.2.130",
                "10.1.2.1",
                "10.1.9.9",
                "10.2.7.1",
                "10.9.0.1",
            ] {
                assert_agree(&t, &f, a);
            }
        }
        let (rebuilds, patch_rounds, _) = f.sync_totals();
        assert!(rebuilds > 1, "the bound never forced a rebuild");
        assert!(patch_rounds > rebuilds, "churn should mostly patch");
    }
}
