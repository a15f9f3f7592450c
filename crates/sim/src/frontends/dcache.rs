//! D-cache front-ends (paper Figures 4–5 plus ablations).

use waymem_cache::{AccessKind, AccessOutcome, AccessStats, Geometry, LineBuffer, SetBuffer};
use waymem_core::{Mab, MabConfig, MabLookup, MabStats};
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{TraceEvent, TraceSink};

use super::{group_of_one, Account, Group, Side};

/// A D-cache lookup scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DScheme {
    /// Conventional parallel lookup: all tags + all data ways per load,
    /// all tags + one way per store (write-back buffer).
    Original,
    /// Yang et al.'s lightweight set buffer (approach \[14\]).
    SetBuffer {
        /// Number of buffered sets (the paper's comparison uses 1).
        entries: usize,
    },
    /// The paper's way memoization: a MAB in front of the cache.
    WayMemo {
        /// MAB tag rows (`N_t`).
        tag_entries: usize,
        /// MAB set-index columns (`N_s`).
        set_entries: usize,
    },
    /// The conclusion's future-work hybrid: a line buffer probed before
    /// the MAB (line-buffer hits cost no array access at all).
    WayMemoLineBuffer {
        /// MAB tag rows.
        tag_entries: usize,
        /// MAB set-index columns.
        set_entries: usize,
        /// Line-buffer entries.
        line_entries: usize,
    },
    /// MRU way prediction (Inoue et al., \[9\]): one tag + one way on a
    /// correct prediction, the rest (plus an extra cycle) on a miss.
    WayPredict,
    /// Two-phase lookup (Hasegawa et al., \[8\]): tags first, then exactly
    /// one way — an extra cycle on every access.
    TwoPhase,
    /// A small L0 filter cache / line buffer in front of the L1 (Kin et
    /// al. \[6\]; with one line, Su & Despain's in-cache line buffer
    /// \[13\]). Loads hitting the L0 cost only buffer energy, but an L0
    /// miss "will require additional cycles to access the main cache" —
    /// the performance loss the paper's §2 criticizes. Stores write
    /// through to the L1 conventionally.
    FilterCache {
        /// Number of L0 lines (fully associative, LRU).
        lines: usize,
    },
    /// The MAB *without* replacement-time invalidation, trusting the
    /// paper's §3.3 claim that LRU ordering alone keeps the MAB
    /// consistent with the cache. Every hit is verified against actual
    /// residency; hits that would have returned stale data are counted in
    /// [`waymem_cache::AccessStats::unsound_hits`] and recovered with a
    /// conventional lookup. Exists to *measure* the claim, not to deploy.
    WayMemoPaperLru {
        /// MAB tag rows (`N_t`).
        tag_entries: usize,
        /// MAB set-index columns (`N_s`).
        set_entries: usize,
    },
}

impl DScheme {
    /// Display name used in figure rows.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            DScheme::Original => "original".to_owned(),
            DScheme::SetBuffer { entries } => format!("set_buffer[14]x{entries}"),
            DScheme::WayMemo {
                tag_entries,
                set_entries,
            } => format!("way_memo {tag_entries}x{set_entries}"),
            DScheme::WayMemoLineBuffer {
                tag_entries,
                set_entries,
                line_entries,
            } => format!("way_memo+lb {tag_entries}x{set_entries}+{line_entries}"),
            DScheme::WayPredict => "way_predict[9]".to_owned(),
            DScheme::TwoPhase => "two_phase[8]".to_owned(),
            DScheme::FilterCache { lines } => format!("filter_cache[6]x{lines}"),
            DScheme::WayMemoPaperLru {
                tag_entries,
                set_entries,
            } => format!("way_memo_paper_lru {tag_entries}x{set_entries}"),
        }
    }

    /// The paper's D-cache MAB configuration (2×8).
    #[must_use]
    pub fn paper_way_memo() -> Self {
        DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        }
    }

    /// Builds the front-end over a cache shaped by `geom`.
    ///
    /// # Panics
    ///
    /// Panics if a MAB scheme's entry counts are invalid (zero or > 255).
    #[must_use]
    pub fn build(self, geom: Geometry) -> DFront {
        DFront(Group::new(geom, vec![self.account(geom)]))
    }

    /// The scheme's accounting for a cache shaped by `geom`.
    pub(crate) fn account(self, geom: Geometry) -> DAccount {
        let mab = match self {
            DScheme::WayMemo {
                tag_entries,
                set_entries,
            }
            | DScheme::WayMemoPaperLru {
                tag_entries,
                set_entries,
            }
            | DScheme::WayMemoLineBuffer {
                tag_entries,
                set_entries,
                ..
            } => Some(Mab::new(
                MabConfig::new(geom, tag_entries, set_entries).expect("valid MAB config"),
            )),
            _ => None,
        };
        let line_buffer = match self {
            DScheme::WayMemoLineBuffer { line_entries, .. } => {
                Some(LineBuffer::new(geom, line_entries))
            }
            DScheme::FilterCache { lines } => Some(LineBuffer::new(geom, lines)),
            _ => None,
        };
        DAccount {
            scheme: self,
            geom,
            stats: AccessStats::new(),
            mab,
            set_buffer: match self {
                DScheme::SetBuffer { entries } => Some(SetBuffer::new(entries)),
                _ => None,
            },
            line_buffer,
            extra_cycles: 0,
        }
    }
}

/// One load or store, as the D schemes read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DAccess {
    is_store: bool,
    base: u32,
    disp: i32,
    addr: u32,
}

/// The D side's shared state: none beyond the group's counts. Loads and
/// stores access the cache; fetches do not.
#[derive(Debug)]
pub(crate) struct DSide;

impl Side for DSide {
    type Account = DAccount;

    fn new(_geom: Geometry) -> Self {
        DSide
    }

    fn admit(&mut self, event: TraceEvent) -> Option<(DAccess, u32, AccessKind)> {
        let (kind, base, disp, addr) = match event {
            TraceEvent::Load {
                base, disp, addr, ..
            } => (AccessKind::Load, base, disp, addr),
            TraceEvent::Store {
                base, disp, addr, ..
            } => (AccessKind::Store, base, disp, addr),
            TraceEvent::Fetch { .. } => return None,
        };
        let is_store = kind == AccessKind::Store;
        let access = DAccess {
            is_store,
            base,
            disp,
            addr,
        };
        Some((access, addr, kind))
    }
}

/// One D-scheme's accounting: the tag and way activations of its lookups
/// and the auxiliary structures (MAB, set buffer, line buffer / L0) that
/// decide them, over the outcomes of a shared cache.
#[derive(Debug)]
pub(crate) struct DAccount {
    scheme: DScheme,
    geom: Geometry,
    stats: AccessStats,
    mab: Option<Mab>,
    set_buffer: Option<SetBuffer>,
    line_buffer: Option<LineBuffer>,
    extra_cycles: u64,
}

impl DAccount {
    /// The array activations of a conventional lookup: every tag, and
    /// every data way for a load (one for a store, via the write-back
    /// buffer).
    fn conventional(&mut self, is_store: bool) {
        let w = u64::from(self.geom.ways());
        self.stats.tag_reads += w;
        self.stats.way_reads += if is_store { 1 } else { w };
    }

    /// Counts a memoized `way` that is not where the access found the
    /// line.
    fn check_way(&mut self, out: &AccessOutcome, way: u32) {
        self.stats.wrong_way += u64::from(!out.hit || out.way != way);
    }

    /// A load served by the line buffer / L0: buffer energy only.
    fn buffered(&mut self, out: &AccessOutcome, way: u32) {
        self.stats.buffer_hits += 1;
        self.check_way(out, way);
    }

    /// A MAB-fronted access. A hit costs one way and no tags; the paper-LRU
    /// variant treats a hit on a stale location as unsound and recovers
    /// with a conventional lookup.
    fn way_memo(&mut self, a: &DAccess, out: &AccessOutcome) {
        let precise = !matches!(self.scheme, DScheme::WayMemoPaperLru { .. });
        let mab = self.mab.as_mut().expect("scheme has MAB");
        let lookup = mab.lookup(a.base, a.disp);
        match lookup {
            MabLookup::Hit { way, .. } if precise || (out.hit && out.way == way) => {
                self.stats.way_reads += 1;
                self.check_way(out, way);
            }
            MabLookup::Hit { .. } | MabLookup::Miss { .. } => {
                // A paper-LRU hit here is where the §3.3 LRU argument
                // failed: in hardware it would have returned wrong data.
                self.stats.unsound_hits += u64::from(lookup.is_hit());
                mab.record(a.base, a.disp, out.way);
                self.conventional(a.is_store);
            }
            MabLookup::Wide => self.conventional(a.is_store),
        }
    }
}

impl Account for DAccount {
    type Access = DAccess;

    fn account(&mut self, a: &DAccess, out: &AccessOutcome) {
        if !out.hit {
            // Any structure memoizing the victim's location is now stale.
            // The paper-LRU variant deliberately leaves its MAB alone to
            // measure the paper's claim that LRU ordering makes this
            // unnecessary.
            if let Some(mab) = self.mab.as_mut() {
                if !matches!(self.scheme, DScheme::WayMemoPaperLru { .. }) {
                    mab.invalidate_location(out.index, out.way);
                }
            }
            if let (Some(lb), Some(ev)) = (self.line_buffer.as_mut(), out.evicted) {
                lb.invalidate_line(self.geom.line_addr(ev.tag, ev.index));
            }
        }
        match self.scheme {
            DScheme::Original => self.conventional(a.is_store),
            DScheme::SetBuffer { .. } => {
                let sb = self.set_buffer.as_mut().expect("scheme has set buffer");
                if sb.access(out.index, out.hit) {
                    // The buffered tags name the way: no tag array.
                    self.stats.buffer_hits += 1;
                    self.stats.way_reads += 1;
                } else {
                    self.conventional(a.is_store);
                }
            }
            DScheme::WayMemo { .. } | DScheme::WayMemoPaperLru { .. } => self.way_memo(a, out),
            DScheme::FilterCache { .. } => {
                let l0 = self.line_buffer.as_mut().expect("scheme has L0");
                if a.is_store {
                    // Write-through past the L0; keep the L0 coherent.
                    l0.invalidate_line(a.addr);
                    self.conventional(true);
                } else if let Some(way) = l0.lookup(a.addr) {
                    // Served entirely from the L0 (L0 ⊆ L1 is kept by
                    // eviction invalidation).
                    self.buffered(out, way);
                } else {
                    // L0 miss: the extra cycle the paper's §2 criticizes.
                    l0.record(a.addr, out.way);
                    self.extra_cycles += 1;
                    self.conventional(false);
                }
            }
            DScheme::WayMemoLineBuffer { .. } => {
                let lb = self.line_buffer.as_mut().expect("scheme has line buffer");
                match (!a.is_store).then(|| lb.lookup(a.addr)).flatten() {
                    // Served from the line buffer: no array activation.
                    Some(way) => self.buffered(out, way),
                    None => {
                        // Memoize the line for subsequent loads.
                        lb.record(a.addr, out.way);
                        self.way_memo(a, out);
                    }
                }
            }
            DScheme::WayPredict => {
                self.stats.tag_reads += 1;
                self.stats.way_reads += 1;
                if !out.mru_hit {
                    // Misprediction: re-access the remaining ways, one
                    // cycle later.
                    let w = u64::from(self.geom.ways());
                    self.stats.tag_reads += w - 1;
                    self.stats.way_reads += if a.is_store { 0 } else { w - 1 };
                    self.extra_cycles += 1;
                }
            }
            DScheme::TwoPhase => {
                // Phase 1: all tags; phase 2: exactly one way. Always an
                // extra cycle.
                self.stats.tag_reads += u64::from(self.geom.ways());
                self.stats.way_reads += 1;
                self.extra_cycles += 1;
            }
        }
    }

    fn name(&self) -> String {
        self.scheme.name()
    }

    fn stats(&self) -> AccessStats {
        self.stats
    }

    fn mab(&self) -> Option<&Mab> {
        self.mab.as_ref()
    }

    fn extra_cycles(&self) -> u64 {
        self.extra_cycles
    }

    fn energy_counts(&self, stats: &AccessStats, cycles: u64) -> EnergyCounts {
        EnergyCounts {
            way_reads: stats.way_reads,
            tag_reads: stats.tag_reads,
            buffer_probes: self.set_buffer.as_ref().map_or(0, SetBuffer::lookups)
                + self.line_buffer.as_ref().map_or(0, LineBuffer::lookups),
            mab_lookups: if self.mab.is_some() {
                stats.accesses
            } else {
                0
            },
            cycles,
        }
    }
}

/// A trace-driven D-cache model under one scheme: a group of one, so
/// it owns a private tag-only cache that tracks residency, LRU and dirty
/// state driven purely by the address stream (the CPU's architectural
/// data lives elsewhere), which is exactly what the energy accounting
/// needs.
#[derive(Debug)]
pub struct DFront(Group<DSide>);

group_of_one!(DFront, DScheme);

impl DFront {
    /// Feeds one load/store into the model.
    pub fn access(&mut self, is_store: bool, base: u32, disp: i32, addr: u32) {
        if is_store {
            self.0.store(base, disp, addr, 4);
        } else {
            self.0.load(base, disp, addr, 4);
        }
    }

    /// Cycles added by schemes with lookup penalties (way prediction,
    /// two-phase, the L0); zero for the others — the paper's "no
    /// performance penalty" claim is that this is zero for way
    /// memoization.
    #[must_use]
    pub fn extra_cycles(&self) -> u64 {
        self.0.accounts()[0].extra_cycles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use waymem_isa::Cpu;
    use waymem_workloads::Benchmark;

    fn geom() -> Geometry {
        Geometry::frv()
    }

    /// The MAB of a MAB scheme's front-end.
    fn mab(f: &mut DFront) -> &mut Mab {
        f.0.accounts[0].mab.as_mut().expect("MAB scheme")
    }

    #[test]
    fn original_load_costs_all_tags_and_ways() {
        let mut f = DScheme::Original.build(geom());
        f.access(false, 0x1000, 0, 0x1000); // cold miss
        let s = f.stats();
        assert_eq!(s.accesses, 1);
        assert_eq!(s.tag_reads, 2);
        assert_eq!(s.way_reads, 3); // 2 parallel reads + 1 fill
        f.access(false, 0x1000, 4, 0x1004); // hit
        let s = f.stats();
        assert_eq!(s.tag_reads, 4);
        assert_eq!(s.way_reads, 5);
        assert!(s.is_consistent());
    }

    #[test]
    fn original_store_costs_one_way() {
        let mut f = DScheme::Original.build(geom());
        f.access(true, 0x2000, 0, 0x2000); // store miss: 2 tags + 1 way + fill
        let s = f.stats();
        assert_eq!(s.tag_reads, 2);
        assert_eq!(s.way_reads, 2);
        f.access(true, 0x2000, 8, 0x2008); // store hit: 2 tags + 1 way
        let s = f.stats();
        assert_eq!(s.tag_reads, 4);
        assert_eq!(s.way_reads, 3);
    }

    #[test]
    fn way_memo_hit_skips_tags() {
        let mut f = DScheme::paper_way_memo().build(geom());
        f.access(false, 0x3000, 0, 0x3000); // miss everywhere, records MAB
        let before = f.stats();
        f.access(false, 0x3000, 4, 0x3004); // MAB hit: same tag/set
        let s = f.stats();
        assert_eq!(s.tag_reads, before.tag_reads, "no new tag reads");
        assert_eq!(s.way_reads, before.way_reads + 1, "exactly one way");
        assert_eq!(s.mab_hits, 1);
    }

    #[test]
    fn way_memo_wide_displacement_bypasses() {
        let mut f = DScheme::paper_way_memo().build(geom());
        f.access(false, 0x3000, 1 << 20, 0x3000 + (1 << 20));
        let s = f.stats();
        assert_eq!(s.tag_reads, 2, "conventional path");
        // Re-probing the same wide pair still misses the MAB.
        f.access(false, 0x3000, 1 << 20, 0x3000 + (1 << 20));
        assert_eq!(f.stats().mab_hits, 0);
    }

    #[test]
    fn way_memo_survives_eviction_soundly() {
        // Fill a set with conflicting lines and make sure stale MAB pairs
        // never produce a wrong known-way access (counted in wrong_way).
        let g = Geometry::new(4, 2, 16).unwrap();
        let mut f = DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        // Three lines mapping to set 0: 0x000, 0x040, 0x080.
        for round in 0..8u32 {
            for base in [0x000u32, 0x040, 0x080] {
                f.access(round % 2 == 0, base, 0, base);
            }
        }
        assert_eq!(f.stats().wrong_way, 0);
        assert!(f.stats().is_consistent());
    }

    #[test]
    fn wrong_way_counts_a_lying_mab_in_release_builds() {
        let mut f = DScheme::paper_way_memo().build(geom());
        f.access(false, 0x3000, 0, 0x3000); // miss, MAB memoizes way 0
                                            // Corrupt the memoized way behind the front-end's back.
        mab(&mut f).record(0x3000, 0, 1);
        f.access(false, 0x3000, 4, 0x3004); // MAB hit on the wrong way
        let s = f.stats();
        assert_eq!((s.mab_hits, s.wrong_way), (1, 1));
        assert!(!s.is_consistent());
    }

    #[test]
    fn mab_claims_always_match_cache_residency() {
        let g = Geometry::new(16, 2, 16).unwrap();
        let mut f = DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 8,
        }
        .build(g);
        let mut x: u32 = 0x1234_5678;
        for i in 0..4000u32 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let base = (x >> 8) & 0xfff0;
            let disp = ((x & 0xff) as i32) - 128;
            let addr = base.wrapping_add(disp as u32);
            f.access(i % 3 == 0, base, disp, addr);
            if let Some(mab) = f.0.accounts[0].mab.as_ref() {
                for (set, way, tag) in mab.claims() {
                    assert_eq!(
                        f.0.cache.resident_way(tag, set),
                        Some(way),
                        "stale MAB claim at iteration {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn mab_claims_match_cache_residency_on_every_event_of_real_kernels() {
        // The engine's D group (every D scheme over one cache) under two
        // whole kernels: after each load and store, every valid pair of
        // every MAB must name the way that holds its line in that cache.
        // The paper's cache rarely evicts a memoized line; the 1 kB one
        // does so constantly, so a missing eviction invalidation shows
        // there.
        struct Audit {
            group: Group<DSide>,
            claims: u64,
        }
        impl Audit {
            fn check(&mut self) {
                for account in self.group.accounts() {
                    for (set, way, tag) in account.mab.iter().flat_map(Mab::claims) {
                        assert_eq!(
                            self.group.cache.resident_way(tag, set),
                            Some(way),
                            "{}: stale MAB claim after access {}",
                            account.name(),
                            self.group.shared.accesses
                        );
                        self.claims += 1;
                    }
                }
            }
        }
        impl TraceSink for Audit {
            fn load(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
                self.group.load(base, disp, addr, size);
                self.check();
            }
            fn store(&mut self, base: u32, disp: i32, addr: u32, size: u8) {
                self.group.store(base, disp, addr, size);
                self.check();
            }
        }
        for g in [geom(), Geometry::new(16, 2, 32).unwrap()] {
            for bench in [Benchmark::Fft, Benchmark::Mpeg2Enc] {
                let accounts =
                    crate::presets::full_dschemes().into_iter().map(|s| s.account(g)).collect();
                let mut audit = Audit { group: Group::new(g, accounts), claims: 0 };
                let wl = bench.workload(1).expect("assembles");
                Cpu::new(&wl.program).run(wl.max_steps, &mut audit).expect("runs");
                assert!(audit.claims > 0, "{bench} at {g:?}: the MABs held claims");
                for i in 0..audit.group.accounts().len() {
                    assert_eq!(audit.group.stats(i).wrong_way, 0, "{bench} at {g:?}");
                }
            }
        }
    }

    #[test]
    fn set_buffer_exploits_same_set_locality() {
        let mut f = DScheme::SetBuffer { entries: 1 }.build(geom());
        f.access(false, 0x4000, 0, 0x4000); // miss, buffer refilled
        f.access(false, 0x4000, 4, 0x4004); // same set -> way known
        let s = f.stats();
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(s.tag_reads, 2, "second access needed no tag read");
    }

    #[test]
    fn set_buffer_cannot_exploit_cross_set_locality() {
        let mut f = DScheme::SetBuffer { entries: 1 }.build(geom());
        // Alternate between two sets: single-entry buffer thrashes.
        for i in 0..10 {
            let addr = if i % 2 == 0 { 0x4000 } else { 0x4020 };
            f.access(false, addr, 0, addr);
        }
        assert_eq!(f.stats().buffer_hits, 0);
        // The MAB, by contrast, covers both lines at once.
        let mut m = DScheme::paper_way_memo().build(geom());
        for i in 0..10 {
            let addr = if i % 2 == 0 { 0x4000 } else { 0x4020 };
            m.access(false, addr, 0, addr);
        }
        assert_eq!(m.stats().mab_hits, 8);
    }

    #[test]
    fn way_predict_penalizes_mispredictions() {
        let mut f = DScheme::WayPredict.build(geom());
        // Two conflicting lines in one set: alternating accesses make the
        // MRU prediction always wrong.
        let stride = 512 * 32;
        f.access(false, 0x0, 0, 0x0);
        f.access(false, stride, 0, stride);
        let before = f.extra_cycles();
        f.access(false, 0x0, 0, 0x0);
        f.access(false, stride, 0, stride);
        assert_eq!(f.extra_cycles(), before + 2);
        // A repeated access predicts correctly: no new penalty.
        f.access(false, stride, 0, stride);
        assert_eq!(f.extra_cycles(), before + 2);
    }

    #[test]
    fn two_phase_costs_a_cycle_every_access() {
        let mut f = DScheme::TwoPhase.build(geom());
        for i in 0..5 {
            f.access(false, 0x100 * i, 0, 0x100 * i);
        }
        assert_eq!(f.extra_cycles(), 5);
        let s = f.stats();
        assert_eq!(s.tag_reads, 10);
        // 1 way per access + fills.
        assert!(s.way_reads >= 5);
    }

    #[test]
    fn line_buffer_hybrid_eliminates_array_access_on_lb_hit() {
        let mut f = DScheme::WayMemoLineBuffer {
            tag_entries: 2,
            set_entries: 8,
            line_entries: 1,
        }
        .build(geom());
        f.access(false, 0x5000, 0, 0x5000);
        let before = f.stats();
        f.access(false, 0x5000, 4, 0x5004); // line-buffer hit
        let s = f.stats();
        assert_eq!(s.tag_reads, before.tag_reads);
        assert_eq!(s.way_reads, before.way_reads, "no way access either");
        assert_eq!(s.buffer_hits, before.buffer_hits + 1);
    }

    #[test]
    fn filter_cache_hits_cost_no_arrays_but_misses_cost_cycles() {
        let mut f = DScheme::FilterCache { lines: 2 }.build(geom());
        f.access(false, 0x1000, 0, 0x1000); // L0 miss: +1 cycle, full L1
        assert_eq!(f.extra_cycles(), 1);
        let before = f.stats();
        f.access(false, 0x1000, 4, 0x1004); // L0 hit
        let s = f.stats();
        assert_eq!(s.tag_reads, before.tag_reads);
        assert_eq!(s.way_reads, before.way_reads);
        assert_eq!(s.buffer_hits, 1);
        assert_eq!(f.extra_cycles(), 1, "hits cost no cycle");
    }

    #[test]
    fn filter_cache_stores_write_through_and_invalidate_l0() {
        let mut f = DScheme::FilterCache { lines: 1 }.build(geom());
        f.access(false, 0x2000, 0, 0x2000); // load fills L0
        f.access(true, 0x2000, 4, 0x2004); // store invalidates the L0 copy
        let cycles = f.extra_cycles();
        f.access(false, 0x2000, 8, 0x2008); // must re-fetch into L0
        assert_eq!(f.extra_cycles(), cycles + 1);
    }

    /// The counterexample to the paper's §3.3 consistency argument: MAB
    /// row recency is global while cache LRU is per set, so a row kept
    /// alive by an access to a *different* set can outlive its line.
    fn paper_lru_counterexample(f: &mut DFront, g: Geometry) {
        let low = g.low_bits();
        let a = |tag: u32, set: u32| (tag << low) | (set << g.offset_bits());
        f.access(false, a(1, 0), 0, a(1, 0)); // T1 -> set0 way0
        f.access(false, a(2, 0), 0, a(2, 0)); // T2 -> set0 way1
        f.access(false, a(1, 1), 0, a(1, 1)); // touches MAB row T1 via set1
        f.access(false, a(3, 0), 0, a(3, 0)); // evicts T1 from set0 way0
        f.access(false, a(1, 0), 0, a(1, 0)); // stale pair (T1, set0) -> way0
    }

    #[test]
    fn paper_lru_mode_exhibits_unsound_hits() {
        let g = Geometry::new(4, 2, 16).unwrap();
        let mut f = DScheme::WayMemoPaperLru {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        paper_lru_counterexample(&mut f, g);
        assert_eq!(
            f.stats().unsound_hits,
            1,
            "the LRU argument must fail on this interleaving"
        );
    }

    #[test]
    fn precise_mode_survives_the_same_counterexample() {
        let g = Geometry::new(4, 2, 16).unwrap();
        let mut f = DScheme::WayMemo {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        paper_lru_counterexample(&mut f, g); // known-way accesses audited
        assert_eq!(f.stats().unsound_hits, 0);
        assert_eq!(f.stats().wrong_way, 0);
        assert!(f.stats().is_consistent());
    }

    #[test]
    fn energy_counts_mirror_stats() {
        let mut f = DScheme::paper_way_memo().build(geom());
        for i in 0..50u32 {
            f.access(i % 4 == 0, 0x8000 + (i % 8) * 64, 4, 0x8004 + (i % 8) * 64);
        }
        let e = f.energy_counts(1000);
        let s = f.stats();
        assert_eq!(e.way_reads, s.way_reads);
        assert_eq!(e.tag_reads, s.tag_reads);
        assert_eq!(e.mab_lookups, s.accesses);
        assert_eq!(e.cycles, 1000);
    }

    #[test]
    fn scheme_names_are_distinct() {
        let schemes = [
            DScheme::Original,
            DScheme::SetBuffer { entries: 1 },
            DScheme::paper_way_memo(),
            DScheme::WayPredict,
            DScheme::TwoPhase,
        ];
        let names: std::collections::HashSet<_> = schemes.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), schemes.len());
    }
}
