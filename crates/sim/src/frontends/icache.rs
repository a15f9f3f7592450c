//! I-cache front-ends (paper Figures 6–7).
//!
//! The FR-V fetches 8-byte VLIW packets, so one I-cache access happens per
//! *packet*, not per instruction: consecutive instructions in the same
//! packet cost nothing new. Accesses are classified per the paper's §2
//! taxonomy; intra-cache-line sequential flow (case 1) needs no tag check
//! at all — the way is known from the previous fetch — and everything else
//! goes through the MAB under the paper's scheme, with the input mux of
//! Figure 2 choosing between (PC, stride), (PC, branch offset) and the
//! link-register value.

use waymem_cache::{AccessKind, AccessOutcome, AccessStats, Geometry};
use waymem_core::{Mab, MabConfig, MabLookup, MabStats};
use waymem_hwmodel::{EnergyCounts, MabShape};
use waymem_isa::{FetchKind, TraceEvent, TraceSink};

use super::links::{Btb, LinkTable};
use super::{group_of_one, Account, Group, Side};

/// Fetch packet size in bytes (two 4-byte syllables, per FR-V).
pub const PACKET_BYTES: u32 = 8;

/// An I-cache lookup scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IScheme {
    /// Conventional: all tags + all ways on every packet fetch.
    Original,
    /// Panwar & Rennels (approach \[4\]): skip tag and non-resident ways
    /// for intra-cache-line sequential flow; full access otherwise.
    IntraLine,
    /// The paper: intra-line skip plus a MAB for inter-line sequential
    /// and non-sequential flow.
    WayMemo {
        /// MAB tag rows (`N_t`).
        tag_entries: usize,
        /// MAB set-index columns (`N_s`).
        set_entries: usize,
    },
    /// Ma, Zhang & Asanović (\[11\]): every cache line carries a
    /// *sequential link* (valid bit + way of the next-line's way) and a
    /// *branch link* (valid bit + target line + way). Handles inter-line
    /// sequential and taken-branch flow without a MAB, but pays two extra
    /// bits read with every instruction and needs a link-invalidation
    /// mechanism on every line replacement — the overheads the paper's
    /// MAB avoids.
    LinkMemo,
    /// Inoue, Moshnyaga & Murakami (\[12\]): a branch target buffer
    /// extended with the target's way, probed on non-sequential flow;
    /// intra-line sequential flow uses the way register. Its weakness —
    /// called out in the paper's §2 — is that it "cannot handle the
    /// inter-cache-line sequential flow", which pays full lookups.
    ExtendedBtb {
        /// Number of BTB entries (fully associative, LRU).
        entries: usize,
    },
}

impl IScheme {
    /// Display name used in figure rows.
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            IScheme::Original => "original".to_owned(),
            IScheme::IntraLine => "intra_line[4]".to_owned(),
            IScheme::WayMemo {
                tag_entries,
                set_entries,
            } => format!("way_memo {tag_entries}x{set_entries}"),
            IScheme::LinkMemo => "link_memo[11]".to_owned(),
            IScheme::ExtendedBtb { entries } => format!("ext_btb[12]x{entries}"),
        }
    }

    /// The paper's I-cache MAB configuration (2×16).
    #[must_use]
    pub fn paper_way_memo() -> Self {
        IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 16,
        }
    }

    /// Builds the front-end over a cache shaped by `geom`.
    ///
    /// # Panics
    ///
    /// Panics if a MAB scheme's entry counts are invalid (zero or > 255).
    #[must_use]
    pub fn build(self, geom: Geometry) -> IFront {
        IFront(Group::new(geom, vec![self.account(geom)]))
    }

    /// The scheme's accounting for a cache shaped by `geom`.
    pub(crate) fn account(self, geom: Geometry) -> IAccount {
        IAccount {
            scheme: self,
            geom,
            stats: AccessStats::new(),
            mab: match self {
                IScheme::WayMemo {
                    tag_entries,
                    set_entries,
                } => Some(Mab::new(
                    MabConfig::new(geom, tag_entries, set_entries).expect("valid MAB config"),
                )),
                _ => None,
            },
            links: matches!(self, IScheme::LinkMemo).then(|| LinkTable::new(geom)),
            btb: match self {
                IScheme::ExtendedBtb { entries } => Some(Btb::new(geom, entries)),
                _ => None,
            },
        }
    }
}

/// One packet fetch, as the I schemes read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IAccess {
    packet: u32,
    kind: FetchKind,
    /// The previously fetched packet.
    prev: Option<u32>,
    /// The way holding the previous packet (the "way register" that
    /// intra-line flow reuses).
    way_reg: Option<u32>,
    /// Sequential flow within the previous packet's line (§2's case 1).
    intra_line: bool,
}

/// The I side's shared state: one cache access per packet, not per
/// instruction, so consecutive instructions in the same packet cost
/// nothing new; and the previous packet and its way, which intra-line,
/// link and BTB lookups read.
#[derive(Debug)]
pub(crate) struct ISide {
    geom: Geometry,
    prev: Option<u32>,
    way_reg: Option<u32>,
}

impl Side for ISide {
    type Account = IAccount;

    fn new(geom: Geometry) -> Self {
        ISide {
            geom,
            prev: None,
            way_reg: None,
        }
    }

    fn admit(&mut self, event: TraceEvent) -> Option<(IAccess, u32, AccessKind)> {
        let TraceEvent::Fetch { pc, kind } = event else {
            return None;
        };
        let packet = pc & !(PACKET_BYTES - 1);
        let sequential = kind == FetchKind::Sequential;
        if sequential && self.prev == Some(packet) {
            return None; // still streaming out of the fetched packet
        }
        let access = IAccess {
            packet,
            kind,
            prev: self.prev,
            way_reg: self.way_reg,
            intra_line: sequential && self.prev.is_some_and(|p| self.geom.same_line(p, packet)),
        };
        self.prev = Some(packet);
        Some((access, packet, AccessKind::Load))
    }

    fn settle(&mut self, out: &AccessOutcome) {
        self.way_reg = Some(out.way);
    }
}

/// One I-scheme's accounting over the outcomes of a shared cache.
#[derive(Debug)]
pub(crate) struct IAccount {
    scheme: IScheme,
    geom: Geometry,
    stats: AccessStats,
    mab: Option<Mab>,
    links: Option<LinkTable>,
    btb: Option<Btb>,
}

impl IAccount {
    fn conventional(&mut self) {
        let w = u64::from(self.geom.ways());
        self.stats.tag_reads += w;
        self.stats.way_reads += w;
    }

    /// A known-way fetch (intra-line, MAB, link or BTB hit): one way, no
    /// tags; a way that is not where the access found the line is counted
    /// in [`AccessStats::wrong_way`].
    fn known_way(&mut self, out: &AccessOutcome, way: u32) {
        self.stats.way_reads += 1;
        self.stats.wrong_way += u64::from(!out.hit || out.way != way);
    }

    /// Way-extended-BTB fetch (Inoue et al. \[12\]): key the BTB by the
    /// packet the transfer came from; a full (source, target) match makes
    /// the target's way known.
    fn btb_fetch(&mut self, source: u32, a: &IAccess, out: &AccessOutcome) {
        let target_base = self.geom.line_base(a.packet);
        let btb = self.btb.as_mut().expect("scheme has BTB");
        if let Some(way) = btb.probe(source, target_base) {
            self.stats.buffer_hits += 1;
            self.known_way(out, way);
        } else {
            btb.record(source, target_base, out.way);
            self.conventional();
        }
    }

    /// Link-based fetch (Ma et al. \[11\]): consult the previous line's
    /// sequential or branch link; on a valid link the way is known, else
    /// do a conventional lookup and install the link for next time.
    fn link_fetch(&mut self, a: &IAccess, out: &AccessOutcome) {
        let target_base = self.geom.line_base(a.packet);
        let sequential = a.kind == FetchKind::Sequential;
        let links = self.links.as_mut().expect("scheme has links");
        let Some((set, from_way)) = a
            .prev
            .zip(a.way_reg)
            .map(|(p, w)| (self.geom.index_of(p), w))
        else {
            return self.conventional();
        };
        let linked = if sequential {
            links.seq_way(set, from_way, target_base)
        } else {
            links.branch_way(set, from_way, target_base)
        };
        if let Some(way) = linked {
            self.stats.buffer_hits += 1;
            return self.known_way(out, way);
        }
        if sequential {
            links.set_seq(set, from_way, target_base, out.way);
        } else {
            links.set_branch(set, from_way, target_base, out.way);
        }
        self.conventional();
    }

    fn mab_fetch(&mut self, a: &IAccess, out: &AccessOutcome) {
        let (base, disp) = match (a.kind, a.prev) {
            // Inter-line sequential: PC + stride (Figure 2's "+8" input).
            (FetchKind::Sequential, Some(prev)) => (prev, PACKET_BYTES as i32),
            // Very first fetch: no architectural base exists; treat the
            // packet address itself as the base.
            (FetchKind::Sequential, None) => (a.packet, 0),
            (FetchKind::TakenBranch { base, disp } | FetchKind::Indirect { base, disp }, _) => {
                (base, disp)
            }
            (FetchKind::LinkReturn { target }, _) => (target, 0),
        };
        let mab = self.mab.as_mut().expect("scheme has MAB");
        match mab.lookup(base, disp) {
            MabLookup::Hit { way, .. } => self.known_way(out, way),
            MabLookup::Miss { .. } => {
                mab.record(base, disp, out.way);
                self.conventional();
            }
            MabLookup::Wide => self.conventional(),
        }
    }
}

impl Account for IAccount {
    type Access = IAccess;

    fn account(&mut self, a: &IAccess, out: &AccessOutcome) {
        if !out.hit {
            // The fill replaced the line at (index, way): nothing may
            // memoize that location any more.
            if let Some(mab) = self.mab.as_mut() {
                mab.invalidate_location(out.index, out.way);
            }
            if let Some(links) = self.links.as_mut() {
                links.invalidate_target(out.index, out.way);
            }
            if let Some(btb) = self.btb.as_mut() {
                btb.invalidate_target(out.index, out.way);
            }
        }
        match (self.scheme, a.way_reg) {
            (IScheme::Original, _) => self.conventional(),
            (_, Some(way)) if a.intra_line => {
                self.stats.intra_line_skips += 1;
                self.known_way(out, way);
            }
            (IScheme::IntraLine, _) => self.conventional(),
            (IScheme::WayMemo { .. }, _) => self.mab_fetch(a, out),
            (IScheme::LinkMemo, _) => self.link_fetch(a, out),
            (IScheme::ExtendedBtb { .. }, _) => match a.prev {
                Some(source) if a.kind != FetchKind::Sequential => self.btb_fetch(source, a, out),
                // [12]'s weakness: inter-line sequential flow pays.
                _ => self.conventional(),
            },
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
        0
    }

    /// For the link-memoization baseline \[11\] the two extra link bits
    /// per 4-byte instruction widen every data-array row by 16/256 =
    /// 1/16, so each way activation reads proportionally more bitlines;
    /// that is charged as extra fractional way reads, plus one register
    /// probe per access for the link-valid muxing.
    fn energy_counts(&self, stats: &AccessStats, cycles: u64) -> EnergyCounts {
        let link_memo = matches!(self.scheme, IScheme::LinkMemo);
        let line_bits = u64::from(self.geom.line_bytes()) * 8;
        let link_bits = u64::from(self.geom.line_bytes()) / 4 * 2;
        EnergyCounts {
            way_reads: stats.way_reads
                + if link_memo {
                    stats.way_reads * link_bits / line_bits
                } else {
                    0
                },
            tag_reads: stats.tag_reads,
            buffer_probes: if link_memo { stats.accesses } else { 0 }
                + self.btb.as_ref().map_or(0, Btb::probes),
            // The I-MAB is probed on every non-intra-line access.
            mab_lookups: if self.mab.is_some() {
                stats.accesses - stats.intra_line_skips
            } else {
                0
            },
            cycles,
        }
    }
}

/// A trace-driven I-cache model under one scheme: a group of one.
#[derive(Debug)]
pub struct IFront(Group<ISide>);

group_of_one!(IFront, IScheme);

impl IFront {
    /// Feeds one instruction fetch into the model.
    pub fn fetch(&mut self, pc: u32, kind: FetchKind) {
        self.0.fetch(pc, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::frv()
    }

    /// Feeds a straight-line run of `n` instructions starting at `pc`.
    fn straight(f: &mut IFront, pc: u32, n: u32) {
        for i in 0..n {
            f.fetch(pc + 4 * i, FetchKind::Sequential);
        }
    }

    #[test]
    fn packet_granularity_two_instructions_one_access() {
        let mut f = IScheme::Original.build(geom());
        straight(&mut f, 0x1000, 8); // 8 instructions = 4 packets
        assert_eq!(f.stats().accesses, 4);
    }

    #[test]
    fn original_reads_everything_every_packet() {
        let mut f = IScheme::Original.build(geom());
        straight(&mut f, 0x1000, 8);
        let s = f.stats();
        assert_eq!(s.tag_reads, 8); // 4 packets x 2 ways
        assert_eq!(s.way_reads, 9); // 8 reads + 1 fill (one line)
    }

    #[test]
    fn intra_line_skips_tags_within_line() {
        let mut f = IScheme::IntraLine.build(geom());
        straight(&mut f, 0x1000, 8); // one 32-B line = 4 packets
        let s = f.stats();
        assert_eq!(s.intra_line_skips, 3, "packets 2-4 are intra-line");
        assert_eq!(s.tag_reads, 2, "only the first packet reads tags");
    }

    #[test]
    fn intra_line_pays_on_line_crossing() {
        let mut f = IScheme::IntraLine.build(geom());
        straight(&mut f, 0x1000, 10); // crosses into a second line
        let s = f.stats();
        // Packets: 0x1000,0x1008,0x1010,0x1018 (line 1), 0x1020 (line 2).
        assert_eq!(s.accesses, 5);
        assert_eq!(s.tag_reads, 4, "two inter-line accesses pay tags");
    }

    #[test]
    fn way_memo_catches_inter_line_sequential() {
        let mut f = IScheme::paper_way_memo().build(geom());
        // Two passes over the same straight-line code: second pass's
        // line-crossing fetches hit the MAB.
        straight(&mut f, 0x1000, 20);
        let first_pass = f.stats();
        assert_eq!(first_pass.mab_hits, 0, "cold MAB");
        f.fetch(
            0x1000,
            FetchKind::Indirect {
                base: 0x1000,
                disp: 0,
            },
        );
        straight(&mut f, 0x1004, 19);
        let s = f.stats();
        // 40 instructions -> 2.5 lines; pass 2 has 2 line crossings that
        // now hit (plus possibly the indirect entry).
        assert!(
            s.mab_hits >= 2,
            "inter-line sequential crossings must hit the MAB on the \
             second pass (got {})",
            s.mab_hits
        );
        assert!(s.tag_reads < first_pass.tag_reads * 2);
    }

    #[test]
    fn way_memo_catches_loop_branches() {
        let mut f = IScheme::paper_way_memo().build(geom());
        // A loop: 6 instructions then a taken branch back, many times.
        let body = 0x2000u32;
        for _ in 0..10 {
            straight(&mut f, body, 6);
            f.fetch(
                body,
                FetchKind::TakenBranch {
                    base: body + 20,
                    disp: -20,
                },
            );
        }
        let s = f.stats();
        // After warm-up every branch-back hits the MAB.
        assert!(
            s.mab_hits >= 8,
            "loop back-edges must be memoized, got {}",
            s.mab_hits
        );
    }

    #[test]
    fn wrong_way_counts_a_lying_mab_in_release_builds() {
        let mut f = IScheme::paper_way_memo().build(geom());
        let branch = FetchKind::TakenBranch {
            base: 0x2000,
            disp: 0x100,
        };
        f.fetch(0x2100, branch); // miss, MAB memoizes way 0
        assert_eq!(f.stats().wrong_way, 0);
        // Corrupt the memoized way behind the front-end's back.
        let mab = f.0.accounts[0].mab.as_mut().expect("MAB scheme");
        mab.record(0x2000, 0x100, 1);
        f.fetch(0x2100, branch); // MAB hit on the wrong way
        let s = f.stats();
        assert_eq!((s.mab_hits, s.wrong_way), (1, 1));
        assert!(!s.is_consistent());
    }

    #[test]
    fn way_memo_handles_link_returns() {
        let mut f = IScheme::paper_way_memo().build(geom());
        let call_site = 0x3000u32;
        let callee = 0x3800u32;
        for _ in 0..6 {
            straight(&mut f, call_site, 2);
            f.fetch(
                callee,
                FetchKind::TakenBranch {
                    base: call_site + 4,
                    disp: (callee - call_site - 4) as i32,
                },
            );
            straight(&mut f, callee + 4, 2);
            f.fetch(
                call_site + 8,
                FetchKind::LinkReturn {
                    target: call_site + 8,
                },
            );
            f.fetch(
                call_site,
                FetchKind::TakenBranch {
                    base: call_site + 8,
                    disp: -8,
                },
            );
        }
        let s = f.stats();
        assert!(
            s.mab_hits >= 10,
            "calls and returns memoize, got {}",
            s.mab_hits
        );
    }

    #[test]
    fn way_memo_tag_reads_below_intra_line_baseline() {
        // The paper's Figure 6 claim: ours reduces tag accesses to ~80%
        // of approach [4]'s (i.e. below it) on loopy code.
        let mut ours = IScheme::paper_way_memo().build(geom());
        let mut baseline = IScheme::IntraLine.build(geom());
        let run = |f: &mut IFront| {
            for _ in 0..50 {
                // 24-instruction loop spanning 3 lines, then branch back.
                for i in 0..24u32 {
                    f.fetch(0x4000 + 4 * i, FetchKind::Sequential);
                }
                f.fetch(
                    0x4000,
                    FetchKind::TakenBranch {
                        base: 0x4000 + 4 * 23,
                        disp: -(4 * 23i32),
                    },
                );
            }
        };
        run(&mut ours);
        run(&mut baseline);
        assert!(
            ours.stats().tag_reads * 4 < baseline.stats().tag_reads,
            "ours {} vs [4] {}",
            ours.stats().tag_reads,
            baseline.stats().tag_reads
        );
        assert_eq!(ours.stats().accesses, baseline.stats().accesses);
    }

    #[test]
    fn mab_claims_match_residency_under_conflict_pressure() {
        // Jump between many lines that collide in the cache so fills evict
        // memoized lines; wrong_way + claims check soundness.
        let g = Geometry::new(8, 2, 32).unwrap();
        let mut f = IScheme::WayMemo {
            tag_entries: 2,
            set_entries: 4,
        }
        .build(g);
        let mut x = 7u32;
        let mut prev = 0u32;
        for _ in 0..3000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let target = (x >> 4) & 0x7ff8;
            f.fetch(
                target,
                FetchKind::TakenBranch {
                    base: prev,
                    disp: target.wrapping_sub(prev) as i32,
                },
            );
            prev = target;
            if let Some(mab) = f.0.accounts[0].mab.as_ref() {
                for (set, way, tag) in mab.claims() {
                    assert_eq!(f.0.cache.resident_way(tag, set), Some(way));
                }
            }
        }
        assert_eq!(f.stats().wrong_way, 0);
    }

    #[test]
    fn link_memo_catches_sequential_crossings_on_second_pass() {
        let mut f = IScheme::LinkMemo.build(geom());
        straight(&mut f, 0x1000, 20); // cold pass installs seq links
        let cold = f.stats();
        assert_eq!(cold.buffer_hits, 0);
        f.fetch(
            0x1000,
            FetchKind::TakenBranch {
                base: 0x1000 + 76,
                disp: -76,
            },
        );
        straight(&mut f, 0x1004, 19);
        let s = f.stats();
        // Two line crossings now ride the sequential links.
        assert!(s.buffer_hits >= 2, "got {}", s.buffer_hits);
        assert!(s.tag_reads < cold.tag_reads * 2);
    }

    #[test]
    fn link_memo_catches_loop_branches() {
        let mut f = IScheme::LinkMemo.build(geom());
        let body = 0x2000u32;
        for _ in 0..10 {
            straight(&mut f, body, 6);
            f.fetch(
                body,
                FetchKind::TakenBranch {
                    base: body + 20,
                    disp: -20,
                },
            );
        }
        let s = f.stats();
        assert!(
            s.buffer_hits >= 8,
            "branch links memoize, got {}",
            s.buffer_hits
        );
    }

    #[test]
    fn link_memo_invalidates_on_replacement() {
        // Conflict-heavy jumping on a tiny cache: links must never produce
        // a wrong known-way (wrong_way counts it), and replacements (each
        // one an invalidation scan) must actually occur.
        let g = Geometry::new(8, 2, 32).unwrap();
        let mut f = IScheme::LinkMemo.build(g);
        let mut x = 99u32;
        let mut prev = 0u32;
        for _ in 0..2000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            let target = (x >> 4) & 0x3ff8;
            f.fetch(
                target,
                FetchKind::TakenBranch {
                    base: prev,
                    disp: target.wrapping_sub(prev) as i32,
                },
            );
            prev = target;
        }
        assert!(f.stats().misses > 1000);
        assert!(f.stats().is_consistent());
    }

    #[test]
    fn extended_btb_catches_branches_but_not_sequential_crossings() {
        let mut f = IScheme::ExtendedBtb { entries: 16 }.build(geom());
        let body = 0x2000u32;
        for _ in 0..10 {
            straight(&mut f, body, 6);
            f.fetch(
                body,
                FetchKind::TakenBranch {
                    base: body + 20,
                    disp: -20,
                },
            );
        }
        let s = f.stats();
        assert!(
            s.buffer_hits >= 8,
            "loop branch memoized, got {}",
            s.buffer_hits
        );

        // Inter-line sequential flow always pays: a long straight run gets
        // no BTB help beyond intra-line skips.
        let mut g = IScheme::ExtendedBtb { entries: 16 }.build(geom());
        straight(&mut g, 0x4000, 40); // 5 lines
        let gs = g.stats();
        assert_eq!(gs.buffer_hits, 0);
        // Line crossings (4 of them) + first fetch pay full tag reads.
        assert_eq!(gs.tag_reads, 10);
    }

    #[test]
    fn link_memo_charges_link_bit_reads() {
        let mut f = IScheme::LinkMemo.build(geom());
        straight(&mut f, 0x1000, 8);
        let e = f.energy_counts(8);
        assert_eq!(e.buffer_probes, f.stats().accesses);
        assert_eq!(
            IScheme::IntraLine
                .build(geom())
                .energy_counts(8)
                .buffer_probes,
            0
        );
    }

    #[test]
    fn first_fetch_is_not_intra_line() {
        let mut f = IScheme::IntraLine.build(geom());
        f.fetch(0x1004, FetchKind::Sequential);
        assert_eq!(f.stats().intra_line_skips, 0);
        assert_eq!(f.stats().tag_reads, 2);
    }

    #[test]
    fn energy_counts_track_mab_utilization() {
        let mut f = IScheme::paper_way_memo().build(geom());
        straight(&mut f, 0x1000, 16);
        let e = f.energy_counts(16);
        let s = f.stats();
        assert_eq!(e.mab_lookups, s.accesses - s.intra_line_skips);
        let orig = IScheme::Original.build(geom()).energy_counts(16);
        assert_eq!(orig.mab_lookups, 0);
    }
}
