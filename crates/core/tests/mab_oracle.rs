//! Differential test of the packed-key [`Mab`] against a reference MAB
//! kept in the plain layout the structure first had: optional tag rows,
//! optional set-index columns and a `vflag`/way matrix, each operation
//! recomputing the narrow add and both scans from scratch, and recency
//! held as a vector reordered by remove + insert.
//!
//! Random `lookup` / `record` / `invalidate_location` / `invalidate_all`
//! sequences run through both; every lookup result, record outcome,
//! statistics snapshot, valid-pair count and claim list must agree.

use proptest::prelude::*;
use waymem_cache::Geometry;
use waymem_core::{
    Cflag, DispClass, Mab, MabConfig, MabLookup, MabStats, RecordOutcome, SmallAdder,
};

/// Most-recent-first slot order, reordered by remove + insert.
struct Recency(Vec<usize>);

impl Recency {
    fn new(n: usize) -> Self {
        Self((0..n).rev().collect())
    }

    fn touch(&mut self, slot: usize) {
        let pos = self.0.iter().position(|&s| s == slot).expect("slot");
        let s = self.0.remove(pos);
        self.0.insert(0, s);
    }

    fn victim(&self) -> usize {
        *self.0.last().expect("non-empty")
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
struct TagRow {
    base_tag: u32,
    cflag: Cflag,
}

struct RefMab {
    geom: Geometry,
    nt: usize,
    ns: usize,
    adder: SmallAdder,
    rows: Vec<Option<TagRow>>,
    cols: Vec<Option<u32>>,
    vflag: Vec<bool>,
    ways: Vec<u32>,
    row_lru: Recency,
    col_lru: Recency,
    stats: MabStats,
}

impl RefMab {
    fn new(cfg: MabConfig) -> Self {
        let (nt, ns) = (cfg.tag_entries(), cfg.set_entries());
        Self {
            geom: cfg.geometry(),
            nt,
            ns,
            adder: SmallAdder::new(cfg.geometry()),
            rows: vec![None; nt],
            cols: vec![None; ns],
            vflag: vec![false; nt * ns],
            ways: vec![0; nt * ns],
            row_lru: Recency::new(nt),
            col_lru: Recency::new(ns),
            stats: MabStats::default(),
        }
    }

    fn pair(&self, row: usize, col: usize) -> usize {
        row * self.ns + col
    }

    fn find_row(&self, base_tag: u32, cflag: Cflag) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| matches!(r, Some(t) if t.base_tag == base_tag && t.cflag == cflag))
    }

    fn find_col(&self, set_index: u32) -> Option<usize> {
        self.cols.iter().position(|c| *c == Some(set_index))
    }

    fn cflag(&self, base: u32, disp: i32) -> Option<(Cflag, u32, u32)> {
        let r = self.adder.add(base, disp);
        (r.class != DispClass::Wide).then(|| {
            let cflag = Cflag {
                carry: r.carry,
                negative: r.class == DispClass::Ones,
            };
            (cflag, r.set_index, r.offset)
        })
    }

    fn lookup(&mut self, base: u32, disp: i32) -> MabLookup {
        let Some((cflag, set_index, offset)) = self.cflag(base, disp) else {
            self.stats.wide_bypasses += 1;
            return MabLookup::Wide;
        };
        self.stats.lookups += 1;
        let row = self.find_row(self.geom.tag_of(base), cflag);
        let col = self.find_col(set_index);
        if row.is_some() {
            self.stats.row_hits += 1;
        }
        if col.is_some() {
            self.stats.col_hits += 1;
        }
        if let (Some(row), Some(col)) = (row, col) {
            let p = self.pair(row, col);
            if self.vflag[p] {
                self.stats.hits += 1;
                self.row_lru.touch(row);
                self.col_lru.touch(col);
                return MabLookup::Hit {
                    way: self.ways[p],
                    set_index,
                    offset,
                };
            }
        }
        MabLookup::Miss {
            row_hit: row.is_some(),
            col_hit: col.is_some(),
            set_index,
        }
    }

    fn record(&mut self, base: u32, disp: i32, way: u32) -> Option<RecordOutcome> {
        let (cflag, set_index, _) = self.cflag(base, disp)?;
        let base_tag = self.geom.tag_of(base);
        let (row, row_reused) = match self.find_row(base_tag, cflag) {
            Some(row) => (row, true),
            None => {
                let victim = self.row_lru.victim();
                for col in 0..self.ns {
                    let p = self.pair(victim, col);
                    self.vflag[p] = false;
                }
                self.rows[victim] = Some(TagRow { base_tag, cflag });
                self.stats.row_replacements += 1;
                (victim, false)
            }
        };
        let (col, col_reused) = match self.find_col(set_index) {
            Some(col) => (col, true),
            None => {
                let victim = self.col_lru.victim();
                for row in 0..self.nt {
                    let p = self.pair(row, victim);
                    self.vflag[p] = false;
                }
                self.cols[victim] = Some(set_index);
                self.stats.col_replacements += 1;
                (victim, false)
            }
        };
        self.row_lru.touch(row);
        self.col_lru.touch(col);
        let p = self.pair(row, col);
        self.vflag[p] = true;
        self.ways[p] = way;
        Some(RecordOutcome {
            row,
            col,
            row_reused,
            col_reused,
        })
    }

    fn invalidate_location(&mut self, set_index: u32, way: u32) -> usize {
        let mut cleared = 0;
        for col in 0..self.ns {
            if self.cols[col] != Some(set_index) {
                continue;
            }
            for row in 0..self.nt {
                let p = self.pair(row, col);
                if self.vflag[p] && self.ways[p] == way {
                    self.vflag[p] = false;
                    cleared += 1;
                }
            }
        }
        self.stats.invalidated_pairs += cleared as u64;
        cleared
    }

    fn invalidate_all(&mut self) {
        self.rows.fill(None);
        self.cols.fill(None);
        self.vflag.fill(false);
    }

    fn valid_pairs(&self) -> usize {
        self.vflag.iter().filter(|&&v| v).count()
    }

    fn claims(&self) -> Vec<(u32, u32, u32)> {
        let tag_mask = (1u32 << self.geom.tag_bits()) - 1;
        let mut out = Vec::new();
        for row in 0..self.nt {
            for col in 0..self.ns {
                let p = self.pair(row, col);
                let (Some(trow), Some(set_index)) = (self.rows[row], self.cols[col]) else {
                    continue;
                };
                if !self.vflag[p] {
                    continue;
                }
                let adjust = match (trow.cflag.carry, trow.cflag.negative) {
                    (c, false) => u32::from(c),
                    (c, true) => u32::from(c).wrapping_sub(1),
                };
                let eff_tag = trow.base_tag.wrapping_add(adjust) & tag_mask;
                out.push((set_index, self.ways[p], eff_tag));
            }
        }
        out
    }
}

/// One step of a random MAB workload.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u32, i32),
    /// A record with the arguments of the latest lookup — the front-ends'
    /// miss path, which reuses the lookup's probe.
    RecordLast(u32),
    Record(u32, i32, u32),
    Invalidate(u32, u32),
    InvalidateAll,
}

fn configs() -> impl Strategy<Value = (usize, usize)> {
    prop_oneof![Just((1, 1)), Just((2, 8)), Just((2, 32)), Just((4, 64))]
}

/// A base address from a small pool of tags and sets, so rows, columns and
/// pairs are reused often, with an arbitrary line offset.
fn base() -> impl Strategy<Value = u32> {
    (0u32..6, 0u32..80, 0u32..32).prop_map(|(tag, set, offset)| {
        let g = Geometry::frv();
        (tag << g.low_bits()) | (set << g.offset_bits()) | offset
    })
}

/// Mostly small displacements of either sign, some crossing the 14-bit
/// boundary, and a few wide ones the MAB must bypass.
fn disp() -> impl Strategy<Value = i32> {
    prop_oneof![
        -64i32..64,
        -64i32..64,
        -64i32..64,
        -20_000i32..20_000,
        Just(1 << 20),
        Just(-(1 << 20)),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (base(), disp()).prop_map(|(b, d)| Op::Lookup(b, d)),
        (base(), disp()).prop_map(|(b, d)| Op::Lookup(b, d)),
        (0u32..2).prop_map(Op::RecordLast),
        (0u32..2).prop_map(Op::RecordLast),
        (base(), disp(), 0u32..2).prop_map(|(b, d, w)| Op::Record(b, d, w)),
        (0u32..80, 0u32..2).prop_map(|(s, w)| Op::Invalidate(s, w)),
        // Rare: one draw in a hundred of this arm clears the whole MAB.
        (0u32..100).prop_map(|n| if n == 0 {
            Op::InvalidateAll
        } else {
            Op::Lookup(n, 0)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The packed-key MAB is observably identical to the reference after
    /// every operation of a random sequence.
    #[test]
    fn packed_mab_matches_reference(
        shape in configs(),
        ops in prop::collection::vec(op(), 1..400),
    ) {
        let (nt, ns) = shape;
        let cfg = MabConfig::new(Geometry::frv(), nt, ns).expect("valid config");
        let mut mab = Mab::new(cfg);
        let mut oracle = RefMab::new(cfg);
        let mut last = (0u32, 0i32);
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                Op::Lookup(b, d) => {
                    last = (b, d);
                    prop_assert_eq!(mab.lookup(b, d), oracle.lookup(b, d), "step {}", step);
                }
                Op::RecordLast(w) => {
                    let (b, d) = last;
                    prop_assert_eq!(mab.record(b, d, w), oracle.record(b, d, w), "step {}", step);
                }
                Op::Record(b, d, w) => {
                    prop_assert_eq!(mab.record(b, d, w), oracle.record(b, d, w), "step {}", step);
                }
                Op::Invalidate(s, w) => {
                    prop_assert_eq!(
                        mab.invalidate_location(s, w),
                        oracle.invalidate_location(s, w),
                        "step {}", step
                    );
                }
                Op::InvalidateAll => {
                    mab.invalidate_all();
                    oracle.invalidate_all();
                }
            }
            prop_assert_eq!(mab.stats(), oracle.stats, "step {}", step);
            prop_assert_eq!(mab.valid_pairs(), oracle.valid_pairs(), "step {}", step);
            prop_assert_eq!(mab.claims().collect::<Vec<_>>(), oracle.claims(), "step {}", step);
        }
    }
}
