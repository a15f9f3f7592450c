//! A front-level reference model: every D- and I-scheme re-implemented
//! from the paper's §3 and the scheme docs alone, over a naive per-set
//! MRU-list cache, and compared with the real front-ends on random traces
//! and on the standard synthetic suite. It shares no code with
//! `waymem-core`, `waymem-cache` or the fronts: only the input event
//! types and the `AccessStats` counters it fills are common.

use proptest::prelude::*;
use waymem::ingest::synth;
use waymem::isa::{FetchKind, TraceEvent};
use waymem::prelude::*;

/// Sets × ways × line bytes, and the address fields they imply.
#[derive(Debug, Clone, Copy)]
struct Shape {
    sets: u32,
    ways: u32,
    line: u32,
}

impl Shape {
    fn offset_bits(self) -> u32 {
        self.line.trailing_zeros()
    }
    fn low_bits(self) -> u32 {
        self.offset_bits() + self.sets.trailing_zeros()
    }
    fn set(self, addr: u32) -> u32 {
        (addr / self.line) % self.sets
    }
    fn tag(self, addr: u32) -> u32 {
        addr >> self.low_bits()
    }
    fn line_base(self, addr: u32) -> u32 {
        addr - addr % self.line
    }
    fn geometry(self) -> Geometry {
        Geometry::new(self.sets, self.ways, self.line).expect("valid shape")
    }
}

/// Recency over `n` slots, most recent first; slot 0 starts least recent.
#[derive(Debug, Clone)]
struct Lru(Vec<usize>);

impl Lru {
    fn new(n: usize) -> Self {
        Lru((0..n).rev().collect())
    }
    fn touch(&mut self, slot: usize) {
        self.0.retain(|&s| s != slot);
        self.0.insert(0, slot);
    }
    fn victim(&self) -> usize {
        *self.0.last().expect("non-empty")
    }
}

/// What one cache access did.
struct Outcome {
    hit: bool,
    way: u32,
    set: u32,
    /// A hit on the way that was most recently used before the access.
    mru_hit: bool,
    /// `(tag, dirty)` of the line a fill displaced.
    evicted: Option<(u32, bool)>,
}

/// A write-back, write-allocate LRU cache: per set, its lines as
/// `(tag, way, dirty)`, most recently used first. A set fills its ways in
/// order; a full set evicts its last line.
struct Cache {
    shape: Shape,
    sets: Vec<Vec<(u32, u32, bool)>>,
}

impl Cache {
    fn new(shape: Shape) -> Self {
        Cache {
            shape,
            sets: vec![Vec::new(); shape.sets as usize],
        }
    }

    fn access(&mut self, addr: u32, store: bool) -> Outcome {
        let (set, tag) = (self.shape.set(addr), self.shape.tag(addr));
        let lines = &mut self.sets[set as usize];
        let found = lines.iter().position(|l| l.0 == tag);
        let (mut line, evicted) = match found {
            Some(pos) => (lines.remove(pos), None),
            None if lines.len() < self.shape.ways as usize => {
                ((tag, lines.len() as u32, false), None)
            }
            None => {
                let (old, way, dirty) = lines.pop().expect("full set");
                ((tag, way, false), Some((old, dirty)))
            }
        };
        line.2 |= store;
        lines.insert(0, line);
        Outcome {
            hit: found.is_some(),
            way: line.1,
            set,
            mru_hit: found == Some(0),
            evicted,
        }
    }

    /// The tags of `set` by way.
    fn tags(&self, set: u32) -> Vec<Option<u32>> {
        let mut tags = vec![None; self.shape.ways as usize];
        for &(tag, way, _) in &self.sets[set as usize] {
            tags[way as usize] = Some(tag);
        }
        tags
    }
}

/// The memory address buffer of §3.3: `nt` tag entries (base tag plus
/// the narrow adder's carry and the displacement's sign) × `ns` set-index
/// entries, with a valid way per pair. Rows and columns are replaced LRU,
/// and replacing one clears its pairs.
struct Mab {
    shape: Shape,
    rows: Vec<Option<(u32, bool, bool)>>,
    cols: Vec<Option<u32>>,
    pairs: Vec<Option<u32>>,
    row_lru: Lru,
    col_lru: Lru,
    narrow: u64,
    wide: u64,
    hits: u64,
}

impl Mab {
    fn new(shape: Shape, nt: usize, ns: usize) -> Self {
        Mab {
            shape,
            rows: vec![None; nt],
            cols: vec![None; ns],
            pairs: vec![None; nt * ns],
            row_lru: Lru::new(nt),
            col_lru: Lru::new(ns),
            narrow: 0,
            wide: 0,
            hits: 0,
        }
    }

    /// The row key and set index of `base + disp` from the low-bits adder,
    /// or `None` when the displacement's upper bits are neither all 0 nor
    /// all 1.
    fn key(&self, base: u32, disp: i32) -> Option<((u32, bool, bool), u32)> {
        let low = self.shape.low_bits();
        let negative = match disp >> low {
            0 => false,
            -1 => true,
            _ => return None,
        };
        let mask = (1u32 << low) - 1;
        let sum = (base & mask) + (disp as u32 & mask);
        let set = (sum & mask) >> self.shape.offset_bits();
        Some(((base >> low, sum >> low == 1, negative), set))
    }

    fn find(&self, base: u32, disp: i32) -> Option<(Option<usize>, Option<usize>)> {
        let (row_key, set) = self.key(base, disp)?;
        let row = self.rows.iter().position(|r| *r == Some(row_key));
        Some((row, self.cols.iter().position(|c| *c == Some(set))))
    }

    /// `None` for a wide displacement, else the memoized way, if any.
    fn lookup(&mut self, base: u32, disp: i32) -> Option<Option<u32>> {
        let Some(found) = self.find(base, disp) else {
            self.wide += 1;
            return None;
        };
        self.narrow += 1;
        let (Some(row), Some(col)) = found else {
            return Some(None);
        };
        let way = self.pairs[row * self.cols.len() + col];
        if way.is_some() {
            self.hits += 1;
            self.row_lru.touch(row);
            self.col_lru.touch(col);
        }
        Some(way)
    }

    /// The four update cases: reuse a matching row and column, else
    /// replace the LRU one, then validate the pair.
    fn record(&mut self, base: u32, disp: i32, way: u32) {
        let Some((row_key, set)) = self.key(base, disp) else {
            return;
        };
        let (found_row, found_col) = self.find(base, disp).expect("narrow");
        let ns = self.cols.len();
        let row = found_row.unwrap_or_else(|| {
            let r = self.row_lru.victim();
            self.rows[r] = Some(row_key);
            self.pairs[r * ns..(r + 1) * ns].fill(None);
            r
        });
        let col = found_col.unwrap_or_else(|| {
            let c = self.col_lru.victim();
            self.cols[c] = Some(set);
            (0..self.rows.len()).for_each(|r| self.pairs[r * ns + c] = None);
            c
        });
        self.row_lru.touch(row);
        self.col_lru.touch(col);
        self.pairs[row * ns + col] = Some(way);
    }

    /// A fill replaced the line at (`set`, `way`): no pair may name it.
    fn invalidate(&mut self, set: u32, way: u32) {
        let ns = self.cols.len();
        for c in (0..ns).filter(|&c| self.cols[c] == Some(set)) {
            for r in 0..self.rows.len() {
                if self.pairs[r * ns + c] == Some(way) {
                    self.pairs[r * ns + c] = None;
                }
            }
        }
    }

    fn merge(&self, s: &mut AccessStats) {
        s.mab_lookups = self.narrow + self.wide;
        s.mab_hits = self.hits;
    }
}

/// A small fully associative LRU table of `(key, target line, way)`:
/// the line buffer / L0 (key = the line itself) and the BTB (key = the
/// source packet).
struct Table {
    entries: Vec<Option<(u32, u32, u32)>>,
    lru: Lru,
}

impl Table {
    fn new(n: usize) -> Self {
        Table {
            entries: vec![None; n],
            lru: Lru::new(n),
        }
    }
    fn probe(&mut self, key: u32, target: u32) -> Option<u32> {
        let slot = self
            .entries
            .iter()
            .position(|e| matches!(e, Some((k, t, _)) if (*k, *t) == (key, target)))?;
        self.lru.touch(slot);
        self.entries[slot].map(|e| e.2)
    }
    fn record(&mut self, key: u32, target: u32, way: u32) {
        let slot = self
            .entries
            .iter()
            .position(|e| matches!(e, Some((k, ..)) if *k == key));
        let slot = slot.unwrap_or_else(|| self.lru.victim());
        self.entries[slot] = Some((key, target, way));
        self.lru.touch(slot);
    }
    fn drop_where(&mut self, f: impl Fn(u32, u32) -> bool) {
        for e in &mut self.entries {
            if e.is_some_and(|(_, t, w)| f(t, w)) {
                *e = None;
            }
        }
    }
}

/// One D-scheme over its own cache.
struct DModel {
    scheme: DScheme,
    shape: Shape,
    cache: Cache,
    s: AccessStats,
    extra_cycles: u64,
    mab: Option<Mab>,
    /// Set buffer: `(set, its tags by way)` per entry, LRU.
    set_buffer: Vec<Option<(u32, Vec<Option<u32>>)>>,
    set_lru: Lru,
    lines: Table,
}

impl DModel {
    fn new(scheme: DScheme, shape: Shape) -> Self {
        let (mab, sets, lines) = match scheme {
            DScheme::WayMemo {
                tag_entries: t,
                set_entries: s,
            }
            | DScheme::WayMemoPaperLru {
                tag_entries: t,
                set_entries: s,
            } => (Some((t, s)), 1, 1),
            DScheme::WayMemoLineBuffer {
                tag_entries: t,
                set_entries: s,
                line_entries,
            } => (Some((t, s)), 1, line_entries),
            DScheme::SetBuffer { entries } => (None, entries, 1),
            DScheme::FilterCache { lines } => (None, 1, lines),
            _ => (None, 1, 1),
        };
        DModel {
            scheme,
            shape,
            cache: Cache::new(shape),
            s: AccessStats::default(),
            extra_cycles: 0,
            mab: mab.map(|(t, s)| Mab::new(shape, t, s)),
            set_buffer: vec![None; sets],
            set_lru: Lru::new(sets),
            lines: Table::new(lines),
        }
    }

    /// A parallel lookup: every tag, and every way for a load (one way
    /// for a store, which waits for the tag match).
    fn conventional(&mut self, store: bool) {
        let w = u64::from(self.shape.ways);
        self.s.tag_reads += w;
        self.s.way_reads += if store { 1 } else { w };
    }

    /// The access itself: hit/miss, the fill's way write, a dirty
    /// write-back, and the stale memoized locations the fill kills.
    fn touch(&mut self, addr: u32, store: bool) -> Outcome {
        let o = self.cache.access(addr, store);
        if o.hit {
            self.s.hits += 1;
        } else {
            self.s.misses += 1;
            self.s.way_reads += 1;
            if !matches!(self.scheme, DScheme::WayMemoPaperLru { .. }) {
                if let Some(mab) = &mut self.mab {
                    mab.invalidate(o.set, o.way);
                }
            }
        }
        if let Some((tag, dirty)) = o.evicted {
            self.s.write_backs += u64::from(dirty);
            let victim = (tag << self.shape.low_bits()) | (o.set * self.shape.line);
            self.lines.drop_where(|line, _| line == victim);
        }
        o
    }

    /// A load served by the line buffer / L0: no array at all, but the
    /// buffer's way is still checked against the cache.
    fn buffered(&mut self, addr: u32, way: u32) {
        self.s.buffer_hits += 1;
        let o = self.touch(addr, false);
        self.s.wrong_way += u64::from(!o.hit || o.way != way);
    }

    /// A way-known access: one way, no tags, checked against the cache.
    fn known(&mut self, addr: u32, store: bool, way: u32) -> Outcome {
        self.s.way_reads += 1;
        let o = self.touch(addr, store);
        self.s.wrong_way += u64::from(!o.hit || o.way != way);
        o
    }

    fn way_memo(&mut self, store: bool, base: u32, disp: i32, addr: u32) -> Outcome {
        let mab = self.mab.as_mut().expect("MAB scheme");
        match mab.lookup(base, disp) {
            Some(Some(way)) => self.known(addr, store, way),
            memo => {
                self.conventional(store);
                let o = self.touch(addr, store);
                if memo.is_some() {
                    self.mab.as_mut().expect("MAB").record(base, disp, o.way);
                }
                o
            }
        }
    }

    fn access(&mut self, store: bool, base: u32, disp: i32, addr: u32) {
        self.s.accesses += 1;
        let line = self.shape.line_base(addr);
        let w = u64::from(self.shape.ways);
        match self.scheme {
            DScheme::Original => {
                self.conventional(store);
                self.touch(addr, store);
            }
            DScheme::SetBuffer { .. } => {
                let set = self.shape.set(addr);
                let slot = self
                    .set_buffer
                    .iter()
                    .position(|e| e.as_ref().is_some_and(|e| e.0 == set));
                let way = slot.and_then(|slot| {
                    self.set_lru.touch(slot);
                    let tags = &self.set_buffer[slot].as_ref().expect("buffered").1;
                    tags.iter().position(|t| *t == Some(self.shape.tag(addr)))
                });
                if let Some(way) = way {
                    self.s.buffer_hits += 1;
                    self.known(addr, store, way as u32);
                } else {
                    self.conventional(store);
                    self.touch(addr, store);
                    let slot = slot.unwrap_or_else(|| self.set_lru.victim());
                    self.set_buffer[slot] = Some((set, self.cache.tags(set)));
                    self.set_lru.touch(slot);
                }
            }
            DScheme::WayMemo { .. } => {
                self.way_memo(store, base, disp, addr);
            }
            DScheme::WayMemoPaperLru { .. } => {
                let mab = self.mab.as_mut().expect("MAB scheme");
                let memo = mab.lookup(base, disp);
                let o = self.touch(addr, store);
                if memo.flatten().is_some_and(|way| o.hit && o.way == way) {
                    self.s.way_reads += 1;
                    return;
                }
                self.s.unsound_hits += u64::from(memo.flatten().is_some());
                self.conventional(store);
                if memo.is_some() {
                    self.mab.as_mut().expect("MAB").record(base, disp, o.way);
                }
            }
            DScheme::WayMemoLineBuffer { .. } => {
                if let Some(way) = (!store).then(|| self.lines.probe(line, line)).flatten() {
                    return self.buffered(addr, way);
                }
                let o = self.way_memo(store, base, disp, addr);
                self.lines.record(line, line, o.way);
            }
            DScheme::FilterCache { .. } => {
                if store {
                    self.conventional(true);
                    self.touch(addr, true);
                    self.lines.drop_where(|l, _| l == line);
                } else if let Some(way) = self.lines.probe(line, line) {
                    self.buffered(addr, way);
                } else {
                    self.extra_cycles += 1;
                    self.conventional(false);
                    let o = self.touch(addr, false);
                    self.lines.record(line, line, o.way);
                }
            }
            DScheme::WayPredict => {
                self.s.tag_reads += 1;
                self.s.way_reads += 1;
                if !self.touch(addr, store).mru_hit {
                    self.s.tag_reads += w - 1;
                    self.s.way_reads += if store { 0 } else { w - 1 };
                    self.extra_cycles += 1;
                }
            }
            DScheme::TwoPhase => {
                self.s.tag_reads += w;
                self.s.way_reads += 1;
                self.extra_cycles += 1;
                self.touch(addr, store);
            }
        }
    }

    fn stats(&self) -> AccessStats {
        let mut s = self.s;
        if let Some(mab) = &self.mab {
            mab.merge(&mut s);
        }
        s
    }
}

/// One I-scheme over its own cache. Fetches are per 8-byte packet: a
/// sequential fetch inside the previous packet costs nothing.
struct IModel {
    scheme: IScheme,
    shape: Shape,
    cache: Cache,
    s: AccessStats,
    mab: Option<Mab>,
    /// Sequential and branch links per (set, way): `(target line, way)`.
    links: [Vec<Option<(u32, u32)>>; 2],
    btb: Table,
    prev: Option<u32>,
    /// The way of the previous packet's line.
    way_reg: Option<u32>,
}

impl IModel {
    fn new(scheme: IScheme, shape: Shape) -> Self {
        let locations = (shape.sets * shape.ways) as usize;
        IModel {
            scheme,
            shape,
            cache: Cache::new(shape),
            s: AccessStats::default(),
            mab: match scheme {
                IScheme::WayMemo {
                    tag_entries,
                    set_entries,
                } => Some(Mab::new(shape, tag_entries, set_entries)),
                _ => None,
            },
            links: [vec![None; locations], vec![None; locations]],
            btb: Table::new(match scheme {
                IScheme::ExtendedBtb { entries } => entries,
                _ => 1,
            }),
            prev: None,
            way_reg: None,
        }
    }

    /// A full lookup (every tag and way) and the access itself.
    fn conventional(&mut self, packet: u32) -> u32 {
        let w = u64::from(self.shape.ways);
        self.s.tag_reads += w;
        self.s.way_reads += w;
        self.touch(packet).1
    }

    /// The access: hit/miss, the fill's way write, and every memoized
    /// location the fill kills (MAB pairs, links into and out of the
    /// replaced line, BTB entries).
    fn touch(&mut self, packet: u32) -> (bool, u32) {
        let o = self.cache.access(packet, false);
        if o.hit {
            self.s.hits += 1;
            return (true, o.way);
        }
        self.s.misses += 1;
        self.s.way_reads += 1;
        let (set, way, shape) = (o.set, o.way, self.shape);
        if let Some(mab) = &mut self.mab {
            mab.invalidate(set, way);
        }
        let own = (set * shape.ways + way) as usize;
        for table in &mut self.links {
            table[own] = None;
            for link in table.iter_mut() {
                if link.is_some_and(|(t, w)| shape.set(t) == set && w == way) {
                    *link = None;
                }
            }
        }
        self.btb.drop_where(|t, w| shape.set(t) == set && w == way);
        (false, way)
    }

    /// A way-known fetch: one way, no tags, checked against the cache.
    fn known(&mut self, packet: u32, way: u32) -> u32 {
        self.s.way_reads += 1;
        let (hit, actual) = self.touch(packet);
        self.s.wrong_way += u64::from(!hit || actual != way);
        actual
    }

    fn fetch(&mut self, pc: u32, kind: FetchKind) {
        let packet = pc & !7;
        let sequential = kind == FetchKind::Sequential;
        if sequential && self.prev == Some(packet) {
            return;
        }
        self.s.accesses += 1;
        let line = self.shape.line_base(packet);
        let intra = sequential && self.prev.is_some_and(|p| self.shape.line_base(p) == line);
        let way = match (self.scheme, self.way_reg) {
            (IScheme::Original, _) => self.conventional(packet),
            (_, Some(way)) if intra => {
                self.s.intra_line_skips += 1;
                self.known(packet, way)
            }
            (IScheme::IntraLine, _) => self.conventional(packet),
            (IScheme::WayMemo { .. }, _) => {
                let (base, disp) = match (kind, self.prev) {
                    (FetchKind::Sequential, Some(prev)) => (prev, 8),
                    (FetchKind::Sequential, None) => (packet, 0),
                    (
                        FetchKind::TakenBranch { base, disp } | FetchKind::Indirect { base, disp },
                        _,
                    ) => (base, disp),
                    (FetchKind::LinkReturn { target }, _) => (target, 0),
                };
                match self.mab.as_mut().expect("MAB scheme").lookup(base, disp) {
                    Some(Some(way)) => self.known(packet, way),
                    memo => {
                        let way = self.conventional(packet);
                        if memo.is_some() {
                            self.mab.as_mut().expect("MAB").record(base, disp, way);
                        }
                        way
                    }
                }
            }
            (IScheme::LinkMemo, _) => {
                let table = usize::from(!sequential);
                let from = self
                    .prev
                    .zip(self.way_reg)
                    .map(|(p, w)| (self.shape.set(p) * self.shape.ways + w) as usize);
                let linked = from
                    .and_then(|f| self.links[table][f])
                    .filter(|l| l.0 == line);
                if let Some((_, way)) = linked {
                    self.s.buffer_hits += 1;
                    self.known(packet, way)
                } else {
                    let way = self.conventional(packet);
                    if let Some(f) = from {
                        self.links[table][f] = Some((line, way));
                    }
                    way
                }
            }
            (IScheme::ExtendedBtb { .. }, _) => match self.prev {
                Some(source) if !sequential => {
                    if let Some(way) = self.btb.probe(source, line) {
                        self.s.buffer_hits += 1;
                        self.known(packet, way)
                    } else {
                        let way = self.conventional(packet);
                        self.btb.record(source, line, way);
                        way
                    }
                }
                _ => self.conventional(packet),
            },
        };
        self.way_reg = Some(way);
        self.prev = Some(packet);
    }

    fn stats(&self) -> AccessStats {
        let mut s = self.s;
        if let Some(mab) = &self.mab {
            mab.merge(&mut s);
        }
        s
    }
}

/// The two geometries: the paper's FR-V caches, and a 1 kB one that
/// evicts constantly.
const SHAPES: [Shape; 2] = [
    Shape {
        sets: 512,
        ways: 2,
        line: 32,
    },
    Shape {
        sets: 16,
        ways: 2,
        line: 32,
    },
];

fn dschemes() -> Vec<DScheme> {
    let mut schemes = waymem::sim::full_dschemes();
    schemes.extend([
        DScheme::SetBuffer { entries: 3 },
        DScheme::FilterCache { lines: 1 },
        DScheme::WayMemo {
            tag_entries: 1,
            set_entries: 2,
        },
        DScheme::WayMemoPaperLru {
            tag_entries: 2,
            set_entries: 8,
        },
        DScheme::WayMemoPaperLru {
            tag_entries: 2,
            set_entries: 4,
        },
    ]);
    schemes
}

fn ischemes() -> Vec<IScheme> {
    let mut schemes = waymem::sim::full_ischemes();
    schemes.extend([
        IScheme::ExtendedBtb { entries: 2 },
        IScheme::WayMemo {
            tag_entries: 1,
            set_entries: 2,
        },
    ]);
    schemes
}

/// Replays `data` and `fetches` through every scheme's front-end and its
/// model, failing on the first scheme whose stats or extra cycles differ.
fn compare(shape: Shape, data: &[TraceEvent], fetches: &[TraceEvent]) -> Result<(), TestCaseError> {
    for scheme in dschemes() {
        let mut front = scheme.build(shape.geometry());
        front.replay(data);
        let mut model = DModel::new(scheme, shape);
        for &e in data {
            match e {
                TraceEvent::Load {
                    base, disp, addr, ..
                } => model.access(false, base, disp, addr),
                TraceEvent::Store {
                    base, disp, addr, ..
                } => model.access(true, base, disp, addr),
                TraceEvent::Fetch { .. } => {}
            }
        }
        let what = format!("{} at {shape:?}", scheme.name());
        prop_assert_eq!(front.stats(), model.stats(), "{}", what);
        prop_assert_eq!(front.extra_cycles(), model.extra_cycles, "{}", what);
    }
    for scheme in ischemes() {
        let mut front = scheme.build(shape.geometry());
        front.replay(fetches);
        let mut model = IModel::new(scheme, shape);
        for &e in fetches {
            if let TraceEvent::Fetch { pc, kind } = e {
                model.fetch(pc, kind);
            }
        }
        prop_assert_eq!(
            front.stats(),
            model.stats(),
            "{} at {:?}",
            scheme.name(),
            shape
        );
    }
    Ok(())
}

/// Loads and stores from `(region, line, disp, store)`: bases on 16
/// lines of 4 regions 16 kB apart, so both geometries see set conflicts
/// and the MAB sees repeats; displacements mostly narrow, some wide.
fn data_events(ops: &[(u32, u32, i32, bool)]) -> Vec<TraceEvent> {
    ops.iter()
        .map(|&(region, line, disp, store)| {
            let base = region << 14 | line << 5 | 0x10;
            let addr = base.wrapping_add(disp as u32);
            if store {
                TraceEvent::Store {
                    base,
                    disp,
                    addr,
                    size: 4,
                }
            } else {
                TraceEvent::Load {
                    base,
                    disp,
                    addr,
                    size: 4,
                }
            }
        })
        .collect()
}

/// Fetches from `(kind, target)`: kinds 0–3 continue sequentially, 4–5
/// take a PC-relative branch, 6 returns through the link register and 7
/// jumps indirectly, each to `target`'s word on 16 lines of 4 regions
/// 16 kB apart.
fn fetch_events(ops: &[(u8, u32)]) -> Vec<TraceEvent> {
    let mut pc = 0x1000u32;
    let mut events = vec![TraceEvent::Fetch {
        pc,
        kind: FetchKind::Sequential,
    }];
    for &(kind, t) in ops {
        let target = (t & 3) << 14 | (t >> 2 & 15) << 6 | (t >> 6) << 2;
        let kind = match kind {
            0..=3 => {
                pc += 4;
                events.push(TraceEvent::Fetch {
                    pc,
                    kind: FetchKind::Sequential,
                });
                continue;
            }
            4 | 5 => FetchKind::TakenBranch {
                base: pc,
                disp: target.wrapping_sub(pc) as i32,
            },
            6 => FetchKind::LinkReturn { target },
            _ => FetchKind::Indirect {
                base: target & !0xff,
                disp: (target & 0xff) as i32,
            },
        };
        pc = target;
        events.push(TraceEvent::Fetch { pc, kind });
    }
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheme's front-end agrees with the model on random traces at
    /// both geometries: the full `AccessStats` and the extra cycles.
    #[test]
    fn fronts_match_the_reference_model_on_random_traces(
        data in prop::collection::vec(
            (0u32..4, 0u32..16, prop_oneof![-48i32..48, -40_000i32..40_000], any::<bool>()),
            1..300,
        ),
        fetches in prop::collection::vec((0u8..8, 0u32..512), 1..300),
    ) {
        let (data, fetches) = (data_events(&data), fetch_events(&fetches));
        for shape in SHAPES {
            compare(shape, &data, &fetches)?;
        }
    }
}

#[test]
fn fronts_match_the_reference_model_on_the_synthetic_suite() {
    for spec in synth::standard_suite(4_000) {
        let trace = synth::generate(spec);
        for shape in SHAPES {
            if let Err(e) = compare(shape, &trace.data_events, &trace.fetch_events) {
                panic!("{spec:?}: {e:?}");
            }
        }
    }
}

/// The random traces reach the paths the model is there to check: MAB
/// hits, wide bypasses, known-way buffer hits and mispredictions, at the
/// small geometry.
#[test]
fn random_traces_reach_every_path() {
    let ops: Vec<_> = (0..2_000u32)
        .map(|i| {
            let x = i.wrapping_mul(2_654_435_761);
            let disp = if x % 17 == 0 {
                30_000
            } else {
                (x >> 8) as i32 % 48
            };
            (x >> 3 & 3, x >> 5 & 15, disp, x & 1 == 1)
        })
        .collect();
    let data = data_events(&ops);
    let shape = SHAPES[1];
    let run = |scheme: DScheme| {
        let mut m = DModel::new(scheme, shape);
        for &e in &data {
            if let TraceEvent::Load {
                base, disp, addr, ..
            }
            | TraceEvent::Store {
                base, disp, addr, ..
            } = e
            {
                m.access(matches!(e, TraceEvent::Store { .. }), base, disp, addr);
            }
        }
        (m.stats(), m.extra_cycles)
    };
    let (memo, _) = run(DScheme::paper_way_memo());
    assert!(memo.mab_hits > 0 && memo.mab_lookups > memo.mab_hits);
    assert!(run(DScheme::SetBuffer { entries: 3 }).0.buffer_hits > 0);
    assert!(run(DScheme::FilterCache { lines: 4 }).0.buffer_hits > 0);
    assert!(run(DScheme::WayPredict).1 > 0);
}

/// The counterexample to §3.3's LRU argument: MAB row recency is global
/// while cache LRU is per set, so a row kept alive through another set
/// outlives its line. The model and the front-ends agree on it, and the
/// model counts the one unsound hit.
#[test]
fn paper_lru_counterexample_matches() {
    let shape = SHAPES[1];
    let a = |tag: u32, set: u32| tag << shape.low_bits() | set << shape.offset_bits();
    let data: Vec<_> = [a(1, 0), a(2, 0), a(1, 1), a(3, 0), a(1, 0)]
        .into_iter()
        .map(|addr| TraceEvent::Load {
            base: addr,
            disp: 0,
            addr,
            size: 4,
        })
        .collect();
    compare(shape, &data, &[]).expect("fronts match the model");
    let mut model = DModel::new(
        DScheme::WayMemoPaperLru {
            tag_entries: 2,
            set_entries: 4,
        },
        shape,
    );
    for &e in &data {
        if let TraceEvent::Load {
            base, disp, addr, ..
        } = e
        {
            model.access(false, base, disp, addr);
        }
    }
    assert_eq!(model.stats().unsound_hits, 1);
}
