use crate::lru::touch;
use crate::Geometry;

/// The kind of data-side access, used for replacement/dirty semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read (load or instruction fetch).
    Load,
    /// A write (store). Write-allocate: a missing line is filled first.
    Store,
}

/// Description of a line evicted by a fill, needed by way-memoization
/// structures to stay consistent with the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine {
    /// Tag of the evicted line.
    pub tag: u32,
    /// Set index the line lived in.
    pub index: u32,
    /// Way the line lived in (now occupied by the new line).
    pub way: u32,
    /// Whether the line was dirty and had to be written back.
    pub dirty: bool,
}

/// Result of a full cache access (probe + optional fill + LRU update).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Whether the line was resident in the set's most-recently-used way —
    /// a correct guess for an MRU way predictor.
    pub mru_hit: bool,
    /// The way holding the line after the access.
    pub way: u32,
    /// Set index of the access.
    pub index: u32,
    /// Eviction information when a fill displaced a valid line.
    pub evicted: Option<EvictedLine>,
}

/// Per-line state bits kept beside each tag.
const VALID: u8 = 1;
const DIRTY: u8 = 2;

/// A write-back, write-allocate, LRU set-associative cache model holding
/// tags, valid and dirty bits, and per-set LRU order — no line data.
///
/// Trace events carry addresses, not values, so the energy model needs
/// only residency: which way a line occupies, which line a fill displaces
/// and whether it was dirty. The state lives in flat `sets × ways` arrays,
/// each set's most-recent-first way order inline beside its tags.
/// Soundness of the memoizing schemes is counted directly: a scheme
/// compares every way it memoized with the way this model reports, and
/// counts disagreements in [`AccessStats::wrong_way`](crate::AccessStats::wrong_way).
///
/// State changes and accounting are decoupled: [`probe`](Self::probe) is a
/// side-effect-free residency check, [`access`](Self::access) performs the
/// architectural access (LRU update, fill on miss, dirty tracking) and
/// reports its [`AccessOutcome`], and the energy-relevant counts of
/// tag/way activations are left to the schemes that read the outcome,
/// because they depend on the lookup *scheme*, not on the cache state.
///
/// ```
/// use waymem_cache::{AccessKind, Geometry, SetAssocCache};
///
/// # fn main() -> Result<(), waymem_cache::GeometryError> {
/// let mut cache = SetAssocCache::new(Geometry::new(4, 2, 16)?);
/// assert!(cache.probe(0x20).is_none());
/// let out = cache.access(0x20, AccessKind::Store);
/// assert_eq!((out.hit, out.way), (false, 0)); // after reset, way 0 fills first
/// assert_eq!(cache.probe(0x20), Some(0));
/// // Two more lines in the same set evict the dirty one.
/// cache.access(0x60, AccessKind::Load);
/// let out = cache.access(0xa0, AccessKind::Load);
/// assert!(out.evicted.is_some_and(|e| e.dirty));
/// assert_eq!(cache.write_backs(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geom: Geometry,
    ways: usize,
    /// Tag of each (set, way), row-major by set.
    tags: Vec<u32>,
    /// `VALID` / `DIRTY` bits of each (set, way).
    state: Vec<u8>,
    /// Each set's ways, most recently used first.
    order: Vec<u8>,
    fills: u64,
    write_backs: u64,
}

impl SetAssocCache {
    /// Creates an empty (all-invalid) cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has more than 255 ways (hardware LRU state
    /// for larger sets would be impractical, and nothing here needs it).
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        let ways = geom.ways() as usize;
        assert!(ways <= 255, "LRU capacity {ways} out of range 1..=255");
        let lines = geom.sets() as usize * ways;
        // Way 0 starts least recently used, so it fills first after reset.
        let order = (0..geom.sets())
            .flat_map(|_| (0..ways as u8).rev())
            .collect();
        Self {
            geom,
            ways,
            tags: vec![0; lines],
            state: vec![0; lines],
            order,
            fills: 0,
            write_backs: 0,
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    fn set_range(&self, index: u32) -> std::ops::Range<usize> {
        let start = index as usize * self.ways;
        start..start + self.ways
    }

    /// Side-effect-free residency check: the way holding `addr`'s line, if
    /// resident. Does not update LRU state.
    #[must_use]
    pub fn probe(&self, addr: u32) -> Option<u32> {
        self.resident_way(self.geom.tag_of(addr), self.geom.index_of(addr))
    }

    /// Residency check by (tag, set index) rather than full address. Used by
    /// consistency property tests for the MAB.
    #[must_use]
    pub fn resident_way(&self, tag: u32, index: u32) -> Option<u32> {
        let r = self.set_range(index);
        self.tags[r.clone()]
            .iter()
            .zip(&self.state[r])
            .position(|(&t, &s)| t == tag && s & VALID != 0)
            .map(|w| w as u32)
    }

    /// Performs an architectural access: on a hit touches LRU; on a miss
    /// fills the line into the set's LRU way, counting a write-back when
    /// the victim is dirty. A store marks the line dirty, after the fill
    /// on a miss.
    pub fn access(&mut self, addr: u32, kind: AccessKind) -> AccessOutcome {
        let index = self.geom.index_of(addr);
        let r = self.set_range(index);
        let (hit, mru_hit, way, evicted) = match self.resident_way(self.geom.tag_of(addr), index) {
            Some(way) => {
                let order = &mut self.order[r.clone()];
                let mru_hit = u32::from(order[0]) == way;
                touch(order, way as usize);
                (true, mru_hit, way, None)
            }
            None => {
                let order = &mut self.order[r.clone()];
                let way = u32::from(order[self.ways - 1]);
                order.rotate_right(1);
                let slot = r.start + way as usize;
                let state = self.state[slot];
                let evicted = (state & VALID != 0).then(|| EvictedLine {
                    tag: self.tags[slot],
                    index,
                    way,
                    dirty: state & DIRTY != 0,
                });
                self.write_backs += u64::from(state & DIRTY != 0);
                self.tags[slot] = self.geom.tag_of(addr);
                self.state[slot] = VALID;
                self.fills += 1;
                (false, false, way, evicted)
            }
        };
        if kind == AccessKind::Store {
            self.state[r.start + way as usize] |= DIRTY;
        }
        AccessOutcome {
            hit,
            mru_hit,
            way,
            index,
            evicted,
        }
    }

    /// Total number of line fills performed (equals miss count).
    #[must_use]
    pub fn fills(&self) -> u64 {
        self.fills
    }

    /// Total number of dirty write-backs performed.
    #[must_use]
    pub fn write_backs(&self) -> u64 {
        self.write_backs
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> u64 {
        self.state.iter().filter(|&&s| s & VALID != 0).count() as u64
    }

    /// The most-recently-used way of `index`'s set — what an MRU way
    /// predictor guesses.
    #[must_use]
    pub fn mru_way(&self, index: u32) -> u32 {
        u32::from(self.order[self.set_range(index).start])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        SetAssocCache::new(Geometry::new(4, 2, 16).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut cache = small();
        let out = cache.access(0x40, AccessKind::Load);
        assert!(!out.hit);
        assert_eq!(out.evicted, None);
        let out = cache.access(0x44, AccessKind::Load);
        assert!(out.hit, "same line must hit");
        assert_eq!(cache.fills(), 1);
    }

    #[test]
    fn two_way_set_holds_two_conflicting_lines() {
        let mut cache = small();
        // Same index (set 0), different tags: line size 16, 4 sets -> stride 64.
        cache.access(0x000, AccessKind::Load);
        cache.access(0x040, AccessKind::Load);
        assert!(cache.access(0x000, AccessKind::Load).hit);
        assert!(cache.access(0x040, AccessKind::Load).hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cache = small();
        cache.access(0x000, AccessKind::Load); // way 0... first fill
        cache.access(0x040, AccessKind::Load); // other way
        cache.access(0x000, AccessKind::Load); // touch 0x000 -> 0x040 is LRU
        let out = cache.access(0x080, AccessKind::Load); // evicts 0x040's line
        assert!(!out.hit);
        let ev = out.evicted.expect("a valid line was displaced");
        assert_eq!(ev.index, 0);
        let g = cache.geometry();
        assert_eq!(ev.tag, g.tag_of(0x040));
        assert!(cache.probe(0x000).is_some());
        assert!(cache.probe(0x040).is_none());
        assert!(cache.probe(0x080).is_some());
    }

    #[test]
    fn dirty_victim_is_written_back() {
        let mut cache = small();
        cache.access(0x00, AccessKind::Store);
        // Evict line 0x00 by loading two more lines into set 0.
        cache.access(0x40, AccessKind::Load);
        let out = cache.access(0x80, AccessKind::Load);
        assert!(cache.probe(0x00).is_none());
        let ev = out.evicted.expect("a valid line was displaced");
        assert_eq!((ev.tag, ev.dirty), (cache.geometry().tag_of(0x00), true));
        assert_eq!(cache.write_backs(), 1);
    }

    #[test]
    fn clean_victim_is_not_written_back() {
        let mut cache = small();
        cache.access(0x00, AccessKind::Load);
        cache.access(0x40, AccessKind::Load);
        let out = cache.access(0x80, AccessKind::Load);
        assert!(out.evicted.is_some_and(|e| !e.dirty));
        assert_eq!(cache.write_backs(), 0);
    }

    #[test]
    fn store_miss_allocates_and_dirties() {
        let mut cache = small();
        let out = cache.access(0x20, AccessKind::Store);
        assert!(!out.hit);
        // Force eviction.
        cache.access(0x60, AccessKind::Load);
        let out = cache.access(0xa0, AccessKind::Load);
        assert!(out.evicted.is_some_and(|e| e.dirty));
        assert_eq!(cache.write_backs(), 1);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut cache = small();
        cache.access(0x000, AccessKind::Load);
        cache.access(0x040, AccessKind::Load);
        // Probing 0x000 must NOT refresh its recency.
        for _ in 0..8 {
            let _ = cache.probe(0x000);
        }
        // 0x000 is still LRU (0x040 was touched last) -> it gets evicted.
        cache.access(0x080, AccessKind::Load);
        assert!(cache.probe(0x000).is_none());
        assert!(cache.probe(0x040).is_some());
    }

    #[test]
    fn resident_way_matches_probe() {
        let mut cache = small();
        cache.access(0x5_0040, AccessKind::Load);
        let g = cache.geometry();
        assert_eq!(
            cache.resident_way(g.tag_of(0x5_0040), g.index_of(0x5_0040)),
            cache.probe(0x5_0040)
        );
    }

    #[test]
    fn mru_hit_names_hits_on_the_most_recent_way() {
        let mut cache = small();
        assert!(
            !cache.access(0x00, AccessKind::Load).mru_hit,
            "a miss is never an MRU hit"
        );
        cache.access(0x40, AccessKind::Load); // same set, the other way
        assert_eq!(cache.mru_way(0), 1);
        assert!(
            !cache.access(0x00, AccessKind::Load).mru_hit,
            "way 0 was not MRU"
        );
        assert!(
            cache.access(0x04, AccessKind::Store).mru_hit,
            "way 0 is MRU now"
        );
    }
}
