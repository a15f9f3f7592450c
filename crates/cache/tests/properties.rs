//! Property-based tests for the cache substrate: differential equivalence
//! with a naive reference model, inclusion/LRU invariants and accounting
//! consistency under random access streams.

use proptest::prelude::*;
use std::collections::HashMap;

use waymem_cache::{AccessKind, AccessOutcome, EvictedLine, Geometry, LruOrder, SetAssocCache};

fn geometries() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        Just(Geometry::new(4, 1, 8).unwrap()),
        Just(Geometry::new(4, 2, 16).unwrap()),
        Just(Geometry::new(16, 4, 32).unwrap()),
        Just(Geometry::new(8, 8, 16).unwrap()),
    ]
}

/// A deliberately naive write-back, write-allocate LRU cache: per set, the
/// resident lines as `(tag, dirty, way)` in most-recently-used-first order.
/// A set that is not yet full fills its lowest unused way; a full set
/// evicts the line at the back.
struct Reference {
    geom: Geometry,
    sets: Vec<Vec<(u32, bool, u32)>>,
    fills: u64,
    write_backs: u64,
}

impl Reference {
    fn new(geom: Geometry) -> Self {
        Self {
            geom,
            sets: vec![Vec::new(); geom.sets() as usize],
            fills: 0,
            write_backs: 0,
        }
    }

    fn access(&mut self, addr: u32, kind: AccessKind) -> AccessOutcome {
        let (index, tag) = (self.geom.index_of(addr), self.geom.tag_of(addr));
        let set = &mut self.sets[index as usize];
        let found = set.iter().position(|l| l.0 == tag);
        let (hit, mut line, evicted) = match found {
            Some(pos) => (true, set.remove(pos), None),
            None => {
                self.fills += 1;
                if set.len() < self.geom.ways() as usize {
                    (false, (tag, false, set.len() as u32), None)
                } else {
                    let (old_tag, dirty, way) = set.pop().expect("full set");
                    self.write_backs += u64::from(dirty);
                    let ev = EvictedLine {
                        tag: old_tag,
                        index,
                        way,
                        dirty,
                    };
                    (false, (tag, false, way), Some(ev))
                }
            }
        };
        line.1 |= kind == AccessKind::Store;
        set.insert(0, line);
        AccessOutcome {
            hit,
            mru_hit: found == Some(0),
            way: line.2,
            index,
            evicted,
        }
    }
}

fn addresses() -> impl Strategy<Value = u32> {
    // A narrow range that mostly hits and a wide one that mostly misses.
    prop_oneof![0u32..0x800, 0u32..0x1_0000]
}

proptest! {
    /// The flat tag-only cache agrees with the naive reference on every
    /// access outcome (hit, MRU hit, way, set, evicted line and its dirty
    /// bit) and
    /// on the fill and write-back counts, for any load/store stream.
    #[test]
    fn cache_matches_naive_reference(
        geom in geometries(),
        ops in prop::collection::vec((addresses(), any::<bool>()), 1..400),
    ) {
        let mut cache = SetAssocCache::new(geom);
        let mut reference = Reference::new(geom);
        for (addr, is_store) in ops {
            let kind = if is_store { AccessKind::Store } else { AccessKind::Load };
            let want = reference.access(addr, kind);
            prop_assert_eq!(cache.access(addr, kind), want);
            prop_assert_eq!(cache.fills(), reference.fills);
            prop_assert_eq!(cache.write_backs(), reference.write_backs);
        }
        for (index, set) in reference.sets.iter().enumerate() {
            for &(tag, _, way) in set {
                prop_assert_eq!(cache.resident_way(tag, index as u32), Some(way));
            }
            if let Some(&(_, _, mru)) = set.first() {
                prop_assert_eq!(cache.mru_way(index as u32), mru);
            }
        }
    }

    /// The number of resident lines never exceeds capacity, and a probe
    /// after an access always finds the line.
    #[test]
    fn residency_invariants(
        geom in geometries(),
        addrs in prop::collection::vec(any::<u16>(), 1..200),
    ) {
        let mut cache = SetAssocCache::new(geom);
        let capacity = u64::from(geom.sets()) * u64::from(geom.ways());
        for addr16 in addrs {
            let addr = u32::from(addr16);
            let out = cache.access(addr, AccessKind::Load);
            prop_assert_eq!(cache.probe(addr), Some(out.way));
            prop_assert!(cache.resident_lines() <= capacity);
            prop_assert_eq!(out.index, geom.index_of(addr));
        }
    }

    /// Evictions only happen in the accessed set and report the true
    /// former occupant.
    #[test]
    fn evictions_are_local_and_accurate(
        addrs in prop::collection::vec(any::<u16>(), 1..200),
    ) {
        let geom = Geometry::new(4, 2, 16).unwrap();
        let mut cache = SetAssocCache::new(geom);
        let mut resident: HashMap<(u32, u32), u32> = HashMap::new(); // (set, way) -> tag
        for addr16 in addrs {
            let addr = u32::from(addr16);
            let out = cache.access(addr, AccessKind::Load);
            if let Some(ev) = out.evicted {
                prop_assert_eq!(ev.index, out.index, "eviction outside accessed set");
                prop_assert_eq!(ev.way, out.way);
                let prior = resident.get(&(ev.index, ev.way)).copied();
                prop_assert_eq!(prior, Some(ev.tag), "evicted tag mismatch");
            }
            resident.insert((out.index, out.way), geom.tag_of(addr));
        }
    }

    /// LruOrder::touch keeps `iter()` a permutation and `victim`/`mru`
    /// coherent with it.
    #[test]
    fn lru_is_always_a_permutation(
        n in 1usize..16,
        touches in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let mut lru = LruOrder::new(n);
        for t in touches {
            lru.touch(usize::from(t) % n);
            let mut seen: Vec<usize> = lru.iter().collect();
            prop_assert_eq!(seen.len(), n);
            prop_assert_eq!(lru.mru(), seen[0]);
            prop_assert_eq!(lru.victim(), *seen.last().unwrap());
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    /// Fill counts equal miss counts: every miss fills exactly one line.
    #[test]
    fn fills_equal_misses(addrs in prop::collection::vec(any::<u16>(), 1..200)) {
        let geom = Geometry::new(8, 2, 16).unwrap();
        let mut cache = SetAssocCache::new(geom);
        let mut misses = 0u64;
        for addr16 in addrs {
            let out = cache.access(u32::from(addr16), AccessKind::Load);
            if !out.hit {
                misses += 1;
            }
        }
        prop_assert_eq!(cache.fills(), misses);
    }
}
