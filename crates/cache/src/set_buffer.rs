use crate::LruOrder;

/// Yang, Yu & Zhang's *lightweight set buffer* (paper approach \[14\]), the
/// D-cache baseline of Figures 4–5.
///
/// In hardware the buffer keeps, for each of a few most-recently-used
/// **sets**, a copy of the tags of every way of that set: an access to a
/// buffered set compares against the small buffered tags instead of
/// activating the cache's tag arrays, and on a match activates only the
/// matching data way. Unlike an L0 cache there is no extra-cycle penalty
/// on a buffer miss (the full lookup proceeds as usual), but unlike the MAB
/// the scheme "cannot exploit inter-cache-line access locality" — a stream
/// touching a new set every access gets nothing.
///
/// A buffered copy is refreshed by every access to its set that it does
/// not resolve, and a set's tags change only through such an access (a
/// fill after a miss). So the copy always equals the cache's tags, and a
/// buffer match is exactly "the set is buffered and the access hits":
/// the model keeps only the LRU list of buffered set indices and reads the
/// hit from the cache's own outcome.
///
/// ```
/// use waymem_cache::SetBuffer;
///
/// let mut sb = SetBuffer::new(1);
/// assert!(!sb.access(7, true), "set 7 is not buffered yet");
/// assert!(sb.access(7, true), "buffered, and the access hits");
/// assert!(!sb.access(7, false), "buffered, but the line is not resident");
/// assert!(!sb.access(8, true), "set 8 displaces set 7");
/// assert_eq!((sb.lookups(), sb.way_hits()), (4, 1));
/// ```
#[derive(Debug, Clone)]
pub struct SetBuffer {
    /// The set index buffered in each slot; `None` while the slot is empty.
    sets: Vec<Option<u32>>,
    lru: LruOrder,
    lookups: u64,
    way_hits: u64,
}

impl SetBuffer {
    /// Creates a buffer tracking up to `entries` sets.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or exceeds 255.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "set buffer needs at least one entry");
        Self {
            sets: vec![None; entries],
            lru: LruOrder::new(entries),
            lookups: 0,
            way_hits: 0,
        }
    }

    /// Probes the buffer with an access to set `index` that `hit` (or
    /// missed) in the cache, and buffers the set, replacing the LRU slot if
    /// it was not buffered. Returns whether the buffer knew the way.
    pub fn access(&mut self, index: u32, hit: bool) -> bool {
        self.lookups += 1;
        let buffered = self.sets.iter().position(|s| *s == Some(index));
        let slot = buffered.unwrap_or_else(|| self.lru.victim());
        self.sets[slot] = Some(index);
        self.lru.touch(slot);
        let known = buffered.is_some() && hit;
        self.way_hits += u64::from(known);
        known
    }

    /// Probes performed.
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Probes that knew the way.
    #[must_use]
    pub fn way_hits(&self) -> u64 {
        self.way_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_refill_then_way_hit() {
        let mut sb = SetBuffer::new(2);
        assert!(!sb.access(3, false), "a cold set is not buffered");
        assert!(sb.access(3, true), "the refilled set resolves a hit");
        assert_eq!(sb.way_hits(), 1);
    }

    #[test]
    fn same_set_different_tag_is_tag_miss() {
        let mut sb = SetBuffer::new(2);
        sb.access(3, false);
        // The set is buffered, but this line is not resident: a full
        // lookup, and the set stays buffered.
        assert!(!sb.access(3, false));
        assert!(sb.access(3, true));
    }

    #[test]
    fn lru_replacement_of_sets() {
        let mut sb = SetBuffer::new(2);
        sb.access(0, false);
        sb.access(1, false);
        sb.access(0, true); // touch set 0
        sb.access(2, false); // evicts set 1
        assert!(!sb.access(1, true), "set 1 was replaced");
        assert!(sb.access(2, true));
    }
}
