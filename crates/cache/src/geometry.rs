use crate::GeometryError;

/// Geometry of a set-associative cache: number of sets, associativity and
/// line size, plus the derived 32-bit address field split.
///
/// The paper's target (Fujitsu FR-V) uses two 32 kB 2-way caches with 512
/// sets and 32-byte lines, giving a 5-bit offset, 9-bit index and 18-bit tag
/// — exactly the widths the MAB stores. [`Geometry::frv`] builds that
/// configuration.
///
/// ```
/// use waymem_cache::Geometry;
///
/// let g = Geometry::frv();
/// assert_eq!(g.capacity_bytes(), 32 * 1024);
/// assert_eq!((g.offset_bits(), g.index_bits(), g.tag_bits()), (5, 9, 18));
/// assert_eq!(g.index_of(0x0000_1234), (0x1234 >> 5) & 0x1ff);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    sets: u32,
    ways: u32,
    line_bytes: u32,
    offset_bits: u32,
    index_bits: u32,
}

impl Geometry {
    /// Creates a geometry from set count, associativity and line size.
    ///
    /// # Errors
    ///
    /// Returns [`GeometryError`] if any parameter is not a power of two, the
    /// line is shorter than 4 bytes, or the offset+index fields exceed 32
    /// bits.
    pub fn new(sets: u32, ways: u32, line_bytes: u32) -> Result<Self, GeometryError> {
        if sets == 0 || !sets.is_power_of_two() {
            return Err(GeometryError::BadSets(sets));
        }
        if ways == 0 || !ways.is_power_of_two() {
            return Err(GeometryError::BadWays(ways));
        }
        if line_bytes < 4 || !line_bytes.is_power_of_two() {
            return Err(GeometryError::BadLineBytes(line_bytes));
        }
        let offset_bits = line_bytes.trailing_zeros();
        let index_bits = sets.trailing_zeros();
        if offset_bits + index_bits >= 32 {
            return Err(GeometryError::AddressOverflow {
                offset_bits,
                index_bits,
            });
        }
        Ok(Self {
            sets,
            ways,
            line_bytes,
            offset_bits,
            index_bits,
        })
    }

    /// The FR-V configuration evaluated in the paper: 512 sets, 2 ways,
    /// 32-byte lines (32 kB total; 18-bit tags, 9-bit index, 5-bit offset).
    #[must_use]
    pub fn frv() -> Self {
        Self::new(512, 2, 32).expect("FR-V geometry is valid")
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> u32 {
        self.sets
    }

    /// Associativity (number of ways).
    #[must_use]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Line size in bytes.
    #[must_use]
    pub fn line_bytes(&self) -> u32 {
        self.line_bytes
    }

    /// Total data capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }

    /// Width of the line-offset field in bits.
    #[must_use]
    pub fn offset_bits(&self) -> u32 {
        self.offset_bits
    }

    /// Width of the set-index field in bits.
    #[must_use]
    pub fn index_bits(&self) -> u32 {
        self.index_bits
    }

    /// Width of the tag field in bits (the remainder of a 32-bit address).
    #[must_use]
    pub fn tag_bits(&self) -> u32 {
        32 - self.offset_bits - self.index_bits
    }

    /// Number of low address bits below the tag (offset + index). The MAB's
    /// small adder operates on exactly this many bits (14 for FR-V).
    #[must_use]
    pub fn low_bits(&self) -> u32 {
        self.offset_bits + self.index_bits
    }

    /// Extracts the tag field of `addr`.
    #[must_use]
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.low_bits()
    }

    /// Extracts the set-index field of `addr`.
    #[must_use]
    pub fn index_of(&self, addr: u32) -> u32 {
        (addr >> self.offset_bits) & (self.sets - 1)
    }

    /// Extracts the line-offset field of `addr`.
    #[must_use]
    pub fn offset_of(&self, addr: u32) -> u32 {
        addr & (self.line_bytes - 1)
    }

    /// The address of the first byte of the line containing `addr`.
    #[must_use]
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !(self.line_bytes - 1)
    }

    /// Reassembles a full line-base address from a tag and set index.
    #[must_use]
    pub fn line_addr(&self, tag: u32, index: u32) -> u32 {
        (tag << self.low_bits()) | (index << self.offset_bits)
    }

    /// Returns `true` when two addresses fall on the same cache line.
    #[must_use]
    pub fn same_line(&self, a: u32, b: u32) -> bool {
        self.line_base(a) == self.line_base(b)
    }
}

impl Default for Geometry {
    /// Defaults to the paper's FR-V geometry.
    fn default() -> Self {
        Self::frv()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frv_field_widths_match_paper() {
        let g = Geometry::frv();
        assert_eq!(g.sets(), 512);
        assert_eq!(g.ways(), 2);
        assert_eq!(g.line_bytes(), 32);
        assert_eq!(g.offset_bits(), 5);
        assert_eq!(g.index_bits(), 9);
        assert_eq!(g.tag_bits(), 18);
        assert_eq!(g.low_bits(), 14);
        assert_eq!(g.capacity_bytes(), 32 * 1024);
    }

    #[test]
    fn field_extraction_round_trips() {
        let g = Geometry::frv();
        let addr = 0xabcd_e7b4;
        let reassembled =
            g.line_addr(g.tag_of(addr), g.index_of(addr)) | g.offset_of(addr);
        assert_eq!(reassembled, addr);
    }

    #[test]
    fn line_base_and_same_line() {
        let g = Geometry::frv();
        assert_eq!(g.line_base(0x1234_567f), 0x1234_5660);
        assert!(g.same_line(0x100, 0x11f));
        assert!(!g.same_line(0x11f, 0x120));
    }

    #[test]
    fn rejects_invalid_parameters() {
        assert_eq!(
            Geometry::new(500, 2, 32).unwrap_err(),
            GeometryError::BadSets(500)
        );
        assert_eq!(
            Geometry::new(512, 3, 32).unwrap_err(),
            GeometryError::BadWays(3)
        );
        assert_eq!(
            Geometry::new(512, 2, 2).unwrap_err(),
            GeometryError::BadLineBytes(2)
        );
        assert!(matches!(
            Geometry::new(1 << 28, 1, 32).unwrap_err(),
            GeometryError::AddressOverflow { .. }
        ));
    }

    #[test]
    fn direct_mapped_and_tiny_caches_work() {
        let g = Geometry::new(1, 1, 4).unwrap();
        assert_eq!(g.index_bits(), 0);
        assert_eq!(g.offset_bits(), 2);
        assert_eq!(g.tag_bits(), 30);
        assert_eq!(g.index_of(0xffff_ffff), 0);
    }
}
