/// Structural description of a MAB for the hardware models, decoupled from
/// `waymem-core`'s behavioural `MabConfig` so this crate stays dependency
/// free (the simulator converts between the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MabShape {
    /// Number of tag rows (`N_t`).
    pub tag_entries: u32,
    /// Number of set-index columns (`N_s`).
    pub set_entries: u32,
    /// Bits per tag entry including the 2-bit cflag (20 for FR-V).
    pub tag_entry_bits: u32,
    /// Bits per set-index entry (9 for FR-V).
    pub set_entry_bits: u32,
    /// Bits per (row, column) pair: vflag + way number (2 for 2-way).
    pub pair_bits: u32,
    /// Width of the narrow adder (offset + index bits; 14 for FR-V).
    pub adder_bits: u32,
}

impl MabShape {
    /// The paper's geometry (18-bit tag + cflag, 9-bit index, 14-bit adder,
    /// 2-way pairs) with the given entry counts.
    #[must_use]
    pub fn frv(tag_entries: u32, set_entries: u32) -> Self {
        Self {
            tag_entries,
            set_entries,
            tag_entry_bits: 20,
            set_entry_bits: 9,
            pair_bits: 2,
            adder_bits: 14,
        }
    }

    /// Storage bits in entry registers (tags + indices, excluding the
    /// pair matrix).
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        self.tag_entries * self.tag_entry_bits + self.set_entries * self.set_entry_bits
    }

    /// Bits in the vflag/way matrix.
    #[must_use]
    pub fn matrix_bits(&self) -> u32 {
        self.tag_entries * self.set_entries * self.pair_bits
    }

    /// All storage bits.
    #[must_use]
    pub fn total_bits(&self) -> u32 {
        self.entry_bits() + self.matrix_bits()
    }

    /// Comparator bits: every stored tag and index is compared in parallel.
    #[must_use]
    pub fn comparator_bits(&self) -> u32 {
        self.entry_bits()
    }
}

/// Structural description of one cache for the energy/area models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheShape {
    /// Number of sets (SRAM rows).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Tag width in bits.
    pub tag_bits: u32,
}

impl CacheShape {
    /// The paper's 32 kB 2-way cache: 512 sets × 32-byte lines, 18-bit tags.
    #[must_use]
    pub fn frv() -> Self {
        Self {
            sets: 512,
            ways: 2,
            line_bytes: 32,
            tag_bits: 18,
        }
    }

    /// Data bits read per way activation (one line).
    #[must_use]
    pub fn way_read_bits(&self) -> u32 {
        self.line_bytes * 8
    }

    /// Bits read per tag-array activation (tag + valid).
    #[must_use]
    pub fn tag_read_bits(&self) -> u32 {
        self.tag_bits + 1
    }

    /// Total data capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.sets) * u64::from(self.ways) * u64::from(self.line_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frv_mab_shape_bit_counts() {
        let s = MabShape::frv(2, 8);
        assert_eq!(s.entry_bits(), 2 * 20 + 8 * 9);
        assert_eq!(s.matrix_bits(), 32);
        assert_eq!(s.total_bits(), 144);
        assert_eq!(s.comparator_bits(), 112);
    }

    #[test]
    fn frv_cache_shape() {
        let c = CacheShape::frv();
        assert_eq!(c.capacity_bytes(), 32 * 1024);
        assert_eq!(c.way_read_bits(), 256);
        assert_eq!(c.tag_read_bits(), 19);
    }
}
