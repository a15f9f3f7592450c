use waymem_cache::Geometry;

/// Classification of a displacement's sign-extended upper bits (everything
/// above the cache's low `offset + index` bits).
///
/// Only `Zeros` (small non-negative) and `Ones` (small negative)
/// displacements can be handled by the MAB's narrow datapath; anything else
/// is a forced MAB miss (`Wide`), which the paper measures at < 1 % of
/// D-cache accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DispClass {
    /// Upper bits all zero: `0 <= disp < 2^low_bits`.
    Zeros,
    /// Upper bits all one: `-2^low_bits <= disp < 0`.
    Ones,
    /// Displacement too large in magnitude; the MAB is bypassed.
    Wide,
}

impl DispClass {
    /// `true` unless the displacement is [`DispClass::Wide`].
    #[must_use]
    pub fn is_narrow(self) -> bool {
        self != DispClass::Wide
    }
}

/// Result of the narrow (low-bits) addition performed by the MAB datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LowAdd {
    /// Carry out of the low `low_bits`-bit addition.
    pub carry: bool,
    /// The displacement class (sign information of the upper bits).
    pub class: DispClass,
    /// Set index extracted from the low sum.
    pub set_index: u32,
    /// Line offset extracted from the low sum.
    pub offset: u32,
    /// The full low-bits sum (offset + index concatenated).
    pub low_sum: u32,
}

/// Model of the MAB's address datapath: a `low_bits`-wide adder (14 bits for
/// the FR-V geometry) plus the upper-bit classifier of Figure 3.
///
/// This is the piece that makes way memoization free of delay penalty: its
/// critical path (small adder + 9-bit comparator) is shorter than the
/// 32-bit AGU adder it runs in parallel with — `waymem-hwmodel` quantifies
/// that claim (Table 2).
///
/// ```
/// use waymem_cache::Geometry;
/// use waymem_core::{DispClass, SmallAdder};
///
/// let adder = SmallAdder::new(Geometry::frv());
/// let r = adder.add(0x0001_3ffc, 8); // crosses the 14-bit boundary
/// assert!(r.carry);
/// assert_eq!(r.class, DispClass::Zeros);
/// // The reconstructed tag equals the tag of the real 32-bit sum.
/// assert_eq!(
///     adder.effective_tag(0x0001_3ffc, 8),
///     Some(Geometry::frv().tag_of(0x0001_3ffc_u32.wrapping_add(8)))
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallAdder {
    geom: Geometry,
}

impl SmallAdder {
    /// Creates the datapath model for caches shaped by `geom`.
    #[must_use]
    pub fn new(geom: Geometry) -> Self {
        Self { geom }
    }

    /// The geometry this adder was built for.
    #[must_use]
    pub fn geometry(&self) -> Geometry {
        self.geom
    }

    /// Classifies the displacement's upper bits (all-0 / all-1 / other).
    #[must_use]
    pub fn classify(&self, disp: i32) -> DispClass {
        let upper = disp >> self.geom.low_bits(); // arithmetic shift
        match upper {
            0 => DispClass::Zeros,
            -1 => DispClass::Ones,
            _ => DispClass::Wide,
        }
    }

    /// Performs the narrow addition of Figure 3: adds the low bits of the
    /// base and the displacement, reporting carry, set index and offset.
    #[must_use]
    pub fn add(&self, base: u32, disp: i32) -> LowAdd {
        let low_bits = self.geom.low_bits();
        let mask = (1u32 << low_bits) - 1;
        let sum = (base & mask) + ((disp as u32) & mask);
        let carry = (sum >> low_bits) & 1 == 1;
        let low_sum = sum & mask;
        LowAdd {
            carry,
            class: self.classify(disp),
            set_index: low_sum >> self.geom.offset_bits(),
            offset: low_sum & (self.geom.line_bytes() - 1),
            low_sum,
        }
    }

    /// Reconstructs the cache tag of `base + disp` using only the narrow
    /// datapath, or `None` when the displacement is [`DispClass::Wide`].
    ///
    /// For `Zeros` the tag is `tag(base) + carry`; for `Ones` it is
    /// `tag(base) + carry - 1` (the all-ones upper bits contribute `-1`),
    /// both modulo `2^tag_bits`. The crate's property tests check this
    /// against the full 32-bit addition for the whole input space.
    #[must_use]
    pub fn effective_tag(&self, base: u32, disp: i32) -> Option<u32> {
        let r = self.add(base, disp);
        let tag_mask = (1u32 << self.geom.tag_bits()) - 1;
        let base_tag = self.geom.tag_of(base);
        let adjust = match r.class {
            DispClass::Zeros => u32::from(r.carry),
            DispClass::Ones => u32::from(r.carry).wrapping_sub(1),
            DispClass::Wide => return None,
        };
        Some(base_tag.wrapping_add(adjust) & tag_mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adder() -> SmallAdder {
        SmallAdder::new(Geometry::frv())
    }

    #[test]
    fn classification_boundaries() {
        let a = adder();
        assert_eq!(a.classify(0), DispClass::Zeros);
        assert_eq!(a.classify((1 << 14) - 1), DispClass::Zeros);
        assert_eq!(a.classify(1 << 14), DispClass::Wide);
        assert_eq!(a.classify(-1), DispClass::Ones);
        assert_eq!(a.classify(-(1 << 14)), DispClass::Ones);
        assert_eq!(a.classify(-(1 << 14) - 1), DispClass::Wide);
        assert_eq!(a.classify(i32::MIN), DispClass::Wide);
        assert_eq!(a.classify(i32::MAX), DispClass::Wide);
    }

    #[test]
    fn add_without_carry() {
        let a = adder();
        let r = a.add(0x1000, 0x10);
        assert!(!r.carry);
        assert_eq!(r.low_sum, 0x1010);
        assert_eq!(r.set_index, 0x1010 >> 5);
        assert_eq!(r.offset, 0x10);
    }

    #[test]
    fn add_with_carry() {
        let a = adder();
        let r = a.add(0x3ffe, 4); // 0x3ffe + 4 = 0x4002 -> carry out of bit 13
        assert!(r.carry);
        assert_eq!(r.low_sum, 0x0002);
        assert_eq!(r.set_index, 0);
        assert_eq!(r.offset, 2);
    }

    #[test]
    fn negative_displacement_borrows() {
        let a = adder();
        // base 0x1_0004, disp -8: addr = 0xfffc -> set index crosses down.
        let r = a.add(0x0001_0004, -8);
        assert_eq!(r.class, DispClass::Ones);
        let real = 0x0001_0004u32.wrapping_add((-8i32) as u32);
        assert_eq!(r.low_sum, real & 0x3fff);
        assert_eq!(
            a.effective_tag(0x0001_0004, -8),
            Some(Geometry::frv().tag_of(real))
        );
    }

    #[test]
    fn effective_tag_matches_full_add_on_samples() {
        let a = adder();
        let g = Geometry::frv();
        let bases = [0u32, 0x3fff, 0x4000, 0x1234_5678, 0xffff_fff0, 0x8000_0000];
        let disps = [0i32, 1, -1, 31, -32, 8191, -8192, 16383, -16384];
        for &b in &bases {
            for &d in &disps {
                let want = g.tag_of(b.wrapping_add(d as u32));
                assert_eq!(a.effective_tag(b, d), Some(want), "base={b:#x} disp={d}");
            }
        }
    }

    #[test]
    fn wide_displacement_yields_none() {
        let a = adder();
        assert_eq!(a.effective_tag(0x1000, 1 << 20), None);
        assert_eq!(a.effective_tag(0x1000, -(1 << 20)), None);
    }

    #[test]
    fn low_sum_matches_full_add_when_narrow() {
        let a = adder();
        let g = Geometry::frv();
        for b in (0..0x2_0000u32).step_by(97) {
            for d in (-16384i32..16384).step_by(311) {
                let r = a.add(b, d);
                let real = b.wrapping_add(d as u32);
                assert_eq!(r.low_sum, real & 0x3fff);
                assert_eq!(r.set_index, g.index_of(real));
                assert_eq!(r.offset, g.offset_of(real));
            }
        }
    }

    #[test]
    fn other_geometries_use_their_own_widths() {
        // 64 sets, 16-B lines: low bits = 6 + 4 = 10.
        let g = Geometry::new(64, 2, 16).unwrap();
        let a = SmallAdder::new(g);
        assert_eq!(a.classify((1 << 10) - 1), DispClass::Zeros);
        assert_eq!(a.classify(1 << 10), DispClass::Wide);
        let r = a.add(0x3f0, 0x20);
        let real = 0x3f0u32 + 0x20;
        assert_eq!(r.set_index, g.index_of(real));
        assert_eq!(
            a.effective_tag(0xdead_03f0, 0x20),
            Some(g.tag_of(0xdead_03f0u32.wrapping_add(0x20)))
        );
    }
}
