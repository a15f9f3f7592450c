//! Per-access SRAM energies and the paper's Eq. (1) power composition:
//!
//! ```text
//! P_cache = E_way · N_way + E_tag · N_tag + P_MAB            (1)
//! ```
//!
//! where `N_way`/`N_tag` are activations *per second*. The paper measured
//! `E_way` and `E_tag` with SPICE on the FR-V's arrays; here they come from
//! a first-order bitline/sense-amp model calibrated so the composed powers
//! land in the range of Figures 5 and 7.

use crate::{CacheShape, MabPower, Technology};

/// Per-activation energies for one cache's arrays and its auxiliary
/// buffers, in nanojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheEnergies {
    /// Energy of one data-way read/write activation (whole line width).
    pub way_nj: f64,
    /// Energy of one tag-array activation.
    pub tag_nj: f64,
    /// Energy of probing a small register buffer (set buffer / line
    /// buffer) once.
    pub buffer_probe_nj: f64,
}

/// Bitline energy per cell on the accessed columns: C_bl·V·V_swing with
/// C_bl ≈ rows · 2 fF. Expressed per (row, bit) in nJ at 1.3 V.
const E_BITLINE_PER_ROW_BIT: f64 = 2.0e-15 * 1.3 * 0.25 * 1e9; // nJ
/// Sense amp + output driver energy per bit, nJ (0.09 pJ).
const E_SENSE_PER_BIT: f64 = 0.9e-13 * 1e9;
/// Decoder + wordline energy per activation, nJ.
const E_DECODE: f64 = 0.012;
/// Register-buffer probe energy per bit, nJ.
const E_BUF_BIT: f64 = 4.0e-5;

/// Computes the per-activation energies of `shape`'s arrays.
///
/// For the FR-V cache this yields ≈ 0.15 nJ per way and ≈ 0.02 nJ per tag
/// array — the ~8:1 ratio that makes way activations dominate Figures 5
/// and 7, with tag elimination still clearly visible.
///
/// ```
/// use waymem_hwmodel::{cache_energies, CacheShape, Technology};
///
/// let e = cache_energies(CacheShape::frv(), Technology::frv_0130());
/// assert!(e.way_nj > 5.0 * e.tag_nj);
/// ```
#[must_use]
pub fn cache_energies(shape: CacheShape, tech: Technology) -> CacheEnergies {
    let ref_tech = Technology::frv_0130();
    let v_scale = (tech.vdd / ref_tech.vdd).powi(2) * tech.scale_from_130();
    let rows = f64::from(shape.sets);
    let way_bits = f64::from(shape.way_read_bits());
    let tag_bits = f64::from(shape.tag_read_bits());
    let array = |bits: f64| -> f64 {
        (rows * bits * E_BITLINE_PER_ROW_BIT + bits * E_SENSE_PER_BIT + E_DECODE) * v_scale
    };
    CacheEnergies {
        way_nj: array(way_bits),
        tag_nj: array(tag_bits),
        buffer_probe_nj: (tag_bits + way_bits / 8.0) * E_BUF_BIT * v_scale,
    }
}

/// Activation counts over a run, paired with the cycle count that defines
/// elapsed time at the technology's clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnergyCounts {
    /// Data-way activations (reads + store writes + fill writes).
    pub way_reads: u64,
    /// Tag-array activations.
    pub tag_reads: u64,
    /// Auxiliary buffer probes (set buffer / line buffer), if any.
    pub buffer_probes: u64,
    /// MAB probes (for utilization), if any.
    pub mab_lookups: u64,
    /// Elapsed cycles (instructions at CPI 1).
    pub cycles: u64,
}

/// Average power decomposition of one cache under one scheme, mW — the
/// stacked bars of Figures 5 and 7.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Data-way array power, mW.
    pub data_mw: f64,
    /// Tag array power, mW.
    pub tag_mw: f64,
    /// MAB power (zero for schemes without a MAB), mW.
    pub mab_mw: f64,
    /// Auxiliary buffer power (set/line buffer schemes), mW.
    pub buffer_mw: f64,
}

impl PowerBreakdown {
    /// Total power, mW.
    #[must_use]
    pub fn total_mw(&self) -> f64 {
        self.data_mw + self.tag_mw + self.mab_mw + self.buffer_mw
    }

    /// Applies Eq. (1): converts activation counts into average power at
    /// the technology's operating clock. `mab` supplies the MAB's
    /// active/sleep power when the scheme has one; its utilization is
    /// `mab_lookups / cycles`.
    ///
    /// Returns an all-zero breakdown when `counts.cycles` is zero.
    #[must_use]
    pub fn from_counts(
        counts: EnergyCounts,
        energies: CacheEnergies,
        mab: Option<MabPower>,
        tech: Technology,
    ) -> Self {
        if counts.cycles == 0 {
            return Self::default();
        }
        let seconds = counts.cycles as f64 / tech.freq_hz;
        // nJ / s = nW; divide by 1e6 for mW.
        let to_mw = |nj: f64| nj / seconds / 1.0e6;
        let utilization = (counts.mab_lookups as f64 / counts.cycles as f64).min(1.0);
        Self {
            data_mw: to_mw(counts.way_reads as f64 * energies.way_nj),
            tag_mw: to_mw(counts.tag_reads as f64 * energies.tag_nj),
            mab_mw: mab.map_or(0.0, |p| p.at_utilization(utilization)),
            buffer_mw: to_mw(counts.buffer_probes as f64 * energies.buffer_probe_nj),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mab_power_mw, MabShape};

    #[test]
    fn frv_energies_in_expected_range() {
        let e = cache_energies(CacheShape::frv(), Technology::frv_0130());
        assert!(
            (0.10..0.25).contains(&e.way_nj),
            "way energy {:.3} nJ",
            e.way_nj
        );
        assert!(
            (0.010..0.035).contains(&e.tag_nj),
            "tag energy {:.4} nJ",
            e.tag_nj
        );
        assert!(e.buffer_probe_nj < 0.1 * e.tag_nj * 10.0);
        assert!(e.buffer_probe_nj < e.tag_nj);
    }

    #[test]
    fn original_dcache_power_lands_near_figure5() {
        // Figure 5's "original" bars sit around 20-35 mW. Compose Eq. (1)
        // with representative counts: 100M cycles, ~28% D-accesses,
        // 2 tags + ~1.7 ways per access.
        let e = cache_energies(CacheShape::frv(), Technology::frv_0130());
        let accesses = 28_000_000u64;
        let counts = EnergyCounts {
            way_reads: (accesses as f64 * 1.7) as u64,
            tag_reads: accesses * 2,
            buffer_probes: 0,
            mab_lookups: 0,
            cycles: 100_000_000,
        };
        let p = PowerBreakdown::from_counts(counts, e, None, Technology::frv_0130());
        assert!(
            (15.0..45.0).contains(&p.total_mw()),
            "original D-cache ≈ 25-35 mW, got {:.1}",
            p.total_mw()
        );
        assert!(p.data_mw > p.tag_mw, "way energy dominates");
    }

    #[test]
    fn eq1_composes_mab_power() {
        let e = cache_energies(CacheShape::frv(), Technology::frv_0130());
        let mab = mab_power_mw(MabShape::frv(2, 8), Technology::frv_0130());
        let counts = EnergyCounts {
            way_reads: 30_000_000,
            tag_reads: 5_000_000,
            buffer_probes: 0,
            mab_lookups: 28_000_000,
            cycles: 100_000_000,
        };
        let p = PowerBreakdown::from_counts(counts, e, Some(mab), Technology::frv_0130());
        let util = 0.28;
        let expect_mab = mab.active_mw * util + mab.sleep_mw * (1.0 - util);
        assert!((p.mab_mw - expect_mab).abs() < 1e-9);
        assert!(p.total_mw() > p.data_mw);
    }

    #[test]
    fn zero_cycles_yields_zero_power() {
        let e = cache_energies(CacheShape::frv(), Technology::frv_0130());
        let p = PowerBreakdown::from_counts(
            EnergyCounts::default(),
            e,
            None,
            Technology::frv_0130(),
        );
        assert_eq!(p.total_mw(), 0.0);
    }

    #[test]
    fn buffer_probe_energy_much_cheaper_than_arrays() {
        // The whole premise of set/line buffers and the MAB: a handful of
        // register bits cost far less than an SRAM array activation.
        let e = cache_energies(CacheShape::frv(), Technology::frv_0130());
        assert!(e.buffer_probe_nj * 10.0 < e.way_nj);
    }
}
