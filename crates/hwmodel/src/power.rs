//! MAB power model, calibrated against the paper's Table 3 (NanoSim on the
//! synthesized netlists, 0.13 µm / 1.3 V / 360 MHz, with clock gating).

use crate::{MabShape, Technology};

/// Active and clock-gated ("sleep") power of a MAB.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MabPower {
    /// Power while the MAB is being probed every cycle, mW.
    pub active_mw: f64,
    /// Power while clock-gated (leakage + gating overhead), mW.
    pub sleep_mw: f64,
}

impl MabPower {
    /// Effective power at a given utilization (fraction of cycles with a
    /// MAB probe): linear blend of active and sleep power, which is how a
    /// clock-gated block's average power composes.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `[0, 1]`.
    #[must_use]
    pub fn at_utilization(&self, utilization: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&utilization),
            "utilization {utilization} outside [0, 1]"
        );
        self.active_mw * utilization + self.sleep_mw * (1.0 - utilization)
    }
}

/// Fixed block power: clock root, control FSM, the narrow adder — present
/// in every configuration, mW.
const P_BASE: f64 = 1.379;
/// Active power per storage/comparator bit, mW (clock + data toggling).
const P_BIT: f64 = 0.008_86;
/// Selection-network active power per entry³, mW (same superlinear term
/// as the area model — bigger entry arrays toggle longer select wires).
const P_SELECT: f64 = 6.7e-5;
/// Leakage per bit, mW.
const P_LEAK_BIT: f64 = 0.003_5;
/// Leakage of the selection network per entry³, mW.
const P_LEAK_SELECT: f64 = 1.0e-5;

/// MAB power per the fitted Table 3 model.
///
/// ```
/// use waymem_hwmodel::{mab_power_mw, MabPower, MabShape, Technology};
///
/// let p = mab_power_mw(MabShape::frv(2, 8), Technology::frv_0130());
/// assert!(p.active_mw > p.sleep_mw);
/// assert!((2.0..4.0).contains(&p.active_mw)); // paper: 3.07 mW
/// ```
#[must_use]
pub fn mab_power_mw(shape: MabShape, tech: Technology) -> MabPower {
    // Dynamic power scales with V² f; leakage roughly with V and area.
    let ref_tech = Technology::frv_0130();
    let dyn_scale = (tech.vdd / ref_tech.vdd).powi(2) * (tech.freq_hz / ref_tech.freq_hz);
    let leak_scale = (tech.vdd / ref_tech.vdd) * tech.scale_from_130().powi(2);

    let bits = f64::from(shape.total_bits());
    let select = f64::from(shape.tag_entries).powi(3) + f64::from(shape.set_entries).powi(3);
    let active = (P_BASE + P_BIT * bits + P_SELECT * select) * dyn_scale;
    let sleep = (P_LEAK_BIT * bits + P_LEAK_SELECT * select) * leak_scale;
    MabPower {
        active_mw: active,
        sleep_mw: sleep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Paper Table 3, mW: rows N_t ∈ {1, 2}; per cell (active, sleep);
    /// columns N_s ∈ {4, 8, 16, 32}.
    const TABLE3: [[(f64, f64); 4]; 2] = [
        [(1.95, 0.24), (2.37, 0.40), (3.39, 0.76), (6.25, 1.37)],
        [(2.34, 0.40), (3.07, 0.68), (4.56, 1.28), (7.93, 2.26)],
    ];

    #[test]
    fn table3_reproduced_within_tolerance() {
        let tech = Technology::frv_0130();
        for (r, &nt) in [1u32, 2].iter().enumerate() {
            for (c, &ns) in [4u32, 8, 16, 32].iter().enumerate() {
                let model = mab_power_mw(MabShape::frv(nt, ns), tech);
                let (active, sleep) = TABLE3[r][c];
                let rel_a = (model.active_mw - active).abs() / active;
                let rel_s = (model.sleep_mw - sleep).abs() / sleep;
                assert!(
                    rel_a < 0.20,
                    "active({nt}x{ns}) = {:.2} vs paper {active:.2}",
                    model.active_mw
                );
                assert!(
                    rel_s < 0.30,
                    "sleep({nt}x{ns}) = {:.2} vs paper {sleep:.2}",
                    model.sleep_mw
                );
            }
        }
    }

    #[test]
    fn sleep_power_is_small_fraction_of_active() {
        // "Since we used clock gating in our circuits, the power
        // consumptions were very small when the circuits were not used."
        let tech = Technology::frv_0130();
        for nt in [1u32, 2] {
            for ns in [4u32, 8, 16, 32] {
                let p = mab_power_mw(MabShape::frv(nt, ns), tech);
                assert!(p.sleep_mw < 0.35 * p.active_mw, "{nt}x{ns}");
            }
        }
    }

    #[test]
    fn utilization_blends_linearly() {
        let p = MabPower {
            active_mw: 3.0,
            sleep_mw: 1.0,
        };
        assert!((p.at_utilization(0.0) - 1.0).abs() < 1e-12);
        assert!((p.at_utilization(1.0) - 3.0).abs() < 1e-12);
        assert!((p.at_utilization(0.5) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_utilization_panics() {
        let p = mab_power_mw(MabShape::frv(2, 8), Technology::frv_0130());
        let _ = p.at_utilization(1.5);
    }

    #[test]
    fn power_scales_with_frequency() {
        let slow = Technology {
            freq_hz: 180.0e6,
            ..Technology::frv_0130()
        };
        let p_full = mab_power_mw(MabShape::frv(2, 8), Technology::frv_0130());
        let p_half = mab_power_mw(MabShape::frv(2, 8), slow);
        assert!((p_half.active_mw / p_full.active_mw - 0.5).abs() < 1e-9);
        assert!((p_half.sleep_mw - p_full.sleep_mw).abs() < 1e-9, "leakage unaffected");
    }
}
