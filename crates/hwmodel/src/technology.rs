/// Process / operating-point parameters.
///
/// The paper's platform is a Fujitsu 0.13 µm CMOS process at 1.3 V with a
/// 360 MHz operating clock (the FR-V family's maximum is 400 MHz, i.e. a
/// 2.5 ns cycle, which Table 2's delays are compared against).
///
/// ```
/// use waymem_hwmodel::Technology;
///
/// let t = Technology::frv_0130();
/// assert_eq!(t.cycle_ns(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Drawn feature size in nanometres.
    pub feature_nm: u32,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Operating clock frequency in hertz.
    pub freq_hz: f64,
    /// Maximum rated clock frequency in hertz (defines the cycle budget
    /// the MAB delay is checked against).
    pub max_freq_hz: f64,
}

impl Technology {
    /// The paper's platform: 0.13 µm, 1.3 V, 360 MHz operating clock,
    /// 400 MHz maximum (2.5 ns cycle).
    #[must_use]
    pub fn frv_0130() -> Self {
        Self {
            feature_nm: 130,
            vdd: 1.3,
            freq_hz: 360.0e6,
            max_freq_hz: 400.0e6,
        }
    }

    /// The CPU cycle time at the *maximum* rated frequency, in ns — the
    /// budget the MAB's critical path must fit inside.
    #[must_use]
    pub fn cycle_ns(&self) -> f64 {
        1.0e9 / self.max_freq_hz
    }

    /// Linear scale factor of this node relative to the calibrated
    /// 0.13 µm node (used to scale fitted area/delay/energy constants for
    /// what-if runs at other nodes).
    #[must_use]
    pub fn scale_from_130(&self) -> f64 {
        f64::from(self.feature_nm) / 130.0
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::frv_0130()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frv_platform_numbers() {
        let t = Technology::frv_0130();
        assert_eq!(t.feature_nm, 130);
        assert!((t.vdd - 1.3).abs() < 1e-12);
        assert!((t.freq_hz - 360.0e6).abs() < 1.0);
        assert!((t.cycle_ns() - 2.5).abs() < 1e-12);
        assert!((t.scale_from_130() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_is_linear_in_feature_size() {
        let t = Technology {
            feature_nm: 65,
            ..Technology::frv_0130()
        };
        assert!((t.scale_from_130() - 0.5).abs() < 1e-12);
    }
}
