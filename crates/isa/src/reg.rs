use std::fmt;
use std::str::FromStr;

/// One of the 32 general-purpose registers of frv-lite.
///
/// Register 0 is hard-wired to zero; register 1 is the link register (`ra`)
/// used by `call`/`ret`, which the I-MAB treats as its "link target" input
/// source. The ABI names follow the familiar RISC convention so the
/// assembly kernels read naturally.
///
/// ```
/// use waymem_isa::Reg;
///
/// assert_eq!("ra".parse::<Reg>().unwrap(), Reg::RA);
/// assert_eq!("x7".parse::<Reg>().unwrap().index(), 7);
/// assert_eq!(Reg::new(10).unwrap().to_string(), "a0");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(u8);

impl Reg {
    /// The hard-wired zero register.
    pub const ZERO: Reg = Reg(0);
    /// The link (return address) register.
    pub const RA: Reg = Reg(1);
    /// The stack pointer.
    pub const SP: Reg = Reg(2);

    /// Creates a register from its index.
    #[must_use]
    pub fn new(index: u8) -> Option<Self> {
        (index < 32).then_some(Reg(index))
    }

    /// The register index, 0–31.
    #[must_use]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }
}

const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(ABI_NAMES[self.index()])
    }
}

/// Error parsing a register name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError(pub(crate) String);

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.0)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(pos) = ABI_NAMES.iter().position(|&n| n == s) {
            return Ok(Reg(pos as u8));
        }
        if let Some(num) = s.strip_prefix('x') {
            if let Ok(i) = num.parse::<u8>() {
                if i < 32 {
                    return Ok(Reg(i));
                }
            }
        }
        // s0 is also known as fp.
        if s == "fp" {
            return Ok(Reg(8));
        }
        Err(ParseRegError(s.to_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_round_trip() {
        for i in 0..32u8 {
            let r = Reg::new(i).unwrap();
            let name = r.to_string();
            assert_eq!(name.parse::<Reg>().unwrap(), r, "{name}");
            assert_eq!(format!("x{i}").parse::<Reg>().unwrap(), r);
        }
    }

    #[test]
    fn fp_aliases_s0() {
        assert_eq!("fp".parse::<Reg>().unwrap().index(), 8);
        assert_eq!("s0".parse::<Reg>().unwrap().index(), 8);
    }

    #[test]
    fn out_of_range_rejected() {
        assert!("x32".parse::<Reg>().is_err());
        assert!("q1".parse::<Reg>().is_err());
        assert!(Reg::new(32).is_none());
    }

    #[test]
    fn well_known_registers() {
        assert_eq!(Reg::ZERO.index(), 0);
        assert_eq!(Reg::RA.index(), 1);
        assert_eq!(Reg::SP.index(), 2);
        assert_eq!(Reg::ZERO.to_string(), "zero");
    }
}
