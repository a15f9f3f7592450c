use std::collections::BTreeMap;

use crate::{Inst, MainMemory};

/// Default base address of the text (code) segment.
pub const TEXT_BASE: u32 = 0x0001_0000;
/// Default base address of the data segment.
pub const DATA_BASE: u32 = 0x0004_0000;
/// Initial stack pointer (stack grows down).
pub const STACK_TOP: u32 = 0x000f_ff00;

/// An assembled frv-lite program: encoded text, initialized data, the entry
/// point and the symbol table.
///
/// ```
/// use waymem_isa::{assemble, TEXT_BASE};
///
/// # fn main() -> Result<(), waymem_isa::AsmError> {
/// let prog = assemble(".text\nmain: halt\n");
/// let prog = prog?;
/// assert_eq!(prog.entry(), TEXT_BASE);
/// assert_eq!(prog.symbol("main"), Some(TEXT_BASE));
/// assert_eq!(prog.text().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    text_base: u32,
    text: Vec<u32>,
    data_base: u32,
    data: Vec<u8>,
    entry: u32,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// Assembles the pieces into a program. Intended for the assembler and
    /// for tests that build programs from [`Inst`] lists directly.
    #[must_use]
    pub fn from_parts(
        text_base: u32,
        text: Vec<u32>,
        data_base: u32,
        data: Vec<u8>,
        entry: u32,
        symbols: BTreeMap<String, u32>,
    ) -> Self {
        Self {
            text_base,
            text,
            data_base,
            data,
            entry,
            symbols,
        }
    }

    /// Builds a minimal program from decoded instructions at
    /// [`TEXT_BASE`], entering at the first one. Handy in unit tests.
    #[must_use]
    pub fn from_insts(insts: &[Inst]) -> Self {
        Self::from_parts(
            TEXT_BASE,
            insts.iter().map(|i| i.encode()).collect(),
            DATA_BASE,
            Vec::new(),
            TEXT_BASE,
            BTreeMap::new(),
        )
    }

    /// Base address of the text segment.
    #[must_use]
    pub fn text_base(&self) -> u32 {
        self.text_base
    }

    /// Encoded instruction words.
    #[must_use]
    pub fn text(&self) -> &[u32] {
        &self.text
    }

    /// Base address of the data segment.
    #[must_use]
    pub fn data_base(&self) -> u32 {
        self.data_base
    }

    /// Initialized data bytes.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Entry point (address of `main` when defined, else the text base).
    #[must_use]
    pub fn entry(&self) -> u32 {
        self.entry
    }

    /// Looks up a label's address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// All symbols, sorted by name.
    #[must_use]
    pub fn symbols(&self) -> &BTreeMap<String, u32> {
        &self.symbols
    }

    /// Size of the text segment in bytes.
    #[must_use]
    pub fn text_bytes(&self) -> u32 {
        (self.text.len() * 4) as u32
    }

    /// Loads text and data into `mem` at their base addresses.
    pub fn load_into(&self, mem: &mut MainMemory) {
        for (i, &word) in self.text.iter().enumerate() {
            mem.write_u32(self.text_base.wrapping_add((i * 4) as u32), word);
        }
        mem.load_image(self.data_base, &self.data);
    }

    /// Disassembles the text segment as `(address, instruction-or-word)`
    /// lines, for debugging workloads.
    #[must_use]
    pub fn disassemble(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let by_addr: BTreeMap<u32, &str> = self
            .symbols
            .iter()
            .map(|(name, &addr)| (addr, name.as_str()))
            .collect();
        for (i, &word) in self.text.iter().enumerate() {
            let addr = self.text_base + (i * 4) as u32;
            if let Some(name) = by_addr.get(&addr) {
                let _ = writeln!(out, "{name}:");
            }
            match Inst::decode(word) {
                Some(inst) => {
                    let _ = writeln!(out, "  {addr:#010x}: {inst}");
                }
                None => {
                    let _ = writeln!(out, "  {addr:#010x}: .word {word:#010x}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reg;

    #[test]
    fn from_insts_round_trips_through_memory() {
        let prog = Program::from_insts(&[
            Inst::AluImm {
                op: crate::AluImmOp::Addi,
                rd: Reg::new(5).unwrap(),
                rs1: Reg::ZERO,
                imm: 42,
            },
            Inst::Halt,
        ]);
        let mut mem = MainMemory::new();
        prog.load_into(&mut mem);
        let w0 = mem.read_u32(TEXT_BASE);
        assert!(matches!(
            Inst::decode(w0),
            Some(Inst::AluImm { imm: 42, .. })
        ));
        assert_eq!(Inst::decode(mem.read_u32(TEXT_BASE + 4)), Some(Inst::Halt));
    }

    #[test]
    fn disassembly_contains_labels_and_mnemonics() {
        let mut symbols = BTreeMap::new();
        symbols.insert("main".to_owned(), TEXT_BASE);
        let prog = Program::from_parts(
            TEXT_BASE,
            vec![Inst::Halt.encode(), 0],
            DATA_BASE,
            vec![],
            TEXT_BASE,
            symbols,
        );
        let dis = prog.disassemble();
        assert!(dis.contains("main:"));
        assert!(dis.contains("halt"));
        assert!(dis.contains(".word"));
    }

    #[test]
    fn data_lands_at_data_base() {
        let prog = Program::from_parts(
            TEXT_BASE,
            vec![],
            DATA_BASE,
            vec![1, 2, 3],
            TEXT_BASE,
            BTreeMap::new(),
        );
        let mut mem = MainMemory::new();
        prog.load_into(&mut mem);
        assert_eq!(mem.read_u8(DATA_BASE + 2), 3);
        assert_eq!(prog.text_bytes(), 0);
    }
}
