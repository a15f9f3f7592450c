//! Property-based tests for the frv-lite ISA: encoding totality,
//! display/parse agreement, and interpreter robustness under random
//! programs.

use proptest::prelude::*;
use waymem_isa::{
    assemble, AluImmOp, AluOp, BranchCond, Cpu, CpuError, Inst, MemWidth, NullSink, Program,
    RecordingSink, Reg, RunOutcome, TEXT_BASE,
};

fn regs() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).expect("in range"))
}

fn alu_ops() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Mul),
        Just(AluOp::Mulhu),
        Just(AluOp::Div),
        Just(AluOp::Rem),
    ]
}

fn alu_imm_ops() -> impl Strategy<Value = AluImmOp> {
    prop_oneof![
        Just(AluImmOp::Addi),
        Just(AluImmOp::Andi),
        Just(AluImmOp::Ori),
        Just(AluImmOp::Xori),
        Just(AluImmOp::Slti),
        Just(AluImmOp::Slli),
        Just(AluImmOp::Srli),
        Just(AluImmOp::Srai),
    ]
}

fn insts() -> impl Strategy<Value = Inst> {
    prop_oneof![
        (alu_ops(), regs(), regs(), regs())
            .prop_map(|(op, rd, rs1, rs2)| Inst::Alu { op, rd, rs1, rs2 }),
        (alu_imm_ops(), regs(), regs(), any::<i16>())
            .prop_map(|(op, rd, rs1, imm)| Inst::AluImm { op, rd, rs1, imm }),
        (regs(), any::<u16>()).prop_map(|(rd, imm)| Inst::Lui { rd, imm }),
        (regs(), regs(), any::<i16>(), any::<bool>(), 0u8..3).prop_map(
            |(rd, rs1, imm, signed, w)| Inst::Load {
                width: [MemWidth::Byte, MemWidth::Half, MemWidth::Word][w as usize],
                signed: w == 2 || signed,
                rd,
                rs1,
                imm,
            }
        ),
        (regs(), regs(), any::<i16>(), 0u8..3).prop_map(|(rs2, rs1, imm, w)| Inst::Store {
            width: [MemWidth::Byte, MemWidth::Half, MemWidth::Word][w as usize],
            rs2,
            rs1,
            imm,
        }),
        (regs(), regs(), any::<i16>(), 0u8..6).prop_map(|(rs1, rs2, offset, c)| {
            Inst::Branch {
                cond: [
                    BranchCond::Eq,
                    BranchCond::Ne,
                    BranchCond::Lt,
                    BranchCond::Ge,
                    BranchCond::Ltu,
                    BranchCond::Geu,
                ][c as usize],
                rs1,
                rs2,
                offset,
            }
        }),
        (regs(), any::<i16>()).prop_map(|(rd, offset)| Inst::Jal { rd, offset }),
        (regs(), regs(), any::<i16>()).prop_map(|(rd, rs1, imm)| Inst::Jalr { rd, rs1, imm }),
        Just(Inst::Halt),
    ]
}

/// Register x5 holds the program's own text base; x6–x10 hold the words
/// the program stores into its text; x31 counts loop iterations.
const TEXT_PTR: u8 = 5;
const LOOP_REG: u8 = 31;

fn reg(index: u8) -> Reg {
    Reg::new(index).expect("in range")
}

/// An aligned store of one of x6–x10 into one of the first 64 text
/// words, at any width and any aligned offset inside the word.
fn text_stores() -> impl Strategy<Value = Inst> {
    (6u8..11, 0i16..64, 0u8..3, 0i16..4).prop_map(|(rs2, word, w, sub)| {
        let (width, sub) = match w {
            0 => (MemWidth::Byte, sub),
            1 => (MemWidth::Half, sub & 2),
            _ => (MemWidth::Word, 0),
        };
        Inst::Store {
            width,
            rs2: reg(rs2),
            rs1: reg(TEXT_PTR),
            imm: word * 4 + sub,
        }
    })
}

/// Straight-line instructions for a self-modifying loop body: ALU work
/// on x6–x30 and stores into the program's own text.
fn self_modifying_body() -> impl Strategy<Value = Inst> {
    let body_rd = || (6u8..LOOP_REG).prop_map(reg);
    prop_oneof![
        (alu_ops(), body_rd(), regs(), regs()).prop_map(|(op, rd, rs1, rs2)| Inst::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (alu_imm_ops(), body_rd(), regs(), any::<i16>())
            .prop_map(|(op, rd, rs1, imm)| Inst::AluImm { op, rd, rs1, imm }),
        text_stores(),
        text_stores(),
    ]
}

/// `lui` + `ori` loading `value` into `rd`.
fn load_const(rd: Reg, value: u32) -> [Inst; 2] {
    [
        Inst::Lui {
            rd,
            imm: (value >> 16) as u16,
        },
        Inst::AluImm {
            op: AluImmOp::Ori,
            rd,
            rs1: rd,
            imm: value as u16 as i16,
        },
    ]
}

/// Runs `cpu` for `budget` steps the slow way: the predecoded table is
/// dropped before every step, so every fetch reads and decodes memory.
fn run_rereading_memory(
    cpu: &mut Cpu,
    budget: u64,
    sink: &mut RecordingSink,
) -> Result<RunOutcome, CpuError> {
    for steps in 0..budget {
        cpu.mem_mut();
        if !cpu.step(sink)? {
            return Ok(RunOutcome::Halted { steps });
        }
    }
    Ok(RunOutcome::StepLimit { steps: budget })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Executing from the predecoded text table is indistinguishable from
    /// reading and decoding memory at every fetch, also for programs that
    /// store (legal or illegal words) into their own text. Each program
    /// runs its body twice, so the second pass executes what the first
    /// one stored.
    #[test]
    fn predecoded_run_matches_a_run_that_rereads_memory(
        payload in prop::collection::vec(insts(), 4),
        junk: u32,
        body in prop::collection::vec(self_modifying_body(), 1..40),
    ) {
        let mut insts = vec![Inst::Lui { rd: reg(TEXT_PTR), imm: (TEXT_BASE >> 16) as u16 }];
        for (i, inst) in payload.iter().enumerate() {
            insts.extend(load_const(reg(6 + i as u8), inst.encode()));
        }
        insts.extend(load_const(reg(10), junk));
        insts.push(Inst::AluImm { op: AluImmOp::Addi, rd: reg(LOOP_REG), rs1: Reg::ZERO, imm: 2 });
        let top = insts.len();
        insts.extend(body);
        insts.push(Inst::AluImm { op: AluImmOp::Addi, rd: reg(LOOP_REG), rs1: reg(LOOP_REG), imm: -1 });
        let back = (top as i16 - insts.len() as i16) * 4;
        insts.push(Inst::Branch { cond: BranchCond::Ne, rs1: reg(LOOP_REG), rs2: Reg::ZERO, offset: back });
        insts.push(Inst::Halt);
        let prog = Program::from_insts(&insts);

        let mut fast = Cpu::new(&prog);
        let mut fast_sink = RecordingSink::default();
        let fast_out = fast.run(2_000, &mut fast_sink);
        let mut slow = Cpu::new(&prog);
        let mut slow_sink = RecordingSink::default();
        let slow_out = run_rereading_memory(&mut slow, 2_000, &mut slow_sink);

        prop_assert_eq!(fast_out, slow_out);
        prop_assert_eq!(&fast_sink.events, &slow_sink.events);
        prop_assert_eq!((fast.pc(), fast.instret()), (slow.pc(), slow.instret()));
        for i in 0..32 {
            prop_assert_eq!(fast.reg(i), slow.reg(i), "register x{}", i);
        }
    }
}

proptest! {
    /// Every constructible instruction encodes and decodes losslessly.
    #[test]
    fn encode_decode_round_trip(inst in insts()) {
        prop_assert_eq!(Inst::decode(inst.encode()), Some(inst));
    }

    /// Decoding is total and never panics; decodable words re-encode to a
    /// word that decodes to the same instruction (canonicalization).
    #[test]
    fn decode_is_total_and_stable(word: u32) {
        if let Some(inst) = Inst::decode(word) {
            prop_assert_eq!(Inst::decode(inst.encode()), Some(inst));
        }
    }

    /// Non-control, non-memory instructions survive a display → assemble
    /// round trip (the disassembler speaks the assembler's syntax).
    #[test]
    fn display_reassembles(inst in insts()) {
        let reparseable = matches!(
            inst,
            Inst::Alu { .. } | Inst::AluImm { .. } | Inst::Load { .. } | Inst::Store { .. }
        );
        prop_assume!(reparseable);
        let src = format!(".text\nmain: {inst}\n");
        let prog = assemble(&src).expect("disassembly must be valid assembly");
        prop_assert_eq!(Inst::decode(prog.text()[0]), Some(inst));
    }

    /// The CPU never panics on random (even illegal) programs: it either
    /// halts, faults cleanly, or runs out of budget; and register 0 stays
    /// zero throughout.
    #[test]
    fn cpu_is_total_on_random_words(words in prop::collection::vec(any::<u32>(), 1..64)) {
        let prog = Program::from_parts(
            waymem_isa::TEXT_BASE,
            words,
            waymem_isa::DATA_BASE,
            vec![],
            waymem_isa::TEXT_BASE,
            Default::default(),
        );
        let mut cpu = Cpu::new(&prog);
        let _ = cpu.run(10_000, &mut NullSink);
        prop_assert_eq!(cpu.reg(0), 0);
    }

    /// Structured random ALU programs terminate with the same results as
    /// a direct Rust evaluation of the same operation sequence.
    #[test]
    fn alu_programs_match_reference(
        ops in prop::collection::vec((alu_ops(), 1u8..8, 1u8..8, 1u8..8), 1..40),
        seeds in prop::collection::vec(any::<u32>(), 8),
    ) {
        // Build: load seeds into x1..x8, run the op list, halt.
        let mut insts: Vec<Inst> = Vec::new();
        for (i, &seed) in seeds.iter().enumerate() {
            let rd = Reg::new(i as u8 + 1).unwrap();
            insts.push(Inst::Lui { rd, imm: (seed >> 16) as u16 });
            insts.push(Inst::AluImm {
                op: AluImmOp::Ori,
                rd,
                rs1: rd,
                imm: (seed & 0xffff) as u16 as i16,
            });
        }
        for &(op, rd, rs1, rs2) in &ops {
            insts.push(Inst::Alu {
                op,
                rd: Reg::new(rd).unwrap(),
                rs1: Reg::new(rs1).unwrap(),
                rs2: Reg::new(rs2).unwrap(),
            });
        }
        insts.push(Inst::Halt);
        let prog = Program::from_insts(&insts);
        let mut cpu = Cpu::new(&prog);
        let out = cpu.run(1000, &mut NullSink).expect("no faults");
        prop_assert!(out.halted());

        // Reference evaluation.
        let mut regs = [0u32; 9];
        regs[1..9].copy_from_slice(&seeds[..8]);
        for &(op, rd, rs1, rs2) in &ops {
            let (a, b) = (regs[rs1 as usize], regs[rs2 as usize]);
            regs[rd as usize] = reference_alu(op, a, b);
        }
        for (i, &want) in regs.iter().enumerate().skip(1) {
            prop_assert_eq!(cpu.reg(i), want, "register x{}", i);
        }
    }
}

fn reference_alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a.wrapping_shl(b & 31),
        AluOp::Srl => a.wrapping_shr(b & 31),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 31)) as u32,
        AluOp::Slt => u32::from((a as i32) < (b as i32)),
        AluOp::Sltu => u32::from(a < b),
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Mulhu => ((u64::from(a) * u64::from(b)) >> 32) as u32,
        AluOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32).wrapping_div(b as i32)) as u32
            }
        }
        AluOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32).wrapping_rem(b as i32)) as u32
            }
        }
    }
}
