//! A single-cycle RV32I-subset core, plus its ISA-level golden model.
//!
//! Used by the `riscv_core` example and the cross-simulator integration
//! tests: a real (if small) CPU whose architectural state can be checked
//! instruction-by-instruction against a software model. Supported
//! instructions: `LUI`, `ADDI/ANDI/ORI/XORI/SLTI/SLTIU/SLLI/SRLI`,
//! `ADD/SUB/AND/OR/XOR/SLT/SLTU/SLL/SRL`, `BEQ/BNE/BLT/BGE`, `JAL`,
//! `LW/SW` against a small data memory, and program memory preloaded at
//! construction.

use crate::blocks::{decoder, mux_tree};
use rteaal_firrtl::ast::{Circuit, Expr};
use rteaal_firrtl::builder::{CircuitBuilder, ModuleBuilder};
use rteaal_firrtl::ops::PrimOp;
use rteaal_firrtl::ty::Type;

/// Number of architectural registers modeled (x0..x15; the assembler
/// below only uses these).
pub const NUM_REGS: usize = 16;
/// Instruction-memory depth (words).
pub const IMEM_WORDS: usize = 64;
/// Data-memory depth (words).
pub const DMEM_WORDS: usize = 32;

/// Builds the core with `program` preloaded into instruction memory.
///
/// Outputs: `pc` (current program counter, word-addressed), `x10`
/// (the RISC-V a0 return register), and `halt` (PC stuck on a
/// self-jump).
pub fn rv32i(program: &[u32]) -> Circuit {
    assert!(program.len() <= IMEM_WORDS, "program too large");
    let mut b = ModuleBuilder::new("Rv32i");
    let clock = b.input("clock", Type::Clock);
    let reset = b.input("reset", Type::uint(1));

    // Program counter (word-addressed to keep the mux trees small).
    let pc = b.reg_reset(
        "pc",
        Type::uint(6),
        clock.clone(),
        reset.clone(),
        Expr::u(0, 6),
    );

    // Instruction fetch: a ROM as a mux tree over the PC.
    let rom: Vec<Expr> = (0..IMEM_WORDS)
        .map(|i| Expr::u(*program.get(i).unwrap_or(&0x0000_0013) as u64, 32)) // default NOP
        .collect();
    let instr = mux_tree(&mut b, &pc.clone(), &rom, 6);
    let instr = b.node("instr", instr);

    // Decode fields.
    let f = |hi: u64, lo: u64| Expr::prim_p(PrimOp::Bits, vec![instr.clone()], vec![hi, lo]);
    let opcode = b.node("opcode", f(6, 0));
    let rd = b.node("rd", f(10, 7)); // 4-bit register file
    let funct3 = b.node("funct3", f(14, 12));
    let rs1i = b.node("rs1i", f(18, 15));
    let rs2i = b.node("rs2i", f(23, 20));
    let funct7b5 = b.node("funct7b5", f(30, 30));
    // Immediates (sign-extended to 32 bits).
    let imm_i = b.node(
        "imm_i",
        Expr::prim_p(
            PrimOp::AsUInt,
            vec![Expr::prim_p(
                PrimOp::Pad,
                vec![Expr::prim_p(PrimOp::AsSInt, vec![f(31, 20)], vec![])],
                vec![32],
            )],
            vec![],
        ),
    );
    let imm_s_raw = Expr::prim(PrimOp::Cat, vec![f(31, 25), f(11, 7)]);
    let imm_s = b.node(
        "imm_s",
        Expr::prim_p(
            PrimOp::AsUInt,
            vec![Expr::prim_p(
                PrimOp::Pad,
                vec![Expr::prim_p(PrimOp::AsSInt, vec![imm_s_raw], vec![])],
                vec![32],
            )],
            vec![],
        ),
    );
    let imm_u = b.node(
        "imm_u",
        Expr::prim_p(PrimOp::Shl, vec![f(31, 12)], vec![12]),
    );

    // Register file: explicit registers with mux-tree reads (x0 = 0).
    let mut regs = vec![Expr::u(0, 32)];
    for i in 1..NUM_REGS {
        regs.push(b.reg(format!("x{i}"), Type::uint(32), clock.clone()));
    }
    let rs1_tree = mux_tree(&mut b, &rs1i, &regs, 4);
    let rs1 = b.node("rs1", rs1_tree);
    let rs2_tree = mux_tree(&mut b, &rs2i, &regs, 4);
    let rs2 = b.node("rs2", rs2_tree);

    // Opcode classes.
    let is = |v: u64| Expr::prim(PrimOp::Eq, vec![opcode.clone(), Expr::u(v, 7)]);
    let op_imm = b.node("op_imm", is(0x13));
    let op_reg = b.node("op_reg", is(0x33));
    let op_lui = b.node("op_lui", is(0x37));
    let op_br = b.node("op_br", is(0x63));
    let op_jal = b.node("op_jal", is(0x6f));
    let op_lw = b.node("op_lw", is(0x03));
    let op_sw = b.node("op_sw", is(0x23));

    // ALU operand B: immediates for OP-IMM/LW (I-type) and SW (S-type),
    // rs2 for register-register ops.
    let use_imm_i = b.node(
        "use_imm_i",
        Expr::prim(PrimOp::Or, vec![op_imm.clone(), op_lw.clone()]),
    );
    let alu_b = b.node(
        "alu_b",
        Expr::mux(
            op_sw.clone(),
            imm_s.clone(),
            Expr::mux(use_imm_i, imm_i.clone(), rs2.clone()),
        ),
    );
    let sum = b.node(
        "sum",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Add, vec![rs1.clone(), alu_b.clone()])],
            vec![1],
        ),
    );
    let diff = b.node(
        "diff",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Sub, vec![rs1.clone(), alu_b.clone()])],
            vec![1],
        ),
    );
    let and = b.binop(PrimOp::And, rs1.clone(), alu_b.clone());
    let or = b.binop(PrimOp::Or, rs1.clone(), alu_b.clone());
    let xor = b.binop(PrimOp::Xor, rs1.clone(), alu_b.clone());
    let sltu = b.node_fresh(
        "sltu",
        Expr::prim_p(
            PrimOp::Pad,
            vec![Expr::prim(PrimOp::Lt, vec![rs1.clone(), alu_b.clone()])],
            vec![32],
        ),
    );
    let slt = {
        let s1 = Expr::prim_p(PrimOp::AsSInt, vec![rs1.clone()], vec![]);
        let s2 = Expr::prim_p(PrimOp::AsSInt, vec![alu_b.clone()], vec![]);
        b.node_fresh(
            "slt",
            Expr::prim_p(
                PrimOp::Pad,
                vec![Expr::prim(PrimOp::Lt, vec![s1, s2])],
                vec![32],
            ),
        )
    };
    let shamt = b.node(
        "shamt",
        Expr::prim_p(PrimOp::Bits, vec![alu_b.clone()], vec![4, 0]),
    );
    let sll = b.node(
        "sll",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Dshl, vec![rs1.clone(), shamt.clone()])],
            vec![31],
        ),
    );
    let srl = b.node(
        "srl",
        Expr::prim_p(
            PrimOp::Pad,
            vec![Expr::prim(PrimOp::Dshr, vec![rs1.clone(), shamt])],
            vec![32],
        ),
    );
    // funct3 dispatch: 0 add/sub, 1 sll, 2 slt, 3 sltu, 4 xor, 5 srl,
    // 6 or, 7 and.
    let add_or_sub = b.node(
        "add_or_sub",
        Expr::mux(
            Expr::prim(PrimOp::And, vec![op_reg.clone(), funct7b5.clone()]),
            diff.clone(),
            sum.clone(),
        ),
    );
    let alu_out = mux_tree(
        &mut b,
        &funct3.clone(),
        &[add_or_sub, sll, slt, sltu, xor, srl, or, and],
        3,
    );
    let alu_out = b.node("alu_out", alu_out);

    // Data memory.
    b.mem("dmem", Type::uint(32), DMEM_WORDS, vec![]);
    let word_addr = b.node(
        "word_addr",
        Expr::prim_p(PrimOp::Bits, vec![sum.clone()], vec![6, 2]),
    );
    b.connect("dmem.raddr", word_addr.clone());
    b.connect("dmem.waddr", word_addr);
    b.connect("dmem.wdata", rs2.clone());
    b.connect("dmem.wen", op_sw.clone());

    // Branch/jump resolution.
    let eq = b.binop(PrimOp::Eq, rs1.clone(), rs2.clone());
    let ne = b.unop(PrimOp::Not, eq.clone());
    let lt_s = {
        let s1 = Expr::prim_p(PrimOp::AsSInt, vec![rs1.clone()], vec![]);
        let s2 = Expr::prim_p(PrimOp::AsSInt, vec![rs2.clone()], vec![]);
        b.node_fresh("blt", Expr::prim(PrimOp::Lt, vec![s1, s2]))
    };
    let ge_s = b.unop(PrimOp::Not, lt_s.clone());
    let br_take = mux_tree(
        &mut b,
        &funct3.clone(),
        &[
            eq,
            Expr::prim_p(PrimOp::Bits, vec![ne], vec![0, 0]),
            Expr::u(0, 1),
            Expr::u(0, 1),
            lt_s,
            Expr::prim_p(PrimOp::Bits, vec![ge_s], vec![0, 0]),
            Expr::u(0, 1),
            Expr::u(0, 1),
        ],
        3,
    );
    let br_take = b.node(
        "br_take",
        Expr::prim(PrimOp::And, vec![op_br.clone(), br_take]),
    );
    // Branch offset in *words*, encoded directly in imm[7:1] by the
    // assembler (simplified B-type), sign-extended.
    let br_off_raw = f(11, 8);
    let br_off = b.node(
        "br_off",
        Expr::prim_p(
            PrimOp::AsUInt,
            vec![Expr::prim_p(
                PrimOp::Pad,
                vec![Expr::prim_p(PrimOp::AsSInt, vec![br_off_raw], vec![])],
                vec![6],
            )],
            vec![],
        ),
    );
    let jal_target = b.node("jal_target", f(25, 20)); // absolute word target
    let pc_plus1 = b.node(
        "pc_plus1",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Add, vec![pc.clone(), Expr::u(1, 6)])],
            vec![1],
        ),
    );
    let pc_br = b.node(
        "pc_br",
        Expr::prim_p(
            PrimOp::Tail,
            vec![Expr::prim(PrimOp::Add, vec![pc.clone(), br_off])],
            vec![1],
        ),
    );
    let next_pc = b.node(
        "next_pc",
        Expr::mux(
            op_jal.clone(),
            jal_target,
            Expr::mux(br_take, pc_br, pc_plus1.clone()),
        ),
    );
    b.connect("pc", next_pc);

    // Writeback.
    let wb_val = b.node(
        "wb_val",
        Expr::mux(
            op_lui.clone(),
            imm_u,
            Expr::mux(
                op_lw.clone(),
                Expr::r("dmem.rdata"),
                Expr::mux(
                    op_jal.clone(),
                    Expr::prim_p(PrimOp::Pad, vec![pc_plus1], vec![32]),
                    alu_out,
                ),
            ),
        ),
    );
    let wb_en = b.node(
        "wb_en",
        Expr::prim(
            PrimOp::Or,
            vec![
                Expr::prim(PrimOp::Or, vec![op_imm, op_reg]),
                Expr::prim(
                    PrimOp::Or,
                    vec![op_lui, Expr::prim(PrimOp::Or, vec![op_lw, op_jal.clone()])],
                ),
            ],
        ),
    );
    let onehot = decoder(&mut b, &rd.clone(), NUM_REGS, 4);
    for i in 1..NUM_REGS {
        let we = Expr::prim(PrimOp::And, vec![wb_en.clone(), onehot[i].clone()]);
        b.connect(
            format!("x{i}"),
            Expr::mux(we, wb_val.clone(), regs[i].clone()),
        );
    }
    // Halt detection: JAL to the current PC.
    let halt = b.node(
        "is_halt",
        Expr::prim(
            PrimOp::And,
            vec![
                op_jal,
                Expr::prim(PrimOp::Eq, vec![Expr::r("jal_target"), pc.clone()]),
            ],
        ),
    );
    b.output_expr("pc_out", Type::uint(6), pc);
    b.output_expr("a0", Type::uint(32), regs[10].clone());
    b.output_expr("halt", Type::uint(1), halt);
    let mut cb = CircuitBuilder::new("Rv32i");
    cb.add_module(b.finish());
    cb.finish()
}

/// A tiny assembler for the subset (simplified encodings documented in
/// [`rv32i`]'s decode logic).
pub mod asm {
    /// `addi rd, rs1, imm` (12-bit signed immediate).
    pub fn addi(rd: u32, rs1: u32, imm: i32) -> u32 {
        itype(0x13, rd, 0, rs1, imm)
    }
    /// `slli rd, rs1, shamt`.
    pub fn slli(rd: u32, rs1: u32, shamt: u32) -> u32 {
        itype(0x13, rd, 1, rs1, shamt as i32)
    }
    /// `add rd, rs1, rs2`.
    pub fn add(rd: u32, rs1: u32, rs2: u32) -> u32 {
        rtype(0x33, rd, 0, rs1, rs2, 0)
    }
    /// `sub rd, rs1, rs2`.
    pub fn sub(rd: u32, rs1: u32, rs2: u32) -> u32 {
        rtype(0x33, rd, 0, rs1, rs2, 0x20)
    }
    /// `xor rd, rs1, rs2`.
    pub fn xor(rd: u32, rs1: u32, rs2: u32) -> u32 {
        rtype(0x33, rd, 4, rs1, rs2, 0)
    }
    /// `and rd, rs1, rs2`.
    pub fn and(rd: u32, rs1: u32, rs2: u32) -> u32 {
        rtype(0x33, rd, 7, rs1, rs2, 0)
    }
    /// `or rd, rs1, rs2`.
    pub fn or(rd: u32, rs1: u32, rs2: u32) -> u32 {
        rtype(0x33, rd, 6, rs1, rs2, 0)
    }
    /// `sltu rd, rs1, rs2`.
    pub fn sltu(rd: u32, rs1: u32, rs2: u32) -> u32 {
        rtype(0x33, rd, 3, rs1, rs2, 0)
    }
    /// `lui rd, imm20`.
    pub fn lui(rd: u32, imm20: u32) -> u32 {
        (imm20 << 12) | (rd << 7) | 0x37
    }
    /// `beq rs1, rs2, word_offset` (simplified: signed word offset in
    /// bits 11:8).
    pub fn beq(rs1: u32, rs2: u32, off: i32) -> u32 {
        btype(0, rs1, rs2, off)
    }
    /// `bne rs1, rs2, word_offset`.
    pub fn bne(rs1: u32, rs2: u32, off: i32) -> u32 {
        btype(1, rs1, rs2, off)
    }
    /// `blt rs1, rs2, word_offset` (signed compare).
    pub fn blt(rs1: u32, rs2: u32, off: i32) -> u32 {
        btype(4, rs1, rs2, off)
    }
    /// `jal word_target` (simplified: absolute word target in bits
    /// 25:20; `rd` receives the return PC).
    pub fn jal(rd: u32, target: u32) -> u32 {
        (target << 20) | (rd << 7) | 0x6f
    }
    /// `lw rd, imm(rs1)`.
    pub fn lw(rd: u32, rs1: u32, imm: i32) -> u32 {
        itype(0x03, rd, 2, rs1, imm)
    }
    /// `sw rs2, imm(rs1)` (simplified S-type: low imm bits in 11:7).
    pub fn sw(rs2: u32, rs1: u32, imm: i32) -> u32 {
        ((rs2 & 0x1f) << 20)
            | ((rs1 & 0x1f) << 15)
            | (2 << 12)
            | (((imm as u32) & 0x1f) << 7)
            | 0x23
    }

    fn itype(op: u32, rd: u32, f3: u32, rs1: u32, imm: i32) -> u32 {
        (((imm as u32) & 0xfff) << 20) | ((rs1 & 0x1f) << 15) | (f3 << 12) | ((rd & 0x1f) << 7) | op
    }
    fn rtype(op: u32, rd: u32, f3: u32, rs1: u32, rs2: u32, f7: u32) -> u32 {
        (f7 << 25)
            | ((rs2 & 0x1f) << 20)
            | ((rs1 & 0x1f) << 15)
            | (f3 << 12)
            | ((rd & 0x1f) << 7)
            | op
    }
    fn btype(f3: u32, rs1: u32, rs2: u32, off: i32) -> u32 {
        ((rs2 & 0x1f) << 20)
            | ((rs1 & 0x1f) << 15)
            | (f3 << 12)
            | (((off as u32) & 0xf) << 8)
            | 0x63
    }
}

/// ISA-level golden model of the same subset.
#[derive(Debug, Clone)]
pub struct GoldenCpu {
    /// Architectural registers.
    pub x: [u32; NUM_REGS],
    /// Program counter (word-addressed).
    pub pc: u32,
    /// Data memory.
    pub dmem: [u32; DMEM_WORDS],
    program: Vec<u32>,
}

impl GoldenCpu {
    /// Creates a golden CPU over the same program.
    pub fn new(program: &[u32]) -> Self {
        GoldenCpu {
            x: [0; NUM_REGS],
            pc: 0,
            dmem: [0; DMEM_WORDS],
            program: program.to_vec(),
        }
    }

    /// Executes one instruction.
    pub fn step(&mut self) {
        let instr = *self.program.get(self.pc as usize).unwrap_or(&0x13);
        let op = instr & 0x7f;
        let rd = ((instr >> 7) & 0xf) as usize;
        let f3 = (instr >> 12) & 7;
        let rs1 = self.x[((instr >> 15) & 0xf) as usize];
        let rs2 = self.x[((instr >> 20) & 0xf) as usize];
        let imm_i = ((instr as i32) >> 20) as u32;
        let mut next_pc = (self.pc + 1) & 0x3f;
        let mut wb: Option<u32> = None;
        match op {
            0x13 | 0x33 => {
                let b = if op == 0x13 { imm_i } else { rs2 };
                let sub = op == 0x33 && (instr >> 30) & 1 == 1;
                wb = Some(match f3 {
                    0 => {
                        if sub {
                            rs1.wrapping_sub(b)
                        } else {
                            rs1.wrapping_add(b)
                        }
                    }
                    1 => rs1.wrapping_shl(b & 31),
                    2 => ((rs1 as i32) < (b as i32)) as u32,
                    3 => (rs1 < b) as u32,
                    4 => rs1 ^ b,
                    5 => rs1.wrapping_shr(b & 31),
                    6 => rs1 | b,
                    7 => rs1 & b,
                    _ => unreachable!(),
                });
            }
            0x37 => wb = Some(instr & 0xffff_f000),
            0x63 => {
                let take = match f3 {
                    0 => rs1 == rs2,
                    1 => rs1 != rs2,
                    4 => (rs1 as i32) < (rs2 as i32),
                    5 => (rs1 as i32) >= (rs2 as i32),
                    _ => false,
                };
                if take {
                    let off = (((instr >> 8) & 0xf) as i32) << 28 >> 28;
                    next_pc = (self.pc as i32 + off) as u32 & 0x3f;
                }
            }
            0x6f => {
                wb = Some((self.pc + 1) & 0x3f);
                next_pc = (instr >> 20) & 0x3f;
            }
            0x03 => {
                let addr = (rs1.wrapping_add(imm_i) >> 2) as usize % DMEM_WORDS;
                wb = Some(self.dmem[addr]);
            }
            0x23 => {
                let imm_s = (instr >> 7) & 0x1f;
                let addr = (rs1.wrapping_add(imm_s) >> 2) as usize % DMEM_WORDS;
                self.dmem[addr] = rs2;
            }
            _ => {}
        }
        if let Some(v) = wb {
            if rd != 0 {
                self.x[rd] = v;
            }
        }
        self.pc = next_pc;
    }
}

#[cfg(test)]
mod tests {
    use super::asm::*;
    use super::*;
    use rteaal_dfg::interp::Interpreter;
    use rteaal_firrtl::lower::lower_typed;

    fn run_both(program: &[u32], cycles: usize) -> (Interpreter<'static>, GoldenCpu) {
        let circuit = rv32i(program);
        let graph = Box::leak(Box::new(
            rteaal_dfg::build(&lower_typed(&circuit).unwrap()).unwrap(),
        ));
        let mut hw = Interpreter::new(graph);
        let mut sw = GoldenCpu::new(program);
        for c in 0..cycles {
            hw.step();
            sw.step();
            assert_eq!(
                hw.output_by_name("pc_out"),
                Some(sw.pc as u64),
                "pc at cycle {c}"
            );
            for i in 1..NUM_REGS {
                assert_eq!(
                    hw.peek_by_name(&format!("x{i}")),
                    Some(sw.x[i] as u64),
                    "x{i} at cycle {c}"
                );
            }
        }
        (hw, sw)
    }

    #[test]
    fn arithmetic_program() {
        let program = [
            addi(1, 0, 100),
            addi(2, 0, -3),
            add(3, 1, 2),
            sub(4, 1, 2),
            xor(5, 3, 4),
            and(6, 5, 1),
            or(7, 6, 2),
            sltu(8, 1, 2),
            slli(9, 1, 4),
            lui(10, 0xabcd),
        ];
        let (hw, sw) = run_both(&program, 12);
        assert_eq!(sw.x[3], 97);
        assert_eq!(sw.x[4], 103);
        assert_eq!(sw.x[8], 1); // 100 < 0xfffffffd unsigned
        assert_eq!(sw.x[9], 1600);
        assert_eq!(hw.output_by_name("a0"), Some((0xabcdu64) << 12));
    }

    #[test]
    fn fibonacci_loop() {
        // a0 = fib(10) via a bne loop.
        let program = [
            addi(1, 0, 0),  // f0
            addi(2, 0, 1),  // f1
            addi(3, 0, 10), // counter
            // loop:
            add(4, 1, 2), // f2 = f0 + f1
            add(1, 2, 0), // f0 = f1
            add(2, 4, 0), // f1 = f2
            addi(3, 3, -1),
            bne(3, 0, -4),
            add(10, 1, 0), // a0 = f0
            jal(0, 9),     // halt: jump-to-self at pc 9
        ];
        let circuit = rv32i(&program);
        let graph = rteaal_dfg::build(&lower_typed(&circuit).unwrap()).unwrap();
        let mut hw = Interpreter::new(&graph);
        let mut sw = GoldenCpu::new(&program);
        for _ in 0..60 {
            hw.step();
            sw.step();
        }
        assert_eq!(sw.x[10], 55); // fib(10)
        assert_eq!(hw.output_by_name("a0"), Some(55));
        assert_eq!(hw.output_by_name("halt"), Some(1));
    }

    #[test]
    fn load_store_roundtrip() {
        let program = [addi(1, 0, 0x7a), sw(1, 0, 8), lw(2, 0, 8), add(10, 2, 0)];
        let (hw, sw) = run_both(&program, 6);
        assert_eq!(sw.dmem[2], 0x7a);
        assert_eq!(hw.output_by_name("a0"), Some(0x7a));
    }

    #[test]
    fn branches_taken_and_not_taken() {
        let program = [
            addi(1, 0, 5),
            addi(2, 0, 5),
            beq(1, 2, 2),    // taken: skip next
            addi(10, 0, 99), // skipped
            addi(3, 0, -1),
            blt(3, 0, 2),    // taken (signed)
            addi(10, 0, 98), // skipped
            addi(4, 0, 1),
        ];
        let (_, sw) = run_both(&program, 8);
        assert_eq!(sw.x[10], 0);
        assert_eq!(sw.x[4], 1);
    }
}
