//! The NF dataflow IR: named memory regions, a register dataflow, and a
//! small CFG with bounded loops.
//!
//! The IR is deliberately coarse — it describes *where an NF's memory
//! references can land and what flows where*, not full program
//! semantics. Each of the six paper NFs lowers itself into this form
//! alongside its `AccessSink` instrumentation, so every `sink.touch`
//! the real implementation emits has a corresponding IR operation whose
//! abstract address range covers it (the ground-truth link the
//! differential tests check).
//!
//! Loop-carried induction variables are *havoced*: re-drawn each
//! iteration from their full range (`Op::Havoc`), the standard trick
//! that keeps interval analysis precise without per-loop invariant
//! inference. Widening at loop headers still guarantees termination for
//! registers that genuinely accumulate.

use std::fmt;

use snic_crypto::sha256::sha256;
use snic_types::AccelKind;

use crate::domain::Taint;

/// A virtual register (SSA-flavored; writes may be re-joined at merges).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u32);

/// A register or an immediate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Read a register.
    Reg(Reg),
    /// A constant.
    Imm(u64),
}

/// Index into [`NfProgram::regions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub usize);

/// Index into [`NfProgram::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockId(pub usize);

/// What a declared region *is*, which decides both its taint source and
/// whether the manifest can ever grant it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionClass {
    /// The VPP packet-buffer window; loads from it are packet-derived.
    PacketBuf,
    /// The tenant's own data/heap/stack; loads are state-derived.
    Private,
    /// Memory that belongs to another tenant or the NIC-OS — present in
    /// the IR only so an adversarial program can *name* it; no manifest
    /// grants it, and any tainted store into it is a cross-tenant leak.
    Foreign,
}

impl RegionClass {
    /// The taint a load from this region imparts.
    pub fn load_taint(self) -> Taint {
        match self {
            RegionClass::PacketBuf => Taint::PACKET,
            RegionClass::Private => Taint::STATE,
            RegionClass::Foreign => Taint::PACKET.union(Taint::STATE),
        }
    }
}

/// One named memory region in the NF's virtual address space.
#[derive(Debug, Clone)]
pub struct RegionDecl {
    /// Region name (`pktbuf`, `heap`, ...).
    pub name: String,
    /// Base virtual address.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
    /// Classification.
    pub class: RegionClass,
}

/// One IR operation. `insns` is the instruction-count weight used by the
/// loop-bound pass (it mirrors the `insns` argument the real NF passes
/// to `AccessSink::touch`).
#[derive(Debug, Clone)]
pub enum Op {
    /// `dst = some value in [lo, hi]` with the given taint — packet
    /// fields, hash residues, and havoced loop induction variables.
    Havoc {
        /// Destination register.
        dst: Reg,
        /// Smallest possible value.
        lo: u64,
        /// Largest possible value.
        hi: u64,
        /// Taint imparted to the value.
        taint: Taint,
        /// Instruction weight.
        insns: u32,
    },
    /// `dst = a + b * scale` (saturating).
    Arith {
        /// Destination register.
        dst: Reg,
        /// First addend.
        a: Operand,
        /// Scaled addend.
        b: Operand,
        /// Constant multiplier applied to `b`.
        scale: u64,
        /// Instruction weight.
        insns: u32,
    },
    /// `dst = a % modulus` (`modulus > 0`).
    Mod {
        /// Destination register.
        dst: Reg,
        /// Value to reduce.
        a: Operand,
        /// Modulus (must be positive).
        modulus: u64,
        /// Instruction weight.
        insns: u32,
    },
    /// `dst = load region[off .. off+width)`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Accessed region.
        region: RegionId,
        /// Byte offset within the region.
        off: Operand,
        /// Access width in bytes.
        width: u32,
        /// Instruction weight.
        insns: u32,
    },
    /// `store region[off .. off+width) = val`.
    Store {
        /// Accessed region.
        region: RegionId,
        /// Byte offset within the region.
        off: Operand,
        /// Stored value.
        val: Operand,
        /// Access width in bytes.
        width: u32,
        /// Instruction weight.
        insns: u32,
    },
    /// Submit `val` to an accelerator family (§4.3 clusters).
    Accel {
        /// Accelerator family.
        kind: AccelKind,
        /// Submitted value.
        val: Operand,
        /// Instruction weight.
        insns: u32,
    },
    /// DMA `len` bytes starting at `region[off]` across the host bus
    /// (§4.2 host-sanctioned windows).
    Dma {
        /// Source/target region on the NIC side.
        region: RegionId,
        /// Byte offset within the region.
        off: Operand,
        /// Transfer length in bytes.
        len: Operand,
        /// Instruction weight.
        insns: u32,
    },
    /// Emit a packet (verdict/TX) derived from `val` — the sanctioned
    /// egress path, never a taint sink.
    Emit {
        /// Emitted value.
        val: Operand,
        /// Instruction weight.
        insns: u32,
    },
}

impl Op {
    /// The instruction weight of this operation.
    pub fn insns(&self) -> u32 {
        match self {
            Op::Havoc { insns, .. }
            | Op::Arith { insns, .. }
            | Op::Mod { insns, .. }
            | Op::Load { insns, .. }
            | Op::Store { insns, .. }
            | Op::Accel { insns, .. }
            | Op::Dma { insns, .. }
            | Op::Emit { insns, .. } => *insns,
        }
    }
}

/// Block terminator. Conditions are abstracted away: every successor is
/// feasible (a sound over-approximation of any branch predicate).
#[derive(Debug, Clone)]
pub enum Terminator {
    /// Unconditional edge.
    Jump(BlockId),
    /// Nondeterministic multi-way branch.
    Branch(Vec<BlockId>),
    /// Per-packet processing ends.
    Return,
}

/// One basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Straight-line operations.
    pub ops: Vec<Op>,
    /// Control-flow successor(s).
    pub term: Terminator,
    /// If this block is a loop header (the target of a back edge), the
    /// maximum number of times it can execute per packet. A header with
    /// `None` is an *unbounded* loop — Pass 0 refuses it.
    pub loop_bound: Option<u64>,
}

/// A complete NF dataflow program.
#[derive(Debug, Clone)]
pub struct NfProgram {
    /// Program name (shown in reports; `FW`, `DPI`, ... for the paper
    /// NFs).
    pub name: String,
    /// Declared memory regions.
    pub regions: Vec<RegionDecl>,
    /// CFG blocks; block 0 is the entry.
    pub blocks: Vec<Block>,
    /// Number of virtual registers.
    pub regs: u32,
}

impl NfProgram {
    /// Total operation count (for reports).
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }

    /// Canonical byte encoding, the basis of the certificate's program
    /// digest. Deterministic: same program, same bytes.
    pub fn encode(&self) -> Vec<u8> {
        fn put_operand(out: &mut Vec<u8>, o: &Operand) {
            match o {
                Operand::Reg(r) => {
                    out.push(0);
                    out.extend_from_slice(&r.0.to_le_bytes());
                }
                Operand::Imm(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(b"snic-nf-ir-v1");
        out.extend_from_slice(self.name.as_bytes());
        out.push(0);
        out.extend_from_slice(&self.regs.to_le_bytes());
        for r in &self.regions {
            out.extend_from_slice(r.name.as_bytes());
            out.push(0);
            out.extend_from_slice(&r.base.to_le_bytes());
            out.extend_from_slice(&r.len.to_le_bytes());
            out.push(match r.class {
                RegionClass::PacketBuf => 0,
                RegionClass::Private => 1,
                RegionClass::Foreign => 2,
            });
        }
        for b in &self.blocks {
            out.push(0xb0);
            match b.loop_bound {
                None => out.push(0),
                Some(n) => {
                    out.push(1);
                    out.extend_from_slice(&n.to_le_bytes());
                }
            }
            for op in &b.ops {
                match op {
                    Op::Havoc {
                        dst,
                        lo,
                        hi,
                        taint,
                        insns,
                    } => {
                        out.push(1);
                        out.extend_from_slice(&dst.0.to_le_bytes());
                        out.extend_from_slice(&lo.to_le_bytes());
                        out.extend_from_slice(&hi.to_le_bytes());
                        out.push(u8::from(taint.contains(Taint::PACKET)));
                        out.push(u8::from(taint.contains(Taint::STATE)));
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Arith {
                        dst,
                        a,
                        b: rhs,
                        scale,
                        insns,
                    } => {
                        out.push(2);
                        out.extend_from_slice(&dst.0.to_le_bytes());
                        put_operand(&mut out, a);
                        put_operand(&mut out, rhs);
                        out.extend_from_slice(&scale.to_le_bytes());
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Mod {
                        dst,
                        a,
                        modulus,
                        insns,
                    } => {
                        out.push(3);
                        out.extend_from_slice(&dst.0.to_le_bytes());
                        put_operand(&mut out, a);
                        out.extend_from_slice(&modulus.to_le_bytes());
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Load {
                        dst,
                        region,
                        off,
                        width,
                        insns,
                    } => {
                        out.push(4);
                        out.extend_from_slice(&dst.0.to_le_bytes());
                        out.extend_from_slice(&(region.0 as u64).to_le_bytes());
                        put_operand(&mut out, off);
                        out.extend_from_slice(&width.to_le_bytes());
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Store {
                        region,
                        off,
                        val,
                        width,
                        insns,
                    } => {
                        out.push(5);
                        out.extend_from_slice(&(region.0 as u64).to_le_bytes());
                        put_operand(&mut out, off);
                        put_operand(&mut out, val);
                        out.extend_from_slice(&width.to_le_bytes());
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Accel { kind, val, insns } => {
                        out.push(6);
                        out.push(*kind as u8);
                        put_operand(&mut out, val);
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Dma {
                        region,
                        off,
                        len,
                        insns,
                    } => {
                        out.push(7);
                        out.extend_from_slice(&(region.0 as u64).to_le_bytes());
                        put_operand(&mut out, off);
                        put_operand(&mut out, len);
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                    Op::Emit { val, insns } => {
                        out.push(8);
                        put_operand(&mut out, val);
                        out.extend_from_slice(&insns.to_le_bytes());
                    }
                }
            }
            out.push(0xb1);
            match &b.term {
                Terminator::Jump(t) => {
                    out.push(0);
                    out.extend_from_slice(&(t.0 as u64).to_le_bytes());
                }
                Terminator::Branch(ts) => {
                    out.push(1);
                    out.extend_from_slice(&(ts.len() as u64).to_le_bytes());
                    for t in ts {
                        out.extend_from_slice(&(t.0 as u64).to_le_bytes());
                    }
                }
                Terminator::Return => out.push(2),
            }
        }
        out
    }

    /// SHA-256 over the canonical encoding.
    pub fn digest(&self) -> [u8; 32] {
        sha256(&self.encode())
    }
}

impl fmt::Display for NfProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program {} ({} region(s), {} block(s), {} op(s))",
            self.name,
            self.regions.len(),
            self.blocks.len(),
            self.op_count()
        )?;
        for (i, r) in self.regions.iter().enumerate() {
            writeln!(
                f,
                "  region r{i} {:10} {:#x}+{:#x} {:?}",
                r.name, r.base, r.len, r.class
            )?;
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let bound = match b.loop_bound {
                Some(n) => format!(" loop_bound={n}"),
                None => String::new(),
            };
            writeln!(f, "  b{i}:{bound} {} op(s), {:?}", b.ops.len(), b.term)?;
        }
        Ok(())
    }
}

/// Incremental builder for [`NfProgram`]s: tracks a current block, hands
/// out fresh registers, and offers one helper per op kind so lowerings
/// read like the access pattern they model.
#[derive(Debug)]
pub struct ProgramBuilder {
    name: String,
    regions: Vec<RegionDecl>,
    blocks: Vec<Block>,
    cur: usize,
    next_reg: u32,
}

impl ProgramBuilder {
    /// Start a program with an empty entry block.
    pub fn new(name: &str) -> ProgramBuilder {
        ProgramBuilder {
            name: name.to_string(),
            regions: Vec::new(),
            blocks: vec![Block {
                ops: Vec::new(),
                term: Terminator::Return,
                loop_bound: None,
            }],
            cur: 0,
            next_reg: 0,
        }
    }

    /// Declare a region.
    pub fn region(&mut self, name: &str, base: u64, len: u64, class: RegionClass) -> RegionId {
        self.regions.push(RegionDecl {
            name: name.to_string(),
            base,
            len,
            class,
        });
        RegionId(self.regions.len() - 1)
    }

    /// A fresh register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Append a raw op to the current block.
    pub fn push(&mut self, op: Op) {
        self.blocks[self.cur].ops.push(op);
    }

    /// Create a new (empty, `Return`-terminated) block without switching
    /// to it.
    pub fn add_block(&mut self) -> BlockId {
        self.blocks.push(Block {
            ops: Vec::new(),
            term: Terminator::Return,
            loop_bound: None,
        });
        BlockId(self.blocks.len() - 1)
    }

    /// Make `b` the current block.
    pub fn select(&mut self, b: BlockId) {
        self.cur = b.0;
    }

    /// Set the current block's terminator.
    pub fn terminate(&mut self, t: Terminator) {
        self.blocks[self.cur].term = t;
    }

    /// Mark `b` as a loop header with a per-packet trip bound.
    pub fn loop_bound(&mut self, b: BlockId, bound: u64) {
        self.blocks[b.0].loop_bound = Some(bound);
    }

    /// `Havoc` helper returning the destination register.
    pub fn havoc(&mut self, lo: u64, hi: u64, taint: Taint, insns: u32) -> Reg {
        let dst = self.reg();
        self.push(Op::Havoc {
            dst,
            lo,
            hi,
            taint,
            insns,
        });
        dst
    }

    /// `Arith` helper: `a + b * scale`.
    pub fn arith(&mut self, a: Operand, b: Operand, scale: u64, insns: u32) -> Reg {
        let dst = self.reg();
        self.push(Op::Arith {
            dst,
            a,
            b,
            scale,
            insns,
        });
        dst
    }

    /// `Mod` helper: `a % modulus`.
    pub fn modulo(&mut self, a: Operand, modulus: u64, insns: u32) -> Reg {
        let dst = self.reg();
        self.push(Op::Mod {
            dst,
            a,
            modulus,
            insns,
        });
        dst
    }

    /// `Load` helper returning the loaded register.
    pub fn load(&mut self, region: RegionId, off: Operand, width: u32, insns: u32) -> Reg {
        let dst = self.reg();
        self.push(Op::Load {
            dst,
            region,
            off,
            width,
            insns,
        });
        dst
    }

    /// `Store` helper.
    pub fn store(&mut self, region: RegionId, off: Operand, val: Operand, width: u32, insns: u32) {
        self.push(Op::Store {
            region,
            off,
            val,
            width,
            insns,
        });
    }

    /// `Accel` helper.
    pub fn accel(&mut self, kind: AccelKind, val: Operand, insns: u32) {
        self.push(Op::Accel { kind, val, insns });
    }

    /// `Dma` helper.
    pub fn dma(&mut self, region: RegionId, off: Operand, len: Operand, insns: u32) {
        self.push(Op::Dma {
            region,
            off,
            len,
            insns,
        });
    }

    /// `Emit` helper.
    pub fn emit(&mut self, val: Operand, insns: u32) {
        self.push(Op::Emit { val, insns });
    }

    /// Finish the program.
    pub fn finish(self) -> NfProgram {
        NfProgram {
            name: self.name,
            regions: self.regions,
            blocks: self.blocks,
            regs: self.next_reg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> NfProgram {
        let mut p = ProgramBuilder::new("tiny");
        let pkt = p.region("pktbuf", 0x0100_0000, 2048, RegionClass::PacketBuf);
        let field = p.havoc(0, 63, Taint::PACKET, 10);
        let v = p.load(pkt, Operand::Reg(field), 8, 20);
        p.emit(Operand::Reg(v), 5);
        p.finish()
    }

    #[test]
    fn digest_is_deterministic_and_content_sensitive() {
        let a = tiny();
        let b = tiny();
        assert_eq!(a.digest(), b.digest());
        let mut c = tiny();
        c.blocks[0].ops.pop();
        assert_ne!(a.digest(), c.digest());
        let mut d = tiny();
        d.regions[0].len = 4096;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn builder_wires_blocks_and_regs() {
        let mut p = ProgramBuilder::new("b");
        let body = p.add_block();
        let exit = p.add_block();
        p.terminate(Terminator::Jump(body));
        p.select(body);
        let r = p.havoc(0, 7, Taint::NONE, 1);
        p.terminate(Terminator::Branch(vec![body, exit]));
        p.loop_bound(body, 8);
        p.select(exit);
        p.emit(Operand::Reg(r), 1);
        let prog = p.finish();
        assert_eq!(prog.blocks.len(), 3);
        assert_eq!(prog.blocks[1].loop_bound, Some(8));
        assert_eq!(prog.regs, 1);
        assert_eq!(prog.op_count(), 2);
        assert!(prog.to_string().contains("b1:"));
    }

    #[test]
    fn display_lists_regions() {
        let p = tiny();
        let s = p.to_string();
        assert!(s.contains("pktbuf"), "{s}");
        assert!(s.contains("PacketBuf"), "{s}");
    }
}
