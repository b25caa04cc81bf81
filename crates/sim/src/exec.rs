//! Functional (value-level) execution of instructions.
//!
//! Execution happens lane-wise at issue time: values land in registers
//! immediately while the *timing* layer (scoreboards, barriers) decides
//! when consumers may observe them. This keeps functional correctness
//! independent of the timing model.

use crate::mem::{ConstMem, GlobalMem};
use crate::warp::{DivEntry, WarpState, WARP_LANES};
use crate::{Result, SimError};
use gpa_isa::{
    Instruction, MemSpace, Modifier, Opcode, Operand, Register, SpecialReg, INSTR_BYTES,
};

/// Shared-state view handed to the executor for one instruction.
pub struct ExecCtx<'a> {
    /// Device global memory.
    pub global: &'a mut GlobalMem,
    /// The executing block's shared memory.
    pub smem: &'a mut Vec<u8>,
    /// Constant banks.
    pub consts: &'a ConstMem,
    /// Block id of the executing block.
    pub block_id: u32,
    /// Grid size in blocks.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
}

/// Control-flow outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Fall through to the next instruction.
    Next,
    /// Redirect to an absolute PC (taken branch / divergence).
    Jump(u64),
    /// The warp finished.
    Exit,
    /// Park at a block barrier (PC already advanced past it).
    Sync,
    /// Call: push the return address and jump.
    Call(u64),
    /// Return to the call stack's top.
    Ret,
}

/// The memory traffic of one issued instruction, for the timing model.
#[derive(Debug, Clone)]
pub struct MemAccess {
    /// Which space was touched.
    pub space: MemSpace,
    /// Per-lane byte addresses (only executing lanes).
    pub addrs: Vec<u64>,
    /// Whether this was a store.
    pub store: bool,
}

/// Result of functionally executing one instruction.
#[derive(Debug, Clone)]
pub struct ExecResult {
    /// Where control flow goes.
    pub outcome: Outcome,
    /// Memory traffic, if any.
    pub mem: Option<MemAccess>,
}

fn fault(pc: u64, message: impl Into<String>) -> SimError {
    SimError::Fault { pc, message: message.into() }
}

/// A source operand resolved once per instruction: lane-invariant values
/// (immediates, constant-bank reads) are computed up front so the hot
/// per-lane loops only touch the register file.
#[derive(Clone, Copy)]
enum Src {
    /// Lane-invariant 32-bit value.
    Val(u32),
    /// Lane-invariant 64-bit value.
    Val64(u64),
    /// Per-lane register read (zero-extended in 64-bit contexts).
    Reg(Register),
    /// Per-lane register-pair read (low half in 32-bit contexts).
    Pair(Register),
    /// Per-lane special-register read.
    SReg(SpecialReg),
}

/// Resolves an operand for 32-bit lane reads.
#[inline]
fn resolve32(w: &WarpState, op: &Operand, ctx: &ExecCtx) -> Result<Src> {
    Ok(match *op {
        Operand::Reg(r) => Src::Reg(r),
        Operand::Imm(v) => Src::Val(v as i32 as u32),
        Operand::FImm(v) => Src::Val((v as f32).to_bits()),
        Operand::CMem { bank, offset } => Src::Val(ctx.consts.read_u32(bank, offset as u32)),
        Operand::SReg(s) => Src::SReg(s),
        Operand::RegPair(r) => Src::Pair(r), // low half
        _ => return Err(fault(w.pc, format!("operand {op:?} is not a 32-bit source"))),
    })
}

/// Resolves an operand for 64-bit lane reads.
#[inline]
fn resolve64(w: &WarpState, op: &Operand, ctx: &ExecCtx) -> Result<Src> {
    Ok(match *op {
        Operand::RegPair(r) => Src::Pair(r),
        Operand::Reg(r) => Src::Reg(r),
        Operand::Imm(v) => Src::Val64(v as u64),
        Operand::FImm(v) => Src::Val64(v.to_bits()),
        Operand::CMem { bank, offset } => Src::Val64(ctx.consts.read_u64(bank, offset as u32)),
        _ => return Err(fault(w.pc, format!("operand {op:?} is not a 64-bit source"))),
    })
}

/// Reads a resolved 32-bit source for one lane.
#[inline]
fn get32(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> u32 {
    match s {
        Src::Val(v) => v,
        Src::Val64(v) => v as u32,
        Src::Reg(r) | Src::Pair(r) => w.read_reg(lane, r),
        Src::SReg(sr) => w.special(lane, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads),
    }
}

/// Reads a resolved 64-bit source for one lane.
#[inline]
fn get64(w: &WarpState, lane: usize, s: Src, ctx: &ExecCtx) -> u64 {
    match s {
        Src::Val(v) => v as u64,
        Src::Val64(v) => v,
        Src::Reg(r) => w.read_reg(lane, r) as u64,
        Src::Pair(r) => w.read_pair(lane, r),
        Src::SReg(sr) => {
            w.special(lane, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads) as u64
        }
    }
}

/// Lane indices of a fully active warp.
const ALL_LANES: [usize; WARP_LANES] = {
    let mut a = [0usize; WARP_LANES];
    let mut i = 0;
    while i < WARP_LANES {
        a[i] = i;
        i += 1;
    }
    a
};

/// Materializes a resolved 32-bit source into per-lane values: one row
/// copy (or broadcast) per instruction instead of an enum match per lane.
/// Safe because lane writes are strictly lane-local — no instruction
/// observes another lane's same-instruction result through the register
/// file (SHFL snapshots explicitly).
#[inline]
fn fill32(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [u32; WARP_LANES]) {
    match s {
        Src::Val(v) => out.fill(v),
        Src::Val64(v) => out.fill(v as u32),
        Src::Reg(r) | Src::Pair(r) => {
            if r.is_zero() {
                out.fill(0);
            } else {
                *out = w.regs[r.index() as usize];
            }
        }
        Src::SReg(sr) => {
            for (l, slot) in out.iter_mut().enumerate() {
                *slot = w.special(l, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads);
            }
        }
    }
}

/// Materializes a resolved 64-bit source into per-lane values.
#[inline]
fn fill64(w: &WarpState, s: Src, ctx: &ExecCtx, out: &mut [u64; WARP_LANES]) {
    match s {
        Src::Val(v) => out.fill(v as u64),
        Src::Val64(v) => out.fill(v),
        Src::Reg(r) => {
            for (l, slot) in out.iter_mut().enumerate() {
                *slot = w.read_reg(l, r) as u64;
            }
        }
        Src::Pair(r) => {
            for (l, slot) in out.iter_mut().enumerate() {
                *slot = w.read_pair(l, r);
            }
        }
        Src::SReg(sr) => {
            for (l, slot) in out.iter_mut().enumerate() {
                *slot = w.special(l, sr, ctx.block_id, ctx.grid_blocks, ctx.block_threads) as u64;
            }
        }
    }
}

/// Writes per-lane results to a destination register for the given lanes.
#[inline]
fn store32(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[u32; WARP_LANES]) {
    if d.is_zero() {
        return;
    }
    let row = &mut w.regs[d.index() as usize];
    for &l in lanes {
        row[l] = vals[l];
    }
}

/// Writes per-lane results to a destination register pair.
#[inline]
fn store64(w: &mut WarpState, d: Register, lanes: &[usize], vals: &[u64; WARP_LANES]) {
    for &l in lanes {
        w.write_pair(l, d, vals[l]);
    }
}

/// Unary 32-bit lane op over materialized sources.
#[inline]
fn un32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32) -> u32,
) {
    let mut a = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store32(w, d, lanes, &o);
}

/// Binary 32-bit lane op over materialized sources.
#[inline]
fn bin32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32, u32) -> u32,
) {
    let mut a = [0u32; WARP_LANES];
    let mut b = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    fill32(w, sb, ctx, &mut b);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l]);
    }
    store32(w, d, lanes, &o);
}

/// Ternary 32-bit lane op over materialized sources.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tri32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    sc: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32, u32, u32) -> u32,
) {
    let mut a = [0u32; WARP_LANES];
    let mut b = [0u32; WARP_LANES];
    let mut c = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    fill32(w, sb, ctx, &mut b);
    fill32(w, sc, ctx, &mut c);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l], c[l]);
    }
    store32(w, d, lanes, &o);
}

/// Unary 64-bit lane op over materialized sources.
#[inline]
fn un64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64) -> u64,
) {
    let mut a = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store64(w, d, lanes, &o);
}

/// Binary 64-bit lane op over materialized sources.
#[inline]
fn bin64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64, u64) -> u64,
) {
    let mut a = [0u64; WARP_LANES];
    let mut b = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    fill64(w, sb, ctx, &mut b);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l]);
    }
    store64(w, d, lanes, &o);
}

/// Ternary 64-bit lane op over materialized sources.
#[inline]
#[allow(clippy::too_many_arguments)]
fn tri64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    sc: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64, u64, u64) -> u64,
) {
    let mut a = [0u64; WARP_LANES];
    let mut b = [0u64; WARP_LANES];
    let mut c = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    fill64(w, sb, ctx, &mut b);
    fill64(w, sc, ctx, &mut c);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l], b[l], c[l]);
    }
    store64(w, d, lanes, &o);
}

/// 32→64-bit conversion lane op.
#[inline]
fn cvt32to64(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32) -> u64,
) {
    let mut a = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    let mut o = [0u64; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store64(w, d, lanes, &o);
}

/// 64→32-bit conversion lane op.
#[inline]
fn cvt64to32(
    w: &mut WarpState,
    d: Register,
    lanes: &[usize],
    sa: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64) -> u32,
) {
    let mut a = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    let mut o = [0u32; WARP_LANES];
    for &l in lanes {
        o[l] = f(a[l]);
    }
    store32(w, d, lanes, &o);
}

/// Predicate-setting comparison over materialized 32-bit sources.
#[inline]
fn setp32(
    w: &mut WarpState,
    p: gpa_isa::PredReg,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u32, u32) -> bool,
) {
    let mut a = [0u32; WARP_LANES];
    let mut b = [0u32; WARP_LANES];
    fill32(w, sa, ctx, &mut a);
    fill32(w, sb, ctx, &mut b);
    for &l in lanes {
        w.write_pred(l, p, f(a[l], b[l]));
    }
}

/// Predicate-setting comparison over materialized 64-bit sources.
#[inline]
fn setp64(
    w: &mut WarpState,
    p: gpa_isa::PredReg,
    lanes: &[usize],
    sa: Src,
    sb: Src,
    ctx: &ExecCtx,
    f: impl Fn(u64, u64) -> bool,
) {
    let mut a = [0u64; WARP_LANES];
    let mut b = [0u64; WARP_LANES];
    fill64(w, sa, ctx, &mut a);
    fill64(w, sb, ctx, &mut b);
    for &l in lanes {
        w.write_pred(l, p, f(a[l], b[l]));
    }
}

fn f32v(bits: u32) -> f32 {
    f32::from_bits(bits)
}

fn dst_reg(instr: &Instruction, pc: u64) -> Result<gpa_isa::Register> {
    match instr.dsts.first() {
        Some(Operand::Reg(r)) | Some(Operand::RegPair(r)) => Ok(*r),
        _ => Err(fault(pc, format!("{} missing register destination", instr.opcode))),
    }
}

fn dst_is_pair(instr: &Instruction) -> bool {
    matches!(instr.dsts.first(), Some(Operand::RegPair(_)))
}

/// A comparison selected once per instruction (the first ordering
/// modifier wins; no modifier means equality, matching `ISETP` defaults).
#[derive(Clone, Copy)]
enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

fn cmp_op(mods: &[Modifier]) -> CmpOp {
    for m in mods {
        return match m {
            Modifier::Lt => CmpOp::Lt,
            Modifier::Le => CmpOp::Le,
            Modifier::Gt => CmpOp::Gt,
            Modifier::Ge => CmpOp::Ge,
            Modifier::Eq => CmpOp::Eq,
            Modifier::Ne => CmpOp::Ne,
            _ => continue,
        };
    }
    CmpOp::Eq
}

#[inline]
fn cmp_apply(op: CmpOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::*;
    match op {
        CmpOp::Lt => ord == Less,
        CmpOp::Le => ord != Greater,
        CmpOp::Gt => ord == Greater,
        CmpOp::Ge => ord != Less,
        CmpOp::Eq => ord == Equal,
        CmpOp::Ne => ord != Equal,
    }
}

fn load_width(instr: &Instruction) -> u64 {
    if instr.mods.contains(&Modifier::Sz64) || dst_is_pair(instr) {
        8
    } else {
        4
    }
}

/// Executes one instruction functionally for all guarded active lanes.
///
/// `reconv_pc` is the precomputed reconvergence point of the instruction's
/// basic block (needed only for divergent predicated branches).
///
/// # Errors
///
/// Returns [`SimError::Fault`] on malformed operands, divergent branches
/// without a reconvergence point, partial-warp `EXIT`, shared-memory
/// overflow, or `RET` with an empty call stack.
pub fn execute(
    w: &mut WarpState,
    instr: &Instruction,
    reconv_pc: Option<u64>,
    ctx: &mut ExecCtx,
) -> Result<ExecResult> {
    let exec_mask = w.active & w.pred_mask(instr.pred);
    let pc = w.pc;

    // Control flow first: BRA handles divergence on its own.
    match instr.opcode {
        Opcode::Bra => {
            let target =
                instr.branch_target().ok_or_else(|| fault(pc, "BRA without resolved target"))?;
            let taken = exec_mask;
            let outcome = if taken == 0 {
                Outcome::Next
            } else if taken == w.active {
                Outcome::Jump(target)
            } else {
                let reconv = reconv_pc
                    .ok_or_else(|| fault(pc, "divergent branch without reconvergence point"))?;
                w.div_stack.push(DivEntry {
                    reconv,
                    else_pc: pc + INSTR_BYTES,
                    else_mask: w.active & !taken,
                    merged: w.active,
                    else_done: false,
                });
                w.active = taken;
                Outcome::Jump(target)
            };
            return Ok(ExecResult { outcome, mem: None });
        }
        Opcode::Exit => {
            if exec_mask != w.active {
                return Err(fault(pc, "partial-warp EXIT is not supported"));
            }
            return Ok(ExecResult { outcome: Outcome::Exit, mem: None });
        }
        Opcode::Cal => {
            let target =
                instr.branch_target().ok_or_else(|| fault(pc, "CAL without resolved target"))?;
            return Ok(ExecResult { outcome: Outcome::Call(target), mem: None });
        }
        Opcode::Ret => {
            return Ok(ExecResult { outcome: Outcome::Ret, mem: None });
        }
        Opcode::Bar => {
            return Ok(ExecResult { outcome: Outcome::Sync, mem: None });
        }
        Opcode::Nop | Opcode::Membar | Opcode::Bssy | Opcode::Bsync => {
            return Ok(ExecResult { outcome: Outcome::Next, mem: None });
        }
        _ => {}
    }

    if exec_mask == 0 {
        // Predicated off for every lane: issues, but no effects.
        return Ok(ExecResult { outcome: Outcome::Next, mem: None });
    }

    let mut mem: Option<MemAccess> = None;
    // Full warps are the common case: reuse a constant lane list and only
    // build one for partial masks.
    let mut lanes_buf = [0usize; WARP_LANES];
    let lanes: &[usize] = if exec_mask == u32::MAX {
        &ALL_LANES
    } else {
        let mut nlanes = 0;
        let mut mask = exec_mask;
        while mask != 0 {
            lanes_buf[nlanes] = mask.trailing_zeros() as usize;
            nlanes += 1;
            mask &= mask - 1;
        }
        &lanes_buf[..nlanes]
    };

    use Opcode::*;
    match instr.opcode {
        Mov | Mov32i | I2i => {
            let d = dst_reg(instr, pc)?;
            if dst_is_pair(instr) {
                let sa = resolve64(w, &instr.srcs[0], ctx)?;
                un64(w, d, lanes, sa, ctx, |a| a);
            } else {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                un32(w, d, lanes, sa, ctx, |a| a);
            }
        }
        Iadd => {
            let d = dst_reg(instr, pc)?;
            if dst_is_pair(instr) {
                let sa = resolve64(w, &instr.srcs[0], ctx)?;
                let sb = resolve64(w, &instr.srcs[1], ctx)?;
                bin64(w, d, lanes, sa, sb, ctx, |a, b| a.wrapping_add(b));
            } else {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                let sb = resolve32(w, &instr.srcs[1], ctx)?;
                bin32(w, d, lanes, sa, sb, ctx, |a, b| a.wrapping_add(b));
            }
        }
        Iadd3 => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            let sc = resolve32(w, &instr.srcs[2], ctx)?;
            tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, c| a.wrapping_add(b).wrapping_add(c));
        }
        Imad => {
            let d = dst_reg(instr, pc)?;
            let signed = instr.mods.contains(&Modifier::S32);
            if instr.mods.contains(&Modifier::Wide) {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                let sb = resolve32(w, &instr.srcs[1], ctx)?;
                let sc = resolve64(w, &instr.srcs[2], ctx)?;
                let mut a = [0u32; WARP_LANES];
                let mut b = [0u32; WARP_LANES];
                let mut c = [0u64; WARP_LANES];
                fill32(w, sa, ctx, &mut a);
                fill32(w, sb, ctx, &mut b);
                fill64(w, sc, ctx, &mut c);
                let mut o = [0u64; WARP_LANES];
                for &l in lanes {
                    let prod = if signed {
                        (a[l] as i32 as i64).wrapping_mul(b[l] as i32 as i64) as u64
                    } else {
                        (a[l] as u64).wrapping_mul(b[l] as u64)
                    };
                    o[l] = prod.wrapping_add(c[l]);
                }
                store64(w, d, lanes, &o);
            } else {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                let sb = resolve32(w, &instr.srcs[1], ctx)?;
                let sc = resolve32(w, &instr.srcs[2], ctx)?;
                tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, c| a.wrapping_mul(b).wrapping_add(c));
            }
        }
        Imul => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            bin32(w, d, lanes, sa, sb, ctx, |a, b| a.wrapping_mul(b));
        }
        Isetp => {
            let p = instr.dsts[0]
                .pred()
                .ok_or_else(|| fault(pc, "ISETP needs a predicate destination"))?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            let op = cmp_op(&instr.mods);
            let unsigned = instr.mods.contains(&Modifier::U32);
            setp32(w, p, lanes, sa, sb, ctx, |a, b| {
                let ord = if unsigned { a.cmp(&b) } else { (a as i32).cmp(&(b as i32)) };
                cmp_apply(op, ord)
            });
        }
        Lea => {
            let d = dst_reg(instr, pc)?;
            let shift = if instr.srcs.len() > 2 {
                match instr.srcs[2] {
                    Operand::Imm(v) => v as u32 & 63,
                    _ => 0,
                }
            } else {
                0
            };
            if dst_is_pair(instr) {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                let sb = resolve64(w, &instr.srcs[1], ctx)?;
                let mut a = [0u32; WARP_LANES];
                let mut b = [0u64; WARP_LANES];
                fill32(w, sa, ctx, &mut a);
                fill64(w, sb, ctx, &mut b);
                let mut o = [0u64; WARP_LANES];
                for &l in lanes {
                    o[l] = b[l].wrapping_add((a[l] as u64) << shift);
                }
                store64(w, d, lanes, &o);
            } else {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                let sb = resolve32(w, &instr.srcs[1], ctx)?;
                bin32(w, d, lanes, sa, sb, ctx, |a, b| b.wrapping_add(a << shift));
            }
        }
        Lop3 => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            let or = instr.mods.contains(&Modifier::Or);
            let xor = instr.mods.contains(&Modifier::Xor);
            bin32(w, d, lanes, sa, sb, ctx, |a, b| {
                if or {
                    a | b
                } else if xor {
                    a ^ b
                } else {
                    a & b
                }
            });
        }
        Shl | Shr | Shf => {
            let d = dst_reg(instr, pc)?;
            let right =
                instr.opcode == Shr || (instr.opcode == Shf && instr.mods.contains(&Modifier::R));
            let arith = instr.mods.contains(&Modifier::S32);
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            bin32(w, d, lanes, sa, sb, ctx, |a, s| {
                let s = s & 31;
                if !right {
                    a << s
                } else if arith {
                    ((a as i32) >> s) as u32
                } else {
                    a >> s
                }
            });
        }
        Imnmx => {
            let d = dst_reg(instr, pc)?;
            let take_max = instr.mods.contains(&Modifier::Gt);
            let unsigned = instr.mods.contains(&Modifier::U32);
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            bin32(w, d, lanes, sa, sb, ctx, |a, b| match (unsigned, take_max) {
                (true, true) => a.max(b),
                (true, false) => a.min(b),
                (false, true) => (a as i32).max(b as i32) as u32,
                (false, false) => (a as i32).min(b as i32) as u32,
            });
        }
        Iabs => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            un32(w, d, lanes, sa, ctx, |a| (a as i32).unsigned_abs());
        }
        Popc => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            un32(w, d, lanes, sa, ctx, |a| a.count_ones());
        }
        Sel => {
            let d = dst_reg(instr, pc)?;
            let p =
                instr.srcs[2].pred().ok_or_else(|| fault(pc, "SEL needs a predicate source"))?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            let mut a = [0u32; WARP_LANES];
            let mut b = [0u32; WARP_LANES];
            fill32(w, sa, ctx, &mut a);
            fill32(w, sb, ctx, &mut b);
            let mut o = [0u32; WARP_LANES];
            for &l in lanes {
                o[l] = if w.read_pred(l, p) { a[l] } else { b[l] };
            }
            store32(w, d, lanes, &o);
        }
        Fadd | Fmul | Ffma | Fmnmx => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            match instr.opcode {
                Fadd => bin32(w, d, lanes, sa, sb, ctx, |a, b| (f32v(a) + f32v(b)).to_bits()),
                Fmul => bin32(w, d, lanes, sa, sb, ctx, |a, b| (f32v(a) * f32v(b)).to_bits()),
                Ffma => {
                    let sc = resolve32(w, &instr.srcs[2], ctx)?;
                    // `mul_add` rounds once, like the hardware FFMA.
                    tri32(w, d, lanes, sa, sb, sc, ctx, |a, b, c| {
                        f32v(a).mul_add(f32v(b), f32v(c)).to_bits()
                    });
                }
                _ if instr.mods.contains(&Modifier::Gt) => {
                    bin32(w, d, lanes, sa, sb, ctx, |a, b| f32v(a).max(f32v(b)).to_bits())
                }
                _ => bin32(w, d, lanes, sa, sb, ctx, |a, b| f32v(a).min(f32v(b)).to_bits()),
            }
        }
        Fsetp => {
            let p = instr.dsts[0]
                .pred()
                .ok_or_else(|| fault(pc, "FSETP needs a predicate destination"))?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            let op = cmp_op(&instr.mods);
            setp32(w, p, lanes, sa, sb, ctx, |a, b| {
                let ord = f32v(a).partial_cmp(&f32v(b)).unwrap_or(std::cmp::Ordering::Greater);
                cmp_apply(op, ord)
            });
        }
        Mufu => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let func = instr
                .mods
                .iter()
                .find(|m| {
                    matches!(
                        m,
                        Modifier::Rcp
                            | Modifier::Rsq
                            | Modifier::Sqrt
                            | Modifier::Sin
                            | Modifier::Cos
                            | Modifier::Ex2
                            | Modifier::Lg2
                    )
                })
                .ok_or_else(|| fault(pc, "MUFU needs a function modifier"))?;
            un32(w, d, lanes, sa, ctx, |a| {
                let a = f32v(a);
                let v = match func {
                    Modifier::Rcp => 1.0 / a,
                    Modifier::Rsq => 1.0 / a.sqrt(),
                    Modifier::Sqrt => a.sqrt(),
                    Modifier::Sin => a.sin(),
                    Modifier::Cos => a.cos(),
                    Modifier::Ex2 => a.exp2(),
                    _ => a.log2(),
                };
                v.to_bits()
            });
        }
        Dadd | Dmul | Dfma => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve64(w, &instr.srcs[0], ctx)?;
            let sb = resolve64(w, &instr.srcs[1], ctx)?;
            match instr.opcode {
                Dadd => bin64(w, d, lanes, sa, sb, ctx, |a, b| {
                    (f64::from_bits(a) + f64::from_bits(b)).to_bits()
                }),
                Dmul => bin64(w, d, lanes, sa, sb, ctx, |a, b| {
                    (f64::from_bits(a) * f64::from_bits(b)).to_bits()
                }),
                _ => {
                    let sc = resolve64(w, &instr.srcs[2], ctx)?;
                    tri64(w, d, lanes, sa, sb, sc, ctx, |a, b, c| {
                        f64::from_bits(a).mul_add(f64::from_bits(b), f64::from_bits(c)).to_bits()
                    });
                }
            }
        }
        Dsetp => {
            let p = instr.dsts[0]
                .pred()
                .ok_or_else(|| fault(pc, "DSETP needs a predicate destination"))?;
            let sa = resolve64(w, &instr.srcs[0], ctx)?;
            let sb = resolve64(w, &instr.srcs[1], ctx)?;
            let op = cmp_op(&instr.mods);
            setp64(w, p, lanes, sa, sb, ctx, |a, b| {
                let ord = f64::from_bits(a)
                    .partial_cmp(&f64::from_bits(b))
                    .unwrap_or(std::cmp::Ordering::Greater);
                cmp_apply(op, ord)
            });
        }
        F2f => {
            let d = dst_reg(instr, pc)?;
            // Modifier order is [dst, src].
            let to64 = instr.mods.first() == Some(&Modifier::F64);
            if to64 {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                cvt32to64(w, d, lanes, sa, ctx, |a| (f32v(a) as f64).to_bits());
            } else {
                let sa = resolve64(w, &instr.srcs[0], ctx)?;
                cvt64to32(w, d, lanes, sa, ctx, |a| (f64::from_bits(a) as f32).to_bits());
            }
        }
        F2i => {
            let d = dst_reg(instr, pc)?;
            let from64 = instr.mods.contains(&Modifier::F64);
            if from64 {
                let sa = resolve64(w, &instr.srcs[0], ctx)?;
                cvt64to32(w, d, lanes, sa, ctx, |a| f64::from_bits(a) as i32 as u32);
            } else {
                let sa = resolve32(w, &instr.srcs[0], ctx)?;
                un32(w, d, lanes, sa, ctx, |a| f32v(a) as i32 as u32);
            }
        }
        I2f => {
            let d = dst_reg(instr, pc)?;
            let to64 = instr.mods.contains(&Modifier::F64);
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            if to64 {
                cvt32to64(w, d, lanes, sa, ctx, |a| (a as i32 as f64).to_bits());
            } else {
                un32(w, d, lanes, sa, ctx, |a| (a as i32 as f32).to_bits());
            }
        }
        S2r | Cs2r => {
            let d = dst_reg(instr, pc)?;
            let s = match instr.srcs[0] {
                Operand::SReg(s) => s,
                _ => return Err(fault(pc, "S2R needs a special-register source")),
            };
            for &l in lanes {
                let v = w.special(l, s, ctx.block_id, ctx.grid_blocks, ctx.block_threads);
                w.write_reg(l, d, v);
            }
        }
        Shfl => {
            let d = dst_reg(instr, pc)?;
            let src_r = match instr.srcs[0] {
                Operand::Reg(r) => r,
                _ => return Err(fault(pc, "SHFL needs a register source")),
            };
            // Snapshot before writing (source and destination may alias).
            let snapshot =
                if src_r.is_zero() { [0u32; WARP_LANES] } else { w.regs[src_r.index() as usize] };
            let si = resolve32(w, &instr.srcs[1], ctx)?;
            for &l in lanes {
                let idx = (get32(w, l, si, ctx) as usize) % WARP_LANES;
                w.write_reg(l, d, snapshot[idx]);
            }
        }
        Vote => {
            let d = dst_reg(instr, pc)?;
            let p =
                instr.srcs[0].pred().ok_or_else(|| fault(pc, "VOTE needs a predicate source"))?;
            let all_mode = instr.mods.contains(&Modifier::All);
            let votes: Vec<bool> = lanes.iter().map(|&l| w.read_pred(l, p)).collect();
            let agg = if all_mode { votes.iter().all(|&v| v) } else { votes.iter().any(|&v| v) };
            for &l in lanes {
                w.write_reg(l, d, agg as u32);
            }
        }
        Prmt => {
            let d = dst_reg(instr, pc)?;
            let sa = resolve32(w, &instr.srcs[0], ctx)?;
            let sb = resolve32(w, &instr.srcs[1], ctx)?;
            let ss = resolve32(w, &instr.srcs[2], ctx)?;
            tri32(w, d, lanes, sa, sb, ss, ctx, |a, b, sel| {
                let pool = ((b as u64) << 32) | a as u64;
                let mut v = 0u32;
                for i in 0..4 {
                    let s = ((sel >> (4 * i)) & 0x7) as u64;
                    let byte = (pool >> (8 * s)) & 0xFF;
                    v |= (byte as u32) << (8 * i);
                }
                v
            });
        }
        Ldg | Stg | Lds | Sts | Ldl | Stl | Ldc | AtomG | AtomS => {
            mem = Some(memory_op(w, instr, lanes, ctx)?);
        }
        Bra | Exit | Cal | Ret | Bar | Nop | Membar | Bssy | Bsync => unreachable!(),
    }

    Ok(ExecResult { outcome: Outcome::Next, mem })
}

fn memory_op(
    w: &mut WarpState,
    instr: &Instruction,
    lanes: &[usize],
    ctx: &mut ExecCtx,
) -> Result<MemAccess> {
    use Opcode::*;
    let pc = w.pc;
    let space = instr.opcode.mem_space().expect("memory opcode");
    let store = instr.opcode.is_store();
    let width = load_width(instr);
    let mut addrs = Vec::with_capacity(lanes.len());

    // Locate the memory operand and the data operand.
    let mem_op = instr.dsts.iter().chain(instr.srcs.iter()).find_map(|o| match o {
        Operand::Mem(m) => Some(*m),
        _ => None,
    });
    let cmem_op = instr.srcs.iter().find_map(|o| match o {
        Operand::CMem { bank, offset } => Some((*bank, *offset)),
        _ => None,
    });

    match instr.opcode {
        Ldg => {
            let m = mem_op.ok_or_else(|| fault(pc, "load needs a memory operand"))?;
            let d = dst_reg(instr, pc)?;
            // Page-memoized reads: lanes usually share one or two pages.
            let mut rd = ctx.global.reader();
            for &l in lanes {
                let base =
                    if m.wide { w.read_pair(l, m.base) } else { w.read_reg(l, m.base) as u64 };
                let addr = base.wrapping_add(m.offset as i64 as u64);
                addrs.push(addr);
                if width == 8 {
                    let v = rd.read_u64(addr);
                    w.write_pair(l, d, v);
                } else {
                    let v = rd.read_u32(addr);
                    w.write_reg(l, d, v);
                }
            }
        }
        Ldl => {
            let m = mem_op.ok_or_else(|| fault(pc, "load needs a memory operand"))?;
            let d = dst_reg(instr, pc)?;
            for &l in lanes {
                let base =
                    if m.wide { w.read_pair(l, m.base) } else { w.read_reg(l, m.base) as u64 };
                let addr = base.wrapping_add(m.offset as i64 as u64);
                addrs.push(addr);
                let v = read_local(w, l, addr, width, pc)?;
                if width == 8 {
                    w.write_pair(l, d, v);
                } else {
                    w.write_reg(l, d, v as u32);
                }
            }
        }
        Stg | Stl => {
            let m = mem_op.ok_or_else(|| fault(pc, "store needs a memory operand"))?;
            let data = instr
                .srcs
                .iter()
                .find(|o| !matches!(o, Operand::Mem(_)))
                .ok_or_else(|| fault(pc, "store needs a data operand"))?;
            let sdata =
                if width == 8 { resolve64(w, data, ctx)? } else { resolve32(w, data, ctx)? };
            if instr.opcode == Stg {
                // Collect the warp's stores and commit them page-run at a
                // time (stores never feed back into this instruction's
                // register reads, so deferring them is exact).
                let mut b32 = [(0u64, 0u32); WARP_LANES];
                let mut b64 = [(0u64, 0u64); WARP_LANES];
                let mut n = 0;
                for &l in lanes {
                    let base =
                        if m.wide { w.read_pair(l, m.base) } else { w.read_reg(l, m.base) as u64 };
                    let addr = base.wrapping_add(m.offset as i64 as u64);
                    addrs.push(addr);
                    if width == 8 {
                        b64[n] = (addr, get64(w, l, sdata, ctx));
                    } else {
                        b32[n] = (addr, get32(w, l, sdata, ctx));
                    }
                    n += 1;
                }
                if width == 8 {
                    ctx.global.write_batch_u64(&b64[..n]);
                } else {
                    ctx.global.write_batch_u32(&b32[..n]);
                }
            } else {
                for &l in lanes {
                    let base =
                        if m.wide { w.read_pair(l, m.base) } else { w.read_reg(l, m.base) as u64 };
                    let addr = base.wrapping_add(m.offset as i64 as u64);
                    addrs.push(addr);
                    let v: u64 = if width == 8 {
                        get64(w, l, sdata, ctx)
                    } else {
                        get32(w, l, sdata, ctx) as u64
                    };
                    write_local(w, l, addr, v, width, pc)?;
                }
            }
        }
        Lds => {
            let m = mem_op.ok_or_else(|| fault(pc, "LDS needs a memory operand"))?;
            let d = dst_reg(instr, pc)?;
            for &l in lanes {
                let addr = (w.read_reg(l, m.base) as u64).wrapping_add(m.offset as i64 as u64);
                addrs.push(addr);
                let v = read_smem(ctx.smem, addr, width, pc)?;
                if width == 8 {
                    w.write_pair(l, d, v);
                } else {
                    w.write_reg(l, d, v as u32);
                }
            }
        }
        Sts => {
            let m = mem_op.ok_or_else(|| fault(pc, "STS needs a memory operand"))?;
            let data = instr
                .srcs
                .iter()
                .find(|o| !matches!(o, Operand::Mem(_)))
                .ok_or_else(|| fault(pc, "STS needs a data operand"))?;
            let sdata =
                if width == 8 { resolve64(w, data, ctx)? } else { resolve32(w, data, ctx)? };
            for &l in lanes {
                let addr = (w.read_reg(l, m.base) as u64).wrapping_add(m.offset as i64 as u64);
                addrs.push(addr);
                let v: u64 = if width == 8 {
                    get64(w, l, sdata, ctx)
                } else {
                    get32(w, l, sdata, ctx) as u64
                };
                write_smem(ctx.smem, addr, v, width, pc)?;
            }
        }
        Ldc => {
            let d = dst_reg(instr, pc)?;
            if let Some((bank, offset)) = cmem_op {
                for &l in lanes {
                    addrs.push(offset as u64);
                    if width == 8 {
                        w.write_pair(l, d, ctx.consts.read_u64(bank, offset as u32));
                    } else {
                        w.write_reg(l, d, ctx.consts.read_u32(bank, offset as u32));
                    }
                }
            } else if let Some(m) = mem_op {
                // Register-indexed constant load from bank 1.
                for &l in lanes {
                    let addr = (w.read_reg(l, m.base) as u64).wrapping_add(m.offset as i64 as u64);
                    addrs.push(addr);
                    if width == 8 {
                        w.write_pair(l, d, ctx.consts.read_u64(1, addr as u32));
                    } else {
                        w.write_reg(l, d, ctx.consts.read_u32(1, addr as u32));
                    }
                }
            } else {
                return Err(fault(pc, "LDC needs a constant or memory operand"));
            }
        }
        AtomG => {
            let m = mem_op.ok_or_else(|| fault(pc, "ATOMG needs a memory operand"))?;
            let d = dst_reg(instr, pc)?;
            let data = instr
                .srcs
                .iter()
                .find(|o| !matches!(o, Operand::Mem(_)))
                .ok_or_else(|| fault(pc, "ATOMG needs a data operand"))?;
            let sdata = resolve32(w, data, ctx)?;
            for &l in lanes {
                let base =
                    if m.wide { w.read_pair(l, m.base) } else { w.read_reg(l, m.base) as u64 };
                let addr = base.wrapping_add(m.offset as i64 as u64);
                addrs.push(addr);
                let old = ctx.global.read_u32(addr);
                let v = get32(w, l, sdata, ctx);
                ctx.global.write_u32(addr, old.wrapping_add(v));
                w.write_reg(l, d, old);
            }
        }
        AtomS => {
            let m = mem_op.ok_or_else(|| fault(pc, "ATOMS needs a memory operand"))?;
            let d = dst_reg(instr, pc)?;
            let data = instr
                .srcs
                .iter()
                .find(|o| !matches!(o, Operand::Mem(_)))
                .ok_or_else(|| fault(pc, "ATOMS needs a data operand"))?;
            let sdata = resolve32(w, data, ctx)?;
            for &l in lanes {
                let addr = (w.read_reg(l, m.base) as u64).wrapping_add(m.offset as i64 as u64);
                addrs.push(addr);
                let old = read_smem(ctx.smem, addr, 4, pc)? as u32;
                let v = get32(w, l, sdata, ctx);
                write_smem(ctx.smem, addr, old.wrapping_add(v) as u64, 4, pc)?;
                w.write_reg(l, d, old);
            }
        }
        _ => unreachable!("non-memory opcode in memory_op"),
    }

    Ok(MemAccess { space, addrs, store })
}

const MAX_SMEM: u64 = 96 * 1024;
const MAX_LOCAL: u64 = 64 * 1024;

fn read_smem(smem: &mut Vec<u8>, addr: u64, width: u64, pc: u64) -> Result<u64> {
    ensure_smem(smem, addr + width, pc)?;
    let mut v = 0u64;
    for i in 0..width {
        v |= (smem[(addr + i) as usize] as u64) << (8 * i);
    }
    Ok(v)
}

fn write_smem(smem: &mut Vec<u8>, addr: u64, v: u64, width: u64, pc: u64) -> Result<()> {
    ensure_smem(smem, addr + width, pc)?;
    for i in 0..width {
        smem[(addr + i) as usize] = (v >> (8 * i)) as u8;
    }
    Ok(())
}

fn ensure_smem(smem: &mut Vec<u8>, end: u64, pc: u64) -> Result<()> {
    if end > MAX_SMEM {
        return Err(fault(pc, format!("shared-memory access at {end:#x} exceeds 96 KiB")));
    }
    if smem.len() < end as usize {
        smem.resize(end as usize, 0);
    }
    Ok(())
}

fn read_local(w: &mut WarpState, lane: usize, addr: u64, width: u64, pc: u64) -> Result<u64> {
    ensure_local(w, lane, addr + width, pc)?;
    let buf = &w.local[lane];
    let mut v = 0u64;
    for i in 0..width {
        v |= (buf[(addr + i) as usize] as u64) << (8 * i);
    }
    Ok(v)
}

fn write_local(
    w: &mut WarpState,
    lane: usize,
    addr: u64,
    v: u64,
    width: u64,
    pc: u64,
) -> Result<()> {
    ensure_local(w, lane, addr + width, pc)?;
    let buf = &mut w.local[lane];
    for i in 0..width {
        buf[(addr + i) as usize] = (v >> (8 * i)) as u8;
    }
    Ok(())
}

fn ensure_local(w: &mut WarpState, lane: usize, end: u64, pc: u64) -> Result<()> {
    if end > MAX_LOCAL {
        return Err(fault(pc, format!("local-memory access at {end:#x} exceeds 64 KiB")));
    }
    if w.local[lane].len() < end as usize {
        w.local[lane].resize(end as usize, 0);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpa_isa::{MemRef, PredReg, Predicate, Register};

    fn r(n: u8) -> Register {
        Register::from_u8(n)
    }

    fn setup() -> (WarpState, GlobalMem, Vec<u8>, ConstMem) {
        (WarpState::new(0, 0, 0, 0, 32, 256), GlobalMem::new(), Vec::new(), ConstMem::new())
    }

    fn ctx<'a>(g: &'a mut GlobalMem, s: &'a mut Vec<u8>, c: &'a ConstMem) -> ExecCtx<'a> {
        ExecCtx { global: g, smem: s, consts: c, block_id: 3, grid_blocks: 8, block_threads: 64 }
    }

    #[test]
    fn integer_and_float_arithmetic() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        for l in 0..32 {
            w.write_reg(l, r(1), l as u32);
            w.write_reg(l, r(2), 10);
        }
        let iadd = Instruction::new(
            Opcode::Iadd,
            vec![Operand::Reg(r(0))],
            vec![Operand::Reg(r(1)), Operand::Reg(r(2))],
        );
        execute(&mut w, &iadd, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(5, r(0)), 15);

        let ffma = Instruction::new(
            Opcode::Ffma,
            vec![Operand::Reg(r(3))],
            vec![Operand::FImm(2.0), Operand::FImm(3.0), Operand::FImm(1.0)],
        );
        execute(&mut w, &ffma, None, &mut cx).unwrap();
        assert_eq!(f32::from_bits(w.read_reg(0, r(3))), 7.0);
    }

    fn fp32(op: Opcode, d: Register, srcs: Vec<Operand>) -> Instruction {
        Instruction::new(op, vec![Operand::Reg(d)], srcs)
    }

    #[test]
    fn ffma_rounds_once() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        // a·a = 1 + 2⁻¹¹ + 2⁻²⁴: the 2⁻²⁴ term survives only if the
        // product is not rounded before the add.
        let a = 1.0f32 + 2f32.powi(-12);
        let neg_c = -(1.0f32 + 2f32.powi(-11));
        assert_eq!(a * a + neg_c, 0.0, "the unfused form loses the low term");
        for l in 0..32 {
            w.write_reg(l, r(1), a.to_bits());
            w.write_reg(l, r(2), neg_c.to_bits());
        }
        let ffma = fp32(
            Opcode::Ffma,
            r(3),
            vec![Operand::Reg(r(1)), Operand::Reg(r(1)), Operand::Reg(r(2))],
        );
        execute(&mut w, &ffma, None, &mut cx).unwrap();
        for l in 0..32 {
            assert_eq!(f32::from_bits(w.read_reg(l, r(3))), 2f32.powi(-24), "lane {l}");
        }
    }

    #[test]
    fn fp32_add_mul_and_minmax() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        for l in 0..32 {
            w.write_reg(l, r(1), (l as f32).to_bits());
            w.write_reg(l, r(2), (10.0f32 - l as f32).to_bits());
        }
        let ab = || vec![Operand::Reg(r(1)), Operand::Reg(r(2))];
        execute(&mut w, &fp32(Opcode::Fadd, r(3), ab()), None, &mut cx).unwrap();
        execute(&mut w, &fp32(Opcode::Fmul, r(4), ab()), None, &mut cx).unwrap();
        execute(&mut w, &fp32(Opcode::Fmnmx, r(5), ab()), None, &mut cx).unwrap();
        let fmax = fp32(Opcode::Fmnmx, r(6), ab()).with_mod(Modifier::Gt);
        execute(&mut w, &fmax, None, &mut cx).unwrap();
        for l in 0..32 {
            let (a, b) = (l as f32, 10.0 - l as f32);
            let got = |d: u8| f32::from_bits(w.read_reg(l, r(d)));
            assert_eq!(got(3), a + b, "FADD lane {l}");
            assert_eq!(got(4), a * b, "FMUL lane {l}");
            assert_eq!(got(5), a.min(b), "FMNMX lane {l}");
            assert_eq!(got(6), a.max(b), "FMNMX.GT lane {l}");
        }
    }

    #[test]
    fn fp32_partial_mask_and_rz_destination() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        let p0 = PredReg::new(0).unwrap();
        for l in 0..32 {
            w.write_reg(l, r(1), 2.0f32.to_bits());
            w.write_reg(l, r(3), 0xdead_0000 + l as u32);
            w.write_pred(l, p0, l % 3 == 0);
        }
        let srcs = || vec![Operand::Reg(r(1)), Operand::Reg(r(1)), Operand::Reg(r(1))];
        let cases = [
            (Opcode::Fadd, 4.0f32),
            (Opcode::Fmul, 4.0),
            (Opcode::Ffma, 6.0),
            (Opcode::Fmnmx, 2.0),
        ];
        for (op, expect) in cases {
            let guarded = fp32(op, r(3), srcs()).with_pred(Predicate::pos(p0));
            execute(&mut w, &guarded, None, &mut cx).unwrap();
            for l in 0..32 {
                let want = if l % 3 == 0 { expect.to_bits() } else { 0xdead_0000 + l as u32 };
                assert_eq!(w.read_reg(l, r(3)), want, "{op}: lane {l}");
            }
            // RZ reads zero regardless, so check the backing row itself.
            execute(&mut w, &fp32(op, Register::ZERO, srcs()), None, &mut cx).unwrap();
            let rz_row = w.regs[Register::ZERO.index() as usize];
            assert_eq!(rz_row, [0u32; WARP_LANES], "{op}: RZ write dropped");
        }
    }

    #[test]
    fn f64_demotion_roundtrip() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        // Write 2.5f32, promote to f64, demote back.
        for l in 0..32 {
            w.write_reg(l, r(1), 2.5f32.to_bits());
        }
        let promote =
            Instruction::new(Opcode::F2f, vec![Operand::RegPair(r(4))], vec![Operand::Reg(r(1))])
                .with_mod(Modifier::F64)
                .with_mod(Modifier::F32);
        execute(&mut w, &promote, None, &mut cx).unwrap();
        assert_eq!(f64::from_bits(w.read_pair(7, r(4))), 2.5);
        let demote =
            Instruction::new(Opcode::F2f, vec![Operand::Reg(r(6))], vec![Operand::RegPair(r(4))])
                .with_mod(Modifier::F32)
                .with_mod(Modifier::F64);
        execute(&mut w, &demote, None, &mut cx).unwrap();
        assert_eq!(f32::from_bits(w.read_reg(7, r(6))), 2.5);
    }

    #[test]
    fn guarded_execution_skips_lanes() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        let p0 = PredReg::new(0).unwrap();
        for l in 0..16 {
            w.write_pred(l, p0, true);
        }
        let mov = Instruction::new(Opcode::Mov32i, vec![Operand::Reg(r(0))], vec![Operand::Imm(9)])
            .with_pred(Predicate::pos(p0));
        execute(&mut w, &mov, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(3, r(0)), 9);
        assert_eq!(w.read_reg(20, r(0)), 0, "lane 20 guarded off");
    }

    #[test]
    fn global_load_store_and_coalescing_addresses() {
        let (mut w, mut g, mut s, c) = setup();
        let base = g.alloc(4096);
        for l in 0..32 {
            w.write_pair(l, r(2), base + l as u64 * 4);
            w.write_reg(l, r(0), 100 + l as u32);
        }
        let mut cx = ctx(&mut g, &mut s, &c);
        let stg = Instruction::new(
            Opcode::Stg,
            vec![],
            vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true }), Operand::Reg(r(0))],
        )
        .with_mod(Modifier::E)
        .with_mod(Modifier::Sz32);
        let res = execute(&mut w, &stg, None, &mut cx).unwrap();
        let mem = res.mem.unwrap();
        assert!(mem.store);
        assert_eq!(mem.addrs.len(), 32);
        assert_eq!(g.read_u32(base + 4 * 31), 131);

        let mut cx = ctx(&mut g, &mut s, &c);
        let ldg = Instruction::new(
            Opcode::Ldg,
            vec![Operand::Reg(r(5))],
            vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true })],
        );
        execute(&mut w, &ldg, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(31, r(5)), 131);
    }

    #[test]
    fn shared_and_local_memory() {
        let (mut w, mut g, mut s, c) = setup();
        for l in 0..32 {
            w.write_reg(l, r(1), l as u32 * 4);
            w.write_reg(l, r(0), l as u32 + 7);
        }
        let mut cx = ctx(&mut g, &mut s, &c);
        let sts = Instruction::new(
            Opcode::Sts,
            vec![],
            vec![Operand::Mem(MemRef { base: r(1), offset: 0, wide: false }), Operand::Reg(r(0))],
        );
        execute(&mut w, &sts, None, &mut cx).unwrap();
        let mut cx = ctx(&mut g, &mut s, &c);
        let lds = Instruction::new(
            Opcode::Lds,
            vec![Operand::Reg(r(3))],
            vec![Operand::Mem(MemRef { base: r(1), offset: 0, wide: false })],
        );
        execute(&mut w, &lds, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(9, r(3)), 16);

        // Local spill: each lane sees private storage.
        let mut cx = ctx(&mut g, &mut s, &c);
        let stl = Instruction::new(
            Opcode::Stl,
            vec![],
            vec![
                Operand::Mem(MemRef { base: Register::ZERO, offset: 16, wide: false }),
                Operand::Reg(r(0)),
            ],
        );
        execute(&mut w, &stl, None, &mut cx).unwrap();
        let mut cx = ctx(&mut g, &mut s, &c);
        let ldl = Instruction::new(
            Opcode::Ldl,
            vec![Operand::Reg(r(4))],
            vec![Operand::Mem(MemRef { base: Register::ZERO, offset: 16, wide: false })],
        );
        execute(&mut w, &ldl, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(0, r(4)), 7);
        assert_eq!(w.read_reg(10, r(4)), 17, "lane-private local memory");
    }

    #[test]
    fn divergent_branch_pushes_stack() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        let p0 = PredReg::new(0).unwrap();
        for l in 0..8 {
            w.write_pred(l, p0, true);
        }
        w.pc = 0x1000;
        let bra = Instruction::new(Opcode::Bra, vec![], vec![Operand::Imm(0x1100)])
            .with_pred(Predicate::pos(p0));
        let res = execute(&mut w, &bra, Some(0x1200), &mut cx).unwrap();
        assert_eq!(res.outcome, Outcome::Jump(0x1100));
        assert_eq!(w.active, 0xFF);
        assert_eq!(w.div_stack.len(), 1);
        assert_eq!(w.div_stack[0].else_pc, 0x1010);
        assert_eq!(w.div_stack[0].else_mask, !0xFFu32);
    }

    #[test]
    fn uniform_branch_does_not_diverge() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        w.pc = 0x1000;
        let bra = Instruction::new(Opcode::Bra, vec![], vec![Operand::Imm(0x1040)]);
        let res = execute(&mut w, &bra, None, &mut cx).unwrap();
        assert_eq!(res.outcome, Outcome::Jump(0x1040));
        assert!(w.div_stack.is_empty());
    }

    #[test]
    fn special_registers() {
        let (mut w, mut g, mut s, c) = setup();
        let mut cx = ctx(&mut g, &mut s, &c);
        let s2r = Instruction::new(
            Opcode::S2r,
            vec![Operand::Reg(r(0))],
            vec![Operand::SReg(gpa_isa::SpecialReg::TidX)],
        );
        execute(&mut w, &s2r, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(13, r(0)), 13);
        let s2r2 = Instruction::new(
            Opcode::S2r,
            vec![Operand::Reg(r(1))],
            vec![Operand::SReg(gpa_isa::SpecialReg::CtaIdX)],
        );
        execute(&mut w, &s2r2, None, &mut cx).unwrap();
        assert_eq!(w.read_reg(0, r(1)), 3);
    }

    #[test]
    fn atomics_accumulate() {
        let (mut w, mut g, mut s, c) = setup();
        let base = g.alloc(64);
        for l in 0..32 {
            w.write_pair(l, r(2), base); // all lanes hit the same address
            w.write_reg(l, r(0), 1);
        }
        let mut cx = ctx(&mut g, &mut s, &c);
        let atom = Instruction::new(
            Opcode::AtomG,
            vec![Operand::Reg(r(4))],
            vec![Operand::Mem(MemRef { base: r(2), offset: 0, wide: true }), Operand::Reg(r(0))],
        );
        execute(&mut w, &atom, None, &mut cx).unwrap();
        assert_eq!(g.read_u32(base), 32, "32 lanes each added 1");
        assert_eq!(w.read_reg(0, r(4)), 0);
        assert_eq!(w.read_reg(31, r(4)), 31, "serialized lane order");
    }
}
