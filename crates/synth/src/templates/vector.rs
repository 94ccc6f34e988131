//! `std::vector<T>` operation templates.
//!
//! MSVC x86 layout: `{ _Myfirst @ +0, _Mylast @ +4, _Myend @ +8 }`.
//! The behavioral signature the paper highlights: `push_back` *reallocates*
//! on growth — the slow path reaches both `malloc` and `free` (via
//! `_Emplace_realloc`), unlike `std::list` which only allocates.

use super::{small_imm, VarCtx};
use crate::chunk::Chunk;
use crate::style::Style;
use rand::rngs::StdRng;
use rand::Rng;
use tiara_ir::{Opcode, Operand, Reg};

/// The shared out-of-line growth helper (mallocs, copies, frees).
pub const EMPLACE_REALLOC: &str = "std::vector::_Emplace_realloc";

/// `std::vector<T> v;` — zero `_Myfirst`, `_Mylast`, `_Myend`.
pub fn ctor(ctx: &VarCtx, rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, _) = ctx.scratch();
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    if rng.random_bool(0.6) {
        c.zero(r0);
        c.mov(f.at(0), Operand::reg(r0));
        c.mov(f.at(4), Operand::reg(r0));
        c.mov(f.at(8), Operand::reg(r0));
    } else {
        c.mov(f.at(0), Operand::imm(0));
        c.mov(f.at(4), Operand::imm(0));
        c.mov(f.at(8), Operand::imm(0));
    }
    vec![c]
}

/// `v.push_back(x)` — fast path stores through `_Mylast`; slow path calls
/// the reallocation helper.
pub fn push_back(ctx: &VarCtx, rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let val = small_imm(rng);
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    let slow = c.label();
    let done = c.label();
    c.mov(Operand::reg(r0), f.at(4)); // _Mylast        (ref, 4)
    c.mov(Operand::reg(r1), f.at(8)); // _Myend         (ref, 8)
    c.cmp(Operand::reg(r0), Operand::reg(r1));
    c.jump(Opcode::Je, slow);
    // Fast path: *(_Mylast) = x; _Mylast += 4.
    c.mov(Operand::mem_reg(r0, 0), val);
    c.add(Operand::reg(r0), Operand::imm(4));
    c.mov(f.at(4), Operand::reg(r0));
    c.jump(Opcode::Jmp, done);
    // Slow path: _Emplace_realloc(&v, x).
    c.bind(slow);
    c.push(val);
    c.push(ctx.addr());
    c.call(EMPLACE_REALLOC);
    c.clean_args(2);
    c.bind(done);
    vec![c]
}

/// `x = v[i]` — load `_Myfirst`, index off it.
pub fn index_read(ctx: &VarCtx, rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, _) = ctx.scratch();
    let idx = rng.random_range(0..16i64);
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.mov(Operand::reg(r0), f.at(0)); // _Myfirst       (ref, 0)
    c.mov(Operand::reg(Reg::Eax), Operand::mem_reg(r0, idx * 4));
    c.add(Operand::reg(Reg::Eax), Operand::imm(1));
    vec![c]
}

/// `v[i] = x` — store through `_Myfirst`.
pub fn index_write(ctx: &VarCtx, rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, _) = ctx.scratch();
    let idx = rng.random_range(0..16i64);
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.mov(Operand::reg(r0), f.at(0));
    c.mov(Operand::mem_reg(r0, idx * 4), small_imm(rng));
    vec![c]
}

/// `n = v.size()` — `(_Mylast - _Myfirst) >> 2`.
pub fn size(ctx: &VarCtx, _rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.mov(Operand::reg(r0), f.at(4)); // _Mylast
    c.mov(Operand::reg(r1), f.at(0)); // _Myfirst
    c.sub(Operand::reg(r0), Operand::reg(r1));
    c.op(Opcode::Sar, tiara_ir::BinOp::Shr, Operand::reg(r0), Operand::imm(2));
    vec![c]
}

/// `v.pop_back()` — `_Mylast -= 4`.
pub fn pop_back(ctx: &VarCtx, _rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, _) = ctx.scratch();
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.mov(Operand::reg(r0), f.at(4));
    c.sub(Operand::reg(r0), Operand::imm(4));
    c.mov(f.at(4), Operand::reg(r0));
    vec![c]
}

/// `for (auto &x : v) …` — pointer-walk from `_Myfirst` to `_Mylast`.
pub fn iterate(ctx: &VarCtx, style: &Style) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.mov(Operand::reg(r0), f.at(0)); // cursor = _Myfirst
    c.mov(Operand::reg(r1), f.at(4)); // _Mylast
    let top = c.label();
    let done = c.label();
    c.bind(top);
    c.cmp(Operand::reg(r0), Operand::reg(r1));
    c.jump(Opcode::Jae, done);
    c.mov(Operand::reg(Reg::Eax), Operand::mem_reg(r0, 0));
    if style.loop_down {
        c.test(Operand::reg(Reg::Eax), Operand::reg(Reg::Eax));
    } else {
        c.add(Operand::reg(Reg::Eax), Operand::imm(3));
    }
    c.add(Operand::reg(r0), Operand::imm(4));
    c.jump(Opcode::Jmp, top);
    c.bind(done);
    vec![c]
}

/// `v.reserve(n)` — capacity check then the reallocation helper.
pub fn reserve(ctx: &VarCtx, rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let n = rng.random_range(8..64i64);
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    let enough = c.label();
    c.mov(Operand::reg(r0), f.at(8)); // _Myend
    c.mov(Operand::reg(r1), f.at(0)); // _Myfirst
    c.sub(Operand::reg(r0), Operand::reg(r1));
    c.cmp(Operand::reg(r0), Operand::imm(n * 4));
    c.jump(Opcode::Jae, enough);
    c.push(Operand::imm(n));
    c.push(ctx.addr());
    c.call(EMPLACE_REALLOC);
    c.clean_args(2);
    c.bind(enough);
    vec![c]
}

/// `v.clear()` — `_Mylast = _Myfirst`, guarded by the already-empty check
/// (reading `_Mylast` first also keeps the preceding op's header store live,
/// as a real optimizer's DSE would otherwise delete it).
pub fn clear(ctx: &VarCtx, _rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    let skip = c.label();
    c.mov(Operand::reg(r0), f.at(4)); // _Mylast       (ref, 4)
    c.mov(Operand::reg(r1), f.at(0)); // _Myfirst      (ref, 0)
    c.cmp(Operand::reg(r0), Operand::reg(r1));
    c.jump(Opcode::Je, skip);
    c.mov(f.at(4), Operand::reg(r1));
    c.bind(skip);
    vec![c]
}

/// `v.insert(v.begin() + i, x)` — shift the tail right by one element
/// (the memmove loop), then store. Contiguity is the signature: no other
/// container moves elements on insert.
pub fn insert_mid(ctx: &VarCtx, rng: &mut StdRng, style: &Style) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let idx = rng.random_range(0..8i64);
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.mov(Operand::reg(r0), f.at(4)); // cursor = _Mylast       (ref, 4)
    c.mov(Operand::reg(r1), f.at(0)); // _Myfirst               (ref, 0)
    c.add(Operand::reg(r1), Operand::imm(idx * 4)); // insertion point
    let top = c.label();
    let done = c.label();
    c.bind(top);
    c.cmp(Operand::reg(r0), Operand::reg(r1));
    c.jump(Opcode::Jbe, done);
    // *cursor = *(cursor - 1); --cursor (element shift).
    c.mov(Operand::reg(Reg::Eax), Operand::mem_reg(r0, -4));
    c.mov(Operand::mem_reg(r0, 0), Operand::reg(Reg::Eax));
    c.sub(Operand::reg(r0), Operand::imm(4));
    c.jump(Opcode::Jmp, top);
    c.bind(done);
    c.mov(Operand::mem_reg(r1, 0), small_imm(rng));
    // _Mylast += 4.
    let mut c2 = Chunk::new();
    let f2 = ctx.fields(&mut c2);
    c2.mov(Operand::reg(r0), f2.at(4));
    c2.add(Operand::reg(r0), Operand::imm(4));
    c2.mov(f2.at(4), Operand::reg(r0));
    let _ = style;
    vec![c, c2]
}

/// `v = w;` — copy assignment: free the old buffer, malloc a fresh one,
/// copy the source elements (heap churn like the growth path, but reading
/// another object).
pub fn assign_from(ctx: &VarCtx, rng: &mut StdRng) -> Vec<Chunk> {
    let (r0, r1) = ctx.scratch();
    let other = 0x7C800u64 + (rng.random_range(0..64u64) << 5);
    let mut c = Chunk::new();
    let f = ctx.fields(&mut c);
    c.push(f.at(0));
    c.call_extern(tiara_ir::ExternKind::Free);
    c.clean_args(1);
    c.push(Operand::imm(64));
    c.call_extern(tiara_ir::ExternKind::Malloc);
    c.clean_args(1);
    c.mov(f.at(0), Operand::reg(Reg::Eax));
    c.mov(Operand::reg(r0), Operand::reg(Reg::Eax));
    // Copy from the source vector's buffer.
    c.mov(Operand::reg(r1), Operand::mem_abs(other, 0));
    let top = c.label();
    let done = c.label();
    c.bind(top);
    c.cmp(Operand::reg(r1), Operand::mem_abs(other, 4));
    c.jump(Opcode::Jae, done);
    c.mov(Operand::reg(Reg::Edx), Operand::mem_reg(r1, 0));
    c.mov(Operand::mem_reg(r0, 0), Operand::reg(Reg::Edx));
    c.add(Operand::reg(r0), Operand::imm(4));
    c.add(Operand::reg(r1), Operand::imm(4));
    c.jump(Opcode::Jmp, top);
    c.bind(done);
    c.mov(f.at(4), Operand::reg(r0));
    vec![c]
}

/// Picks a random vector operation, weighted towards `push_back`, biased
/// further by the project's habits.
pub fn random_op(ctx: &VarCtx, rng: &mut StdRng, style: &Style) -> Vec<Chunk> {
    let w = super::op_weights(style, 2, &[5, 1, 1, 2, 1, 1, 1, 1, 1, 1]);
    match super::weighted_pick(rng, &w) {
        0 => push_back(ctx, rng),
        1 => index_read(ctx, rng),
        2 => index_write(ctx, rng),
        3 => size(ctx, rng),
        4 => pop_back(ctx, rng),
        5 => iterate(ctx, style),
        6 => reserve(ctx, rng),
        7 => insert_mid(ctx, rng, style),
        8 => assign_from(ctx, rng),
        _ => clear(ctx, rng),
    }
}
