//! Integer semantics, decided once.
//!
//! Every evaluator of Lucid integers calls this module: the AST walker,
//! the bytecode executor, the constant evaluator (`const` initializers
//! and the backend's folds) and the memop evaluator (the stateful ALU).
//! A value is an unsigned `u64` together with its bit width, and every
//! operator masks its own result to that width, the way a fixed-width
//! data-plane register does. What the width of a value *is* — in
//! particular the width of an unsuffixed literal — is the checker's
//! decision, made before anything runs.
//!
//! The rules written here and nowhere else:
//! - the result of an arithmetic or bitwise operator has the wider
//!   operand's width; a shift keeps the shifted operand's width;
//! - a shift count at or past that width clears the value (it does not
//!   wrap the count);
//! - division and modulo by zero give 0;
//! - comparisons and the connectives compare values only and give a
//!   1-bit boolean.

use lucid_frontend::ast::{BinOp, UnOp};

/// Truncate `v` to `width` bits.
#[inline]
pub fn mask(v: u64, width: u32) -> u64 {
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// `a op b` for operands of widths `wa` and `wb`: the result and its
/// width. Comparisons and `&&`/`||` yield 0 or 1 at width 1.
///
/// Always inlined: the bytecode executor's `Bin` runs it once per
/// instruction, and a call there costs more than the operator.
#[inline(always)]
pub fn binop(op: BinOp, a: u64, wa: u32, b: u64, wb: u32) -> (u64, u32) {
    let w = match op {
        BinOp::Shl | BinOp::Shr => wa,
        _ => wa.max(wb),
    };
    let v = match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Mod => a.checked_rem(b).unwrap_or(0),
        BinOp::BitAnd => a & b,
        BinOp::BitOr => a | b,
        BinOp::BitXor => a ^ b,
        BinOp::Shl if b < u64::from(w) => a.wrapping_shl(b as u32),
        BinOp::Shr if b < u64::from(w) => a.wrapping_shr(b as u32),
        BinOp::Shl | BinOp::Shr => 0,
        BinOp::And => return (u64::from(a != 0 && b != 0), 1),
        BinOp::Or => return (u64::from(a != 0 || b != 0), 1),
        cmp_op => return (u64::from(cmp(cmp_op, a, b)), 1),
    };
    (mask(v, w), w)
}

/// One comparison. Widths do not take part: the checker only admits
/// operands of equal width.
#[inline(always)]
pub fn cmp(op: BinOp, a: u64, b: u64) -> bool {
    match op {
        BinOp::Eq => a == b,
        BinOp::Neq => a != b,
        BinOp::Lt => a < b,
        BinOp::Gt => a > b,
        BinOp::Le => a <= b,
        BinOp::Ge => a >= b,
        other => unreachable!("`{other}` is not a comparison"),
    }
}

/// `op a` for an operand of width `w`: the result and its width. `!`
/// yields 0 or 1 at width 1.
#[inline(always)]
pub fn unop(op: UnOp, a: u64, w: u32) -> (u64, u32) {
    match op {
        UnOp::Not => (u64::from(a == 0), 1),
        UnOp::Neg => (mask(a.wrapping_neg(), w), w),
        UnOp::BitNot => (mask(!a, w), w),
    }
}
