//! Integer semantics, decided once.
//!
//! Every evaluator of Lucid integers calls this module: the AST walker,
//! the bytecode executor, the constant evaluator (`const` initializers
//! and the backend's folds) and the memop evaluator (the stateful ALU).
//! A value is an unsigned `u64`, and every operator masks its own result
//! to the result's bit width, the way a fixed-width data-plane register
//! does. What that width *is* — the width of every literal, variable and
//! operator result — is the checker's decision, made before anything
//! runs, so the callers pass it in and nothing here joins two widths.
//!
//! The rules written here and nowhere else:
//! - a shift count at or past the shifted operand's width clears the
//!   value (it does not wrap the count);
//! - division and modulo by zero give 0;
//! - comparisons and the connectives compare values only and give 0
//!   or 1.

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

/// `a op b` at result width `w`: the width both operands have, or for a
/// shift the shifted operand's (the count `b` may be any width).
/// Comparisons and `&&`/`||` yield 0 or 1.
///
/// Always inlined: the bytecode executor's `Bin` runs it once per
/// instruction, and a call there costs more than the operator.
#[inline(always)]
pub fn binop(op: BinOp, a: u64, b: u64, w: u32) -> u64 {
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
        BinOp::And => return u64::from(a != 0 && b != 0),
        BinOp::Or => return u64::from(a != 0 || b != 0),
        cmp_op => return u64::from(cmp(cmp_op, a, b)),
    };
    mask(v, w)
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

/// `op a` for an operand of width `w`, which is also the result's. `!`
/// yields 0 or 1.
#[inline(always)]
pub fn unop(op: UnOp, a: u64, w: u32) -> u64 {
    match op {
        UnOp::Not => u64::from(a == 0),
        UnOp::Neg => mask(a.wrapping_neg(), w),
        UnOp::BitNot => mask(!a, w),
    }
}
