//! Backend intermediate representation: *atomic tables* (§6.1).
//!
//! After inlining and subexpression elimination, a handler body is a set of
//! statements that are each simple enough to execute with at most one
//! Tofino ALU. Each statement becomes one **atomic table**:
//!
//! * an *operation table* — one ALU op over two operands into a local;
//! * a *memory operation table* — one stateful-ALU access to one register
//!   array (a direct translation of an `Array` method call);
//! * (*branch tables* exist only transiently: the first optimization of
//!   §6.2 inlines every branch condition into its dependent tables' match
//!   rules, so this IR stores each table's **guard** — the conjunction of
//!   branch conditions on its control path — instead of explicit branch
//!   nodes. The pre-optimization table count is tracked separately for the
//!   Figure 12 comparison.)

use lucid_check::GlobalId;
use lucid_frontend::ast::{BinOp, UnOp};
use std::fmt;

/// An operand of an atomic operation: a handler-local variable (P4
/// metadata) or a compile-time constant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operand {
    Var(String),
    Const(u64),
}

impl Operand {
    pub fn var_name(&self) -> Option<&str> {
        match self {
            Operand::Var(v) => Some(v),
            Operand::Const(_) => None,
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Var(v) => write!(f, "{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// The stateful part of a memory-operation table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemKind {
    /// Plain read into `dst`.
    Get,
    /// Read through a memop: `dst = memop(mem, arg)`.
    Getm { memop: String, arg: Operand },
    /// Plain write.
    Set { value: Operand },
    /// Write through a memop: `mem = memop(mem, arg)`.
    Setm { memop: String, arg: Operand },
    /// Parallel read+write: `dst = getop(mem, getarg); mem = setop(mem, setarg)`.
    Update {
        getop: String,
        getarg: Operand,
        setop: String,
        setarg: Operand,
    },
}

impl MemKind {
    /// Does this operation produce a value?
    pub fn reads(&self) -> bool {
        matches!(
            self,
            MemKind::Get | MemKind::Getm { .. } | MemKind::Update { .. }
        )
    }

    pub fn operands(&self) -> Vec<&Operand> {
        match self {
            MemKind::Get => vec![],
            MemKind::Getm { arg, .. } | MemKind::Setm { arg, .. } => vec![arg],
            MemKind::Set { value } => vec![value],
            MemKind::Update { getarg, setarg, .. } => vec![getarg, setarg],
        }
    }
}

/// Where a generated event is sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocSpec {
    /// Recirculate to this switch.
    Here,
    /// Unicast to a switch id.
    Switch(Operand),
    /// Multicast to a compile-time group.
    Group(Vec<u64>),
}

/// One atomic operation (the body of one atomic table).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AtomicOp {
    /// `dst = src` — a copy (often folded away).
    Mov { dst: String, src: Operand },
    /// `dst = a op b` — one ALU op. Comparison operators produce 0/1.
    Bin {
        dst: String,
        op: BinOp,
        a: Operand,
        b: Operand,
    },
    /// `dst = op a`.
    Un { dst: String, op: UnOp, a: Operand },
    /// `dst = hash<<w>>(seed, args..)` — one hash-engine invocation.
    Hash {
        dst: String,
        width: u32,
        seed: u64,
        args: Vec<Operand>,
    },
    /// One stateful-ALU access to `array`.
    Mem {
        dst: Option<String>,
        array: GlobalId,
        index: Operand,
        kind: MemKind,
    },
    /// Emit an event packet (serializer + dispatcher handle the rest).
    Generate {
        event_id: usize,
        event_name: String,
        args: Vec<Operand>,
        /// Extra delay in µs, if any.
        delay: Option<Operand>,
        location: LocSpec,
    },
}

impl AtomicOp {
    /// The local variable this op writes, if any.
    pub fn def(&self) -> Option<&str> {
        match self {
            AtomicOp::Mov { dst, .. }
            | AtomicOp::Bin { dst, .. }
            | AtomicOp::Un { dst, .. }
            | AtomicOp::Hash { dst, .. } => Some(dst),
            AtomicOp::Mem { dst, .. } => dst.as_deref(),
            AtomicOp::Generate { .. } => None,
        }
    }

    /// Every local variable this op reads.
    pub fn uses(&self) -> Vec<&str> {
        let mut operands: Vec<&Operand> = Vec::new();
        match self {
            AtomicOp::Mov { src, .. } => operands.push(src),
            AtomicOp::Bin { a, b, .. } => {
                operands.push(a);
                operands.push(b);
            }
            AtomicOp::Un { a, .. } => operands.push(a),
            AtomicOp::Hash { args, .. } => operands.extend(args.iter()),
            AtomicOp::Mem { index, kind, .. } => {
                operands.push(index);
                operands.extend(kind.operands());
            }
            AtomicOp::Generate {
                args,
                delay,
                location,
                ..
            } => {
                operands.extend(args.iter());
                if let Some(d) = delay {
                    operands.push(d);
                }
                if let LocSpec::Switch(s) = location {
                    operands.push(s);
                }
            }
        }
        let mut out: Vec<&str> = Vec::new();
        for o in operands {
            if let Some(v) = o.var_name() {
                out_push(&mut out, v);
            }
        }
        out
    }

    /// The register array this op touches, if it is a memory op.
    pub fn array(&self) -> Option<GlobalId> {
        match self {
            AtomicOp::Mem { array, .. } => Some(*array),
            _ => None,
        }
    }

    /// Number of stateful ALUs this table needs.
    pub fn salus(&self) -> usize {
        matches!(self, AtomicOp::Mem { .. }) as usize
    }

    /// Number of plain action-ALU slots this table needs.
    pub fn action_slots(&self) -> usize {
        match self {
            AtomicOp::Mem { .. } => 0,
            // An event generation writes the event header fields: one PHV
            // move per argument (plus id/delay fields, amortized).
            AtomicOp::Generate { args, .. } => args.len().max(1),
            _ => 1,
        }
    }
}

// Tiny helper: push without duplicates, preserving order.
fn out_push<'a>(v: &mut Vec<&'a str>, s: &'a str) {
    if !v.contains(&s) {
        v.push(s);
    }
}

/// One conjunct of a table's guard: a comparison of a variable against a
/// constant, implementable as a static ternary/range match rule (Figure 7's
/// branch table matches `proto` directly). Complex conditions are first
/// materialized into 0/1 temps by operation tables and then guarded as
/// `temp != 0`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cond {
    pub var: String,
    /// A comparison operator (`Eq`, `Neq`, `Lt`, `Gt`, `Le`, `Ge`).
    pub cmp: BinOp,
    pub value: u64,
}

impl Cond {
    /// The logical negation, still expressible as one match rule.
    pub fn negate(&self) -> Cond {
        Cond {
            var: self.var.clone(),
            cmp: self.cmp.negated(),
            value: self.value,
        }
    }

    /// Conservative contradiction test: can `self` and `other` both hold?
    /// Only clearly-contradictory pairs over the same variable return true.
    pub fn contradicts(&self, other: &Cond) -> bool {
        if self.var != other.var {
            return false;
        }
        use BinOp::*;
        match (self.cmp, self.value, other.cmp, other.value) {
            (Eq, a, Eq, b) => a != b,
            (Eq, a, Neq, b) | (Neq, b, Eq, a) => a == b,
            (Lt, a, Ge, b) | (Ge, b, Lt, a) => b >= a,
            (Gt, a, Le, b) | (Le, b, Gt, a) => b <= a,
            (Eq, a, Lt, b) | (Lt, b, Eq, a) => a >= b,
            (Eq, a, Gt, b) | (Gt, b, Eq, a) => a <= b,
            _ => false,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.var, self.cmp.symbol(), self.value)
    }
}

/// One atomic table: an operation plus the control-path guard under which
/// it executes (§6.2 step 1 — "each non-branch table checks the conditions
/// necessary for its own execution using static match-action rules").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicTable {
    /// Dense id within its handler program.
    pub id: usize,
    /// Name of the event/handler this table belongs to.
    pub handler: String,
    pub op: AtomicOp,
    pub guard: Vec<Cond>,
}

impl AtomicTable {
    /// Two tables on the same control path (one guard is a prefix-compatible
    /// extension of the other) can never both be skipped; two tables whose
    /// guards contradict are mutually exclusive.
    pub fn excludes(&self, other: &AtomicTable) -> bool {
        if self.handler != other.handler {
            // Different handlers are dispatched by event type: exclusive.
            return true;
        }
        self.guard
            .iter()
            .any(|c| other.guard.iter().any(|d| c.contradicts(d)))
    }
}

/// A compiled handler: its tables plus bookkeeping for the evaluation.
#[derive(Debug, Clone)]
pub struct HandlerIr {
    pub name: String,
    pub event_id: usize,
    pub tables: Vec<AtomicTable>,
    /// Longest root-to-leaf path of the *unoptimized* table control graph
    /// (operation + memory + branch tables each in their own stage) — the
    /// Figure 12 denominator.
    pub unoptimized_depth: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uses_dedups_and_skips_consts() {
        let op = AtomicOp::Bin {
            dst: "c".into(),
            op: BinOp::Add,
            a: Operand::Var("x".into()),
            b: Operand::Var("x".into()),
        };
        assert_eq!(op.uses(), vec!["x"]);
        assert_eq!(op.def(), Some("c"));
    }

    #[test]
    fn mem_op_counts_one_salu() {
        let op = AtomicOp::Mem {
            dst: Some("v".into()),
            array: GlobalId(0),
            index: Operand::Const(0),
            kind: MemKind::Get,
        };
        assert_eq!(op.salus(), 1);
        assert_eq!(op.action_slots(), 0);
    }

    #[test]
    fn contradictory_guards_exclude() {
        let mk = |cmp| AtomicTable {
            id: 0,
            handler: "h".into(),
            op: AtomicOp::Mov {
                dst: "a".into(),
                src: Operand::Const(1),
            },
            guard: vec![Cond {
                var: "c".into(),
                cmp,
                value: 0,
            }],
        };
        assert!(mk(BinOp::Eq).excludes(&mk(BinOp::Neq)));
        assert!(!mk(BinOp::Eq).excludes(&mk(BinOp::Eq)));
    }

    #[test]
    fn cond_negate_roundtrips() {
        let c = Cond {
            var: "x".into(),
            cmp: BinOp::Lt,
            value: 5,
        };
        assert_eq!(c.negate().negate(), c);
        assert!(c.contradicts(&c.negate()));
    }

    #[test]
    fn distinct_eq_constants_contradict() {
        let a = Cond {
            var: "x".into(),
            cmp: BinOp::Eq,
            value: 1,
        };
        let b = Cond {
            var: "x".into(),
            cmp: BinOp::Eq,
            value: 2,
        };
        assert!(a.contradicts(&b));
        let c = Cond {
            var: "y".into(),
            cmp: BinOp::Eq,
            value: 2,
        };
        assert!(!a.contradicts(&c));
    }

    #[test]
    fn different_handlers_always_exclude() {
        let a = AtomicTable {
            id: 0,
            handler: "h1".into(),
            op: AtomicOp::Mov {
                dst: "a".into(),
                src: Operand::Const(1),
            },
            guard: vec![],
        };
        let mut b = a.clone();
        b.handler = "h2".into();
        assert!(a.excludes(&b));
    }
}
