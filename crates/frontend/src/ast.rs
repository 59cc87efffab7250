//! Abstract syntax tree for Lucid programs.
//!
//! The tree mirrors the surface language of the paper (§3–§5): a program is
//! a sequence of declarations — constants, global arrays, events, handlers,
//! functions, and memops — whose bodies are C-like statements over a small
//! expression language plus the builtin `Array`, `Event`, and `Sys` modules.
//!
//! Every node carries a [`Span`] for diagnostics. Nodes synthesized by later
//! phases use [`Span::DUMMY`].

use crate::span::Span;
use std::fmt;
use std::sync::OnceLock;

/// An identifier with its source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ident {
    pub name: String,
    pub span: Span,
}

impl Ident {
    pub fn new(name: impl Into<String>, span: Span) -> Self {
        Ident {
            name: name.into(),
            span,
        }
    }

    /// An identifier with a dummy span, for compiler-synthesized names.
    pub fn synth(name: impl Into<String>) -> Self {
        Ident {
            name: name.into(),
            span: Span::DUMMY,
        }
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Surface types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ty {
    /// `int<<w>>`; plain `int` is `Int(32)`.
    Int(u32),
    Bool,
    Void,
    /// The type of event values (before they are generated).
    Event,
    /// A multicast group of switch locations.
    Group,
    /// `Array<<w>>` — passed to functions by reference. The length is not
    /// part of the type; it is fixed at the `global` declaration.
    Array(u32),
}

impl Ty {
    /// Bit width of an integer type, if this is one.
    pub fn int_width(self) -> Option<u32> {
        match self {
            Ty::Int(w) => Some(w),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int(32) => write!(f, "int"),
            Ty::Int(w) => write!(f, "int<<{w}>>"),
            Ty::Bool => write!(f, "bool"),
            Ty::Void => write!(f, "void"),
            Ty::Event => write!(f, "event"),
            Ty::Group => write!(f, "group"),
            Ty::Array(w) => write!(f, "Array<<{w}>>"),
        }
    }
}

/// A formal parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    pub ty: Ty,
    pub name: Ident,
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Neq,
    Lt,
    Gt,
    Le,
    Ge,
    And,
    Or,
}

impl BinOp {
    /// True for operators whose result is `bool`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge
        )
    }

    /// True for the boolean connectives `&&` and `||`.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or)
    }

    /// The comparison that holds with the operands swapped: `a < b` is
    /// `b > a`. Operators other than comparisons come back unchanged.
    pub fn mirrored(self) -> BinOp {
        use BinOp::*;
        match self {
            Lt => Gt,
            Gt => Lt,
            Le => Ge,
            Ge => Le,
            other => other,
        }
    }

    /// The comparison that holds exactly when this one does not: `a < b`
    /// fails exactly when `a >= b` holds. Operators other than
    /// comparisons come back unchanged.
    pub fn negated(self) -> BinOp {
        use BinOp::*;
        match self {
            Eq => Neq,
            Neq => Eq,
            Lt => Ge,
            Ge => Lt,
            Gt => Le,
            Le => Gt,
            other => other,
        }
    }

    /// True when `a op b` equals `b op a` for all operands, including
    /// the result width (the wider operand's).
    pub fn commutes(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Add | Mul | BitAnd | BitOr | BitXor | Eq | Neq | And | Or
        )
    }

    /// True for operators a single stateful ALU can evaluate on its operand
    /// pair (§4.2): add, subtract, and the bitwise ops. Multiplication,
    /// division, modulo, and shifts by non-constants are not sALU ops.
    pub fn salu_supported(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor
        )
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::BitAnd => "&",
            BinOp::BitOr => "|",
            BinOp::BitXor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Neq => "!=",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical `!`.
    Not,
    /// Arithmetic negation `-`.
    Neg,
    /// Bitwise complement `~`.
    BitNot,
}

impl UnOp {
    pub fn symbol(self) -> &'static str {
        match self {
            UnOp::Not => "!",
            UnOp::Neg => "-",
            UnOp::BitNot => "~",
        }
    }
}

/// Builtin module operations (`Array.*`, `Event.*`, `Sys.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Builtin {
    /// `Array.get(arr, idx)` — plain read.
    ArrayGet,
    /// `Array.getm(arr, idx, memop, arg)` — read through a memop. The paper
    /// also spells this `Array.get(arr, idx, memop, arg)`; the parser
    /// normalizes the 4-argument form to `ArrayGetm`.
    ArrayGetm,
    /// `Array.set(arr, idx, v)` — plain write.
    ArraySet,
    /// `Array.setm(arr, idx, memop, arg)` — write `memop(mem, arg)`.
    ArraySetm,
    /// `Array.update(arr, idx, getop, getarg, setop, setarg)` — parallel
    /// read-and-write: returns `getop(mem, getarg)` and stores
    /// `setop(mem, setarg)`.
    ArrayUpdate,
    /// `Event.delay(ev, microseconds)`.
    EventDelay,
    /// `Event.locate(ev, switch_id)`.
    EventLocate,
    /// `Event.mlocate(ev, group)` — locate at every member of a group.
    EventMLocate,
    /// `Sys.time()` — current time in nanoseconds, truncated to 32 bits.
    SysTime,
    /// `Sys.self()` — this switch's identifier. The bare identifier `SELF`
    /// resolves to the same thing.
    SysSelf,
    /// `Sys.port()` — ingress port of the packet that carried this event.
    SysPort,
}

impl Builtin {
    /// Parse a dotted path into a builtin.
    pub fn from_path(path: &str) -> Option<Builtin> {
        Some(match path {
            "Array.get" => Builtin::ArrayGet,
            "Array.getm" => Builtin::ArrayGetm,
            "Array.set" => Builtin::ArraySet,
            "Array.setm" => Builtin::ArraySetm,
            "Array.update" => Builtin::ArrayUpdate,
            "Event.delay" => Builtin::EventDelay,
            "Event.locate" => Builtin::EventLocate,
            "Event.mlocate" => Builtin::EventMLocate,
            "Sys.time" => Builtin::SysTime,
            "Sys.self" => Builtin::SysSelf,
            "Sys.port" => Builtin::SysPort,
            _ => return None,
        })
    }

    pub fn path(self) -> &'static str {
        match self {
            Builtin::ArrayGet => "Array.get",
            Builtin::ArrayGetm => "Array.getm",
            Builtin::ArraySet => "Array.set",
            Builtin::ArraySetm => "Array.setm",
            Builtin::ArrayUpdate => "Array.update",
            Builtin::EventDelay => "Event.delay",
            Builtin::EventLocate => "Event.locate",
            Builtin::EventMLocate => "Event.mlocate",
            Builtin::SysTime => "Sys.time",
            Builtin::SysSelf => "Sys.self",
            Builtin::SysPort => "Sys.port",
        }
    }

    /// True for the builtins that touch a global array (and therefore
    /// participate in the ordered type-and-effect discipline of §5).
    pub fn is_array_op(self) -> bool {
        matches!(
            self,
            Builtin::ArrayGet
                | Builtin::ArrayGetm
                | Builtin::ArraySet
                | Builtin::ArraySetm
                | Builtin::ArrayUpdate
        )
    }
}

/// Expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expr {
    pub kind: ExprKind,
    pub span: Span,
}

impl Expr {
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// An integer literal with a dummy span.
    pub fn synth_int(value: u64) -> Self {
        let width = OnceLock::new();
        Expr::new(ExprKind::Int { value, width }, Span::DUMMY)
    }

    /// A variable reference with a dummy span.
    pub fn synth_var(name: impl Into<String>) -> Self {
        Expr::new(ExprKind::Var(Ident::synth(name)), Span::DUMMY)
    }
}

/// The different kinds of expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExprKind {
    /// Integer literal. Its width is decided once, by the checker, which
    /// writes into `width` the width it infers when it first types the
    /// literal; a literal it never reaches (in a function no handler
    /// calls) keeps an empty `width`.
    Int {
        value: u64,
        width: OnceLock<u32>,
    },
    Bool(bool),
    Var(Ident),
    Unary {
        op: UnOp,
        arg: Box<Expr>,
    },
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// Call to a user function, a declared event constructor, or a memop
    /// (memops are only callable from `Array` method argument position; the
    /// checker enforces this).
    Call {
        callee: Ident,
        args: Vec<Expr>,
    },
    /// Call to a builtin module operation.
    BuiltinCall {
        builtin: Builtin,
        args: Vec<Expr>,
        span_path: Span,
    },
    /// `hash<<w>>(seed, e1, .., en)` — a w-bit hash of the arguments.
    Hash {
        width: u32,
        args: Vec<Expr>,
    },
    /// `(int<<w>>) e` — truncating/zero-extending cast.
    Cast {
        width: u32,
        arg: Box<Expr>,
    },
}

/// A block of statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub span: Span,
}

impl Block {
    pub fn new(stmts: Vec<Stmt>, span: Span) -> Self {
        Block { stmts, span }
    }
}

/// Statement node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    pub kind: StmtKind,
    pub span: Span,
}

/// The different kinds of statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StmtKind {
    /// `ty x = e;` — local binding. `auto` infers the type.
    Local {
        ty: Option<Ty>,
        name: Ident,
        init: Expr,
    },
    /// `x = e;` — assignment to a local.
    Assign { name: Ident, value: Expr },
    /// `if (c) { .. } else { .. }`.
    If {
        cond: Expr,
        then_blk: Block,
        else_blk: Option<Block>,
    },
    /// `generate e;` — schedule an event (possibly located/delayed).
    Generate(Expr),
    /// `mgenerate e;` — schedule an event at every member of its group
    /// location.
    MGenerate(Expr),
    /// `return;` / `return e;`.
    Return(Option<Expr>),
    /// `printf("fmt", args..);` — interpreter-only output, ignored by the
    /// hardware backend.
    Printf { fmt: String, args: Vec<Expr> },
    /// Expression evaluated for its effect (e.g. `Array.set(..)`).
    Expr(Expr),
}

/// Top-level declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decl {
    pub kind: DeclKind,
    pub span: Span,
}

/// The different kinds of declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeclKind {
    /// `const ty NAME = e;`
    Const { ty: Ty, name: Ident, value: Expr },
    /// `const group NAME = {1, 2};`
    Group { name: Ident, members: Vec<Expr> },
    /// `global name = new Array<<w>>(size);` — persistent state. The
    /// *declaration order* of globals defines the pipeline stage order that
    /// the type-and-effect system enforces (§5.1).
    GlobalArray {
        name: Ident,
        cell_width: u32,
        size: Expr,
    },
    /// `event name(params);`
    Event { name: Ident, params: Vec<Param> },
    /// `handle name(params) { .. }`
    Handler {
        name: Ident,
        params: Vec<Param>,
        body: Block,
    },
    /// `fun ty name(params) { .. }`
    Fun {
        ret_ty: Ty,
        name: Ident,
        params: Vec<Param>,
        body: Block,
    },
    /// `memop name(int a, int b) { .. }` — restricted per §4.2.
    Memop {
        name: Ident,
        params: Vec<Param>,
        body: Block,
    },
}

impl DeclKind {
    /// The declared name, for symbol-table construction.
    pub fn name(&self) -> &Ident {
        match self {
            DeclKind::Const { name, .. }
            | DeclKind::Group { name, .. }
            | DeclKind::GlobalArray { name, .. }
            | DeclKind::Event { name, .. }
            | DeclKind::Handler { name, .. }
            | DeclKind::Fun { name, .. }
            | DeclKind::Memop { name, .. } => name,
        }
    }
}

/// A complete parsed program.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    pub decls: Vec<Decl>,
}

impl Program {
    /// Iterate over global array declarations in declaration order.
    pub fn globals(&self) -> impl Iterator<Item = (&Ident, u32, &Expr)> {
        self.decls.iter().filter_map(|d| match &d.kind {
            DeclKind::GlobalArray {
                name,
                cell_width,
                size,
            } => Some((name, *cell_width, size)),
            _ => None,
        })
    }

    /// Iterate over event declarations.
    pub fn events(&self) -> impl Iterator<Item = (&Ident, &Vec<Param>)> {
        self.decls.iter().filter_map(|d| match &d.kind {
            DeclKind::Event { name, params } => Some((name, params)),
            _ => None,
        })
    }

    /// Iterate over handler declarations.
    pub fn handlers(&self) -> impl Iterator<Item = (&Ident, &Vec<Param>, &Block)> {
        self.decls.iter().filter_map(|d| match &d.kind {
            DeclKind::Handler { name, params, body } => Some((name, params, body)),
            _ => None,
        })
    }

    /// Find a declaration by name.
    pub fn find(&self, name: &str) -> Option<&Decl> {
        self.decls.iter().find(|d| d.kind.name().name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ty_display_matches_surface_syntax() {
        assert_eq!(Ty::Int(32).to_string(), "int");
        assert_eq!(Ty::Int(16).to_string(), "int<<16>>");
        assert_eq!(Ty::Array(32).to_string(), "Array<<32>>");
    }

    #[test]
    fn builtin_path_roundtrip() {
        for b in [
            Builtin::ArrayGet,
            Builtin::ArrayGetm,
            Builtin::ArraySet,
            Builtin::ArraySetm,
            Builtin::ArrayUpdate,
            Builtin::EventDelay,
            Builtin::EventLocate,
            Builtin::EventMLocate,
            Builtin::SysTime,
            Builtin::SysSelf,
            Builtin::SysPort,
        ] {
            assert_eq!(Builtin::from_path(b.path()), Some(b));
        }
        assert_eq!(Builtin::from_path("Array.frobnicate"), None);
    }

    #[test]
    fn salu_supported_ops() {
        assert!(BinOp::Add.salu_supported());
        assert!(BinOp::BitXor.salu_supported());
        assert!(!BinOp::Mul.salu_supported());
        assert!(!BinOp::Shl.salu_supported());
    }

    #[test]
    fn program_globals_in_declaration_order() {
        let mk = |n: &str| Decl {
            kind: DeclKind::GlobalArray {
                name: Ident::synth(n),
                cell_width: 32,
                size: Expr::synth_int(8),
            },
            span: Span::DUMMY,
        };
        let p = Program {
            decls: vec![mk("a"), mk("b")],
        };
        let names: Vec<_> = p.globals().map(|(n, _, _)| n.name.clone()).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
