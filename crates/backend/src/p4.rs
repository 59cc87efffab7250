//! P4_16 code generation (§6) and the line-count classification used by
//! Figures 9 and 10.
//!
//! The emitted program follows the structure the Lucid compiler produces
//! for the Tofino:
//!
//! * one **header** per event carrying its fields, plus the Lucid event
//!   header (event id, delay, location) that the scheduler uses;
//! * a **parser** that walks ethernet → lucid event header → per-event
//!   header;
//! * one **RegisterAction** per memory-operation table — deliberately not
//!   shared between tables, because P4 register actions are bound to one
//!   register. (§7.1 observes this is a major source of P4's verbosity:
//!   "the programmer must manually copy the code every time they want to
//!   repeat the same operation on a different array".)
//! * one **action + table** pair per atomic table, with guard conditions
//!   as static ternary match rules (Figure 7);
//! * the **event scheduler** skeleton: dispatcher in ingress, serializer in
//!   egress (§3.2), emitted as static code;
//! * a deparser.
//!
//! Every emitted line is tagged with a category so that
//! [`P4Loc`] reproduces Figure 10's breakdown.

use crate::ir::*;
use crate::layout::Layout;
use lucid_check::{CheckedProgram, MemopAtom, MemopBody, MemopCell, MemopIr};
use lucid_frontend::ast::BinOp;
use std::fmt::Write as _;

/// Figure 10's line categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    Header,
    Parser,
    Action,
    RegAction,
    Table,
    Control,
}

/// Line counts per category.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct P4Loc {
    pub headers: usize,
    pub parsers: usize,
    pub actions: usize,
    pub reg_actions: usize,
    pub tables: usize,
    pub control: usize,
}

impl P4Loc {
    pub fn total(&self) -> usize {
        self.headers + self.parsers + self.actions + self.reg_actions + self.tables + self.control
    }
}

/// A generated P4 program plus its classified line counts.
#[derive(Debug, Clone)]
pub struct P4Program {
    pub source: String,
    pub loc: P4Loc,
}

/// The output buffer, written one line at a time, and the line count of
/// each category, kept as lines are written.
struct Emitter {
    out: String,
    loc: P4Loc,
    /// The category the next lines count under.
    cat: Category,
}

/// Write one formatted line (no `\n` inside) under the current category.
macro_rules! emit {
    ($e:expr, $($arg:tt)*) => {
        $e.line(format_args!($($arg)*))
    };
}

impl Emitter {
    fn new(tables: usize) -> Self {
        Emitter {
            // The bundled apps' P4 runs ~3.5 KB of fixed text plus ~400
            // bytes per atomic table, so this is usually the only allocation.
            out: String::with_capacity(4096 + 512 * tables),
            loc: P4Loc::default(),
            cat: Category::Control,
        }
    }

    /// Write one non-blank line and count it.
    fn line(&mut self, args: std::fmt::Arguments) {
        let start = self.out.len();
        let _ = self.out.write_fmt(args);
        self.end_line(start);
    }

    /// End the line written into `out` since `start`, and count it.
    fn end_line(&mut self, start: usize) {
        debug_assert!(
            !self.out[start..].contains('\n') && !self.out[start..].trim().is_empty(),
            "one non-blank line at a time: {:?}",
            &self.out[start..]
        );
        self.out.push('\n');
        *match self.cat {
            Category::Header => &mut self.loc.headers,
            Category::Parser => &mut self.loc.parsers,
            Category::Action => &mut self.loc.actions,
            Category::RegAction => &mut self.loc.reg_actions,
            Category::Table => &mut self.loc.tables,
            Category::Control => &mut self.loc.control,
        } += 1;
    }

    /// Write a fixed block of lines.
    fn text(&mut self, block: &str) {
        for l in block.lines() {
            let start = self.out.len();
            self.out.push_str(l);
            self.end_line(start);
        }
    }
}

/// Generate Tofino-style P4_16 for a checked, elaborated, placed program.
pub fn generate(prog: &CheckedProgram, handlers: &[HandlerIr], layout: &Layout) -> P4Program {
    let mut e = Emitter::new(handlers.iter().map(|h| h.tables.len()).sum());
    e.text("#include <core.p4>\n#include <tna.p4>");
    e.text("// generated by lucid-rs (Lucid, SIGCOMM 2021 reproduction)");

    headers(&mut e, prog);
    parser(&mut e, prog);
    registers_and_actions(&mut e, prog, handlers);
    actions_and_tables(&mut e, handlers);
    ingress_apply(&mut e, handlers, layout);
    scheduler(&mut e);
    deparser(&mut e, prog);

    P4Program {
        source: e.out,
        loc: e.loc,
    }
}

fn headers(e: &mut Emitter, prog: &CheckedProgram) {
    e.cat = Category::Header;
    e.text("header ethernet_t {\n    bit<48> dst;\n    bit<48> src;\n    bit<16> ethertype;\n}");
    e.text("header lucid_event_t {\n    bit<16> event_id;\n    bit<32> delay;\n    bit<32> location;\n    bit<8>  mcast_group;\n}");
    for ev in &prog.info.events {
        emit!(e, "header ev_{}_t {{", ev.name);
        for p in &ev.params {
            let w = p.ty.int_width().unwrap_or(32).max(8);
            emit!(e, "    bit<{w}> {};", p.name.name);
        }
        if ev.params.is_empty() {
            emit!(e, "    bit<8> pad;");
        }
        emit!(e, "}}");
    }
    e.text("struct headers_t {\n    ethernet_t ethernet;\n    lucid_event_t lucid;");
    for ev in &prog.info.events {
        emit!(e, "    ev_{}_t ev_{};", ev.name, ev.name);
    }
    emit!(e, "}}");

    // Handler-local metadata: every temp and parameter is a PHV field.
    e.text("struct metadata_t {\n    bit<32> lucid_self;\n    bit<32> lucid_ts;\n    bit<32> lucid_port;\n}");
}

fn parser(e: &mut Emitter, prog: &CheckedProgram) {
    e.cat = Category::Parser;
    e.text("parser LucidParser(packet_in pkt, out headers_t hdr, out metadata_t md,\n                   out ingress_intrinsic_metadata_t ig) {");
    e.text("    state start {\n        pkt.extract(hdr.ethernet);\n        transition select(hdr.ethernet.ethertype) {\n            0x6666: parse_lucid;\n            default: accept;\n        }\n    }");
    e.text("    state parse_lucid {\n        pkt.extract(hdr.lucid);\n        transition select(hdr.lucid.event_id) {");
    for ev in &prog.info.events {
        emit!(e, "            {}: parse_ev_{};", ev.id, ev.name);
    }
    e.text("            default: accept;\n        }\n    }");
    for ev in &prog.info.events {
        emit!(e, "    state parse_ev_{} {{", ev.name);
        emit!(e, "        pkt.extract(hdr.ev_{});", ev.name);
        emit!(e, "        transition accept;");
        emit!(e, "    }}");
    }
    emit!(e, "}}");
}

/// Emit register declarations and one RegisterAction per memory table,
/// named `ra_<handler>_<table id>`.
fn registers_and_actions(e: &mut Emitter, prog: &CheckedProgram, handlers: &[HandlerIr]) {
    e.cat = Category::RegAction;
    for g in &prog.info.globals {
        emit!(
            e,
            "Register<bit<{}>, bit<32>>({}) reg_{};",
            g.cell_width,
            g.len,
            g.name
        );
    }
    for h in handlers {
        for t in &h.tables {
            let AtomicOp::Mem { kind, array, .. } = &t.op else {
                continue;
            };
            let g = &prog.info.globals[array.0];
            let w = g.cell_width;
            emit!(
                e,
                "RegisterAction<bit<{w}>, bit<32>, bit<{w}>>(reg_{}) ra_{}_{} = {{",
                g.name,
                h.name,
                t.id
            );
            emit!(e, "    void apply(inout bit<{w}> mem, out bit<{w}> rv) {{");
            reg_action_body(e, prog, kind);
            emit!(e, "    }}");
            emit!(e, "}};");
        }
    }
}

fn reg_action_body(e: &mut Emitter, prog: &CheckedProgram, kind: &MemKind) {
    let memop = |name: &str| prog.memops.get(name).expect("validated memop");
    match kind {
        MemKind::Get => emit!(e, "        rv = mem;"),
        MemKind::Getm { memop: m, arg } => memop_code(e, memop(m), "rv", arg),
        MemKind::Set { value } => emit!(e, "        mem = {};", P4Operand(value)),
        MemKind::Setm { memop: m, arg } => memop_code(e, memop(m), "mem", arg),
        MemKind::Update {
            getop,
            getarg,
            setop,
            setarg,
        } => {
            memop_code(e, memop(getop), "rv", getarg);
            memop_code(e, memop(setop), "mem", setarg);
        }
    }
}

/// Translate a validated memop into the body of a RegisterAction assignment
/// to `target` — this is the direct consequence of the §4.2 guarantee:
/// every memop fits one sALU, so the translation is local and total.
fn memop_code(e: &mut Emitter, m: &MemopIr, target: &str, local: &Operand) {
    let atom = |a| Atom(a, local);
    let cell = |c| Cell(c, local);
    match &m.body {
        MemopBody::Return(c) => emit!(e, "        {target} = {};", cell(c)),
        MemopBody::Cond {
            lhs,
            cmp,
            rhs,
            then_val,
            else_val,
        } => {
            emit!(
                e,
                "        if ({} {} {}) {{",
                atom(lhs),
                cmp.symbol(),
                atom(rhs)
            );
            if_else_arms(e, target, cell(then_val), cell(else_val));
        }
        MemopBody::CondCompound {
            and,
            a,
            b,
            then_val,
            else_val,
        } => {
            emit!(
                e,
                "        if ({} {} {} {} {} {} {}) {{",
                atom(&a.0),
                a.1.symbol(),
                atom(&a.2),
                if *and { "&&" } else { "||" },
                atom(&b.0),
                b.1.symbol(),
                atom(&b.2)
            );
            if_else_arms(e, target, cell(then_val), cell(else_val));
        }
    }
}

fn if_else_arms(e: &mut Emitter, target: &str, then_val: Cell, else_val: Cell) {
    emit!(e, "            {target} = {then_val};");
    emit!(e, "        }} else {{");
    emit!(e, "            {target} = {else_val};");
    emit!(e, "        }}");
}

/// A memop atom as P4: the register cell, the table's argument, or a
/// constant.
struct Atom<'a>(&'a MemopAtom, &'a Operand);

impl std::fmt::Display for Atom<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            MemopAtom::Mem => f.write_str("mem"),
            MemopAtom::Local => P4Operand(self.1).fmt(f),
            MemopAtom::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A memop cell expression as P4.
struct Cell<'a>(&'a MemopCell, &'a Operand);

impl std::fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            MemopCell::Atom(a) => Atom(a, self.1).fmt(f),
            MemopCell::Binop { op, lhs, rhs } => write!(
                f,
                "{} {} {}",
                Atom(lhs, self.1),
                op.symbol(),
                Atom(rhs, self.1)
            ),
        }
    }
}

/// Render one guard conjunct as a match pattern: exact values for `==`,
/// range syntax for order comparisons, and a ternary wildcard-with-priority
/// encoding for `!=` (the Tofino idiom: entry for the excluded value maps
/// to nop, wildcard falls through — see Figure 7's branch table).
struct GuardPattern<'a>(&'a Cond);

impl std::fmt::Display for GuardPattern<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let c = self.0;
        match c.cmp {
            BinOp::Eq => write!(f, "{}", c.value),
            BinOp::Neq => write!(f, "_ /* != {} via prio rule */", c.value),
            BinOp::Lt => write!(f, "0..{}", c.value.saturating_sub(1)),
            BinOp::Le => write!(f, "0..{}", c.value),
            BinOp::Gt => write!(f, "{}..max", c.value + 1),
            BinOp::Ge => write!(f, "{}..max", c.value),
            _ => f.write_str("_"),
        }
    }
}

/// An operand as P4: a metadata field or a constant.
struct P4Operand<'a>(&'a Operand);

impl std::fmt::Display for P4Operand<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            Operand::Var(v) => write!(f, "md.{v}"),
            Operand::Const(c) => write!(f, "{c}"),
        }
    }
}

/// `items` rendered by `show` and joined with `, `.
struct Joined<'a, T, D>(&'a [T], fn(&'a T) -> D);

impl<'a, T, D: std::fmt::Display> std::fmt::Display for Joined<'a, T, D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, item) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            (self.1)(item).fmt(f)?;
        }
        Ok(())
    }
}

/// Emit action `do_<handler>_<id>` + table `tbl_<handler>_<id>` per
/// atomic table.
fn actions_and_tables(e: &mut Emitter, handlers: &[HandlerIr]) {
    for h in handlers {
        for t in &h.tables {
            let (hn, id) = (&h.name, t.id);
            e.cat = Category::Action;
            emit!(e, "action do_{hn}_{id}() {{");
            match &t.op {
                AtomicOp::Mov { dst, src } => emit!(e, "    md.{dst} = {};", P4Operand(src)),
                AtomicOp::Bin { dst, op, a, b } => match op {
                    BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => {
                        emit!(
                            e,
                            "    md.{dst} = (bit<32>)(({} {} {}) ? 1w1 : 1w0);",
                            P4Operand(a),
                            op.symbol(),
                            P4Operand(b)
                        );
                    }
                    _ => emit!(
                        e,
                        "    md.{dst} = {} {} {};",
                        P4Operand(a),
                        op.symbol(),
                        P4Operand(b)
                    ),
                },
                AtomicOp::Un { dst, op, a } => {
                    emit!(e, "    md.{dst} = {}{};", op.symbol(), P4Operand(a));
                }
                AtomicOp::Hash {
                    dst,
                    width,
                    seed,
                    args,
                } => emit!(
                    e,
                    "    md.{dst} = (bit<32>)hash_{width}_{seed}.get({{{}}});",
                    Joined(args, P4Operand)
                ),
                AtomicOp::Mem { dst, index, .. } => match dst {
                    Some(d) => emit!(
                        e,
                        "    md.{d} = (bit<32>)ra_{hn}_{id}.execute({});",
                        P4Operand(index)
                    ),
                    None => emit!(e, "    ra_{hn}_{id}.execute({});", P4Operand(index)),
                },
                AtomicOp::Generate {
                    event_id,
                    event_name,
                    args,
                    delay,
                    location,
                } => {
                    let start = e.out.len();
                    let _ = write!(
                        e.out,
                        "    hdr.lucid.setValid(); hdr.lucid.event_id = {event_id}; hdr.ev_{event_name}.setValid();"
                    );
                    for (i, a) in args.iter().enumerate() {
                        let _ = write!(e.out, " hdr.ev_{event_name}.f{i} = {};", P4Operand(a));
                    }
                    match delay {
                        Some(d) => {
                            let _ = write!(e.out, " hdr.lucid.delay = {};", P4Operand(d));
                        }
                        None => e.out.push_str(" hdr.lucid.delay = 0;"),
                    }
                    match location {
                        LocSpec::Here => e.out.push_str(" hdr.lucid.location = md.lucid_self;"),
                        LocSpec::Switch(o) => {
                            let _ = write!(e.out, " hdr.lucid.location = {};", P4Operand(o));
                        }
                        LocSpec::Group(g) => {
                            let _ = write!(e.out, " hdr.lucid.mcast_group = {};", g.len());
                        }
                    }
                    e.end_line(start);
                }
            }
            emit!(e, "}}");
            // Table: guard conditions become static ternary rules (§6.2,
            // Figure 7 right).
            e.cat = Category::Table;
            emit!(e, "table tbl_{hn}_{id} {{");
            if t.guard.is_empty() {
                emit!(e, "    actions = {{ do_{hn}_{id}; }}");
                emit!(e, "    const default_action = do_{hn}_{id}();");
            } else {
                emit!(e, "    key = {{");
                for c in &t.guard {
                    emit!(e, "        md.{}: ternary;", c.var);
                }
                emit!(e, "    }}");
                emit!(e, "    actions = {{ do_{hn}_{id}; nop; }}");
                emit!(e, "    const entries = {{");
                emit!(
                    e,
                    "        ({}): do_{hn}_{id}();",
                    Joined(&t.guard, GuardPattern)
                );
                emit!(e, "    }}");
                emit!(e, "    const default_action = nop();");
            }
            emit!(e, "}}");
        }
    }
}

fn ingress_apply(e: &mut Emitter, handlers: &[HandlerIr], layout: &Layout) {
    e.cat = Category::Control;
    e.text("control LucidIngress(inout headers_t hdr, inout metadata_t md,\n                     in ingress_intrinsic_metadata_t ig) {\n    action nop() { }\n    apply {\n        // event dispatcher (static scheduler code)\n        lucid_dispatch.apply();");
    // Apply tables stage by stage so the textual order matches placement.
    let stages = layout
        .placements
        .iter()
        .map(|p| p.stage + 1)
        .max()
        .unwrap_or(0);
    for stage in 0..stages {
        let mut placed = layout.placements.iter().filter(|p| p.stage == stage);
        let Some(first) = placed.next() else {
            continue;
        };
        emit!(e, "        // --- stage {stage} ---");
        for p in std::iter::once(first).chain(placed) {
            emit!(
                e,
                "        tbl_{}_{}.apply();",
                handlers[p.handler].name,
                p.table
            );
        }
    }
    e.text("    }\n}");
}

/// The event scheduler's static code (§3.2): dispatcher table and egress
/// serializer. In the real compiler this is hand-written Tofino code inlined
/// into every program; we emit the same fixed skeleton.
fn scheduler(e: &mut Emitter) {
    e.cat = Category::Table;
    e.text("table lucid_dispatch {\n    key = {\n        hdr.lucid.event_id: exact;\n        hdr.lucid.location: ternary;\n        hdr.lucid.delay: ternary;\n    }\n    actions = { dispatch_local; dispatch_forward; dispatch_delay; }\n    const default_action = dispatch_local();\n}");
    e.cat = Category::Action;
    e.text("action dispatch_local() { }\naction dispatch_forward() {\n    ig_tm.ucast_egress_port = lucid_fwd_port(hdr.lucid.location);\n}\naction dispatch_delay() {\n    ig_tm.ucast_egress_port = RECIRC_PORT;\n    ig_tm.qid = LUCID_DELAY_QUEUE;\n}");
    e.cat = Category::Control;
    e.text("control LucidEgress(inout headers_t hdr, inout metadata_t md) {\n    apply {\n        // event serializer: split multi-event packets using clone id,\n        // update delay from queue residence time (§3.2)\n        if (hdr.lucid.isValid() && hdr.lucid.delay > 0) {\n            hdr.lucid.delay = hdr.lucid.delay |-| eg_qtime();\n        }\n    }\n}");
}

fn deparser(e: &mut Emitter, prog: &CheckedProgram) {
    e.cat = Category::Parser;
    e.text("control LucidDeparser(packet_out pkt, in headers_t hdr) {\n    apply {\n        pkt.emit(hdr.ethernet);\n        pkt.emit(hdr.lucid);");
    for ev in &prog.info.events {
        emit!(e, "        pkt.emit(hdr.ev_{});", ev.name);
    }
    e.text("    }\n}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{elaborate, optimize, place};
    use lucid_check::parse_and_check;
    use lucid_tofino::PipelineSpec;

    /// The backend stages in the order `lucid_core::Build` runs them, with
    /// its defaults: clean-up on, Tofino target, rearrangement on.
    fn gen(src: &str) -> P4Program {
        let prog = parse_and_check(src).expect("checks");
        let mut handlers = elaborate(&prog).expect("elaborates");
        optimize(&mut handlers);
        let layout = place(&handlers, &PipelineSpec::tofino(), true).expect("places");
        generate(&prog, &handlers, &layout)
    }

    const SRC: &str = r#"
        global cts = new Array<<32>>(64);
        memop plus(int m, int x) { return m + x; }
        event pkt(int idx, int val);
        handle pkt(int idx, int val) {
            if (val > 10) {
                Array.setm(cts, idx, plus, 1);
            }
        }
    "#;

    #[test]
    fn generates_all_sections() {
        let p = gen(SRC);
        assert!(p.source.contains("header ev_pkt_t"));
        assert!(p.source.contains("Register<bit<32>, bit<32>>(64) reg_cts;"));
        assert!(p.source.contains("RegisterAction"));
        assert!(p.source.contains("parser LucidParser"));
        assert!(p.source.contains("control LucidIngress"));
        assert!(p.source.contains("lucid_dispatch"));
    }

    #[test]
    fn memop_translates_to_register_action_body() {
        let p = gen(SRC);
        assert!(p.source.contains("mem = mem + 1"), "{}", p.source);
    }

    #[test]
    fn guard_becomes_ternary_entries() {
        let p = gen(SRC);
        assert!(
            p.source.contains("ternary;"),
            "guarded table must match on conditions"
        );
        assert!(p.source.contains("const entries"), "{}", p.source);
    }

    #[test]
    fn loc_counts_cover_all_categories() {
        let p = gen(SRC);
        assert!(p.loc.headers > 0);
        assert!(p.loc.parsers > 0);
        assert!(p.loc.actions > 0);
        assert!(p.loc.reg_actions > 0);
        assert!(p.loc.tables > 0);
        assert_eq!(
            p.loc.total(),
            p.source.lines().filter(|l| !l.trim().is_empty()).count()
        );
    }

    #[test]
    fn p4_is_much_longer_than_lucid() {
        // The 10x LoC claim, in miniature: even this toy program's P4 is
        // several times its Lucid source.
        let p = gen(SRC);
        let lucid_loc = SRC.lines().filter(|l| !l.trim().is_empty()).count();
        assert!(
            p.loc.total() > 4 * lucid_loc,
            "p4 {} vs lucid {lucid_loc}",
            p.loc.total()
        );
    }

    #[test]
    fn conditional_memop_emits_if_else() {
        let p = gen(r#"
            global ts = new Array<<32>>(8);
            memop newer(int m, int t) { if (m < t) { return t; } else { return m; } }
            event touch(int i, int now);
            handle touch(int i, int now) { Array.setm(ts, i, newer, now); }
        "#);
        assert!(
            p.source.contains("if (mem <"),
            "{}",
            p.source
                .lines()
                .filter(|l| l.contains("mem"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
