//! Generated programs against a lexical model of name resolution — the
//! oracle feed ROADMAP item 4 asks for, scoped to names.
//!
//! Each case draws one seed, and the seed alone fixes a program the
//! checker accepts, a schedule of `go` events, and the final arrays that
//! the generator's own model of the checker's scoping rule predicts: a
//! name means its innermost enclosing binding in the running body, else
//! `SELF` / the const / the group of that name, and an array-position
//! name means the running body's own array parameter, else the global.
//! Every value read lands in `out[k]` through a `report(k, v)` event (its
//! own handler, so probes never meet the ordered-state rule), and every
//! array-position name shows as the global an `Array.set` writes. The
//! program runs under the walker and bytecode at O0/O1/O2, sequential and
//! sharded at two workers; each run must equal the model on the arrays
//! and the first run on everything observable.
//!
//! Two shapes, one property each:
//! * blocks — a handler of nested and sibling blocks that redeclare
//!   names, with locals shadowing consts, `SELF` and groups, read inside
//!   and after their block;
//! * calls — functions with value and array parameters, called on
//!   different globals, whose callees name a global that may share a
//!   live caller's array-parameter name.
//!
//! The vendored proptest does not shrink, so programs stay small and a
//! failure prints the seed and the program. `LUCID_FUZZ_CASES` raises the
//! case count (CI's fuzz smoke runs 64).

use lucid_check::parse_and_check;
use lucid_interp::{Engine, ExecMode, Interp, NetConfig, OptLevel};
use proptest::prelude::*;
use std::fmt::Write as _;

fn cases() -> u32 {
    std::env::var("LUCID_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

const SWITCHES: u64 = 3;
const CELLS: u64 = 8;
const ARRAYS: [&str; 5] = ["a", "b", "c", "d", "e"];
const CONSTS: [(&str, u64); 2] = [("K0", 40), ("K1", 50)];
const GROUPS: [(&str, &[u64]); 3] = [("G0", &[2]), ("G1", &[3]), ("G2", &[2, 3])];
/// Names that mean something before any local binds them.
const SHADOWABLE: [&str; 3] = ["K0", "K1", "SELF"];

const PRELUDE: &str = "\
const int K0 = 40;
const int K1 = 50;
const group G0 = {2};
const group G1 = {3};
const group G2 = {2, 3};
global a = new Array<<32>>(8);
global b = new Array<<32>>(8);
global c = new Array<<32>>(8);
global d = new Array<<32>>(8);
global e = new Array<<32>>(8);
";

#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    Blocks,
    Calls,
}

// ------------------------------------------------------------ programs

enum E {
    Lit(u64),
    Name(&'static str),
    Add(Box<E>, Box<E>),
}

enum S {
    /// `int n = e;`
    Int(&'static str, E),
    /// `auto n = g;` for a group-typed name `g`.
    Group(&'static str, &'static str),
    Assign(&'static str, E),
    /// `if (e == lit) { .. } else { .. }` (`<` when the flag is set).
    If(E, bool, u64, Vec<S>, Option<Vec<S>>),
    /// `generate report(k, e);`
    Report(usize, E),
    /// `mgenerate Event.mlocate(report(k, e), g);`
    Multicast(usize, E, &'static str),
    /// `Array.set(arr, i, e);`, with an id to find it by.
    Set(usize, &'static str, u64, E),
    /// `f<i>(args);`
    Call(usize, Vec<Arg>),
}

enum Arg {
    Arr(&'static str),
    Val(E),
}

struct Fun {
    /// `(name, is an array parameter)`, in declaration order.
    params: Vec<(&'static str, bool)>,
    body: Vec<S>,
}

struct Prog {
    funs: Vec<Fun>,
    handler: Vec<S>,
    probes: usize,
}

fn expr(e: &E) -> String {
    match e {
        E::Lit(v) => v.to_string(),
        E::Name(n) => n.to_string(),
        E::Add(l, r) => format!("({} + {})", expr(l), expr(r)),
    }
}

fn render(p: &Prog) -> String {
    let mut s = PRELUDE.to_string();
    writeln!(s, "global out = new Array<<32>>({});", p.probes.max(1)).unwrap();
    s.push_str("event report(int k, int v);\n");
    s.push_str("handle report(int k, int v) { Array.set(out, k, v); }\n");
    s.push_str("event go(int p);\n");
    // Callees first: `f<i>` only calls `f<j>` for `j > i`.
    for (i, f) in p.funs.iter().enumerate().rev() {
        let params: Vec<String> = f
            .params
            .iter()
            .map(|(n, arr)| format!("{} {n}", if *arr { "Array<<32>>" } else { "int" }))
            .collect();
        writeln!(s, "fun void f{i}({}) {{", params.join(", ")).unwrap();
        stmts(&mut s, &f.body, 1);
        s.push_str("}\n");
    }
    s.push_str("handle go(int p) {\n");
    stmts(&mut s, &p.handler, 1);
    s.push_str("}\n");
    s
}

fn stmts(out: &mut String, ss: &[S], depth: usize) {
    let pad = "    ".repeat(depth);
    for s in ss {
        match s {
            S::Int(n, e) => writeln!(out, "{pad}int {n} = {};", expr(e)),
            S::Group(n, g) => writeln!(out, "{pad}auto {n} = {g};"),
            S::Assign(n, e) => writeln!(out, "{pad}{n} = {};", expr(e)),
            S::If(e, lt, lit, then_blk, else_blk) => {
                let op = if *lt { "<" } else { "==" };
                writeln!(out, "{pad}if ({} {op} {lit}) {{", expr(e)).unwrap();
                stmts(out, then_blk, depth + 1);
                if let Some(else_blk) = else_blk {
                    writeln!(out, "{pad}}} else {{").unwrap();
                    stmts(out, else_blk, depth + 1);
                }
                writeln!(out, "{pad}}}")
            }
            S::Report(k, e) => writeln!(out, "{pad}generate report({k}, {});", expr(e)),
            S::Multicast(k, e, g) => writeln!(
                out,
                "{pad}mgenerate Event.mlocate(report({k}, {}), {g});",
                expr(e)
            ),
            S::Set(_, arr, i, e) => writeln!(out, "{pad}Array.set({arr}, {i}, {});", expr(e)),
            S::Call(f, args) => {
                let args: Vec<String> = args
                    .iter()
                    .map(|a| match a {
                        Arg::Arr(n) => n.to_string(),
                        Arg::Val(e) => expr(e),
                    })
                    .collect();
                writeln!(out, "{pad}f{f}({});", args.join(", "))
            }
        }
        .unwrap();
    }
}

// ----------------------------------------------------------- generator

/// splitmix64: the seed alone determines a case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

#[derive(Clone, Copy)]
enum Act {
    Int,
    Group,
    Assign,
    If,
    Report,
    Multicast,
    Call,
    Set,
}

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Int,
    Group,
    Arr,
}

struct Gen {
    rng: Rng,
    shape: Shape,
    probes: usize,
    sets: usize,
    /// The live bindings of the body being generated, by block.
    scopes: Vec<Vec<(&'static str, Kind)>>,
    /// Parameters of every function, known before any body is made.
    sigs: Vec<Vec<(&'static str, bool)>>,
    /// The function whose body is being generated (`None`: the handler).
    fun: Option<usize>,
    /// Bindings with a global meaning whose block has closed.
    closed: Vec<(&'static str, Kind)>,
}

impl Gen {
    fn is_bound(&self, name: &str) -> bool {
        self.scopes.iter().flatten().any(|(n, _)| *n == name)
    }

    fn names(&self, kind: Kind) -> Vec<&'static str> {
        let live = self.scopes.iter().flatten();
        live.filter(|(_, k)| *k == kind).map(|(n, _)| *n).collect()
    }

    /// A name of `kind` in scope: often one a closed block shadowed,
    /// else one a local may shadow, else any.
    fn name(&mut self, kind: Kind, globals: &[&'static str]) -> &'static str {
        let closed: Vec<_> = self
            .closed
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(n, _)| *n)
            .collect();
        match self.rng.below(4) {
            0 | 1 if !closed.is_empty() => self.rng.pick(&closed),
            0 | 1 => self.rng.pick(globals),
            _ => {
                let mut all = self.names(kind);
                all.extend(globals);
                self.rng.pick(&all)
            }
        }
    }

    fn int_name(&mut self) -> &'static str {
        self.name(Kind::Int, &SHADOWABLE)
    }

    fn group_name(&mut self) -> &'static str {
        self.name(Kind::Group, &GROUPS.map(|(n, _)| n))
    }

    /// An array-position name: in a function, often one a caller binds
    /// as an array parameter and this function does not.
    fn array_name(&mut self) -> &'static str {
        if let (Some(f), 0..=2) = (self.fun, self.rng.below(4)) {
            let own = &self.sigs[f];
            let callers = self.sigs[..f].iter().flatten().filter(|(_, arr)| *arr);
            let theirs: Vec<_> = callers
                .map(|(n, _)| *n)
                .filter(|n| !own.contains(&(n, true)))
                .collect();
            if !theirs.is_empty() {
                return self.rng.pick(&theirs);
            }
        }
        self.rng.pick(&ARRAYS)
    }

    fn expr(&mut self, depth: u32) -> E {
        match self.rng.below(if depth == 0 { 6 } else { 8 }) {
            0 | 1 => E::Lit(self.rng.below(100)),
            2..=5 => E::Name(self.int_name()),
            _ => E::Add(
                Box::new(self.expr(depth - 1)),
                Box::new(self.expr(depth - 1)),
            ),
        }
    }

    /// A name from `pool` no live binding uses (the checker rejects a
    /// local that shadows another local or a parameter).
    fn fresh(&mut self, pool: &[&'static str]) -> Option<&'static str> {
        let free: Vec<_> = pool.iter().copied().filter(|n| !self.is_bound(n)).collect();
        (!free.is_empty()).then(|| self.rng.pick(&free))
    }

    fn probe(&mut self) -> usize {
        self.probes += 1;
        self.probes - 1
    }

    fn block(&mut self, depth: u32, len: u64) -> Vec<S> {
        self.scopes.push(Vec::new());
        let n = 1 + self.rng.below(len);
        let block = (0..n).filter_map(|_| self.stmt(depth)).collect();
        let gone = self.scopes.pop().into_iter().flatten();
        // Names with a global meaning stay readable after their block.
        let global = |n: &&str| SHADOWABLE.contains(n) || GROUPS.iter().any(|g| g.0 == *n);
        self.closed.extend(gone.filter(|(n, _)| global(n)));
        block
    }

    fn declare(&mut self, name: &'static str, kind: Kind) {
        self.scopes.last_mut().expect("a block").push((name, kind));
    }

    fn stmt(&mut self, depth: u32) -> Option<S> {
        use Act::*;
        // Weights per shape: blocks want declarations, branches and
        // reads; calls want calls and writes through array names.
        let table: &[(Act, usize)] = match (self.shape, self.fun) {
            (Shape::Blocks, _) => &[
                (Int, 3),
                (Group, 1),
                (Assign, 1),
                (If, 4),
                (Report, 4),
                (Multicast, 2),
            ],
            (Shape::Calls, None) => &[(Int, 1), (Assign, 1), (If, 2), (Report, 1), (Call, 4)],
            (Shape::Calls, Some(_)) => &[(Int, 1), (If, 1), (Report, 1), (Set, 2)],
        };
        let acts: Vec<Act> = table.iter().flat_map(|&(a, w)| vec![a; w]).collect();
        Some(match self.rng.pick(&acts) {
            Int => {
                // A top-level shadow would last the whole handler: shadow
                // in nested blocks, whose end the reads can outlive.
                let pool: &[_] = match (self.shape, depth) {
                    (Shape::Blocks, 0) => &["x", "y"],
                    (Shape::Blocks, _) => &["x", "y", "K0", "K1", "SELF"],
                    (Shape::Calls, _) => &["x", "y", "a"],
                };
                let init = self.expr(2);
                let name = self.fresh(pool)?;
                self.declare(name, Kind::Int);
                S::Int(name, init)
            }
            Group => {
                let init = self.group_name();
                let name = self.fresh(if depth == 0 {
                    &["gx"]
                } else {
                    &["gx", "G0", "G1"]
                })?;
                self.declare(name, Kind::Group);
                S::Group(name, init)
            }
            Assign => {
                let locals = self.names(Kind::Int);
                let name = *locals.get(self.rng.below(locals.len().max(1) as u64) as usize)?;
                S::Assign(name, self.expr(2))
            }
            If if depth < 3 => {
                let cond = self.expr(0);
                let (lt, lit) = (self.rng.below(2) == 0, self.rng.pick(&[0, 1, 2, 3, 40, 50]));
                let then_blk = self.block(depth + 1, 3);
                let else_blk = (self.rng.below(3) != 0).then(|| self.block(depth + 1, 3));
                S::If(cond, lt, lit, then_blk, else_blk)
            }
            Multicast => S::Multicast(self.probe(), self.expr(2), self.group_name()),
            Call => {
                // Mostly the head of the call chain.
                let f = match self.rng.below(4) {
                    0 => self.rng.below(self.sigs.len() as u64) as usize,
                    _ => 0,
                };
                self.call(f)
            }
            Set => self.set(),
            _ => S::Report(self.probe(), self.expr(2)),
        })
    }

    fn set(&mut self) -> S {
        self.sets += 1;
        S::Set(
            self.sets,
            self.array_name(),
            self.rng.below(CELLS),
            self.expr(2),
        )
    }

    fn call(&mut self, f: usize) -> S {
        let sig = self.sigs[f].clone();
        // An array argument is mostly not the parameter's namesake.
        let args = sig.iter().map(|(n, arr)| match arr {
            true => Arg::Arr(match self.rng.below(4) {
                0 => self.array_name(),
                _ => {
                    let others: Vec<_> = ARRAYS.into_iter().filter(|a| a != n).collect();
                    self.rng.pick(&others)
                }
            }),
            false => Arg::Val(self.expr(2)),
        });
        S::Call(f, args.collect())
    }

    /// Parameters for the next function: array parameters mostly named
    /// unlike any earlier (calling) function's.
    fn signature(&mut self) -> Vec<(&'static str, bool)> {
        let taken: Vec<_> = self
            .sigs
            .iter()
            .flatten()
            .filter(|(_, arr)| *arr)
            .map(|(n, _)| *n)
            .collect();
        let untaken: Vec<_> = ARRAYS.into_iter().filter(|a| !taken.contains(a)).collect();
        let mut params: Vec<(&'static str, bool)> = Vec::new();
        for _ in 0..=self.rng.below(2) {
            let name = match self.rng.below(4) {
                0 => self.rng.pick(&ARRAYS),
                _ if untaken.is_empty() => self.rng.pick(&ARRAYS),
                _ => self.rng.pick(&untaken),
            };
            if params.iter().all(|(n, _)| *n != name) {
                params.push((name, true));
            }
        }
        for _ in 0..self.rng.below(3) {
            let name = self.rng.pick(&["v", "w", "K0", "b"]);
            if params.iter().all(|(n, _)| *n != name) {
                let at = self.rng.below(params.len() as u64 + 1) as usize;
                params.insert(at, (name, false));
            }
        }
        params
    }

    fn program(&mut self) -> Prog {
        let nfuns = match self.shape {
            Shape::Blocks => 0,
            Shape::Calls => 2 + self.rng.below(2) as usize,
        };
        for _ in 0..nfuns {
            let sig = self.signature();
            self.sigs.push(sig);
        }
        let mut funs = Vec::new();
        for i in 0..nfuns {
            let params = self.sigs[i].clone();
            let kind = |arr: bool| if arr { Kind::Arr } else { Kind::Int };
            self.scopes = vec![params.iter().map(|(n, arr)| (*n, kind(*arr))).collect()];
            self.fun = Some(i);
            let mut body = self.block(1, 2);
            // Every function writes through an array name and calls the
            // next, so a callee always runs under a live caller's array
            // parameters. Both use only the parameters: any position works.
            let mut forced = vec![self.set()];
            forced.extend((i + 1 < nfuns).then(|| self.call(i + 1)));
            for s in forced {
                let at = self.rng.below(body.len() as u64 + 1) as usize;
                body.insert(at, s);
            }
            funs.push(Fun { params, body });
        }
        self.scopes = vec![vec![("p", Kind::Int)]];
        self.fun = None;
        let handler = self.block(0, if nfuns == 0 { 8 } else { 3 });
        Prog {
            funs,
            handler,
            probes: self.probes,
        }
    }
}

/// The global an array-position name means, given the running body's
/// array parameters.
fn resolve(params: &[(&str, usize)], name: &str) -> usize {
    match params.iter().find(|(n, _)| *n == name) {
        Some((_, g)) => *g,
        None => ARRAYS.iter().position(|a| *a == name).expect("a global"),
    }
}

/// The checker's ordered-state rule over every path (§5): the stage
/// after `ss`, or the id of the first `Array.set` that breaks the order.
fn order(
    prog: &Prog,
    params: &[(&str, usize)],
    ss: &[S],
    mut stage: usize,
) -> Result<usize, usize> {
    for s in ss {
        match s {
            S::Set(id, arr, ..) => {
                let g = resolve(params, arr);
                if g < stage {
                    return Err(*id);
                }
                stage = g + 1;
            }
            S::If(_, _, _, then_blk, else_blk) => {
                let after_then = order(prog, params, then_blk, stage)?;
                let after_else = match else_blk {
                    Some(b) => order(prog, params, b, stage)?,
                    None => stage,
                };
                stage = after_then.max(after_else);
            }
            S::Call(f, args) => {
                let fun = &prog.funs[*f];
                let bound = fun
                    .params
                    .iter()
                    .zip(args)
                    .filter_map(|((n, _), a)| match a {
                        Arg::Arr(arr) => Some((*n, resolve(params, arr))),
                        Arg::Val(_) => None,
                    });
                stage = order(prog, &bound.collect::<Vec<_>>(), &fun.body, stage)?;
            }
            _ => {}
        }
    }
    Ok(stage)
}

fn drop_set(ss: &mut Vec<S>, id: usize) {
    ss.retain(|s| !matches!(s, S::Set(i, ..) if *i == id));
    for s in ss {
        if let S::If(_, _, _, then_blk, else_blk) = s {
            drop_set(then_blk, id);
            else_blk.iter_mut().for_each(|b| drop_set(b, id));
        }
    }
}

/// One case: a program the checker accepts, its source, and a schedule
/// of `(switch, time_ns, p)` injections. A random call graph over three
/// arrays often accesses them out of declaration order, so the writes
/// that would break the order are dropped until none does.
fn case(seed: u64, shape: Shape) -> (Prog, String, Vec<(u64, u64, u64)>) {
    let mut g = Gen {
        rng: Rng(seed),
        shape,
        probes: 0,
        sets: 0,
        scopes: Vec::new(),
        sigs: Vec::new(),
        fun: None,
        closed: Vec::new(),
    };
    let mut prog = g.program();
    while let Err(id) = order(&prog, &[], &prog.handler, 0) {
        drop_set(&mut prog.handler, id);
        prog.funs.iter_mut().for_each(|f| drop_set(&mut f.body, id));
    }
    let src = render(&prog);
    if let Err(ds) = parse_and_check(&src) {
        panic!("seed {seed:#x}: generated a program the checker rejects:\n{src}\n{ds}");
    }
    let n = 1 + g.rng.below(4);
    let schedule = (0..n)
        .map(|i| (1 + g.rng.below(2), i * 10_000, g.rng.below(3)))
        .collect();
    (prog, src, schedule)
}

// --------------------------------------------------------------- model

#[derive(Clone)]
enum B {
    Int(u64),
    Group(Vec<u64>),
    Arr(usize),
}

type Scopes = Vec<Vec<(&'static str, B)>>;

/// Per switch, the final arrays: `ARRAYS`, then `out` at index `OUT`.
type World = Vec<Vec<Vec<u64>>>;

const OUT: usize = ARRAYS.len();

fn lookup<'s>(scopes: &'s mut Scopes, name: &str) -> Option<&'s mut B> {
    let mut live = scopes.iter_mut().flatten().rev();
    live.find(|(n, _)| *n == name).map(|(_, b)| b)
}

/// The checker's scoping rule, run.
struct Model<'p> {
    prog: &'p Prog,
    world: World,
    switch: u64,
}

impl Model<'_> {
    fn value(&self, scopes: &mut Scopes, e: &E) -> B {
        match e {
            E::Lit(v) => B::Int(*v),
            E::Name(n) => match lookup(scopes, n) {
                Some(b) => b.clone(),
                None if *n == "SELF" => B::Int(self.switch),
                None => match (
                    CONSTS.iter().find(|c| c.0 == *n),
                    GROUPS.iter().find(|g| g.0 == *n),
                ) {
                    (Some((_, v)), _) => B::Int(*v),
                    (_, Some((_, ms))) => B::Group(ms.to_vec()),
                    _ => unreachable!("generated: `{n}` is in scope"),
                },
            },
            E::Add(l, r) => B::Int((self.int(scopes, l) + self.int(scopes, r)) & 0xFFFF_FFFF),
        }
    }

    fn int(&self, scopes: &mut Scopes, e: &E) -> u64 {
        match self.value(scopes, e) {
            B::Int(v) => v,
            _ => unreachable!("generated: an int"),
        }
    }

    fn array(&self, scopes: &mut Scopes, name: &str) -> usize {
        match lookup(scopes, name) {
            Some(B::Arr(g)) => *g,
            _ => ARRAYS.iter().position(|a| *a == name).expect("a global"),
        }
    }

    fn block(&mut self, scopes: &mut Scopes, ss: &[S]) {
        scopes.push(Vec::new());
        for s in ss {
            self.stmt(scopes, s);
        }
        scopes.pop();
    }

    fn stmt(&mut self, scopes: &mut Scopes, s: &S) {
        let here = (self.switch - 1) as usize;
        match s {
            S::Int(n, e) => {
                let v = self.value(scopes, e);
                scopes.last_mut().expect("a block").push((n, v));
            }
            S::Group(n, g) => {
                let v = self.value(scopes, &E::Name(g));
                scopes.last_mut().expect("a block").push((n, v));
            }
            S::Assign(n, e) => {
                let v = self.value(scopes, e);
                *lookup(scopes, n).expect("generated: a live local") = v;
            }
            S::If(e, lt, lit, then_blk, else_blk) => {
                let x = self.int(scopes, e);
                if (*lt && x < *lit) || (!*lt && x == *lit) {
                    self.block(scopes, then_blk);
                } else if let Some(else_blk) = else_blk {
                    self.block(scopes, else_blk);
                }
            }
            S::Report(k, e) => self.world[here][OUT][*k] = self.int(scopes, e),
            S::Multicast(k, e, g) => {
                let v = self.int(scopes, e);
                let B::Group(members) = self.value(scopes, &E::Name(g)) else {
                    unreachable!("generated: a group")
                };
                for m in members {
                    self.world[(m - 1) as usize][OUT][*k] = v;
                }
            }
            S::Set(_, arr, i, e) => {
                let (g, v) = (self.array(scopes, arr), self.int(scopes, e));
                self.world[here][g][*i as usize] = v;
            }
            S::Call(f, args) => {
                let fun = &self.prog.funs[*f];
                let mut frame = vec![Vec::new()];
                for ((name, _), a) in fun.params.iter().zip(args) {
                    let b = match a {
                        Arg::Arr(n) => B::Arr(self.array(scopes, n)),
                        Arg::Val(e) => self.value(scopes, e),
                    };
                    frame[0].push((*name, b));
                }
                self.block(&mut frame, &fun.body);
            }
        }
    }
}

fn model(prog: &Prog, schedule: &[(u64, u64, u64)]) -> World {
    let mut arrays = vec![vec![0; CELLS as usize]; OUT];
    arrays.push(vec![0; prog.probes.max(1)]);
    let mut m = Model {
        prog,
        world: vec![arrays; SWITCHES as usize],
        switch: 0,
    };
    for (sw, _, p) in schedule {
        m.switch = *sw;
        m.block(&mut vec![vec![("p", B::Int(*p))]], &prog.handler);
    }
    m.world
}

fn show(world: &World) -> String {
    let mut s = String::new();
    for (i, arrays) in world.iter().enumerate() {
        write!(s, "s{}", i + 1).unwrap();
        for (name, cells) in ARRAYS.iter().chain(&["out"]).zip(arrays) {
            write!(s, " {name}={cells:?}").unwrap();
        }
        s.push('\n');
    }
    s
}

// ---------------------------------------------------------------- runs

/// The final arrays, and everything else observable.
fn observe(
    src: &str,
    schedule: &[(u64, u64, u64)],
    engine: Engine,
    exec: ExecMode,
    opt: OptLevel,
) -> (String, String) {
    let prog = parse_and_check(src).expect("accepted once already");
    let mut cfg = NetConfig::mesh(SWITCHES);
    cfg.engine = engine;
    cfg.exec = exec;
    cfg.opt = opt;
    let mut sim = Interp::new(&prog, cfg);
    for (sw, t, p) in schedule {
        sim.schedule(*sw, *t, "go", &[*p]).expect("schedule");
    }
    let res = sim.run(10_000, u64::MAX);
    let world: World = (1..=SWITCHES)
        .map(|s| {
            ARRAYS
                .iter()
                .chain(&["out"])
                .map(|n| sim.array(s, n).to_vec())
                .collect()
        })
        .collect();
    let st = &sim.stats;
    let mut rest = format!(
        "processed={} recirculated={} sent_remote={} fault={res:?}\n",
        st.processed, st.recirculated, st.sent_remote
    );
    for h in &sim.trace {
        writeln!(
            rest,
            "{}ns s{} {}{:?}",
            h.time_ns, h.switch, h.event, h.args
        )
        .unwrap();
    }
    (show(&world), rest)
}

fn check(seed: u64, shape: Shape) {
    let (prog, src, schedule) = case(seed, shape);
    let want = show(&model(&prog, &schedule));
    let sharded = Engine::Sharded {
        workers: 2,
        epoch_ns: 0,
    };
    let mut first: Option<String> = None;
    for (engine, elabel) in [(Engine::Sequential, "sequential"), (sharded, "sharded-w2")] {
        let mut combos = vec![(ExecMode::Ast, OptLevel::O2)];
        combos.extend([OptLevel::O0, OptLevel::O1, OptLevel::O2].map(|l| (ExecMode::Bytecode, l)));
        for (exec, opt) in combos {
            let (got, rest) = observe(&src, &schedule, engine, exec, opt);
            let first = first.get_or_insert_with(|| rest.clone());
            if got != want || rest != *first {
                panic!(
                    "seed {seed:#x} ({shape:?}) under {elabel}/{}/O{} differs from {}\n\
                     --- program ---\n{src}--- schedule (switch, ns, p) ---\n{schedule:?}\n\
                     --- model ---\n{want}--- got ---\n{got}{rest}--- first run ---\n{first}",
                    exec.label(),
                    opt.label(),
                    if got != want {
                        "the lexical model"
                    } else {
                        "the first run"
                    },
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn generated_blocks_resolve_lexically(seed in any::<u64>()) {
        check(seed, Shape::Blocks);
    }

    #[test]
    fn generated_calls_resolve_array_names_lexically(seed in any::<u64>()) {
        check(seed, Shape::Calls);
    }
}
