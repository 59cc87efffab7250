//! # lucid-bench
//!
//! The evaluation harness: one function per table/figure in the paper's
//! §7, each returning structured rows that the tests assert against, and
//! one [`Figure`] table per figure that the `figures` binary prints. A
//! figure lists its columns once; [`Figure::text`] and [`Figure::json`]
//! both render from that list. Each figure carries the paper's claims
//! beside our values ([`Claim`]), and a unit test keeps them in
//! `docs/paper-fidelity.md`. Wall-clock measurement of the compiler,
//! simulator and serve daemon lives in the repository's `benchmark/`
//! package, not here.
//!
//! | paper artifact | rows | `figures` id |
//! |---|---|---|
//! | Figure 9 (app table) | `figure09` | `09` |
//! | Figure 10 (P4 LoC breakdown) | `figure09` | `10` |
//! | Figure 11 (dev time — see note) | `figure11` | `11` |
//! | Figure 12 (stage ratio) | `figure12` | `12` |
//! | Figure 13 (ALUs per stage) | `figure12` | `13` |
//! | Figure 14 (delay queue) | `figure14` | `14` |
//! | Figure 15 (recirc uses) | `figure15` | `15` |
//! | Figure 16 (SFW recirc model) | `figure16` | `16` |
//! | Figure 17 (install time CDF) | `figure17` | `17` |

#![forbid(unsafe_code)]

use lucid_apps::{AppInfo, RecircUse};
use lucid_backend::P4Loc;
use lucid_core::frontend::json::{self, Writer};
use lucid_core::{Build, Compiler, PipelineSpec};
use lucid_tofino::{ecdf, figure16_rows, DelayQueue, RecircPort, RemoteControlModel, SfwModelRow};
use std::fmt::Write as _;

/// The `figures` command line: `[--smoke] [--json] [NN ...]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Shrink trial counts so CI can afford every figure.
    pub smoke: bool,
    /// One JSON line per figure instead of the text table.
    pub json: bool,
    /// The figures asked for, by number; empty means all nine.
    pub ids: Vec<u8>,
}

const USAGE: &str = "usage: figures [--smoke] [--json] [NN ...]  (NN: 09 to 17; none: all)";

impl Args {
    /// Parse the arguments after the program name; anything that is not
    /// a flag above or a figure number is an error carrying the usage line.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args::default();
        for a in args {
            match a.as_str() {
                "--smoke" => out.smoke = true,
                "--json" => out.json = true,
                id => match id.parse::<u8>() {
                    Ok(n) if FIGURES.iter().any(|f| f.0 == n) => out.ids.push(n),
                    _ => return Err(format!("figures: unknown argument `{id}`\n{USAGE}")),
                },
            }
        }
        Ok(out)
    }

    /// Build the figures asked for, in paper order.
    pub fn figures(&self) -> Vec<Figure> {
        FIGURES
            .iter()
            .filter(|(no, _)| self.ids.is_empty() || self.ids.contains(no))
            .map(|(_, build)| build(self.smoke))
            .collect()
    }
}

/// Builds one figure's table; the flag is `--smoke`.
type MakeFigure = fn(bool) -> Figure;

/// Every figure's number and the function that makes it.
const FIGURES: [(u8, MakeFigure); 9] = [
    (9, |_| fig09(&figure09())),
    (10, |_| fig10(&figure09())),
    (11, |_| fig11(&figure11())),
    (12, |_| fig12(&figure12())),
    (13, |_| fig13(&figure12())),
    (14, |_| fig14(&figure14())),
    (15, |_| fig15(&figure15())),
    (16, |_| fig16(&figure16())),
    (17, |smoke| {
        fig17(&figure17(if smoke { 100 } else { 1000 }, 2021))
    }),
];

/// One typed cell of a figure table.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(usize),
    /// A float: four places in JSON, the given places in the text table.
    Num(f64, usize),
    Str(&'static str),
    /// Names: a JSON array, joined by `, ` in the text table.
    List(Vec<&'static str>),
    /// No value: JSON `null`, `-` in the text table.
    Nil,
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Cell::Int(n) => n.to_string(),
            Cell::Num(v, places) => format!("{v:.places$}"),
            Cell::Str(s) => s.to_string(),
            Cell::List(names) => names.join(", "),
            Cell::Nil => "-".into(),
        }
    }

    fn json(&self, w: &mut Writer) {
        match self {
            Cell::Int(n) => w.u64(*n as u64),
            Cell::Num(v, _) => w.f64(*v, 4),
            Cell::Str(s) => w.str(s),
            Cell::List(names) => w.arr(|w| {
                for name in names {
                    w.str(name);
                }
            }),
            Cell::Nil => w.null(),
        };
    }
}

/// One column of a figure: its JSON key (`None` for a column of the
/// text table only), its header in the text table, and its cell in a row.
type Column<R> = (Option<&'static str>, &'static str, fn(&R) -> Cell);

/// One quantitative claim of the paper beside our value. `paper` is the
/// range the paper's value allows, `ours` the span our rows cover, and
/// `note` quotes the paper, names any tolerance added to its value, and
/// gives the cause when ours is out of range. A claim that nothing here
/// can measure has [`UNMEASURED`] ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub claim: &'static str,
    pub paper: (f64, f64),
    pub ours: (f64, f64),
    /// Decimal places both ranges are shown with.
    pub places: usize,
    pub note: &'static str,
}

impl Claim {
    fn new(claim: &'static str, paper: (f64, f64), ours: (f64, f64), places: usize) -> Claim {
        let note = "";
        Claim {
            claim,
            paper,
            ours,
            places,
            note,
        }
    }

    fn note(self, note: &'static str) -> Claim {
        Claim { note, ..self }
    }

    /// Every one of our values lies in the paper's range (`None`: not measured).
    fn in_range(&self) -> Option<bool> {
        let ((lo, hi), (a, b)) = (self.paper, self.ours);
        (!lo.is_nan()).then_some(lo <= a && b <= hi)
    }

    /// `yes`, `NO` or `n/a`, in the text table and the ledger alike.
    fn verdict(&self) -> &'static str {
        self.in_range()
            .map_or("n/a", |ok| if ok { "yes" } else { "NO" })
    }

    /// The paper's range and ours as shown: `a–b`, one value, one open
    /// bound, or `-` when unmeasured.
    fn shown(&self) -> (String, String) {
        let p = self.places;
        let show = |(lo, hi): (f64, f64)| {
            if lo.is_nan() {
                "-".into()
            } else if lo == hi {
                format!("{lo:.p$}")
            } else if lo == f64::NEG_INFINITY {
                format!("< {hi:.p$}")
            } else if hi == f64::INFINITY {
                format!("> {lo:.p$}")
            } else {
                format!("{lo:.p$}–{hi:.p$}")
            }
        };
        (show(self.paper), show(self.ours))
    }
}

/// The ranges of a claim that nothing here can measure.
pub const UNMEASURED: (f64, f64) = (f64::NAN, f64::NAN);

/// The smallest and largest of some values.
fn span(values: impl IntoIterator<Item = f64>) -> (f64, f64) {
    let init = (f64::INFINITY, f64::NEG_INFINITY);
    values
        .into_iter()
        .fold(init, |(lo, hi), v| (lo.min(v), hi.max(v)))
}

/// One value as a range of its own.
fn one(v: f64) -> (f64, f64) {
    (v, v)
}

/// A paper value read with a relative tolerance: `v ± v·tol`.
fn about(v: f64, tol: f64) -> (f64, f64) {
    (v * (1.0 - tol), v * (1.0 + tol))
}

/// One paper figure as a table: its number and title, the columns'
/// JSON keys and headers, the rows' cells and the paper's claims.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    pub no: u8,
    pub title: &'static str,
    pub columns: Vec<(Option<&'static str>, &'static str)>,
    pub rows: Vec<Vec<Cell>>,
    pub claims: Vec<Claim>,
}

impl Figure {
    fn new<R>(
        no: u8,
        title: &'static str,
        cols: &[Column<R>],
        rows: &[R],
        claims: Vec<Claim>,
    ) -> Figure {
        Figure {
            no,
            title,
            columns: cols.iter().map(|c| (c.0, c.1)).collect(),
            rows: rows
                .iter()
                .map(|r| cols.iter().map(|c| (c.2)(r)).collect())
                .collect(),
            claims,
        }
    }

    /// The title, the aligned table, and one verdict line per claim.
    pub fn text(&self) -> String {
        let head = self.columns.iter().map(|c| c.1.to_string()).collect();
        let body = self
            .rows
            .iter()
            .map(|row| row.iter().map(Cell::text).collect());
        let table: Vec<Vec<String>> = std::iter::once(head).chain(body).collect();
        let mut widths = vec![0; self.columns.len()];
        for row in &table {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let mut out = format!("{}\n\n", self.title);
        for (i, row) in table.iter().enumerate() {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            out += &(cells.join("  ") + "\n");
            if i == 0 {
                out += &("-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)) + "\n");
            }
        }
        out.push_str("\npaper:\n");
        for c in &self.claims {
            let (paper, ours) = c.shown();
            let _ = writeln!(
                out,
                "  {:<3}  {}: paper {paper}, ours {ours} — {}",
                c.verdict(),
                c.claim,
                c.note
            );
        }
        out
    }

    /// One line: `{"figure":"figNN","rows":[...],"paper":[...]}`.
    pub fn json(&self) -> String {
        json::write(|w| {
            w.obj(|w| {
                w.key("figure").str(&format!("fig{:02}", self.no));
                w.key("rows").arr(|w| {
                    for row in &self.rows {
                        w.obj(|w| {
                            for ((key, _), cell) in self.columns.iter().zip(row) {
                                if let Some(key) = key {
                                    cell.json(w.key(key));
                                }
                            }
                        });
                    }
                });
                w.key("paper").arr(|w| {
                    for c in &self.claims {
                        let (paper, ours) = c.shown();
                        w.obj(|w| {
                            w.key("claim").str(c.claim).key("paper_range").str(&paper);
                            w.key("ours").str(&ours).key("in_range");
                            match c.in_range() {
                                Some(ok) => w.bool(ok),
                                None => w.null(),
                            };
                        });
                    }
                });
            });
        })
    }
}

/// Open a default-target build session for a bundled app.
fn session(app: &AppInfo) -> Build {
    Compiler::new().build(app.key, app.source)
}

/// Drive a session to P4, panicking with rendered diagnostics on failure
/// (the bundled apps must always compile).
fn compiled(app: &AppInfo) -> Build {
    let mut build = session(app);
    if build.p4().is_err() {
        panic!("{} must compile:\n{}", app.name, build.render_diagnostics());
    }
    build
}

/// Drive a session to layout only — the figures that never read the P4
/// text skip code generation entirely.
fn laid_out(app: &AppInfo) -> Build {
    let mut build = session(app);
    if build.layout().is_err() {
        panic!("{} must place:\n{}", app.name, build.render_diagnostics());
    }
    build
}

/// One app's row of Figures 9 and 10.
#[derive(Debug, Clone)]
pub struct Fig09Row {
    pub app: AppInfo,
    pub lucid_loc: usize,
    pub p4: P4Loc,
    pub stages: usize,
}

/// Compile every bundled app and report the Figure 9 and 10 columns.
fn figure09() -> Vec<Fig09Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| {
            let mut build = compiled(&app);
            Fig09Row {
                lucid_loc: app.lucid_loc(),
                p4: build.p4().expect("compiled").loc.clone(),
                stages: build.layout().expect("compiled").total_stages,
                app,
            }
        })
        .collect()
}

#[rustfmt::skip]
fn fig09(rows: &[Fig09Row]) -> Figure {
    let columns: [Column<Fig09Row>; 6] = [
        (Some("app"), "app", |r| Cell::Str(r.app.key)),
        (None, "Application", |r| Cell::Str(r.app.name)),
        (None, "Role of control events", |r| Cell::Str(r.app.control_role)),
        (Some("lucid_loc"), "Lucid LoC", |r| Cell::Int(r.lucid_loc)),
        (Some("p4_loc"), "P4 LoC", |r| Cell::Int(r.p4.total())),
        (Some("stages"), "Stages", |r| Cell::Int(r.stages)),
    ];
    let loc = |f: fn(&Fig09Row) -> usize| span(rows.iter().map(|r| f(r) as f64));
    let ratio = span(rows.iter().map(|r| r.p4.total() as f64 / r.lucid_loc as f64));
    let title = "Figure 9 — applications with data-plane integrated control";
    Figure::new(9, title, &columns, rows, vec![
        Claim::new("Lucid LoC per app", (41.0, 215.0), loc(|r| r.lucid_loc), 0)
            .note("\"41–215\"; the bundled apps are shorter re-writings of the paper's, and \
                   growing an app to hit a LoC number is not a goal"),
        Claim::new("generated P4 LoC per app", (707.0, 2267.0), loc(|r| r.p4.total()), 0)
            .note("\"707–2267\"; our P4 lacks the metadata declarations, parameter copies \
                   and per-handler event guards of the paper's compiler output"),
        Claim::new("Tofino stages per app", (5.0, 12.0), loc(|r| r.stages), 0).note("\"5–12\""),
        Claim::new("abstract: P4 LoC / Lucid LoC per app", about(10.0, 0.2), ratio, 1)
            .note("\"~10× fewer lines\", ±20 %; out for the P4 LoC row's cause"),
        Claim::new("generated P4 within ~15 % of hand-written P4 (§7.1)", UNMEASURED,
            UNMEASURED, 0).note("no hand-written P4 of the apps to compare with"),
    ])
}

#[rustfmt::skip]
fn fig10(rows: &[Fig09Row]) -> Figure {
    let columns: [Column<Fig09Row>; 9] = [
        (Some("app"), "app", |r| Cell::Str(r.app.key)),
        (Some("actions"), "P4 Action", |r| Cell::Int(r.p4.actions)),
        (Some("reg_actions"), "P4 RegActions", |r| Cell::Int(r.p4.reg_actions)),
        (Some("tables"), "P4 Tables", |r| Cell::Int(r.p4.tables)),
        (Some("headers"), "P4 Headers", |r| Cell::Int(r.p4.headers)),
        (Some("parsers"), "P4 Parsers", |r| Cell::Int(r.p4.parsers)),
        (Some("other"), "P4 Other", |r| Cell::Int(r.p4.control)),
        (Some("total"), "P4 Total", |r| Cell::Int(r.p4.total())),
        (Some("lucid_loc"), "Lucid", |r| Cell::Int(r.lucid_loc)),
    ];
    let shorter = rows.iter().filter(|r| r.lucid_loc < r.p4.reg_actions).count() as f64;
    Figure::new(10, "Figure 10 — breakdown of P4 code vs Lucid", &columns, rows, vec![
        Claim::new("apps whose Lucid program is shorter than its P4 RegisterActions (of 10)",
            (6.0, 10.0), one(shorter), 0).note("\"for most apps\", read as more than half"),
    ])
}

/// Figure 11 is a human developer-time study and cannot be reproduced in
/// software; we report the paper's numbers per app. (Compile time per
/// stage is measured by the `benchmark/` package's `compile_apps`.)
#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub key: &'static str,
    /// The paper's reported development time, where given.
    pub paper_dev_time: Option<&'static str>,
}

fn figure11() -> Vec<Fig11Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| Fig11Row {
            key: app.key,
            paper_dev_time: match app.key {
                "nat" => Some("25m"),
                "rip" => Some("40m"),
                "dfw" => Some("25m"),
                "dfw_aging" => Some("25m + 30m"),
                _ => None,
            },
        })
        .collect()
}

#[rustfmt::skip]
fn fig11(rows: &[Fig11Row]) -> Figure {
    let columns: [Column<Fig11Row>; 2] = [
        (Some("app"), "app", |r| Cell::Str(r.key)),
        (Some("paper_dev_time"), "paper dev. time", |r| {
            r.paper_dev_time.map_or(Cell::Nil, Cell::Str)
        }),
    ];
    let title = "Figure 11 — development time (paper, human study)";
    Figure::new(11, title, &columns, rows, vec![
        Claim::new("developer time per app (human study)", UNMEASURED, UNMEASURED, 0)
            .note("25m to 25m + 30m for four apps; a human study is not reproducible in \
                   software"),
    ])
}

/// One app's row of Figures 12 and 13, with the ablation column that
/// turns table rearrangement off.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub key: &'static str,
    pub name: &'static str,
    pub unoptimized_stages: usize,
    pub optimized_stages: usize,
    pub ratio: f64,
    /// Stages with the rearrangement pass disabled (ablation).
    pub no_rearrange_stages: Option<usize>,
    /// ALU instructions per occupied stage (Figure 13).
    pub mean_alu_per_stage: f64,
    pub max_alu_per_stage: usize,
}

fn figure12() -> Vec<Fig12Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| {
            // One session per app: the default-target layout, then the
            // ablation re-runs only the backend (the parse and check are
            // reused across targets).
            let mut build = laid_out(&app);
            let opt = build.layout().expect("placed").clone();
            // Ablation: no rearrangement. May exceed the pipeline; report
            // with a taller hypothetical pipeline so the cost is visible.
            let tall = PipelineSpec {
                stages: 256,
                ..PipelineSpec::tofino()
            };
            build.reconfigure(&Compiler::new().target(tall).rearrange(false));
            let no_rearrange = build.layout().ok().map(|l| l.total_stages);
            Fig12Row {
                key: app.key,
                name: app.name,
                unoptimized_stages: opt.unoptimized_stages,
                optimized_stages: opt.total_stages,
                ratio: opt.stage_ratio(),
                no_rearrange_stages: no_rearrange,
                mean_alu_per_stage: opt.mean_alu_per_stage(),
                max_alu_per_stage: opt.max_alu_per_stage(),
            }
        })
        .collect()
}

#[rustfmt::skip]
fn fig12(rows: &[Fig12Row]) -> Figure {
    let columns: [Column<Fig12Row>; 5] = [
        (Some("app"), "app", |r| Cell::Str(r.key)),
        (Some("unoptimized"), "unoptimized", |r| Cell::Int(r.unoptimized_stages)),
        (Some("optimized"), "optimized", |r| Cell::Int(r.optimized_stages)),
        (Some("ratio"), "ratio", |r| Cell::Num(r.ratio, 2)),
        (Some("no_rearrange"), "no-rearrange (ablation)", |r| {
            r.no_rearrange_stages.map_or(Cell::Nil, Cell::Int)
        }),
    ];
    let ratios = span(rows.iter().map(|r| r.ratio));
    Figure::new(12, "Figure 12 — optimized stage count vs unoptimized", &columns, rows, vec![
        Claim::new("unoptimized / optimized stages per app", (1.5, 4.0), ratios, 2)
            .note("\"1.5–4×, larger for complex apps (*Flow, DNS)\"; rip gains nothing, and \
                   starflow and dns stop at 1.67: the unoptimized path counts our atomic \
                   tables, few for the P4 LoC row's cause"),
    ])
}

#[rustfmt::skip]
fn fig13(rows: &[Fig12Row]) -> Figure {
    let columns: [Column<Fig12Row>; 3] = [
        (Some("app"), "app", |r| Cell::Str(r.key)),
        (Some("mean_alu_per_stage"), "mean ALU/stage", |r| Cell::Num(r.mean_alu_per_stage, 1)),
        (Some("max_alu_per_stage"), "max ALU/stage", |r| Cell::Int(r.max_alu_per_stage)),
    ];
    let lowest = span(rows.iter().map(|r| r.mean_alu_per_stage)).0;
    let highest = span(rows.iter().map(|r| r.max_alu_per_stage as f64)).1;
    let title = "Figure 13 — ALU instructions per stage in optimized code";
    Figure::new(13, title, &columns, rows, vec![
        Claim::new("ALU instructions per stage (lowest app mean to highest app max)",
            (2.0, 13.0), (lowest, highest), 1)
            .note("\"2–13 statements per stage\"; our count adds stateful-ALU ops (at most \
                   4) to action ops (at most 16) over every handler placed in a stage, and \
                   sfw's busiest stage holds 18"),
    ])
}

/// One point of Figure 14: delaying `n` concurrent 64 B events.
#[derive(Debug, Clone)]
pub struct Fig14Point {
    pub concurrent_events: usize,
    pub baseline_gbps: f64,
    pub delay_queue_gbps: f64,
    pub baseline_rel_err: f64,
    pub delay_queue_rel_err: f64,
}

/// Sweep 0..=90 concurrent delayed events, reproducing both panels of
/// Figure 14 (bandwidth and relative timing error).
fn figure14() -> Vec<Fig14Point> {
    let port = RecircPort::default();
    let queue = DelayQueue::default();
    (0..=90)
        .step_by(10)
        .map(|n| {
            // Requested delays spread around 1 ms, like the paper's
            // indefinitely-delayed event pool.
            let delays: Vec<u64> = (0..n)
                .map(|i| 800_000 + (i as u64 * 37_013) % 400_000)
                .collect();
            let base = port.delay_baseline(64, &delays);
            let dq = queue.delay_events(64, &delays);
            let steady = queue.steady_state_bandwidth_bps(64, n);
            Fig14Point {
                concurrent_events: n,
                baseline_gbps: base.bandwidth_bps / 1e9,
                delay_queue_gbps: steady.max(dq.bandwidth_bps.min(steady)) / 1e9,
                baseline_rel_err: base.mean_relative_error,
                delay_queue_rel_err: dq.mean_relative_error,
            }
        })
        .collect()
}

#[rustfmt::skip]
fn fig14(points: &[Fig14Point]) -> Figure {
    let columns: [Column<Fig14Point>; 5] = [
        (Some("events"), "events", |p| Cell::Int(p.concurrent_events)),
        (Some("baseline_gbps"), "baseline Gb/s", |p| Cell::Num(p.baseline_gbps, 2)),
        (Some("delay_queue_gbps"), "delay-queue Gb/s", |p| Cell::Num(p.delay_queue_gbps, 2)),
        (Some("baseline_rel_err"), "baseline rel.err", |p| Cell::Num(p.baseline_rel_err, 4)),
        (Some("delay_queue_rel_err"), "delay-queue rel.err", |p| {
            Cell::Num(p.delay_queue_rel_err, 4)
        }),
    ];
    let last = points.last().expect("the sweep has points");
    let (base, dq) = (last.baseline_gbps, last.delay_queue_gbps);
    Figure::new(14, "Figure 14 — pausable queue overhead and accuracy", &columns, points, vec![
        Claim::new("baseline Gb/s at 90 events", (95.0, f64::INFINITY), one(base), 2)
            .note("\">95 Gb/s\", the baseline saturating the port"),
        Claim::new("delay-queue Gb/s at 90 events", about(5.5, 0.2), one(dq), 2)
            .note("\"~5.5 Gb/s\" read off the plot, ±20 %"),
        Claim::new("bandwidth reduction at 90 events (×)", about(20.0, 0.2), one(base / dq), 1)
            .note("\"~20×\" read off the plot, ±20 %"),
    ])
}

/// Figure 15 rows: recirculation-use classes and which apps exhibit them.
fn figure15() -> Vec<(RecircUse, Vec<&'static str>)> {
    use RecircUse::*;
    [Maintenance, FlowSetup, StateSync]
        .into_iter()
        .map(|class| {
            let apps: Vec<&'static str> = lucid_apps::all()
                .into_iter()
                .filter(|a| a.recirc_uses.contains(&class))
                .map(|a| a.key)
                .collect();
            (class, apps)
        })
        .collect()
}

#[rustfmt::skip]
fn fig15(rows: &[(RecircUse, Vec<&'static str>)]) -> Figure {
    let columns: [Column<(RecircUse, Vec<&'static str>)>; 3] = [
        (Some("class"), "Recirc. use", |r| Cell::Str(r.0.label())),
        (Some("rate"), "Recirc. rate", |r| Cell::Str(r.0.rate())),
        (Some("apps"), "Applications", |r| Cell::List(r.1.clone())),
    ];
    let title = "Figure 15 — recirculation uses in the Figure 9 applications";
    Figure::new(15, title, &columns, rows, vec![
        Claim::new("recirculation-use classes and their apps", UNMEASURED, UNMEASURED, 0)
            .note("descriptive; lucid-apps' `figure15_classes_match_paper_rows` checks the \
                   sets"),
    ])
}

/// Figure 16: the worst-case SFW recirculation model on the idealized
/// PISA processor.
fn figure16() -> Vec<SfwModelRow> {
    figure16_rows(&PipelineSpec::idealized_pisa())
}

#[rustfmt::skip]
fn fig16(rows: &[SfwModelRow]) -> Figure {
    let columns: [Column<SfwModelRow>; 4] = [
        (Some("flow_rate"), "flow rate (flows/s)", |r| Cell::Num(r.flow_rate, 0)),
        (Some("recirc_rate_pps"), "recirc. rate (pkts/s)", |r| Cell::Num(r.recirc_rate_pps, 0)),
        (Some("pipeline_utilization"), "pipeline utilization", |r| {
            Cell::Num(r.pipeline_utilization, 6)
        }),
        (Some("min_pkt_size_bytes"), "min. pkt. size (B)", |r| {
            Cell::Num(r.min_pkt_size_bytes, 2)
        }),
    ];
    let title = "Figure 16 — modeled worst-case SFW recirculation overhead\n\
                 (N = 2^16, i = 100 ms; r = N/i + f*log2(N))";
    let (r10k, r100k, r1m) = (&rows[0], &rows[1], &rows[2]);
    Figure::new(16, title, &columns, rows, vec![
        Claim::new("10K flows/s: recirc. pkts/s", (814_500.0, 815_500.0),
            one(r10k.recirc_rate_pps), 0).note("\"815K\", printed precision"),
        Claim::new("10K flows/s: pipeline utilization %", (0.075, 0.085),
            one(r10k.pipeline_utilization * 100.0), 4).note("\"0.08 %\", printed precision"),
        Claim::new("10K flows/s: min. pkt. size B", about(125.3, 0.01),
            one(r10k.min_pkt_size_bytes), 2)
            .note("\"~125.3 B\", ±1 %; r = N/i + f·log2(N) gives 125/(1 − u) = 125.10, \
                   0.2 % under the paper's"),
        Claim::new("100K flows/s: recirc. M pkts/s", (1.5, 2.5),
            one(r100k.recirc_rate_pps / 1e6), 2).note("\"2M pkts/s\", printed precision"),
        Claim::new("1M flows/s: pipeline utilization %", (f64::NEG_INFINITY, 2.0),
            one(r1m.pipeline_utilization * 100.0), 2)
            .note("\"less than a 2 % bandwidth overhead\""),
    ])
}

/// Figure 17: empirical CDFs of flow-installation time, integrated
/// (interpreter-measured) vs remote control (Mantis model).
#[derive(Debug, Clone)]
pub struct Fig17 {
    pub trials: usize,
    /// (install time ns, cumulative probability) — integrated control.
    pub integrated: Vec<(f64, f64)>,
    /// Same for the remote-control baseline.
    pub remote: Vec<(f64, f64)>,
    pub integrated_mean_ns: f64,
    pub remote_mean_ns: f64,
    pub speedup: f64,
    pub frac_inline: f64,
}

fn figure17(trials: usize, seed: u64) -> Fig17 {
    let bench = lucid_apps::sfw::install_benchmark(trials, 0.3125, seed);
    let remote = RemoteControlModel::default().sample(trials, seed);
    let integrated_mean = bench.times_ns.iter().sum::<f64>() / bench.times_ns.len().max(1) as f64;
    let remote_mean = remote.iter().sum::<f64>() / remote.len().max(1) as f64;
    Fig17 {
        trials,
        integrated: ecdf(&bench.times_ns),
        remote: ecdf(&remote),
        integrated_mean_ns: integrated_mean,
        remote_mean_ns: remote_mean,
        speedup: remote_mean / integrated_mean.max(1.0),
        frac_inline: bench.frac_inline,
    }
}

/// The install time at cumulative probability `q` of an empirical CDF.
fn quantile(cdf: &[(f64, f64)], q: f64) -> Cell {
    let idx = ((cdf.len() as f64 * q).ceil() as usize).clamp(1, cdf.len()) - 1;
    Cell::Num(cdf[idx].0, 0)
}

#[rustfmt::skip]
fn fig17(f: &Fig17) -> Figure {
    let columns: [Column<Fig17>; 9] = [
        (Some("trials"), "trials", |f| Cell::Int(f.trials)),
        (Some("integrated_mean_ns"), "integrated mean ns", |f| Cell::Num(f.integrated_mean_ns, 0)),
        (Some("remote_mean_ns"), "remote mean ns", |f| Cell::Num(f.remote_mean_ns, 0)),
        (Some("speedup"), "speedup", |f| Cell::Num(f.speedup, 0)),
        (Some("frac_inline"), "inline share", |f| Cell::Num(f.frac_inline, 3)),
        (None, "integrated p50 ns", |f| quantile(&f.integrated, 0.5)),
        (None, "integrated p99 ns", |f| quantile(&f.integrated, 0.99)),
        (None, "remote p50 ns", |f| quantile(&f.remote, 0.5)),
        (None, "remote p99 ns", |f| quantile(&f.remote, 0.99)),
    ];
    let title = "Figure 17 — SFW flow installation times";
    Figure::new(17, title, &columns, std::slice::from_ref(f), vec![
        Claim::new("integrated control: mean install ns", about(49.0, 0.1),
            one(f.integrated_mean_ns), 1)
            .note("\"49 ns\", a sample mean: ±10 %; an install that misses its first slot \
                   costs one ~600 ns recirculation, and in 1 000 trials more installs miss \
                   than 49 ns implies (100 trials give 48 ns)"),
        Claim::new("remote control: mean install µs", about(17.5, 0.1),
            one(f.remote_mean_ns / 1e3), 2).note("\"17.5 µs\", a sample mean: ±10 %"),
        Claim::new("speedup (×)", (300.0, f64::INFINITY), one(f.speedup), 0)
            .note("\"over 300×\""),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure09_has_ten_rows_within_pipeline() {
        let rows = figure09();
        assert_eq!(rows.len(), 10);
        for r in &rows {
            assert!(r.stages <= 12, "{}: {} stages", r.app.name, r.stages);
            assert!(
                r.p4.total() > r.lucid_loc,
                "{}: P4 must be longer",
                r.app.name
            );
        }
    }

    #[test]
    fn figure10_categories_sum_to_total() {
        for r in figure09() {
            assert_eq!(
                r.p4.total(),
                r.p4.headers
                    + r.p4.parsers
                    + r.p4.actions
                    + r.p4.reg_actions
                    + r.p4.tables
                    + r.p4.control
            );
        }
    }

    #[test]
    fn figure12_optimizations_never_hurt() {
        for r in figure12() {
            if let Some(nr) = r.no_rearrange_stages {
                assert!(
                    nr >= r.optimized_stages,
                    "{}: rearrangement should help",
                    r.name
                );
            }
        }
    }

    #[test]
    fn figure14_shapes_match_paper() {
        let pts = figure14();
        let last = pts.last().unwrap();
        // Baseline saturates the port; delay queue stays single-digit.
        assert!(last.baseline_gbps > 90.0, "{}", last.baseline_gbps);
        assert!(last.delay_queue_gbps < 10.0, "{}", last.delay_queue_gbps);
        // Delay queue trades timing accuracy.
        assert!(last.delay_queue_rel_err > last.baseline_rel_err);
    }

    #[test]
    fn figure16_matches_paper_rows() {
        let rows = figure16();
        assert_eq!(rows[0].recirc_rate_pps, 815_360.0);
        assert!(rows[2].pipeline_utilization < 0.02);
    }

    #[test]
    fn figure17_speedup_is_two_orders() {
        let f = figure17(200, 99);
        assert!(f.speedup > 50.0, "speedup {}", f.speedup);
        assert!(f.frac_inline > 0.8);
        assert!(f.remote_mean_ns > 12_000.0);
    }

    /// A figure with every kind of cell, a text-only column and a claim
    /// of each verdict.
    fn sample() -> Figure {
        let columns: [Column<(&'static str, usize)>; 6] = [
            (Some("name"), "a", |r| Cell::Str(r.0)),
            (Some("n"), "bbbb", |r| Cell::Int(r.1)),
            (None, "text only", |r| Cell::Num(r.1 as f64 / 3.0, 1)),
            (Some("x"), "x", |r| {
                if r.1 > 1 {
                    Cell::Nil
                } else {
                    Cell::Num(1.5, 1)
                }
            }),
            (Some("y"), "y", |_| Cell::Num(f64::NAN, 2)),
            (Some("l"), "l", |r| Cell::List(vec![r.0, "z"])),
        ];
        let rows = [("a\"b\\c", 1), ("long", 7)];
        let claims = vec![
            Claim::new("in", (1.0, 2.0), (1.0, 1.5), 1).note("n"),
            Claim::new("out", (f64::NEG_INFINITY, 2.0), one(3.0), 0).note("cause"),
            Claim::new("study", UNMEASURED, UNMEASURED, 0).note("why"),
        ];
        Figure::new(99, "T", &columns, &rows, claims)
    }

    #[test]
    fn jsonout_escapes_and_nests() {
        assert_eq!(
            sample().json(),
            concat!(
                r#"{"figure":"fig99","rows":[{"name":"a\"b\\c","n":1,"x":1.5000,"y":null,"#,
                r#""l":["a\"b\\c","z"]},{"name":"long","n":7,"x":null,"y":null,"#,
                r#""l":["long","z"]}],"#,
                r#""paper":[{"claim":"in","paper_range":"1.0–2.0","ours":"1.0–1.5","#,
                r#""in_range":true},{"claim":"out","paper_range":"< 2","ours":"3","#,
                r#""in_range":false},{"claim":"study","paper_range":"-","ours":"-","#,
                r#""in_range":null}]}"#
            )
        );
        for fig in (Args {
            smoke: true,
            ids: vec![15, 16],
            ..Args::default()
        })
        .figures()
        {
            let doc = json::parse(&fig.json()).expect("valid JSON");
            assert!(matches!(doc, json::Json::Obj(_)), "{}", fig.json());
        }
    }

    #[test]
    fn render_table_aligns() {
        let t = sample().text();
        assert!(t.starts_with("T\n\na      bbbb  text only  x  "), "{t}");
        assert!(
            t.contains("\nlong   7     2.3        -    NaN  long, z \n"),
            "{t}"
        );
        assert!(
            t.contains("\n  yes  in: paper 1.0–2.0, ours 1.0–1.5 — n\n"),
            "{t}"
        );
        assert!(
            t.contains("\n  NO   out: paper < 2, ours 3 — cause\n"),
            "{t}"
        );
        assert!(t.contains("\n  n/a  study: paper -, ours - — why\n"), "{t}");
    }

    #[test]
    fn args_refuse_unknown_flags_and_ids() {
        let parse = |a: &[&str]| Args::parse(a.iter().map(ToString::to_string));
        assert_eq!(parse(&[]), Ok(Args::default()));
        let a = parse(&["--json", "09", "17", "--smoke"]).unwrap();
        assert_eq!((a.smoke, a.json, a.ids), (true, true, vec![9, 17]));
        for bad in ["--jsno", "--smok", "08", "18", "fig09", "-h"] {
            let err = parse(&[bad]).unwrap_err();
            assert!(err.contains(bad) && err.contains(USAGE), "{err}");
        }
    }

    /// The table of the paper-fidelity ledger (`docs/paper-fidelity.md`):
    /// one row per claim of the given figures.
    fn ledger(figures: &[Figure]) -> String {
        let mut out = "| figure | claim | paper | ours | in range | note |\n".to_string();
        out.push_str("|---|---|---|---|---|---|\n");
        for (no, c) in figures
            .iter()
            .flat_map(|f| f.claims.iter().map(|c| (f.no, c)))
        {
            let ((paper, ours), verdict) = (c.shown(), c.verdict());
            let _ = writeln!(
                out,
                "| Fig {no} | {} | {paper} | {ours} | {verdict} | {} |",
                c.claim, c.note
            );
        }
        out
    }

    #[test]
    fn paper_fidelity_ledger_is_current() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/paper-fidelity.md");
        let figures = Args::default().figures();
        assert_eq!(figures.len(), 9);
        // The file's prose is kept by hand; the table from its header on
        // is generated.
        let pinned = std::fs::read_to_string(path).unwrap_or_default();
        let intro = &pinned[..pinned.find("| figure |").unwrap_or(pinned.len())];
        let fresh = format!("{intro}{}", ledger(&figures));
        if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
            std::fs::write(path, &fresh).expect("write the ledger");
            return;
        }
        assert!(
            pinned == fresh,
            "docs/paper-fidelity.md is stale; regenerate with UPDATE_GOLDEN=1 and review \
             the diff. Fresh ledger:\n{fresh}"
        );
    }
}
