//! `lucidc` — command-line front end for the Lucid reproduction.
//!
//! ```text
//! lucidc check [OPTIONS] <file.lucid>      syntax + memop + effect checking
//! lucidc compile [OPTIONS] <file.lucid>    emit an artifact (default P4_16)
//! lucidc stages [OPTIONS] <file.lucid>     print the pipeline layout
//! lucidc sim [OPTIONS] <file.lucid> <scenario.sim.json>
//!                                          run a simulation scenario
//! lucidc sim --dump-bytecode <file.lucid>  print the compiled bytecode
//! lucidc serve [--socket=PATH]             persistent simulation service
//! lucidc apps                              list the bundled Figure 9 applications
//! lucidc app <key>                         dump a bundled app's Lucid source
//!
//! OPTIONS:
//!   --emit=ast|ir|layout|p4   artifact for `compile` (default p4)
//!   --target=tofino|pisa      pipeline model to compile against
//!   --opt=0|1|2               optimization level; one flag story for both
//!                             backends. `compile`/`stages`: 0 disables the
//!                             P4 IR clean-up pass, 1 and 2 enable it
//!                             (default). `sim`: the bytecode pipeline —
//!                             0 = raw lowering, 1 = peephole fusion,
//!                             2 = peephole + register allocation (default)
//!   --no-opt                  alias for --opt=0 (kept from the days when
//!                             only the P4 backend had an optimizer)
//!   --lint                    run the lint pass (`check`/`compile`): style
//!                             and dead-state warnings with stable W05xx
//!                             codes, reported like any other warnings
//!   --deny-lints              promote lint warnings to errors and exit 1
//!                             when any fire (implies --lint; CI gate)
//!   --json-diagnostics        report diagnostics as a JSON array on stderr
//!   --engine=sequential|sharded   override the scenario's engine (`sim`)
//!   --workers=N               sharded-engine worker threads (`sim`; 0 = cores)
//!   --exec=ast|bytecode       override the scenario's handler executor (`sim`)
//!   --seed=S                  override the scenario's workload seed (`sim`)
//!   --events=N                cap total generator-sourced injections (`sim`)
//!   --gen=<spec>              replace the scenario's generators (`sim`);
//!                             <spec> is inline JSON or a spec-file path.
//!                             Workload overrides (--seed/--events/--gen)
//!                             skip the scenario's authored expectations
//!   --dump-bytecode           print the program's bytecode listing (`sim`),
//!                             rendered at the `--opt` level (default 2, so
//!                             fused superinstructions and the post-regalloc
//!                             register frames show); with a scenario, dumps
//!                             and then runs it (under `--json` the listing
//!                             goes to stderr so stdout stays one JSON
//!                             document)
//!   --verify-bytecode         run the bytecode verifier over every handler
//!                             after every compiler pass before simulating
//!                             (`sim`); violations report with stable V0xxx
//!                             codes and exit 1
//!   --metrics[=json]          append the per-event-class latency table
//!                             (dispatch latency + queue residency
//!                             p50/p90/p99/p999 per event x switch) to the
//!                             `sim` report; `--metrics=json` prints the
//!                             metrics object alone as stdout's one JSON
//!                             document (conflicts with `--json`, which
//!                             already embeds it in the full report)
//!   --no-trace                skip retaining the per-event trace (`sim`);
//!                             stats, expectations, metrics, and the state
//!                             digest are unchanged — the run just stops
//!                             paying for a log nobody reads
//!   --json                    print the `sim` report as one JSON object
//!   --socket=PATH             serve over a Unix domain socket instead of
//!                             stdin/stdout (`serve`); one request per
//!                             line, sessions shared across connections
//! ```
//!
//! Exit codes: 0 success, 1 the program had diagnostics or the scenario
//! failed (bad scenario, runtime fault, or expectation mismatch), 2 usage
//! or I/O error.

#![forbid(unsafe_code)]

use lucid_core::frontend::json;
use lucid_core::{
    Build, BuildHost, Compiler, Engine, ExecMode, LayoutOptions, OptLevel, PipelineSpec, Scenario,
    ServeState, SimError, SimOptions,
};
use std::process::ExitCode;

const EXIT_DIAGNOSTICS: u8 = 1;
const EXIT_USAGE: u8 = 2;

const USAGE: &str = "usage: lucidc <check|compile|stages> [--emit=ast|ir|layout|p4] \
[--target=tofino|pisa] [--opt=0|1|2] [--no-opt] [--lint] [--deny-lints] \
[--json-diagnostics] <file.lucid>\n       \
lucidc sim [--engine=sequential|sharded] [--workers=N] [--exec=ast|bytecode] \
[--opt=0|1|2] [--seed=S] [--events=N] [--gen=<spec>] [--verify-bytecode] \
[--metrics[=json]] [--no-trace] [--json] <file.lucid> <scenario.sim.json>\n       \
lucidc sim --dump-bytecode [--opt=0|1|2] [--verify-bytecode] <file.lucid> \
[<scenario.sim.json>]\n       \
lucidc serve [--socket=PATH]\n       \
lucidc apps | app <key>";

const SUBCOMMANDS: &[&str] = &["check", "compile", "stages", "sim", "serve", "apps", "app"];

/// What `compile` should print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Emit {
    Ast,
    Ir,
    Layout,
    P4,
}

/// Parsed command line for the file-taking subcommands.
struct Options {
    emit: Emit,
    target: PipelineSpec,
    optimize: bool,
    /// `--lint`: run the W05xx lint pass after a successful check.
    lint: bool,
    /// `--deny-lints`: promote lint warnings to errors (implies `--lint`).
    deny_lints: bool,
    json_diagnostics: bool,
    file: String,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    match cmd.as_str() {
        "check" | "compile" | "stages" => {
            let opts = match parse_options(cmd, &args[1..]) {
                Ok(o) => o,
                Err(msg) => {
                    eprintln!("error: {msg}\n{USAGE}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            let src = match std::fs::read_to_string(&opts.file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read {}: {e}", opts.file);
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            let compiler = Compiler::new()
                .target(opts.target.clone())
                .layout(LayoutOptions::default())
                .optimize(opts.optimize);
            let mut build = compiler.build(&opts.file, &src);
            match cmd.as_str() {
                "check" => run_check(&mut build, &opts),
                "compile" => run_compile(&mut build, &opts),
                _ => run_stages(&mut build, &opts),
            }
        }
        "sim" => run_sim(&args[1..]),
        "serve" => run_serve(&args[1..]),
        "apps" => {
            for app in lucid_apps::all() {
                println!(
                    "{:<12} {:<36} {} Lucid lines",
                    app.key,
                    app.name,
                    app.lucid_loc()
                );
            }
            ExitCode::SUCCESS
        }
        "app" => {
            let Some(key) = args.get(1) else {
                eprintln!("error: missing <key>; try `lucidc apps`");
                return ExitCode::from(EXIT_USAGE);
            };
            match lucid_apps::by_key(key) {
                Some(app) => {
                    print!("{}", app.source);
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("error: unknown app `{key}`; try `lucidc apps`");
                    ExitCode::from(EXIT_USAGE)
                }
            }
        }
        unknown => {
            match nearest(unknown, SUBCOMMANDS) {
                Some(hint) => {
                    eprintln!("error: unknown subcommand `{unknown}` (did you mean `{hint}`?)");
                }
                None => eprintln!("error: unknown subcommand `{unknown}`"),
            }
            eprintln!("{USAGE}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Parsed command line for `sim`.
struct SimArgs {
    engine: Option<Engine>,
    exec: Option<ExecMode>,
    /// `--opt=0|1|2` (or `--no-opt` = level 0): the bytecode pipeline.
    opt: Option<OptLevel>,
    /// Workload overrides: `--seed=S` reshuffles every generator stream,
    /// `--events=N` caps total generated injections.
    seed: Option<u64>,
    events: Option<u64>,
    /// `--gen=<file-or-inline-json>`: replace the scenario's generators.
    gen: Option<String>,
    json: bool,
    dump_bytecode: bool,
    /// `--verify-bytecode`: run the bytecode verifier after every compiler
    /// pass before dumping or simulating.
    verify_bytecode: bool,
    /// `--metrics[=json]`: how to surface the latency metrics.
    metrics: MetricsOut,
    /// `--no-trace`: skip recording the per-event trace.
    no_trace: bool,
    program: String,
    /// `None` only under `--dump-bytecode` (dump-only invocation).
    scenario: Option<String>,
}

/// How `sim` surfaces the per-event-class latency metrics. The `--json`
/// report always embeds them regardless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricsOut {
    /// No extra output (the default).
    Off,
    /// `--metrics`: append the human-readable percentile table.
    Table,
    /// `--metrics=json`: print the metrics object as stdout's one JSON
    /// document instead of the human report.
    Json,
}

fn parse_sim_options(args: &[String]) -> Result<SimArgs, String> {
    let mut engine: Option<Engine> = None;
    let mut exec: Option<ExecMode> = None;
    let mut opt: Option<OptLevel> = None;
    let mut no_opt = false;
    let mut workers: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut events: Option<u64> = None;
    let mut gen: Option<String> = None;
    let mut json = false;
    let mut dump_bytecode = false;
    let mut verify_bytecode = false;
    let mut metrics = MetricsOut::Off;
    let mut no_trace = false;
    let mut files: Vec<String> = Vec::new();
    for a in args {
        if let Some(v) = a.strip_prefix("--engine=") {
            engine = Some(Engine::parse(v).ok_or_else(|| format!("unknown --engine value `{v}`"))?);
        } else if let Some(v) = a.strip_prefix("--exec=") {
            exec = Some(ExecMode::parse(v).ok_or_else(|| format!("unknown --exec value `{v}`"))?);
        } else if let Some(v) = a.strip_prefix("--opt=") {
            opt = Some(
                OptLevel::parse(v)
                    .ok_or_else(|| format!("unknown --opt value `{v}` (expected 0, 1, or 2)"))?,
            );
        } else if a == "--no-opt" {
            no_opt = true;
        } else if let Some(v) = a.strip_prefix("--workers=") {
            workers = Some(
                v.parse::<usize>()
                    .map_err(|_| format!("bad --workers value `{v}`"))?,
            );
        } else if let Some(v) = a.strip_prefix("--seed=") {
            seed = Some(
                v.parse::<u64>()
                    .map_err(|_| format!("bad --seed value `{v}`"))?,
            );
        } else if let Some(v) = a.strip_prefix("--events=") {
            events = Some(
                v.parse::<u64>()
                    .map_err(|_| format!("bad --events value `{v}`"))?,
            );
        } else if let Some(v) = a.strip_prefix("--gen=") {
            gen = Some(v.to_string());
        } else if a == "--json" {
            json = true;
        } else if a == "--dump-bytecode" {
            dump_bytecode = true;
        } else if a == "--verify-bytecode" {
            verify_bytecode = true;
        } else if a == "--no-trace" {
            no_trace = true;
        } else if a == "--metrics" {
            metrics = MetricsOut::Table;
        } else if let Some(v) = a.strip_prefix("--metrics=") {
            if v != "json" {
                return Err(format!("unknown --metrics value `{v}` (expected `json`)"));
            }
            metrics = MetricsOut::Json;
        } else if a.starts_with("--") {
            return Err(format!("unknown option `{a}`"));
        } else {
            files.push(a.clone());
        }
    }
    if no_opt {
        // `--no-opt` is the historical spelling of `--opt=0`; an explicit
        // `--opt=` beside it is ambiguous at best.
        if opt.is_some() {
            return Err("pass either `--no-opt` or `--opt=N`, not both".to_string());
        }
        opt = Some(OptLevel::O0);
    }
    if metrics == MetricsOut::Json && json {
        // Both ask for stdout's one JSON document; the full `--json`
        // report already embeds the metrics object.
        return Err(
            "`--metrics=json` conflicts with `--json` (which already embeds metrics)".to_string(),
        );
    }
    if let Some(w) = workers {
        match &mut engine {
            Some(Engine::Sharded { workers, .. }) => *workers = w,
            Some(Engine::Sequential) => {
                return Err("`--workers` only applies to `--engine=sharded`".to_string());
            }
            None => {
                engine = Some(Engine::Sharded {
                    workers: w,
                    epoch_ns: 0,
                });
            }
        }
    }
    let (program, scenario) = match files.as_slice() {
        [program, scenario] => (program.clone(), Some(scenario.clone())),
        [program] if dump_bytecode => (program.clone(), None),
        _ => {
            return Err(if dump_bytecode {
                "`sim --dump-bytecode` wants <file.lucid> [<scenario.sim.json>]".to_string()
            } else {
                "`sim` wants exactly <file.lucid> <scenario.sim.json>".to_string()
            })
        }
    };
    Ok(SimArgs {
        engine,
        exec,
        opt,
        seed,
        events,
        gen,
        json,
        dump_bytecode,
        verify_bytecode,
        metrics,
        no_trace,
        program,
        scenario,
    })
}

fn run_sim(args: &[String]) -> ExitCode {
    let opts = match parse_sim_options(args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let src = match std::fs::read_to_string(&opts.program) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.program);
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut build = Compiler::new().build(&opts.program, &src);
    // Dump-only invocation: no scenario to consult, so `--opt` (or the
    // default level) picks the listing.
    if opts.dump_bytecode && opts.scenario.is_none() {
        let level = opts.opt.unwrap_or_default();
        if opts.verify_bytecode {
            if let Err(code) = verify_listing(&mut build, level, opts.json) {
                return code;
            }
        }
        return match dump_listing(&mut build, level, opts.json) {
            Ok(()) => ExitCode::SUCCESS,
            Err(code) => code,
        };
    }
    let scenario_path = opts.scenario.as_deref().expect("checked by parser");
    let sc_text = match std::fs::read_to_string(scenario_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {scenario_path}: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut scenario = match Scenario::from_json(&sc_text) {
        Ok(sc) => sc,
        Err(e) => {
            if opts.json {
                println!("{}", e.to_json());
            } else {
                eprintln!("error in {scenario_path}: {e}");
            }
            return ExitCode::from(EXIT_DIAGNOSTICS);
        }
    };
    // The verifier runs at the level the simulation will actually use, so
    // a clean report vouches for exactly the code about to execute.
    if opts.verify_bytecode {
        if let Err(code) = verify_listing(&mut build, opts.opt.unwrap_or(scenario.opt), opts.json) {
            return code;
        }
    }
    // Dump-then-run: without an explicit `--opt`, render the listing at
    // the scenario's own level so the dump describes the bytecode that
    // actually runs below.
    if opts.dump_bytecode {
        if let Err(code) = dump_listing(&mut build, opts.opt.unwrap_or(scenario.opt), opts.json) {
            return code;
        }
    }
    if let Some(spec) = &opts.gen {
        // `--gen` takes inline JSON (starts with `{` or `[`) or a path to
        // a spec file; the parsed generators replace the scenario's own.
        let text = if spec.trim_start().starts_with(['{', '[']) {
            spec.clone()
        } else {
            match std::fs::read_to_string(spec) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read --gen spec {spec}: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        };
        match Scenario::parse_generators(&text) {
            Ok(gens) => {
                scenario.generators = gens;
                // The authored expectations describe the authored
                // workload; a replaced one invalidates them (mirrors the
                // --seed/--events behavior inside the runner).
                scenario.expect = Default::default();
            }
            Err(e) => {
                if opts.json {
                    println!("{}", e.to_json());
                } else {
                    eprintln!("error in --gen spec: {e}");
                }
                return ExitCode::from(EXIT_DIAGNOSTICS);
            }
        }
    }
    let options = SimOptions {
        engine: opts.engine,
        exec: opts.exec,
        opt: opts.opt,
        // `--workers` is folded into the engine override at parse time.
        workers: None,
        seed: opts.seed,
        events: opts.events,
        // The trace stays on unless `--no-trace` sheds it; either way
        // stats, expectations, and the state digest are unchanged.
        record_trace: opts.no_trace.then_some(false),
    };
    match build.interp(&scenario, &options) {
        Ok(report) => {
            if opts.json {
                println!("{}", report.to_json());
            } else if opts.metrics == MetricsOut::Json {
                println!("{}", report.metrics.to_json());
            } else {
                print!("{}", report.render());
                if opts.metrics == MetricsOut::Table {
                    print!("{}", report.metrics.render());
                }
            }
            if report.passed() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_DIAGNOSTICS)
            }
        }
        Err(SimError::Diagnostics(_)) => program_diagnostics(&build, opts.json),
        Err(SimError::Scenario(e)) => {
            if opts.json {
                println!("{}", e.to_json());
            } else {
                eprintln!("error in {scenario_path}: {e}");
            }
            ExitCode::from(EXIT_DIAGNOSTICS)
        }
        Err(SimError::Runtime(e)) => {
            if opts.json {
                // The fault carries the offending event's key (time,
                // switch, name, origin) so tooling can point at it.
                let doc = json::write(|w| {
                    w.obj(|w| {
                        w.key("kind").str("runtime").key("fault").raw(&e.to_json());
                    });
                });
                println!("{doc}");
            } else {
                eprintln!("runtime fault: {e}");
            }
            ExitCode::from(EXIT_DIAGNOSTICS)
        }
        // Snapshot and swap verbs exist only under `serve`; a one-shot
        // run never exercises them, but the match stays honest.
        Err(e @ (SimError::Snapshot(_) | SimError::Swap(_))) => {
            if opts.json {
                print_failure("service", &e.to_string());
            } else {
                eprintln!("error: {e}");
            }
            ExitCode::from(EXIT_DIAGNOSTICS)
        }
    }
}

/// `lucidc serve`: a persistent simulation service. Requests are
/// line-delimited JSON objects (see docs/serve-protocol.md); the daemon
/// owns compiled programs and live [`lucid_core::SimSession`]s, so a
/// client can ingest events, advance time, snapshot, restore, and
/// hot-swap programs without paying a re-parse per step. Default
/// transport is stdin/stdout; `--socket=PATH` binds a Unix domain socket
/// shared across connections instead.
fn run_serve(args: &[String]) -> ExitCode {
    let mut socket: Option<String> = None;
    for a in args {
        if let Some(v) = a.strip_prefix("--socket=") {
            socket = Some(v.to_string());
        } else {
            eprintln!("error: unknown `serve` argument `{a}`\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    }
    let host = BuildHost::new(Compiler::new());
    let result = match socket {
        Some(path) => {
            lucid_core::interp::serve::socket::serve_unix(std::path::Path::new(&path), host)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let mut host = host;
            lucid_core::serve_lines(
                &mut ServeState::new(),
                &mut host,
                stdin.lock(),
                stdout.lock(),
            )
            .map(|_| ())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: serve transport failed: {e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Print the `{"kind":K,"msg":M}` document that stands in for the report
/// on stdout when a `sim --json` run ends without one.
fn print_failure(kind: &str, msg: &str) {
    let doc = json::write(|w| {
        w.obj(|w| {
            w.key("kind").str(kind).key("msg").str(msg);
        });
    });
    println!("{doc}");
}

/// Report the program's own diagnostics and yield the exit code: rendered
/// on stderr, or under `--json` as a JSON array on stderr, so that stdout
/// stays a single JSON document (the failure marker).
fn program_diagnostics(build: &Build, json: bool) -> ExitCode {
    if json {
        print_failure("diagnostics", "the program has diagnostics (see stderr)");
        eprintln!("{}", build.diagnostics_json());
    } else {
        eprintln!("{}", build.render_diagnostics());
    }
    ExitCode::from(EXIT_DIAGNOSTICS)
}

/// Run the bytecode verifier at `level` (`sim --verify-bytecode`). Clean
/// handlers are silent — the verifier is a gate, not a report. Violations
/// render as V0xxx diagnostics on stderr (JSON under `--json`, with a
/// one-document stdout marker) and yield exit 1.
fn verify_listing(build: &mut Build, level: OptLevel, json: bool) -> Result<(), ExitCode> {
    match build.verify_bytecode(level) {
        Ok(violations) if violations.is_empty() => Ok(()),
        Ok(violations) => {
            let ds = lucid_core::interp::violations_to_diagnostics(&violations);
            if json {
                print_failure(
                    "diagnostics",
                    "the bytecode verifier found violations (see stderr)",
                );
                eprintln!("{}", ds.to_json(build.source_map()));
            } else {
                eprintln!("{}", ds.render(build.source_map()));
            }
            Err(ExitCode::from(EXIT_DIAGNOSTICS))
        }
        Err(_) => Err(program_diagnostics(build, json)),
    }
}

/// Print the bytecode listing at `level` (`sim --dump-bytecode`). Under
/// `--json`, stdout stays one machine-readable document, so the listing
/// goes to stderr; a program with diagnostics reports them in the same
/// shape as the run path and yields the exit code to return.
fn dump_listing(build: &mut Build, level: OptLevel, json: bool) -> Result<(), ExitCode> {
    match build.disassemble_opt(level) {
        Ok(listing) if json => {
            eprint!("{listing}");
            Ok(())
        }
        Ok(listing) => {
            print!("{listing}");
            Ok(())
        }
        Err(_) => Err(program_diagnostics(build, json)),
    }
}

fn parse_options(cmd: &str, args: &[String]) -> Result<Options, String> {
    let mut emit = Emit::P4;
    let mut target = PipelineSpec::tofino();
    let mut opt: Option<OptLevel> = None;
    let mut no_opt = false;
    let mut lint = false;
    let mut deny_lints = false;
    let mut json_diagnostics = false;
    let mut file = None;
    for a in args {
        if let Some(v) = a.strip_prefix("--emit=") {
            // Silently ignoring a flag the subcommand cannot honor would
            // mislead; reject it instead.
            if cmd != "compile" {
                return Err(format!("`--emit` only applies to `compile`, not `{cmd}`"));
            }
            emit = match v {
                "ast" => Emit::Ast,
                "ir" => Emit::Ir,
                "layout" => Emit::Layout,
                "p4" => Emit::P4,
                other => return Err(format!("unknown --emit value `{other}`")),
            };
        } else if let Some(v) = a.strip_prefix("--target=") {
            if cmd == "check" {
                return Err(
                    "`--target` has no effect on `check` (checking is target-independent)"
                        .to_string(),
                );
            }
            target = match v {
                "tofino" => PipelineSpec::tofino(),
                "pisa" => PipelineSpec::idealized_pisa(),
                other => return Err(format!("unknown --target value `{other}`")),
            };
        } else if a == "--no-opt" {
            if cmd == "check" {
                return Err(
                    "`--no-opt` has no effect on `check` (the backend does not run)".to_string(),
                );
            }
            no_opt = true;
        } else if let Some(v) = a.strip_prefix("--opt=") {
            if cmd == "check" {
                return Err(
                    "`--opt` has no effect on `check` (the backend does not run)".to_string(),
                );
            }
            opt = Some(
                OptLevel::parse(v)
                    .ok_or_else(|| format!("unknown --opt value `{v}` (expected 0, 1, or 2)"))?,
            );
        } else if a == "--lint" || a == "--deny-lints" {
            // Linting runs on the checked program, which `stages` also
            // produces — but its output is a layout report, not a
            // diagnostic listing, so keep the flag where the output
            // channel makes sense.
            if cmd == "stages" {
                return Err(format!("`{a}` only applies to `check` and `compile`"));
            }
            lint = true;
            deny_lints |= a == "--deny-lints";
        } else if a == "--json-diagnostics" {
            json_diagnostics = true;
        } else if a.starts_with("--") {
            return Err(format!("unknown option `{a}`"));
        } else if file.is_some() {
            return Err(format!("unexpected argument `{a}`"));
        } else {
            file = Some(a.clone());
        }
    }
    if no_opt && opt.is_some() {
        return Err("pass either `--no-opt` or `--opt=N`, not both".to_string());
    }
    // One flag story across backends: level 0 disables the P4 IR
    // clean-up pass; 1 and 2 (the default) enable it. The finer-grained
    // distinction only exists in the interpreter's bytecode pipeline.
    let optimize = !no_opt && opt.unwrap_or_default() != OptLevel::O0;
    let file = file.ok_or_else(|| "missing <file.lucid>".to_string())?;
    Ok(Options {
        emit,
        target,
        optimize,
        lint,
        deny_lints,
        json_diagnostics,
        file,
    })
}

/// Report a failed build on stderr (rendered or JSON) and exit 1.
fn diag_failure(build: &Build, opts: &Options) -> ExitCode {
    if opts.json_diagnostics {
        eprintln!("{}", build.diagnostics_json());
    } else {
        eprintln!("{}", build.render_diagnostics());
    }
    ExitCode::from(EXIT_DIAGNOSTICS)
}

fn run_check(build: &mut Build, opts: &Options) -> ExitCode {
    match build.checked() {
        Ok(p) => {
            println!(
                "ok: {} globals, {} events, {} handlers, {} memops",
                p.info.globals.len(),
                p.info.events.len(),
                p.info.handlers.len(),
                p.memops.len()
            );
            emit_success_warnings(build, opts)
        }
        Err(_) => diag_failure(build, opts),
    }
}

fn run_compile(build: &mut Build, opts: &Options) -> ExitCode {
    let out = match opts.emit {
        Emit::Ast => build
            .ast()
            .map(lucid_core::frontend::pretty::program)
            .map_err(|_| ()),
        Emit::Ir => build
            .handlers()
            .map(|handlers| {
                let mut s = String::new();
                for h in handlers {
                    s.push_str(&format!(
                        "handler {} (event {}), {} atomic tables, unoptimized depth {}\n",
                        h.name,
                        h.event_id,
                        h.tables.len(),
                        h.unoptimized_depth
                    ));
                    for t in &h.tables {
                        s.push_str(&format!(
                            "  t{:<3} guard={:?} op={:?}\n",
                            t.id, t.guard, t.op
                        ));
                    }
                }
                s
            })
            .map_err(|_| ()),
        Emit::Layout => build.layout().map(render_layout).map_err(|_| ()),
        Emit::P4 => build.p4().map(|p4| p4.source.clone()).map_err(|_| ()),
    };
    match out {
        Ok(text) => {
            print!("{text}");
            if !text.ends_with('\n') {
                println!();
            }
            // The human stats line stays off stderr under --json-diagnostics
            // so that stream parses as one JSON document.
            if opts.emit == Emit::P4 && !opts.json_diagnostics {
                if let (Ok(loc), Ok(l)) = (
                    build.p4().map(|p| p.loc.total()),
                    build
                        .layout()
                        .map(|l| (l.total_stages, l.unoptimized_stages)),
                ) {
                    eprintln!("stages: {} (unoptimized {}), p4 lines: {}", l.0, l.1, loc);
                }
            }
            emit_success_warnings(build, opts)
        }
        Err(()) => diag_failure(build, opts),
    }
}

fn run_stages(build: &mut Build, opts: &Options) -> ExitCode {
    match build.layout() {
        Ok(_) => {
            let text = render_layout(build.layout().expect("just succeeded"));
            print!("{text}");
            emit_success_warnings(build, opts)
        }
        Err(_) => diag_failure(build, opts),
    }
}

/// On success, report accumulated warnings — plus the lint pass under
/// `--lint` — on stderr, as a JSON array under `--json-diagnostics` or
/// rendered rustc-style otherwise, so both output modes carry the same
/// information from every subcommand. `--deny-lints` promotes the lint
/// warnings to errors, and any error in the combined set exits 1.
fn emit_success_warnings(build: &mut Build, opts: &Options) -> ExitCode {
    let mut all = build.diagnostics();
    if opts.lint {
        let mut lints = match build.lint() {
            Ok(ds) => ds.clone(),
            // Unreachable after a successful stage, but keep the honest
            // shape: a failed check already reported via `diag_failure`.
            Err(ds) => ds,
        };
        if opts.deny_lints {
            lints.promote_warnings_to_errors();
        }
        all.extend(lints);
    }
    if opts.json_diagnostics {
        eprintln!("{}", all.to_json(build.source_map()));
    } else if !all.is_empty() {
        eprintln!("{}", all.render(build.source_map()));
    }
    if all.has_errors() {
        ExitCode::from(EXIT_DIAGNOSTICS)
    } else {
        ExitCode::SUCCESS
    }
}

fn render_layout(l: &lucid_core::Layout) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "total stages: {} (dispatcher included)\n",
        l.total_stages
    ));
    out.push_str(&format!("unoptimized:  {}\n", l.unoptimized_stages));
    out.push_str(&format!("stage ratio:  {:.2}\n", l.stage_ratio()));
    for (i, st) in l.stage_stats.iter().enumerate() {
        if st.tables == 0 {
            continue;
        }
        out.push_str(&format!(
            "stage {i:>2}: {:>2} tables ({} merged), {} sALUs, {} action ops\n",
            st.tables, st.merged_tables, st.salus, st.action_ops
        ));
    }
    out
}

/// Nearest subcommand by edit distance, for typo hints. Only suggests when
/// the distance is small relative to the input.
fn nearest<'a>(input: &str, candidates: &[&'a str]) -> Option<&'a str> {
    let (best, dist) = candidates
        .iter()
        .map(|c| (*c, edit_distance(input, c)))
        .min_by_key(|(_, d)| *d)?;
    (dist <= 1 + input.len() / 3).then_some(best)
}

fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for i in 1..=a.len() {
        cur[0] = i;
        for j in 1..=b.len() {
            let sub = prev[j - 1] + usize::from(a[i - 1] != b[j - 1]);
            cur[j] = sub.min(prev[j] + 1).min(cur[j - 1] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("check", "check"), 0);
        assert_eq!(edit_distance("chek", "check"), 1);
        assert_eq!(edit_distance("comple", "compile"), 1);
    }

    #[test]
    fn nearest_suggests_close_matches_only() {
        assert_eq!(nearest("chek", SUBCOMMANDS), Some("check"));
        assert_eq!(nearest("stgaes", SUBCOMMANDS), Some("stages"));
        assert_eq!(nearest("frobnicate", SUBCOMMANDS), None);
    }

    #[test]
    fn options_parse() {
        let o = parse_options(
            "compile",
            &[
                "--emit=layout".into(),
                "--target=pisa".into(),
                "--no-opt".into(),
                "f.lucid".into(),
            ],
        )
        .unwrap();
        assert_eq!(o.emit, Emit::Layout);
        assert_eq!(o.target.front_panel_ports, 10);
        assert!(!o.optimize);
        assert_eq!(o.file, "f.lucid");
        assert!(parse_options("compile", &["--emit=wat".into(), "f".into()]).is_err());
        assert!(parse_options("compile", &[]).is_err());
    }

    #[test]
    fn opt_levels_unify_with_no_opt() {
        // `--opt=0` is `--no-opt`; 1 and 2 leave the backend pass on.
        let o = parse_options("compile", &["--opt=0".into(), "f".into()]).unwrap();
        assert!(!o.optimize);
        for lvl in ["1", "2"] {
            let o = parse_options("compile", &[format!("--opt={lvl}"), "f".into()]).unwrap();
            assert!(o.optimize, "--opt={lvl}");
        }
        let o = parse_options("compile", &["f".into()]).unwrap();
        assert!(o.optimize, "default is optimized");
        // The two spellings conflict rather than silently racing.
        assert!(parse_options(
            "compile",
            &["--no-opt".into(), "--opt=2".into(), "f".into()]
        )
        .is_err());
        assert!(parse_options("compile", &["--opt=3".into(), "f".into()]).is_err());
        assert!(parse_options("check", &["--opt=1".into(), "f".into()]).is_err());

        // The sim side: same flag, the bytecode pipeline's level.
        let o = parse_sim_options(&["--opt=1".into(), "p".into(), "s".into()]).unwrap();
        assert_eq!(o.opt, Some(OptLevel::O1));
        let o = parse_sim_options(&["--no-opt".into(), "p".into(), "s".into()]).unwrap();
        assert_eq!(o.opt, Some(OptLevel::O0));
        let o = parse_sim_options(&["p".into(), "s".into()]).unwrap();
        assert_eq!(o.opt, None, "no override: the scenario decides");
        assert!(parse_sim_options(&["--opt=9".into(), "p".into(), "s".into()]).is_err());
        assert!(
            parse_sim_options(&["--no-opt".into(), "--opt=2".into(), "p".into(), "s".into()])
                .is_err()
        );
    }

    #[test]
    fn sim_options_parse() {
        let o = parse_sim_options(&[
            "--engine=sharded".into(),
            "--workers=3".into(),
            "--exec=bytecode".into(),
            "--json".into(),
            "p.lucid".into(),
            "s.sim.json".into(),
        ])
        .unwrap();
        assert_eq!(
            o.engine,
            Some(Engine::Sharded {
                workers: 3,
                epoch_ns: 0
            })
        );
        assert_eq!(o.exec, Some(ExecMode::Bytecode));
        assert!(o.json);
        assert_eq!(
            (o.program.as_str(), o.scenario.as_deref()),
            ("p.lucid", Some("s.sim.json"))
        );
        // --workers alone implies the sharded engine.
        let o = parse_sim_options(&["--workers=2".into(), "p".into(), "s".into()]).unwrap();
        assert!(matches!(o.engine, Some(Engine::Sharded { workers: 2, .. })));
        // Workload knobs parse and default to None.
        let o = parse_sim_options(&[
            "--seed=17".into(),
            "--events=1000000".into(),
            "--gen=spec.json".into(),
            "p".into(),
            "s".into(),
        ])
        .unwrap();
        assert_eq!(o.seed, Some(17));
        assert_eq!(o.events, Some(1_000_000));
        assert_eq!(o.gen.as_deref(), Some("spec.json"));
        let o = parse_sim_options(&["p".into(), "s".into()]).unwrap();
        assert_eq!((o.seed, o.events, o.gen), (None, None, None));
        assert!(parse_sim_options(&["--seed=zz".into(), "p".into(), "s".into()]).is_err());
        assert!(parse_sim_options(&["--events=-1".into(), "p".into(), "s".into()]).is_err());
        assert!(parse_sim_options(&["p".into()]).is_err());
        assert!(parse_sim_options(&["--engine=warp".into(), "p".into(), "s".into()]).is_err());
        assert!(parse_sim_options(&["--exec=jit".into(), "p".into(), "s".into()]).is_err());
        assert!(parse_sim_options(&[
            "--engine=sequential".into(),
            "--workers=2".into(),
            "p".into(),
            "s".into()
        ])
        .is_err());
    }

    #[test]
    fn lint_flags_parse() {
        let o = parse_options("check", &["--lint".into(), "f".into()]).unwrap();
        assert!(o.lint && !o.deny_lints);
        // --deny-lints implies the lint pass itself.
        let o = parse_options("compile", &["--deny-lints".into(), "f".into()]).unwrap();
        assert!(o.lint && o.deny_lints);
        let o = parse_options("check", &["f".into()]).unwrap();
        assert!(!o.lint && !o.deny_lints);
        assert!(parse_options("stages", &["--lint".into(), "f".into()]).is_err());
        assert!(parse_options("stages", &["--deny-lints".into(), "f".into()]).is_err());
    }

    #[test]
    fn no_trace_flag_parses() {
        let o = parse_sim_options(&["--no-trace".into(), "p".into(), "s".into()]).unwrap();
        assert!(o.no_trace);
        let o = parse_sim_options(&["p".into(), "s".into()]).unwrap();
        assert!(!o.no_trace, "the trace is retained by default");
        // Composes with the other sim flags.
        let o = parse_sim_options(&[
            "--no-trace".into(),
            "--json".into(),
            "--engine=sharded".into(),
            "p".into(),
            "s".into(),
        ])
        .unwrap();
        assert!(o.no_trace && o.json);
    }

    #[test]
    fn verify_bytecode_flag_parses() {
        let o = parse_sim_options(&["--verify-bytecode".into(), "p".into(), "s".into()]).unwrap();
        assert!(o.verify_bytecode);
        let o = parse_sim_options(&["p".into(), "s".into()]).unwrap();
        assert!(!o.verify_bytecode);
        // Composes with a dump-only invocation.
        let o = parse_sim_options(&[
            "--dump-bytecode".into(),
            "--verify-bytecode".into(),
            "p".into(),
        ])
        .unwrap();
        assert!(o.dump_bytecode && o.verify_bytecode);
    }

    #[test]
    fn metrics_flag_parses() {
        let o = parse_sim_options(&["p".into(), "s".into()]).unwrap();
        assert_eq!(o.metrics, MetricsOut::Off);
        let o = parse_sim_options(&["--metrics".into(), "p".into(), "s".into()]).unwrap();
        assert_eq!(o.metrics, MetricsOut::Table);
        let o = parse_sim_options(&["--metrics=json".into(), "p".into(), "s".into()]).unwrap();
        assert_eq!(o.metrics, MetricsOut::Json);
        // The plain table composes with --json (the report embeds the
        // metrics object anyway); the JSON-only form conflicts with it.
        let o = parse_sim_options(&["--metrics".into(), "--json".into(), "p".into(), "s".into()])
            .unwrap();
        assert_eq!((o.metrics, o.json), (MetricsOut::Table, true));
        assert!(parse_sim_options(&[
            "--metrics=json".into(),
            "--json".into(),
            "p".into(),
            "s".into()
        ])
        .is_err());
        assert!(parse_sim_options(&["--metrics=yaml".into(), "p".into(), "s".into()]).is_err());
    }

    #[test]
    fn dump_bytecode_allows_program_only() {
        let o = parse_sim_options(&["--dump-bytecode".into(), "p.lucid".into()]).unwrap();
        assert!(o.dump_bytecode);
        assert_eq!(o.scenario, None);
        let o = parse_sim_options(&["--dump-bytecode".into(), "p".into(), "s".into()]).unwrap();
        assert_eq!(o.scenario.as_deref(), Some("s"));
        assert!(parse_sim_options(&["--dump-bytecode".into()]).is_err());
    }

    #[test]
    fn inapplicable_flags_rejected_per_subcommand() {
        assert!(parse_options("check", &["--emit=ast".into(), "f".into()]).is_err());
        assert!(parse_options("stages", &["--emit=ast".into(), "f".into()]).is_err());
        assert!(parse_options("check", &["--no-opt".into(), "f".into()]).is_err());
        assert!(parse_options("check", &["--target=pisa".into(), "f".into()]).is_err());
        // stages legitimately uses the backend: target and opt apply.
        assert!(parse_options(
            "stages",
            &["--no-opt".into(), "--target=pisa".into(), "f".into()]
        )
        .is_ok());
        assert!(parse_options("check", &["--json-diagnostics".into(), "f".into()]).is_ok());
    }
}
