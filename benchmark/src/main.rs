//! The repository benchmark. One workload per process:
//!
//! ```text
//! lucid-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! prints the workload's metrics by name and, as the last line of standard
//! output, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! Without `--workload` the same binary runs every workload, each in a
//! child process of its own, and tabulates the results; `--repeat K` does
//! that K times and reports medians, quartiles and whether the sets agree
//! within each metric's bound. See `README.md` beside this package.

mod host;
mod inputs;
mod jsonw;
mod runner;
mod spec;
mod stats;
mod trace;
mod workloads;

use lucid_core::interp::scenario::json::{self, Json};
use runner::{run_traced, run_untraced, Outcome, Size};
use spec::{Better, MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{app_suite, compile_apps, explicit_load, flood, serve};

const USAGE: &str = "usage: lucid-benchmark [--workload NAME] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--repeat K]";

/// Measured seconds per workload when `--seconds` is not given: the whole
/// untraced set then takes about a minute on two cores.
const DEFAULT_SECONDS: f64 = 5.0;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat: usize,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: spec::PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.iter().any(|w| w.name == name) {
                    let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    return Err(format!(
                        "unknown workload `{name}` (one of {})",
                        known.join(", ")
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if args.repeat == 0 {
                    return Err("--repeat must be at least 1".to_string());
                }
            }
            // `--trace 0|1` for the driver, bare `--trace` by hand.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                    args.trace = false;
                }
                Some("1") => {
                    it.next();
                    args.trace = true;
                }
                _ => args.trace = true,
            },
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Build products, trace files and calibration files land here (ignored
/// by git).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_out(file: &str, content: &str) {
    let dir = out_dir();
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(file), content));
    if let Err(e) = written {
        eprintln!("warning: cannot write {}: {e}", dir.join(file).display());
    }
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let size = Size { quick: args.quick };
    macro_rules! go {
        ($w:ty) => {
            if args.trace {
                run_traced::<$w>(name, args.seed, size, args.seconds)
            } else {
                run_untraced::<$w>(args.seed, size, args.seconds)
            }
        };
    }
    match name {
        "flood" => go!(flood::FloodSequential),
        "flood_w1" => go!(flood::FloodShardedOne),
        "app_suite" => go!(app_suite::AppSuite),
        "compile_apps" => go!(compile_apps::CompileApps),
        "explicit_load" => go!(explicit_load::ExplicitLoad),
        "serve_bulk" => go!(serve::ServeBulk),
        "serve_mixed" => go!(serve::ServeMixed),
        other => unreachable!("`{other}` passed argument validation"),
    }
}

/// The contract line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<(&str, String)> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                *name,
                jsonw::obj(&[("value", jsonw::f(*value)), ("unit", jsonw::s(unit))]),
            )
        })
        .collect();
    jsonw::obj(&[
        ("correct", (outcome.checks.failed == 0).to_string()),
        ("attempted", outcome.checks.attempted.max(1).to_string()),
        ("failed", outcome.checks.failed.to_string()),
        ("metrics", jsonw::obj(&metrics)),
    ])
}

/// One workload, in this process.
fn single(name: &str, args: &Args) -> ExitCode {
    let outcome = run_workload(name, args);
    let kind = if args.trace { "traced" } else { "untraced" };
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .map_or("", |w| w.why);
    println!("workload {name}: {why}");
    println!(
        "  {kind}, seed {}, {} s{}",
        args.seed,
        args.seconds,
        if args.quick {
            ", --quick: \"comparable\": false"
        } else {
            ""
        }
    );
    println!("  {}", outcome.info);
    for (metric, value, unit) in &outcome.metrics {
        println!("  {metric:<32} {value:>16.4} {unit}");
    }
    let c = &outcome.checks;
    println!(
        "  {:<32} {:>16.6} ratio ({} failed of {} attempted)",
        "fail_ratio",
        c.failed as f64 / c.attempted.max(1) as f64,
        c.failed,
        c.attempted
    );
    for note in &c.notes {
        println!("  FAILED: {note}");
    }
    if let Some(trace) = &outcome.trace_json {
        write_out(&format!("trace-{name}.json"), trace);
    }
    println!("{}", result_line(&outcome));
    if c.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child's parsed result line.
struct ChildResult {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn run_child(name: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = json::parse(last).map_err(|e| {
        format!(
            "the {name} child printed no result line ({e}); stderr:\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    let num = |key: &str| {
        spec::field(&parsed, key)
            .and_then(spec::as_f64)
            .unwrap_or(0.0)
    };
    let mut metrics = BTreeMap::new();
    if let Some(Json::Obj(fields)) = spec::field(&parsed, "metrics") {
        for (k, v) in fields {
            if let Some(value) = spec::field(v, "value").and_then(spec::as_f64) {
                metrics.insert(k.clone(), value);
            }
        }
    }
    for line in stdout
        .lines()
        .filter(|l| l.trim_start().starts_with("FAILED:"))
    {
        eprintln!("{name}: {}", line.trim());
    }
    Ok(ChildResult {
        attempted: num("attempted") as u64,
        failed: num("failed") as u64,
        metrics,
    })
}

/// `rustc --version`, or `unknown` where no compiler is on the path.
fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Whether every set's value lies within `bound` of the sets' median, on
/// the side that counts as worse.
fn sets_agree(spec: &MetricSpec, values: &[f64]) -> bool {
    let m = stats::median(values);
    values.iter().all(|&v| match spec.better {
        Better::Lower => v <= m * (1.0 + spec.bound),
        Better::Higher => v >= m * (1.0 - spec.bound),
    })
}

/// Every workload (or the one `--workload` names), each run in a child
/// process of its own; `--repeat` sets of them.
fn all(args: &Args) -> ExitCode {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|name| args.workload.as_deref().is_none_or(|only| only == *name))
        .collect();
    let rustc = rustc_version();
    println!(
        "lucid benchmark: {} workloads x {} set(s), seed {}, {} s each, {} cores, {}{}",
        selected.len(),
        args.repeat,
        args.seed,
        args.seconds,
        parallelism(),
        rustc,
        if args.quick {
            " — --quick: sizes / 10, \"comparable\": false"
        } else {
            ""
        }
    );
    // (workload, metric) -> one value per set.
    let mut table: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed, mut broken) = (0, 0, 0);
    for set in 0..args.repeat {
        for name in &selected {
            let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
            for &trace in kinds {
                match run_child(name, args, trace) {
                    Ok(r) => {
                        attempted += r.attempted;
                        failed += r.failed;
                        for (metric, value) in r.metrics {
                            table.entry((name, metric)).or_default().push(value);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        broken += 1;
                    }
                }
            }
            println!("  set {} of {}: {name} done", set + 1, args.repeat);
        }
    }

    let mut rows = Vec::new();
    let mut disagreeing = Vec::new();
    for (gated, specs) in [(true, END_TO_END), (false, PER_LAYER)] {
        for w in &selected {
            for m in specs {
                let Some(values) = table.get(&(*w, m.name.to_string())) else {
                    continue;
                };
                // A layer the workload never calls reads 0 in every set.
                if !gated && values.iter().all(|v| *v == 0.0) {
                    continue;
                }
                let med = stats::median(values);
                let (q1, q3) = stats::quartiles(values);
                let agree = !gated || sets_agree(m, values);
                if !agree {
                    disagreeing.push(format!("{w}/{}", m.name));
                }
                // Quartiles and agreement say something only across sets.
                let across_sets = if values.len() > 1 {
                    format!(
                        " q1 {q1:.4} q3 {q3:.4} spread {:.4}{}",
                        stats::spread(values),
                        match (gated, agree) {
                            (false, _) => "",
                            (true, true) => "  within bound",
                            (true, false) => "  SETS DISAGREE",
                        }
                    )
                } else {
                    String::new()
                };
                println!(
                    "{w:<14} {:<32} {med:>16.4} {:<6}{across_sets}",
                    m.name, m.unit
                );
                rows.push(jsonw::obj(&[
                    ("workload", jsonw::s(w)),
                    ("metric", jsonw::s(m.name)),
                    ("unit", jsonw::s(m.unit)),
                    ("gated", gated.to_string()),
                    ("bound", jsonw::f(m.bound)),
                    ("median", jsonw::f(med)),
                    ("q1", jsonw::f(q1)),
                    ("q3", jsonw::f(q3)),
                    ("spread", jsonw::f(stats::spread(values))),
                    ("agree", agree.to_string()),
                    (
                        "values",
                        jsonw::arr(&values.iter().map(|v| jsonw::f(*v)).collect::<Vec<_>>()),
                    ),
                ]));
            }
        }
    }
    println!(
        "fail_ratio {:.6} ({failed} failed of {attempted} attempted)",
        failed as f64 / attempted.max(1) as f64
    );
    if !disagreeing.is_empty() {
        println!(
            "sets disagree beyond the bound on: {}",
            disagreeing.join(", ")
        );
    }
    write_out(
        "calibration.json",
        &jsonw::obj(&[
            ("comparable", (!args.quick).to_string()),
            ("seed", args.seed.to_string()),
            ("seconds", jsonw::f(args.seconds)),
            ("sets", args.repeat.to_string()),
            ("available_parallelism", parallelism().to_string()),
            ("rustc", jsonw::s(&rustc)),
            ("attempted", attempted.to_string()),
            ("failed", failed.to_string()),
            ("rows", jsonw::arr(&rows)),
        ]),
    );
    if failed == 0 && broken == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    host::fix_mmap_threshold();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) if args.repeat == 1 => single(name, &args),
        _ => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_hand_forms_of_trace_both_parse() {
        let a = parse_args(&argv("--workload flood --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("flood"), 7, 8.0, true)
        );
        assert!(!parse_args(&argv("--trace 0 --seed 3")).unwrap().trace);
        let a = parse_args(&argv("--trace --quick")).unwrap();
        assert!(a.trace && a.quick && a.seed == spec::PINNED_SEED);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            checks: runner::Checks {
                attempted: 10,
                failed: 1,
                notes: Vec::new(),
            },
            metrics: vec![("op_ms", 1.25, "ms")],
            info: String::new(),
            trace_json: None,
        };
        assert_eq!(
            result_line(&outcome),
            r#"{"correct":false,"attempted":10,"failed":1,"metrics":{"op_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }

    #[test]
    fn agreement_is_one_sided_and_scaled_by_the_bound() {
        let lower = &END_TO_END[0];
        assert_eq!((lower.better, lower.bound), (Better::Lower, 0.25));
        assert!(sets_agree(lower, &[100.0, 110.0, 90.0]));
        assert!(!sets_agree(lower, &[100.0, 100.0, 130.0]));
        assert!(
            sets_agree(lower, &[100.0, 100.0, 50.0]),
            "better is never a disagreement"
        );
        let higher = &END_TO_END[1];
        assert!(!sets_agree(higher, &[100.0, 100.0, 70.0]));
    }
}
