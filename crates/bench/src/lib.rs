//! # lucid-bench
//!
//! The evaluation harness: one function per table/figure in the paper's
//! §7, each returning structured rows that the `fig*` binaries print and
//! the integration tests assert against. Criterion benches in `benches/`
//! measure the compiler and simulators themselves.
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Figure 9 (app table) | [`figure09`] | `fig09_apps` |
//! | Figure 10 (P4 LoC breakdown) | [`figure10`] | `fig10_loc_breakdown` |
//! | Figure 11 (dev time — see note) | [`figure11`] | `fig11_compile_times` |
//! | Figure 12 (stage ratio) | [`figure12`] | `fig12_stage_ratio` |
//! | Figure 13 (ALUs per stage) | [`figure13`] | `fig13_parallelism` |
//! | Figure 14 (delay queue) | [`figure14`] | `fig14_delay_queue` |
//! | Figure 15 (recirc uses) | [`figure15`] | `fig15_recirc_uses` |
//! | Figure 16 (SFW recirc model) | [`figure16`] | `fig16_sfw_model` |
//! | Figure 17 (install time CDF) | [`figure17`] | `fig17_sfw_install` |

#![forbid(unsafe_code)]

use lucid_apps::AppInfo;
use lucid_backend::P4Loc;
use lucid_core::frontend::json;
use lucid_core::{
    Build, Compiler, Engine, ExecMode, Interp, LayoutOptions, NetConfig, PipelineSpec,
};
use lucid_tofino::{ecdf, figure16_rows, DelayQueue, RecircPort, RemoteControlModel, SfwModelRow};
use std::time::Instant;

/// Shared command-line switches of the `fig*` binaries: `--smoke` shrinks
/// trial counts so CI can afford every binary, `--json` swaps the table
/// for one machine-parseable JSON line (see [`jsonout`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BenchMode {
    pub smoke: bool,
    pub json: bool,
}

impl BenchMode {
    /// Parse the process arguments, ignoring anything unrecognized (the
    /// binaries have no other flags).
    pub fn from_args() -> BenchMode {
        let mut mode = BenchMode::default();
        for a in std::env::args().skip(1) {
            match a.as_str() {
                "--smoke" => mode.smoke = true,
                "--json" => mode.json = true,
                _ => {}
            }
        }
        mode
    }

    /// `full` normally, `quick` under `--smoke`.
    pub fn trials(&self, full: usize, quick: usize) -> usize {
        if self.smoke {
            quick
        } else {
            full
        }
    }
}

/// The standard one-line document of a `fig* --json` run:
/// `{"figure":"...","rows":[...]}`, rows appended by the caller through
/// the workspace's JSON writer ([`lucid_core::frontend::json`]).
pub mod jsonout {
    use lucid_core::frontend::json::{self, Writer};

    pub fn emit(figure: &str, rows: impl FnOnce(&mut Writer)) {
        let doc = json::write(|w| {
            w.obj(|w| {
                w.key("figure").str(figure).key("rows").arr(rows);
            });
        });
        println!("{doc}");
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

/// One row of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig09Row {
    pub app: AppInfo,
    pub lucid_loc: usize,
    pub p4_loc: usize,
    pub stages: usize,
}

/// Compile every bundled app and report the Figure 9 columns.
pub fn figure09() -> Vec<Fig09Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| {
            let mut build = compiled(&app);
            Fig09Row {
                lucid_loc: app.lucid_loc(),
                p4_loc: build.p4().expect("compiled").loc.total(),
                stages: build.layout().expect("compiled").total_stages,
                app,
            }
        })
        .collect()
}

/// One bar of Figure 10: the generated P4's line breakdown vs Lucid LoC.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    pub key: &'static str,
    pub name: &'static str,
    pub lucid_loc: usize,
    pub p4: P4Loc,
}

pub fn figure10() -> Vec<Fig10Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| {
            let mut build = compiled(&app);
            Fig10Row {
                key: app.key,
                name: app.name,
                lucid_loc: app.lucid_loc(),
                p4: build.p4().expect("compiled").loc.clone(),
            }
        })
        .collect()
}

/// Figure 11 is a human developer-time study and cannot be reproduced in
/// software; we report compile+check wall time per app as the closest
/// measurable proxy, alongside the paper's reported numbers.
#[derive(Debug, Clone)]
pub struct Fig11Row {
    pub key: &'static str,
    pub name: &'static str,
    pub compile_time_us: f64,
    /// The paper's reported development time, where given.
    pub paper_dev_time: Option<&'static str>,
}

pub fn figure11() -> Vec<Fig11Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| {
            let t0 = Instant::now();
            let mut build = session(&app);
            assert!(build.p4().is_ok(), "{} compiles", app.key);
            let dt = t0.elapsed().as_secs_f64() * 1e6;
            let paper = match app.key {
                "nat" => Some("25m"),
                "rip" => Some("40m"),
                "dfw" => Some("25m"),
                "dfw_aging" => Some("25m + 30m"),
                _ => None,
            };
            Fig11Row {
                key: app.key,
                name: app.name,
                compile_time_us: dt,
                paper_dev_time: paper,
            }
        })
        .collect()
}

/// One bar of Figure 12 (and the ablation columns from DESIGN.md §4).
#[derive(Debug, Clone)]
pub struct Fig12Row {
    pub key: &'static str,
    pub name: &'static str,
    pub unoptimized_stages: usize,
    pub optimized_stages: usize,
    pub ratio: f64,
    /// Stages with the rearrangement pass disabled (ablation).
    pub no_rearrange_stages: Option<usize>,
}

pub fn figure12() -> Vec<Fig12Row> {
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
            build.reconfigure(&Compiler::new().target(tall).layout(LayoutOptions {
                rearrange: false,
                ..LayoutOptions::default()
            }));
            let no_rearrange = build.layout().ok().map(|l| l.total_stages);
            Fig12Row {
                key: app.key,
                name: app.name,
                unoptimized_stages: opt.unoptimized_stages,
                optimized_stages: opt.total_stages,
                ratio: opt.stage_ratio(),
                no_rearrange_stages: no_rearrange,
            }
        })
        .collect()
}

/// One bar of Figure 13: ALU instructions mapped per stage.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    pub key: &'static str,
    pub name: &'static str,
    pub mean_alu_per_stage: f64,
    pub max_alu_per_stage: usize,
}

pub fn figure13() -> Vec<Fig13Row> {
    lucid_apps::all()
        .into_iter()
        .map(|app| {
            let mut build = laid_out(&app);
            let layout = build.layout().expect("placed");
            Fig13Row {
                key: app.key,
                name: app.name,
                mean_alu_per_stage: layout.mean_alu_per_stage(),
                max_alu_per_stage: layout.max_alu_per_stage(),
            }
        })
        .collect()
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
pub fn figure14() -> Vec<Fig14Point> {
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

/// Figure 15 rows: recirculation-use classes and which apps exhibit them.
pub fn figure15() -> Vec<(lucid_apps::RecircUse, Vec<&'static str>)> {
    use lucid_apps::RecircUse::*;
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

/// Figure 16: the worst-case SFW recirculation model on the idealized
/// PISA processor.
pub fn figure16() -> Vec<SfwModelRow> {
    figure16_rows(&PipelineSpec::idealized_pisa())
}

/// Figure 17: empirical CDFs of flow-installation time, integrated
/// (interpreter-measured) vs remote control (Mantis model).
#[derive(Debug, Clone)]
pub struct Fig17 {
    /// (install time ns, cumulative probability) — integrated control.
    pub integrated: Vec<(f64, f64)>,
    /// Same for the remote-control baseline.
    pub remote: Vec<(f64, f64)>,
    pub integrated_mean_ns: f64,
    pub remote_mean_ns: f64,
    pub speedup: f64,
    pub frac_inline: f64,
}

pub fn figure17(trials: usize, seed: u64) -> Fig17 {
    let bench = lucid_apps::sfw::install_benchmark(trials, 0.3125, seed);
    let remote = RemoteControlModel::default().sample(trials, seed);
    let integrated_mean = bench.times_ns.iter().sum::<f64>() / bench.times_ns.len().max(1) as f64;
    let remote_mean = remote.iter().sum::<f64>() / remote.len().max(1) as f64;
    Fig17 {
        integrated: ecdf(&bench.times_ns),
        remote: ecdf(&remote),
        integrated_mean_ns: integrated_mean,
        remote_mean_ns: remote_mean,
        speedup: remote_mean / integrated_mean.max(1.0),
        frac_inline: bench.frac_inline,
    }
}

/// The mesh workload of the `fig_sim_throughput` benchmark: every packet
/// updates a per-switch sketch, recirculates a decremented copy, and
/// forwards a mixed copy to a hash-picked neighbor — cross-traffic heavy
/// enough that the sharded engine's epoch barriers actually matter.
fn mesh_workload(switches: u64) -> String {
    assert!(
        switches.is_power_of_two(),
        "mesh size must be a power of two"
    );
    format!(
        r#"
        global cnt = new Array<<32>>(1024);
        global mix = new Array<<32>>(1024);
        memop plus(int m, int x) {{ return m + x; }}
        event pkt(int a, int b, int ttl);
        handle pkt(int a, int b, int ttl) {{
            auto i = hash<<10>>(1, a, b);
            int c = Array.update(cnt, i, plus, 1, plus, 1);
            auto j = hash<<10>>(2, c, a);
            Array.setm(mix, j, plus, b);
            if (ttl > 0) {{
                generate pkt(a + 1, b, ttl - 1);
                generate Event.locate(pkt(a, b + c, ttl - 1), ((a + b) & {mask}) + 1);
            }}
        }}
        "#,
        mask = switches - 1
    )
}

/// The run's overall latency tail (every event class merged into one
/// histogram pair), recorded into `BENCH_PR.json` beside the throughput
/// rows so the CI perf trajectory tracks tails, not just means. Virtual
/// nanoseconds, so the numbers are deterministic — a changed tail means
/// the simulation's timing behavior changed, not that the host was busy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyTail {
    /// [`lucid_core::Metrics::digest`] of the full per-class metrics;
    /// joined into each bench's identity check, so every combination
    /// must agree on every histogram bit.
    pub metrics_digest: u64,
    pub lat_p50_ns: u64,
    pub lat_p90_ns: u64,
    pub lat_p99_ns: u64,
    pub lat_p999_ns: u64,
    pub lat_max_ns: u64,
    pub res_p99_ns: u64,
    pub res_max_ns: u64,
}

impl LatencyTail {
    pub fn of(metrics: &lucid_core::Metrics) -> LatencyTail {
        let all = metrics.overall().unwrap_or_default();
        LatencyTail {
            metrics_digest: metrics.digest(),
            lat_p50_ns: all.dispatch.p50(),
            lat_p90_ns: all.dispatch.p90(),
            lat_p99_ns: all.dispatch.p99(),
            lat_p999_ns: all.dispatch.p999(),
            lat_max_ns: all.dispatch.max(),
            res_p99_ns: all.residency.p99(),
            res_max_ns: all.residency.max(),
        }
    }

    /// The `"latency_tail"` object both figure binaries embed.
    pub fn to_json(&self) -> String {
        json::write(|w| {
            w.obj(|w| {
                w.key("metrics_digest").hex64(self.metrics_digest);
                w.key("lat_p50_ns").u64(self.lat_p50_ns);
                w.key("lat_p90_ns").u64(self.lat_p90_ns);
                w.key("lat_p99_ns").u64(self.lat_p99_ns);
                w.key("lat_p999_ns").u64(self.lat_p999_ns);
                w.key("lat_max_ns").u64(self.lat_max_ns);
                w.key("res_p99_ns").u64(self.res_p99_ns);
                w.key("res_max_ns").u64(self.res_max_ns);
            });
        })
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "latency tail (virtual ns): p50 {} / p90 {} / p99 {} / p999 {} / max {}; \
             residency p99 {} / max {}; metrics digest {:016x}",
            self.lat_p50_ns,
            self.lat_p90_ns,
            self.lat_p99_ns,
            self.lat_p999_ns,
            self.lat_max_ns,
            self.res_p99_ns,
            self.res_max_ns,
            self.metrics_digest
        )
    }
}

/// One engine x executor combination's measurement on the mesh workload.
#[derive(Debug, Clone)]
pub struct SimThroughputRow {
    pub engine: &'static str,
    pub exec: &'static str,
    pub events_processed: u64,
    pub wall_ms: f64,
    pub events_per_sec: f64,
}

/// The engine x executor comparison `fig_sim_throughput` prints.
#[derive(Debug, Clone)]
pub struct SimThroughput {
    pub switches: u64,
    pub injected_per_switch: u64,
    pub workers: usize,
    /// One row per engine x exec combination, sequential/ast first.
    pub rows: Vec<SimThroughputRow>,
    /// Final array state, statistics, trace, and printf output were
    /// byte-identical across every combination (the correctness gate
    /// for the comparison).
    pub identical: bool,
    /// Sharded events/sec over sequential events/sec (AST executor).
    pub speedup: f64,
    /// Bytecode events/sec over AST events/sec (sequential engine) —
    /// the flat-dispatch payoff; CI requires >= 2x.
    pub bytecode_speedup: f64,
    /// The workload's overall latency tail; the metrics digest inside it
    /// is part of the cross-combination identity check.
    pub tail: LatencyTail,
}

/// Run the mesh workload under every engine x executor combination and
/// compare. `workers == 0` means one per core. Deterministic: all four
/// combinations must produce identical final array state, statistics,
/// traces, and printf output.
pub fn sim_throughput(
    switches: u64,
    injected_per_switch: u64,
    ttl: u64,
    workers: usize,
) -> SimThroughput {
    let src = mesh_workload(switches);
    let prog = lucid_core::check::parse_and_check(&src).expect("workload checks");
    let combos = [
        ("sequential", Engine::Sequential, ExecMode::Ast),
        ("sequential", Engine::Sequential, ExecMode::Bytecode),
        (
            "sharded",
            Engine::Sharded {
                workers,
                epoch_ns: 0,
            },
            ExecMode::Ast,
        ),
        (
            "sharded",
            Engine::Sharded {
                workers,
                epoch_ns: 0,
            },
            ExecMode::Bytecode,
        ),
    ];
    /// Everything a combination's run leaves observable.
    type Observed = (
        Vec<Vec<u64>>,
        lucid_core::interp::Stats,
        Vec<lucid_core::interp::Handled>,
        Vec<String>,
        lucid_core::Metrics,
    );
    let mut rows = Vec::new();
    let mut tail: Option<LatencyTail> = None;
    // Only the first trial's snapshot is retained; every later one is
    // compared against it and dropped (full mode holds ~100k trace
    // entries per snapshot — keeping all eight alive at once would be
    // most of the bench's memory).
    let mut reference: Option<Observed> = None;
    let mut identical = true;
    for (label, engine, exec) in combos {
        // Best of two trials per combination: wall-clock throughput on a
        // shared box is noisy, and the CI perf gate floors ratios of
        // these rows. Both trials must also observe identical results —
        // a free same-config determinism check.
        let mut best: Option<SimThroughputRow> = None;
        for _ in 0..2 {
            let mut cfg = NetConfig::mesh(switches);
            cfg.engine = engine;
            cfg.exec = exec;
            let mut sim = Interp::new(&prog, cfg);
            for s in 1..=switches {
                for k in 0..injected_per_switch {
                    sim.schedule(s, k * 2_000, "pkt", &[s * 1_000 + k, k, ttl])
                        .expect("workload event");
                }
            }
            let t0 = Instant::now();
            sim.run(u64::MAX, u64::MAX).expect("workload quiesces");
            let wall = t0.elapsed().as_secs_f64();
            let row = SimThroughputRow {
                engine: label,
                exec: exec.label(),
                events_processed: sim.stats.processed,
                wall_ms: wall * 1e3,
                events_per_sec: if wall > 0.0 {
                    sim.stats.processed as f64 / wall
                } else {
                    0.0
                },
            };
            if best
                .as_ref()
                .is_none_or(|b| row.events_per_sec > b.events_per_sec)
            {
                best = Some(row);
            }
            let metrics = sim.metrics();
            tail.get_or_insert_with(|| LatencyTail::of(&metrics));
            let observed: Observed = (
                (1..=switches)
                    .flat_map(|s| [sim.array(s, "cnt").to_vec(), sim.array(s, "mix").to_vec()])
                    .collect(),
                sim.stats.clone(),
                sim.trace.clone(),
                sim.output.clone(),
                metrics,
            );
            match &reference {
                None => reference = Some(observed),
                Some(r) => identical &= *r == observed,
            }
        }
        rows.push(best.expect("at least one trial"));
    }
    let actual_workers = if workers == 0 {
        std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(switches as usize)
    } else {
        workers
    };
    SimThroughput {
        switches,
        injected_per_switch,
        workers: actual_workers,
        speedup: rows[2].events_per_sec / rows[0].events_per_sec.max(1.0),
        bytecode_speedup: rows[1].events_per_sec / rows[0].events_per_sec.max(1.0),
        rows,
        identical,
        tail: tail.expect("at least one trial ran"),
    }
}

/// One engine x executor x opt-level measurement on the generator-driven
/// workload.
#[derive(Debug, Clone)]
pub struct WorkloadScaleRow {
    pub engine: &'static str,
    pub exec: &'static str,
    /// Bytecode optimization level (`"0"`/`"1"`/`"2"`; the AST walker
    /// ignores it).
    pub opt: &'static str,
    pub events_processed: u64,
    pub injected: u64,
    pub wall_ms: f64,
    pub events_per_sec: f64,
    pub state_digest: u64,
}

/// The `fig_workload_scale` result: the engine x exec x opt matrix
/// driven by streaming generators (zipf keys, a uniform background, and
/// an attack burst) — the scale gate for the workload-generator
/// subsystem and the perf-trajectory gate for the bytecode optimizer.
#[derive(Debug, Clone)]
pub struct WorkloadScale {
    pub switches: u64,
    /// Total generator-sourced injections per run.
    pub target_events: u64,
    /// One row per combination, sequential/ast first; the bytecode rows
    /// sweep opt levels 0, 1, 2 under the sequential engine.
    pub rows: Vec<WorkloadScaleRow>,
    /// State digest, metrics digest, statistics, and per-generator
    /// counts agreed across every combination.
    pub identical: bool,
    /// Slowest combination's sustained events/sec — what the scale gate
    /// checks.
    pub min_events_per_sec: f64,
    /// Fully-optimized bytecode events/sec over the AST walker's, both
    /// under the sequential engine — the optimizer pipeline's headline
    /// number (CI records and floors it via `BENCH_PR.json`).
    pub bytecode_speedup: f64,
    /// Optimized (O2) over unoptimized (O0) bytecode events/sec — what
    /// the superinstruction + regalloc passes themselves buy.
    pub opt_speedup: f64,
    /// The workload's overall latency tail; its metrics digest is part
    /// of the cross-combination identity check.
    pub tail: LatencyTail,
}

/// The generator scenario behind `fig_workload_scale` and
/// `fig_parallel_scale`: a telemetry-sketch mesh fed by three seeded
/// sources. The event list is never materialized — the engines pull the
/// stream lazily, so `target_events` can be millions without a matching
/// allocation. Every injection carries `ttl = 1`, so each root spawns a
/// recirculated and a remote child: the derived events are what the
/// dispatch-latency histograms sample (roots are their own cause and
/// contribute no latency), keeping the recorded `latency_tail` non-zero,
/// and the remote copies put real cross-shard traffic on the sharded
/// engine's mailboxes.
fn workload_scale_scenario(switches: u64, target_events: u64) -> lucid_core::Scenario {
    // Thirds: steady zipf flows, uniform background, and a burst window
    // at 10x rate (phases) — diverse enough to exercise every
    // distribution kind at scale.
    let per = target_events / 3;
    let burst = target_events - 2 * per;
    let doc = format!(
        r#"{{
        "name": "workload_scale",
        "net": {{"switches": {switches}}},
        "seed": 42,
        "limits": {{"max_events": {budget}}},
        "generators": [
          {{"name": "flows", "event": "pkt", "switches": [{all}],
            "rate_eps": 2000000, "jitter_ns": 120, "count": {per},
            "args": [{{"zipf": {{"n": 65536, "s": 1.1}}}},
                     {{"uniform": [0, 1023]}}, 1]}},
          {{"name": "background", "event": "pkt", "switches": [{all}],
            "rate_eps": 1000000, "count": {per},
            "args": [{{"uniform": [0, 1048575]}}, {{"seq": 4096}}, 1]}},
          {{"name": "burst", "event": "pkt", "switch": 1,
            "rate_eps": 500000, "start_ns": 200000, "count": {burst},
            "phases": [{{"at_ns": 400000, "rate_eps": 5000000}}],
            "args": [{{"zipf": {{"n": 64, "s": 1.3}}}}, 7, 1]}}
        ]
      }}"#,
        // Each ttl=1 root processes itself plus two ttl=0 children.
        budget = target_events * 4 + 1_000,
        all = (1..=switches)
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    );
    lucid_core::Scenario::from_json(&doc).expect("workload scenario parses")
}

/// Run the generator workload under the engine x executor x opt matrix.
/// Deterministic: every combination must agree on the state digest,
/// statistics, and per-generator injection counts — an optimizer
/// miscompile cannot hide behind an equally-wrong lowering because the
/// bytecode rows run at every level.
pub fn workload_scale(switches: u64, target_events: u64, workers: usize) -> WorkloadScale {
    use lucid_core::{OptLevel, SimOptions};
    let src = mesh_workload(switches);
    let prog = lucid_core::check::parse_and_check(&src).expect("workload checks");
    let sc = workload_scale_scenario(switches, target_events);
    let sharded = Engine::Sharded {
        workers,
        epoch_ns: 0,
    };
    let combos = [
        (Engine::Sequential, ExecMode::Ast, OptLevel::O2),
        (Engine::Sequential, ExecMode::Bytecode, OptLevel::O0),
        (Engine::Sequential, ExecMode::Bytecode, OptLevel::O1),
        (Engine::Sequential, ExecMode::Bytecode, OptLevel::O2),
        (sharded, ExecMode::Ast, OptLevel::O2),
        (sharded, ExecMode::Bytecode, OptLevel::O2),
    ];
    /// Everything a combination's run must agree on.
    type Observed = (u64, u64, lucid_core::interp::Stats, Vec<(String, u64)>);
    // Best of three trials per combination (the CI perf gate floors
    // ratios of these rows against a hard >=8x bar; single wall-clock
    // samples on a shared box are too noisy, and a co-tenant burst
    // during one trial must not fail the gate). Trials are interleaved
    // round-robin across the combinations rather than run back-to-back:
    // a burst that outlasts one combination's whole consecutive trial
    // window would poison all of its samples at once and skew every
    // ratio built on that row, whereas under interleaving the burst
    // lands on one round of every combination and best-of keeps a clean
    // round for each. Every trial's digest and stats join the identity
    // check — a free same-config determinism proof.
    let mut best: Vec<Option<WorkloadScaleRow>> = vec![None; combos.len()];
    let mut observed: Vec<Observed> = Vec::new();
    let mut tail: Option<LatencyTail> = None;
    for _round in 0..3 {
        for (slot, &(engine, exec, opt)) in combos.iter().enumerate() {
            let ov = SimOptions {
                engine: Some(engine),
                exec: Some(exec),
                opt: Some(opt),
                // The identity check here runs on digests/stats/counts,
                // never the trace — don't make every row pay to retain
                // one (the walker and bytecode rows both shed the same
                // per-event cost, so the ratios stay honest).
                record_trace: Some(false),
                ..SimOptions::default()
            };
            let report =
                lucid_core::run_scenario_with(&prog, &sc, &ov).expect("workload scenario runs");
            let row = WorkloadScaleRow {
                engine: engine.label(),
                exec: exec.label(),
                opt: opt.label(),
                events_processed: report.stats.processed,
                injected: report.gens.iter().map(|(_, n)| n).sum(),
                wall_ms: report.wall_ms,
                events_per_sec: report.events_per_sec,
                state_digest: report.state_digest,
            };
            if best[slot]
                .as_ref()
                .is_none_or(|b| row.events_per_sec > b.events_per_sec)
            {
                best[slot] = Some(row);
            }
            tail.get_or_insert_with(|| LatencyTail::of(&report.metrics));
            observed.push((
                report.state_digest,
                report.metrics.digest(),
                report.stats,
                report.gens,
            ));
        }
    }
    let rows: Vec<WorkloadScaleRow> = best
        .into_iter()
        .map(|b| b.expect("every combination ran"))
        .collect();
    let identical = observed.iter().all(|o| *o == observed[0]);
    let min_events_per_sec = rows
        .iter()
        .map(|r| r.events_per_sec)
        .fold(f64::INFINITY, f64::min);
    // Row order is fixed above: [0] seq/ast, [1] seq/bc/O0, [3] seq/bc/O2.
    let bytecode_speedup = rows[3].events_per_sec / rows[0].events_per_sec.max(1.0);
    let opt_speedup = rows[3].events_per_sec / rows[1].events_per_sec.max(1.0);
    WorkloadScale {
        switches,
        target_events,
        rows,
        identical,
        min_events_per_sec,
        bytecode_speedup,
        opt_speedup,
        tail: tail.expect("at least one trial ran"),
    }
}

/// One worker-count measurement of the `fig_parallel_scale` sweep.
#[derive(Debug, Clone)]
pub struct ParallelScaleRow {
    pub workers: usize,
    pub events_processed: u64,
    pub wall_ms: f64,
    pub events_per_sec: f64,
    /// This row over the first row (one worker, the baseline): the
    /// best per-round throughput ratio (shared-host contention is
    /// strictly one-sided, so the cleanest of the interleaved rounds is
    /// the least contaminated comparison).
    pub speedup: f64,
    pub state_digest: u64,
}

/// The `fig_parallel_scale` result: the sharded engine's worker-count
/// scaling curve, all under the bytecode executor at O2 on the
/// generator-driven mesh workload. The first row is the baseline — at
/// one worker the sharded engine *is* the sequential engine.
#[derive(Debug, Clone)]
pub struct ParallelScale {
    pub switches: u64,
    /// Total generator-sourced injections per run.
    pub target_events: u64,
    /// One row per swept worker count, ascending.
    pub rows: Vec<ParallelScaleRow>,
    /// State digest, metrics digest, statistics, and per-generator
    /// counts agreed between every worker count.
    pub identical: bool,
    /// Whether throughput never dropped more than 5% from one worker
    /// count to the next. Not a hard gate — on a single-core host every
    /// extra worker is pure overhead — but recorded into `BENCH_PR.json`
    /// so multi-core regressions show up in the perf trajectory.
    pub monotone: bool,
    /// The host's `std::thread::available_parallelism()` at measurement
    /// time. Recorded next to `monotone` because the flag is only
    /// interpretable against it: on a 1-core host a non-monotone curve
    /// is expected (every extra worker is pure overhead), on an 8-core
    /// host it is a regression.
    pub available_parallelism: usize,
    /// The workload's overall latency tail; its metrics digest is part
    /// of the cross-run identity check.
    pub tail: LatencyTail,
}

/// Sweep the sharded engine across `worker_counts` on the generator
/// mesh workload and compare every run — digest for digest — against
/// the first (one worker, which is the sequential engine).
/// Deterministic: the scaling curve is only meaningful if every point
/// computes the same run.
pub fn parallel_scale(switches: u64, target_events: u64, worker_counts: &[usize]) -> ParallelScale {
    use lucid_core::{OptLevel, SimOptions};
    let src = mesh_workload(switches);
    let prog = lucid_core::check::parse_and_check(&src).expect("workload checks");
    let sc = workload_scale_scenario(switches, target_events);
    /// Everything a run must agree on.
    type Observed = (u64, u64, lucid_core::interp::Stats, Vec<(String, u64)>);
    let mut observed: Vec<Observed> = Vec::new();
    let mut tail: Option<LatencyTail> = None;
    // Best of four trials per worker count, interleaved round-robin
    // (like `workload_scale`): running each count's trials back-to-back
    // would let one co-tenant burst poison a whole row — and with it
    // every ratio against the baseline. Every trial joins the identity
    // check.
    let mut best: Vec<Option<(u64, f64, f64, u64)>> = vec![None; worker_counts.len()];
    // Per-round events/sec, for the speedup estimator below.
    let mut eps_rounds: Vec<Vec<f64>> = vec![Vec::new(); worker_counts.len()];
    // Round -1 is an untimed warmup: the process's very first run pays
    // page faults and lazy initialization that no later run repays, and
    // it always lands on the baseline row — a per-round ratio against a
    // cold round-0 baseline would read far above truth. The warmup run
    // still joins the identity check.
    for round in -1i32..4 {
        for (slot, &workers) in worker_counts.iter().enumerate() {
            let ov = SimOptions {
                engine: Some(Engine::Sharded {
                    workers,
                    epoch_ns: 0,
                }),
                exec: Some(ExecMode::Bytecode),
                opt: Some(OptLevel::O2),
                // Identity here is digest/stats/counts-based; skip
                // retaining a trace nobody reads (uniform across all
                // worker counts).
                record_trace: Some(false),
                ..SimOptions::default()
            };
            let report =
                lucid_core::run_scenario_with(&prog, &sc, &ov).expect("workload scenario runs");
            if round >= 0 {
                if best[slot]
                    .as_ref()
                    .is_none_or(|b| report.events_per_sec > b.2)
                {
                    best[slot] = Some((
                        report.stats.processed,
                        report.wall_ms,
                        report.events_per_sec,
                        report.state_digest,
                    ));
                }
                eps_rounds[slot].push(report.events_per_sec);
            }
            tail.get_or_insert_with(|| LatencyTail::of(&report.metrics));
            observed.push((
                report.state_digest,
                report.metrics.digest(),
                report.stats,
                report.gens,
            ));
        }
    }
    // Speedups are the best per-round ratio over the baseline row.
    // Contention on a shared host is strictly one-sided — a co-tenant
    // can only slow a sample down, never speed it up — so of the four
    // pairs the round with the highest ratio is the comparison least
    // contaminated on the numerator's side. Throughput columns still
    // report best-of per worker count.
    let ratio_best = |slot: usize| -> f64 {
        eps_rounds[slot]
            .iter()
            .zip(&eps_rounds[0])
            .map(|(e, s)| e / s.max(1.0))
            .fold(0.0, f64::max)
    };
    let rows: Vec<ParallelScaleRow> = worker_counts
        .iter()
        .zip(best)
        .enumerate()
        .map(|(i, (&workers, pick))| {
            let (processed, wall_ms, eps, digest) = pick.expect("every worker count ran");
            ParallelScaleRow {
                workers,
                events_processed: processed,
                wall_ms,
                events_per_sec: eps,
                speedup: ratio_best(i),
                state_digest: digest,
            }
        })
        .collect();
    let identical = observed.iter().all(|o| *o == observed[0]);
    let monotone = rows
        .windows(2)
        .all(|w| w[1].events_per_sec >= w[0].events_per_sec * 0.95);
    ParallelScale {
        switches,
        target_events,
        rows,
        identical,
        monotone,
        available_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        tail: tail.expect("at least one trial ran"),
    }
}

// -------------------------------------------------------- serve ingest

/// One serve-ingest trial's numbers (`fig_serve_ingest`).
#[derive(Debug, Clone)]
pub struct ServeIngest {
    pub switches: u64,
    pub target_events: u64,
    /// Events per `ingest` request line.
    pub batch: u64,
    /// Request lines served (open + ingest/advance pairs + drain).
    pub requests: u64,
    pub wall_ms: f64,
    /// Sustained served events/sec through the protocol layer (best of
    /// the interleaved trials).
    pub events_per_sec: f64,
    pub state_digest: u64,
    /// The served session's final report (less the two wall-clock
    /// fields) is byte-identical to the equivalent one-shot `sim` run.
    pub identical: bool,
}

/// The `serve_ingest` event stream, `events[i]` for `i` in `range`, as a
/// scenario-shaped `events` array.
fn write_events(w: &mut json::Writer, range: std::ops::Range<u64>, switches: u64) {
    w.arr(|w| {
        for i in range {
            w.obj(|w| {
                w.key("time_ns").u64(100 * (i + 1));
                w.key("switch").u64(1 + i % switches);
                w.key("event").str("pkt").key("args").arr(|w| {
                    w.u64(i % 256);
                });
            });
        }
    });
}

/// Push `target_events` through a live `serve` session in `batch`-sized
/// `ingest` request lines, advancing the session after every batch, and
/// compare the drained report — byte for byte, wall-clock fields aside —
/// against a one-shot run of the same events authored into a scenario.
/// The measured rate includes the full daemon-side cost: request JSON
/// parsing, scheduling, simulation, and reply rendering.
pub fn serve_ingest(switches: u64, target_events: u64, batch: u64) -> ServeIngest {
    use lucid_core::{handle_line, CheckHost, Scenario, ServeState, SimOptions};
    let src = r#"
        global cts = new Array<<32>>(256);
        memop plus(int m, int x) { return m + x; }
        event pkt(int idx);
        handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
    "#;
    // One scenario document: the header fields, then whatever events the
    // caller authors in (none for the served session, all for one-shot).
    let scenario = |events: std::ops::Range<u64>| {
        json::write(|w| {
            w.obj(|w| {
                w.key("name").str("serve-ingest").key("net").obj(|w| {
                    w.key("switches").u64(switches);
                });
                w.key("exec").str("bytecode").key("events");
                write_events(w, events, switches);
            });
        })
    };

    // The client side — request lines — is built up front so the timed
    // loop holds only served work.
    let mut requests: Vec<String> = vec![json::write(|w| {
        w.obj(|w| {
            w.key("op").str("open").key("program").str(src);
            w.key("scenario").str(&scenario(0..0));
        });
    })];
    let mut i = 0;
    while i < target_events {
        let n = batch.min(target_events - i);
        requests.push(json::write(|w| {
            w.obj(|w| {
                w.key("op").str("ingest");
                w.key("session").u64(1);
                w.key("events");
                write_events(w, i..i + n, switches);
            });
        }));
        requests.push(json::write(|w| {
            w.obj(|w| {
                w.key("op").str("advance").key("session").u64(1);
                w.key("to_ns").u64(100 * (i + n));
            });
        }));
        i += n;
    }
    requests.push(r#"{"op":"drain","session":1}"#.to_string());

    // The reference: the same events authored into the scenario and run
    // one-shot.
    let sc_full = scenario(0..target_events);
    let sc_full = Scenario::from_json(&sc_full).expect("one-shot scenario parses");
    let prog = lucid_core::check::parse_and_check(src).expect("program checks");
    let oneshot = lucid_core::run_scenario_with(&prog, &sc_full, &SimOptions::default())
        .expect("one-shot runs");
    // Wall-clock fields are the report's only nondeterminism.
    let stable = |report: &str| -> String {
        report
            .split(',')
            .filter(|f| !f.contains("\"wall_ms\"") && !f.contains("\"events_per_sec\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    let want = stable(&oneshot.to_json());

    let mut best_eps = 0.0f64;
    let mut best_wall = 0.0f64;
    let mut identical = true;
    for _trial in 0..3 {
        let mut state = ServeState::new();
        let mut host = CheckHost;
        let start = Instant::now();
        let mut last = String::new();
        for line in &requests {
            last = handle_line(&mut state, &mut host, line).reply().to_string();
            assert!(last.starts_with(r#"{"ok":true"#), "request failed: {last}");
        }
        let wall = start.elapsed().as_secs_f64();
        // The drain reply is `{"ok":true,...,"report":{...}}`: the
        // embedded report keeps its own closing brace, only the reply's
        // outer one goes.
        let report = last
            .split_once(r#""report":"#)
            .and_then(|(_, r)| r.strip_suffix('}'))
            .expect("drain reply embeds the report");
        identical &= stable(report) == want;
        let eps = if wall > 0.0 {
            target_events as f64 / wall
        } else {
            0.0
        };
        if eps > best_eps {
            best_eps = eps;
            best_wall = wall;
        }
    }
    ServeIngest {
        switches,
        target_events,
        batch,
        requests: requests.len() as u64,
        wall_ms: best_wall * 1e3,
        events_per_sec: best_eps,
        state_digest: oneshot.state_digest,
        identical,
    }
}

/// Render a plain-text table (all figure binaries share this).
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let head: Vec<String> = headers.iter().map(ToString::to_string).collect();
    out.push_str(&fmt_row(&head, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
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
            assert!(r.p4_loc > r.lucid_loc, "{}: P4 must be longer", r.app.name);
        }
    }

    #[test]
    fn figure10_categories_sum_to_total() {
        for r in figure10() {
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

    #[test]
    fn sim_throughput_matrix_agrees_on_state() {
        let t = sim_throughput(4, 10, 2, 2);
        assert!(t.identical, "every engine x exec combination must agree");
        assert_eq!(t.rows.len(), 4);
        assert_eq!(
            (t.rows[0].engine, t.rows[0].exec),
            ("sequential", "ast"),
            "row order is the reference first"
        );
        // 40 injected events, each spawning a 2^3 - 1 = 7-event tree.
        for row in &t.rows {
            assert_eq!(row.events_processed, 40 * 7, "{}/{}", row.engine, row.exec);
        }
    }

    #[test]
    fn jsonout_escapes_and_nests() {
        let row = json::write(|w| {
            w.obj(|w| {
                w.key("name").str("a\"b\\c").key("n").u64(7);
                w.key("x").f64(1.5, 4).key("y").f64(f64::NAN, 4);
            });
        });
        assert_eq!(row, r#"{"name":"a\"b\\c","n":7,"x":1.5000,"y":null}"#);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["a", "bbbb"],
            &[
                vec!["x".into(), "y".into()],
                vec!["long".into(), "z".into()],
            ],
        );
        assert!(t.contains("a     bbbb"), "{t}");
    }
}
