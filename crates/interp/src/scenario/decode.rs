//! Decoding: `*.sim.json` text to a [`Scenario`], plus the event and
//! generator schemas the serve `ingest` verb and `lucidc sim --gen`
//! share with it. Every reader walks a [`Cursor`], so a field is named
//! once and its `$.path` is rendered only if it turns out to be wrong.

use super::{
    json, ArrayExpect, CmpOp, Expectations, FailureAction, FailureKind, Injection, MetricExpect,
    Poke, Scenario, ScenarioError,
};
use crate::bytecode::{ExecMode, OptLevel};
use crate::machine::Engine;
use crate::metrics::MetricSel;
use crate::workload::{ArgDist, GenSpec, Phase};
use lucid_frontend::json::{Cursor, Json, PathError};

impl Scenario {
    /// Parse a `*.sim.json` document. Shape errors carry the offending
    /// field path; syntax errors carry line/column.
    pub fn from_json(src: &str) -> Result<Scenario, ScenarioError> {
        let doc = json::parse(src)?;
        Ok(scenario_of(Cursor::root(&doc))?)
    }

    /// Parse a standalone generator-spec document (`lucidc sim --gen`):
    /// either one generator object or an array of them, using the same
    /// schema as the scenario's `generators` section.
    pub fn parse_generators(src: &str) -> Result<Vec<GenSpec>, ScenarioError> {
        let doc = json::parse(src)?;
        let root = Cursor::root(&doc);
        match &doc {
            Json::Arr(_) => Ok(generators_of(root)?),
            Json::Obj(_) => Ok(vec![generator_of(root, 0)?]),
            other => Err(root
                .err(format!(
                    "expected a generator object or an array of them, found {}",
                    other.kind()
                ))
                .into()),
        }
    }
}

/// Largest mesh the `"switches": N` shorthand may ask for. The id list
/// `1..=N` is allocated while decoding, so the bound is checked first: a
/// twenty-byte document must not be able to request a 2^53-entry vector.
pub(super) const MAX_MESH_SWITCHES: u64 = 4_096;

fn opt_u64(at: Option<Cursor>) -> Result<Option<u64>, PathError> {
    at.map(|j| j.u64()).transpose()
}

fn u64s(list: Cursor) -> Result<Vec<u64>, PathError> {
    list.arr()?.map(|j| j.u64()).collect()
}

fn scenario_of(root: Cursor) -> Result<Scenario, PathError> {
    root.only(&[
        "name",
        "description",
        "net",
        "engine",
        "exec",
        "opt",
        "limits",
        "seed",
        "init",
        "events",
        "generators",
        "failures",
        "expect",
        "metrics",
    ])?;

    let name = match root.get("name") {
        Some(j) => j.str()?.to_string(),
        None => "unnamed".to_string(),
    };
    let description = match root.get("description") {
        Some(j) => j.str()?.to_string(),
        None => String::new(),
    };

    let mut switches: Vec<u64> = vec![1];
    let mut link_latency_ns = 1_000;
    let mut recirc_latency_ns = 600;
    if let Some(net) = root.get("net") {
        net.only(&["switches", "link_latency_ns", "recirc_latency_ns"])?;
        if let Some(sw) = net.get("switches") {
            switches = match sw.node() {
                Json::Num(_) => {
                    let n = sw.u64()?;
                    if n == 0 {
                        return Err(sw.err("a mesh needs at least one switch"));
                    }
                    if n > MAX_MESH_SWITCHES {
                        return Err(
                            sw.err(format!("a mesh has at most {MAX_MESH_SWITCHES} switches"))
                        );
                    }
                    (1..=n).collect()
                }
                Json::Arr(_) => {
                    let ids = u64s(sw)?;
                    if ids.is_empty() {
                        return Err(sw.err("topology needs at least one switch"));
                    }
                    let mut sorted = ids.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    if sorted.len() != ids.len() {
                        return Err(sw.err("duplicate switch id"));
                    }
                    ids
                }
                _ => return Err(sw.err("expected a switch-id array or a mesh size")),
            };
        }
        if let Some(j) = net.get("link_latency_ns") {
            link_latency_ns = j.u64()?;
        }
        if let Some(j) = net.get("recirc_latency_ns") {
            recirc_latency_ns = j.u64()?;
        }
    }

    let engine = match root.get("engine") {
        None => Engine::Sequential,
        Some(j) => match j.node() {
            Json::Str(s) => Engine::parse(s).ok_or_else(|| {
                j.err(format!(
                    "unknown engine `{s}` (expected `sequential` or `sharded`)"
                ))
            })?,
            Json::Obj(_) => {
                j.only(&["kind", "workers", "epoch_ns"])?;
                let kind = j.req("kind")?;
                match Engine::parse(kind.str()?) {
                    Some(Engine::Sequential) => Engine::Sequential,
                    Some(Engine::Sharded { .. }) => Engine::Sharded {
                        workers: opt_u64(j.get("workers"))?.unwrap_or(0) as usize,
                        epoch_ns: opt_u64(j.get("epoch_ns"))?.unwrap_or(0),
                    },
                    None => return Err(kind.err(format!("unknown engine `{}`", kind.str()?))),
                }
            }
            _ => return Err(j.err("expected an engine name or {kind, workers, epoch_ns}")),
        },
    };

    let exec = match root.get("exec") {
        None => ExecMode::default(),
        Some(j) => match j.node() {
            Json::Str(s) => ExecMode::parse(s).ok_or_else(|| {
                j.err(format!(
                    "unknown exec mode `{s}` (expected `ast` or `bytecode`)"
                ))
            })?,
            _ => return Err(j.err("expected an exec-mode name (`ast` or `bytecode`)")),
        },
    };

    let opt = match root.get("opt") {
        None => OptLevel::default(),
        Some(j) => match j.node() {
            Json::Num(_) => match j.u64()? {
                0 => OptLevel::O0,
                1 => OptLevel::O1,
                2 => OptLevel::O2,
                n => {
                    return Err(j.err(format!("unknown opt level `{n}` (expected 0, 1, or 2)")));
                }
            },
            _ => return Err(j.err("expected an optimization level (0, 1, or 2)")),
        },
    };

    let mut max_events = 1_000_000;
    let mut max_time_ns = u64::MAX;
    if let Some(limits) = root.get("limits") {
        limits.only(&["max_events", "max_time_ns"])?;
        if let Some(j) = limits.get("max_events") {
            max_events = j.u64()?;
        }
        if let Some(j) = limits.get("max_time_ns") {
            max_time_ns = j.u64()?;
        }
    }

    let seed = opt_u64(root.get("seed"))?.unwrap_or(0);

    let generators = match root.get("generators") {
        Some(j) => generators_of(j)?,
        None => Vec::new(),
    };

    let mut init = Vec::new();
    if let Some(items) = root.get("init") {
        for pf in items.arr()? {
            pf.only(&["switch", "array", "index", "value"])?;
            init.push(Poke {
                switch: pf.req("switch")?.u64()?,
                array: pf.req("array")?.str()?.to_string(),
                index: pf.req("index")?.u64()?,
                value: pf.req("value")?.u64()?,
            });
        }
    }

    let events = match root.get("events") {
        Some(items) => injections_of(items)?,
        None => Vec::new(),
    };

    let mut failures = Vec::new();
    if let Some(items) = root.get("failures") {
        for ff in items.arr()? {
            ff.only(&["time_ns", "switch", "action"])?;
            let action = ff.req("action")?;
            let kind = match action.str()? {
                "fail" => FailureKind::Fail,
                "recover" => FailureKind::Recover,
                other => {
                    return Err(action.err(format!(
                        "unknown action `{other}` (expected `fail` or `recover`)"
                    )))
                }
            };
            let time = ff.req("time_ns")?;
            let time_ns = time.u64()?;
            if time_ns == 0 {
                return Err(time.err(
                    "failure actions must be scheduled at time >= 1 ns \
                     (use `init` for time-zero state)",
                ));
            }
            failures.push(FailureAction {
                time_ns,
                switch: ff.req("switch")?.u64()?,
                kind,
            });
        }
    }

    let mut expect = Expectations::default();
    if let Some(xf) = root.get("expect") {
        xf.only(&["arrays", "handled", "dropped", "exported", "per_event"])?;
        expect.handled = opt_u64(xf.get("handled"))?;
        expect.dropped = opt_u64(xf.get("dropped"))?;
        expect.exported = opt_u64(xf.get("exported"))?;
        if let Some(pe) = xf.get("per_event") {
            for (name, j) in pe.obj()? {
                expect.per_event.push((name.to_string(), j.u64()?));
            }
        }
        if let Some(items) = xf.get("arrays") {
            for af in items.arr()? {
                af.only(&["switch", "array", "index", "value", "values"])?;
                let switch = af.req("switch")?.u64()?;
                let array = af.req("array")?.str()?.to_string();
                let cell = match (af.get("index"), af.get("value")) {
                    (Some(i), Some(v)) => Some((i.u64()?, v.u64()?)),
                    (None, None) => None,
                    _ => return Err(af.err("`index` and `value` must be given together")),
                };
                let values = af.get("values").map(u64s).transpose()?;
                if cell.is_none() && values.is_none() {
                    return Err(af.err("expected either `index`+`value` or `values`"));
                }
                expect.arrays.push(ArrayExpect {
                    switch,
                    array,
                    cell,
                    values,
                });
            }
        }
    }

    let mut metrics = Vec::new();
    if let Some(m) = root.get("metrics") {
        m.only(&["expect"])?;
        if let Some(items) = m.get("expect") {
            for xf in items.arr()? {
                xf.only(&["event", "switch", "metric", "op", "value"])?;
                let event = xf.req("event")?.str()?.to_string();
                let switch = opt_u64(xf.get("switch"))?;
                let sel = xf.req("metric")?;
                let Some(metric) = MetricSel::parse(sel.str()?) else {
                    return Err(sel.err(format!(
                        "unknown metric `{}` (expected one of {})",
                        sel.str()?,
                        MetricSel::all_labels().join(", ")
                    )));
                };
                let op_at = xf.req("op")?;
                let Some(op) = CmpOp::parse(op_at.str()?) else {
                    return Err(op_at.err(format!(
                        "unknown operator `{}` (expected <, <=, >, >=, ==, !=)",
                        op_at.str()?
                    )));
                };
                metrics.push(MetricExpect {
                    event,
                    switch,
                    metric,
                    op,
                    value: xf.req("value")?.u64()?,
                });
            }
        }
    }

    Ok(Scenario {
        name,
        description,
        switches,
        link_latency_ns,
        recirc_latency_ns,
        engine,
        exec,
        opt,
        max_events,
        max_time_ns,
        seed,
        init,
        events,
        generators,
        failures,
        expect,
        metrics,
    })
}

// ------------------------------------------------------ generator schema

/// Parse a scenario `events` array (shared with the serve `ingest` verb,
/// whose batches use the same shape).
pub(crate) fn injections_of(items: Cursor) -> Result<Vec<Injection>, PathError> {
    let items = items.arr()?;
    let mut events = Vec::with_capacity(items.len());
    for ef in items {
        ef.only(&["time_ns", "switch", "event", "args"])?;
        let args = ef.get("args").map(u64s).transpose()?.unwrap_or_default();
        events.push(Injection {
            time_ns: ef.req("time_ns")?.u64()?,
            switch: ef.req("switch")?.u64()?,
            event: ef.req("event")?.str()?.to_string(),
            args,
        });
    }
    Ok(events)
}

pub(crate) fn generators_of(items: Cursor) -> Result<Vec<GenSpec>, PathError> {
    let out = (items.arr()?.enumerate())
        .map(|(i, item)| generator_of(item, i))
        .collect::<Result<Vec<_>, _>>()?;
    // Names key the per-generator report rows; duplicates would merge.
    for (i, item) in items.arr()?.enumerate() {
        if out[..i].iter().any(|h| h.name == out[i].name) {
            // The name may be the `gen<i>` default, so there may be no
            // `name` node to stand on; the path names the field anyway.
            let mut e = item.err(format!("duplicate generator name `{}`", out[i].name));
            e.path.push_str(".name");
            return Err(e);
        }
    }
    Ok(out)
}

/// A required rate expressed either way: `rate_eps` (events per virtual
/// second) or a raw `interval_ns` gap.
fn interval_of(at: Cursor) -> Result<u64, PathError> {
    match (at.get("rate_eps"), at.get("interval_ns")) {
        (Some(_), Some(_)) => Err(at.err("give either `rate_eps` or `interval_ns`, not both")),
        (Some(r), None) => {
            let rate = r.u64()?;
            if rate == 0 {
                return Err(r.err("rate must be at least 1 event per second"));
            }
            Ok((1_000_000_000 / rate).max(1))
        }
        (None, Some(iv)) => {
            let interval = iv.u64()?;
            if interval == 0 {
                return Err(iv.err("the inter-arrival interval must be at least 1 ns"));
            }
            Ok(interval)
        }
        (None, None) => Err(at.err("missing rate: give `rate_eps` or `interval_ns`")),
    }
}

fn generator_of(g: Cursor, index: usize) -> Result<GenSpec, PathError> {
    g.only(&[
        "name",
        "event",
        "switch",
        "switches",
        "rate_eps",
        "interval_ns",
        "jitter_ns",
        "start_ns",
        "stop_ns",
        "count",
        "seed",
        "args",
        "phases",
    ])?;
    let name = match g.get("name") {
        Some(n) => n.str()?.to_string(),
        None => format!("gen{index}"),
    };
    let event = g.req("event")?.str()?.to_string();
    let switches = match (g.get("switch"), g.get("switches")) {
        (Some(_), Some(_)) => {
            return Err(g.err("give either `switch` or `switches`, not both"));
        }
        (Some(s), None) => vec![s.u64()?],
        (None, Some(list)) => {
            let ids = u64s(list)?;
            if ids.is_empty() {
                return Err(list.err("needs at least one switch"));
            }
            ids
        }
        (None, None) => vec![1],
    };
    let interval_ns = interval_of(g)?;
    let jitter_ns = opt_u64(g.get("jitter_ns"))?.unwrap_or(0);
    let start_ns = opt_u64(g.get("start_ns"))?.unwrap_or(0);
    let stop_ns = opt_u64(g.get("stop_ns"))?;
    let count = opt_u64(g.get("count"))?;
    if stop_ns.is_none() && count.is_none() {
        return Err(g.err("the generator is unbounded: give `count`, `stop_ns`, or both"));
    }
    if let Some(stop) = stop_ns.filter(|&stop| stop < start_ns) {
        let msg = format!("stop ({stop}) precedes start ({start_ns})");
        return Err(g.req("stop_ns")?.err(msg));
    }
    let seed = opt_u64(g.get("seed"))?.unwrap_or(index as u64);
    let mut args = Vec::new();
    if let Some(list) = g.get("args") {
        for a in list.arr()? {
            args.push(arg_dist_of(a)?);
        }
    }
    let mut phases = Vec::new();
    if let Some(list) = g.get("phases") {
        for pf in list.arr()? {
            pf.only(&["at_ns", "rate_eps", "interval_ns"])?;
            phases.push(Phase {
                at_ns: pf.req("at_ns")?.u64()?,
                interval_ns: interval_of(pf)?,
            });
        }
        if phases.windows(2).any(|w| w[1].at_ns <= w[0].at_ns) {
            return Err(list.err("phases must be strictly increasing in `at_ns`"));
        }
    }
    Ok(GenSpec {
        name,
        event,
        switches,
        interval_ns,
        jitter_ns,
        start_ns,
        stop_ns,
        count,
        seed,
        args,
        phases,
    })
}

fn arg_dist_of(a: Cursor) -> Result<ArgDist, PathError> {
    match a.node() {
        Json::Num(_) => Ok(ArgDist::Const(a.u64()?)),
        Json::Obj(fields) => {
            a.only(&["const", "uniform", "zipf", "seq"])?;
            if fields.len() != 1 {
                return Err(a.err(
                    "an argument distribution is exactly one of \
                     `const`, `uniform`, `zipf`, or `seq`",
                ));
            }
            let (kind, body) = a.obj()?.next().expect("one field");
            match kind {
                "const" => Ok(ArgDist::Const(body.u64()?)),
                "uniform" => {
                    let (lo, hi) = match body.node() {
                        // Compact form: "uniform": [lo, hi].
                        Json::Arr(items) if items.len() == 2 => {
                            let ends = u64s(body)?;
                            (ends[0], ends[1])
                        }
                        Json::Obj(_) => {
                            body.only(&["lo", "hi"])?;
                            (body.req("lo")?.u64()?, body.req("hi")?.u64()?)
                        }
                        _ => return Err(body.err("expected {lo, hi} or a two-element array")),
                    };
                    if lo > hi {
                        return Err(body.err(format!("empty range: lo ({lo}) > hi ({hi})")));
                    }
                    Ok(ArgDist::Uniform { lo, hi })
                }
                "zipf" => {
                    body.only(&["n", "s"])?;
                    let n_at = body.req("n")?;
                    let n = n_at.u64()?;
                    if n == 0 {
                        return Err(n_at.err("zipf needs at least one key"));
                    }
                    let mut s = 1.0;
                    if let Some(s_at) = body.get("s") {
                        s = s_at.f64()?;
                        if !(s > 0.0 && s.is_finite()) {
                            return Err(s_at.err(format!(
                                "the exponent must be positive and finite, got {s}"
                            )));
                        }
                    }
                    Ok(ArgDist::Zipf { n, s })
                }
                "seq" => {
                    let n = body.u64()?;
                    if n == 0 {
                        return Err(body.err("seq needs a nonzero modulus"));
                    }
                    Ok(ArgDist::Seq { n })
                }
                _ => unreachable!("`only` filtered"),
            }
        }
        other => Err(a.err(format!(
            "expected a constant or a distribution object, found {}",
            other.kind()
        ))),
    }
}
