//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of `--seed`; the program itself never sees the seed
//! (except as the scenario-level generator seed of `flood`, which is part
//! of its input document).

use lucid_core::interp::scenario::Injection;
use lucid_core::{ArgDist, GenSpec, Phase, Scenario};

/// splitmix64: small, seedable, and good enough to draw test inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The `fig_workload_scale` mesh program: every packet updates a
/// per-switch sketch, recirculates a decremented copy, and forwards a
/// mixed copy to a hash-picked neighbour.
pub fn mesh_program(switches: u64) -> String {
    assert!(
        switches.is_power_of_two(),
        "the mesh mask needs a power of two"
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

/// Same event interface as [`mesh_program`], empty handler: what is left
/// of a drain when handler bodies cost nothing.
pub const NULL_MESH_PROGRAM: &str =
    "event pkt(int a, int b, int ttl); handle pkt(int a, int b, int ttl) { }";

/// The one-counter program behind `explicit_load` and the serve workloads.
pub const COUNTER_PROGRAM: &str = r#"
    global cts = new Array<<32>>(256);
    memop plus(int m, int x) { return m + x; }
    event pkt(int idx);
    handle pkt(int idx) { Array.setm(cts, idx, plus, 1); }
"#;

/// A scenario with nothing but a name and a topology; callers fill the
/// public fields. Going through a two-field document keeps every other
/// field at the schema's default without naming it here.
pub fn blank_scenario(name: &str, switches: u64) -> Scenario {
    let doc = format!("{{\"name\": \"{name}\", \"net\": {{\"switches\": {switches}}}}}");
    Scenario::from_json(&doc).expect("a two-field scenario document parses")
}

/// The three generators of `fig_workload_scale` — zipf flows, a uniform
/// background and a phased burst, a third of `roots` each — with
/// per-generator seeds drawn from `rng`. Every root carries `ttl = 1`, so
/// it is processed once and spawns one recirculated and one remote child.
pub fn flood_generators(rng: &mut Rng, switches: u64, roots: u64) -> Vec<GenSpec> {
    let all: Vec<u64> = (1..=switches).collect();
    let per = roots / 3;
    let spec = |name: &str, rng: &mut Rng| GenSpec {
        name: name.to_string(),
        event: "pkt".to_string(),
        switches: all.clone(),
        interval_ns: 1,
        jitter_ns: 0,
        start_ns: 0,
        stop_ns: None,
        count: Some(per),
        seed: rng.next_u64(),
        args: Vec::new(),
        phases: Vec::new(),
    };
    vec![
        GenSpec {
            interval_ns: 500,
            jitter_ns: 120,
            args: vec![
                ArgDist::Zipf { n: 65536, s: 1.1 },
                ArgDist::Uniform { lo: 0, hi: 1023 },
                ArgDist::Const(1),
            ],
            ..spec("flows", rng)
        },
        GenSpec {
            interval_ns: 1000,
            args: vec![
                ArgDist::Uniform {
                    lo: 0,
                    hi: 1_048_575,
                },
                ArgDist::Seq { n: 4096 },
                ArgDist::Const(1),
            ],
            ..spec("background", rng)
        },
        GenSpec {
            switches: vec![1],
            interval_ns: 2000,
            start_ns: 200_000,
            count: Some(roots - 2 * per),
            phases: vec![Phase {
                at_ns: 400_000,
                interval_ns: 200,
            }],
            args: vec![
                ArgDist::Zipf { n: 64, s: 1.3 },
                ArgDist::Const(7),
                ArgDist::Const(1),
            ],
            ..spec("burst", rng)
        },
    ]
}

/// `n` external `pkt` events for [`COUNTER_PROGRAM`]: strictly increasing
/// times 50–150 ns apart, a seeded switch and counter index each.
pub fn counter_events(rng: &mut Rng, switches: u64, n: usize) -> Vec<Injection> {
    let mut t = 0;
    (0..n)
        .map(|_| {
            t += 50 + rng.below(101);
            Injection {
                time_ns: t,
                switch: 1 + rng.below(switches),
                event: "pkt".to_string(),
                args: vec![rng.below(256)],
            }
        })
        .collect()
}

/// One `events` entry exactly as a scenario document or an `ingest`
/// request spells it.
pub fn event_json(e: &Injection) -> String {
    let args: Vec<String> = e.args.iter().map(u64::to_string).collect();
    format!(
        "{{\"time_ns\":{},\"switch\":{},\"event\":\"{}\",\"args\":[{}]}}",
        e.time_ns,
        e.switch,
        e.event,
        args.join(",")
    )
}

pub fn events_json(events: &[Injection]) -> String {
    let items: Vec<String> = events.iter().map(event_json).collect();
    format!("[{}]", items.join(","))
}

/// A report with its two wall-clock fields removed: the rest is a pure
/// function of program and input, so two runs must agree on it byte for
/// byte.
pub fn stable_report(report_json: &str) -> String {
    report_json
        .split(',')
        .filter(|f| !f.contains("\"wall_ms\"") && !f.contains("\"events_per_sec\""))
        .collect::<Vec<_>>()
        .join(",")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let draw = |seed| counter_events(&mut Rng::new(seed), 4, 50);
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
        let gens = |seed| flood_generators(&mut Rng::new(seed), 8, 1000);
        assert_eq!(gens(7), gens(7));
        assert_ne!(gens(7), gens(8));
        assert_eq!(gens(7).iter().filter_map(|g| g.count).sum::<u64>(), 1000);
    }

    #[test]
    fn stable_report_drops_only_the_wall_clock_fields() {
        let r = "{\"a\":1,\"wall_ms\":2.5,\"events_per_sec\":7,\"z\":\"q\"}";
        assert_eq!(stable_report(r), "{\"a\":1,\"z\":\"q\"}");
    }
}
