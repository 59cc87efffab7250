#!/usr/bin/env bash
# CI gate: tier-1 verification plus style, lint, simulation, and benchmark-correctness checks.
set -euo pipefail
cd "$(dirname "$0")"

echo "== build (release)"
cargo build --release

echo "== tests"
cargo test -q

echo "== rustfmt"
cargo fmt --check

echo "== clippy"
# First-party crates additionally clear a curated slice of the pedantic
# group (vendored stand-ins are exempt: they mirror upstream API shapes).
cargo clippy --all-targets --workspace --exclude rand --exclude proptest \
  -- -D warnings \
  -W clippy::semicolon_if_nothing_returned \
  -W clippy::explicit_iter_loop \
  -W clippy::redundant_closure_for_method_calls \
  -W clippy::inefficient_to_string \
  -W clippy::map_unwrap_or \
  -W clippy::unnested_or_patterns \
  -W clippy::manual_let_else \
  -W clippy::implicit_clone \
  -W clippy::cloned_instead_of_copied \
  -W clippy::flat_map_option \
  -W clippy::filter_map_next \
  -W clippy::manual_string_new \
  -W clippy::needless_continue \
  -W clippy::range_plus_one
cargo clippy --all-targets -p rand -p proptest -- -D warnings

echo "== static analysis gate"
# Every bundled app must come through the lint pass warning-aware: `check
# --lint` exits 0 (lints are warnings), and the listing drift is caught by
# the golden guard below. The deny gate is asserted from both sides — a
# lint-clean app passes `--deny-lints`, a linty one is refused by it.
for prog in crates/apps/programs/*.lucid; do
  echo "-- lint $(basename "$prog")"
  target/release/lucidc check --lint "$prog" 2>/dev/null
done
target/release/lucidc check --deny-lints crates/apps/programs/nat.lucid >/dev/null 2>&1
if target/release/lucidc check --deny-lints \
    crates/apps/programs/stateful_firewall.lucid >/dev/null 2>&1; then
  echo "static analysis: --deny-lints let a linty program through" >&2
  exit 1
fi
echo "-- lint gate holds (nat clean, stateful_firewall refused under --deny-lints)"
# Memory safety is a compile-time property here: every first-party crate
# root forbids unsafe code outright.
for root in crates/*/src/lib.rs crates/cli/src/main.rs tests/src/lib.rs; do
  if ! grep -q '^#!\[forbid(unsafe_code)\]' "$root"; then
    echo "static analysis: $root is missing #![forbid(unsafe_code)]" >&2
    exit 1
  fi
done
echo "-- #![forbid(unsafe_code)] present in every crate root"
# JSON is written by one module: outside crates/frontend/src/json.rs no
# non-test first-party source may spell a JSON object by hand. The two
# patterns are the marks of a hand-escaped literal inside format!/println!
# (`{{\"` opens an object, `\":` closes a key).
json_literals=0
for src in $(find crates/*/src -name '*.rs' ! -path crates/frontend/src/json.rs); do
  awk '/#\[cfg\(test\)\]/ { exit } /\{\{\\"|\\":/ { print FILENAME ":" FNR ": " $0; bad = 1 } END { exit bad }' \
    "$src" >&2 || json_literals=1
done
if [ "$json_literals" -ne 0 ]; then
  echo "static analysis: hand-escaped JSON literal outside crates/frontend/src/json.rs" \
       "(use lucid_frontend::json::Writer)" >&2
  exit 1
fi
echo "-- no hand-escaped JSON literals outside the codec"

echo "== golden drift guard"
# Regenerate the per-opt-level bytecode disassembly into a temp dir and
# diff against the checked-in goldens: a stale golden file fails here
# with a readable diff instead of deep inside `cargo test`.
golden_tmp=$(mktemp -d)
trap 'rm -rf "$golden_tmp"' EXIT
UPDATE_GOLDEN=1 GOLDEN_DIR="$golden_tmp" \
  cargo test -q -p lucid-tests --test golden_bytecode >/dev/null
UPDATE_GOLDEN=1 GOLDEN_DIR="$golden_tmp" \
  cargo test -q -p lucid-tests --test golden_lints >/dev/null
if ! diff -ru tests/golden "$golden_tmp"; then
  echo "golden drift: tests/golden is stale; regenerate with" >&2
  echo "  UPDATE_GOLDEN=1 cargo test -p lucid-tests --test golden_bytecode" >&2
  echo "  UPDATE_GOLDEN=1 cargo test -p lucid-tests --test golden_lints" >&2
  echo "and review the diff like any other code change" >&2
  exit 1
fi
echo "-- 40 golden listings match"
# Disassembly stability: a listing is a pure function of the source
# program, so dumping the same app twice at the same opt level must
# produce byte-identical text. This catches nondeterminism the golden
# diff above cannot — e.g. hash-ordered pool interning or
# address-dependent rendering — and `--verify-bytecode` makes every dump
# run the verifier before printing.
for opt in 0 1 2; do
  for prog in crates/apps/programs/*.lucid; do
    a=$(target/release/lucidc sim --dump-bytecode --verify-bytecode --opt="$opt" "$prog")
    b=$(target/release/lucidc sim --dump-bytecode --verify-bytecode --opt="$opt" "$prog")
    if [ "$a" != "$b" ]; then
      echo "disassembly instability: $prog at --opt=$opt printed two different listings" >&2
      exit 1
    fi
  done
done
echo "-- disassembly stable across repeated dumps (10 apps x 3 opt levels)"

echo "== fuzz smoke"
# Bounded differential fuzzing: the vendored proptest shim is seeded, so
# this is deterministic; 64 cases across the Figure-9 apps must agree
# between the AST walker, the bytecode executor at BOTH --opt=0 and
# --opt=2 (an optimizer miscompile cannot hide behind an equally-wrong
# lowering, and vice versa), and the sharded engine — the opt sweep is
# inside the test itself (tests/tests/differential.rs).
LUCID_FUZZ_CASES=64 cargo test -q -p lucid-tests --test differential
# Generated programs (tests/tests/name_resolution.rs): 64 seeds per shape,
# each a checker-accepted program whose reads and array writes must land
# where a lexical model of the checker's scoping rule puts them, under
# walker x bytecode O0/O1/O2 x sequential/sharded.
LUCID_FUZZ_CASES=64 cargo test -q -p lucid-tests --test name_resolution

echo "== sim gate"
# Every checked-in scenario must run green against its app: the file
# crates/apps/scenarios/<app>[.variant].sim.json pairs with
# crates/apps/programs/<app>.lucid. Run each under both engines and both
# handler executors. The sharded legs pin four workers: a bare
# `--engine=sharded` means one worker per core, and at one worker the
# engine *is* the sequential loop — on a one-core runner those legs would
# never touch a mailbox, a horizon or a barrier.
shopt -s nullglob
scenarios=(crates/apps/scenarios/*.sim.json)
if [ "${#scenarios[@]}" -lt 8 ]; then
  echo "sim gate: expected at least 8 scenarios, found ${#scenarios[@]}" >&2
  exit 1
fi
for sc in "${scenarios[@]}"; do
  base=$(basename "$sc" .sim.json)
  app=${base%%.*}
  prog="crates/apps/programs/$app.lucid"
  # One run exactly as authored (no overrides), so scenario-pinned
  # engine/exec/opt fields stay exercised end to end.
  echo "-- sim [authored] $sc"
  target/release/lucidc sim "$prog" "$sc"
  for engine in sequential "sharded --workers=4"; do
    # $engine is left unquoted below so the pinned leg splits into its flags.
    echo "-- sim [$engine/ast] $sc"
    target/release/lucidc sim --engine=$engine --exec=ast "$prog" "$sc"
    # The bytecode executor runs at both ends of the optimizer pipeline:
    # raw lowering and the full superinstruction + regalloc stack. Each
    # run is fronted by the bytecode verifier, so the code that executes
    # is the code the dataflow pass vouched for.
    for opt in 0 2; do
      echo "-- sim [$engine/bytecode/o$opt] $sc"
      target/release/lucidc sim --engine=$engine --exec=bytecode --opt="$opt" \
        --verify-bytecode "$prog" "$sc"
    done
  done
done

echo "== workload scale"
# The generator subsystem's scale proof: flood the four-switch rip_router
# scenario (its advertisement threads and its fail/recover of switch 4
# left running) with one million generated packets spread over every
# switch — `--gen` supplies the generator, `--events` the total; the
# stream is pulled lazily, so what is resident is the in-flight frontier,
# each worker's capped argument arena and (these legs leave trace
# retention on) the trace — and require both engines to agree on the final state digest AND the
# latency-metrics digest (one mis-bucketed histogram sample in the
# sharded collector fails here, not just state divergence). A topology
# with one switch would resolve to a lone worker whatever `--workers`
# says; this one gives each of the four workers a shard, so worker 0
# pulls the stream a window ahead and mails three quarters of it, the
# packets' next-hop chains cross shards, and the pool still lands
# digest-for-digest on sequential. The AST walker — the default executor
# and the semantics of record — floods the same million packets on the
# sequential engine and must land on the same two digests.
flood_gen='[{"name": "pkts", "event": "pkt", "switches": [1, 2, 3, 4],
  "interval_ns": 1, "count": 1000, "args": [{"uniform": [0, 1000000]}]}]'
flood_json() {
  target/release/lucidc sim --exec="$1" --engine="$2" "${@:3}" \
    --events=1000000 --gen="$flood_gen" --json \
    crates/apps/programs/rip_router.lucid \
    crates/apps/scenarios/rip_router.sim.json
}
j_seq=$(flood_json bytecode sequential)
j_sh=$(flood_json bytecode sharded --workers=4)
j_ast=$(flood_json ast sequential)
state_of()   { printf '%s' "$1" | sed -n 's/.*"state_digest":"\([0-9a-f]*\)".*/\1/p'; }
metrics_of() { printf '%s' "$1" | sed -n 's/.*"metrics":{"digest":"\([0-9a-f]*\)".*/\1/p'; }
eps_of()     { printf '%s' "$1" | sed -n 's/.*"events_per_sec":\([0-9]*\).*/\1/p'; }
d_seq=$(state_of "$j_seq"); m_seq=$(metrics_of "$j_seq")
if [ -z "$d_seq" ] || [ -z "$m_seq" ]; then
  echo "workload scale: the sequential bytecode flood printed no digests" >&2
  exit 1
fi
agree() { # <leg> <its report>: both digests equal the sequential bytecode leg's
  local d m
  d=$(state_of "$2"); m=$(metrics_of "$2")
  if [ "$d" != "$d_seq" ] || [ "$m" != "$m_seq" ]; then
    echo "workload scale: $1 disagrees with sequential bytecode at 1M events" \
         "(state $d vs $d_seq, metrics $m vs $m_seq)" >&2
    exit 1
  fi
}
agree "sharded bytecode" "$j_sh"
agree "the sequential walker" "$j_ast"
echo "-- 1M-packet rip_router flood digests agree: state $d_seq, metrics $m_seq"
echo "-- events/s: bytecode sequential $(eps_of "$j_seq"), bytecode sharded w4 $(eps_of "$j_sh"), walker sequential $(eps_of "$j_ast")"

echo "== serve gate"
# The persistent-service invariant: a session served by the `lucidc
# serve` daemon — opened on a truncated scenario, hot-swapped (same
# source, so the daemon's build cache reconfigures instead of
# re-parsing), fed the missing events over `ingest`, advanced in
# segments, snapshotted, restored into a *fresh* session, and drained —
# must land on exactly the state and metrics digests of the equivalent
# one-shot `lucidc sim` run, under both engines. The scenario has three
# switches and the sharded leg pins four workers, like the sim gate, so
# on any runner it is a pool of three workers, one shard each (on a
# one-switch scenario it would be the sequential loop again).
# The scripted client drives the daemon over stdin/stdout, one JSON
# request per line.
python3 - <<'EOF'
import json, subprocess, sys

LUCIDC = "target/release/lucidc"
PROG = "crates/apps/programs/shared_state.lucid"
SC = "crates/apps/scenarios/shared_state.sim.json"

full = json.load(open(SC))
times = [e["time_ns"] for e in full["events"]]
mid = sorted(times)[len(times) // 2]
trunc = dict(full)
trunc["events"] = [e for e in full["events"] if e["time_ns"] < mid]
trunc.pop("expect", None)
late = [e for e in full["events"] if e["time_ns"] >= mid]

for opts in [{"engine": "sequential"}, {"engine": "sharded", "workers": 4}]:
    engine = opts["engine"]
    one = subprocess.run(
        [LUCIDC, "sim", *(f"--{k}={v}" for k, v in opts.items()), "--json",
         PROG, SC],
        capture_output=True, text=True)
    assert one.returncode == 0, one.stderr
    rep = json.loads(one.stdout)
    want = (rep["state_digest"], rep["metrics"]["digest"])

    daemon = subprocess.Popen(
        [LUCIDC, "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True)

    def ask(req):
        daemon.stdin.write(json.dumps(req) + "\n")
        daemon.stdin.flush()
        reply = json.loads(daemon.stdout.readline())
        assert reply.get("ok"), f"{engine}: {req.get('op')} failed: {reply}"
        return reply

    sc_doc = json.dumps(trunc)
    ask({"op": "open", "program_path": PROG, "scenario": sc_doc,
         "options": opts})
    # Swap before any event runs: same source, so the daemon's cached
    # build reconfigures (no re-parse) and the queued events remap 1:1.
    swap = ask({"op": "swap", "session": 1, "program_path": PROG})
    assert swap["queued_dropped"] == 0 and swap["arrays_reset"] == 0, swap
    ask({"op": "ingest", "session": 1, "events": late})
    ask({"op": "advance", "session": 1, "to_ns": mid})
    snap = ask({"op": "snapshot", "session": 1})["bytes"]
    # The snapshot transplants into a fresh session over the same
    # program + scenario; the donor is closed undrained.
    ask({"op": "open", "program_path": PROG, "scenario": sc_doc,
         "options": opts})
    ask({"op": "restore", "session": 2, "bytes": snap})
    ask({"op": "close", "session": 1})
    report = ask({"op": "drain", "session": 2})["report"]
    got = (report["state_digest"], report["metrics"]["digest"])
    shutdown = ask({"op": "shutdown"})
    assert shutdown.get("shutdown") is True, shutdown
    daemon.stdin.close()
    assert daemon.wait(timeout=30) == 0, "daemon exit code"

    if got != want:
        print(f"serve gate [{engine}]: served digests {got} != one-shot "
              f"{want}", file=sys.stderr)
        sys.exit(1)
    print(f"-- serve gate [{engine}]: served session matches one-shot "
          f"(state {got[0]}, metrics {got[1]})")
EOF

echo "== bench smoke"
# Every figure binary must run in smoke mode and emit parseable JSON.
json_check() {
  if command -v jq >/dev/null 2>&1; then
    jq -e . >/dev/null
  else
    python3 -c 'import json,sys; json.load(sys.stdin)'
  fi
}
for bin in fig09_apps fig10_loc_breakdown fig11_compile_times fig12_stage_ratio \
           fig13_parallelism fig14_delay_queue fig15_recirc_uses fig16_sfw_model \
           fig17_sfw_install; do
  echo "-- bench $bin"
  target/release/"$bin" --smoke --json | json_check
done

echo "== repo benchmark (benchmark/)"
# The standalone benchmark package (declared to the driver by
# BENCHMARK.json) builds against this checkout: its unit tests, then a
# reduced-size run of every workload. It is the repository's only
# wall-clock harness; CI asks it for the correctness half. Each workload
# checks its own oracle — walker/bytecode/both-engine agreement and pinned
# digests for the floods, the authored `expect` blocks for `app_suite`,
# pinned stage/P4/bytecode sizes for `compile_apps`, report identity with
# an undecoded reference for `explicit_load`, served-equals-one-shot for
# the serve workloads — and says so with `"correct":true`. Comparing the
# numbers against the parent commit is the PR driver's job.
cargo test --release --offline -q --manifest-path benchmark/Cargo.toml
for wl in flood flood_w1 app_suite compile_apps explicit_load serve_bulk serve_mixed; do
  line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
           --quick --workload "$wl" | tail -n1)
  case "$line" in
    *'"correct":true'*) echo "-- benchmark $wl: correct" ;;
    *) echo "repo benchmark: $wl did not report \"correct\":true: $line" >&2; exit 1 ;;
  esac
done

echo "== benchmark history"
# BENCH_HISTORY.jsonl is the perf trajectory a reader can find in the
# tree: one line per PR with the host's `available_parallelism`, how many
# parent/change pairs stand behind it, and per workload the medians of
# the four gated metrics (`null` where that PR recorded none). Each PR
# appends its line; this only checks the file stays machine-readable.
python3 - <<'EOF'
import json, sys

METRICS = {"op_ms", "items_per_s", "peak_rss_mb", "setup_s"}
last = 0
for n, line in enumerate(open("BENCH_HISTORY.jsonl"), 1):
    try:
        row = json.loads(line)
        pr = row["pr"]
        ok = (isinstance(pr, int) and pr > last
              and isinstance(row["available_parallelism"], int)
              and isinstance(row["pairs"], int)
              and all(set(m) == METRICS and
                      all(v is None or isinstance(v, (int, float)) for v in m.values())
                      for m in row["workloads"].values()))
    except (ValueError, KeyError, AttributeError, TypeError):
        ok = False
    if not ok:
        print(f"BENCH_HISTORY.jsonl:{n}: not a history line, or its PR number "
              f"does not increase (after {last})", file=sys.stderr)
        sys.exit(1)
    last = pr
print(f"-- BENCH_HISTORY.jsonl: {n} lines, PR numbers increasing, last PR {last}")
EOF

echo "== docs gate"
# Rustdoc over the first-party crates must be warning-clean (broken
# intra-doc links, redundant targets, bad code fences all fail); the
# vendored shims are exempt. Then every docs/*.md file the README links
# must actually exist — a renamed doc fails here, not as a 404 on GitHub.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p lucid-core -p lucid-frontend -p lucid-check -p lucid-backend \
  -p lucid-tofino -p lucid-interp -p lucid-apps -p lucid-bench \
  -p lucid-cli -p lucid-tests
echo "-- rustdoc warning-clean across first-party crates"
docs_missing=0
for doc in $(grep -o 'docs/[A-Za-z0-9_.-]*\.md' README.md | sort -u); do
  if [ ! -f "$doc" ]; then
    echo "docs gate: README links $doc but it does not exist" >&2
    docs_missing=1
  fi
done
[ "$docs_missing" -eq 0 ]
# The two reference docs are load-bearing for the README — keep them
# linked, not just present.
for doc in docs/ARCHITECTURE.md docs/scenario-schema.md; do
  if ! grep -q "$doc" README.md; then
    echo "docs gate: README no longer links $doc" >&2
    exit 1
  fi
done
echo "-- all README-linked docs/*.md files exist"

echo "CI OK"
