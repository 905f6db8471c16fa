#!/usr/bin/env bash
# Repository CI gate: formatting, lints, build, the full test suite, and a
# bench smoke run that checks the --json reports parse.
#
# Usage:
#   ./ci.sh           full gate (fmt, clippy, release build+tests, bench smoke)
#   ./ci.sh --quick   pre-push loop: fmt, clippy, debug tests only
#   ./ci.sh --chaos   fault-injection gate only (release build + chaos smoke)
#   ./ci.sh --cluster cluster gate only (release build + cluster smoke)
#
# Each stage prints "==> name" when it starts and "<== name (Ns)" when it
# finishes, so CI logs show where the time goes.
set -euo pipefail
cd "$(dirname "$0")"

QUICK=0
CHAOS=0
CLUSTER=0
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK=1 ;;
    --chaos) CHAOS=1 ;;
    --cluster) CLUSTER=1 ;;
    *)
        echo "unknown argument: $arg" >&2
        echo "usage: ./ci.sh [--quick|--chaos|--cluster]" >&2
        exit 2
        ;;
    esac
done

stage() {
    local name="$1"
    shift
    echo "==> $name"
    local start=$SECONDS
    "$@"
    echo "<== $name ($((SECONDS - start))s)"
}

# Starts ./target/release/oha-serve, leaving the daemon's pid in $DAEMON
# (a global: command substitution would fork a subshell and make the
# daemon unwaitable). No bind-wait loop: clients retry the connect until
# their deadline, so a late-binding daemon is the client's problem to
# absorb, not the harness's to poll for. Arguments: socket path, log
# file, then extra daemon flags.
DAEMON=""
start_daemon() {
    local sock="$1" log="$2"
    shift 2
    rm -f "$sock"
    ./target/release/oha-serve --socket "$sock" "$@" >>"$log" 2>&1 &
    DAEMON=$!
}

# A tiny fig5 + table1 run on the small workload scale (OHA_SMOKE=1), each
# required to emit a parsable, non-empty JSON run report.
bench_smoke() {
    local out
    out="$(mktemp -d)"
    # The trap must uninstall itself: RETURN traps persist past the
    # function that set them, and a second firing (at the caller's return)
    # would hit an unbound $out under `set -u`.
    trap 'rm -rf "$out"; trap - RETURN' RETURN
    local bin
    for bin in fig5_optft_runtimes table1_optft_endtoend; do
        echo "    smoke: $bin --json $out/$bin.json"
        OHA_SMOKE=1 "./target/release/$bin" --json "$out/$bin.json" >/dev/null
        if [ ! -s "$out/$bin.json" ]; then
            echo "bench-smoke: $bin produced no JSON at $out/$bin.json" >&2
            return 1
        fi
        python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
for key in ("name", "counters", "children"):
    if key not in report:
        sys.exit(f"{sys.argv[1]}: missing {key!r} in run report")
if not report["children"]:
    sys.exit(f"{sys.argv[1]}: run report has no per-workload children")
' "$out/$bin.json" || {
            echo "bench-smoke: $bin emitted unparsable or incomplete JSON" >&2
            return 1
        }
    done
}

# Checks that BENCH_static.json parses and carries every field the
# current probe_solver harness emits, for every workload/config. Argument:
# a label for error messages ("smoke" or "committed").
check_bench_static() {
    python3 -c '
import json, sys
with open("BENCH_static.json") as f:
    report = json.load(f)
for key in ("harness", "host", "benches"):
    if key not in report:
        sys.exit(f"BENCH_static.json: missing {key!r}")
if not report["benches"]:
    sys.exit("BENCH_static.json: no benches recorded")
for name, b in report["benches"].items():
    for field in ("optimized_s", "reference_s", "speedup", "solver_iterations",
                  "by_threads", "parallel_speedup", "solver_path",
                  "words_unioned"):
        if field not in b:
            sys.exit(f"BENCH_static.json: {name} missing {field!r}")
    if not b["by_threads"]:
        sys.exit(f"BENCH_static.json: {name} has an empty thread sweep")
    if b["solver_path"] not in ("serial", "sharded"):
        sys.exit(f"BENCH_static.json: {name} has a bogus solver_path")
    # Regression guard: every engine accounts its word-parallel union
    # work, so a zero here means a solver stopped reporting.
    if b["words_unioned"] <= 0:
        sys.exit(f"BENCH_static.json: {name} reports words_unioned == 0")
' || {
        echo "bench-static: $1 BENCH_static.json unparsable or incomplete" >&2
        return 1
    }
}

# A one-shot probe_solver run (small workload scale) through
# scripts/bench_static.sh, which must leave a parsable BENCH_static.json
# with optimized-vs-reference solver timings and a per-thread-count
# width sweep for every workload/config. The committed benchmark-scale
# file is then restored and held to the same field checks, so a stale
# artifact fails the gate instead of riding along unchecked. The
# static- and dynamic-phase criterion suites run first.
bench_static() {
    # Quick mode: without cargo-bench's --bench flag the vendored criterion
    # runs every bench body exactly once, so a broken bench fails the gate
    # in ~1s instead of a full measurement pass.
    OHA_SMOKE=1 cargo test --locked --release -q -p oha-bench --bench static_phase
    OHA_SMOKE=1 cargo test --locked --release -q -p oha-bench --bench dynamic_phase
    OHA_SMOKE=1 ./scripts/bench_static.sh 1 >/dev/null
    check_bench_static smoke
    git checkout -- BENCH_static.json 2>/dev/null || true
    check_bench_static committed
}

# Thread-sweep byte-equality gate for the parallel static phase: the
# sharded Andersen solver, the sound/pred analysis DAG and the
# per-function constraint fan-out must be unobservable in canonical
# output. tests/static_parallel.rs sweeps explicit widths 1/2/4/8
# in-process; running it under each OHA_THREADS value also covers the
# env-resolved (threads = 0) pool path.
static_parallel_smoke() {
    for t in 1 2 4 8; do
        OHA_THREADS=$t cargo test --locked --release -q --test static_parallel || {
            echo "static-parallel: sweep failed at OHA_THREADS=$t" >&2
            return 1
        }
    done
}

# Checks that BENCH_cluster.json parses and carries every field the
# current scripts/bench_cluster.sh emits. Argument: a label for error
# messages ("smoke" or "committed").
check_bench_cluster() {
    python3 -c '
import json, sys
with open("BENCH_cluster.json") as f:
    report = json.load(f)
for key in ("harness", "host", "benches", "caveat", "workload_scale",
            "samples_per_point", "clients", "requests_per_client", "variants"):
    if key not in report:
        sys.exit(f"BENCH_cluster.json: missing {key!r}")
if "available_parallelism" not in report["host"]:
    sys.exit("BENCH_cluster.json: host block lacks available_parallelism")
b = report["benches"].get("cluster.warm_throughput")
if b is None:
    sys.exit("BENCH_cluster.json: no cluster.warm_throughput bench")
for field in ("one_worker_rps", "three_worker_rps", "speedup"):
    if field not in b:
        sys.exit(f"BENCH_cluster.json: warm_throughput missing {field!r}")
    if not b[field] or b[field] <= 0:
        sys.exit(f"BENCH_cluster.json: warm_throughput {field} is not positive")
' || {
        echo "bench-cluster: $1 BENCH_cluster.json unparsable or incomplete" >&2
        return 1
    }
}

# A smoke-scale scripts/bench_cluster.sh run (1-vs-3-worker throughput
# through oha-router, every response byte-checked against an oracle)
# must leave a parsable BENCH_cluster.json; the committed file is then
# restored and held to the same field checks.
bench_cluster_smoke() {
    OHA_SMOKE=1 ./scripts/bench_cluster.sh 1 >/dev/null
    check_bench_cluster smoke
    git checkout -- BENCH_cluster.json 2>/dev/null || true
    check_bench_cluster committed
}

# Checks a daemon stats JSON file's need_corpus counter. Arguments: the
# stats file, then "some" (at least one) or "none" (exactly zero).
need_corpus() {
    python3 -c '
import json, sys
n = json.load(open(sys.argv[1]))["need_corpus"]
if (n > 0) != (sys.argv[2] == "some"):
    sys.exit(f"store-smoke: need_corpus is {n}, expected {sys.argv[2]}")
' "$1" "$2"
}

# Store/daemon smoke: 16 concurrent clients against a cold daemon must
# all get byte-identical canonical JSON, and the cold daemon must report
# at least one need-corpus answer; a fresh daemon warm-started on the
# same artifact store must answer with the same bytes again and need no
# corpus; both daemons must drain gracefully on `shutdown`.
store_smoke() {
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"; trap - RETURN' RETURN
    local sock="$out/daemon.sock" store="$out/store" prog="$out/zlib.ir"
    ./target/release/print_workload zlib >"$prog"

    local daemon i pid
    ./target/release/oha-serve --socket "$sock" --store "$store" 2>"$out/serve1.log" &
    daemon=$!

    local pids=()
    for i in $(seq 1 16); do
        ./target/release/oha-client --socket "$sock" optft --program "$prog" \
            >"$out/cold.$i.json" 2>>"$out/client.log" &
        pids+=("$!")
    done
    for pid in "${pids[@]}"; do
        if ! wait "$pid"; then
            echo "store-smoke: a concurrent client failed" >&2
            cat "$out/client.log" >&2
            return 1
        fi
    done
    if [ ! -s "$out/cold.1.json" ]; then
        echo "store-smoke: empty analyze response" >&2
        return 1
    fi
    for i in $(seq 2 16); do
        if ! cmp -s "$out/cold.1.json" "$out/cold.$i.json"; then
            echo "store-smoke: client $i's bytes diverged from client 1's" >&2
            return 1
        fi
    done
    # --raw: stats pretty-prints for humans by default; CI wants the JSON.
    ./target/release/oha-client --socket "$sock" stats --raw >"$out/stats.json"
    python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$out/stats.json" || {
        echo "store-smoke: stats response is not JSON" >&2
        return 1
    }
    # The cold store could not serve the first by-reference request, so
    # at least one client had to resend its corpus inline.
    need_corpus "$out/stats.json" some || return 1
    ./target/release/oha-client --socket "$sock" shutdown >/dev/null
    if ! wait "$daemon"; then
        echo "store-smoke: daemon did not drain cleanly" >&2
        return 1
    fi

    # Warm restart on the populated store: identical bytes, no recompute
    # of the static phases, and no corpus on the wire.
    ./target/release/oha-serve --socket "$sock" --store "$store" 2>"$out/serve2.log" &
    daemon=$!
    ./target/release/oha-client --socket "$sock" optft --program "$prog" >"$out/warm.json"
    if ! cmp -s "$out/cold.1.json" "$out/warm.json"; then
        echo "store-smoke: warm restart diverged from the cold result" >&2
        return 1
    fi
    ./target/release/oha-client --socket "$sock" stats --raw >"$out/warm-stats.json"
    need_corpus "$out/warm-stats.json" none || return 1
    ./target/release/oha-client --socket "$sock" shutdown >/dev/null
    if ! wait "$daemon"; then
        echo "store-smoke: warm daemon did not drain cleanly" >&2
        return 1
    fi
}

# Checks that a Chrome trace file parses and is balanced on every track:
# each E closes an open B of its own track and nothing stays open.
# Arguments: the trace file, then a label for error messages.
check_trace_balance() {
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
events = doc.get("traceEvents")
if not events:
    sys.exit(f"{sys.argv[1]}: no traceEvents")
depth = {}
for e in events:
    ph, tid = e["ph"], e.get("tid")
    if ph not in ("B", "E", "i"):
        sys.exit(f"{sys.argv[1]}: unexpected phase {ph!r}")
    if "ts" not in e or tid is None:
        sys.exit(f"{sys.argv[1]}: event missing ts/tid: {e}")
    if ph == "B":
        depth[tid] = depth.get(tid, 0) + 1
    elif ph == "E":
        depth[tid] = depth.get(tid, 0) - 1
        if depth[tid] < 0:
            sys.exit(f"{sys.argv[1]}: track {tid} ends before it begins")
open_tracks = {t: d for t, d in depth.items() if d != 0}
if open_tracks:
    sys.exit(f"{sys.argv[1]}: unbalanced spans on tracks {open_tracks}")
print(f"    trace OK: {len(events)} events on {len(depth)} tracks")
' "$1" || {
        echo "trace-smoke: $2 trace unparsable or malformed" >&2
        return 1
    }
}

# Tracing smoke: a smoke-scale fig5 run with --trace-out must leave a
# Perfetto-loadable Chrome trace (balanced B/E spans on every track), and
# a traced daemon must serve Prometheus + JSON metrics whose request-
# latency histogram count matches its request counter, then write its own
# trace on drain, also balanced on every track. The daemon runs one
# compute thread, so each request's pipeline gets the host's threads and
# its dynamic phase traces lanes on tracks of their own. Artifacts land in
# target/ci-trace/ so CI can upload them.
trace_smoke() {
    local out="target/ci-trace"
    rm -rf "$out"
    mkdir -p "$out"

    echo "    smoke: fig5_optft_runtimes --trace-out $out/fig5.trace.json"
    OHA_SMOKE=1 ./target/release/fig5_optft_runtimes \
        --trace-out "$out/fig5.trace.json" >/dev/null
    check_trace_balance "$out/fig5.trace.json" bench || return 1

    local sock="$out/daemon.sock" prog="$out/zlib.ir" daemon i
    ./target/release/print_workload zlib >"$prog"
    OHA_TRACE=1 ./target/release/oha-serve --socket "$sock" --threads 1 \
        --trace-out "$out/serve.trace.json" 2>"$out/serve.log" &
    daemon=$!
    for i in 1 2; do
        ./target/release/oha-client --socket "$sock" optft --program "$prog" >/dev/null
    done
    ./target/release/oha-client --socket "$sock" metrics >"$out/metrics.prom"
    grep -q '^oha_requests_total ' "$out/metrics.prom" || {
        echo "trace-smoke: Prometheus exposition lacks oha_requests_total" >&2
        cat "$out/metrics.prom" >&2
        return 1
    }
    ./target/release/oha-client --socket "$sock" metrics --json --raw >"$out/metrics.json"
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    m = json.load(f)
requests = m["requests"]
latency = m["request_latency_ns"]["count"]
if requests < 2:
    sys.exit(f"{sys.argv[1]}: expected >=2 requests, saw {requests}")
if latency != requests:
    sys.exit(f"{sys.argv[1]}: latency histogram count {latency} != requests {requests}")
if not m["trace"]["enabled"]:
    sys.exit(f"{sys.argv[1]}: OHA_TRACE=1 daemon reports tracing disabled")
' "$out/metrics.json" || {
        echo "trace-smoke: metrics snapshot unparsable or inconsistent" >&2
        return 1
    }
    ./target/release/oha-client --socket "$sock" shutdown >/dev/null
    if ! wait "$daemon"; then
        echo "trace-smoke: daemon did not drain cleanly" >&2
        return 1
    fi
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
names = {e["name"] for e in doc["traceEvents"]}
if "serve/request" not in names:
    sys.exit(f"{sys.argv[1]}: drained daemon trace has no serve/request span")
' "$out/serve.trace.json" || {
        echo "trace-smoke: daemon trace missing or incomplete" >&2
        return 1
    }
    check_trace_balance "$out/serve.trace.json" daemon
}

# Checks that a bench_store report parses and carries the daemon speedup,
# the >=5x tally and at least one per-workload speedup. Argument: the
# report's path.
check_bench_store() {
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    report = json.load(f)
meta = report.get("meta", {})
for key in ("daemon.speedup", "workloads_at_or_above_5x"):
    if key not in meta:
        sys.exit(f"{sys.argv[1]}: missing meta key {key!r}")
if not any(k.endswith(".speedup") and "." in k[:-8] for k in meta):
    sys.exit(f"{sys.argv[1]}: no per-workload speedups recorded")
' "$1" || {
        echo "bench-store: $1 unparsable or incomplete" >&2
        return 1
    }
}

# A smoke-scale bench_store run: cold/warm and daemon timings must land
# in a parsable JSON report. The committed BENCH_store.json (generated at
# benchmark scale by scripts/bench_store.sh) is held to the same checks.
bench_store_smoke() {
    local out
    out="$(mktemp -d)"
    trap 'rm -rf "$out"; trap - RETURN' RETURN
    OHA_SMOKE=1 ./target/release/bench_store --json "$out/bench_store.json" >/dev/null
    check_bench_store "$out/bench_store.json"
    check_bench_store BENCH_store.json
}

# Chaos smoke: the fault-injection gate, in two acts.
#
# Act 1 — multi-site fault plan. A clean daemon's canonical bytes are the
# oracle; a daemon armed with OHA_FAULTS (short store writes, read
# corruption, rename delays, torn response frames, compute delays, read
# stalls) serves 16 concurrent retrying clients, each of which must end
# with the oracle's exact bytes or a typed error — never silently wrong
# output. The daemon's per-site fault counters must show the plan fired,
# and the report lands in target/ci-chaos/ for CI to upload.
#
# Act 2 — crash consistency. A daemon with an injected crash between
# temp-write and rename dies mid-save (SIGABRT, the kill-9 analogue, at
# a deterministic point inside the write window). The interrupted store
# must recover on restart: the orphaned temp file swept, the artifact
# recomputed, the bytes identical to the oracle. Three rounds, fresh
# store each, prove it is repeatable.
chaos_smoke() {
    local out="target/ci-chaos"
    rm -rf "$out"
    mkdir -p "$out"
    local sock="$out/daemon.sock" prog="$out/zlib.ir"
    local i
    ./target/release/print_workload zlib >"$prog"

    # Act 1 oracle: one clean round.
    start_daemon "$sock" "$out/serve-clean.log" --store "$out/store-clean"
    ./target/release/oha-client --socket "$sock" optft --program "$prog" >"$out/expected.json"
    ./target/release/oha-client --socket "$sock" shutdown >/dev/null
    wait "$DAEMON"
    if [ ! -s "$out/expected.json" ]; then
        echo "chaos-smoke: clean oracle run produced no output" >&2
        return 1
    fi

    # Act 1 chaos round: every store and serve fault site armed at once.
    OHA_FAULTS="seed=7; delay_ms=5; store.write.short=%2; store.read.corrupt=%3; \
store.rename.delay=%2; serve.write.disconnect=%7; serve.compute.delay=%5; \
serve.read.stall=%6" start_daemon "$sock" "$out/serve-chaos.log" --store "$out/store-chaos"
    local pids=() ok=0 wrong=0 failed=0
    for i in $(seq 1 16); do
        ./target/release/oha-client --socket "$sock" --retries 8 --timeout-ms 60000 \
            optft --program "$prog" >"$out/chaos.$i.json" 2>>"$out/chaos-client.log" &
        pids+=("$!")
    done
    for i in $(seq 1 16); do
        if wait "${pids[$((i - 1))]}"; then
            if cmp -s "$out/expected.json" "$out/chaos.$i.json"; then
                ok=$((ok + 1))
            else
                wrong=$((wrong + 1))
                echo "chaos-smoke: client $i SUCCEEDED WITH WRONG BYTES" >&2
            fi
        else
            # A typed error after exhausted retries is within contract.
            failed=$((failed + 1))
        fi
    done
    echo "    chaos clients: $ok correct, $failed typed-error, $wrong wrong-bytes"
    if [ "$wrong" -ne 0 ]; then
        echo "chaos-smoke: a fault was converted into wrong output" >&2
        return 1
    fi
    if [ "$ok" -lt 12 ]; then
        echo "chaos-smoke: only $ok/16 clients succeeded under the plan" >&2
        cat "$out/chaos-client.log" >&2
        return 1
    fi
    # The control plane is exempt from response tearing, so the fault
    # report is always fetchable — and the plan must actually have fired.
    ./target/release/oha-client --socket "$sock" stats --raw >"$out/faults.json"
    python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
faults = stats.get("faults")
if not faults or faults.get("injected_total", 0) <= 0:
    sys.exit(f"{sys.argv[1]}: armed daemon reports no injected faults: {faults}")
print(f"    fault counters: {faults}")
' "$out/faults.json" || {
        echo "chaos-smoke: fault-counter report missing or empty" >&2
        return 1
    }
    ./target/release/oha-client --socket "$sock" shutdown >/dev/null
    if ! wait "$DAEMON"; then
        echo "chaos-smoke: chaos daemon did not drain cleanly" >&2
        return 1
    fi

    # Act 2: crash between temp-write and rename, restart, recover.
    local round store
    for round in 1 2 3; do
        store="$out/store-crash-$round"
        start_daemon "$sock" "$out/serve-crash-$round.log" \
            --store "$store" --faults "store.crash.before_rename=@1"
        # The first save aborts the daemon mid-write; this client's
        # request dies with it (no retries: the daemon is gone).
        ./target/release/oha-client --socket "$sock" --retries 0 \
            optft --program "$prog" >/dev/null 2>>"$out/crash-client.log" || true
        if wait "$DAEMON"; then
            echo "chaos-smoke: round $round daemon survived its injected crash" >&2
            return 1
        fi
        if ! ls "$store"/tmp/*.tmp >/dev/null 2>&1; then
            echo "chaos-smoke: round $round crash left no orphan temp (died outside the window?)" >&2
            return 1
        fi
        # Restart clean on the same directory: sweep, recompute, serve.
        start_daemon "$sock" "$out/serve-recover-$round.log" --store "$store"
        ./target/release/oha-client --socket "$sock" optft --program "$prog" \
            >"$out/recovered.$round.json"
        if ! cmp -s "$out/expected.json" "$out/recovered.$round.json"; then
            echo "chaos-smoke: round $round recovery diverged from the oracle" >&2
            return 1
        fi
        if ls "$store"/tmp/*.tmp >/dev/null 2>&1; then
            echo "chaos-smoke: round $round orphan temp not swept on restart" >&2
            return 1
        fi
        ./target/release/oha-client --socket "$sock" shutdown >/dev/null
        if ! wait "$DAEMON"; then
            echo "chaos-smoke: round $round recovered daemon did not drain" >&2
            return 1
        fi
        echo "    crash round $round: orphan swept, artifact recomputed, bytes identical"
    done
}

# Cluster smoke: the sharded serving gate. A 3-worker oha-router fleet
# must serve 16 concurrent clients bytes identical to a single-daemon
# oracle; SIGKILLing the busiest worker must fail requests over (correct
# bytes, failovers counted) and the supervisor must restart it; the
# aggregated Prometheus exposition must parse and carry the cluster
# families; shutdown must drain the fleet and remove the front socket.
# Artifacts (router + worker logs, stats snapshots) land in
# target/ci-cluster/ so CI can upload them.
cluster_smoke() {
    local out="target/ci-cluster"
    rm -rf "$out"
    mkdir -p "$out"
    local prog="$out/zlib.ir"
    ./target/release/print_workload zlib >"$prog"

    # The oracle: one clean single-daemon round.
    start_daemon "$out/oracle.sock" "$out/oracle-serve.log" --store "$out/store-oracle"
    ./target/release/oha-client --socket "$out/oracle.sock" optft --program "$prog" \
        >"$out/expected.json"
    ./target/release/oha-client --socket "$out/oracle.sock" shutdown >/dev/null
    wait "$DAEMON"
    if [ ! -s "$out/expected.json" ]; then
        echo "cluster-smoke: oracle run produced no output" >&2
        return 1
    fi

    # The fleet: 3 workers behind one front socket. A 1s restart backoff
    # keeps the killed worker down long enough that the failover path
    # (not the supervisor's respawn) has to serve the post-kill requests.
    local rsock="$out/router.sock"
    ./target/release/oha-router --socket "$rsock" --workers 3 --dir "$out/fleet" \
        --store "$out/store-cluster" --backoff-ms 1000 --health-ms 200 \
        2>"$out/router.log" &
    local router=$!

    local pids=() i
    for i in $(seq 1 16); do
        ./target/release/oha-client --socket "$rsock" optft --program "$prog" \
            >"$out/cluster.$i.json" 2>>"$out/cluster-client.log" &
        pids+=("$!")
    done
    for i in $(seq 1 16); do
        if ! wait "${pids[$((i - 1))]}"; then
            echo "cluster-smoke: concurrent client $i failed" >&2
            cat "$out/cluster-client.log" "$out/router.log" >&2
            return 1
        fi
        if ! cmp -s "$out/expected.json" "$out/cluster.$i.json"; then
            echo "cluster-smoke: client $i's bytes diverged from the oracle" >&2
            return 1
        fi
    done

    # Aim at the key's home worker: the shard that served the requests.
    ./target/release/oha-client --socket "$rsock" stats --raw >"$out/stats-before.json"
    local victim
    victim=$(python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    cluster = json.load(f)["cluster"]
shards = cluster["shard_requests"]
home = shards.index(max(shards))
pid = cluster["pids"][home]
if max(shards) <= 0 or pid <= 0:
    sys.exit(f"no busy shard to kill: {cluster}")
print(pid)
' "$out/stats-before.json") || {
        echo "cluster-smoke: could not pick a kill target" >&2
        cat "$out/stats-before.json" >&2
        return 1
    }
    kill -9 "$victim"

    # The same request must still return oracle bytes: the router fails
    # over along the key's rendezvous ranking while the home is down.
    ./target/release/oha-client --socket "$rsock" optft --program "$prog" \
        >"$out/failover.json" 2>>"$out/cluster-client.log"
    if ! cmp -s "$out/expected.json" "$out/failover.json"; then
        echo "cluster-smoke: post-kill request diverged from the oracle" >&2
        cat "$out/router.log" >&2
        return 1
    fi

    # The supervisor must notice the death, restart the worker, and the
    # router must have counted the failover.
    local recovered=0
    for i in $(seq 1 150); do
        ./target/release/oha-client --socket "$rsock" stats --raw >"$out/stats-after.json"
        if python3 -c '
import json, sys
with open(sys.argv[1]) as f:
    cluster = json.load(f)["cluster"]
ok = (cluster["live_workers"] == cluster["workers"]
      and cluster["restarts"] >= 1 and cluster["failovers"] >= 1)
sys.exit(0 if ok else 1)
' "$out/stats-after.json"; then
            recovered=1
            break
        fi
        sleep 0.2
    done
    if [ "$recovered" -ne 1 ]; then
        echo "cluster-smoke: fleet never recovered from the kill" >&2
        cat "$out/stats-after.json" "$out/router.log" >&2
        return 1
    fi
    echo "    cluster: 16/16 oracle-identical, worker $victim killed," \
        "failover served, supervisor restarted it"

    # The aggregated exposition parses as Prometheus text format and
    # carries both the per-worker families and the cluster's own.
    ./target/release/oha-client --socket "$rsock" metrics >"$out/metrics.prom"
    python3 -c '
import sys
families = set()
with open(sys.argv[1]) as f:
    for line in f:
        line = line.rstrip("\n")
        if not line or line.startswith("#"):
            continue
        name_part = line.split(" ", 1)
        if len(name_part) != 2:
            sys.exit(f"unparsable sample line: {line!r}")
        float(name_part[1])  # value must be numeric
        families.add(name_part[0].split("{", 1)[0])
for needed in ("oha_requests_total", "oha_request_latency_seconds_bucket",
               "oha_cluster_workers", "oha_cluster_live_workers",
               "oha_cluster_worker_restarts_total", "oha_cluster_forwarded_total",
               "oha_cluster_failovers_total", "oha_cluster_shard_requests_total"):
    if needed not in families:
        sys.exit(f"exposition missing family {needed}")
print(f"    metrics: {len(families)} families parsed")
' "$out/metrics.prom" || {
        echo "cluster-smoke: aggregated exposition unparsable or incomplete" >&2
        cat "$out/metrics.prom" >&2
        return 1
    }

    ./target/release/oha-client --socket "$rsock" shutdown >/dev/null
    if ! wait "$router"; then
        echo "cluster-smoke: router did not drain cleanly" >&2
        cat "$out/router.log" >&2
        return 1
    fi
    if [ -S "$rsock" ]; then
        echo "cluster-smoke: drained router left its socket behind" >&2
        return 1
    fi
}

if [ "$CHAOS" = 1 ]; then
    stage "cargo build --release (workspace)" cargo build --locked --release --workspace
    stage "chaos-smoke (fault plan + crash recovery)" chaos_smoke
    echo "CI green (chaos)."
    exit 0
fi

if [ "$CLUSTER" = 1 ]; then
    stage "cargo build --release (workspace)" cargo build --locked --release --workspace
    stage "cluster-smoke (3-worker router, kill + failover + recovery)" cluster_smoke
    echo "CI green (cluster)."
    exit 0
fi

# cargo-fmt does not understand --locked; every dependency-resolving
# cargo invocation below carries it so CI fails loudly if Cargo.lock is
# stale instead of silently re-resolving.
stage "cargo fmt --check" cargo fmt --check
stage "cargo clippy (workspace, all targets, warnings are errors)" \
    cargo clippy --locked --workspace --all-targets -- -D warnings

if [ "$QUICK" = 1 ]; then
    stage "cargo test (debug)" cargo test --locked -q
    echo "CI green (quick)."
    exit 0
fi

stage "cargo build --release (workspace)" cargo build --locked --release --workspace
stage "cargo test (release)" cargo test --locked --release --workspace -q
stage "bench-smoke (fig5 + table1, --json)" bench_smoke
stage "static-parallel (thread-sweep byte-equality gate)" static_parallel_smoke
stage "bench-static (probe_solver vs reference, BENCH_static.json)" bench_static
stage "store-smoke (16-client daemon round-trip + warm restart)" store_smoke
stage "trace-smoke (Chrome trace export + live daemon metrics)" trace_smoke
stage "bench-store-smoke (cold/warm + daemon, --json)" bench_store_smoke
stage "chaos-smoke (fault plan + crash recovery)" chaos_smoke
stage "cluster-smoke (3-worker router, kill + failover + recovery)" cluster_smoke
stage "bench-cluster-smoke (1-vs-3-worker router throughput, BENCH_cluster.json)" \
    bench_cluster_smoke

echo "CI green."
