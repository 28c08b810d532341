#!/usr/bin/env bash
# Tier-1 verification: everything here must pass offline, with no
# network access and no external crates (see DESIGN.md, "Dependency
# justification"). CI runs this same script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> failpoints stress suite (seed ${CXU_FAILPOINTS_SEED:-1})"
cargo test -q -p cxu --features failpoints --test failpoints_stress

echo "==> serve validation suite (failpoints build: panic isolation)"
cargo test -q -p cxu --features failpoints --test serve_validation

echo "==> metrics smoke (fixed seed, JSON schema + route counters)"
out=$(./target/release/cxu schedule --gen-seed 42 --gen-len 40 \
    --format json --metrics json)
echo "$out" | grep -q '"metrics": {"counters": {' \
    || { echo "metrics JSON missing 'counters' object"; exit 1; }
echo "$out" | grep -q '"histograms"' \
    || { echo "metrics JSON missing 'histograms' object"; exit 1; }
echo "$out" | grep -q '"sched.route.ptime_linear_read": [1-9]' \
    || { echo "expected a nonzero PTIME route count"; exit 1; }
echo "$out" | grep -qE '"sched\.route\.(witness_search|conservative_budget|conservative_undecided)": [1-9]' \
    || { echo "expected a nonzero NP-side route count"; exit 1; }
echo "$out" | grep -q '"sched.cache.lookups": [1-9]' \
    || { echo "expected nonzero cache lookups"; exit 1; }
# Degenerate flags must be rejected.
if ./target/release/cxu schedule --gen-seed 1 --jobs 0 >/dev/null 2>&1; then
    echo "--jobs 0 was accepted"; exit 1
fi
if ./target/release/cxu schedule --gen-seed 1 --deadline-ms 0 >/dev/null 2>&1; then
    echo "--deadline-ms 0 was accepted"; exit 1
fi

echo "==> golden witnesses (the NP-side search keeps its candidate order)"
golden() {
    local want="$1"
    shift
    local got
    got=$(./target/release/cxu check "$@")
    [ "$got" = "$want" ] || { echo "cxu check $*: expected '$want', got '$got'"; exit 1; }
}
golden 'CONFLICT — witness: a(b) (Node semantics, exhaustive search)' \
    --read 'a[b][c]' --insert 'a[b]' --subtree c
golden 'CONFLICT — witness: a(b(v(w))) (Node semantics, exhaustive search)' \
    --read 'a//v[w]' --delete a/b
golden 'CONFLICT — witness: a(a) (Tree semantics, exhaustive search)' \
    --read 'a[a]/a' --delete a/a --semantics tree
golden 'CONFLICT — witness: a(a) (Value semantics, exhaustive search)' \
    --read 'a[a]//a' --insert a/a --subtree a --semantics value
golden 'no conflict witnessed by trees of <= 6 nodes (branching read: problem is NP-complete, §5)' \
    --read 'a[b][c]' --insert a/b --subtree q

echo "==> memory guard (an exhaustive search over 6 nodes and 5 symbols in 64 MiB)"
# The search builds each candidate when it reaches it; holding the
# whole candidate list took about 120 MiB here.
(ulimit -v 65536; ./target/release/cxu check --read 'a[b][c]//d' --insert a/b --subtree c >/dev/null) \
    || { echo "the exhaustive search did not fit in 64 MiB of address space"; exit 1; }

echo "==> experiment report (EXPERIMENTS.md E4a-E15; exits nonzero on a failed check)"
exp_out=$(mktemp)
./target/release/cxu-bench experiments > "$exp_out" \
    || { echo "cxu-bench experiments failed"; cat "$exp_out"; exit 1; }
grep -q 'agreement on 200 random pairs: 200/200' "$exp_out" \
    || { echo "Theorem 4 agreement incomplete"; cat "$exp_out"; exit 1; }
rm -f "$exp_out"

echo "==> serve smoke (ephemeral port, seeded loadgen, validated verdicts)"
serve_log=$(mktemp)
serve_bench=$(mktemp)
./target/release/cxu serve --addr 127.0.0.1:0 --shards 4 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never announced its address"; cat "$serve_log"; exit 1; }
# --validate makes loadgen exit nonzero on any verdict disagreement.
./target/release/cxu loadgen --addr "$addr" --connections 4 --duration-ms 1000 \
    --profile linear --validate --out "$serve_bench" >/dev/null
grep -q '"disagreements": 0' "$serve_bench" \
    || { echo "loadgen reported verdict disagreements"; cat "$serve_bench"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -q 'drained after' "$serve_log" \
    || { echo "server did not report a clean drain"; cat "$serve_log"; exit 1; }

echo "==> idle server stays idle (under 1% of one CPU over 2 s; reads /proc, Linux only)"
./target/release/cxu serve --addr 127.0.0.1:0 --shards 4 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never announced its address"; cat "$serve_log"; exit 1; }
# The first field of a thread's schedstat is its time on a CPU, in ns.
cpu_ns() { cat /proc/"$serve_pid"/task/*/schedstat | awk '{ s += $1 } END { print s }'; }
before=$(cpu_ns)
sleep 2
idle_ns=$(( $(cpu_ns) - before ))
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "idle server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
echo "idle server: ${idle_ns} ns of CPU in 2 s"
[ "$idle_ns" -le 20000000 ] \
    || { echo "idle server used ${idle_ns} ns of CPU in 2 s (limit 20 ms)"; exit 1; }

echo "==> serve overload (queue depth 1: burst must bounce, server must drain)"
./target/release/cxu serve --addr 127.0.0.1:0 --workers 1 --queue-depth 1 \
    > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never announced its address"; cat "$serve_log"; exit 1; }
./target/release/cxu loadgen --addr "$addr" --connections 8 --duration-ms 800 \
    --delay-ms 20 --out "$serve_bench" >/dev/null
grep -qE '"overloaded": [1-9]' "$serve_bench" \
    || { echo "overload burst produced no 'overloaded' rejections"; cat "$serve_bench"; exit 1; }
grep -q '"failed": 0' "$serve_bench" \
    || { echo "overload burst produced hard failures"; cat "$serve_bench"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "overloaded server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -q 'drained after' "$serve_log" \
    || { echo "overloaded server did not report a clean drain"; cat "$serve_log"; exit 1; }
rm -f "$serve_log" "$serve_bench"

echo "==> pipelined-client smoke (2 conns x depth 32, validated verdicts)"
./target/release/cxu serve --addr 127.0.0.1:0 --shards 4 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never announced its address"; cat "$serve_log"; exit 1; }
./target/release/cxu loadgen --addr "$addr" --connections 2 --pipeline 32 \
    --duration-ms 1000 --seed 42 --profile linear --validate --out "$serve_bench" >/dev/null
grep -q '"pipeline": 32' "$serve_bench" \
    || { echo "pipelined bench missing its pipeline marker"; cat "$serve_bench"; exit 1; }
grep -q '"disagreements": 0' "$serve_bench" \
    || { echo "pipelined loadgen reported verdict disagreements"; cat "$serve_bench"; exit 1; }
grep -q '"failed": 0' "$serve_bench" \
    || { echo "pipelined loadgen reported hard failures"; cat "$serve_bench"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "pipelined server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -q 'drained after' "$serve_log" \
    || { echo "pipelined server did not report a clean drain"; cat "$serve_log"; exit 1; }
rm -f "$serve_log" "$serve_bench"

echo "==> two-servers metrics isolation + pipelined timeout accounting (socket tests)"
cargo test -q -p cxu --test serve_validation two_concurrent_servers_keep_metrics_isolated
cargo test -q -p cxu --test serve_validation pipelined

echo "==> store smoke (racing editors on shared docs, validated feed and winners)"
./target/release/cxu serve --addr 127.0.0.1:0 --workers 4 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never announced its address"; cat "$serve_log"; exit 1; }
# --validate replays the changes feed after the run: strict sequence
# monotonicity, one row per document, a mid-feed cursor replay, limit-1
# paging, and a doc_get winner cross-check per row.
./target/release/cxu loadgen --addr "$addr" --connections 6 --docs 3 \
    --duration-ms 1200 --seed 7 --profile store --validate --out "$serve_bench" >/dev/null
grep -q '"bench": "store"' "$serve_bench" \
    || { echo "store bench missing its marker"; cat "$serve_bench"; exit 1; }
grep -q '"disagreements": 0' "$serve_bench" \
    || { echo "store validation found feed/winner disagreements"; cat "$serve_bench"; exit 1; }
grep -qE '"puts": [1-9]' "$serve_bench" \
    || { echo "store bench recorded no puts"; cat "$serve_bench"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "store server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
# SIGTERM with puts still in flight: admitted work must drain, and the
# editors must see clean connection closes, not hangs.
./target/release/cxu serve --addr 127.0.0.1:0 --workers 4 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never announced its address"; cat "$serve_log"; exit 1; }
./target/release/cxu loadgen --addr "$addr" --connections 6 --docs 3 \
    --duration-ms 3000 --seed 8 --profile store >/dev/null 2>&1 &
load_pid=$!
sleep 0.5
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "store server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -qE 'drained after .* accepted [1-9]' "$serve_log" \
    || { echo "store server did not drain a loaded run cleanly"; cat "$serve_log"; exit 1; }
wait "$load_pid" || true
rm -f "$serve_log" "$serve_bench"

echo "==> grounded checks (structural index vs tree walk: socket test, then CLI)"
# doc_check over the socket against the in-process tree walk, on fixed
# and seeded random pairs under all three semantics.
cargo test -q -p cxu --test serve_validation doc_check
# One process, two engines: the index and the tree walk must agree.
idx_verdict=$(./target/release/cxu check --read 'x//C' --delete 'x/A' \
    --doc 'x(B(C E) A(B C))' --index)
walk_verdict=$(./target/release/cxu check --read 'x//C' --delete 'x/A' \
    --doc 'x(B(C E) A(B C))')
echo "$idx_verdict" | grep -q 'CONFLICT' \
    || { echo "grounded CLI (index) missed the conflict: $idx_verdict"; exit 1; }
echo "$walk_verdict" | grep -q 'CONFLICT' \
    || { echo "grounded CLI (walk) missed the conflict: $walk_verdict"; exit 1; }

echo "==> durable serve smoke (--data-dir: ack, kill -9, restart, re-read)"
data_dir=$(mktemp -d)
./target/release/cxu serve --addr 127.0.0.1:0 --workers 2 \
    --data-dir "$data_dir" --fsync always > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "durable server never announced its address"; cat "$serve_log"; exit 1; }
# Drive the socket with bash's /dev/tcp: one put, read the ack.
exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}"
printf '{"route": "doc_put", "doc": "smoke", "content": "a(b c)", "semantics": "value"}\n' >&3
IFS= read -r put <&3
exec 3<&- 3>&-
echo "$put" | grep -q '"result": "created"' \
    || { echo "durable put was not acked: $put"; exit 1; }
rev=$(echo "$put" | grep -oE '"rev": "[^"]+"' | head -1 | cut -d'"' -f4)
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
./target/release/cxu serve --addr 127.0.0.1:0 --workers 2 \
    --data-dir "$data_dir" --fsync always > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "restarted server never announced its address"; cat "$serve_log"; exit 1; }
grep -q 'cxu-serve recovered' "$serve_log" \
    || { echo "restarted server printed no recovery report"; cat "$serve_log"; exit 1; }
exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}"
printf '{"route": "doc_get", "doc": "smoke", "rev": "%s"}\n' "$rev" >&3
IFS= read -r got <&3
exec 3<&- 3>&-
echo "$got" | grep -q '"found": true' \
    || { echo "acked revision $rev lost across kill -9: $got"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "durable server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
rm -rf "$data_dir"
rm -f "$serve_log" "$serve_bench"

echo "==> txn smoke (racing transactions, all-or-nothing validation)"
./target/release/cxu serve --addr 127.0.0.1:0 --shards 4 > "$serve_log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(grep -oE '127\.0\.0\.1:[0-9]+' "$serve_log" || true)
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "txn server never announced its address"; cat "$serve_log"; exit 1; }
# --validate probes every acked transaction's revision set after the
# run: all members visible or none (a torn set is a disagreement),
# plus the changes-feed and winner cross-checks.
./target/release/cxu loadgen --addr "$addr" --connections 4 --docs 3 \
    --duration-ms 1200 --seed 7 --profile txn --validate --out "$serve_bench" >/dev/null
grep -q '"bench": "txn"' "$serve_bench" \
    || { echo "txn bench missing its marker"; cat "$serve_bench"; exit 1; }
grep -q '"disagreements": 0' "$serve_bench" \
    || { echo "txn validation found torn or lost transactions"; cat "$serve_bench"; exit 1; }
grep -qE '"applied": [1-9]' "$serve_bench" \
    || { echo "txn bench committed no transactions"; cat "$serve_bench"; exit 1; }
grep -q '"failed": 0' "$serve_bench" \
    || { echo "txn loadgen reported hard failures"; cat "$serve_bench"; exit 1; }
# The one-shot CLI against the same server: create a document over
# the socket, then commit a guarded two-op program atomically.
exec 3<>"/dev/tcp/${addr%:*}/${addr#*:}"
printf '{"route": "doc_put", "doc": "txn-smoke", "content": "a(b c)"}\n' >&3
IFS= read -r put <&3
exec 3<&- 3>&-
rev=$(echo "$put" | grep -oE '"rev": "[^"]+"' | head -1 | cut -d'"' -f4)
[ -n "$rev" ] || { echo "txn smoke setup put failed: $put"; exit 1; }
txn_out=$(printf '{"guards": [{"doc": "txn-smoke", "rev": "%s"}], "ops": [{"doc": "txn-smoke", "op": {"kind": "insert", "pattern": "a/b", "subtree": "x"}}, {"doc": "txn-smoke", "op": {"kind": "insert", "pattern": "a/c", "subtree": "y"}}]}\n' "$rev" \
    | ./target/release/cxu txn --file - --addr "$addr" 2>&1) \
    || { echo "cxu txn failed: $txn_out"; exit 1; }
echo "$txn_out" | grep -qi 'applied' \
    || { echo "cxu txn did not apply: $txn_out"; exit 1; }
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "txn server exited nonzero after SIGTERM"; cat "$serve_log"; exit 1; }
grep -q 'drained after' "$serve_log" \
    || { echo "txn server did not report a clean drain"; cat "$serve_log"; exit 1; }
rm -f "$serve_log" "$serve_bench"

echo "==> crash-injection smoke (6 kill -9 cycles, fixed seed, txn editors)"
crash_dir=$(mktemp -d)
crash_out=$(mktemp)
./target/release/cxu crashtest --data-dir "$crash_dir" --cycles 6 --seed 42 \
    --txn-editors 2 --out "$crash_out" \
    || { echo "crash smoke reported durability violations"; cat "$crash_out"; exit 1; }
grep -q '"ok": true' "$crash_out" \
    || { echo "crash smoke report not ok"; cat "$crash_out"; exit 1; }
grep -q '"lost": 0' "$crash_out" \
    || { echo "crash smoke lost acked writes"; cat "$crash_out"; exit 1; }
grep -q '"phantoms": 0' "$crash_out" \
    || { echo "crash smoke surfaced phantom revisions"; cat "$crash_out"; exit 1; }
grep -q '"txn_partial": 0' "$crash_out" \
    || { echo "crash smoke recovered a torn transaction"; cat "$crash_out"; exit 1; }
rm -rf "$crash_dir"
rm -f "$crash_out"

echo "==> cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all --check
else
    echo "    (rustfmt not installed; skipped)"
fi

echo "==> cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "    (clippy not installed; skipped)"
fi

echo "OK"
