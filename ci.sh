#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green, in the order that fails
# fastest. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== library code reads no environment variable =="
# Spelled out because errexit ignores a negated status, and with the
# trailing `/*` because a pathspec with a wildcard has to match the whole
# path: `-- 'crates/*/src'` names no file and finds nothing, ever.
if git grep -n "env::var" -- 'crates/*/src/*'; then
    echo "library code reads the environment: pass the value in instead"
    exit 1
fi

echo "== the serde shim writes and reads JSON text directly: no value tree =="
# `Serialize` appends compact JSON to a byte buffer and `Deserialize` reads
# it back from the text through `serde::json::Reader`. A value type in the
# shim would be a second model beside that one, and it is what every wire
# frame used to build per cell on both sides (ROADMAP item 6).
if git grep -n "enum Value" -- vendor/serde vendor/serde_json; then
    echo "the serde shim has a value tree again: write and read the text directly"
    exit 1
fi

echo "== one engine under two configurations: the backend picks where lanes run, nothing else =="
# Every core charges the cost model and every stage is timed on both
# clocks, whatever the backend. The backend is only ever `match`ed: in the
# stage runner, where a stage's lanes run, and in
# `QueryReport::elapsed_secs`, which clock hostdb reports.
if git grep -n -E "charging\(|== Backend::|!= Backend::" -- 'crates/*/src/*'; then
    echo "code tests the backend: match it where the lanes run or a clock is picked"
    exit 1
fi

echo "== one description of the DPU: plans are compiled and verified for the ExecContext they run on =="
# The compiler costs, partitions and verifies a plan for the cores, DMEM,
# tile and cost model of the context the engine runs it under: `CostParams`
# holds that context and the join-order switch, and the verifier takes the
# context itself. A configuration struct of the verifier's own, or a copied
# field in `CostParams`, is a second description of the DPU that a caller
# has to keep in step by hand. The link to the host and the offload latency
# are constants of `cost.rs`.
if git grep -n "struct VerifyConfig" -- 'crates/*/src/*'; then
    echo "the verifier has a configuration of its own again: verify against the ExecContext"
    exit 1
fi
if git grep -n -E "^\s*pub (cm|cores|tile_rows|dmem_bytes|network_bytes_per_sec|offload_latency_secs):" -- crates/qcomp/src/cost.rs; then
    echo "cost.rs copies a field of the ExecContext (or a constant) into a pub field: read CostParams::ctx"
    exit 1
fi

echo "== a scan never compacts: only a lane that writes the rows it kept does =="
# A stream-path scan hands its kept rows on as a selection vector over the
# tiles the DMS streamed; every operator of the task reads them there
# (`Rows::charge_select`) and compaction is charged where a lane writes them
# into vectors of its own (`Rows::into_batch`). A compaction charge in the
# scan is the copy of every projected column the operators above only read.
if git grep -n "Kernel::Compact" -- crates/qef/src/ops/filter.rs; then
    echo "the scan charges compaction again: hand the kept rows on as a selection"
    exit 1
fi

echo "== one snapshot per request: admission checkpoints first, the decision compiles against the fork =="
# HostDb::run checkpoints every table a statement reads before the offload
# decision compiles it, and forks the engine under the read lock the
# decision held, so the plan it costed is the plan the fork runs. The plan
# cache keys on what the parser reads, the DDL epoch. A plan that carries
# the tables it was compiled against, or a cache entry that carries SCNs,
# is a second freshness check beside admission.
if git grep -n -E "struct BoundPlan|fn valid_on|scn_snapshot" -- crates/hostdb/src; then
    echo "hostdb checks freshness twice again: admit first, then decide and fork under one lock"
    exit 1
fi

echo "== a table is its chunks in heap-slot order: no horizontal partitions =="
# Chunk k of a table holds heap slots [k × chunk_rows, (k + 1) × chunk_rows),
# and a lane's scan span is a slice of those chunks. One DPU holds the whole
# table, so a partition layer above the chunks would only permute them: a
# second order beside slot order that the checkpoint's chunk sharing and the
# lane split would have to see through. Sharding would bring back per-node
# tables, not a permutation of one table's chunks.
if git grep -n -E "struct TablePartition|fn partitions\(|target_partitions" -- 'crates/storage/src/*' 'crates/tpch/src/*' 'crates/hostdb/src/*'; then
    echo "a table is its chunks in heap-slot order"
    exit 1
fi

echo "== a broadcast join's filter is built beside its table =="
# Every lane of a broadcast join's probe reads the whole build side and
# hashes every key to build its table; it sets the filter's bits from those
# hashes in the DMEM its stage declares for the filter, and reads no filter
# from DRAM. A stage that re-reads and re-hashes the build keys, a merge of
# the copies it built, or their charges, are a second filter builder beside
# the partitioned join's `join.filter` stage, which stays: a partitioned
# probe side's round one needs its filter before any table exists.
if git grep -n -E "join\.filter\.merge|merge_copies|fn broadcast_filter|join_filter_merge_per_word" -- 'crates/*'; then
    echo "a broadcast join's filter is built by a stage again: set its bits beside the table"
    exit 1
fi

echo "== a partition scheme is §5.3's heuristics: no factorization search =="
# `partition_opt::partition_scheme` takes the fewest power-of-two rounds the
# buffer cap allows and splits the hash bits evenly across them. Those rules
# are the scheme: a search that lists factorizations and prices each one is
# a second rule beside them, and it answers differently only where its
# price cannot tell two buffers apart. `scheme_cost` stays as the join-order
# search's price of a scheme.
if git grep -n -E "enumerate_factorizations|fn prefer\(|optimize_for_partitions|optimize_partition_scheme|struct PartitionScheme|struct PartitionOptInput" -- 'crates/*'; then
    echo "a partition scheme is searched for again: apply the heuristics in partition_scheme"
    exit 1
fi

echo "== a LIKE is one predicate: the compiler picks its shape against the dictionary =="
# The SQL front end hands every LIKE with a wildcard to the plan verbatim,
# and `lower_pred` decides its shape where the dictionary is: a literal
# prefix followed only by `%`s bisects the sorted values, any other pattern
# is matched once per value. A LIKE's shape is a physical choice made
# against the dictionary; a logical variant per shape is a second
# classifier that every engine must keep in step. A chain too wide for the
# join-order DP keeps its declared order: a greedy pairing beside the DP
# is a second search no statement reaches.
if git grep -n -E "LikePrefix|LikeContains|contains_codes|fn greedy_order" -- 'crates/*'; then
    echo "a LIKE shape or the greedy join order is back: one Like, shaped by the compiler"
    exit 1
fi

echo "== one dealing rule: every place that forms lanes asks budget::Deal =="
# A stage's rows go to its lanes as `rapid_qef::budget::Deal` deals them:
# whole tiles where they fill every core, equal shares over as many cores as
# they feed where they do not. The engine's tasks, the partition rounds, the
# scan's access-path model and the cost model's filter reads all ask it. A
# `min(cores, tiles)` of their own is a second rule that drifts from it.
if git grep -n -E "clamp\(1, tiles|cores\.min\(tiles" -- 'crates/*' ':!crates/qef/src/budget.rs'; then
    echo "a lane count is worked out beside budget::Deal: ask the one dealing rule"
    exit 1
fi

echo "== one stage derivation: the engine runs and the verifier checks rapid_qef::stages =="
# A plan is lowered once to the stages it runs (`rapid_qef::stages::lower`):
# where a task ends, what each stage declares and the tile it fits at. The
# engine runs that list and the verifier checks it; a call of the rules it
# is built from in either is a second derivation that drifts from it.
if git grep -nE "input_task\(|first_stage\(|ranged_tasks\(|join_filter_decl\(|group_consume_decl\(" -- crates/qef/src/engine.rs crates/verify/src; then
    echo "a stage is derived beside the stage list: take it from rapid_qef::stages"
    exit 1
fi

echo "== stored widths come from the values, not the declared type =="
# A column is stored at the narrowest of 1, 2, 4 or 8 signed bytes its
# min/max needs (dictionary codes and dates too), and a vector is built at a
# width (`ColumnData::with_width`) taken from `PlanNode::output_widths`. An
# unsigned code variant, or an arm on a declared Varchar or Date type that
# picks a vector variant, is a second rule beside that one.
if git grep -n "ColumnData::U3[2]" -- ':!*.md'; then
    echo "the unsigned U32 code variant is back: dictionary codes are signed narrowed integers"
    exit 1
fi
if git grep -n -A3 -E "DataType::(Varchar|Date)\b[^,]*=>" -- 'crates/*/src/*' | grep "ColumnData::"; then
    echo "a DataType::{Varchar,Date} arm picks a ColumnData variant: take the width from output_widths"
    exit 1
fi

echo "== the library is what a request runs: every module of the eight request-path crates has a caller =="
# Every module file under the src/ of dpu-sim, storage, qef, qcomp, verify,
# sched, hostdb and server is named by non-test code outside its own file
# and its parent mod.rs, with no exception. Every crate's src/ and src/bin
# and the benchmark's rapid_bench/src count as callers; figures, fuzzers,
# the TPC-H generator, examples and tests keep their own machinery in
# crates/{bench,fuzz,tpch} and do not count (ROADMAP item 10): Figure 4's
# task-formation search, Figure 8's DMS hardware partitioner and the
# verifiers' mutation harnesses live in crates/bench.
bash scripts/module_gate.sh

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q --workspace (root integration suites + every crate's unit and doc tests) =="
cargo test -q --workspace

echo "== cargo clippy (unwrap/expect escalation in request-path crates) =="
# rapid-sched, rapid-server, hostdb, rapid-qef, rapid-qcomp and rapid-storage
# deny clippy::unwrap_used/expect_used in non-test code (crate-level
# attributes); this plain sweep is where the denial actually gets evaluated
# with warnings-as-errors.
cargo clippy -q --release -p rapid-sched -p rapid-server -p hostdb \
    -p rapid-qef -p rapid-qcomp -p rapid-storage -- -D warnings

echo "== differential fuzz smoke (200 queries, fixed seed) + corpus replay =="
FUZZ_QUERIES=200 cargo test -q --release --test differential_fuzz

echo "== concurrent fuzz soak (1000 queries, every schedule replayed) =="
# Batches through the scheduler vs serial, per-query rows
# must match, and every batch's schedule trace is replayed through the
# C-* interference analyzer: the fuzzer calls it itself, in any build.
FUZZ_QUERIES=1000 cargo test -q --release --test concurrent_fuzz

echo "== static plan verification (TPC-H sf 0.01, 0.02, 0.05 and 0.1 + fuzz corpus) + mutation harness =="
# Fan-out caps, partition schemes and task vector sizes are budgeted from the
# widths a table's columns are stored in, and those depend on the data: sf
# 0.01 is what the gate collects at, sf 0.02 what the benchmark loads
# (o_orderkey outgrows its two bytes between 0.02 and 0.05), and at sf 0.05
# and 0.1 rows narrowed by the joins' column lists change partition schemes
# that the smaller scales never see (Q9's orders join: one round). The sweep also
# fails on a partition stage that declares no fan-out: the plan says what
# runs, so a pass whose rounds something after the compiler chose does not
# get through here. `--full` lists one row per task: its operators, its one
# vector size and the working set they hold together. The 12 plan rules check
# the plan and nothing the verifier builds itself; rapid-report's mutation
# tests hold a mutation that trips each of them and of the 6 schedule rules
# (`Rule::ALL`, the harnesses in crates/bench/src/mutate.rs).
cargo run -q --release -p rapid-report -- verify --sf 0.01
cargo run -q --release -p rapid-report -- verify --sf 0.02
# A join with one input stored in key order reads that input by range and
# partitions the other by its key's value bits: `--full` says which side is
# read by range on the `join.ranged` row and marks the other side's round.
FULL=$(cargo run -q --release -p rapid-report -- verify --sf 0.02 --full)
echo "$FULL" | grep -q "join.ranged .* reads probe by range" || { echo "no join reads its probe side by range"; exit 1; }
echo "$FULL" | grep -q "join.partition-build .* by value bits" || { echo "no build side is partitioned by value bits"; exit 1; }
cargo run -q --release -p rapid-report -- verify --sf 0.05
cargo run -q --release -p rapid-report -- verify --sf 0.1
cargo test -q --release -p rapid-verify
cargo test -q --release -p rapid-report --test mutations --test schedcheck

echo "== schedule interference verification + mutation kill matrix =="
# A real scheduled TPC-H batch must pass the C-* analyzer (no false
# positives), and each of the six injected interference bug classes must
# be rejected with its own rule id — replayed here in release, outside
# cfg(test). Two stages on one core at once are one finding, C-CORE-EXCL.
cargo run -q --release -p rapid-report -- schedcheck --sf 0.01 --mutations

echo "== hardware-model examples (dpu_hardware, task_formation) =="
# Outside unit tests and Figure 8, dpu_hardware is the only run of the DMS
# hardware partitioner (`hw_partition`, crates/bench) and task_formation the
# only run of Figure 4's exhaustive search (`optimize_tasks`, crates/bench):
# no query stage drives the partitioner, and no compiler pass weighs
# formations, a task ends where its operators stop fitting DMEM. Compiled by
# the clippy step above, both must also run to the end.
cargo run -q --release -p rapid-report --example dpu_hardware > /dev/null
cargo run -q --release -p rapid-report --example task_formation > /dev/null

echo "== trace and widths smoke (sf 0.01) =="
cargo run -q --release -p rapid-report -- trace --sf 0.01 --query Q6 > /dev/null
# Q5's lineitem join declares a join filter: its `join.filter` stage and the
# filtered round one of its probe side run in release outside the tests.
cargo run -q --release -p rapid-report -- trace --sf 0.01 --query Q5 > /dev/null
# Q18's three broadcast joins declare one each: their probe scans test it in
# a key pass, and the customer probe in its `join.probe`.
cargo run -q --release -p rapid-report -- trace --sf 0.01 --query Q18 > /dev/null
# Stored against needed bytes of every scanned column, scan bytes against
# the floor per statement: the table encoding work starts from.
cargo run -q --release -p rapid-report -- widths --sf 0.01 > /dev/null

echo "== figures_output.txt (the simulated figure sections, regenerated and diffed) =="
# Figures 8-13, the filter micro-benchmark and the three ablations come from
# the simulator and print the same numbers on every run, so the file is what
# this command prints and any difference fails. A change that moves a figure
# regenerates the file with the same command and commits it. Figures 14-16
# and the speedup attribution divide by host wall clocks and are not in it:
# EXPERIMENTS.md keeps their recorded runs.
FIG_TMP=$(mktemp)
trap 'rm -f "$FIG_TMP"' EXIT
cargo run -q --release -p rapid-report -- \
    figures fig8 fig9 filter fig10 fig11 fig12 fig13 ablations --sf 0.05 > "$FIG_TMP"
diff -u figures_output.txt "$FIG_TMP" || { echo "figures_output.txt is not what the figures print"; exit 1; }
rm -f "$FIG_TMP"
trap - EXIT

echo "== regression gate (exact simulated series vs BENCH_baseline.json) =="
# The gate's own tests (injected regressions fail naming the metric,
# bit-identical series, the rapid-report command line) plus the fuzz
# repro-report tests.
cargo test -q --release -p rapid-report -p rapid-fuzz
# Re-collects the exact series (simulated cycles, energy, DMS
# bytes/descriptors, join-order counters — no wall time); fails on a series
# that rose past float noise (1e-9 relative) or vanished, and prints one that
# fell. To take the falls: re-run with --bless --label <entry> and commit the
# new baseline and BENCH_history.json, which the bless appends the entry to;
# a rise is taken only where --accept <series>=<reason> names it.
cargo run -q --release -p rapid-report -- gate BENCH_baseline.json

echo "== rapid_bench suite (five workloads at --quick size, results checked) =="
# The repository benchmark is a package of its own outside the workspace;
# this is the only step that compiles it against the crates' public items.
cargo test -q --release --offline --manifest-path rapid_bench/Cargo.toml

echo "== rapid_bench repeatability (tpch_serial and dml_refresh twice at --quick size: the counted metrics must repeat) =="
# A host-path change that makes the allocation counters depend on anything
# but the input (hash iteration order, say) fails here, before anyone
# measures with them. setup_s and peak_rss_mb are host clocks and may move,
# so the counted metrics are checked by name, not by compare's status.
# dml_refresh is the SQL workload whose DMS bytes the compiler's column
# pruning decides: what its scans move must not depend on the run either,
# and a checkpoint encodes only the chunks a commit touched, so what it
# allocates is the commit's and the statements', the same on every run.
BENCH_TMP=$(mktemp -d)
trap 'rm -rf "$BENCH_TMP"' EXIT
rapid_bench() {
    cargo run -q --release --offline --manifest-path rapid_bench/Cargo.toml --bin rapid_bench -- "$@"
}
repeats() {
    local workload=$1
    shift
    rapid_bench run --quick --seed 7 --workload "$workload" --out "$BENCH_TMP/a.json" > /dev/null
    rapid_bench run --quick --seed 7 --workload "$workload" --out "$BENCH_TMP/b.json" > /dev/null
    CMP=$(rapid_bench compare "$BENCH_TMP/a.json" "$BENCH_TMP/b.json" || true)
    echo "$CMP"
    for m in "$@"; do
        echo "$CMP" | grep -q "^$workload $m .* unchanged\$" || { echo "$workload $m did not repeat"; exit 1; }
    done
}
repeats tpch_serial host_allocs_per_op host_alloc_kb_per_op sim_cycles_per_op sim_dms_bytes_per_op
repeats dml_refresh host_allocs_per_op host_alloc_kb_per_op sim_cycles_per_op sim_dms_bytes_per_op
rm -rf "$BENCH_TMP"
trap - EXIT
# Building the benchmark rewrites its tracked lock file whenever a crate's
# dependency list has changed since it was committed; nothing outside a
# benchmark change may touch that directory, so put the committed one back.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    git restore --source=HEAD --staged --worktree rapid_bench/Cargo.lock
fi

echo "== wire server smoke (ephemeral port, client queries incl. TPC-H Q18 and Q14 as text, clean drain) =="
# Idempotent cleanup, installed BEFORE the server spawn so no failure
# window leaks the background process or the tempfile. Safe to call
# twice: each resource is released exactly once.
SRV_LOG=""
SRV_PID=""
cleanup_wire() {
    if [ -n "${SRV_PID:-}" ]; then
        kill "$SRV_PID" 2>/dev/null || true
        wait "$SRV_PID" 2>/dev/null || true
        SRV_PID=""
    fi
    if [ -n "${SRV_LOG:-}" ]; then
        rm -f "$SRV_LOG"
        SRV_LOG=""
    fi
}
trap cleanup_wire EXIT
SRV_LOG=$(mktemp)
cargo run -q --release -p rapid-server --bin server -- --sf 0.01 --port 0 > "$SRV_LOG" &
SRV_PID=$!
ADDR=""
for _ in $(seq 1 300); do
    ADDR=$(sed -n 's/^listening on //p' "$SRV_LOG")
    [ -n "$ADDR" ] && break
    sleep 0.2
done
[ -n "$ADDR" ] || { echo "server never came up"; exit 1; }
echo "   server on $ADDR"
OUT=$(cargo run -q --release -p rapid-server --bin sql -- --addr "$ADDR" \
    "SELECT l_returnflag, COUNT(*) AS n FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag")
echo "$OUT" | grep -q "^l_returnflag" || { echo "smoke query failed: $OUT"; exit 1; }
# TPC-H text over the wire: Q18 and Q14 as crates/tpch/src/queries.rs has
# them, the two statements whose forms (IN subquery with a HAVING of its
# own, arithmetic over aggregates) only the SQL front end can produce.
Q18="SELECT c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice, SUM(l_quantity) AS sum_qty
     FROM lineitem JOIN orders ON l_orderkey = o_orderkey JOIN customer ON o_custkey = c_custkey
     WHERE o_orderkey IN (SELECT l_orderkey FROM lineitem
                          GROUP BY l_orderkey HAVING SUM(l_quantity) > 300)
     GROUP BY c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice
     ORDER BY o_totalprice DESC, o_orderdate
     LIMIT 100;"
Q14="SELECT 100 * SUM(CASE WHEN p_type LIKE 'PROMO%'
                           THEN l_extendedprice * (1 - l_discount) ELSE 0 END)
                / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue
     FROM lineitem JOIN part ON l_partkey = p_partkey
     WHERE l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'"
OUT=$(cargo run -q --release -p rapid-server --bin sql -- --addr "$ADDR" "$Q18")
echo "$OUT" | grep -q "^c_name.*sum_qty\$" || { echo "Q18 over the wire failed: $OUT"; exit 1; }
OUT=$(cargo run -q --release -p rapid-server --bin sql -- --addr "$ADDR" "$Q14")
echo "$OUT" | grep -q "^promo_revenue\$" || { echo "Q14 over the wire failed: $OUT"; exit 1; }
cargo run -q --release -p rapid-server --bin sql -- --addr "$ADDR" --shutdown > /dev/null
wait "$SRV_PID"   # non-zero exit (incl. the leaked-thread assert) fails CI here
SRV_PID=""        # drained; cleanup must not kill a reused pid
grep -q "threads spawned" "$SRV_LOG" || { echo "server drain report missing"; exit 1; }
DRAIN=$(sed -n 's/.*threads spawned \([0-9]*\) \/ joined \([0-9]*\).*/\1 \2/p' "$SRV_LOG")
[ -n "$DRAIN" ] && [ "${DRAIN% *}" = "${DRAIN#* }" ] || { echo "leaked threads: $DRAIN"; exit 1; }
cleanup_wire
trap - EXIT

echo "CI green."
