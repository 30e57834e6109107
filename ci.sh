#!/usr/bin/env bash
# The one-command CI recipe (ROADMAP.md): every gate a nightly pipeline
# would run, in dependency order. Run from the repo root.
#
#   ./ci.sh
#
# Stages:
#   1. tier2.sh  — rustfmt-clean, clippy-clean and rustdoc-clean (warnings
#                  are errors)
#   2. tests     — the whole workspace, vendored stubs included
#   3. bench     — criterion smoke benches: the framework bench plus the
#                  kernel roofline suite (STREAM GB/s, CSR-vs-SELL SpMV)
#                  whose machine-readable logs feed the stage-11 digest
#   4. faults    — fault-injection smoke: the same seeded faulty survey
#                  run twice must produce byte-identical reports; the
#                  full 112-cell grid under flaky faults with retries
#                  must report the same bytes at --jobs 1, 2 and 4, so
#                  the study's shared host solves (one per distinct
#                  problem, started longest first) cannot depend on
#                  interleaving or retries; and the default-profile full
#                  grid with --warm-store must report the same bytes
#                  (build attribution included) at --jobs 1, 2 and 4,
#                  and at --jobs 2 under BENCHKIT_THREADS=1 and =3
#   5. resume    — crash-recovery smoke: a checkpointed survey killed
#                  mid-run (--interrupt-after, exit 3) and resumed must
#                  reproduce the uninterrupted output byte for byte
#   6. nightly   — persistent-store smoke: a cold survey populates
#                  --store, a warm rerun reuses it with identical FOM
#                  tables, a corrupted entry is quarantined (not fatal),
#                  both gc subcommands run without deleting quarantine
#                  memory, and `store gc --keep 1` after two surveys keeps
#                  the newer one (its rerun misses nothing), `store fsck`
#                  and `store gc` refuse a v1 layout without touching it,
#                  and `list-benchmarks | head -1` exits 0 with an empty
#                  stderr
#   7. rank      — cross-system comparison smoke: two surveys export
#                  perflogs (--perflog), `rank` must score a best system,
#                  `rank`/`cmp` must reject --jobs (exit 2), a
#                  self-comparison must classify every cell unchanged,
#                  and a synthetic
#                  rank flip must fail `bench-digest --rank` (exit 1)
#                  while a stable pair passes
#   8. engine    — adversarial-engine smoke: a survey run through the
#                  external KLV engine stub is byte-identical at --jobs
#                  1/2/8; crashing, hanging (SIGTERM-ignoring), garbage,
#                  truncated, and done-less variants are contained as
#                  retried faults with pinned exit codes and no leftover
#                  processes; consecutive crashes trip the quarantine
#                  breaker; a killed engine survey resumes byte-identically
#                  with the same engine and refuses to resume in-process
#   9. torture   — multi-writer store smoke: two concurrent surveys race
#                  one --store directory, a run under an injected
#                  torn-write + ENOSPC schedule (BENCHKIT_IOFAULTS), a
#                  writer killed mid-run and rerun, and --jobs 1/2/8 all
#                  produce identical FOM views; `store fsck` then passes
#                  and `store gc` leaves every referenced entry in place
#  10. serve     — results-daemon smoke: `benchkit serve` ingests two
#                  concurrent pushes, its /v1/verdict is byte-identical
#                  to the offline `rank` over the same perflogs (text,
#                  and lower-is-better Markdown before the SIGKILL and
#                  again after the restart), a
#                  SIGKILLed daemon restarted over the same directory
#                  replays every acknowledged record from its WAL, a
#                  saturated daemon (1 worker, no queue) answers 503 +
#                  Retry-After and the push client retries to success,
#                  a push of two-record perflogs costs at most one WAL
#                  commit per ingest POST (group commit),
#                  SIGTERM drains gracefully (exit 0, lease released),
#                  and `store fsck --json` stays clean throughout
#  11. digest    — the criterion bench logs join a history digest
#                  (postproc::criterion_history) with --min-speedup
#                  floors pinning the roofline relations (triad bandwidth
#                  within 1.5x of copy, SELL-C-sigma SpMV at least 1.05x
#                  CSR, the matrix-free stencil at least 1.3x the CSR
#                  SpMV, CG's zero-start SymGS at least 1.1x the general
#                  sweep at 16^3). It runs last: a floor missed on a
#                  loaded host still fails ci.sh, but only after every
#                  byte-identity smoke above has run
set -euo pipefail
cd "$(dirname "$0")"

./tier2.sh

echo "== ci: cargo test --workspace =="
cargo test -q --workspace

echo "== ci: cargo bench smoke (framework + kernels) =="
# Keep the machine-readable criterion lines: stage 11 digests them
# against history (postproc::criterion_history closes the loop) and
# asserts the kernel speedup floors.
bench_log="$(mktemp)"
kern_log="$(mktemp)"
cargo bench -p bench --bench framework | tee "$bench_log"
cargo bench -p bench --bench kernels | tee "$kern_log"

echo "== ci: fault-injection smoke (deterministic replay) =="
cargo build -q --release -p benchkit
faulty_survey() {
    # The survey exits nonzero when a cell ultimately fails; for this
    # smoke only determinism matters, so capture output and exit status.
    ./target/release/benchkit survey -c babelstream_omp -c hpgmg \
        --system csd3 --system archer2 \
        --fault-profile flaky --seed 7 --max-retries 2 --jobs 4 \
        && status=0 || status=$?
    echo "exit:$status"
}
first="$(faulty_survey)"
second="$(faulty_survey)"
if [ "$first" != "$second" ]; then
    echo "fault-injection smoke FAILED: two identical invocations diverged" >&2
    diff <(printf '%s\n' "$first") <(printf '%s\n' "$second") >&2 || true
    exit 1
fi
echo "fault smoke OK (replay byte-identical, $(printf '%s\n' "$first" | tail -1))"

echo "== ci: full-grid solve-sharing smoke (--jobs 1 vs 2 and 4 under faults) =="
grid_args=()
for case in $(./target/release/benchkit list-benchmarks | tail -n +2); do
    grid_args+=(-c "$case")
done
for partition in archer2:rome cosma8:rome csd3:cascadelake isambard:xci \
    isambard-macs:cascadelake isambard-macs:volta noctua2:milan; do
    grid_args+=(--system "$partition")
done
full_grid_survey() {
    ./target/release/benchkit survey "${grid_args[@]}" \
        --fault-profile flaky --max-retries 2 --seed 7 --jobs "$1" 2>/dev/null \
        && status=0 || status=$?
    echo "exit:$status"
}
grid_serial="$(full_grid_survey 1)"
# --jobs 2 is the study hostbench's survey_sweep times.
for j in 2 4; do
    grid_parallel="$(full_grid_survey "$j")"
    if [ "$grid_serial" != "$grid_parallel" ]; then
        echo "full-grid smoke FAILED: --jobs $j diverged from --jobs 1" >&2
        diff <(printf '%s\n' "$grid_serial") <(printf '%s\n' "$grid_parallel") >&2 || true
        exit 1
    fi
done
grid_cells="$(printf '%s\n' "$grid_serial" | grep -c '^\[[0-9]*/112\]')"
if [ "$grid_cells" -ne 112 ]; then
    echo "full-grid smoke FAILED: $grid_cells of 112 cells reported" >&2
    exit 1
fi
echo "full-grid smoke OK (112 cells byte-identical at --jobs 1, 2 and 4, $(printf '%s\n' "$grid_serial" | tail -1))"

echo "== ci: full-grid warm-store smoke (--jobs 1 vs 2 and 4) =="
# Warm-store build attribution (which cell builds a shared dependency,
# which reuses it) comes from the canonical serial prepass, so it must
# not move with --jobs either.
warm_grid_survey() {
    ./target/release/benchkit survey "${grid_args[@]}" \
        --warm-store --seed 7 --jobs "$1" 2>/dev/null \
        && status=0 || status=$?
    echo "exit:$status"
}
warm_serial="$(warm_grid_survey 1)"
for j in 2 4; do
    warm_parallel="$(warm_grid_survey "$j")"
    if [ "$warm_serial" != "$warm_parallel" ]; then
        echo "warm-store smoke FAILED: --jobs $j diverged from --jobs 1" >&2
        diff <(printf '%s\n' "$warm_serial") <(printf '%s\n' "$warm_parallel") >&2 || true
        exit 1
    fi
done
# Simulated host solves run on the serial reference, so a cell's kernel
# thread count must not reach a report byte either. Stderr is left out:
# the --jobs clamp note differs with the count.
for t in 1 3; do
    warm_threads="$(BENCHKIT_THREADS=$t warm_grid_survey 2)"
    if [ "$warm_serial" != "$warm_threads" ]; then
        echo "warm-store smoke FAILED: --jobs 2 with BENCHKIT_THREADS=$t diverged from --jobs 1" >&2
        diff <(printf '%s\n' "$warm_serial") <(printf '%s\n' "$warm_threads") >&2 || true
        exit 1
    fi
done
echo "warm-store smoke OK (full grid byte-identical at --jobs 1, 2 and 4, and at --jobs 2 under BENCHKIT_THREADS=1 and 3, $(printf '%s\n' "$warm_serial" | grep '^warm store:'))"

echo "== ci: kill-and-resume smoke (checkpointed survey) =="
ckpt_dir="$(mktemp -d)"
ckpt_j1="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$ckpt_j1" "$bench_log" "$kern_log"' EXIT
resumable_survey() {
    # $1: jobs; $2: extra flags (checkpoint/resume/interrupt); output ends
    # in exit:N.
    # shellcheck disable=SC2086
    ./target/release/benchkit survey -c babelstream_omp -c hpgmg \
        --system csd3 --system archer2 \
        --fault-profile flaky --seed 7 --max-retries 2 --jobs "$1" \
        $2 && status=0 || status=$?
    echo "exit:$status"
}
uninterrupted="$(resumable_survey 4 "")"
interrupted="$(resumable_survey 4 "--checkpoint $ckpt_dir --interrupt-after 2")"
if [ "$(printf '%s\n' "$interrupted" | tail -1)" != "exit:3" ]; then
    echo "resume smoke FAILED: --interrupt-after did not exit 3" >&2
    printf '%s\n' "$interrupted" >&2
    exit 1
fi
# The header never binds --jobs: the same interrupted journal must also
# resume byte-identically at a different parallelism.
cp "$ckpt_dir"/* "$ckpt_j1"/
resumed="$(resumable_survey 4 "--resume $ckpt_dir")"
if [ "$resumed" != "$uninterrupted" ]; then
    echo "resume smoke FAILED: resumed survey diverged from uninterrupted run" >&2
    diff <(printf '%s\n' "$uninterrupted") <(printf '%s\n' "$resumed") >&2 || true
    exit 1
fi
resumed_j1="$(resumable_survey 1 "--resume $ckpt_j1")"
if [ "$resumed_j1" != "$uninterrupted" ]; then
    echo "resume smoke FAILED: --jobs 1 resume of a --jobs 4 checkpoint diverged" >&2
    diff <(printf '%s\n' "$uninterrupted") <(printf '%s\n' "$resumed_j1") >&2 || true
    exit 1
fi
echo "resume smoke OK (killed after 2 cells, resumed byte-identical at --jobs 4 and 1)"

echo "== ci: nightly-rerun smoke (persistent store) =="
nightly_dir="$(mktemp -d)"
trap 'rm -rf "$ckpt_dir" "$ckpt_j1" "$bench_log" "$kern_log" "$nightly_dir"' EXIT
store_dir="$nightly_dir/store"
nightly_survey() {
    ./target/release/benchkit survey -c babelstream_omp -c babelstream_tbb \
        --system csd3 --system archer2 \
        --seed 7 --jobs 4 --store "$store_dir" \
        --checkpoint "$nightly_dir/ck-$1"
}
# Keep the FOM tables, drop the build accounting that legitimately
# changes between cold and warm runs (streamed cell lines, store line).
fom_view() { grep -v -e '^store: ' -e '^\[' ; }
cold="$(nightly_survey cold)"
warm="$(nightly_survey warm)"
case "$warm" in
*"store: 0 hits"*)
    echo "nightly smoke FAILED: warm rerun reused nothing" >&2
    printf '%s\n' "$warm" >&2
    exit 1
    ;;
esac
if [ "$(printf '%s\n' "$cold" | fom_view)" != "$(printf '%s\n' "$warm" | fom_view)" ]; then
    echo "nightly smoke FAILED: warm FOM tables diverged from cold" >&2
    diff <(printf '%s\n' "$cold" | fom_view) <(printf '%s\n' "$warm" | fom_view) >&2 || true
    exit 1
fi
# Corrupt one store entry: the rerun must quarantine it and rebuild
# cold with identical FOMs — never fail the study. (Entries live under
# per-shard directories since the store went multi-writer.)
victim="$(ls "$store_dir"/shard-*/*.json | head -1)"
printf 'garbage' | dd of="$victim" bs=1 seek=5 count=7 conv=notrunc status=none
corrupted="$(nightly_survey corrupted)"
case "$corrupted" in
*"store: "*" 1 quarantined"*) ;;
*)
    echo "nightly smoke FAILED: corrupted entry was not quarantined" >&2
    printf '%s\n' "$corrupted" >&2
    exit 1
    ;;
esac
if [ "$(printf '%s\n' "$cold" | fom_view)" != "$(printf '%s\n' "$corrupted" | fom_view)" ]; then
    echo "nightly smoke FAILED: corrupted-then-rebuilt FOM tables diverged" >&2
    exit 1
fi
[ -n "$(ls "$store_dir/corrupt" 2>/dev/null)" ] || {
    echo "nightly smoke FAILED: no quarantined file in corrupt/" >&2
    exit 1
}
# Both garbage collectors run; neither may delete quarantine memory.
./target/release/benchkit store gc "$store_dir" --keep 5
./target/release/benchkit checkpoint gc "$nightly_dir/ck-cold"
./target/release/benchkit checkpoint gc "$nightly_dir/ck-warm"
[ -n "$(ls "$store_dir/corrupt" 2>/dev/null)" ] || {
    echo "nightly smoke FAILED: store gc deleted quarantined entries" >&2
    exit 1
}
[ -f "$nightly_dir/ck-cold/quarantine.json" ] || {
    echo "nightly smoke FAILED: checkpoint gc deleted quarantine memory" >&2
    exit 1
}
# `store gc --keep 1` must keep the most recent study. Every survey
# writes as its own writer (`w<pid>-<seq>`), so recency has to come from
# the records' append times, never from writer ids (`w10-0` < `w9-0`).
recency_survey() {
    ./target/release/benchkit survey -c "$1" --system archer2 \
        --seed 7 --jobs 2 --store "$nightly_dir/recency"
}
recency_survey hpgmg >/dev/null
recency_survey babelstream_omp >/dev/null
./target/release/benchkit store gc "$nightly_dir/recency" --keep 1
rerun="$(recency_survey babelstream_omp)"
case "$rerun" in
*"store: "*" 0 misses,"*) ;;
*)
    echo "nightly smoke FAILED: store gc --keep 1 evicted the newest study" >&2
    printf '%s\n' "$rerun" >&2
    exit 1
    ;;
esac
# The v1 single-lock layout (entries/ + refs.jsonl, no store.meta) is
# refused, not migrated: fsck and gc exit 1 and leave it byte-identical.
v1_dir="$nightly_dir/v1"
mkdir -p "$v1_dir/entries"
printf '{}\n' > "$v1_dir/entries/aaa.json"
printf '{"refs":["aaa"],"study":1}\n' > "$v1_dir/refs.jsonl"
printf '{"pid":999999999,"acquired_unix":1}' > "$v1_dir/.lock"
v1_sums() { find "$v1_dir" -type f | sort | xargs sha256sum; }
v1_before="$(v1_sums)"
for v1_cmd in "fsck" "gc --keep 1"; do
    v1_code=0
    # shellcheck disable=SC2086 # the subcommand and its flags split on purpose
    ./target/release/benchkit store $v1_cmd "$v1_dir" >/dev/null 2>&1 || v1_code=$?
    if [ "$v1_code" -ne 1 ] || [ "$(v1_sums)" != "$v1_before" ]; then
        echo "nightly smoke FAILED: store $v1_cmd on a v1 layout exited $v1_code or changed it" >&2
        exit 1
    fi
done
# A closed stdout ends the output: exit 0 and nothing on stderr.
head_err="$( (./target/release/benchkit list-benchmarks | head -1 >/dev/null) 2>&1)" || {
    echo "nightly smoke FAILED: list-benchmarks | head -1 failed: $head_err" >&2
    exit 1
}
[ -z "$head_err" ] || {
    echo "nightly smoke FAILED: list-benchmarks | head -1 wrote to stderr: $head_err" >&2
    exit 1
}
echo "nightly smoke OK (cold, warm reuse, corruption quarantined, gc ran, gc kept the newest study, v1 layout refused untouched, closed stdout exits 0)"

echo "== ci: cross-system rank/cmp smoke =="
# Two small surveys export perflogs; rank must score a best system, rank
# and cmp run serially (--jobs is a usage error), and a self-comparison
# must be all-unchanged.
study_a="$nightly_dir/study-a"
study_b="$nightly_dir/study-b"
./target/release/benchkit survey -c babelstream_omp \
    --system csd3 --system archer2 --seed 7 --perflog "$study_a" >/dev/null
./target/release/benchkit survey -c babelstream_omp \
    --system csd3 --system archer2 --seed 8 --perflog "$study_b" >/dev/null
rank1="$(./target/release/benchkit rank "$study_a")"
case "$rank1" in
*"1.0000"*) ;;
*)
    echo "rank smoke FAILED: no best-system score in output" >&2
    printf '%s\n' "$rank1" >&2
    exit 1
    ;;
esac
./target/release/benchkit cmp "$study_a" "$study_b" >/dev/null
expect_usage_error() {
    # $@: a benchkit command line that must exit 2 (a usage error).
    ./target/release/benchkit "$@" >/dev/null 2>&1 && status=0 || status=$?
    if [ "$status" -ne 2 ]; then
        echo "rank smoke FAILED: \`benchkit $*\` exited $status, want 2" >&2
        exit 1
    fi
}
expect_usage_error rank "$study_a" --jobs 2
expect_usage_error cmp "$study_a" "$study_b" --jobs 2
selfcmp="$(./target/release/benchkit cmp "$study_a" "$study_a")"
case "$selfcmp" in
*" 0 improved, 0 regressed,"*) ;;
*)
    echo "cmp smoke FAILED: self-comparison found changes" >&2
    printf '%s\n' "$selfcmp" >&2
    exit 1
    ;;
esac
# A rank flip between the two newest logs must fail the digest loudly;
# a stable pair must pass. (Synthetic criterion logs: sell beats csr in
# old.json and stable.json, csr beats sell in flipped.json.)
rank_log() {
    printf '{"criterion": 1, "group": "spmv", "id": "sell", "min_ns": %s, "median_ns": %s, "elements": 100}\n' "$1" "$1"
    printf '{"criterion": 1, "group": "spmv", "id": "csr", "min_ns": 10, "median_ns": 10, "elements": 100}\n'
}
rank_log 5 > "$nightly_dir/rank-old.json"
rank_log 6 > "$nightly_dir/rank-stable.json"
rank_log 50 > "$nightly_dir/rank-flipped.json"
./target/release/benchkit bench-digest \
    "$nightly_dir/rank-old.json" "$nightly_dir/rank-stable.json" --rank spmv
if ./target/release/benchkit bench-digest \
    "$nightly_dir/rank-old.json" "$nightly_dir/rank-flipped.json" --rank spmv; then
    echo "rank smoke FAILED: bench-digest --rank accepted a rank flip" >&2
    exit 1
fi
echo "rank/cmp smoke OK (best system scored, --jobs rejected, self-cmp unchanged, flip gated)"

echo "== ci: adversarial-engine smoke (BYOB containment) =="
# A survey driven by an external engine subprocess must be byte-identical
# at any worker count, and a crashing / hanging / garbage-emitting /
# truncating engine must be contained per attempt — retries fire, the
# survey exits 1 (never aborts), and no engine process is left behind.
cargo build -q --release -p engine
stub="./target/release/benchkit-engine-stub"
[ -x "$stub" ] || { echo "engine smoke FAILED: stub not built" >&2; exit 1; }
# Retry instantly; the nominal backoff schedule is still charged to the
# report's time-lost accounting, so output stays deterministic.
export BENCHKIT_ENGINE_BACKOFF_SCALE=0
engine_survey() {
    # $1: jobs; $2: engine spec; remaining: extra flags. Ends in exit:N.
    jobs="$1"; spec="$2"; shift 2
    ./target/release/benchkit survey -c babelstream_omp -c hpgmg \
        --system csd3 --system archer2 \
        --seed 7 --jobs "$jobs" --engine "$spec" "$@" && status=0 || status=$?
    echo "exit:$status"
}
engine_ok="$(engine_survey 1 "$stub")"
if [ "$(printf '%s\n' "$engine_ok" | tail -1)" != "exit:0" ]; then
    echo "engine smoke FAILED: well-formed engine survey did not exit 0" >&2
    printf '%s\n' "$engine_ok" >&2
    exit 1
fi
case "$engine_ok" in
*"engine: "*) ;;
*)
    echo "engine smoke FAILED: report does not echo the engine config" >&2
    printf '%s\n' "$engine_ok" >&2
    exit 1
    ;;
esac
for j in 2 8; do
    if [ "$(engine_survey "$j" "$stub")" != "$engine_ok" ]; then
        echo "engine smoke FAILED: --jobs $j diverged from --jobs 1" >&2
        exit 1
    fi
done
adversarial() {
    # $1: engine spec. One cell, one retry: this checks containment, not
    # coverage, so keep it small and fast. The --stderr-noise variant puts
    # a NUL byte in the FAIL line; strip it so $(...) capture stays clean.
    ./target/release/benchkit survey -c babelstream_omp --system csd3 \
        --seed 7 --max-retries 1 --engine "$1" 2>&1 | tr -d '\000' \
        && status=0 || status=$?
    echo "exit:$status"
}
hang_spec="{cmd: [\"$stub\", \"--hang\", \"--ignore-term\"], timeout: 0.3, grace: 0.2}"
for variant in "$stub --crash 42" "$stub --garbage" "$stub --partial" \
    "$stub --no-done" "$stub --crash 42 --stderr-noise" "$hang_spec"; do
    out="$(adversarial "$variant")"
    if [ "$(printf '%s\n' "$out" | tail -1)" != "exit:1" ]; then
        echo "engine smoke FAILED: variant [$variant] did not exit 1" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    case "$out" in
    *"FAIL: failed after 2 attempts (2 faults injected"*"engine"*) ;;
    *)
        echo "engine smoke FAILED: variant [$variant] not contained as retried faults" >&2
        printf '%s\n' "$out" >&2
        exit 1
        ;;
    esac
done
# Kill escalation must reap everything: no stub may outlive its survey.
if pgrep -f benchkit-engine-stub >/dev/null 2>&1; then
    echo "engine smoke FAILED: leftover engine processes" >&2
    pgrep -af benchkit-engine-stub >&2 || true
    exit 1
fi
# Consecutive engine failures trip the quarantine breaker like any fault.
quarantined="$(./target/release/benchkit survey \
    -c babelstream_omp -c babelstream_tbb -c hpgmg --system csd3 \
    --seed 7 --max-retries 0 --quarantine 2 \
    --engine "$stub --crash 13" 2>&1)" && {
    echo "engine smoke FAILED: all-crash survey exited 0" >&2
    exit 1
}
case "$quarantined" in
*"quarantined"*) ;;
*)
    echo "engine smoke FAILED: quarantine did not fire on engine crashes" >&2
    printf '%s\n' "$quarantined" >&2
    exit 1
    ;;
esac
# Checkpoints bind the engine mode: a killed engine survey resumes
# byte-identically with the same engine, and refuses to resume without it.
eng_ck="$nightly_dir/ck-engine"
engine_interrupted="$(engine_survey 4 "$stub" --checkpoint "$eng_ck" --interrupt-after 2)"
if [ "$(printf '%s\n' "$engine_interrupted" | tail -1)" != "exit:3" ]; then
    echo "engine smoke FAILED: --interrupt-after did not exit 3" >&2
    printf '%s\n' "$engine_interrupted" >&2
    exit 1
fi
engine_uninterrupted="$(engine_survey 4 "$stub")"
engine_resumed="$(engine_survey 4 "$stub" --resume "$eng_ck")"
if [ "$engine_resumed" != "$engine_uninterrupted" ]; then
    echo "engine smoke FAILED: resumed engine survey diverged" >&2
    diff <(printf '%s\n' "$engine_uninterrupted") <(printf '%s\n' "$engine_resumed") >&2 || true
    exit 1
fi
crossmode="$(./target/release/benchkit survey -c babelstream_omp -c hpgmg \
    --system csd3 --system archer2 --seed 7 --jobs 4 \
    --resume "$eng_ck" 2>&1)" && {
    echo "engine smoke FAILED: in-process resume of an engine journal exited 0" >&2
    exit 1
}
case "$crossmode" in
*"refusing to resume a different experiment"*) ;;
*)
    echo "engine smoke FAILED: cross-mode resume not refused as a config mismatch" >&2
    printf '%s\n' "$crossmode" >&2
    exit 1
    ;;
esac
echo "engine smoke OK (jobs-invariant, 6 adversarial variants contained, no leftovers, quarantine + cross-mode resume gated)"

echo "== ci: multi-writer store torture smoke =="
# One --store directory shared by many writers: concurrent surveys,
# injected I/O faults, and a SIGKILL'd writer must never lose a committed
# entry, corrupt the store, or change a byte of the FOM view.
mw_dir="$nightly_dir/mw-store"
mw_survey() {
    # $1: jobs; $2: checkpoint tag; remaining: extra flags. Ends in exit:N.
    # MW_STORE overrides the store directory (fault drills get their own).
    jobs="$1"; tag="$2"; shift 2
    ./target/release/benchkit survey -c babelstream_omp -c babelstream_tbb \
        --system csd3 --system archer2 \
        --seed 7 --jobs "$jobs" --store "${MW_STORE:-$mw_dir}" \
        --checkpoint "$nightly_dir/ck-mw-$tag" "$@" && status=0 || status=$?
    echo "exit:$status"
}
baseline="$(mw_survey 4 base)"
if [ "$(printf '%s\n' "$baseline" | tail -1)" != "exit:0" ]; then
    echo "torture smoke FAILED: baseline survey did not exit 0" >&2
    printf '%s\n' "$baseline" >&2
    exit 1
fi
# Two live writers race the same store. Shard leases arbitrate: each may
# skip contended persists, but both reports must match the baseline.
mw_survey 4 racer-a > "$nightly_dir/mw-a.out" &
pid_a=$!
mw_survey 4 racer-b > "$nightly_dir/mw-b.out" &
pid_b=$!
wait "$pid_a" "$pid_b"
for side in a b; do
    out="$(cat "$nightly_dir/mw-$side.out")"
    if [ "$(printf '%s\n' "$out" | tail -1)" != "exit:0" ]; then
        echo "torture smoke FAILED: concurrent writer $side did not exit 0" >&2
        printf '%s\n' "$out" >&2
        exit 1
    fi
    if [ "$(printf '%s\n' "$out" | fom_view)" != "$(printf '%s\n' "$baseline" | fom_view)" ]; then
        echo "torture smoke FAILED: concurrent writer $side FOM view diverged" >&2
        diff <(printf '%s\n' "$baseline" | fom_view) <(printf '%s\n' "$out" | fom_view) >&2 || true
        exit 1
    fi
done
# Deterministic injected faults (torn writes, ENOSPC, failed fsyncs)
# scoped to shard and reference-log I/O, against a fresh store so entry
# persists run under fire: the study must survive with an identical FOM
# view — only persists may degrade — and every entry that did commit
# must verify under fsck afterwards.
faulted="$(MW_STORE="$nightly_dir/mw-faulted" \
    BENCHKIT_IOFAULTS="seed=11,torn=0.3,enospc=0.2,fsync=0.1,match=shard-|refs/" \
    mw_survey 4 faulted)"
if [ "$(printf '%s\n' "$faulted" | tail -1)" != "exit:0" ]; then
    echo "torture smoke FAILED: faulted survey did not exit 0" >&2
    printf '%s\n' "$faulted" >&2
    exit 1
fi
if [ "$(printf '%s\n' "$faulted" | fom_view)" != "$(printf '%s\n' "$baseline" | fom_view)" ]; then
    echo "torture smoke FAILED: faulted FOM view diverged" >&2
    diff <(printf '%s\n' "$baseline" | fom_view) <(printf '%s\n' "$faulted" | fom_view) >&2 || true
    exit 1
fi
# Kill a writer mid-run (exit 3, no cleanup), then rerun: stale leases
# are taken over, nothing committed is lost, the FOM view is unchanged.
killed="$(mw_survey 4 killed --interrupt-after 2)"
if [ "$(printf '%s\n' "$killed" | tail -1)" != "exit:3" ]; then
    echo "torture smoke FAILED: --interrupt-after did not exit 3" >&2
    printf '%s\n' "$killed" >&2
    exit 1
fi
rerun="$(mw_survey 4 rerun)"
if [ "$(printf '%s\n' "$rerun" | fom_view)" != "$(printf '%s\n' "$baseline" | fom_view)" ]; then
    echo "torture smoke FAILED: post-kill rerun FOM view diverged" >&2
    exit 1
fi
# The contended-and-tortured store serves any worker count identically.
for j in 1 2 8; do
    out="$(mw_survey "$j" "jobs-$j")"
    if [ "$(printf '%s\n' "$out" | fom_view)" != "$(printf '%s\n' "$baseline" | fom_view)" ]; then
        echo "torture smoke FAILED: --jobs $j FOM view diverged" >&2
        exit 1
    fi
done
# After all that: every committed entry still verifies — in the shared
# store and in the fault-torn one — and gc (merging every writer's
# reference log) evicts nothing the surveys referenced.
./target/release/benchkit store fsck "$mw_dir"
./target/release/benchkit store fsck "$nightly_dir/mw-faulted"
gc_out="$(./target/release/benchkit store gc "$mw_dir" --keep 10)"
case "$gc_out" in
*"evicted 0"*) ;;
*)
    echo "torture smoke FAILED: store gc evicted referenced entries" >&2
    printf '%s\n' "$gc_out" >&2
    exit 1
    ;;
esac
warmcheck="$(mw_survey 4 warmcheck)"
case "$warmcheck" in
*"store: 0 hits"*)
    echo "torture smoke FAILED: store lost its entries after gc" >&2
    printf '%s\n' "$warmcheck" >&2
    exit 1
    ;;
esac
echo "torture smoke OK (2 concurrent writers, injected faults, kill+rerun, jobs-invariant, fsck clean, gc kept refs)"

echo "== ci: serve smoke (daemon ingest, byte-identical verdict, 503 backpressure, SIGKILL recovery, drain) =="
serve_dir="$nightly_dir/served-store"
serve_log="$nightly_dir/serve-a.out"
serve_pid=""
trap 'kill -9 $serve_pid 2>/dev/null || true; rm -rf "$ckpt_dir" "$ckpt_j1" "$bench_log" "$kern_log" "$nightly_dir"' EXIT

# Start a daemon and wait for its readiness line ("serving DIR on ADDR").
# Sets serve_pid and addr — must run in this shell, not a substitution,
# or the pid would die with the subshell.
start_daemon() {
    local log="$1"
    shift
    ./target/release/benchkit serve "$serve_dir" --addr 127.0.0.1:0 "$@" \
        >"$log" 2>&1 &
    serve_pid=$!
    addr=""
    local i
    for i in $(seq 1 100); do
        addr="$(sed -n 's/^serving .* on \([0-9.:]*\) .*$/\1/p' "$log" | head -1)"
        if [ -n "$addr" ]; then
            break
        fi
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "serve smoke FAILED: daemon never printed readiness" >&2
        cat "$log" >&2
        exit 1
    fi
}

# The lower-is-better Markdown verdict against the offline rank with the
# same flags over the same studies. Checked before the SIGKILL and again
# after the restart, so the rank aggregate rebuilt from the WAL is diffed
# too.
check_md_verdict() {
    local when="$1"
    ./target/release/benchkit query "$addr" "/v1/verdict?lower_is_better=1&markdown=1" \
        >"$nightly_dir/verdict-md-served-$when.txt"
    ./target/release/benchkit rank "$study_a" "$study_b" --lower-is-better --markdown \
        >"$nightly_dir/verdict-md-offline.txt"
    if ! diff "$nightly_dir/verdict-md-served-$when.txt" "$nightly_dir/verdict-md-offline.txt"; then
        echo "serve smoke FAILED: served lower-is-better Markdown verdict diverged from offline rank ($when)" >&2
        exit 1
    fi
}

start_daemon "$serve_log"
# Two concurrent pushes (stage 7's perflog studies) race the worker pool.
./target/release/benchkit push "$study_a" --to "$addr" >/dev/null &
push_a=$!
./target/release/benchkit push "$study_b" --to "$addr" >/dev/null &
push_b=$!
wait "$push_a"
wait "$push_b"
# The daemon's verdict is byte-identical to the offline rank over the
# same perflogs (ranking is row-permutation-invariant, so concurrent
# ingest order cannot matter).
./target/release/benchkit query "$addr" /v1/verdict >"$nightly_dir/verdict-served.txt"
./target/release/benchkit rank "$study_a" "$study_b" >"$nightly_dir/verdict-offline.txt"
if ! diff "$nightly_dir/verdict-served.txt" "$nightly_dir/verdict-offline.txt"; then
    echo "serve smoke FAILED: served verdict diverged from offline rank" >&2
    exit 1
fi
check_md_verdict before-kill
# History answers for a (benchmark, system, FOM) triple taken from the
# pushed perflogs themselves.
hist_bench="$(sed -n 's/.*"benchmark":"\([^"]*\)".*/\1/p' "$study_a"/*.jsonl | head -1)"
hist_sys="$(sed -n 's/.*"system":"\([^"]*\)".*/\1/p' "$study_a"/*.jsonl | head -1)"
hist_fom="$(sed -n 's/.*"foms":\[{"name":"\([^"]*\)".*/\1/p' "$study_a"/*.jsonl | head -1)"
hist="$(./target/release/benchkit query "$addr" \
    "/v1/history?benchmark=$hist_bench&system=$hist_sys&fom=$hist_fom")"
case "$hist" in
"history benchmark=$hist_bench"*points=*) ;;
*)
    echo "serve smoke FAILED: bad history answer" >&2
    printf '%s\n' "$hist" >&2
    exit 1
    ;;
esac
total_records="$(./target/release/benchkit query "$addr" /v1/fom | wc -l)"
if [ "$total_records" -lt 2 ]; then
    echo "serve smoke FAILED: expected ingested records, got $total_records" >&2
    exit 1
fi
# SIGKILL — no drain, no flush. The restart over the same directory must
# replay every acknowledged record from the WAL.
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_log2="$nightly_dir/serve-b.out"
start_daemon "$serve_log2" --workers 1 --queue 0 --read-timeout-ms 1500
if ! grep -q "^serve: recovered $total_records acknowledged records" "$serve_log2"; then
    echo "serve smoke FAILED: restart did not replay the WAL" >&2
    cat "$serve_log2" >&2
    exit 1
fi
recovered_records="$(./target/release/benchkit query "$addr" /v1/fom | wc -l)"
if [ "$recovered_records" != "$total_records" ]; then
    echo "serve smoke FAILED: $recovered_records records after SIGKILL, want $total_records" >&2
    exit 1
fi
check_md_verdict after-restart
# Saturate the single rendezvous worker with a connection that sends
# nothing; the push client must see 503 + Retry-After and retry through
# to success once the stalled connection times out. Re-pushing study-a
# is pure dedup, so the record set is unchanged.
sat_port="${addr##*:}"
exec 3<>"/dev/tcp/127.0.0.1/$sat_port"
sleep 0.3
sat_out="$nightly_dir/sat-push.out"
if ! BENCHKIT_ENGINE_BACKOFF_SCALE=0.1 ./target/release/benchkit push "$study_a" \
    --to "$addr" --max-retries 40 >"$sat_out"; then
    echo "serve smoke FAILED: push through saturation did not succeed" >&2
    cat "$sat_out" >&2
    exit 1
fi
exec 3<&- 3>&-
if ! grep -q "daemon answered 503; retrying" "$sat_out"; then
    echo "serve smoke FAILED: saturated daemon never answered 503" >&2
    cat "$sat_out" >&2
    exit 1
fi
after_sat="$(./target/release/benchkit query "$addr" /v1/fom | wc -l)"
if [ "$after_sat" != "$total_records" ]; then
    echo "serve smoke FAILED: dedup re-push changed the record set" >&2
    exit 1
fi
# Group commit: a new study whose perflogs carry two records each. Its
# push is this daemon's only source of new records (the saturated
# re-push above was pure dedup), so with one WAL commit per batch the
# drain summary's commit count is at most this push's ingest POSTs;
# per-record fsyncs would count twice that.
study_c="$nightly_dir/study-c"
./target/release/benchkit survey -c babelstream_omp -c babelstream_tbb \
    --system csd3 --system archer2 --seed 9 --perflog "$study_c" >/dev/null
ingest_posts="$(./target/release/benchkit push "$study_c" --to "$addr" | grep -c '^pushed ')"
# The store directory stays fsck-clean with the daemon's state dir in it,
# in both renderings.
./target/release/benchkit store fsck "$serve_dir"
if ! ./target/release/benchkit store fsck "$serve_dir" --json \
    | grep -q '"clean":true'; then
    echo "serve smoke FAILED: fsck --json not clean" >&2
    exit 1
fi
# SIGTERM — graceful drain: exit 0, drain summary, daemon lease released.
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "serve smoke FAILED: SIGTERM drain exited nonzero" >&2
    cat "$serve_log2" >&2
    exit 1
fi
serve_pid=""
if ! grep -q "^serve: drained" "$serve_log2"; then
    echo "serve smoke FAILED: no drain summary" >&2
    cat "$serve_log2" >&2
    exit 1
fi
wal_commits="$(sed -n 's/^serve: drained.*, \([0-9]*\) WAL commits$/\1/p' "$serve_log2")"
if [ -z "$wal_commits" ] || [ "$wal_commits" -gt "$ingest_posts" ]; then
    echo "serve smoke FAILED: ${wal_commits:-no} WAL commits for $ingest_posts ingest POSTs" >&2
    cat "$serve_log2" >&2
    exit 1
fi
if [ -e "$serve_dir/servd/.lease" ]; then
    echo "serve smoke FAILED: drain left the daemon lease behind" >&2
    exit 1
fi
echo "serve smoke OK (concurrent pushes, verdict==rank byte-for-byte before and after SIGKILL, WAL survives SIGKILL, 503+retry, group commit, clean drain)"

echo "== ci: bench history digest (criterion regression loop) =="
# Last, so that a load-sensitive floor miss cannot skip the smokes above.
# Each CI run contributes one criterion log; digest the accumulated
# history (here: stage 3's log replayed as a synthetic 6-run history so
# the digest has enough points to judge — a real nightly keeps one log
# per night next to the store directory and passes them oldest first).
history=()
for i in 1 2 3 4 5 6; do
    cat "$bench_log" "$kern_log" > "$nightly_dir/bench-history-$i.json"
    history+=("$nightly_dir/bench-history-$i.json")
done
# The --min-speedup floors pin the roofline relations on the newest log:
# triad must stay within 1.5x of copy bandwidth (speed ratio >= 1/1.5)
# and the SELL-C-sigma layout must beat CSR SpMV. The SELL floor is
# 1.05x, not the ~1.3x an idle box measures: on a loaded single-core CI
# container the min-sample ratio dips to ~1.05-1.2x, and the relation
# being gated is "the layout still pays for itself", not its margin.
# The other two floors follow the same rule, at about half the margin a
# 2-vCPU host measured beside a second bench process: the matrix-free
# stencil beats the assembled SpMV (Table 2's algorithmic gain at kernel
# level; 1.70-2.58x, floor 1.3x), and CG's zero-start preconditioner
# beats zero-filling and running the general lexicographic sweep at the
# survey's 16^3 (1.20-1.72x, floor 1.1x; at 64^3 both sweeps stream the
# whole matrix from memory and the gap is 1.02-1.11x, too thin to gate).
./target/release/benchkit bench-digest "${history[@]}" \
    --min-speedup "stream_gbs/copy:stream_gbs/triad:0.66" \
    --min-speedup "spmv_layout/csr:spmv_layout/sell:1.05" \
    --min-speedup "spmv_vs_stencil/csr_apply:spmv_vs_stencil/matrix_free_apply:1.3" \
    --min-speedup "symgs_16cubed/csr/lex_serial:symgs_16cubed/csr/precondition:1.1"
echo "bench digest OK"

echo "ci OK"
