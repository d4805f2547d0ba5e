#!/usr/bin/env bash
# Developer check: configure, build (warnings as errors), run the full test
# suite, and smoke-run every benchmark briefly.
#
# Usage: check.sh [--jobs N | -j N]
#   --jobs N   parallelism for the build and for ctest (default: the build
#              tool's own default / serial ctest)
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --jobs|-j)
      jobs="$2"
      shift 2
      ;;
    --jobs=*)
      jobs="${1#--jobs=}"
      shift
      ;;
    *)
      echo "usage: $0 [--jobs N]" >&2
      exit 2
      ;;
  esac
done

cmake -B build -G Ninja -DNONMASK_WERROR=ON
cmake --build build ${jobs:+-j "$jobs"}
ctest --test-dir build --output-on-failure ${jobs:+-j "$jobs"}

for b in build/bench/bench_*; do
  echo "== ${b} =="
  "${b}" --benchmark_min_time=0.01
done

# Resume smoke: a campaign killed mid-run (simulated by truncating its
# checkpoint journal, torn final line included) must resume to a JSONL
# stream byte-identical to the uninterrupted run's.
echo "== campaign resume smoke =="
resume_dir="$(mktemp -d)"
trap 'rm -rf "${resume_dir}"' EXIT
NONMASK_THREADS=4 ./build/examples/parallel_campaign dijkstra 64 0 7 \
  --checkpoint="${resume_dir}/full.jsonl" >/dev/null
head -n 20 "${resume_dir}/full.jsonl" > "${resume_dir}/killed.jsonl"
printf '{"design":"dij' >> "${resume_dir}/killed.jsonl"  # torn tail
NONMASK_THREADS=4 ./build/examples/parallel_campaign dijkstra 64 0 7 \
  --checkpoint="${resume_dir}/killed.jsonl" --resume >/dev/null
diff "${resume_dir}/full.jsonl" "${resume_dir}/killed.jsonl"
echo "ok: resumed journal is byte-identical"

# Observability smoke: the trace/metrics/report JSON must stay parseable.
echo "== trace_report smoke =="
obs_dir="$(mktemp -d)"
trap 'rm -rf "${resume_dir}" "${obs_dir}"' EXIT
NONMASK_THREADS=4 ./build/examples/trace_report \
  --design=dijkstra --grain=1024 \
  --trace-out="${obs_dir}/trace.json" \
  --metrics-out="${obs_dir}/metrics.json" \
  --report-out="${obs_dir}/report.json"
if command -v python3 >/dev/null; then
  python3 - "${obs_dir}" <<'EOF'
import json, sys
d = sys.argv[1]
events = json.load(open(f"{d}/trace.json"))["traceEvents"]
tids = {e["tid"] for e in events if e["name"].endswith(".chunk")}
assert len(tids) >= 2, f"expected >= 2 chunk workers, got {tids}"
json.load(open(f"{d}/metrics.json"))
json.load(open(f"{d}/report.json"))
print(f"ok: {len(events)} trace events, {len(tids)} chunk workers")
EOF
fi

# Synthesis smoke: re-derive the acceptance protocols from closure actions +
# constraints alone, and check the JSON report is byte-identical across
# thread counts (the CEGIS determinism contract). bench_synth additionally
# writes its candidates/sec + prune-rate table to BENCH_synth.json.
echo "== synthesis smoke =="
synth_dir="$(mktemp -d)"
trap 'rm -rf "${resume_dir}" "${obs_dir}" "${synth_dir}"' EXIT
NONMASK_THREADS=1 ./build/examples/design_workbench --synthesize --seed=7 \
  --report-out="${synth_dir}/synthesis_t1.json" >/dev/null
NONMASK_THREADS=8 ./build/examples/design_workbench --synthesize --seed=7 \
  --report-out="${synth_dir}/synthesis_t8.json" >/dev/null
diff "${synth_dir}/synthesis_t1.json" "${synth_dir}/synthesis_t8.json"
echo "ok: synthesis reports byte-identical at 1 and 8 threads"
if command -v python3 >/dev/null; then
  python3 - "${synth_dir}/synthesis_t1.json" <<'EOF'
import json, sys
reports = json.load(open(sys.argv[1]))
assert len(reports) >= 4, f"expected >= 4 synthesis targets, got {len(reports)}"
for r in reports:
    assert r["success"], r["design"]
    assert r["exact"]["verdict"] == "converges", r["design"]
    assert not r["certificate"].get("audit_problems"), r["design"]
print("ok:", {r["design"]: r["certificate"]["method"] for r in reports})
EOF
fi
./build/bench/bench_synth --benchmark_min_time=0.01 \
  --benchmark_out=BENCH_synth.json --benchmark_out_format=json >/dev/null
echo "ok: wrote BENCH_synth.json"

# Thread-invariance smoke: every verdict the workbench prints, the
# weakly-fair store_scale verdict/count lines (timing lines stripped — they
# are the only legitimate diff), and the closure_S/closure_T/convergence
# sections of a weakly-fair spec check job must be byte-identical at 1/2/8
# threads. The spec job's 93,312 codes span two 65,536-code chunks, so at 2
# and 8 threads pool workers make its successor tables' first lookups.
# tests/store_equivalence_test.cpp holds the engine to the serial oracle;
# this holds the shipped CLIs to their own single-threaded output.
# bench_store writes states/sec + peak RSS + shard occupancy to
# BENCH_store.json.
echo "== thread-invariance smoke =="
store_dir="$(mktemp -d)"
trap 'rm -rf "${resume_dir}" "${obs_dir}" "${synth_dir}" "${store_dir}"' EXIT
for t in 1 2 8; do
  NONMASK_THREADS="${t}" ./build/examples/design_workbench \
    > "${store_dir}/wb_t${t}.txt"
  ./build/examples/store_scale 4 6 --weakly-fair "--threads=${t}" \
    | grep -v -e '^elapsed:' -e '^peak RSS:' > "${store_dir}/fair_t${t}.txt"
  ./build/examples/spec_tool run --builtin bfs-spanning-tree+env \
    "--job={\"type\":\"check\",\"weakly_fair\":true,\"threads\":${t}}" \
    | sed -n 's/.*\("closure_S":.*\),"metrics".*/\1/p' \
    > "${store_dir}/spec_t${t}.txt"
  test -s "${store_dir}/spec_t${t}.txt"
  diff "${store_dir}/wb_t1.txt" "${store_dir}/wb_t${t}.txt"
  diff "${store_dir}/fair_t1.txt" "${store_dir}/fair_t${t}.txt"
  diff "${store_dir}/spec_t1.txt" "${store_dir}/spec_t${t}.txt"
done
echo "ok: workbench, weakly-fair store_scale and spec check byte-identical at 1/2/8 threads"

# Telemetry + dashboard smoke: a weakly-fair store run with the heartbeat
# sampler on must write parseable JSONL whose final cumulative states count
# equals the report's region_states (the accounting identity behind the
# dashboard), and the dashboard must be one self-contained HTML file. A
# campaign leg checks that the heartbeat's `counters` object is the metrics
# registry's: its final heartbeat counts every trial once.
echo "== telemetry dashboard smoke =="
NONMASK_TELEMETRY="${store_dir}/heartbeats.jsonl" NONMASK_TELEMETRY_MS=10 \
  ./build/examples/store_scale 6 8 --weakly-fair --threads=4 \
  --report-out="${store_dir}/scale_report.json" \
  --dashboard-out="${store_dir}/dashboard.html" >/dev/null
if command -v python3 >/dev/null; then
  python3 - "${store_dir}" <<'EOF'
import json, sys
d = sys.argv[1]
beats = [json.loads(l) for l in open(f"{d}/heartbeats.jsonl") if l.strip()]
assert len(beats) >= 2, f"expected periodic + final heartbeats, got {len(beats)}"
assert [b["seq"] for b in beats] == list(range(len(beats))), "seq gap"
report = json.load(open(f"{d}/scale_report.json"))
final = beats[-1]["states"]
assert final == report["region_states"], \
    f"final heartbeat {final} != report region_states {report['region_states']}"
html = open(f"{d}/dashboard.html").read()
assert "<svg" in html and "<!DOCTYPE html>" in html
for banned in ("http://", "https://", "src=", "<link", "@import"):
    assert banned not in html, f"dashboard not self-contained: {banned}"
print(f"ok: {len(beats)} heartbeats, final count {final} matches report; "
      f"dashboard is {len(html)} bytes, self-contained")
EOF
fi
NONMASK_TELEMETRY="${store_dir}/campaign_heartbeats.jsonl" \
  ./build/examples/parallel_campaign dijkstra 64 4 7 >/dev/null
if command -v python3 >/dev/null; then
  python3 - "${store_dir}/campaign_heartbeats.jsonl" <<'EOF'
import json, sys
beats = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
counters = beats[-1]["counters"]
assert counters.get("campaign.trials") == 64, counters
print(f"ok: final campaign heartbeat counts {counters['campaign.trials']} trials")
EOF
fi

# Benchmark regression gate: a fresh bench_store run must stay within 25%
# states/s of the committed baseline (the fresh run goes to a temp path so
# the baseline only changes when deliberately regenerated).
./build/bench/bench_store --benchmark_min_time=0.01 \
  --benchmark_out="${store_dir}/BENCH_store.json" \
  --benchmark_out_format=json >/dev/null
if [[ -f BENCH_store.json ]] && command -v python3 >/dev/null; then
  python3 scripts/bench_compare.py BENCH_store.json \
    "${store_dir}/BENCH_store.json"
else
  echo "note: no committed BENCH_store.json baseline; skipping compare"
fi

# Byzantine containment smoke: the radius analysis must be deterministic —
# the timestamp-free artifact is byte-diffed across 1/2/8 threads — the
# spanning tree must contain its benchmark leaf placement (the min+1
# shape), the token ring must never contain, the dashboard must carry the
# certification-triage table, and the dashboard run's report (metrics are
# on there) must count containment's states in the frontier engine's
# store.reach.states. CI uploads the JSON artifact.
echo "== byzantine containment smoke =="
cont_dir="$(mktemp -d)"
trap 'rm -rf "${resume_dir}" "${obs_dir}" "${synth_dir}" "${store_dir}" "${cont_dir}"' EXIT
for t in 1 2 8; do
  NONMASK_THREADS="${t}" ./build/examples/containment_probe all 1 1 \
    --containment-out="${cont_dir}/containment_t${t}.json" >/dev/null
  diff "${cont_dir}/containment_t1.json" "${cont_dir}/containment_t${t}.json"
done
echo "ok: containment artifact byte-identical at 1/2/8 threads"
NONMASK_THREADS=4 ./build/examples/containment_probe all 1 1 \
  --containment-out="${cont_dir}/containment.json" \
  --report-out="${cont_dir}/containment_report.json" \
  --dashboard-out="${cont_dir}/containment.html" >/dev/null
if command -v python3 >/dev/null; then
  python3 - "${cont_dir}" <<'EOF2'
import json, sys
d = sys.argv[1]
art = json.load(open(f"{d}/containment.json"))
bench = {b["protocol"]: b for b in art["benchmarks"]}
tree = bench["bfs-spanning-tree"]
assert tree["contained"] and tree["radius"] == 1, tree
ring = bench["dijkstra-k-state-ring"]
assert not ring["contained"] and ring["radius"] == ring["horizon"], ring
triage = {(t["design"], t["fault_model"]): t["verdict"] for t in art["triage"]}
assert triage[("bfs-spanning-tree", "byzantine")] == "survives", triage
assert triage[("dijkstra-k-state-ring", "byzantine")] == "refuted", triage
assert triage[("bfs-spanning-tree+env", "environment")] == "falls-back", triage
report = json.load(open(f"{d}/containment_report.json"))
assert "triage" in report, sorted(report)
counters = report["metrics"]["counters"]
assert counters.get("store.reach.states", 0) > 0, counters
html = open(f"{d}/containment.html").read()
assert "Certification triage" in html, "dashboard missing the triage table"
print(f"ok: tree contained (radius 1), ring refuted, "
      f"{len(art['triage'])} triage rows in report + dashboard")
EOF2
fi

# Verification service smoke: POST every example spec to a live
# nonmask_serve, diff each server report against the direct spec_tool run,
# save the job dashboard, then kill -9 the server mid-campaign and check
# the restart resumes from the checkpoint journal to an identical report.
echo "== verification service smoke =="
serve_dir="$(mktemp -d)"
trap 'rm -rf "${resume_dir}" "${obs_dir}" "${synth_dir}" "${store_dir}" "${cont_dir}" "${serve_dir}"' EXIT
scripts/serve_smoke.sh build "${serve_dir}"
