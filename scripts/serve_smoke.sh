#!/usr/bin/env bash
# End-to-end smoke for the verification job server.
#
# 1. Starts nonmask_serve on an ephemeral port with telemetry sampling.
# 2. POSTs every example spec (specs/) over HTTP, polls to completion, and
#    byte-diffs each server report against the direct `spec_tool run` of
#    the same document (timestamps and process-global metrics stripped —
#    everything else must match, including the spec provenance hash).
# 3. Saves the campaign job's telemetry dashboard as an artifact.
# 4. kill -9's the server mid-campaign, restarts it on the same state
#    directory, and checks the recovered job resumes from its checkpoint
#    journal to a report identical to an uninterrupted run's.
#
# Usage: serve_smoke.sh [BUILD_DIR [OUT_DIR]]
set -euo pipefail
cd "$(dirname "$0")/.."
build="${1:-build}"
out="${2:-$(mktemp -d)}"
mkdir -p "$out"
state="$out/serve-state"
rm -rf "$state"

spec_tool="$build/examples/spec_tool"
serve="$build/examples/nonmask_serve"
SERVE_PID=""
PORT=""

cleanup() {
  if [[ -n "$SERVE_PID" ]]; then kill "$SERVE_PID" 2>/dev/null || true; fi
}
trap cleanup EXIT

start_server() {
  : > "$out/serve.log"
  "$serve" --state-dir="$state" --workers=2 --telemetry-ms=50 \
    > "$out/serve.log" 2>> "$out/serve.err" &
  SERVE_PID=$!
  for _ in $(seq 200); do
    grep -q '^listening' "$out/serve.log" 2>/dev/null && break
    sleep 0.05
  done
  PORT="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out/serve.log")"
  if [[ -z "$PORT" ]]; then
    echo "error: server did not start" >&2
    cat "$out/serve.err" >&2
    exit 1
  fi
}

post_job() { # spec-file -> prints job id
  curl -sS -X POST --data-binary @"$1" "http://127.0.0.1:$PORT/jobs" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["id"])'
}

wait_done() { # job-id
  local st=""
  for _ in $(seq 600); do
    st="$(curl -sS "http://127.0.0.1:$PORT/jobs/$1" \
      | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')"
    if [[ "$st" == done ]]; then return 0; fi
    if [[ "$st" == failed ]]; then
      echo "error: job $1 failed:" >&2
      curl -sS "http://127.0.0.1:$PORT/jobs/$1" >&2
      exit 1
    fi
    sleep 0.1
  done
  echo "error: job $1 did not finish (state $st)" >&2
  exit 1
}

strip_volatile() { # report-in json-out
  python3 - "$1" "$2" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
for key in ("started_at", "wall_ms", "metrics"):
    doc.pop(key, None)
json.dump(doc, open(sys.argv[2], "w"), indent=1)
EOF
}

start_server
curl -sS "http://127.0.0.1:$PORT/healthz" | grep -q '"status": "ok"'

# --- server report == direct run, for every example spec -------------------
# The falsify job goes first: its walks build visited sets, and no later
# report may carry anything of it (each report is its own job's data).
campaign_id=""
for spec in specs/dijkstra_ring_falsify.json specs/token_ring_campaign.json \
            specs/spanning_tree_check.json specs/byzantine_containment.json; do
  name="$(basename "$spec" .json)"
  id="$(post_job "$spec")"
  if [[ "$name" == token_ring_campaign ]]; then campaign_id="$id"; fi
  wait_done "$id"
  curl -sS "http://127.0.0.1:$PORT/jobs/$id/report" > "$out/$name.server.json"
  "$spec_tool" run "$spec" --report-out="$out/$name.direct.json" \
    2> /dev/null
  strip_volatile "$out/$name.server.json" "$out/$name.server.stripped"
  strip_volatile "$out/$name.direct.json" "$out/$name.direct.stripped"
  diff "$out/$name.server.stripped" "$out/$name.direct.stripped"
  echo "ok: $name server report identical to direct run"
done

# --- dashboard artifact ----------------------------------------------------
curl -sS "http://127.0.0.1:$PORT/jobs/$campaign_id/dashboard" \
  > "$out/job_dashboard.html"
grep -q '<!DOCTYPE html>' "$out/job_dashboard.html"
echo "ok: campaign dashboard saved ($(wc -c < "$out/job_dashboard.html") bytes)"

# --- kill -9 mid-campaign, restart, resume ---------------------------------
# A campaign that never converges: every trial burns max_steps, giving a
# long, steady checkpoint stream to kill in the middle of.
cat > "$out/spinner.spec.json" <<'EOF'
{
  "schema": "nonmask-spec/1",
  "name": "spinner",
  "variables": [{"name": "x", "min": "0", "max": "3"}],
  "constraints": [{"name": "never", "expr": "x == 99"}],
  "actions": [
    {"name": "spin", "kind": "convergence", "guard": "1",
     "assign": {"x": "(x + 1) % 4"}, "constraint": "0"}
  ],
  "job": {"type": "campaign", "trials": 400, "seed": 11,
          "max_steps": 100000}
}
EOF
spin_id="$(post_job "$out/spinner.spec.json")"
journal="$state/$spin_id.checkpoint.jsonl"
for _ in $(seq 300); do
  if [[ -f "$journal" ]] && [[ "$(wc -l < "$journal")" -ge 20 ]]; then break; fi
  sleep 0.05
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
completed_before_kill="$(wc -l < "$journal" 2>/dev/null || echo 0)"
if [[ -f "$state/$spin_id.report.json" ]]; then
  echo "note: campaign finished before the kill landed"
fi

start_server
wait_done "$spin_id"
grep -q 'recovered' "$out/serve.err" \
  || echo "note: nothing to recover (job had already finished)"
curl -sS "http://127.0.0.1:$PORT/jobs/$spin_id/report" \
  > "$out/spinner.server.json"
"$spec_tool" run "$out/spinner.spec.json" \
  --report-out="$out/spinner.direct.json" 2> /dev/null
strip_volatile "$out/spinner.server.json" "$out/spinner.server.stripped"
strip_volatile "$out/spinner.direct.json" "$out/spinner.direct.stripped"
diff "$out/spinner.server.stripped" "$out/spinner.direct.stripped"
echo "ok: killed at ~${completed_before_kill}/400 trials; resumed report" \
     "identical to an uninterrupted run"

kill "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
echo "ok: verification service smoke passed"
