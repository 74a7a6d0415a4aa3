#!/usr/bin/env bash
# samdsmoke.sh — end-to-end check of the samd simulation service. Starts
# the daemon, submits the same fig12 job from two parallel HTTP clients,
# polls both to completion, and asserts (1) both clients got byte-identical
# results, (2) the result is byte-identical to what `samfig -exp fig12
# -small` prints (minus its banner line), (3) the dedup was observable —
# the second job attributed "dedup" or "hit", and the daemon's run-memo
# misses equal the grid's distinct cells, so the grid simulated once —
# and (4) a SIGTERM drain exits cleanly leaving an event log that
# obscheck accepts. CI runs this as the samd-smoke job; run it locally
# after touching internal/serve or cmd/samd.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SAMD_PORT:-8315}"
BASE="http://$ADDR"
LOG="${1:-samd-events.jsonl}"

go build -o samd ./cmd/samd
go build -o samfig ./cmd/samfig
go build -o obscheck ./scripts/obscheck

./samd -listen "$ADDR" -workers 2 -obs-log "$LOG" 2> samd.err &
PID=$!
trap 'kill "$PID" 2>/dev/null || true' EXIT

echo "== wait for the daemon to come up =="
./obscheck -wait "$BASE/healthz" -wait-timeout 30s

echo "== two parallel clients submit the same fig12 job =="
submit() {
    curl -sf -X POST "$BASE/jobs" -H 'Content-Type: application/json' \
        -d '{"kind":"figure","tenant":"'"$1"'","workload":{"small":true},"figure":{"id":"fig12"}}'
}
submit client-a > sub-a.json & SUB_A=$!
submit client-b > sub-b.json & SUB_B=$!
wait "$SUB_A" "$SUB_B"

JOB_A=$(python3 -c 'import json,sys; print(json.load(open("sub-a.json"))["job"]["id"])')
JOB_B=$(python3 -c 'import json,sys; print(json.load(open("sub-b.json"))["job"]["id"])')
echo "client-a -> $JOB_A, client-b -> $JOB_B"

echo "== poll both jobs to completion =="
poll() {
    python3 - "$BASE" "$1" <<'EOF'
import json, sys, time, urllib.request
base, job = sys.argv[1], sys.argv[2]
deadline = time.time() + 300
while time.time() < deadline:
    st = json.load(urllib.request.urlopen(f"{base}/jobs/{job}"))
    if st["state"] in ("done", "failed", "canceled"):
        assert st["state"] == "done", f"{job}: {st['state']}: {st.get('err','')}"
        print(f"{job}: done (memo={st.get('memo','')}, dedup_of={st.get('dedup_of','')})")
        sys.exit(0)
    time.sleep(0.5)
sys.exit(f"{job}: still {st['state']} after 300s")
EOF
}
poll "$JOB_A"
poll "$JOB_B"

echo "== daemon stayed healthy and exported the run memo =="
./obscheck \
    -metrics "$BASE/metrics" \
    -require sam_obs_jobs_enqueued_total,sam_obs_jobs_finished_total,sam_obs_job_run_ns,sam_memo_misses_total \
    -progress "$BASE/progress"
curl -sf "$BASE/healthz" > /dev/null
curl -sf "$BASE/metrics" > samd-metrics.txt

echo "== identical submissions ran once =="
curl -sf "$BASE/jobs" > jobs.json
python3 - <<'EOF'
import json
jobs = json.load(open("jobs.json"))["jobs"]
assert len(jobs) == 2, f"expected 2 jobs, saw {len(jobs)}"
assert all(j["state"] == "done" for j in jobs), jobs
memos = sorted(j.get("memo", "") for j in jobs)
assert memos[1] == "miss" and memos[0] in ("dedup", "hit"), \
    f"expected one computed job and one deduplicated job, got {memos}"
print(f"dedup observable: memos={memos}")
EOF

echo "== both clients see byte-identical results, matching samfig =="
curl -sf "$BASE/jobs/$JOB_A/result" > fig12-a.txt
curl -sf "$BASE/jobs/$JOB_B/result" > fig12-b.txt
cmp fig12-a.txt fig12-b.txt
./samfig -exp fig12 -small -metrics-dir fig12-cli-metrics > fig12-cli.txt
# samfig wraps the table in a banner line and a trailing blank line; the
# daemon serves the bare table.
sed '1d;$d' fig12-cli.txt > fig12-cli-table.txt
cmp fig12-a.txt fig12-cli-table.txt

echo "== the grid simulated once =="
python3 - <<'EOF'
import json
# samfig's memo misses count the distinct cells of the fig12-small grid.
cells = json.load(open("fig12-cli-metrics/memo.json"))["counters"]["Misses"]
misses = next(float(l.split()[1]) for l in open("samd-metrics.txt")
              if l.startswith("sam_memo_misses_total "))
assert cells > 0 and misses == cells, \
    f"daemon simulated {misses:.0f} runs for a {cells}-cell grid"
print(f"grid simulated once: {misses:.0f} run-memo misses = {cells} distinct cells")
EOF

echo "== SIGTERM drain =="
kill -TERM "$PID"
wait "$PID"
trap - EXIT
sed -n '1,5p' samd.err

echo "== event log =="
./obscheck -log "$LOG"
echo "samd smoke OK ($LOG)"
