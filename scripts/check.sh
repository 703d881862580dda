#!/usr/bin/env bash
# Tier-1 gate: the full test suite must pass with observability off (the
# default) and on (REPRO_OBS=1), proving instrumentation never changes
# behavior. Pass --bench to also run the benchmark telemetry smoke pass
# (scripts/bench.sh), and --chaos to run the seeded fault-injection smoke
# (scripts/chaos_smoke.py), --recovery to run the seeded kill-mid-write
# durability smoke (scripts/recovery_smoke.py), and --monitors to run the
# chaos profiles under strict runtime invariant monitors
# (scripts/monitor_smoke.py), --profile to run the phase-profiling
# smoke (scripts/profile_smoke.py), and --service to run the seeded
# verification-service chaos smoke (scripts/service_smoke.py), and
# --pipeline to run the block-pipeline differential smoke
# (scripts/pipeline_smoke.py), and --swarm to run the 200-node
# population-driven compact-relay differential smoke
# (scripts/swarm_smoke.py), and --perf to run the benchmark's own tests
# (python3 -m pytest perfbench) plus one short traced swarm run and one
# short traced cold-sync run, whose span coverage and bypass checks must
# each report "correct": true. Run from
# anywhere; paths resolve relative to the repo root.
set -euo pipefail

run_bench=0
run_chaos=0
run_recovery=0
run_monitors=0
run_profile=0
run_service=0
run_pipeline=0
run_swarm=0
run_perf=0
for arg in "$@"; do
  case "$arg" in
    --bench) run_bench=1 ;;
    --chaos) run_chaos=1 ;;
    --recovery) run_recovery=1 ;;
    --monitors) run_monitors=1 ;;
    --profile) run_profile=1 ;;
    --service) run_service=1 ;;
    --pipeline) run_pipeline=1 ;;
    --swarm) run_swarm=1 ;;
    --perf) run_perf=1 ;;
    *) echo "usage: $0 [--bench] [--chaos] [--recovery] [--monitors] [--profile] [--service] [--pipeline] [--swarm] [--perf]" >&2; exit 2 ;;
  esac
done

cd "$(dirname "$0")/.."
export PYTHONPATH=src

echo "== tier-1: observability disabled =="
env -u REPRO_OBS python -m pytest -x -q

echo "== tier-1: observability enabled (REPRO_OBS=1) =="
REPRO_OBS=1 python -m pytest -x -q

echo "ok: suite passes with observability off and on"

if [ "$run_chaos" = 1 ]; then
  echo "== chaos: seeded fault-injection smoke =="
  env -u REPRO_OBS python scripts/chaos_smoke.py
fi

if [ "$run_recovery" = 1 ]; then
  echo "== recovery: seeded kill-mid-write smoke =="
  env -u REPRO_OBS python scripts/recovery_smoke.py
fi

if [ "$run_monitors" = 1 ]; then
  echo "== monitors: chaos profiles under strict invariant monitors =="
  python scripts/monitor_smoke.py
fi

if [ "$run_service" = 1 ]; then
  echo "== service: seeded verification-service chaos smoke =="
  env -u REPRO_OBS python scripts/service_smoke.py
fi

if [ "$run_profile" = 1 ]; then
  echo "== profile: one profiled A1 run (ledger + folded output) =="
  python scripts/profile_smoke.py
fi

if [ "$run_pipeline" = 1 ]; then
  echo "== pipeline: batch ECDSA + UTXO cache differential smoke =="
  env -u REPRO_OBS python scripts/pipeline_smoke.py
fi

if [ "$run_swarm" = 1 ]; then
  echo "== swarm: 200-node compact-relay differential smoke =="
  env -u REPRO_OBS python scripts/swarm_smoke.py
fi

if [ "$run_perf" = 1 ]; then
  echo "== perf: perfbench tests and short traced swarm and cold-sync runs =="
  env -u REPRO_OBS python3 -m pytest perfbench -q
  # cold-sync's bypass predictions (no sigcache hits, no pooled txs) show
  # that nothing warmed at admission can shortcut a syncing node.
  for workload in swarm cold-sync; do
    result=$(env -u REPRO_OBS python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    echo "$result"
    case "$result" in
      '{"correct": true'*) ;;
      *) echo "perf: the traced $workload run failed its checks" >&2; exit 1 ;;
    esac
  done
fi

if [ "$run_bench" = 1 ]; then
  scripts/bench.sh
fi
