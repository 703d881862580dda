"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload swarm --seed 1 --seconds 30 --trace 0

Workloads: ``swarm``, ``cold-sync``, ``claims`` (see README.md).  The run
generates its inputs from ``--seed``, sets the program up
``SETUP_REPS`` times, then runs the timed phase once, sized from
``--seconds``, and checks every output.  Observability stays off
(``REPRO_OBS`` is removed from the environment before ``repro`` loads).

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics from spans recorded around
each layer's public functions, and also runs the same workload untraced
in a child process to report the tracing overhead.  The last line of
standard output is the JSON result; the lines before it name every
metric with its unit.  ``--all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from stats import ErrorTally, min_samples, peak_rss_mb, percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5
WORKLOADS = ("swarm", "cold-sync", "claims")

#: End-to-end metrics, gated: name -> unit.
END_TO_END = {
    "latency_ms_p50": "ms",
    "secondary_ms_p50": "ms",
    "throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed but not gated: a p90 lands in whichever stretch of the run the
#: shared machine ran slowest, so it spreads wider than any usable bound.
UNGATED = {"latency_ms_p90": "ms", "secondary_ms_p90": "ms"}

#: What each generic end-to-end metric measures, per workload.
ALIASES = {
    "swarm": {
        "latency_ms": "block_settle_ms",
        "secondary_ms": "burst_relay_ms",
        "throughput_per_s": "swarm_tx_per_s",
    },
    "cold-sync": {
        "latency_ms": "sync_block_ms",
        "secondary_ms": "recover_ms",
        "throughput_per_s": "sync_tx_per_s",
    },
    "claims": {
        "latency_ms": "claim_verify_ms",
        "secondary_ms": "transfer_ms",
        "throughput_per_s": "claims_ops_per_s",
    },
}


def sizes(workload: str, seconds: int) -> dict:
    """The timed phase's work for a run of about ``seconds`` seconds on a
    2-core x86 container; never below what a supported p90 needs."""
    if workload == "swarm":
        return {"rounds": max(100, 5 * seconds)}
    if workload == "cold-sync":
        return {"chains": 6, "blocks": max(20, seconds),
                "recover_cycles": max(4, seconds // 3)}
    return {"operations": max(400, 50 * seconds)}


def _load(workload: str):
    # Workload modules import repro, which main() puts on the path first.
    import claims
    import coldsync
    import swarm

    return {"swarm": swarm, "cold-sync": coldsync, "claims": claims}[workload]


def execute(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Generate inputs, set up, run the timed phase; returns the report."""
    module = _load(workload)
    size = sizes(workload, seconds)
    t0 = time.perf_counter()
    if workload == "cold-sync":
        inputs = module.generate_inputs(
            seed, *size.values(), OUT / f"cold-sync-{os.getpid()}"
        )
    else:
        inputs = module.generate_inputs(seed, *size.values())
    inputs_s = time.perf_counter() - t0
    setups = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = module.setup(inputs)
        setups.append(time.perf_counter() - t0)
        if rep < SETUP_REPS - 1 and hasattr(module, "close"):
            module.close(state)

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    tally = ErrorTally()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            result = module.run(inputs, state, tally)
        else:
            result = module.run(inputs, state, tally, tracer.paused)
    finally:
        timed_wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        if hasattr(module, "close"):
            module.close(state)
        if workload == "cold-sync":
            shutil.rmtree(inputs.workdir, ignore_errors=True)

    report = {
        "workload": workload,
        "seed": seed,
        "sizes": size,
        "inputs_s": inputs_s,
        "setup_reps_s": setups,
        "timed_wall_s": timed_wall,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.error_rate,
        "failures": tally.reasons,
        "samples": {
            "latency_ms": len(result["latency_ms"]),
            "secondary_ms": len(result["secondary_ms"]),
        },
        "block_hashes_digest": _digest(result.get("block_hashes", [])),
        "events_processed": result.get("events_processed", 0),
        "metrics": {
            "latency_ms_p50": percentile(result["latency_ms"], 0.5),
            "secondary_ms_p50": percentile(result["secondary_ms"], 0.5),
            "throughput_per_s": result["items"] / result["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb(),
        },
        "ungated": {
            name: percentile(result[name.rsplit("_p", 1)[0]], 0.9)
            for name in UNGATED
            if len(result[name.rsplit("_p", 1)[0]]) >= min_samples(0.9)
        },
        "properties": _properties(result),
    }
    if tracer is not None:
        metrics, span_calls = layers.per_layer(tracer, result, timed_wall)
        report["coverage_failures"] = layers.check_coverage(
            workload, metrics, span_calls, result
        )
        report["layer_metrics"] = metrics
        tracer.write(OUT / f"trace-{workload}-{seed}")
    return report


def _digest(hashes: list[str]) -> str:
    return hashlib.sha256("".join(hashes).encode()).hexdigest()


def _properties(result: dict) -> dict:
    """Workload properties later optimisations depend on."""
    props = {}
    if "distinct_pubkeys" in result:
        props["distinct_pubkeys"] = result["distinct_pubkeys"]
    for key in ("backlog_txs", "claim_depth", "block_prop_sim_s"):
        samples = result.get(key)
        if samples:
            props[f"{key}_p50"] = percentile(samples, 0.5)
            props[f"{key}_p90"] = percentile(samples, 0.9)
            props[f"{key}_max"] = max(samples)
    if "memo_hit_ratio" in result:
        props["memo_hit_ratio"] = result["memo_hit_ratio"]
    return props


def _untraced_wall(workload: str, seed: int, seconds: int) -> float:
    """Timed-phase wall time of the same run without tracing, measured in
    a child process so its caches cannot warm this one's."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    for line in proc.stdout.splitlines():
        if line.startswith("report "):
            return json.loads(line[len("report "):])["timed_wall_s"]
    raise RuntimeError("untraced run printed no report")


def print_report(report: dict, trace: bool) -> dict:
    """Name every metric with its unit; return the result object."""
    workload = report["workload"]
    aliases = ALIASES[workload]
    print(f"# {workload} seed={report['seed']} sizes={report['sizes']}")
    print(f"# inputs {report['inputs_s']:.3f} s, setups "
          + ", ".join(f"{s:.3f}" for s in report["setup_reps_s"])
          + f" s, timed phase {report['timed_wall_s']:.3f} s")
    print(f"# error_rate {report['error_rate']:.6f} ratio "
          f"({report['failed']} of {report['attempted']} checks failed)")
    if trace:
        metrics = report["layer_metrics"]
        for failure in report["coverage_failures"]:
            print(f"# coverage FAIL {failure}")
        units = layers.PER_LAYER
    else:
        metrics = report["metrics"]
        units = END_TO_END
    def show(name, value, unit, prefix=""):
        base = name.rsplit("_p", 1)[0] if "_ms_p" in name else name
        alias = aliases.get(base)
        if alias is not None:
            alias += name[len(base):]
        label = f"{name} ({alias})" if alias else name
        print(f"{prefix}{label} = {value:.6g} {unit}")

    for name, value in metrics.items():
        show(name, value, units[name])
    for name, value in report["ungated"].items():
        show(name, value, UNGATED[name], prefix="# ungated ")
    for name, value in report["properties"].items():
        print(f"# property {name} = {value:.6g}")
    print("report " + json.dumps(report, sort_keys=True))
    correct = report["failed"] == 0 and not report.get("coverage_failures")
    return {
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and args.workload is None:
        parser.error("--workload or --all is required")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("REPRO_OBS", None)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    OUT.mkdir(exist_ok=True)

    results = {}
    for workload in WORKLOADS if args.all else (args.workload,):
        report = execute(workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            untraced = _untraced_wall(workload, args.seed, args.seconds)
            overhead = report["timed_wall_s"] / untraced
            report["layer_metrics"]["trace.overhead_ratio"] = overhead
        results[workload] = print_report(report, bool(args.trace))
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{workload}/{name}": metric
                for workload, r in results.items()
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
