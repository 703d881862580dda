"""Per-layer metrics from a traced run, and the span coverage check.

``PER_LAYER`` names every metric the traced run reports, with its unit.
``busy_s`` is self time (see ``tracing.self_times``); ``self_s`` is the
same for the layers whose span wraps the whole layer entry point.
``_FIRES`` and ``_SILENT`` state, per workload, which spans must fire
and which the "where bypassed" predictions say never run; a traced run
that breaks one of them, or a workload-specific prediction in
``check_coverage``, is not correct.
"""

from __future__ import annotations

from stats import min_samples, percentile

PER_LAYER = {
    "network.self_s": "s",
    "network.events": "count",
    "network.msgs_sent": "count",
    "network.bytes_sent": "B",
    "network.redundant_ratio": "ratio",
    "network.block_prop_sim_s_p90": "sim_s",
    "mempool.accept.calls": "count",
    "mempool.accept.busy_s": "s",
    "mempool.accept.rejects": "count",
    "mempool.revalidate.calls": "count",
    "mempool.revalidate.busy_s": "s",
    "mempool.revalidate.txs_checked": "count",
    "mempool.backlog_txs_p50": "tx",
    "validation.check_tx_inputs.calls": "count",
    "validation.check_tx_inputs.busy_s": "s",
    "script.execute.busy_s": "s",
    "crypto.pubkey_decode.calls": "count",
    "crypto.pubkey_decode.busy_s": "s",
    "crypto.ecdsa_verify.calls": "count",
    "crypto.ecdsa_verify.busy_s": "s",
    "crypto.ecdsa_sign.busy_s": "s",
    "crypto.distinct_pubkeys": "count",
    "sigcache.lookups": "count",
    "sigcache.hit_ratio": "ratio",
    "chain.add_block.calls": "count",
    "chain.add_block.busy_s": "s",
    "chain.median_time_past.calls": "count",
    "utxo.apply.busy_s": "s",
    "codec.script_serialize.calls": "count",
    "codec.tx_serialize.calls": "count",
    "compact.from_block.busy_s": "s",
    "compact.reconstruct.calls": "count",
    "compact.reconstruct.busy_s": "s",
    "compact.mempool_hit_ratio": "ratio",
    "compact.roundtrips": "count",
    "compact.no_roundtrip_share": "ratio",
    "miner.assemble.busy_s": "s",
    "store.append.calls": "count",
    "store.append.busy_s": "s",
    "store.snapshot.busy_s": "s",
    "store.bytes_written": "B",
    "store.recover.busy_s": "s",
    "wallet.create_tx.busy_s": "s",
    "regtest.confirm.busy_s": "s",
    "core.submit.busy_s": "s",
    "core.check_tx.calls": "count",
    "core.check_tx.busy_s": "s",
    "core.referenced_txids.calls": "count",
    "core.referenced_txids.busy_s": "s",
    "core.claim_bundle.busy_s": "s",
    "core.claim_depth_p50": "tx",
    "core.claim_depth_p90": "tx",
    "lf.typecheck.busy_s": "s",
    "logic.check.busy_s": "s",
    "service.verify.calls": "count",
    "service.self_s": "s",
    "service.memo_hit_ratio": "ratio",
    "trace.spans": "count",
    "trace.attributed_share": "ratio",
    "trace.overhead_ratio": "ratio",
}

# Spans that must fire (``calls`` > 0) on each workload.
_FIRES = {
    "swarm": [
        "network", "mempool.accept", "mempool.revalidate",
        "validation.check_tx_inputs", "script.execute",
        "crypto.pubkey_decode", "crypto.ecdsa_verify", "chain.add_block",
        "utxo.apply", "compact.from_block", "compact.reconstruct",
        "miner.assemble",
    ],
    "cold-sync": [
        "network", "mempool.revalidate", "validation.check_tx_inputs",
        "script.execute", "crypto.pubkey_decode", "crypto.ecdsa_verify",
        "chain.add_block", "utxo.apply", "store.append", "store.snapshot",
        "store.recover",
    ],
    "claims": [
        "mempool.accept", "validation.check_tx_inputs", "script.execute",
        "crypto.ecdsa_verify", "crypto.ecdsa_sign", "chain.add_block",
        "wallet.create_tx", "regtest.confirm", "core.submit",
        "core.check_tx", "core.referenced_txids", "core.claim_bundle",
        "lf.typecheck", "logic.check", "service.verify",
    ],
}

_TYPECOIN = ["core.submit", "core.check_tx", "core.referenced_txids",
             "core.claim_bundle", "lf.typecheck", "logic.check",
             "service.verify"]
_STORE = ["store.append", "store.snapshot", "store.recover"]
_COMPACT = ["compact.from_block", "compact.reconstruct"]

# Spans predicted never to run on a workload (the "where bypassed" column).
_SILENT = {
    "swarm": _TYPECOIN + _STORE + ["wallet.create_tx", "regtest.confirm"],
    "cold-sync": _TYPECOIN + _COMPACT + ["mempool.accept", "miner.assemble"],
    "claims": _STORE + _COMPACT + ["network"],
}


def per_layer(tracer, result: dict, traced_wall: float):
    """Every ``PER_LAYER`` metric from the tracer and the run's outputs,
    plus the call count of every span name."""
    table = tracer.layer_table()
    counts = tracer.counts

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def busy(name):
        return table.get(name, {}).get("busy_s", 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    def tail(samples, p):
        return percentile(samples, p) if len(samples) >= min_samples(p) else 0.0

    out = {}
    for name in table:
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.busy_s"] = busy(name)
    reconstructs = calls("compact.reconstruct")
    roundtrips = counts.get("network.msgs.getblocktxn", 0)
    roots = [
        tracer.ends[i] - tracer.starts[i]
        for i, parent in enumerate(tracer.parents)
        if parent < 0
    ]
    out.update({
        "network.self_s": busy("network"),
        "network.events": result.get("events", 0),
        "network.msgs_sent": counts.get("network.msgs_sent", 0),
        "network.bytes_sent": counts.get("network.bytes_sent", 0),
        "network.redundant_ratio": ratio(
            counts.get("network.redundant", 0),
            counts.get("network.deliveries", 0),
        ),
        "network.block_prop_sim_s_p90": tail(
            result.get("block_prop_sim_s", []), 0.9
        ),
        "mempool.accept.rejects": counts.get("mempool.accept.rejects", 0),
        "mempool.revalidate.txs_checked":
            counts.get("mempool.revalidate.txs_checked", 0),
        "mempool.backlog_txs_p50": tail(result.get("backlog_txs", []), 0.5),
        "crypto.distinct_pubkeys": result.get("distinct_pubkeys", 0),
        "sigcache.lookups": counts.get("sigcache.lookups", 0),
        "sigcache.hit_ratio": ratio(
            counts.get("sigcache.hits", 0), counts.get("sigcache.lookups", 0)
        ),
        "chain.median_time_past.calls": counts.get("chain.median_time_past", 0),
        "codec.script_serialize.calls": counts.get("codec.script_serialize", 0),
        "codec.tx_serialize.calls": counts.get("codec.tx_serialize", 0),
        "compact.mempool_hit_ratio": ratio(
            counts.get("compact.mempool_hits", 0),
            counts.get("compact.short_ids", 0),
        ),
        "compact.roundtrips": roundtrips,
        "compact.no_roundtrip_share": ratio(
            max(reconstructs - roundtrips, 0), reconstructs
        ),
        "store.bytes_written": result.get("store_bytes", 0),
        "core.claim_depth_p50": tail(result.get("claim_depth", []), 0.5),
        "core.claim_depth_p90": tail(result.get("claim_depth", []), 0.9),
        "service.self_s": busy("service.verify"),
        "service.memo_hit_ratio": result.get("memo_hit_ratio", 0.0),
        "trace.spans": len(tracer.starts),
        "trace.attributed_share": ratio(
            sum(roots), traced_wall - tracer.paused_s
        ),
    })
    span_calls = {name: row["calls"] for name, row in table.items()}
    return {name: out.get(name, 0) for name in PER_LAYER}, span_calls


def check_coverage(
    workload: str, metrics: dict, span_calls: dict, result: dict
) -> list[str]:
    """Failures of the span coverage check and the bypass predictions."""
    failures = []
    for name in _FIRES[workload]:
        if not span_calls.get(name):
            failures.append(f"{workload}: span {name} never fired")
    for name in _SILENT[workload]:
        if span_calls.get(name):
            failures.append(f"{workload}: span {name} fired where bypassed")
    if workload == "swarm":
        submitted = result["items"]
        verifies = metrics["crypto.ecdsa_verify.calls"]
        if not 0.9 * submitted <= verifies <= 1.1 * submitted:
            failures.append(
                f"swarm: {verifies} ECDSA verifies for {submitted} signatures"
            )
        if metrics["sigcache.hit_ratio"] < 0.5:
            failures.append("swarm: signature cache mostly missed")
    if workload == "cold-sync":
        if metrics["sigcache.hit_ratio"] > 0.01:
            failures.append("cold-sync: signature cache was warm")
        if metrics["mempool.revalidate.txs_checked"]:
            failures.append("cold-sync: revalidation found pooled txs")
    return failures

