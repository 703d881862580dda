"""The ``cold-sync`` workload: fresh nodes catch up from genesis.

For each of several independent chains in turn, a fresh node with a
store directory syncs headers-first from one peer, then runs crash →
``restart(persist_chain=True, resync=False)`` cycles.  Spreading the
syncs and recoveries over the whole timed phase keeps one slow stretch
of the machine from setting a metric alone.

Each chain is built by ``fixture.py`` in a child process, with keys of
its own, and its serving node boots from that store (``recover_chain``
re-verifies no script).  So no signature-cache entry, parity hint or
point table in this process covers a chain before its sync: every
signature is checked cold, once.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from repro.bitcoin import sigcache
from repro.bitcoin.network import Node, Simulation
from repro.bitcoin.population import sim_chain_params
from repro.bitcoin.sync import start_sync

import fixture
from stats import utxo_digest

HERE = Path(__file__).resolve().parent
SYNC_LIMIT = 1e7  # simulated seconds the whole sync may take


@dataclass
class Chain:
    source_dir: Path
    meta: dict


@dataclass
class Inputs:
    seed: int
    workdir: Path
    chains: list[Chain]
    recover_cycles: int  # per chain


def generate_inputs(
    seed: int, chains: int, blocks: int, recover_cycles: int, workdir: Path
) -> Inputs:
    """Build ``chains`` independent chain fixtures (distinct keys), each
    in its own child process, two at a time."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    dirs = [workdir / f"source{k}" for k in range(chains)]
    pending = list(enumerate(dirs))
    running: list[subprocess.Popen] = []
    try:
        while pending or running:
            while pending and len(running) < 2:
                k, out = pending.pop(0)
                running.append(subprocess.Popen([
                    sys.executable, str(HERE / "fixture.py"),
                    "--seed", str(seed * 1000 + k), "--blocks", str(blocks),
                    "--out", str(out),
                ]))
            proc = running.pop(0)
            if proc.wait(timeout=300) != 0:
                raise RuntimeError("chain fixture generation failed")
    finally:
        for proc in running:
            proc.kill()
            proc.wait()
    return Inputs(
        seed,
        workdir,
        [
            Chain(out, json.loads((out / fixture.FIXTURE_FILE).read_text()))
            for out in dirs
        ],
        recover_cycles,
    )


@dataclass
class State:
    sim: Simulation
    pairs: list  # per chain: (serving node, fresh node)


def setup(inputs: Inputs) -> State:
    """Boot one serving node per fixture store and one empty node each."""
    sim = Simulation(seed=inputs.seed)
    params = sim_chain_params()
    pairs = []
    for k, chain in enumerate(inputs.chains):
        fresh_dir = inputs.workdir / f"fresh{k}"
        shutil.rmtree(fresh_dir, ignore_errors=True)
        source = Node(
            f"source{k}", sim, params, store_dir=str(chain.source_dir),
            snapshot_interval=fixture.SNAPSHOT_INTERVAL,
        )
        if source.chain.tip.block.hash.hex() != chain.meta["tip"]:
            raise RuntimeError("serving node did not recover the fixture tip")
        fresh = Node(
            f"fresh{k}", sim, params, store_dir=str(fresh_dir),
            snapshot_interval=fixture.SNAPSHOT_INTERVAL,
        )
        fresh.connect(source)
        pairs.append((source, fresh))
    return State(sim, pairs)


def close(state: State) -> None:
    for pair in state.pairs:
        for node in pair:
            if node.chain.store is not None:
                node.chain.store.close()


def store_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.iterdir() if f.is_file())


def _check_matches(node: Node, meta: dict, tally, which: str) -> None:
    tally.check(
        node.chain.tip.block.hash.hex() == meta["tip"]
        and utxo_digest(node.chain.utxos) == meta["utxo_digest"],
        f"cold-sync: {which} node differs from the source",
    )


def _sync(sim, source: Node, fresh: Node, meta: dict, block_ms: list) -> float:
    """Sync ``fresh`` from genesis; returns the wall time.  Appends the
    wall time of each tip advance past the funded prefix to ``block_ms``."""
    cache = sigcache.default_cache()
    if cache is not None:
        cache.clear()  # entries from earlier chains cannot hit; drop them
    if meta["pid"] == os.getpid() or (cache is not None and len(cache)):
        raise RuntimeError("cold-sync would not start cold")
    height = fresh.chain.height
    start = last = time.perf_counter()
    start_sync(fresh, source, reason="benchmark")
    while fresh.chain.tip.block.hash.hex() != meta["tip"]:
        sim.run_while(lambda: fresh.chain.height == height, sim.now + SYNC_LIMIT)
        now = time.perf_counter()
        if fresh.chain.height == height:
            break  # the sync stalled; the tip check fails
        height = fresh.chain.height
        if height > meta["prefix_height"]:
            block_ms.append((now - last) * 1e3)
        last = now
    return time.perf_counter() - start


def run(inputs: Inputs, state: State, tally, quiet=nullcontext) -> dict:
    """For each chain in turn: sync a fresh node from genesis, then crash
    and recover it.  Output checks run inside ``quiet()``."""
    sim = state.sim
    events = sim.events_processed
    block_ms, recover_ms = [], []
    sync_wall = 0.0
    for (source, fresh), chain in zip(state.pairs, inputs.chains):
        sync_wall += _sync(sim, source, fresh, chain.meta, block_ms)
        with quiet():
            _check_matches(fresh, chain.meta, tally, "synced")
        for _ in range(inputs.recover_cycles):
            fresh.crash()
            t0 = time.perf_counter()
            fresh.restart(persist_chain=True, resync=False)
            recover_ms.append((time.perf_counter() - t0) * 1e3)
            with quiet():
                _check_matches(fresh, chain.meta, tally, "recovered")
    metas = [chain.meta for chain in inputs.chains]
    return {
        "latency_ms": block_ms,
        "secondary_ms": recover_ms,
        "items": sum(meta["txs"] for meta in metas),
        "wall_s": sync_wall,
        "store_bytes": sum(
            store_bytes(inputs.workdir / f"fresh{k}") for k in range(len(metas))
        ),
        "distinct_pubkeys": sum(meta["distinct_pubkeys"] for meta in metas),
        "events": sim.events_processed - events,
        "events_processed": sim.events_processed,
        "block_hashes": [meta["tip"] for meta in metas],
    }
