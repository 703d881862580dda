"""The ``swarm`` workload: a block's path from a miner to every node's tip.

Sixteen nodes from ``build_network`` (ring plus chords) relay with compact
blocks on.  Transactions are pre-signed P2PKH spends drawn from a
``SyntheticPopulation``, with strictly distinct fees, and are submitted
on the population's sim-time schedule (an open loop in simulated time).
Each round submits ``ROUND_TXS`` of them, waits a quiet gap, then one
miner, rotating across the nodes, assembles a block capped at
``ROUND_TXS`` transactions.  Fees rise with submission order, so each
block takes exactly its round's transactions and the ``BACKLOG``
lowest-fee ones stand in every mempool for the whole run: every block
connect revalidates that backlog at every node.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.bitcoin.chain import Blockchain
from repro.bitcoin.miner import Miner
from repro.bitcoin.network import Simulation, build_network
from repro.bitcoin.population import (
    PopulationConfig,
    SyntheticPopulation,
    fund_wallets,
    sim_chain_params,
)
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.wallet import Spendable, Wallet

NODES = 16
POPULATION = 100_000  # distinct potential senders
BACKLOG = 16  # lowest-fee transactions that stay pooled all run
ROUND_TXS = 6  # transactions submitted per round = the template cap
ACTIVE = 60.0  # simulated seconds one round's submissions span
QUIET = 60.0  # simulated seconds from the last submission to mining
FUNDING_VALUE = 50_000
PAY_VALUE = 30_000
BASE_FEE = 5_000
SETTLE_LIMIT = 3_600.0  # simulated seconds a block may take to settle


@dataclass
class Inputs:
    """Everything the run submits, generated from the seed alone."""

    seed: int
    funding: list  # blocks every node boots with
    backlog: list  # [(offset, node index, tx)]
    rounds: list  # per round: [(offset, node index, tx)]
    distinct_pubkeys: int


class CappedPool:
    """The view of a mempool a size-capped template is assembled from:
    ``Miner.assemble`` reads only ``transactions()``, best fee rate first."""

    def __init__(self, mempool, cap: int):
        self.mempool = mempool
        self.cap = cap

    def transactions(self):
        return self.mempool.transactions()[: self.cap]


def _population_events(seed: int, count: int) -> list[tuple[float, int]]:
    population = SyntheticPopulation(
        PopulationConfig(wallets=POPULATION, seed=seed)
    )
    events: list[tuple[float, int]] = []
    window = 10_000.0
    start = 0.0
    while len(events) < count:
        events.extend(population.events(start, window))
        start += window
    return events[:count]


def _offsets(times: list[float]) -> list[float]:
    """Round-relative submission times, squeezed into ``ACTIVE`` seconds
    when the round's bursts span more (order and clustering are kept)."""
    first = times[0]
    span = times[-1] - first
    scale = ACTIVE / span if span > ACTIVE else 1.0
    return [(t - first) * scale for t in times]


def generate_inputs(seed: int, rounds: int) -> Inputs:
    events = _population_events(seed, BACKLOG + rounds * ROUND_TXS)
    wallets = {
        w: Wallet.from_seed(b"swarm-wallet-%d" % w)
        for w in sorted({w for _t, w in events})
    }
    funding = fund_wallets(
        [wallets[w].key_hash for _t, w in events], value=FUNDING_VALUE
    )
    chain = Blockchain(sim_chain_params())
    outputs: dict[bytes, list[Spendable]] = {}
    for block in funding:
        if not chain.add_block(block):
            raise RuntimeError("funding chain rejected")
        for tx in block.txs[1:]:
            for index, out in enumerate(tx.vout):
                if out.value == FUNDING_VALUE:
                    outputs.setdefault(out.script_pubkey.serialize(), []).append(
                        Spendable(tx.outpoint(index), out, chain.height, False)
                    )
    signed = []
    for j, (at, w) in enumerate(events):
        wallet = wallets[w]
        funded = outputs[p2pkh_script(wallet.key_hash).serialize()].pop()
        tx = wallet.create_transaction(
            chain,
            [TxOut(PAY_VALUE, p2pkh_script(wallet.key_hash))],
            # Distinct fees rising with submission order: each capped
            # template takes exactly the newest round, whatever order
            # gossip delivered it in.
            fee=BASE_FEE + j,
            extra_inputs=[funded],
        )
        signed.append((at, w % NODES, tx))

    def timed(chunk):
        return list(
            zip(_offsets([at for at, _n, _tx in chunk]),
                (n for _at, n, _tx in chunk),
                (tx for _at, _n, tx in chunk))
        )

    body = signed[BACKLOG:]
    return Inputs(
        seed=seed,
        funding=funding,
        backlog=timed(signed[:BACKLOG]),
        rounds=[
            timed(body[r * ROUND_TXS : (r + 1) * ROUND_TXS])
            for r in range(rounds)
        ],
        distinct_pubkeys=len(wallets),
    )


@dataclass
class State:
    sim: Simulation
    nodes: list
    miner_key: bytes


def _submit_at(sim, node, at: float, tx) -> None:
    sim.schedule(at - sim.now, lambda: node.submit_transaction(tx))


def setup(inputs: Inputs) -> State:
    """Boot the swarm at the funded tip with the backlog in every pool."""
    sim = Simulation(seed=inputs.seed)
    nodes = build_network(sim, NODES)
    for node in nodes:
        node.compact_relay = True
        for block in inputs.funding:
            if not node.chain.add_block(block):
                raise RuntimeError(f"{node.name} rejected the funding chain")
    start = sim.now + 1.0
    for offset, n, tx in inputs.backlog:
        _submit_at(sim, nodes[n], start + offset, tx)
    sim.run_until(start + ACTIVE + QUIET)
    for node in nodes:
        if len(node.mempool) != BACKLOG:
            raise RuntimeError(f"{node.name} did not pool the backlog")
    return State(sim, nodes, Wallet.from_seed(b"swarm-miner").key_hash)


def run(inputs: Inputs, state: State, tally, quiet=nullcontext) -> dict:
    """Play every round; returns the samples and the run's outputs.
    Output checks run inside ``quiet()``."""
    sim, nodes = state.sim, state.nodes
    events = sim.events_processed
    burst_ms, settle_ms, arrivals, backlog_sizes, tips = [], [], [], [], []
    submitted = 0
    wall = 0.0
    for r, round_txs in enumerate(inputs.rounds):
        start = sim.now + 1.0
        for offset, n, tx in round_txs:
            _submit_at(sim, nodes[n], start + offset, tx)
        t0 = time.perf_counter()
        sim.run_until(start + ACTIVE + QUIET)
        t1 = time.perf_counter()
        burst_ms.append((t1 - t0) * 1e3)
        wall += t1 - t0
        submitted += len(round_txs)

        miner_node = nodes[r % NODES]
        backlog_sizes.append(len(miner_node.mempool))
        mined_at = sim.now
        pending = [node for node in nodes if node is not miner_node]

        def unsettled() -> bool:
            for node in list(pending):
                if node.chain.tip.block.hash == block_hash:
                    pending.remove(node)
                    arrivals.append(sim.now - mined_at)
            return bool(pending)

        t2 = time.perf_counter()
        block = Miner(miner_node.chain, state.miner_key).assemble(
            CappedPool(miner_node.mempool, ROUND_TXS),
            timestamp=miner_node.chain.median_time_past() + 1,
            extra_nonce=r + 1,
        )
        block_hash = block.hash
        miner_node.submit_block(block)
        sim.run_while(unsettled, sim.now + SETTLE_LIMIT)
        t3 = time.perf_counter()
        settle_ms.append((t3 - t2) * 1e3)
        wall += t3 - t2

        tips.append(block_hash)
        with quiet():
            tally.check(
                not pending
                and len({node.chain.tip.block.hash for node in nodes}) == 1,
                "swarm: no common tip after the round",
            )
            tally.check(
                {tx.txid for tx in block.txs[1:]}
                == {tx.txid for _o, _n, tx in round_txs},
                "swarm: block did not carry its round",
            )

    every_tx = [tx for _o, _n, tx in inputs.backlog] + [
        tx for round_txs in inputs.rounds for _o, _n, tx in round_txs
    ]
    with quiet():
        for node in nodes:
            for tx in every_tx:
                tally.check(
                    tx.txid in node.mempool
                    or node.chain.get_transaction(tx.txid) is not None,
                    "swarm: population tx neither confirmed nor pooled",
                )
    return {
        "latency_ms": settle_ms,
        "secondary_ms": burst_ms,
        "items": submitted,
        "wall_s": wall,
        "block_prop_sim_s": arrivals,
        "backlog_txs": backlog_sizes,
        "block_hashes": [h.hex() for h in tips],
        "events": sim.events_processed - events,
        "events_processed": sim.events_processed,
        "sim_end": sim.now,
        "distinct_pubkeys": inputs.distinct_pubkeys,
    }
