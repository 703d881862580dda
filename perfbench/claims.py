"""The ``claims`` workload: the Typecoin claim path on one regtest chain.

A bank publishes ``newcoin_basis`` and issues coin(n) to ``HOLDERS``
holders.  One closed-loop caller then runs a seeded stream of operations:

* ``transfer`` — a holder splits one of the least-split coins, part to
  another holder, with ``split_proof``; then ``submit`` → ``confirm(1)``
  → ``sync`` by sender and recipient.  Splitting the shallowest coins
  first keeps the coin tree balanced, so every seed sees the same
  upstream-depth profile (a uniformly random split tree's mean depth
  differs from seed to seed and takes claim cost with it);
* ``claim`` — a holder builds a ``claim_bundle`` for an owned output and
  one long-lived ``VerificationService(workers=0)`` returns the verdict.
  A seeded share of claims is deliberately wrong (coin(n+1)) and must
  come back ``invalid``.

Every verdict is compared with a single-process ``verify_claim`` oracle,
run outside the timed region.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.transaction import OutPoint
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.core.builder import basis_publication, build_with_payload, simple_transfer
from repro.core.currency import issue_proof, newcoin_basis, split_proof
from repro.core.proofs import obligation_lambda, tensor_intro_all
from repro.core.transaction import TypecoinOutput
from repro.core.validate import Ledger
from repro.core.verifier import VerificationError, verify_claim
from repro.core.wallet import TypecoinClient
from repro.lf.basis import Basis
from repro.logic.propositions import One, props_equal
from repro.service import ServiceClient, VerificationService

HOLDERS = 8
ISSUED = 1_000_000  # coin(n) each holder starts with
TRANSFER_SHARE = 0.5
WRONG_SHARE = 0.2  # claims that assert coin(n+1) and must be refused


@dataclass
class Inputs:
    seed: int
    ops: list  # [(kind, three uniform draws)]: the seeded operation stream


def generate_inputs(seed: int, operations: int) -> Inputs:
    """The operation stream: exact shares of transfers and wrong claims in
    seeded order, plus the uniform draws that pick coins, recipients and
    amounts when each op runs."""
    rng = random.Random(seed)
    transfers = round(operations * TRANSFER_SHARE)
    claims = operations - transfers
    wrong = round(claims * WRONG_SHARE)
    kinds = (
        ["transfer"] * transfers
        + ["wrong-claim"] * wrong
        + ["claim"] * (claims - wrong)
    )
    rng.shuffle(kinds)
    return Inputs(
        seed, [(kind, rng.random(), rng.random(), rng.random()) for kind in kinds]
    )


@dataclass
class Coin:
    outpoint: OutPoint
    value: int
    owner: int
    depth: int = 0  # splits between this coin and its issuance


@dataclass
class State:
    net: RegtestNetwork
    holders: list
    vocab: object
    coins: list
    service: VerificationService
    client: ServiceClient


def _issue(net, bank, vocab, holder) -> OutPoint:
    out = TypecoinOutput(vocab.coin_prop(ISSUED), 600, holder.pubkey)
    txn = build_with_payload(
        Basis(), One(), [], [out],
        lambda payload: obligation_lambda(
            One(), [], [out.receipt()],
            lambda _c, _i, _r: tensor_intro_all([
                issue_proof(
                    vocab, ISSUED,
                    bank.affirm_affine(vocab.print_prop(ISSUED), payload),
                )
            ]),
        ),
    )
    carrier = bank.submit(txn)
    net.confirm(1)
    bank.sync()
    return OutPoint(carrier.txid, 0)


def setup(inputs: Inputs) -> State:
    """Fund the bank and holders, publish the basis and issue coins."""
    net = RegtestNetwork()
    ledger = Ledger()
    bank = TypecoinClient(net, b"claims-bank", ledger)
    holders = [
        TypecoinClient(net, b"claims-holder-%d" % i, ledger)
        for i in range(HOLDERS)
    ]
    for client in [bank, *holders]:
        net.generate(1, client.wallet.key_hash)
    net.confirm(COINBASE_MATURITY)
    basis, vocab = newcoin_basis(bank.principal_term, bank.principal_term)
    carrier = bank.submit(basis_publication(basis, bank.pubkey))
    net.confirm(1)
    bank.sync()
    vocab = vocab.resolved(carrier.txid)
    coins = [
        Coin(_issue(net, bank, vocab, holder), ISSUED, i)
        for i, holder in enumerate(holders)
    ]
    service = VerificationService(net.chain, workers=0)
    client = ServiceClient(service, sleep=lambda _delay: None)
    return State(net, holders, vocab, coins, service, client)


def close(state: State) -> None:
    state.service.close()


def _oracle(chain, bundle) -> str:
    try:
        verify_claim(chain, bundle)
    except VerificationError:
        return "invalid"
    return "ok"


def _transfer(state: State, coin: Coin, recipient: int, amount: int):
    sender = state.holders[coin.owner]
    vocab = state.vocab
    rest = coin.value - amount
    outputs = [
        TypecoinOutput(vocab.coin_prop(amount), 600, state.holders[recipient].pubkey),
        TypecoinOutput(vocab.coin_prop(rest), 600, sender.pubkey),
    ]
    txn = simple_transfer(
        [sender.input_for(coin.outpoint)],
        outputs,
        body=lambda ins: split_proof(vocab, amount, rest, ins[0]),
    )
    carrier = sender.submit(txn)
    state.net.confirm(1)
    sender.sync()
    state.holders[recipient].sync()
    return carrier


def run(inputs: Inputs, state: State, tally, quiet=nullcontext) -> dict:
    """Run the operation stream; returns the samples.  Output checks run
    inside ``quiet()``."""
    claim_ms, transfer_ms, depths = [], [], []
    wall = 0.0
    for kind, pick, who, how in inputs.ops:
        if kind == "transfer":
            movable = [c for c in state.coins if c.value >= 2]
            shallowest = min(c.depth for c in movable)
            movable = [c for c in movable if c.depth == shallowest]
            coin = movable[int(pick * len(movable))]
            recipient = (coin.owner + 1 + int(who * (HOLDERS - 1))) % HOLDERS
            amount = 1 + int(how * (coin.value - 1))
            t0 = time.perf_counter()
            carrier = _transfer(state, coin, recipient, amount)
            elapsed = time.perf_counter() - t0
            transfer_ms.append(elapsed * 1e3)
            wall += elapsed
            with quiet():
                ledger = state.holders[coin.owner].ledger
                sent = ledger.output(carrier.txid, 0)
                kept = ledger.output(carrier.txid, 1)
                tally.check(
                    sent is not None
                    and kept is not None
                    and props_equal(sent.prop, state.vocab.coin_prop(amount))
                    and props_equal(
                        kept.prop, state.vocab.coin_prop(coin.value - amount)
                    ),
                    "claims: transfer did not land in the ledger",
                )
            state.coins.remove(coin)
            depth = coin.depth + 1
            state.coins.append(
                Coin(OutPoint(carrier.txid, 0), amount, recipient, depth)
            )
            state.coins.append(
                Coin(OutPoint(carrier.txid, 1), coin.value - amount, coin.owner, depth)
            )
        else:
            coin = state.coins[int(pick * len(state.coins))]
            wrong = kind == "wrong-claim"
            prop = state.vocab.coin_prop(coin.value + 1 if wrong else coin.value)
            t0 = time.perf_counter()
            bundle = state.holders[coin.owner].claim_bundle(coin.outpoint, prop)
            verdict = state.client.verify(bundle)
            elapsed = time.perf_counter() - t0
            claim_ms.append(elapsed * 1e3)
            wall += elapsed
            depths.append(len(bundle.transactions))
            expected = "invalid" if wrong else "ok"
            with quiet():
                tally.check(
                    verdict.status == expected
                    and verdict.status == _oracle(state.net.chain, bundle),
                    "claims: verdict differs from the oracle",
                )
    memo = state.service.memo
    lookups = memo.hits + memo.misses
    return {
        "latency_ms": claim_ms,
        "secondary_ms": transfer_ms,
        "items": len(inputs.ops),
        "wall_s": wall,
        "claim_depth": depths,
        "memo_hit_ratio": memo.hits / lookups if lookups else 0.0,
        "block_hashes": [state.net.chain.tip.block.hash.hex()],
    }
