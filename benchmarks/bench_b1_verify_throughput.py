"""B1 — verification fast-path throughput (PR 4 layered caches).

Rule 4 of paper §2 (every input signature must validate) dominates wall
time, so this experiment pins the three fast-path layers against their
pre-PR baselines:

* **ECDSA verify ops/s** — the w-NAF/GLV/Strauss-Shamir `dual_scalar_mult`
  path versus the naive double-and-add verify it replaced (reconstructed
  here from :func:`scalar_mult_naive`), with the per-point table cache both
  warm (repeated pubkeys, the realistic wallet pattern) and cold.
* **Block-connect txs/s** — connecting a block of P2PKH spends with the
  shared signature cache cold (nothing pre-verified) versus warm
  (transactions were mempool-accepted first, as on the live relay path).

The acceptance bars from ISSUE 4: ≥ 3× on verify ops/s and ≥ 2× on
warm-sigcache block connect.  Verdict equivalence is covered by
``tests/bitcoin/test_sigcache.py``; this file measures only speed.
"""

import time

from repro.bitcoin import sigcache
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.sigcache import SignatureCache
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import TxOut
from repro.bitcoin.wallet import Wallet
from repro.crypto import secp256k1 as ec
from repro.crypto.ecdsa import Signature, _digest_to_int, verify as fast_verify
from repro.crypto.keys import PrivateKey
from repro.crypto.secp256k1 import (
    CURVE_ORDER,
    point_add,
    scalar_mult_naive,
)

VERIFY_BATCH = 48
VERIFY_KEYS = 6  # repeated pubkeys: the warm per-point-table pattern
NAIVE_SAMPLE = 12  # naive verifies are ~5 ms each; sample, don't sweep
CONNECT_TXS = 12


def _naive_verify(public, digest, signature) -> bool:
    """The pre-PR verify: two independent double-and-add ladders joined by
    an affine addition — kept here as the measured baseline."""
    r, s = signature.r, signature.s
    if not (1 <= r < CURVE_ORDER and 1 <= s < CURVE_ORDER):
        return False
    z = _digest_to_int(digest)
    s_inv = pow(s, CURVE_ORDER - 2, CURVE_ORDER)
    u1 = (z * s_inv) % CURVE_ORDER
    u2 = (r * s_inv) % CURVE_ORDER
    point = point_add(scalar_mult_naive(u1), scalar_mult_naive(u2, public))
    if point.is_infinity:
        return False
    return point.x % CURVE_ORDER == r


def _signature_batch(count=VERIFY_BATCH, keys=VERIFY_KEYS):
    batch = []
    privs = [PrivateKey.from_seed(b"b1-key" + bytes([i])) for i in range(keys)]
    for i in range(count):
        key = privs[i % keys]
        digest = bytes([i & 0xFF, (i >> 8) & 0xFF]) * 16
        batch.append((key.public.point, digest, key.sign_digest(digest)))
    return batch


def _ops_per_s(fn, batch) -> float:
    start = time.perf_counter()
    for public, digest, signature in batch:
        assert fn(public, digest, signature)
    return len(batch) / (time.perf_counter() - start)


def bench_b1_ecdsa_verify(benchmark):
    batch = _signature_batch()
    ec._POINT_TABLE_CACHE.clear()
    _ops_per_s(fast_verify, batch)  # build generator + point tables once

    def run_warm():
        return _ops_per_s(fast_verify, batch)

    warm_ops = benchmark.pedantic(run_warm, rounds=3, iterations=1)

    # Cold: every pubkey's w-NAF table is rebuilt (one batched inversion).
    ec._POINT_TABLE_CACHE.clear()
    cold_ops = _ops_per_s(fast_verify, batch)
    naive_ops = _ops_per_s(_naive_verify, batch[:NAIVE_SAMPLE])

    benchmark.extra_info["fast_warm_ops_per_s"] = warm_ops
    benchmark.extra_info["fast_cold_ops_per_s"] = cold_ops
    benchmark.extra_info["naive_ops_per_s"] = naive_ops
    benchmark.extra_info["speedup_warm_vs_naive"] = warm_ops / naive_ops
    benchmark.extra_info["speedup_cold_vs_naive"] = cold_ops / naive_ops

    print(f"\nB1: ECDSA verify ({VERIFY_BATCH} sigs, {VERIFY_KEYS} keys)")
    print(f"{'path':>24} {'ops/s':>9} {'vs naive':>9}")
    print(f"{'naive double-and-add':>24} {naive_ops:>9.1f} {'1.00x':>9}")
    print(f"{'fast (cold tables)':>24} {cold_ops:>9.1f}"
          f" {cold_ops / naive_ops:>8.2f}x")
    print(f"{'fast (warm tables)':>24} {warm_ops:>9.1f}"
          f" {warm_ops / naive_ops:>8.2f}x")


def _build_block_scenario(n_tx=CONNECT_TXS):
    """A chain plus one unconnected block of ``n_tx`` P2PKH spends.

    Acceptance into the mempool verifies every script once — exactly what
    warms the shared signature cache on the live path.  (The admitting
    chain itself would skip those scripts at connect, see
    ``Blockchain.remember_verified_scripts``; the timing below connects
    the block on a chain that never admitted them.)
    """
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"b1-alice")
    bob = Wallet.from_seed(b"b1-bob")
    net.fund_wallet(alice, blocks=n_tx)
    for i in range(n_tx):
        tx = alice.create_transaction(
            net.chain,
            [TxOut(1000 + i, p2pkh_script(bob.key_hash))],
            fee=2000,
            exclude=set(net.mempool._spent),
        )
        net.send(tx)
    miner = Miner(net.chain, alice.key_hash)
    block = miner.grind(miner.assemble(net.mempool))
    return net, block


def _time_connect(warm: bool) -> float:
    """Seconds to connect the scenario block with the sigcache warm/cold."""
    old = sigcache.set_default_cache(SignatureCache())
    try:
        net, block = _build_block_scenario()
        chain = Blockchain(net.chain.params)
        for prefix_block in net.chain.export_active():
            assert chain.add_block(prefix_block)
        cache = sigcache.default_cache()
        if not warm:
            cache.clear()
        start = time.perf_counter()
        assert chain.add_block(block)
        return time.perf_counter() - start
    finally:
        sigcache.set_default_cache(old)


def bench_b1_block_connect(benchmark):
    def run_warm():
        return _time_connect(warm=True)

    warm_seconds = benchmark.pedantic(run_warm, rounds=3, iterations=1)
    cold_seconds = min(_time_connect(warm=False) for _ in range(2))

    warm_tps = CONNECT_TXS / warm_seconds
    cold_tps = CONNECT_TXS / cold_seconds
    benchmark.extra_info["block_txs"] = CONNECT_TXS
    benchmark.extra_info["warm_sigcache_txs_per_s"] = warm_tps
    benchmark.extra_info["cold_sigcache_txs_per_s"] = cold_tps
    benchmark.extra_info["speedup_warm_vs_cold"] = warm_tps / cold_tps

    print(f"\nB1: block connect ({CONNECT_TXS} P2PKH spends per block)")
    print(f"{'sigcache':>10} {'connect':>9} {'txs/s':>8}")
    print(f"{'cold':>10} {cold_seconds * 1e3:>7.1f}ms {cold_tps:>8.1f}")
    print(f"{'warm':>10} {warm_seconds * 1e3:>7.1f}ms {warm_tps:>8.1f}"
          f"  ({warm_tps / cold_tps:.2f}x)")


if __name__ == "__main__":
    from obs_harness import run_standalone

    run_standalone(bench_b1_ecdsa_verify, bench_b1_block_connect)
