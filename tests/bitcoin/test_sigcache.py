"""Tests for the signature cache and the cached/parallel verification paths.

The load-bearing property: caching and parallelism are *transparent* —
accept/reject verdicts are identical with the sigcache on, off, undersized
(evicting constantly), and with script checks fanned across worker
processes.
"""

import random
from dataclasses import replace

import pytest

from repro.bitcoin import sigcache
from repro.bitcoin.chain import Blockchain
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.sigcache import SignatureCache
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.sighash import SighashCache
from repro.bitcoin.transaction import Script, Transaction, TxOut
from repro.bitcoin.validation import (
    ParallelScriptVerifier,
    ValidationError,
    _make_collecting_checker,
    check_tx_inputs,
    make_sig_checker,
    verify_scripts_batched,
)
from repro.bitcoin.wallet import Wallet
from repro.crypto.ecdsa import Signature, verify as ecdsa_verify
from repro.crypto.keys import PrivateKey
from repro.crypto.secp256k1 import FIELD_PRIME, Point


@pytest.fixture(autouse=True)
def fresh_default_cache():
    """Isolate each test from the process-wide shared cache."""
    old = sigcache.set_default_cache(SignatureCache())
    yield
    sigcache.set_default_cache(old)


# ----------------------------------------------------------------------
# LRU mechanics
# ----------------------------------------------------------------------


def test_lru_eviction_order():
    cache = SignatureCache(max_entries=2)
    cache.put(b"d1", b"p", b"s", True)
    cache.put(b"d2", b"p", b"s", True)
    # Touch d1 so d2 becomes least recently used.
    assert cache.get(b"d1", b"p", b"s") is True
    cache.put(b"d3", b"p", b"s", False)
    assert cache.get(b"d2", b"p", b"s") is None  # evicted
    assert cache.get(b"d1", b"p", b"s") is True
    assert cache.get(b"d3", b"p", b"s") is False
    assert len(cache) == 2


def test_put_existing_key_updates_without_eviction():
    cache = SignatureCache(max_entries=2)
    cache.put(b"d1", b"p", b"s", True)
    cache.put(b"d2", b"p", b"s", True)
    cache.put(b"d1", b"p", b"s", True)  # refresh, no overflow
    assert len(cache) == 2
    assert cache.get(b"d2", b"p", b"s") is True


def test_rejects_zero_capacity():
    with pytest.raises(ValueError):
        SignatureCache(max_entries=0)


def test_clear():
    cache = SignatureCache()
    cache.put(b"d", b"p", b"s", True)
    cache.clear()
    assert len(cache) == 0
    assert cache.get(b"d", b"p", b"s") is None


def test_default_cache_swap():
    mine = SignatureCache(max_entries=4)
    old = sigcache.set_default_cache(mine)
    try:
        assert sigcache.default_cache() is mine
        assert sigcache.set_default_cache(None) is mine
        assert sigcache.default_cache() is None
    finally:
        sigcache.set_default_cache(old)


# ----------------------------------------------------------------------
# Eviction never changes verdicts
# ----------------------------------------------------------------------


def test_eviction_never_changes_verdicts():
    """Random triples through a 4-entry cache: the cache's answer always
    equals direct ECDSA verification, no matter what was evicted between
    asks — including cached ``False`` verdicts."""
    rng = random.Random(1234)
    key = PrivateKey.from_seed(b"evict")
    triples = []
    for i in range(12):
        digest = bytes([i]) * 32
        sig = key.sign_digest(digest).encode()
        if i % 3 == 0:  # corrupt every third signature
            sig = bytes([sig[0] ^ 0x01]) + sig[1:]
        triples.append((digest, key.public.encoded, sig))

    expected = {
        t: ecdsa_verify(key.public.point, t[0], Signature.decode(t[2]))
        for t in triples
    }

    cache = SignatureCache(max_entries=4)
    for _ in range(200):
        digest, pub, sig = rng.choice(triples)
        verdict = cache.get(digest, pub, sig)
        if verdict is None:
            verdict = ecdsa_verify(key.public.point, digest, Signature.decode(sig))
            cache.put(digest, pub, sig, verdict)
        assert verdict == expected[(digest, pub, sig)]
        assert len(cache) <= 4


def test_malleated_signature_misses_cache():
    """A different signature encoding is different bytes: it must miss the
    cache and be verified on its own merits, never inheriting a verdict."""
    key = PrivateKey.from_seed(b"malleate")
    digest = b"\x42" * 32
    sig = key.sign_digest(digest).encode()
    cache = SignatureCache()
    cache.put(digest, key.public.encoded, sig, True)
    malleated = sig[:-1] + bytes([sig[-1] ^ 0xFF])
    assert cache.get(digest, key.public.encoded, malleated) is None


# ----------------------------------------------------------------------
# Checker integration
# ----------------------------------------------------------------------


def _funded_net():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"sc-alice")
    bob = Wallet.from_seed(b"sc-bob")
    net.fund_wallet(alice, blocks=6)
    return net, alice, bob


def test_checker_consults_and_fills_cache():
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    cache = SignatureCache()
    sigcache.set_default_cache(cache)
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert len(cache) == len(tx.vin)
    # Re-validation is answered from the cache: swap ecdsa out from under it.
    hits = {"n": 0}
    original_get = cache.get

    def counting_get(digest, pub, sig):
        verdict = original_get(digest, pub, sig)
        if verdict is not None:
            hits["n"] += 1
        return verdict

    cache.get = counting_get
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert hits["n"] == len(tx.vin)


def test_mempool_acceptance_warms_block_connect():
    net, alice, bob = _funded_net()
    cache = SignatureCache()
    sigcache.set_default_cache(cache)
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    net.send(tx)
    warmed = len(cache)
    assert warmed == len(tx.vin)
    misses = {"n": 0}
    original_get = cache.get

    def counting_get(digest, pub, sig):
        verdict = original_get(digest, pub, sig)
        if verdict is None:
            misses["n"] += 1
        return verdict

    cache.get = counting_get
    net.generate(1, alice.key_hash)  # block connect re-verifies tx's scripts
    assert misses["n"] == 0
    assert net.chain.get_transaction(tx.txid) is not None


def test_checker_surfaces_out_of_range_as_validation_error():
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    checker = make_sig_checker(tx, len(tx.vin) + 3, Script())
    key = PrivateKey.from_seed(b"any")
    sig = key.sign_digest(b"\x01" * 32).encode() + b"\x01"
    with pytest.raises(ValidationError, match="out of range"):
        checker(sig, key.public.encoded)


# ----------------------------------------------------------------------
# Differential: cache/parallelism on and off give identical verdicts
# ----------------------------------------------------------------------


def _run_scenario(verifier=None, cache=None, before_generate=None):
    """A mixed accept/reject scenario; returns every observable verdict."""
    sigcache.set_default_cache(cache)
    net = RegtestNetwork()
    if verifier is not None:
        net.chain.script_verifier = verifier
    alice = Wallet.from_seed(b"diff-alice")
    bob = Wallet.from_seed(b"diff-bob")
    net.fund_wallet(alice, blocks=6)
    verdicts = []
    for i in range(4):
        tx = alice.create_transaction(
            net.chain,
            [TxOut(1500 + i, p2pkh_script(bob.key_hash))],
            fee=2000,
            exclude=set(net.mempool._spent),
        )
        net.send(tx)
        verdicts.append(("accept", tx.txid.hex()))
    # A corrupted-signature spend must be rejected identically.
    bad_src = alice.create_transaction(
        net.chain,
        [TxOut(3000, p2pkh_script(bob.key_hash))],
        fee=2000,
        exclude=set(net.mempool._spent),
    )
    sig_el = bad_src.vin[0].script_sig.elements[0]
    bad_sig = bytes([sig_el[0] ^ 0x01]) + sig_el[1:]
    bad_tx = Transaction(
        [replace(bad_src.vin[0], script_sig=Script([bad_sig, *bad_src.vin[0].script_sig.elements[1:]]))],
        bad_src.vout,
        version=bad_src.version,
        locktime=bad_src.locktime,
    )
    try:
        net.send(bad_tx)
        verdicts.append(("accept-bad", bad_tx.txid.hex()))
    except Exception as exc:
        verdicts.append(("reject", str(exc)))
    if before_generate is not None:
        before_generate(net)
    blocks = net.generate(1, alice.key_hash)
    verdicts.append(("tip", net.chain.tip.block.hash.hex(), len(blocks[0].txs)))
    # net.chain admitted these transactions, so its connect skipped their
    # scripts.  A chain that never admitted them connects the same blocks
    # and runs every script through the verifier under test.
    replica = Blockchain(
        net.chain.params, script_verifier=net.chain.script_verifier
    )
    for block in net.chain.export_active():
        replica.add_block(block)
    verdicts.append(("replica-tip", replica.tip.block.hash.hex()))
    if verifier is not None:
        verifier.close()
    return verdicts


def test_differential_verdicts_cache_and_parallelism():
    baseline = _run_scenario(cache=None)  # caches fully disabled
    cached = _run_scenario(cache=SignatureCache())
    evicting = _run_scenario(cache=SignatureCache(max_entries=1))
    parallel = _run_scenario(
        verifier=ParallelScriptVerifier(workers=2), cache=SignatureCache()
    )
    assert baseline == cached == evicting == parallel


def test_worker_death_mid_block_falls_back_serially():
    """Killing a pool worker must not change the block verdict.

    The executor breaks between mempool acceptance and block connect; the
    verifier discards the dead pool when the replica chain (which never
    admitted the block's transactions) connects it, re-verifies every
    group in-process, and the observable verdicts stay byte-identical to
    the serial run.
    """
    import concurrent.futures.process
    import os

    from repro import obs

    baseline = _run_scenario(cache=SignatureCache())
    verifier = ParallelScriptVerifier(workers=2)

    def kill_pool(net):
        executor = verifier._ensure_executor()
        try:
            executor.submit(os._exit, 1).result()
        except concurrent.futures.process.BrokenProcessPool:
            pass  # expected: the pill took the pool down

    was_enabled = obs.ENABLED
    saved_registry = obs.set_registry(obs.Registry())
    obs.enable()
    try:
        broken = _run_scenario(
            verifier=verifier,
            cache=SignatureCache(),
            before_generate=kill_pool,
        )
        fallbacks = obs.registry().counter("script.pool_broken_total").value
    finally:
        obs.set_registry(saved_registry)
        obs.ENABLED = was_enabled

    assert broken == baseline
    assert fallbacks == 1
    # The verifier is reusable afterwards: the pool respawns on demand.
    assert _run_scenario(
        verifier=ParallelScriptVerifier(workers=2), cache=SignatureCache()
    ) == baseline


# ----------------------------------------------------------------------
# Deferred pubkey decode: hits skip it, misses still fail closed
# ----------------------------------------------------------------------


@pytest.fixture
def decode_calls(monkeypatch):
    """Record every ``Point.decode`` call made while the test runs."""
    calls = []
    original = Point.decode

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(Point, "decode", staticmethod(counting))
    return calls


def _off_curve_x() -> int:
    """The smallest x with no point on secp256k1 (x³ + 7 a non-residue)."""
    x = 1
    while pow(x**3 + 7, (FIELD_PRIME - 1) // 2, FIELD_PRIME) == 1:
        x += 1
    return x


UNDECODABLE_PUBKEYS = {
    "off-curve compressed": b"\x02" + _off_curve_x().to_bytes(32, "big"),
    "x out of range": b"\x03" + (FIELD_PRIME + 1).to_bytes(32, "big"),
    "off-curve uncompressed": b"\x04" + (1).to_bytes(32, "big") * 2,
    "bad prefix": b"\x05" + b"\x11" * 32,
    "truncated": b"\x02" + b"\x11" * 31,
}


def _spend_jobs(net, tx):
    return [
        (tx, index, net.chain.utxos.get(txin.prevout).output.script_pubkey)
        for index, txin in enumerate(tx.vin)
    ]


def test_cache_hit_skips_pubkey_decode(decode_calls):
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert len(decode_calls) == len(tx.vin)  # cold: one decode per miss
    decode_calls.clear()
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert decode_calls == []
    # The batch path shares the prologue: a warm block decodes nothing.
    verify_scripts_batched(_spend_jobs(net, tx))
    assert decode_calls == []


def test_batch_path_decodes_only_misses(decode_calls):
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    verify_scripts_batched(_spend_jobs(net, tx))
    assert len(decode_calls) == len(tx.vin)
    # A fully green batch warmed the cache for the serial path.
    decode_calls.clear()
    check_tx_inputs(tx, net.chain.utxos, net.chain.height + 1)
    assert decode_calls == []


@pytest.mark.parametrize("label", sorted(UNDECODABLE_PUBKEYS))
def test_undecodable_pubkey_miss_returns_false(label, decode_calls):
    pubkey = UNDECODABLE_PUBKEYS[label]
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    sig = PrivateKey.from_seed(b"any").sign_digest(b"\x01" * 32).encode()
    cache = SignatureCache()
    checker = make_sig_checker(tx, 0, Script(), sig_cache=cache)
    assert checker(sig + b"\x01", pubkey) is False
    assert decode_calls == [pubkey]
    assert len(cache) == 0  # nothing is recorded for an undecodable key
    pending = []
    collecting = _make_collecting_checker(
        0, Script(), SighashCache(tx), cache, pending
    )
    assert collecting(sig + b"\x01", pubkey) is False
    assert pending == []


def test_der_failure_surfaces_before_decode(decode_calls):
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    cache = SignatureCache()
    lookups = []
    cache.get = lambda *key: lookups.append(key)
    bad_der = b"\x30\x02\x01\x01\x01"  # not a DER signature, plus hashtype
    for checker in (
        make_sig_checker(tx, 0, Script(), sig_cache=cache),
        _make_collecting_checker(0, Script(), SighashCache(tx), cache, []),
    ):
        assert checker(bad_der, b"\x05" + b"\x11" * 32) is False
        assert checker(b"\x01", b"\x05" + b"\x11" * 32) is False  # too short
    assert decode_calls == []
    assert lookups == []


def test_sighash_failure_surfaces_before_decode(decode_calls):
    """An out-of-range input index raises even when the pubkey is junk:
    the sighash runs before the pubkey is ever looked at."""
    net, alice, bob = _funded_net()
    tx = alice.create_transaction(
        net.chain, [TxOut(1000, p2pkh_script(bob.key_hash))], fee=2000
    )
    sig = PrivateKey.from_seed(b"any").sign_digest(b"\x01" * 32).encode()
    out_of_range = len(tx.vin) + 3
    for checker in (
        make_sig_checker(tx, out_of_range, Script()),
        _make_collecting_checker(
            out_of_range, Script(), SighashCache(tx), None, []
        ),
    ):
        with pytest.raises(ValidationError, match="out of range"):
            checker(sig + b"\x01", b"\x05" + b"\x11" * 32)
    assert decode_calls == []
