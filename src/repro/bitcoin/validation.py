"""Transaction validity: the four rules of paper §2.

"In order for a transaction to be valid (a prerequisite for inclusion in the
blockchain):

1. The sum of the outputs must equal the sum of the inputs (minus a
   transaction fee ...).
2. Each input amount must be equal to the output amount it identifies.
3. All the inputs must identify distinct unspent outputs.
4. All of the inputs' digital signatures must be valid signatures of the
   full transaction for the public key of the output being spent."

Rule 2 is how Bitcoin's ledger model works by construction (an input *is*
the whole prior output); rules 1, 3, 4 are checked here against a UTXO view.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass

from repro import obs
from repro.bitcoin import sigcache
from repro.bitcoin.script import Script, execute_script
from repro.bitcoin.sighash import SighashCache, signature_hash
from repro.bitcoin.standard import ScriptType, classify
from repro.bitcoin.transaction import MAX_MONEY, Transaction
from repro.bitcoin.utxo import COINBASE_MATURITY, UTXOSet
from repro.crypto.ecdsa import Signature, batch_verify, verify as ecdsa_verify
from repro.crypto.secp256k1 import Point


class ValidationError(Exception):
    """A transaction or block violates a consensus rule."""


LOCKTIME_THRESHOLD = 500_000_000  # below: block height; above: unix time


def is_final(tx: Transaction, height: int, block_time: int) -> bool:
    """Is the transaction final (includable) at this height/time?

    nLockTime semantics: a transaction with ``locktime != 0`` may not enter
    a block until the lock expires — ``locktime < height`` for small values,
    ``locktime < block_time`` for timestamps — unless every input opts out
    with a final sequence number.  This is the native Bitcoin mechanism for
    contracts "that can be reversed if not completed by a deadline" that
    the paper's §8 contrasts with Typecoin's escrow approach.
    """
    if tx.locktime == 0:
        return True
    from repro.bitcoin.transaction import SEQUENCE_FINAL

    if all(txin.sequence == SEQUENCE_FINAL for txin in tx.vin):
        return True
    cutoff = height if tx.locktime < LOCKTIME_THRESHOLD else block_time
    return tx.locktime < cutoff


@dataclass(frozen=True)
class TxValidity:
    """Outcome of input validation: the fee the transaction pays and the
    scriptPubKey each input spends (in input order)."""

    fee: int
    spent_scripts: tuple[Script, ...]


def check_transaction(tx: Transaction) -> None:
    """Context-free structural checks (no UTXO view needed)."""
    if not tx.vin:
        raise ValidationError("transaction has no inputs")
    if not tx.vout:
        raise ValidationError("transaction has no outputs")
    total = 0
    for out in tx.vout:
        if out.value < 0:
            raise ValidationError("negative output value")
        if out.value > MAX_MONEY:
            raise ValidationError("output value exceeds max money")
        total += out.value
        if total > MAX_MONEY:
            raise ValidationError("total output value exceeds max money")
    # Rule 3, within-transaction half: inputs must be distinct.
    prevouts = [txin.prevout for txin in tx.vin]
    if len(set(prevouts)) != len(prevouts):
        raise ValidationError("duplicate inputs")
    if tx.is_coinbase:
        return
    for txin in tx.vin:
        if txin.prevout.is_null:
            raise ValidationError("null prevout in non-coinbase transaction")


# Sentinel: "use the process-wide default signature cache".  Callers pass
# an explicit ``None`` to bypass caching (differential tests do).
_DEFAULT_SIG_CACHE = object()


def _resolve_sig_cache(sig_cache):
    return sigcache.default_cache() if sig_cache is _DEFAULT_SIG_CACHE else sig_cache


def _cached_checker(digest_of, cache, on_miss):
    """The prologue both signature checkers share, in one fixed order.

    ``signature || hashtype_byte`` is split and DER-decoded, then
    ``digest_of(hash_type)`` computes the sighash, then the signature
    cache is consulted.  Only on a miss is the pubkey decoded (a modular
    square root for compressed keys) and the triple handed to
    ``on_miss(pubkey, digest, signature, pubkey_bytes, sig_bytes)``.  So a
    DER failure or a sighash error still surfaces first, and a warm cache
    hit costs no point arithmetic at all.

    Skipping the decode on a hit relies on one invariant: a cache entry is
    only ever written after its pubkey decoded (``make_sig_checker`` puts a
    verdict computed from the decoded point; the batch path warms only
    triples whose pubkeys decoded before they were deferred).  A hit
    therefore implies the pubkey bytes decode, and an undecodable pubkey
    always misses and answers ``False`` here.
    """

    def checker(sig_with_type: bytes, pubkey_bytes: bytes) -> bool:
        if len(sig_with_type) < 2:
            return False
        hash_type = sig_with_type[-1]
        sig_bytes = sig_with_type[:-1]
        try:
            signature = Signature.decode(sig_bytes)
        except ValueError:
            return False
        try:
            digest = digest_of(hash_type)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if cache is not None:
            cached = cache.get(digest, pubkey_bytes, sig_bytes)
            if cached is not None:
                return cached
        try:
            pubkey = Point.decode(pubkey_bytes)
        except ValueError:
            return False
        return on_miss(pubkey, digest, signature, pubkey_bytes, sig_bytes)

    return checker


def make_sig_checker(
    tx: Transaction,
    input_index: int,
    script_code,
    sighash_cache: SighashCache | None = None,
    sig_cache=_DEFAULT_SIG_CACHE,
):
    """Build the script-engine signature callback for one input.

    The callback receives ``signature || hashtype_byte`` and a pubkey, as
    Bitcoin scripts push them, computes the corresponding sighash over the
    *spending* transaction, and verifies with ECDSA.

    ``sighash_cache`` (built per transaction) reuses serialization midstates
    across this transaction's inputs; ``sig_cache`` skips the pubkey decode
    and ECDSA entirely for `(digest, pubkey, sig)` triples already verified
    — by default the shared :func:`repro.bitcoin.sigcache.default_cache`,
    pass ``None`` to disable.
    """
    def digest_of(hash_type: int) -> bytes:
        if sighash_cache is not None:
            return sighash_cache.digest(input_index, script_code, hash_type)
        return signature_hash(tx, input_index, script_code, hash_type)

    cache = _resolve_sig_cache(sig_cache)

    def verify(pubkey, digest, signature, pubkey_bytes, sig_bytes) -> bool:
        verdict = ecdsa_verify(pubkey, digest, signature)
        if cache is not None:
            cache.put(digest, pubkey_bytes, sig_bytes, verdict)
        return verdict

    return _cached_checker(digest_of, cache, verify)


def check_tx_inputs(
    tx: Transaction,
    utxos: UTXOSet,
    height: int,
    verify_scripts: bool = True,
) -> TxValidity:
    """Validate a non-coinbase transaction against a UTXO view.

    Enforces rule 3 (inputs exist and are unspent — being *in* the table is
    being unspent), rule 4 (scripts/signatures authorize each spend), rule 1
    (value out ≤ value in, difference is the fee), plus coinbase maturity.
    """
    if tx.is_coinbase:
        raise ValidationError("coinbase cannot be validated as a spend")
    # Snapshot the obs flag once: every clock read below is guarded by this
    # same snapshot, so the deltas stay consistent even if obs.ENABLED flips
    # mid-validation (a checker callback may enable it, for instance).
    enabled = obs.ENABLED
    start = obs.clock() if enabled else 0.0
    check_transaction(tx)
    structure_done = obs.clock() if enabled else 0.0
    if enabled:
        obs.observe(
            "validation.rule_seconds", structure_done - start, rule="structure"
        )

    sighash_cache = SighashCache(tx) if verify_scripts else None
    script_time = 0.0
    script_start = 0.0
    value_in = 0
    spent_scripts = []
    for index, txin in enumerate(tx.vin):
        entry = utxos.get(txin.prevout)
        if entry is None:
            raise ValidationError(f"missing or spent input {txin.prevout}")
        if entry.is_coinbase and height - entry.height < COINBASE_MATURITY:
            raise ValidationError("premature spend of coinbase output")
        value_in += entry.output.value
        script_code = entry.output.script_pubkey
        spent_scripts.append(script_code)
        if verify_scripts:
            checker = make_sig_checker(
                tx, index, script_code, sighash_cache=sighash_cache
            )
            if enabled:
                script_start = obs.clock()
            authorized = execute_script(txin.script_sig, script_code, checker)
            if enabled:
                script_time += obs.clock() - script_start
            if not authorized:
                raise ValidationError(f"script validation failed on input {index}")

    value_out = tx.total_output_value()
    if value_out > value_in:
        raise ValidationError("outputs exceed inputs")
    if enabled:
        end = obs.clock()
        obs.inc("validation.tx_total")
        obs.observe("validation.rule_seconds", script_time, rule="scripts")
        obs.observe(
            "validation.rule_seconds",
            end - structure_done - script_time,
            rule="inputs",
        )
    return TxValidity(
        fee=value_in - value_out, spent_scripts=tuple(spent_scripts)
    )


# ----------------------------------------------------------------------
# Parallel script verification (block connect)
# ----------------------------------------------------------------------

# One unit of script work: (spending tx, input index, scriptPubKey spent).
ScriptJob = tuple[Transaction, int, Script]


def _verify_job_group(
    tx: Transaction,
    items: list[tuple[int, Script]],
    sig_cache=_DEFAULT_SIG_CACHE,
) -> tuple[bool, str | None]:
    """Verify one transaction's script jobs sharing a single SighashCache."""
    cache = SighashCache(tx)
    for index, script_code in items:
        checker = make_sig_checker(
            tx, index, script_code, sighash_cache=cache, sig_cache=sig_cache
        )
        try:
            ok = execute_script(tx.vin[index].script_sig, script_code, checker)
        except ValidationError as exc:
            return False, str(exc)
        if not ok:
            return False, f"script validation failed on input {index}"
    return True, None


def _pool_worker(payload: tuple[bytes, list[tuple[int, bytes]]]):
    """Process-pool entry point: verify one transaction's inputs.

    Ships bytes, not objects, so the payload pickles cheaply; the worker
    reparses and verifies with its own per-transaction SighashCache.  (With
    the default fork start method, workers also inherit a copy of whatever
    the parent's shared sigcache held when the pool started.)
    """
    tx_bytes, jobs = payload
    tx = Transaction.parse(tx_bytes)
    items = [(index, Script.parse(script_bytes)) for index, script_bytes in jobs]
    return _verify_job_group(tx, items)


class ParallelScriptVerifier:
    """Fan block-connect script checks across a worker pool.

    ``workers=1`` (the default) verifies serially in-process — no pool, and
    full benefit from the shared signature cache.  With ``workers > 1`` a
    persistent ``ProcessPoolExecutor`` verifies per-transaction batches;
    results are consumed in submission order, so the *first* failure
    reported is deterministic (earliest transaction, then earliest input)
    regardless of worker scheduling.
    """

    def __init__(self, workers: int = 1):
        self.workers = max(1, int(workers))
        self._executor: concurrent.futures.ProcessPoolExecutor | None = None

    @staticmethod
    def _grouped(jobs: list[ScriptJob]) -> list[tuple[Transaction, list[tuple[int, Script]]]]:
        groups: list[tuple[Transaction, list[tuple[int, Script]]]] = []
        for tx, index, script_code in jobs:
            if groups and groups[-1][0] is tx:
                groups[-1][1].append((index, script_code))
            else:
                groups.append((tx, [(index, script_code)]))
        return groups

    def verify_all(self, jobs: list[ScriptJob]) -> None:
        """Verify every job; raise :class:`ValidationError` on first failure."""
        if not jobs:
            return
        groups = self._grouped(jobs)
        if self.workers == 1:
            for tx, items in groups:
                ok, message = _verify_job_group(tx, items)
                if not ok:
                    raise ValidationError(message)
            return
        payloads = [
            (
                tx.serialize(),
                [(index, code.serialize()) for index, code in items],
            )
            for tx, items in groups
        ]
        executor = self._ensure_executor()
        try:
            for ok, message in executor.map(_pool_worker, payloads):
                if not ok:
                    raise ValidationError(message)
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died mid-block (OOM kill, crash, deliberate fault
            # injection).  The executor is unusable, but the block still
            # deserves a verdict: discard the pool and re-verify every
            # group serially in-process.  Script checks are pure, so the
            # re-run cannot disagree with work the dead pool completed.
            self._executor = None
            executor.shutdown(wait=False, cancel_futures=True)
            if obs.ENABLED:
                obs.inc("script.pool_broken_total")
                obs.emit("script.pool_broken", groups=len(groups))
            for tx, items in groups:
                ok, message = _verify_job_group(tx, items)
                if not ok:
                    raise ValidationError(message)

    def _ensure_executor(self) -> concurrent.futures.ProcessPoolExecutor:
        if self._executor is None:
            self._executor = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers
            )
        return self._executor

    def close(self) -> None:
        """Shut the worker pool down (idempotent; pool restarts on demand)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None


# ----------------------------------------------------------------------
# Batched ECDSA verification (block connect, single-process)
# ----------------------------------------------------------------------

# Script shapes whose single CHECKSIG verdict may be deferred into a batch.
# Multisig needs its verdicts *inline* (the interpreter walks key/sig lists
# based on each result), so it always verifies serially.
_BATCHABLE_TYPES = (ScriptType.P2PK, ScriptType.P2PKH)


def _make_collecting_checker(
    input_index: int,
    script_code,
    sighash_cache: SighashCache,
    cache,
    pending: list,
):
    """A sig checker that defers the ECDSA verify into a batch.

    It shares :func:`_cached_checker`'s prologue: DER decoding and the
    sighash run eagerly (their failures are deterministic and cheap), the
    signature cache answers hits, and only misses decode the pubkey.  A
    miss whose pubkey decodes joins ``pending`` as
    ``(pubkey, digest, signature, pubkey_bytes, sig_bytes)``, and the
    checker answers **True optimistically** — the batch equation is the
    authority, and any batch failure triggers the authoritative serial
    re-run in :func:`verify_scripts_batched`.
    """

    def digest_of(hash_type: int) -> bytes:
        return sighash_cache.digest(input_index, script_code, hash_type)

    def defer(pubkey, digest, signature, pubkey_bytes, sig_bytes) -> bool:
        pending.append((pubkey, digest, signature, pubkey_bytes, sig_bytes))
        return True  # optimistic: the batch verdict below is the authority

    return _cached_checker(digest_of, cache, defer)


def verify_scripts_batched(
    jobs: list[ScriptJob], sig_cache=_DEFAULT_SIG_CACHE
) -> None:
    """Verify block-connect script jobs with batched ECDSA.

    Single-key scripts (P2PK/P2PKH — one CHECKSIG whose verdict is the
    script's verdict) run the interpreter with a *collecting* checker:
    sigcache hits answer immediately, misses defer into one
    ``(pubkey, digest, signature)`` batch checked by a single multi-scalar
    multiplication.  Everything else verifies inline exactly as the serial
    path does.

    Any failure anywhere — a script that fails structurally, an inline
    check, or a batch that does not sum to infinity — discards the
    optimistic results and re-runs **every** group through
    :func:`_verify_job_group`, so the error raised is bit-identical to the
    serial path's first error (earliest transaction, earliest input).  A
    fully green batch warms the signature cache, so the mempool→block
    re-validation of the same signatures stays cache-hits.
    """
    if not jobs:
        return
    groups = ParallelScriptVerifier._grouped(jobs)
    cache = _resolve_sig_cache(sig_cache)
    pending: list[tuple[Point, bytes, Signature, bytes, bytes]] = []
    optimistic_ok = True
    try:
        for tx, items in groups:
            shared = SighashCache(tx)
            for index, script_code in items:
                if classify(script_code).type in _BATCHABLE_TYPES:
                    checker = _make_collecting_checker(
                        index, script_code, shared, cache, pending
                    )
                else:
                    checker = make_sig_checker(
                        tx,
                        index,
                        script_code,
                        sighash_cache=shared,
                        sig_cache=sig_cache,
                    )
                if not execute_script(
                    tx.vin[index].script_sig, script_code, checker
                ):
                    optimistic_ok = False
                    break
            if not optimistic_ok:
                break
    except ValidationError:
        # A sighash error surfaced mid-collection; the serial re-run below
        # reproduces it (or an earlier failure) deterministically.
        optimistic_ok = False
    if optimistic_ok and pending:
        if obs.ENABLED:
            obs.inc("script.batch_collected_total", len(pending))
        verdicts = batch_verify(
            [(pubkey, digest, sig) for pubkey, digest, sig, _, _ in pending]
        )
        if all(verdicts):
            if cache is not None:
                # The batch proved every deferred triple: warm the shared
                # sigcache so revalidation never re-runs the math.
                for _, digest, _, pubkey_bytes, sig_bytes in pending:
                    cache.put(digest, pubkey_bytes, sig_bytes, True)
        else:
            optimistic_ok = False
    if optimistic_ok:
        return
    # Authoritative serial pass: same grouping and order as
    # ParallelScriptVerifier.verify_all(workers=1), so the first error is
    # the same error serial validation would raise.
    if obs.ENABLED:
        obs.inc("script.batch_fallback_total")
    for tx, items in groups:
        ok, message = _verify_job_group(tx, items, sig_cache=sig_cache)
        if not ok:
            raise ValidationError(message)
