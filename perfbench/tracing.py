"""The traced run: spans around each layer's public functions, recorded
from the benchmark's own files.

``Tracer.install`` wraps every name in ``SPANS`` and ``COUNTS`` where its
callers look it up: a function is rebound in every loaded ``repro``
module that holds it (so ``from X import f`` bindings are caught), a
method is replaced on its class.  Each span records its name, start,
end and parent span; spans stay in memory in flat arrays and are written
out when the run ends.  A span's self time is its duration minus the
part of it its child spans cover.  For a recursive checker only the
outermost call records a span.
"""

from __future__ import annotations

import importlib
import json
from contextlib import contextmanager
import sys
import time
from array import array
from pathlib import Path

#: (span name, "module:qualname" targets, outermost call only)
SPANS = [
    ("network", ["repro.bitcoin.network:Simulation.run_until",
                 "repro.bitcoin.network:Simulation.run_while"], False),
    ("mempool.accept", ["repro.bitcoin.mempool:Mempool.accept"], False),
    ("mempool.revalidate", ["repro.bitcoin.mempool:Mempool.revalidate"], False),
    ("validation.check_tx_inputs",
     ["repro.bitcoin.validation:check_tx_inputs"], False),
    ("script.execute", ["repro.bitcoin.script:execute_script"], False),
    ("crypto.pubkey_decode", ["repro.crypto.secp256k1:Point.decode"], False),
    ("crypto.ecdsa_verify", ["repro.crypto.ecdsa:verify",
                             "repro.crypto.ecdsa:batch_verify"], False),
    ("crypto.ecdsa_sign", ["repro.crypto.ecdsa:sign"], False),
    ("chain.add_block", ["repro.bitcoin.chain:Blockchain.add_block"], False),
    ("utxo.apply", ["repro.bitcoin.utxo:UTXOSet.apply_block_txs",
                    "repro.bitcoin.utxo_cache:UTXOCache.apply_block_txs"], False),
    ("compact.from_block",
     ["repro.bitcoin.compact:CompactBlock.from_block"], False),
    ("compact.reconstruct", ["repro.bitcoin.compact:reconstruct"], False),
    ("miner.assemble", ["repro.bitcoin.miner:Miner.assemble"], False),
    ("store.append", ["repro.store.store:BlockStore.append_connect"], False),
    ("store.snapshot", ["repro.store.store:BlockStore.write_snapshot"], False),
    ("store.recover", ["repro.store.recovery:recover_chain"], False),
    ("wallet.create_tx",
     ["repro.bitcoin.wallet:Wallet.create_transaction"], False),
    ("regtest.confirm", ["repro.bitcoin.regtest:RegtestNetwork.confirm"], False),
    ("core.submit", ["repro.core.wallet:TypecoinClient.submit"], False),
    ("core.check_tx",
     ["repro.core.validate:check_typecoin_transaction"], False),
    ("core.referenced_txids",
     ["repro.core.transaction:referenced_txids"], False),
    ("core.claim_bundle", ["repro.core.wallet:TypecoinClient.claim_bundle"], False),
    ("lf.typecheck", ["repro.lf.typecheck:check_kind",
                      "repro.lf.typecheck:infer_kind",
                      "repro.lf.typecheck:check_family_is_type",
                      "repro.lf.typecheck:infer_type",
                      "repro.lf.typecheck:check_type"], True),
    ("logic.check", ["repro.logic.checker:check_proof",
                     "repro.logic.checker:infer",
                     "repro.logic.checker:check_prop_formation",
                     "repro.logic.checker:check_condition_formation"], True),
    ("service.verify",
     ["repro.service.server:VerificationService.verify"], False),
]

#: (counter name, "module:qualname") counted without a span.
COUNTS = [
    ("codec.script_serialize", "repro.bitcoin.script:Script.serialize"),
    ("codec.tx_serialize", "repro.bitcoin.transaction:Transaction.serialize"),
    ("chain.median_time_past",
     "repro.bitcoin.chain:Blockchain.median_time_past"),
]

#: Modules imported before patching, so lazily imported ones are caught.
MODULES = [
    "repro.bitcoin.network", "repro.bitcoin.sync", "repro.bitcoin.mempool",
    "repro.bitcoin.validation", "repro.bitcoin.chain", "repro.bitcoin.compact",
    "repro.bitcoin.utxo_cache", "repro.bitcoin.regtest", "repro.bitcoin.wallet",
    "repro.crypto.keys", "repro.store", "repro.store.recovery",
    "repro.core", "repro.core.verifier", "repro.core.wallet",
    "repro.service", "repro.service.pool", "repro.service.server",
    "repro.logic.checker", "repro.lf.typecheck",
]


def _resolve(target: str):
    """(owner, attribute name, raw attribute) for "module:qual.name"."""
    module_name, qualname = target.split(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span (children may nest, abut or overlap)."""
    children: dict[int, list[int]] = {}
    for i, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(i)
    out = [ends[i] - starts[i] for i in range(len(starts))]
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        covered = 0.0
        run_start = run_end = None
        for i in sorted(kids, key=lambda k: starts[k]):
            s, e = max(starts[i], lo), min(ends[i], hi)
            if e <= s:
                continue
            if run_end is None or s > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = s, e
            else:
                run_end = max(run_end, e)
        if run_end is not None:
            covered += run_end - run_start
        out[parent] -= covered
    return out


class Tracer:
    """Span and counter recorder around the program's public functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patches: list = []
        self._depth: dict[str, int] = {}
        self._seen_deliveries: set = set()
        self.paused_s = 0.0  # time spent in the benchmark's own checks

    # -- recording -----------------------------------------------------

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def _span_wrapper(self, name: str, fn, outermost: bool):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        starts, ends, parents, name_of = (
            self.starts, self.ends, self.parents, self.name_of
        )
        stack, depth, clock = self._stack, self._depth, time.perf_counter
        depth.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            if outermost and depth[name]:
                return fn(*args, **kwargs)
            index = len(starts)
            name_of.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            depth[name] += 1
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
                depth[name] -= 1

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ----------------------------------------------------

    def _rebind(self, owner, attr: str, raw, wrapped) -> None:
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(wrapped)
            self._patches.append((owner, attr, raw, wrapped))
            setattr(owner, attr, wrapped)
            return
        # A module-level function: rebind it wherever a repro module holds it.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for key, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, key, raw, wrapped))
                    setattr(module, key, wrapped)

    def _wrap(self, target: str, make):
        owner, attr, raw = _resolve(target)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        self._rebind(owner, attr, raw, make(fn))

    def install(self) -> None:
        for module in MODULES:
            importlib.import_module(module)
        for name, targets, outermost in SPANS:
            for target in targets:
                self._wrap(
                    target,
                    lambda fn, n=name, o=outermost: self._span_wrapper(n, fn, o),
                )
        for name, target in COUNTS:
            self._wrap(target, lambda fn, n=name: self._count_wrapper(n, fn))
        self._install_observers()

    def _install_observers(self) -> None:
        """Counters that need a call's arguments or result."""
        from repro.bitcoin.mempool import Mempool, MempoolError
        from repro.bitcoin.network import Node
        from repro.bitcoin.sigcache import SignatureCache

        def accept(original):
            def wrapper(pool, tx):
                try:
                    return original(pool, tx)
                except MempoolError:
                    self.add("mempool.accept.rejects")
                    raise
            return wrapper

        def revalidate(original):
            def wrapper(pool):
                self.add("mempool.revalidate.txs_checked", len(pool))
                return original(pool)
            return wrapper

        def sig_get(original):
            def wrapper(cache, digest, pubkey, sig):
                verdict = original(cache, digest, pubkey, sig)
                self.add("sigcache.lookups")
                if verdict is not None:
                    self.add("sigcache.hits")
                return verdict
            return wrapper

        def send_to(original):
            def wrapper(node, peer, action, msg, size=0):
                self.add("network.msgs_sent")
                self.add("network.bytes_sent", size)
                self.add(f"network.msgs.{msg}")
                return original(node, peer, action, msg, size)
            return wrapper

        def delivery(original, key_of):
            def wrapper(node, obj, origin=None, hop=0):
                if origin is not None:
                    key = (node.name, key_of(obj))
                    self.add("network.deliveries")
                    if key in self._seen_deliveries:
                        self.add("network.redundant")
                    else:
                        self._seen_deliveries.add(key)
                return original(node, obj, origin, hop)
            return wrapper

        from repro.bitcoin import compact

        def reconstruct(original):
            def wrapper(cb, mempool):
                result = original(cb, mempool)
                self.add("compact.short_ids", len(cb.short_ids))
                self.add("compact.mempool_hits",
                         len(cb.short_ids) - len(result.missing))
                return result
            return wrapper

        observers = [
            (Mempool, "accept", accept),
            (Mempool, "revalidate", revalidate),
            (SignatureCache, "get", sig_get),
            (Node, "send_to", send_to),
            (Node, "submit_transaction",
             lambda f: delivery(f, lambda tx: tx.txid)),
            (Node, "submit_block", lambda f: delivery(f, lambda b: b.hash)),
            (Node, "submit_compact_block",
             lambda f: delivery(f, lambda cb: cb.hash)),
        ]
        for owner, attr, make in observers:
            raw = owner.__dict__[attr]
            self._rebind(owner, attr, raw, make(raw))
        # ``reconstruct`` is a module function: wrap the current (span)
        # binding so the observer sits outside the span.
        self._rebind(compact, "reconstruct", compact.reconstruct,
                     reconstruct(compact.reconstruct))

    def uninstall(self) -> None:
        for owner, attr, raw, _wrapped in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks unrecorded."""
        start = time.perf_counter()
        for owner, attr, raw, _wrapped in reversed(self._patches):
            setattr(owner, attr, raw)
        try:
            yield
        finally:
            for owner, attr, _raw, wrapped in self._patches:
                setattr(owner, attr, wrapped)
            self.paused_s += time.perf_counter() - start

    # -- reporting -----------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self (busy) time."""
        own = self_times(self.starts, self.ends, self.parents)
        table = {name: {"calls": 0, "total_s": 0.0, "busy_s": 0.0}
                 for name in self.names}
        for i, name_id in enumerate(self.name_of):
            row = table[self.names[name_id]]
            row["calls"] += 1
            row["total_s"] += self.ends[i] - self.starts[i]
            row["busy_s"] += own[i]
        return table

    def write(self, path: Path) -> None:
        """Spans as flat binary arrays plus a JSON index of names."""
        path.mkdir(parents=True, exist_ok=True)
        for field in ("name_of", "starts", "ends", "parents"):
            with open(path / f"{field}.bin", "wb") as fh:
                getattr(self, field).tofile(fh)
        (path / "index.json").write_text(
            json.dumps({"names": self.names, "counts": self.counts,
                        "spans": len(self.starts)})
        )
