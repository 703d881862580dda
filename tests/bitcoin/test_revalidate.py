"""Incremental mempool revalidation, pinned to a full re-check oracle.

On a one-block extension of the tip it last left the pool consistent
with, ``Mempool.revalidate`` evicts exactly the entries that spend an
outpoint the new block spent, without re-validating anything.  Every
other case re-checks every entry.  These tests drive seeded random
sequences of accept, extend, multi-block extend, reorg and hand-edited
UTXO steps through one chain and pool, and after every step compare what
``revalidate`` evicted, and the order of what it kept, with
:func:`full_recheck`.
"""

import random

import pytest

from repro.bitcoin import mempool as mempool_module
from repro.bitcoin.block import build_block
from repro.bitcoin.mempool import MempoolError
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import Transaction, TxIn, TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.validation import ValidationError, check_tx_inputs, is_final
from repro.bitcoin.wallet import Wallet

# Main-chain blocks are this many seconds apart; rival branches step by
# one second, so a reorg onto one lowers median-time-past and strands
# time-locked entries that were final on the old branch.
TIME_STEP = 600


def full_recheck(chain, txs):
    """The oracle: every tx in ``txs`` the current tip no longer admits.

    Each tx is checked on its own against the tip's UTXO set, with the
    finality rule mempool acceptance applies; the result keeps the order
    of ``txs``.
    """
    height = chain.height + 1
    mtp = chain.median_time_past()
    evicted = []
    for tx in txs:
        try:
            if not is_final(tx, height, mtp):
                raise ValidationError("transaction is not final")
            check_tx_inputs(tx, chain.utxos, height)
        except ValidationError:
            evicted.append(tx)
    return evicted


def pooled(pool):
    """The pool's transactions in insertion order."""
    return [entry.tx for entry in pool._entries.values()]


def txids(txs):
    return [tx.txid for tx in txs]


class Scenario:
    """One chain and pool under a seeded stream of random steps."""

    def __init__(self, seed: int, monkeypatch):
        self.rng = random.Random(seed)
        self.net = RegtestNetwork(block_time_step=TIME_STEP)
        self.chain = self.net.chain
        self.pool = self.net.mempool
        self.wallets = [
            Wallet.from_seed(b"reval-%d" % i) for i in range(3)
        ]
        for wallet in self.wallets:
            self.net.generate(3, wallet.key_hash)
        self.net.confirm(COINBASE_MATURITY)
        self.miner = Miner(self.chain, Wallet.from_seed(b"reval-miner").key_hash)
        self.extra_nonce = 10_000
        # Tip hash as of the last revalidate(); None after a reorg.
        self.checked_tip = None
        self.fast_checks = 0
        self.fast_evictions = 0
        self.rechecks = []

        def counting(tx, utxos, height, verify_scripts=True):
            self.rechecks.append(tx.txid)
            return check_tx_inputs(tx, utxos, height, verify_scripts)

        monkeypatch.setattr(mempool_module, "check_tx_inputs", counting)

    # -- transactions --------------------------------------------------

    def _coins(self):
        """Spendable (wallet, coin) pairs no pooled entry spends."""
        taken = set(self.pool.spent_outpoints())
        return [
            (wallet, coin)
            for wallet in self.wallets
            for coin in wallet.spendables(self.chain)
            if coin.outpoint not in taken
        ]

    def _spend(self, wallet, coin, locktime=0):
        fee = 10_000 + self.rng.randrange(5_000)
        half = (coin.output.value - fee) // 2
        payees = [self.rng.choice(self.wallets) for _ in range(2)]
        tx = Transaction(
            vin=[TxIn(coin.outpoint, sequence=0)],
            vout=[
                TxOut(half, p2pkh_script(payees[0].key_hash)),
                TxOut(coin.output.value - fee - half,
                      p2pkh_script(payees[1].key_hash)),
            ],
            locktime=locktime,
        )
        return wallet.sign_all(tx, [coin.output.script_pubkey])

    def _conflict(self, tx):
        """A different spend of ``tx``'s coin (a pooled tx's double spend)."""
        prevout = tx.vin[0].prevout
        for wallet in self.wallets:
            for coin in wallet.spendables(self.chain):
                if coin.outpoint == prevout:
                    return self._spend(wallet, coin)
        raise AssertionError(f"no wallet owns {prevout}")

    def _live_pool(self):
        """Pooled txs whose inputs are all still unspent on the chain."""
        return [
            tx for tx in pooled(self.pool)
            if all(txin.prevout in self.chain.utxos for txin in tx.vin)
        ]

    # -- blocks --------------------------------------------------------

    def _block(self, prev_hash, txs, timestamp):
        self.extra_nonce += 1
        height = self.chain.entry(prev_hash).height + 1
        coinbase = self.miner.make_coinbase(height, 0, self.extra_nonce)
        block = build_block(
            prev_hash=prev_hash,
            txs=[coinbase] + txs,
            timestamp=timestamp,
            bits=self.chain.required_bits(prev_hash),
        )
        return self.miner.grind(block)

    def _extension(self):
        """A valid block on the tip: some live pooled txs, maybe a double
        spend of another pooled tx, maybe a fresh spend."""
        live = self._live_pool()
        self.rng.shuffle(live)
        take = self.rng.randint(0, (len(live) + 1) // 2)
        txs = live[:take]
        rest = live[take:]
        if rest and self.rng.random() < 0.6:
            txs.append(self._conflict(rest[0]))
        coins = self._coins()
        if coins and self.rng.random() < 0.5:
            txs.append(self._spend(*self.rng.choice(coins)))
        timestamp = self.chain.tip.block.header.timestamp + TIME_STEP
        return self._block(self.chain.tip.block.hash, txs, timestamp)

    def _connect(self, block):
        assert self.chain.add_block(block)
        if self.rng.random() < 0.5:
            # What a network node does first; revalidate() must evict the
            # same set either way.
            self.pool.remove_confirmed(list(block.txs))

    # -- steps ---------------------------------------------------------

    def step_accept(self):
        mtp = self.chain.median_time_past()
        for _ in range(self.rng.randint(1, 3)):
            coins = self._coins()
            if not coins:
                return
            kind = self.rng.random()
            if kind < 0.4:
                locktime = mtp - self.rng.randrange(1, TIME_STEP)
            elif kind < 0.5:
                locktime = self.chain.height - self.rng.randrange(0, 3)
            else:
                locktime = 0
            tx = self._spend(*self.rng.choice(coins), locktime=locktime)
            self.pool.accept(tx)
        live = pooled(self.pool)
        if live:
            with pytest.raises(MempoolError, match="double-spends"):
                self.pool.accept(self._conflict(self.rng.choice(live)))

    def step_extend(self):
        self._connect(self._extension())

    def step_multi_extend(self):
        for _ in range(self.rng.randint(2, 3)):
            self._connect(self._extension())

    def _spendable_at(self, outpoint, height):
        """Does a block at ``height`` on a branch forked below the tip see
        ``outpoint`` as a mature, unspent coin?"""
        entry = self.chain.utxos.get(outpoint)
        return entry.height < height and (
            not entry.is_coinbase or height - entry.height >= COINBASE_MATURITY
        )

    def step_reorg(self):
        depth = self.rng.randint(1, 4)
        fork = self.chain.height - depth
        prev = self.chain.block_at(fork).hash
        live = [
            tx for tx in pooled(self.pool)
            if all(self._spendable_at(txin.prevout, fork + 1) for txin in tx.vin)
        ]
        txs = []
        if live and self.rng.random() < 0.7:
            txs.append(self._conflict(self.rng.choice(live)))
        for _ in range(depth + 1):
            block = self._block(
                prev, txs, self.chain.median_time_past(prev) + 1
            )
            self.chain.add_block(block)
            prev = block.hash
            txs = []
        assert self.chain.tip.block.hash == prev
        if self.rng.random() < 0.5:
            self.pool.remove_confirmed(list(block.txs))
        self.checked_tip = None

    def step_hand_edit(self):
        spent = self.pool.spent_outpoints()
        if spent and self.rng.random() < 0.7:
            outpoint = self.rng.choice(spent)
        else:
            outpoint = self.rng.choice(
                sorted(op for op, _ in self.chain.utxos.items())
            )
        entry = self.chain.utxos.remove(outpoint)
        self.revalidate_and_compare()
        self.chain.utxos.add(outpoint, entry)

    # -- the comparison ------------------------------------------------

    def revalidate_and_compare(self):
        before = pooled(self.pool)
        expected = full_recheck(self.chain, before)
        fast = (
            self.checked_tip is not None
            and self.chain.tip.prev == self.checked_tip
        )
        self.rechecks.clear()
        evicted = self.pool.revalidate()
        assert txids(evicted) == txids(expected)
        gone = set(txids(expected))
        assert txids(pooled(self.pool)) == [
            tx.txid for tx in before if tx.txid not in gone
        ]
        if fast:
            # A one-block extension pays no input validation at all.
            assert self.rechecks == []
            self.fast_checks += 1
            self.fast_evictions += len(evicted)
        self.checked_tip = self.chain.tip.block.hash


STEPS = {
    "accept": (Scenario.step_accept, 4),
    "extend": (Scenario.step_extend, 5),
    "multi_extend": (Scenario.step_multi_extend, 1),
    "reorg": (Scenario.step_reorg, 2),
    "hand_edit": (Scenario.step_hand_edit, 1),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_revalidate_matches_full_recheck(seed, monkeypatch):
    scenario = Scenario(seed, monkeypatch)
    names = list(STEPS)
    weights = [STEPS[name][1] for name in names]
    # Every kind of step at least once, the rest drawn by weight.
    plan = names + scenario.rng.choices(names, weights, k=31)
    scenario.rng.shuffle(plan)
    for name in plan:
        STEPS[name][0](scenario)
        if name != "hand_edit":  # it compares while the edit is live
            scenario.revalidate_and_compare()
    assert scenario.fast_checks > 0


def test_fast_path_evicts_conflicts(monkeypatch):
    """Across the seeded runs the shortcut itself must evict something,
    or the differential above would only ever compare empty lists."""
    evictions = 0
    for seed in (1, 2, 3):
        scenario = Scenario(seed, monkeypatch)
        for _ in range(4):
            scenario.step_accept()
            scenario.revalidate_and_compare()
            scenario.step_extend()
            scenario.revalidate_and_compare()
        evictions += scenario.fast_evictions
    assert evictions > 0


def test_clear_forces_full_recheck(monkeypatch):
    scenario = Scenario(4, monkeypatch)
    scenario.step_accept()
    scenario.revalidate_and_compare()
    scenario.pool.clear()
    tx = scenario._spend(*scenario._coins()[0])
    scenario.pool.accept(tx)
    tip = scenario.chain.tip.block
    scenario.chain.add_block(
        scenario._block(tip.hash, [], tip.header.timestamp + TIME_STEP)
    )
    scenario.rechecks.clear()
    assert scenario.pool.revalidate() == []
    # After clear() the pool vouches for no tip, so even a one-block
    # extension re-checks every entry.
    assert scenario.rechecks == [tx.txid]
