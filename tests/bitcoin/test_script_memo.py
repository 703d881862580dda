"""The per-chain memo of scripts verified at admission.

``Mempool._accept`` records, on its own chain, the scriptPubKeys each
admitted transaction's inputs spent; ``Blockchain._connect_inner`` skips
a transaction's script checks when it connects the same transaction
spending equal scriptPubKeys.  These tests pin what makes that sound:
the memo belongs to one chain, it misses when the spent scripts differ,
it never holds a transaction that failed admission, it stays bounded,
and over seeded accept/mine/reorg/reinject sequences a chain that uses it
reaches the same tips, UTXO set and verdicts as a chain that never
admitted anything.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from repro.bitcoin import chain as chain_module
from repro.bitcoin import validation
from repro.bitcoin.block import build_block
from repro.bitcoin.chain import Blockchain, ChainParams
from repro.bitcoin.mempool import MempoolError, MempoolValidationError
from repro.bitcoin.miner import Miner
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import Script, Transaction, TxIn, TxOut
from repro.bitcoin.utxo import COINBASE_MATURITY
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet

TIME_STEP = 600


@pytest.fixture
def script_runs(monkeypatch):
    """Count every script execution (admission and block connect)."""
    runs = []
    original = validation.execute_script

    def counting(script_sig, script_pubkey, checker):
        runs.append(script_pubkey)
        return original(script_sig, script_pubkey, checker)

    monkeypatch.setattr(validation, "execute_script", counting)
    return runs


def _funded(seed=b"memo", wallets=3):
    net = RegtestNetwork(block_time_step=TIME_STEP)
    owners = [Wallet.from_seed(seed + b"-%d" % i) for i in range(wallets)]
    for owner in owners:
        net.generate(3, owner.key_hash)
    net.confirm(COINBASE_MATURITY)
    return net, owners


def _replica(net):
    """A chain that never admitted anything, fed ``net``'s blocks."""
    chain = Blockchain(ChainParams.regtest())
    for block in net.chain.export_active():
        assert chain.add_block(block)
    return chain


def _spend(wallet, coin, payee, fee=10_000):
    tx = Transaction(
        vin=[TxIn(coin.outpoint)],
        vout=[TxOut(coin.output.value - fee, p2pkh_script(payee.key_hash))],
    )
    return wallet.sign_all(tx, [coin.output.script_pubkey])


def _corrupt(tx):
    """``tx`` with its first signature's first byte flipped."""
    sig, *rest = tx.vin[0].script_sig.elements
    bad = Script([bytes([sig[0] ^ 0x01]) + sig[1:], *rest])
    return Transaction(
        [replace(tx.vin[0], script_sig=bad), *tx.vin[1:]],
        tx.vout,
        version=tx.version,
        locktime=tx.locktime,
    )


def _block(chain, txs, extra_nonce, prev_hash=None, timestamp=None):
    """A ground block on ``prev_hash`` (default: the tip) holding ``txs``."""
    prev_hash = prev_hash or chain.tip.block.hash
    prev = chain.entry(prev_hash)
    miner = Miner(chain, Wallet.from_seed(b"memo-miner").key_hash)
    if timestamp is None:
        timestamp = prev.block.header.timestamp + TIME_STEP
    block = build_block(
        prev_hash=prev_hash,
        txs=[miner.make_coinbase(prev.height + 1, 0, extra_nonce)] + txs,
        timestamp=timestamp,
        bits=chain.required_bits(prev_hash),
    )
    return miner.grind(block)


def _verdict(chain, block):
    try:
        return ("ok", chain.add_block(block))
    except ValidationError as exc:
        return ("rejected", str(exc))


def _utxo_digest(chain):
    rows = sorted(
        (
            op.txid,
            op.index,
            entry.output.value,
            entry.output.script_pubkey.serialize(),
            entry.height,
            entry.is_coinbase,
        )
        for op, entry in chain.utxos.items()
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_memo_is_per_chain():
    a, _ = _funded()
    b, _ = _funded()
    assert a.chain._verified_scripts is not b.chain._verified_scripts


def test_one_nodes_admissions_never_let_another_skip(script_runs):
    """Node A admits a transaction; node B never saw it.  When both
    connect the block confirming it, only A skips the scripts."""
    net, (alice, bob, _) = _funded()
    b_chain = _replica(net)
    tx = _spend(alice, alice.spendables(net.chain)[0], bob)
    net.send(tx)
    assert tx.txid in net.chain._verified_scripts
    assert tx.txid not in b_chain._verified_scripts

    script_runs.clear()
    block = net.confirm()[0]
    assert list(block.txs[1:]) == [tx]
    assert script_runs == []  # A ran these scripts at admission
    assert tx.txid not in net.chain._verified_scripts  # popped on connect

    assert b_chain.add_block(block)
    assert len(script_runs) == len(tx.vin)  # B runs every one


def test_edited_spent_script_misses_and_rejects_like_memo_free_chain(
    script_runs,
):
    """A hand-edited scriptPubKey under a memoized txid: the memo misses,
    the scripts run and fail, and the block is rejected exactly as by a
    chain that never admitted the transaction."""
    net, (alice, bob, carol) = _funded()
    oracle = _replica(net)
    coin = alice.spendables(net.chain)[0]
    tx = _spend(alice, coin, bob)
    net.send(tx)
    assert tx.txid in net.chain._verified_scripts
    edited = p2pkh_script(carol.key_hash)
    for chain in (net.chain, oracle):
        entry = chain.utxos.remove(coin.outpoint)
        chain.utxos.add(
            coin.outpoint,
            replace(entry, output=TxOut(entry.output.value, edited)),
        )
    block = _block(net.chain, [tx], extra_nonce=1)
    tip = net.chain.tip.block.hash

    script_runs.clear()
    verdict = _verdict(net.chain, block)
    assert verdict[0] == "rejected"
    assert script_runs == [edited]  # the memo missed; the script ran
    assert verdict == _verdict(oracle, block)
    assert net.chain.tip.block.hash == oracle.tip.block.hash == tip
    assert net.chain.entry(block.hash).invalid
    assert oracle.entry(block.hash).invalid


def test_failed_admission_is_never_memoized(script_runs):
    net, (alice, bob, carol) = _funded()
    coins = alice.spendables(net.chain)
    # Scripts pass but the fee is below the relay minimum.
    cheap = _spend(alice, coins[0], bob, fee=1)
    # A corrupted signature.
    forged = _corrupt(_spend(alice, coins[1], bob))
    # Valid, then its double spend.
    first = _spend(alice, coins[2], bob)
    double = _spend(alice, coins[2], carol, fee=20_000)
    net.send(first)
    for tx, error in (
        (cheap, MempoolError),
        (forged, MempoolValidationError),
        (double, MempoolError),
    ):
        with pytest.raises(error):
            net.send(tx)
        assert tx.txid not in net.chain._verified_scripts
    assert list(net.chain._verified_scripts) == [first.txid]

    # Mined anyway, the refused transaction's scripts run at connect.
    block = _block(net.chain, [cheap], extra_nonce=2)
    script_runs.clear()
    assert net.chain.add_block(block)
    assert len(script_runs) == len(cheap.vin)


def test_memo_is_bounded(monkeypatch, script_runs):
    net, wallets = _funded()
    chain = net.chain
    cap = chain_module.SCRIPT_MEMO_MAX
    for i in range(cap + 50):
        chain.remember_verified_scripts(i.to_bytes(32, "little"), ())
        assert len(chain._verified_scripts) <= cap
    # The oldest entries went first.
    assert (0).to_bytes(32, "little") not in chain._verified_scripts
    assert (cap + 49).to_bytes(32, "little") in chain._verified_scripts

    # A flood of real admissions past a small cap.
    monkeypatch.setattr(chain_module, "SCRIPT_MEMO_MAX", 3)
    chain._verified_scripts.clear()
    flood = [
        _spend(wallet, coin, wallets[0])
        for wallet in wallets
        for coin in wallet.spendables(chain)
    ]
    assert len(flood) > 3
    for tx in flood:
        net.send(tx)
        assert len(chain._verified_scripts) <= 3
    assert list(chain._verified_scripts) == [tx.txid for tx in flood[-3:]]
    # Connect re-runs exactly the scripts of the forgotten admissions.
    script_runs.clear()
    net.confirm()
    assert len(script_runs) == sum(len(tx.vin) for tx in flood[:-3])


class Scenario:
    """A node (chain + mempool, memo in use) and a memo-free oracle chain
    fed the same blocks in the same order."""

    def __init__(self, seed, script_runs):
        self.rng = random.Random(seed)
        self.net, self.wallets = _funded(b"memo-diff", wallets=3)
        self.chain = self.net.chain
        self.pool = self.net.mempool
        self.oracle = _replica(self.net)
        self.runs = script_runs
        self.node_runs = 0
        self.oracle_runs = 0
        self.rejections = 0
        self.extra_nonce = 100

    def _coins(self):
        taken = set(self.pool.spent_outpoints())
        return [
            (wallet, coin)
            for wallet in self.wallets
            for coin in wallet.spendables(self.chain)
            if coin.outpoint not in taken
        ]

    def _fresh_spend(self):
        wallet, coin = self.rng.choice(self._coins())
        payee = self.rng.choice(self.wallets)
        return _spend(wallet, coin, payee, fee=10_000 + self.rng.randrange(999))

    def _submit(self, block):
        """Add ``block`` to both chains; their verdicts must agree."""
        self.extra_nonce += 1
        before = len(self.runs)
        verdict = _verdict(self.chain, block)
        middle = len(self.runs)
        assert verdict == _verdict(self.oracle, block)
        self.node_runs += middle - before
        self.oracle_runs += len(self.runs) - middle
        if verdict[0] == "ok":
            self.pool.remove_confirmed(list(block.txs))
        else:
            self.rejections += 1
        self.pool.revalidate()
        self.compare()
        return verdict

    def compare(self):
        assert self.chain.tip.block.hash == self.oracle.tip.block.hash
        assert _utxo_digest(self.chain) == _utxo_digest(self.oracle)

    def step_accept(self):
        for _ in range(self.rng.randint(1, 3)):
            if not self._coins():
                return
            tx = self._fresh_spend()
            if self.rng.random() < 0.2:
                with pytest.raises(MempoolValidationError):
                    self.pool.accept(_corrupt(tx))
            else:
                self.pool.accept(tx)

    def step_mine(self):
        pooled = [entry.tx for entry in self.pool.transactions()]
        self.rng.shuffle(pooled)
        txs = pooled[: self.rng.randint(0, len(pooled))]
        if self._coins() and self.rng.random() < 0.4:
            txs.append(self._fresh_spend())  # never admitted by the node
        self._submit(_block(self.chain, txs, self.extra_nonce))

    def step_mine_invalid(self):
        """A block mixing pooled transactions with a forged one."""
        pooled = [entry.tx for entry in self.pool.transactions()]
        if not self._coins():
            return
        forged = _corrupt(self._fresh_spend())
        txs = pooled[: self.rng.randint(0, len(pooled))]
        txs.insert(self.rng.randint(0, len(txs)), forged)
        self._submit(_block(self.chain, txs, self.extra_nonce))

    def step_edit_spent_script(self):
        """Edit, on both chains, a scriptPubKey a pooled tx spends; mine
        that tx; then restore the coin on both."""
        pooled = [entry.tx for entry in self.pool.transactions()]
        if not pooled:
            return
        tx = self.rng.choice(pooled)
        outpoint = tx.vin[0].prevout
        payee = self.rng.choice(self.wallets)
        saved = []
        for chain in (self.chain, self.oracle):
            entry = chain.utxos.remove(outpoint)
            saved.append((chain, entry))
            chain.utxos.add(
                outpoint,
                replace(
                    entry,
                    output=TxOut(
                        entry.output.value,
                        p2pkh_script(payee.key_hash[::-1]),
                    ),
                ),
            )
        self._submit(_block(self.chain, [tx], self.extra_nonce))
        for chain, entry in saved:
            chain.utxos.remove(outpoint)
            chain.utxos.add(outpoint, entry)
        self.compare()

    def step_reorg(self):
        """A heavier rival branch; the pool re-admits the losers."""
        depth = self.rng.randint(1, min(3, self.chain.height - 1))
        fork = self.chain.height - depth
        prev = self.chain.block_at(fork).hash
        txs = []
        pooled = [entry.tx for entry in self.pool.transactions()]
        confirmed = [
            tx
            for height in range(fork + 1, self.chain.height + 1)
            for tx in self.chain.block_at(height).txs[1:]
        ]
        if confirmed and self.rng.random() < 0.5:
            txs.append(self.rng.choice(confirmed))  # re-mined on the winner
        if pooled and self.rng.random() < 0.5:
            txs.append(self.rng.choice(pooled))
        for _ in range(depth + 1):
            block = _block(
                self.chain, txs, self.extra_nonce, prev_hash=prev,
                timestamp=self.chain.median_time_past(prev) + 1,
            )
            if self._submit(block)[0] == "rejected":
                return  # e.g. a coin not yet mature below the fork
            prev = block.hash
            txs = []
        assert self.chain.tip.block.hash == prev


STEPS = {
    "accept": (Scenario.step_accept, 5),
    "mine": (Scenario.step_mine, 4),
    "mine_invalid": (Scenario.step_mine_invalid, 1),
    "edit_spent_script": (Scenario.step_edit_spent_script, 1),
    "reorg": (Scenario.step_reorg, 2),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_memo_matches_memo_free_chain(seed, script_runs):
    scenario = Scenario(seed, script_runs)
    names = list(STEPS)
    weights = [STEPS[name][1] for name in names]
    plan = names + scenario.rng.choices(names, weights, k=40)
    scenario.rng.shuffle(plan)
    for name in plan:
        STEPS[name][0](scenario)
        scenario.compare()
    # The memo did skip work, and the run exercised rejections.
    assert scenario.node_runs < scenario.oracle_runs
    assert scenario.rejections > 0
