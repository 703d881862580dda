"""Tests for the blockchain: acceptance, reorgs, UTXO/undo, queries."""

import random

import pytest

from repro.bitcoin.block import Block, build_block
from repro.bitcoin.chain import (
    MEDIAN_TIME_SPAN,
    Blockchain,
    ChainParams,
    block_subsidy,
)
from repro.bitcoin.miner import Miner
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import COIN, OutPoint, TxOut
from repro.bitcoin.validation import ValidationError
from repro.bitcoin.wallet import Wallet
from repro.bitcoin.regtest import RegtestNetwork


@pytest.fixture
def chain():
    return Blockchain(ChainParams.regtest())


@pytest.fixture
def miner_key():
    return Wallet.from_seed(b"chain-miner").key_hash


def mine(chain, key_hash, n=1, extra_nonce_base=0):
    miner = Miner(chain, key_hash)
    return [
        miner.mine_block(extra_nonce=extra_nonce_base + i) for i in range(n)
    ]


class TestBasics:
    def test_genesis_is_deterministic(self):
        a = Blockchain(ChainParams.regtest())
        b = Blockchain(ChainParams.regtest())
        assert a.genesis.hash == b.genesis.hash
        assert a.height == 0

    def test_mining_extends_chain(self, chain, miner_key):
        blocks = mine(chain, miner_key, 3)
        assert chain.height == 3
        assert chain.tip.block.hash == blocks[-1].hash

    def test_duplicate_block_is_noop(self, chain, miner_key):
        [block] = mine(chain, miner_key, 1)
        assert chain.add_block(block)
        assert chain.height == 1

    def test_orphan_rejected(self, chain, miner_key):
        other = Blockchain(ChainParams.regtest())
        mine(other, miner_key, 2)
        orphan = other.tip.block
        with pytest.raises(ValidationError, match="orphan"):
            chain.add_block(orphan)

    def test_subsidy_halving(self):
        assert block_subsidy(0) == 50 * COIN
        assert block_subsidy(209_999) == 50 * COIN
        assert block_subsidy(210_000) == 25 * COIN
        assert block_subsidy(420_000) == 12.5 * COIN
        assert block_subsidy(64 * 210_000) == 0

    def test_bad_pow_rejected(self, chain, miner_key):
        miner = Miner(chain, miner_key)
        template = miner.assemble()
        # Find a nonce that does NOT meet the target.
        nonce = 0
        while template.header.with_nonce(nonce).meets_target():
            nonce += 1
        bad = Block(template.header.with_nonce(nonce), template.txs)
        with pytest.raises(ValidationError, match="proof of work"):
            chain.add_block(bad)

    def test_greedy_coinbase_rejected(self, chain, miner_key):
        miner = Miner(chain, miner_key)
        template = miner.assemble()
        greedy_coinbase = miner.make_coinbase(1, fees=COIN)  # claims phantom fees
        from repro.bitcoin.block import build_block

        block = build_block(
            template.header.prev_hash,
            [greedy_coinbase],
            template.header.timestamp,
            template.header.bits,
        )
        block = miner.grind(block)
        with pytest.raises(ValidationError, match="coinbase pays more"):
            chain.add_block(block)

    def test_stale_timestamp_rejected(self, chain, miner_key):
        miner = Miner(chain, miner_key)
        template = miner.assemble(timestamp=chain.median_time_past())
        block = miner.grind(template)
        with pytest.raises(ValidationError, match="median time"):
            chain.add_block(block)


class TestQueries:
    def test_transaction_lookup_and_confirmations(self, chain, miner_key):
        [block] = mine(chain, miner_key, 1)
        coinbase = block.txs[0]
        found = chain.get_transaction(coinbase.txid)
        assert found is not None
        tx, height = found
        assert tx.txid == coinbase.txid
        assert height == 1
        assert chain.confirmations(coinbase.txid) == 1
        mine(chain, miner_key, 5, extra_nonce_base=100)
        assert chain.confirmations(coinbase.txid) == 6

    def test_unknown_tx_has_zero_confirmations(self, chain):
        assert chain.confirmations(b"\x00" * 32) == 0

    def test_spent_tracking(self):
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"spent-alice")
        bob = Wallet.from_seed(b"spent-bob")
        net.fund_wallet(alice)
        coin_op = None
        for spendable in alice.spendables(net.chain):
            coin_op = spendable.outpoint
            break
        assert not net.chain.is_spent(coin_op)
        tx = alice.create_transaction(
            net.chain, [TxOut(COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm()
        assert net.chain.is_spent(coin_op)
        assert net.chain.spender_of(coin_op) == tx.txid

    def test_median_time_past_is_monotone(self, chain, miner_key):
        mtps = [chain.median_time_past()]
        for i in range(12):
            mine(chain, miner_key, 1, extra_nonce_base=i * 10)
            mtps.append(chain.median_time_past())
        assert mtps == sorted(mtps)


class TestReorg:
    def test_longer_branch_wins(self, miner_key):
        shared = Blockchain(ChainParams.regtest())
        mine(shared, miner_key, 2)

        # Build a competing branch on a copy (same genesis).
        rival_chain = Blockchain(ChainParams.regtest())
        rival_key = Wallet.from_seed(b"rival").key_hash
        rival_blocks = mine(rival_chain, rival_key, 3, extra_nonce_base=1000)

        old_tip = shared.tip.block.hash
        for block in rival_blocks:
            shared.add_block(block)
        assert shared.height == 3
        assert shared.tip.block.hash == rival_blocks[-1].hash
        assert not shared.in_active_chain(old_tip)

    def test_reorg_restores_utxos(self, miner_key):
        """A reorg must roll the UTXO set back and forward correctly."""
        net = RegtestNetwork()
        alice = Wallet.from_seed(b"reorg-alice")
        bob = Wallet.from_seed(b"reorg-bob")
        net.fund_wallet(alice)
        height_before = net.chain.height

        tx = alice.create_transaction(
            net.chain, [TxOut(2 * COIN, p2pkh_script(bob.key_hash))], fee=1000
        )
        net.send(tx)
        net.confirm(1)
        assert bob.balance(net.chain) == 2 * COIN

        # Build a heavier empty branch from before the payment.
        rival = Blockchain(ChainParams.regtest())
        rival_key = Wallet.from_seed(b"reorg-rival").key_hash
        rival_miner = Miner(rival, rival_key)
        # Reproduce the shared history by replaying blocks.
        for h in range(1, height_before + 1):
            rival.add_block(net.chain.block_at(h))
        blocks = [
            rival_miner.mine_block(extra_nonce=5000 + i) for i in range(2)
        ]
        for block in blocks:
            net.chain.add_block(block)

        # Bob's payment is gone; Alice's coin is unspent again.
        assert bob.balance(net.chain) == 0
        assert net.chain.get_transaction(tx.txid) is None
        assert not net.chain.is_spent(tx.vin[0].prevout)

    def test_shorter_branch_is_stored_but_inactive(self, miner_key):
        shared = Blockchain(ChainParams.regtest())
        mine(shared, miner_key, 3)
        rival = Blockchain(ChainParams.regtest())
        rival_blocks = mine(
            rival, Wallet.from_seed(b"loser").key_hash, 2, extra_nonce_base=99
        )
        for block in rival_blocks:
            shared.add_block(block)
        assert shared.height == 3
        assert shared.has_block(rival_blocks[-1].hash)
        assert not shared.in_active_chain(rival_blocks[-1].hash)


def walked_median_time(chain, block_hash):
    """The oracle: median-time-past by a fresh walk over the block and up
    to ten ancestors."""
    times = []
    cursor = chain.entry(block_hash)
    while cursor is not None and len(times) < MEDIAN_TIME_SPAN:
        times.append(cursor.block.header.timestamp)
        cursor = chain.entry(cursor.prev) if cursor.prev else None
    times.sort()
    return times[len(times) // 2]


class TestMedianTimeMemo:
    """Each index entry stores its median-time-past once; it must always
    equal the 11-block walk, on the active chain and on side branches."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_memo_equals_fresh_walk_after_extends_and_reorgs(
        self, seed, miner_key, tmp_path
    ):
        from repro.store import BlockStore, recover_chain

        rng = random.Random(seed)
        chain = Blockchain(ChainParams.regtest())
        chain.attach_store(BlockStore(tmp_path, snapshot_interval=7).open())
        reorgs = []
        chain.add_reorg_listener(lambda gone, won: reorgs.append(len(gone)))
        miner = Miner(chain, miner_key)
        known = [chain.genesis.hash]

        def grow(parent, nonce):
            entry = chain.entry(parent)
            block = miner.grind(
                build_block(
                    prev_hash=parent,
                    txs=[miner.make_coinbase(entry.height + 1, 0, nonce)],
                    # Jittered, often earlier than the parent's own stamp.
                    timestamp=chain.median_time_past(parent)
                    + rng.randint(1, 3_000),
                    bits=chain.required_bits(parent),
                )
            )
            chain.add_block(block)
            known.append(block.hash)
            for block_hash in known:
                assert chain.median_time_past(block_hash) == (
                    walked_median_time(chain, block_hash)
                )
            return block.hash

        nonce = 0
        for _ in range(30):
            roll = rng.random()
            nonce += 10
            if roll < 0.6 or chain.height < 4:
                grow(chain.tip.block.hash, nonce)
            elif roll < 0.8:
                grow(rng.choice(known), nonce)  # a stub side branch
            else:
                # A rival branch one block longer than the part it replaces.
                depth = rng.randint(1, 3)
                parent = chain.block_at(chain.height - depth).hash
                for i in range(depth + 1):
                    parent = grow(parent, nonce + i)
        assert reorgs
        assert chain.median_time_past() == walked_median_time(
            chain, chain.tip.block.hash
        )
        # Entries rebuilt from the durable log (index-only replay below
        # the snapshot, forward replay above it) memoize the same value.
        chain.store.close()
        restored = recover_chain(BlockStore(tmp_path).open())
        assert restored.tip.block.hash == chain.tip.block.hash
        for height in range(restored.height + 1):
            block_hash = restored.block_at(height).hash
            assert restored.median_time_past(block_hash) == (
                walked_median_time(restored, block_hash)
            ) == chain.median_time_past(block_hash)
