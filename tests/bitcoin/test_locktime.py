"""Tests for nLockTime finality (the native deadline mechanism of §8)."""

import dataclasses

import pytest

from repro.bitcoin.mempool import MempoolError
from repro.bitcoin.regtest import RegtestNetwork
from repro.bitcoin.standard import p2pkh_script
from repro.bitcoin.transaction import (
    COIN,
    SEQUENCE_FINAL,
    Transaction,
    TxIn,
    TxOut,
)
from repro.bitcoin.validation import LOCKTIME_THRESHOLD, is_final
from repro.bitcoin.wallet import Wallet


@pytest.fixture
def funded():
    net = RegtestNetwork()
    alice = Wallet.from_seed(b"lt-alice")
    net.fund_wallet(alice)
    return net, alice


def locked_tx(net, alice, locktime, sequence=0):
    """A signed payment with the given locktime and input sequence."""
    spendable = alice.spendables(net.chain)[0]
    tx = Transaction(
        vin=[TxIn(spendable.outpoint, sequence=sequence)],
        vout=[TxOut(spendable.output.value - 100_000,
                    p2pkh_script(alice.key_hash))],
        locktime=locktime,
    )
    return alice.sign_all(tx, [spendable.output.script_pubkey])


class TestFinality:
    def test_zero_locktime_always_final(self):
        from repro.bitcoin.transaction import OutPoint

        tx = Transaction(
            [TxIn(OutPoint(b"\x01" * 32, 0), sequence=0)],
            [TxOut(1, p2pkh_script(b"\x00" * 20))],
            locktime=0,
        )
        assert is_final(tx, height=1, block_time=0)

    def test_height_locktime(self, funded):
        net, alice = funded
        tx = locked_tx(net, alice, locktime=200)
        assert not is_final(tx, height=150, block_time=0)
        assert not is_final(tx, height=200, block_time=0)
        assert is_final(tx, height=201, block_time=0)

    def test_time_locktime(self, funded):
        net, alice = funded
        deadline = LOCKTIME_THRESHOLD + 1_000
        tx = locked_tx(net, alice, locktime=deadline)
        assert not is_final(tx, height=10**6, block_time=deadline - 1)
        assert is_final(tx, height=0, block_time=deadline + 1)

    def test_final_sequences_disable_locktime(self, funded):
        net, alice = funded
        tx = locked_tx(net, alice, locktime=10**6, sequence=SEQUENCE_FINAL)
        assert is_final(tx, height=1, block_time=0)


class TestEnforcement:
    def test_mempool_rejects_immature(self, funded):
        net, alice = funded
        tx = locked_tx(net, alice, locktime=net.chain.height + 100)
        with pytest.raises(MempoolError, match="not final"):
            net.send(tx)

    def test_mempool_accepts_after_deadline(self, funded):
        net, alice = funded
        target = net.chain.height + 5
        tx = locked_tx(net, alice, locktime=target)
        net.confirm(6)  # advance past the height lock
        net.send(tx)
        net.confirm(1)
        assert net.confirmations(tx.txid) == 1

    def test_block_with_nonfinal_tx_rejected(self, funded):
        """Even a miner cannot include a non-final transaction."""
        from repro.bitcoin.block import build_block
        from repro.bitcoin.miner import Miner
        from repro.bitcoin.validation import ValidationError

        net, alice = funded
        tx = locked_tx(net, alice, locktime=net.chain.height + 100)
        miner = Miner(net.chain, alice.key_hash)
        coinbase = miner.make_coinbase(net.chain.height + 1, fees=100_000)
        template = build_block(
            net.chain.tip.block.hash,
            [coinbase, tx],
            timestamp=net.chain.median_time_past() + 1,
            bits=net.chain.required_bits(net.chain.tip.block.hash),
        )
        block = miner.grind(template)
        with pytest.raises(ValidationError, match="non-final"):
            net.chain.add_block(block)

    def test_refund_contract_pattern(self, funded):
        """The §8 pattern: a pre-signed refund that only becomes valid
        after a deadline — 'Bitcoin can do it natively'."""
        net, alice = funded
        refund_height = net.chain.height + 3
        refund = locked_tx(net, alice, locktime=refund_height)
        # Too early: the network refuses the refund.
        with pytest.raises(MempoolError):
            net.send(refund)
        # After the deadline it goes through unchanged.
        net.confirm(4)
        net.send(refund)
        net.confirm(1)
        assert net.confirmations(refund.txid) == 1


class TestReorgFinality:
    def test_reorg_to_earlier_median_time_evicts_time_locked(self):
        """A time lock that was final on the old branch can be non-final on
        a heavier branch whose median-time-past is earlier.  Revalidation
        after the reorg must evict it, or the next template carries a
        transaction the node's own chain rejects."""
        from repro.bitcoin.block import build_block
        from repro.bitcoin.miner import Miner

        net = RegtestNetwork(block_time_step=600)
        alice = Wallet.from_seed(b"lt-alice")
        net.fund_wallet(alice)
        mtp = net.chain.median_time_past()
        tx = locked_tx(net, alice, locktime=mtp - 1)
        assert tx.locktime >= LOCKTIME_THRESHOLD
        net.send(tx)

        # A rival branch forked six blocks back, its blocks one second apart.
        fork = net.chain.height - 6
        prev = net.chain.block_at(fork).hash
        miner = Miner(net.chain, Wallet.from_seed(b"lt-rival").key_hash)
        for i in range(7):
            coinbase = miner.make_coinbase(fork + 1 + i, 0, extra_nonce=9000 + i)
            block = miner.grind(build_block(
                prev,
                [coinbase],
                timestamp=net.chain.median_time_past(prev) + 1,
                bits=net.chain.required_bits(prev),
            ))
            net.chain.add_block(block)
            prev = block.hash
        assert net.chain.tip.block.hash == prev
        assert net.chain.median_time_past() <= tx.locktime
        assert tx.txid in net.mempool  # the reorg itself leaves it pooled

        assert [t.txid for t in net.mempool.revalidate()] == [tx.txid]
        block = net.confirm(1)[0]  # the template is one the chain accepts
        assert tx.txid not in [t.txid for t in block.txs]
