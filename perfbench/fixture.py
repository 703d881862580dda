"""Generate the ``cold-sync`` chain into a block store, in its own process.

The measuring process must hold no signature-cache entry, parity hint or
point table that covers the chain, so the chain is built here and handed
over only as a store directory plus ``fixture.json`` (tip, UTXO digest,
transaction count and the pid that built it).

The chain is a funded prefix (``fund_wallets``) followed by ``blocks``
blocks of ``TXS_PER_BLOCK`` two-input P2PKH spends, spread over
``WALLETS`` distinct keys, more than the 256 point tables secp256k1
keeps cached.

Usage: ``python3 perfbench/fixture.py --seed N --blocks N --out DIR``
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bitcoin.block import build_block  # noqa: E402
from repro.bitcoin.chain import Blockchain  # noqa: E402
from repro.bitcoin.miner import Miner  # noqa: E402
from repro.bitcoin.population import fund_wallets, sim_chain_params  # noqa: E402
from repro.bitcoin.standard import p2pkh_script  # noqa: E402
from repro.bitcoin.transaction import TxOut  # noqa: E402
from repro.bitcoin.wallet import Spendable, Wallet  # noqa: E402
from repro.store import BlockStore  # noqa: E402
from stats import utxo_digest  # noqa: E402

TXS_PER_BLOCK = 12
WALLETS = 400
FUNDING_VALUE = 60_000
SNAPSHOT_INTERVAL = 16
FIXTURE_FILE = "fixture.json"


def build(seed: int, blocks: int, out: Path) -> dict:
    rng = random.Random(seed)
    wallets = [
        Wallet.from_seed(b"cold-sync-%d-%d" % (seed, i)) for i in range(WALLETS)
    ]
    # Two funded outputs per spend, each pair owned by one seeded wallet.
    owners = [rng.randrange(WALLETS) for _ in range(blocks * TXS_PER_BLOCK)]
    funding = fund_wallets(
        [wallets[w].key_hash for w in owners for _ in range(2)],
        value=FUNDING_VALUE,
    )
    store = BlockStore(out, snapshot_interval=SNAPSHOT_INTERVAL).open()
    chain = Blockchain(sim_chain_params(), batch_sig_verify=True)
    chain.attach_store(store)
    funded: dict[bytes, list[Spendable]] = {}
    for block in funding:
        if not chain.add_block(block):
            raise RuntimeError("funding block rejected")
        for tx in block.txs[1:]:
            for index, output in enumerate(tx.vout):
                if output.value == FUNDING_VALUE:
                    funded.setdefault(output.script_pubkey.serialize(), []).append(
                        Spendable(tx.outpoint(index), output, chain.height, False)
                    )
    miner = Miner(chain, Wallet.from_seed(b"cold-sync-miner").key_hash)
    spends = 0
    for height in range(blocks):
        txs, fees = [], 0
        for w in owners[height * TXS_PER_BLOCK : (height + 1) * TXS_PER_BLOCK]:
            wallet = wallets[w]
            pool = funded[p2pkh_script(wallet.key_hash).serialize()]
            fee = 1_000 + rng.randrange(1_000)
            txs.append(
                wallet.create_transaction(
                    chain,
                    [TxOut(2 * FUNDING_VALUE - fee, p2pkh_script(wallet.key_hash))],
                    fee=fee,
                    extra_inputs=[pool.pop(), pool.pop()],
                )
            )
            fees += fee
        coinbase = miner.make_coinbase(chain.height + 1, fees, extra_nonce=height)
        block = build_block(
            prev_hash=chain.tip.block.hash,
            txs=[coinbase] + txs,
            timestamp=chain.median_time_past() + 1,
            bits=chain.required_bits(chain.tip.block.hash),
        )
        if not chain.add_block(miner.grind(block)):
            raise RuntimeError("spend block rejected")
        spends += len(txs)
    meta = {
        "pid": os.getpid(),
        "seed": seed,
        "height": chain.height,
        "prefix_height": len(funding),
        "tip": chain.tip.block.hash.hex(),
        "utxo_digest": utxo_digest(chain.utxos),
        "spend_txs": spends,
        "txs": sum(len(chain.block_at(h).txs) - 1 for h in range(1, chain.height + 1)),
        "distinct_pubkeys": len(set(owners)),
    }
    store.close()
    (out / FIXTURE_FILE).write_text(json.dumps(meta))
    return meta


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--blocks", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    build(args.seed, args.blocks, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
