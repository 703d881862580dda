"""BIP 152-style compact block relay primitives.

Flood relay sends every transaction in a block to every peer a second
time, even though gossip already delivered almost all of them to every
mempool.  Compact relay exploits that: a block announcement carries the
80-byte header, a salt, and one 6-byte *short id* per transaction; the
receiver reconstructs the block from its own mempool and only round-trips
(``getblocktxn``/``blocktxn``) for the few transactions it is missing.
Relay bytes become sublinear in block size — the property the swarm-scale
item in ROADMAP.md needs.

The short id is the low 48 bits of SipHash-2-4 over the txid, keyed from
SHA-256 of the header plus a per-sender salt ("nonce").  Salting means a
collision an attacker grinds against one peer's key is useless against
another's; 48 bits keeps the accidental-collision rate negligible at
mempool scale (~1 in 2^48 per pair).  Collisions are still *possible*, so
reconstruction treats an ambiguous or false match as a miss, and the
relay layer falls back to requesting the full block — per BIP 152, a
collision is never treated as peer misbehavior.

This module is pure data-plane: hashing, encoding sizes, reconstruction.
The scheduling half (round-trips, timeouts, fallback, penalties) lives in
:mod:`repro.bitcoin.network`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.bitcoin.block import Block, BlockHeader
from repro.bitcoin.transaction import Transaction, varint

__all__ = [
    "SHORT_ID_BYTES",
    "CompactBlock",
    "MalformedCompactError",
    "PrefilledTransaction",
    "ReconstructionResult",
    "blocktxn_size",
    "finalize",
    "getblocktxn_size",
    "reconstruct",
    "short_id_key",
    "short_txid",
    "short_txids",
    "siphash24",
    "siphash24_batch",
]

SHORT_ID_BYTES = 6

_MASK64 = 0xFFFFFFFFFFFFFFFF


class MalformedCompactError(Exception):
    """A compact block that no honest sender could have produced
    (out-of-range or duplicate prefilled indexes)."""


def siphash24(key: bytes, data: bytes) -> int:
    """SipHash-2-4 of ``data`` under a 16-byte ``key`` (64-bit result).

    Pure-python transcription of the reference algorithm (Aumasson &
    Bernstein).  Short ids of a whole announcement go through
    :func:`short_txids`, whose packed kernel must match this function
    bit for bit; this one serves single txids and odd lengths.
    """
    if len(key) != 16:
        raise ValueError("siphash key must be 16 bytes")
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:], "little")
    v0 = k0 ^ 0x736F6D6570736575
    v1 = k1 ^ 0x646F72616E646F6D
    v2 = k0 ^ 0x6C7967656E657261
    v3 = k1 ^ 0x7465646279746573
    length = len(data)
    tail = length & 7
    # Final word: remaining bytes plus the length in the top byte.
    last = (length & 0xFF) << 56 | int.from_bytes(
        data[length - tail :] if tail else b"", "little"
    )
    words = [
        int.from_bytes(data[i : i + 8], "little")
        for i in range(0, length - tail, 8)
    ]
    words.append(last)
    for m in words:
        v3 ^= m
        for _ in range(2):  # SipRound x2 (compression)
            v0 = (v0 + v1) & _MASK64
            v1 = ((v1 << 13) | (v1 >> 51)) & _MASK64
            v1 ^= v0
            v0 = ((v0 << 32) | (v0 >> 32)) & _MASK64
            v2 = (v2 + v3) & _MASK64
            v3 = ((v3 << 16) | (v3 >> 48)) & _MASK64
            v3 ^= v2
            v0 = (v0 + v3) & _MASK64
            v3 = ((v3 << 21) | (v3 >> 43)) & _MASK64
            v3 ^= v0
            v2 = (v2 + v1) & _MASK64
            v1 = ((v1 << 17) | (v1 >> 47)) & _MASK64
            v1 ^= v2
            v2 = ((v2 << 32) | (v2 >> 32)) & _MASK64
        v0 ^= m
    v2 ^= 0xFF
    for _ in range(4):  # SipRound x4 (finalization)
        v0 = (v0 + v1) & _MASK64
        v1 = ((v1 << 13) | (v1 >> 51)) & _MASK64
        v1 ^= v0
        v0 = ((v0 << 32) | (v0 >> 32)) & _MASK64
        v2 = (v2 + v3) & _MASK64
        v3 = ((v3 << 16) | (v3 >> 48)) & _MASK64
        v3 ^= v2
        v0 = (v0 + v3) & _MASK64
        v3 = ((v3 << 21) | (v3 >> 43)) & _MASK64
        v3 ^= v0
        v2 = (v2 + v1) & _MASK64
        v1 = ((v1 << 17) | (v1 >> 47)) & _MASK64
        v1 ^= v2
        v2 = ((v2 << 32) | (v2 >> 32)) & _MASK64
    return (v0 ^ v1 ^ v2 ^ v3) & _MASK64


def short_id_key(header: BlockHeader, nonce: int) -> bytes:
    """The per-announcement SipHash key: SHA-256(header || nonce)[:16]."""
    digest = hashlib.sha256(
        header.serialize() + nonce.to_bytes(8, "little")
    ).digest()
    return digest[:16]


def short_txid(key: bytes, txid: bytes) -> bytes:
    """The 6-byte (48-bit) salted short id of one transaction."""
    return (siphash24(key, txid) & 0xFFFFFFFFFFFF).to_bytes(
        SHORT_ID_BYTES, "little"
    )


# -- batched SipHash: one packed pass per announcement -------------------
#
# Every short id of an announcement is SipHash-2-4 of a 32-byte txid under
# the same key, so the lanes run in lockstep.  The kernel packs them SWAR
# style (SIMD within a register): lane i of a state word v0..v3 is bits
# [72i, 72i + 64) of one Python int, and each SipRound operation runs on
# every lane at once.  The 8 spare bits per slot hold the carry of a lane-
# wise add until the mask clears it, so no lane ever leaks into the next;
# a rotation shifts the whole int both ways and keeps, per lane, only the
# bits that came from that lane.  Interpreter overhead is then paid once
# per batch rather than once per txid.

_SLOT = 72  # bits per lane: 64 value bits + 8 bits of carry headroom
#: Lanes per packed pass.  Longer batches run in chunks of this size, so
#: the masks below are built once, at import, and never grow.  (An AND
#: with a wider mask costs only the narrower operand's length.)
_LANES = 256
#: Below this many txids the scalar function is the faster one.
_BATCH_MIN = 2

_ONES = sum(1 << (_SLOT * i) for i in range(_LANES))  # 1 in every lane
_LANE64 = _MASK64 * _ONES
#: Per rotation distance r: (lane bits [r, 64), lane bits [0, r)).
_ROTL_MASKS = {
    r: (((_MASK64 >> r) << r) * _ONES, ((1 << r) - 1) * _ONES)
    for r in (13, 16, 17, 21, 32)
}
#: SipHash's final message word for a 32-byte input: the length byte.
_LEN32_WORD = (32 << 56) * _ONES


def _siphash24_lanes(k0: int, k1: int, data: bytes, n: int) -> int:
    """SipHash-2-4 of ``n`` 32-byte messages, concatenated in ``data``,
    as one packed int (lane i holds message i's hash)."""
    live = (1 << (_SLOT * n)) - 1
    ones = _ONES & live
    # Message word j of every lane: byte k of each lane's word comes from
    # byte 8j + k of its message; the ninth byte of each slot stays zero.
    slots = bytearray(9 * n)
    words = []
    for offset in range(0, 32, 8):
        for k in range(8):
            slots[k::9] = data[offset + k :: 32]
        words.append(int.from_bytes(slots, "little"))
    words.append(_LEN32_WORD & live)
    m64 = _LANE64
    h13, l13 = _ROTL_MASKS[13]
    h16, l16 = _ROTL_MASKS[16]
    h17, l17 = _ROTL_MASKS[17]
    h21, l21 = _ROTL_MASKS[21]
    h32, l32 = _ROTL_MASKS[32]
    v0 = (k0 ^ 0x736F6D6570736575) * ones
    v1 = (k1 ^ 0x646F72616E646F6D) * ones
    v2 = (k0 ^ 0x6C7967656E657261) * ones
    v3 = (k1 ^ 0x7465646279746573) * ones
    # Compression (two SipRounds per message word, the length word last),
    # then finalization (four SipRounds), every round on every lane.
    for m in words + [None]:
        if m is None:
            v2 ^= 0xFF * ones
        else:
            v3 ^= m
        for _ in range(2 if m is not None else 4):
            v0 = (v0 + v1) & m64
            v1 = ((v1 << 13) & h13) | ((v1 >> 51) & l13)
            v1 ^= v0
            v0 = ((v0 << 32) & h32) | ((v0 >> 32) & l32)
            v2 = (v2 + v3) & m64
            v3 = ((v3 << 16) & h16) | ((v3 >> 48) & l16)
            v3 ^= v2
            v0 = (v0 + v3) & m64
            v3 = ((v3 << 21) & h21) | ((v3 >> 43) & l21)
            v3 ^= v0
            v2 = (v2 + v1) & m64
            v1 = ((v1 << 17) & h17) | ((v1 >> 47) & l17)
            v1 ^= v2
            v2 = ((v2 << 32) & h32) | ((v2 >> 32) & l32)
        if m is not None:
            v0 ^= m
    return v0 ^ v1 ^ v2 ^ v3


def siphash24_batch(key: bytes, txids: list[bytes]) -> list[int]:
    """``[siphash24(key, t) for t in txids]``, computed in packed passes.

    Too few txids to pay for the packing, or any txid that is not 32
    bytes long, go through the scalar function instead.
    """
    if len(key) != 16:
        raise ValueError("siphash key must be 16 bytes")
    n = len(txids)
    if n < _BATCH_MIN or set(map(len, txids)) != {32}:
        return [siphash24(key, txid) for txid in txids]
    k0 = int.from_bytes(key[:8], "little")
    k1 = int.from_bytes(key[8:], "little")
    data = b"".join(txids)
    hashes = []
    for start in range(0, n, _LANES):
        lanes = min(_LANES, n - start)
        packed = _siphash24_lanes(
            k0, k1, data[32 * start : 32 * (start + lanes)], lanes
        ).to_bytes(9 * lanes, "little")
        hashes.extend(
            int.from_bytes(packed[i : i + 8], "little")
            for i in range(0, 9 * lanes, 9)
        )
    return hashes


def short_txids(key: bytes, txids: list[bytes]) -> list[bytes]:
    """``[short_txid(key, t) for t in txids]``: every short id of one
    announcement from one batched SipHash pass."""
    return [
        (h & 0xFFFFFFFFFFFF).to_bytes(SHORT_ID_BYTES, "little")
        for h in siphash24_batch(key, txids)
    ]


@dataclass(frozen=True)
class PrefilledTransaction:
    """A transaction shipped in full inside the announcement.

    The coinbase is always prefilled — it is freshly minted by the block's
    miner, so no mempool on earth holds it.  ``index`` is the absolute
    position in the block (BIP 152 differentially encodes it on the wire;
    we keep it absolute and account for the encoded size separately).
    """

    index: int
    tx: Transaction


@dataclass(frozen=True)
class CompactBlock:
    """A block announcement: header + salt + short ids + prefilled txs."""

    header: BlockHeader
    nonce: int
    short_ids: tuple[bytes, ...]
    prefilled: tuple[PrefilledTransaction, ...]

    @property
    def hash(self) -> bytes:
        return self.header.hash

    @property
    def tx_count(self) -> int:
        return len(self.short_ids) + len(self.prefilled)

    @staticmethod
    def from_block(
        block: Block, salt: bytes = b"", nonce: int | None = None
    ) -> "CompactBlock":
        """Announce ``block``, prefilled with its coinbase.

        ``nonce`` defaults to a deterministic digest of the block hash and
        the sender ``salt`` — per-sender keys without touching any seeded
        simulation RNG stream.
        """
        if nonce is None:
            nonce = int.from_bytes(
                hashlib.sha256(b"compact-nonce" + block.hash + salt).digest()[
                    :8
                ],
                "little",
            )
        key = short_id_key(block.header, nonce)
        return CompactBlock(
            header=block.header,
            nonce=nonce,
            short_ids=tuple(
                short_txids(key, [tx.txid for tx in block.txs[1:]])
            ),
            prefilled=(PrefilledTransaction(0, block.txs[0]),),
        )

    def serialized_size(self) -> int:
        """Wire bytes of this announcement (header, nonce, varint-counted
        short ids, varint-indexed prefilled transactions)."""
        size = 80 + 8
        size += len(varint(len(self.short_ids)))
        size += SHORT_ID_BYTES * len(self.short_ids)
        size += len(varint(len(self.prefilled)))
        for pf in self.prefilled:
            size += len(varint(pf.index)) + len(pf.tx.serialize())
        return size


@dataclass(frozen=True)
class ReconstructionResult:
    """Outcome of a mempool-based reconstruction attempt.

    ``txs`` has one slot per block transaction (None where unresolved);
    ``missing`` lists the unresolved absolute indexes to put in a
    ``getblocktxn``; ``collisions`` counts short ids that matched more
    than one distinct mempool transaction (each treated as a miss).
    """

    txs: tuple[Transaction | None, ...]
    missing: tuple[int, ...]
    collisions: int

    @property
    def complete(self) -> bool:
        return not self.missing


def reconstruct(compact: CompactBlock, mempool) -> ReconstructionResult:
    """Fill the block's transaction list from ``mempool`` by short id.

    A short id matching two distinct mempool transactions is ambiguous and
    counted as a miss (the round-trip resolves it); a short id matching
    nothing is a plain miss.  Raises :class:`MalformedCompactError` for
    announcements no honest peer could send.
    """
    total = len(compact.short_ids) + len(compact.prefilled)
    txs: list[Transaction | None] = [None] * total
    prefilled_slots = set()
    for pf in compact.prefilled:
        if not 0 <= pf.index < total:
            raise MalformedCompactError(
                f"prefilled index {pf.index} out of range 0..{total - 1}"
            )
        if pf.index in prefilled_slots:
            raise MalformedCompactError(
                f"duplicate prefilled index {pf.index}"
            )
        prefilled_slots.add(pf.index)
        txs[pf.index] = pf.tx
    key = short_id_key(compact.header, compact.nonce)
    # Short id -> mempool tx; ambiguous ids collapse to None.
    by_sid: dict[bytes, Transaction | None] = {}
    collisions = 0
    pooled = [entry.tx for entry in mempool.transactions()]
    sids = short_txids(key, [tx.txid for tx in pooled])
    for tx, sid in zip(pooled, sids):
        held = by_sid.get(sid)
        if sid in by_sid:
            if held is not None and held.txid != tx.txid:
                by_sid[sid] = None
                collisions += 1
        else:
            by_sid[sid] = tx
    missing: list[int] = []
    sid_iter = iter(compact.short_ids)
    for slot in range(total):
        if slot in prefilled_slots:
            continue
        sid = next(sid_iter)
        tx = by_sid.get(sid)
        if tx is None:
            missing.append(slot)
        else:
            txs[slot] = tx
    return ReconstructionResult(
        txs=tuple(txs), missing=tuple(missing), collisions=collisions
    )


def finalize(
    compact: CompactBlock, txs: tuple[Transaction | None, ...]
) -> Block | None:
    """Assemble and merkle-check the reconstructed block.

    None means the transaction list does not hash to the announced merkle
    root — a short-id *false match* filled some slot with the wrong
    mempool transaction.  That is the innocent collision case: the caller
    must fall back to fetching the full block, not penalize anyone.
    """
    if any(tx is None for tx in txs):
        return None
    block = Block(compact.header, list(txs))
    if block.compute_merkle_root() != compact.header.merkle_root:
        return None
    return block


# -- wire-size accounting for the round-trip messages -------------------
#
# The simulator never serializes these messages (delivery is a scheduled
# closure), but relay-byte accounting needs honest sizes: a compact
# scheme that hid its round-trip cost would game the benchmark.

#: ``getdata``-style full-block request: 32-byte hash + 4-byte type tag.
GETBLOCK_SIZE = 36


def getblocktxn_size(index_count: int) -> int:
    """Request bytes: block hash + varint count + ~3 bytes per differential
    varint index (BIP 152 encodes indexes as deltas; 3 is a generous
    per-entry bound for blocks under ~65k transactions)."""
    return 32 + len(varint(index_count)) + 3 * index_count


def blocktxn_size(txs) -> int:
    """Reply bytes: block hash + varint count + the transactions."""
    total = 32 + len(varint(len(txs)))
    for tx in txs:
        total += len(tx.serialize())
    return total
