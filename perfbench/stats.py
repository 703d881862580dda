"""Summary statistics the benchmark reports.

Timings are reported as a median and the highest percentile that keeps at
least ten samples beyond it.  The metric names fix that percentile at p90,
so a run must hold at least 100 samples of every timed operation; a run
with fewer raises instead of printing an unsupported tail.
"""

from __future__ import annotations

import hashlib
import math
import resource

#: Samples that must lie strictly beyond a reported percentile.
TAIL_SAMPLES = 10


def min_samples(p: float) -> int:
    """Fewest samples for which ``p`` keeps ``TAIL_SAMPLES`` beyond it."""
    return math.ceil(TAIL_SAMPLES / (1.0 - p) - 1e-9)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a share
    ``p`` of the samples at or below it.

    Raises ``ValueError`` when fewer than ten samples would lie beyond
    the result, so an unsupported tail can never be reported.
    """
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < p < 1.0:
        raise ValueError("percentile must lie strictly between 0 and 1")
    if n < min_samples(p):
        raise ValueError(
            f"p{round(p * 100)} needs {min_samples(p)} samples, have {n}"
        )
    rank = max(1, math.ceil(p * n - 1e-9))
    return sorted(values)[rank - 1]


class ErrorTally:
    """Failed operations against attempted ones: a failure is any output
    that does not match what the benchmark expects."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def check(self, ok: bool, reason: str) -> bool:
        """Count one attempted operation; record ``reason`` unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def utxo_digest(utxos) -> str:
    """SHA-256 over a UTXO set's entries in outpoint order."""
    digest = hashlib.sha256()
    for outpoint, entry in sorted(
        utxos.items(), key=lambda item: (item[0].txid, item[0].index)
    ):
        digest.update(outpoint.txid)
        digest.update(outpoint.index.to_bytes(4, "little"))
        digest.update(entry.output.value.to_bytes(8, "little"))
        digest.update(entry.output.script_pubkey.serialize())
        digest.update(entry.height.to_bytes(4, "little"))
        digest.update(b"\x01" if entry.is_coinbase else b"\x00")
    return digest.hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
