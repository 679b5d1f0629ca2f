"""Ground-truth scoring of learned circuits against the golden netlists.

The contest judges a learned circuit on 1.5M hidden patterns: 500k biased
towards 1s, 500k biased towards 0s and 500k uniform (PAPER.md, Sec. V).
The synthetic suite keeps the golden circuit, so both sides are simulated
here on that same mix, packed 64 patterns per ``uint64`` word, and compared
with XOR plus popcount.  At the 99.99% bar a 1.5M-pattern sample allows 150
mismatches per output; the 30k patterns of the examples would allow 3.

Scoring runs after the timed passes: its time, memory and simulated rows
are outside every metric.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.regressor import LearnResult
from repro.network.blif import write_blif
from repro.network.netlist import Netlist
from repro.network.simulate import simulate_packed

BAR = 0.9999
"""The contest's per-case accuracy bar, applied here per output."""

PATTERNS_PER_BIAS = 500_000
BIASES = (0.75, 0.25, 0.5)
CHUNK_WORDS = 2048
"""Words simulated per chunk: bounds the per-gate arrays to 16 KiB."""

_SCORE_STREAM = 0x5C0E
"""Keeps the scoring patterns apart from every stream the learner draws."""

CERTIFIED = ("verified", "repaired")


@dataclass
class CaseScore:
    """How one learned circuit fares on the ground-truth patterns."""

    patterns: int
    hits: int
    """Patterns on which every output is right (the contest's hit)."""
    mismatches: np.ndarray
    """Wrong patterns per output."""

    @property
    def accuracy(self) -> float:
        return self.hits / self.patterns

    @property
    def output_accuracy(self) -> np.ndarray:
        return 1.0 - self.mismatches / self.patterns


def _draw_words(rng: np.random.Generator, rows: int, words: int,
                bias: float) -> np.ndarray:
    """Random packed patterns with P(bit = 1) = ``bias``.

    ``a | b`` of two uniform words is 1 with probability 0.75 and
    ``a & b`` with 0.25, which are exactly the contest's two biased
    thirds.
    """
    def uniform() -> np.ndarray:
        return np.frombuffer(rng.bytes(rows * words * 8),
                             dtype=np.uint64).reshape(rows, words)

    if bias == 0.5:
        return uniform()
    if bias == 0.75:
        return uniform() | uniform()
    if bias == 0.25:
        return uniform() & uniform()
    raise ValueError(f"unsupported bias {bias}")


def score_netlist(golden: Netlist, learned: Netlist, seed: int,
                  salt: int) -> CaseScore:
    """Compare ``learned`` with ``golden`` on the 1.5M-pattern mix.

    ``salt`` separates the pattern streams of different cases under one
    seed.  Both netlists must have the same PI and PO order.
    """
    rng = np.random.default_rng([seed, _SCORE_STREAM, salt])
    mismatches = np.zeros(golden.num_pos, dtype=np.int64)
    wrong = 0
    total = 0
    for bias in BIASES:
        remaining = PATTERNS_PER_BIAS
        while remaining:
            n = min(remaining, CHUNK_WORDS * 64)
            words = -(-n // 64)
            pi_words = _draw_words(rng, golden.num_pis, words, bias)
            diff = (simulate_packed(golden, pi_words)
                    ^ simulate_packed(learned, pi_words))
            if n % 64:
                diff[:, -1] &= np.uint64((1 << (n % 64)) - 1)
            mismatches += np.bitwise_count(diff).sum(axis=1, dtype=np.int64)
            wrong += int(np.bitwise_count(
                np.bitwise_or.reduce(diff, axis=0)).sum(dtype=np.int64))
            total += n
            remaining -= n
    return CaseScore(patterns=total, hits=total - wrong,
                     mismatches=mismatches)


def netlist_digest(netlist: Netlist) -> str:
    """sha256 of the BLIF text: equal digests mean identical circuits."""
    text = io.StringIO()
    write_blif(netlist, text)
    return hashlib.sha256(text.getvalue().encode()).hexdigest()


def case_salt(case_id: str) -> int:
    return int(case_id.rsplit("_", 1)[1])


def score_result(golden: Netlist, result: LearnResult, seed: int,
                 case_id: str) -> "tuple[Optional[CaseScore], List[str]]":
    """Score one learned case and say why it fails (empty when it passes).

    A case fails when its circuit has other PI or PO names than the golden
    one (it is then not scored), or when an output the learner certified
    (``verified`` or ``repaired``) is below the bar on ground truth.
    """
    net = result.netlist
    if net.pi_names != golden.pi_names or net.po_names != golden.po_names:
        return None, ["PI/PO names differ from the golden circuit"]
    score = score_netlist(golden, net, seed, case_salt(case_id))
    reasons = []
    if result.verification is not None:
        accuracy = score.output_accuracy
        for ver in result.verification.outputs:
            if ver.status in CERTIFIED and accuracy[ver.po_index] < BAR:
                reasons.append(
                    f"output {ver.po_name} is {ver.status} but scores "
                    f"{100 * accuracy[ver.po_index]:.4f}% on ground truth")
    return score, reasons
