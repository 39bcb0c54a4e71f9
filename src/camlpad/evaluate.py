"""Adjusted Rand Index agreement between label assignments, and the vote against hourly truth.

The index is computed from the contingency table, counted by numpy over any
label values, in exact rational arithmetic before the final float
conversion, so results match a brute-force pair-classification oracle
bit-for-bit on small inputs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping, Sequence

import numpy as np

from .datamodel import HOUR_MS
from .errors import CamlpadError


def adjusted_rand_index(a: Sequence[int] | np.ndarray, b: Sequence[int] | np.ndarray) -> float:
    """Chance-corrected pair agreement; 1 = identical partitions.

    The doubly degenerate case (both numerator and denominator zero, e.g.
    both clusterings all-singletons) is defined as 1.0.
    """
    if len(a) != len(b):
        raise CamlpadError(f"clusterings have lengths {len(a)} and {len(b)}")
    n = len(a)
    if n < 2:
        raise CamlpadError(f"need >= 2 items, got {n}")
    a_codes, sum_a = _codes_and_pairs(a)
    b_codes, sum_b = _codes_and_pairs(b)
    _, sum_cells = _codes_and_pairs(a_codes * (int(b_codes.max()) + 1) + b_codes)
    expected = Fraction(sum_a * sum_b, comb(n, 2))
    numerator = Fraction(sum_cells) - expected
    denominator = Fraction(sum_a + sum_b, 2) - expected
    if denominator == 0:
        return 1.0
    return float(numerator / denominator)


def _codes_and_pairs(labels: Sequence[int] | np.ndarray) -> tuple[np.ndarray, int]:
    """Each label's 0-based group code, and the pairs within groups: sum of comb(size, 2) in Python ints."""
    values = np.asarray(labels)
    groups, sizes = np.unique(values, return_counts=True)
    return np.searchsorted(groups, values), sum(comb(size, 2) for size in sizes.tolist())


def pairwise_ari_report(labelings: Mapping[str, Mapping[str, Sequence[int]]]) -> dict:
    """ARI of every unordered pair of each source's label vectors, and the means.

    ``labelings`` maps a source name to its named label vectors; pairs are
    keyed ``"a|b"`` in the vectors' order. The overall mean is over sources
    and is None when there are none.
    """
    per_source: dict[str, dict] = {}
    means: list[float] = []
    for source in sorted(labelings):
        vectors = labelings[source]
        if len(vectors) < 2:
            raise CamlpadError(f"{source}: need >= 2 label vectors, got {len(vectors)}")
        pairwise = {
            f"{a}|{b}": adjusted_rand_index(vectors[a], vectors[b]) for a, b in combinations(vectors, 2)
        }
        mean = sum(pairwise.values()) / len(pairwise)
        means.append(mean)
        per_source[source] = {"pairwise_ari": pairwise, "mean_pairwise_ari": mean}
    return {"per_source": per_source, "mean_pairwise_ari": sum(means) / len(means) if means else None}


def vote_vs_truth_hours(verdicts: Sequence[tuple[int, int]], truth: Sequence[tuple[int, int]]) -> dict[str, int]:
    """Count the hours the cross-source vote found: (bucket_start, final) verdicts against (hour start, label) truth.

    An hour is voted when a verdict bucket starting inside it is final 1.
    Only the truth hours from the first verdict bucket's hour to the last
    one's are counted.
    """
    hours = [start // HOUR_MS * HOUR_MS for start, _ in verdicts]
    voted = {hour for hour, (_, final) in zip(hours, verdicts) if final}
    first, last = min(hours, default=0), max(hours, default=-1)
    counted = [(hour, label) for hour, label in truth if first <= hour <= last]
    anomalous = [hour in voted for hour, label in counted if label]
    clean = [hour in voted for hour, label in counted if not label]
    return {
        "anomalous_hours": len(anomalous), "found": sum(anomalous), "clean_hours": len(clean), "false_hours": sum(clean)
    }
