"""Chunk-score aggregation and subject-level diagnosis.

Three weightings over a recording's chunk probabilities: a flat
average, linearly increasing weights w_i = 2i / (n(n+1)) that emphasize
late chunks, and the reversed variant that emphasizes early chunks.
Weights always sum to one, so aggregation is convex.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class EmptyList(ValueError):
    """Aggregation over zero chunks is undefined."""


class AggregationScheme(str, enum.Enum):
    AVERAGE = "average"
    LINEAR_POSITIVE = "linear_positive"
    LINEAR_NEGATIVE = "linear_negative"

    @staticmethod
    def parse(text: str) -> "AggregationScheme":
        key = text.strip().lower()
        aliases = {
            "average": AggregationScheme.AVERAGE,
            "linpos": AggregationScheme.LINEAR_POSITIVE,
            "linear_positive": AggregationScheme.LINEAR_POSITIVE,
            "linneg": AggregationScheme.LINEAR_NEGATIVE,
            "linear_negative": AggregationScheme.LINEAR_NEGATIVE,
        }
        if key not in aliases:
            raise ValueError(f"unknown scheme {text!r}")
        return aliases[key]


def scheme_weights(n: int, scheme: AggregationScheme) -> np.ndarray:
    """Chunk weights for a length-n sequence; they sum to 1 exactly up
    to float rounding."""
    if n < 1:
        raise EmptyList("no chunks to weight")
    if scheme == AggregationScheme.AVERAGE:
        return np.full(n, 1.0 / n)
    i = np.arange(1, n + 1, dtype=np.float64)
    weights = 2.0 * i / (n * (n + 1.0))
    if scheme == AggregationScheme.LINEAR_NEGATIVE:
        weights = weights[::-1].copy()
    return weights


def aggregate(probs, scheme: AggregationScheme) -> float:
    probs = np.asarray(list(probs), dtype=np.float64)
    if probs.size == 0:
        raise EmptyList("no chunk probabilities")
    return float(np.dot(scheme_weights(probs.size, scheme), probs))


@dataclass
class Diagnosis:
    subject_id: str
    probability: float  # aggregated P(positive)
    label: str          # "positive" | "negative"
    threshold: float
    scheme: str
    chunk_probabilities: list = field(default_factory=list)
    chunk_size: float = 0.0
    stride: float = 0.0


def decide(probability: float, threshold: float) -> str:
    """Ties go to the positive side: screening prefers a false alarm
    over a miss."""
    return "positive" if probability >= threshold else "negative"
