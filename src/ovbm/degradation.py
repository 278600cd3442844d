"""Deterministic Poisson-likelihood degradation mask for feature images.

Each feature value v is attenuated by the Poisson pmf at rate 1,
evaluated at the value rounded to the nearest integer and clamped at
zero: out = pmf(round_clamp(v); 1) * v. No sampling is involved and
nothing is tunable: the mask is a fixed pure function, switched on or
off per run, and at rate 1 it can never amplify (max pmf is e^-1).
It maps zero to zero.
"""

from __future__ import annotations

import math

import numpy as np

from .mfcc import MfccImage

_LOG_SPACE_K = 20  # above this, evaluate the pmf in log space
MASK_RATE = 1.0  # the mask's Poisson rate (lambda)


class NegativeK(ValueError):
    """Poisson pmf queried at a negative count."""


def poisson_pmf(k: int, rate: float = 1.0) -> float:
    """P(K = k) for K ~ Poisson(rate).

    Small k uses the literal rate^k e^-rate / k!; larger k switches to
    exp(k log rate - rate - lgamma(k+1)) to dodge overflow.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    k = int(k)
    if k < 0:
        raise NegativeK(f"k = {k}")
    if k <= _LOG_SPACE_K:
        return rate**k * math.exp(-rate) / math.factorial(k)
    return math.exp(k * math.log(rate) - rate - math.lgamma(k + 1))


def mask_factors(values: np.ndarray) -> np.ndarray:
    """Per-element attenuation factors pmf(round_clamp(v); MASK_RATE)."""
    k = np.maximum(np.rint(values), 0.0).astype(np.int64)
    unique, inverse = np.unique(k, return_inverse=True)
    table = np.array([poisson_pmf(int(u), MASK_RATE) for u in unique])
    return table[inverse].reshape(values.shape)


def apply_poisson_mask(image: MfccImage) -> MfccImage:
    """Return a new image with every value attenuated by its pmf factor."""
    return MfccImage(mask_factors(image.values) * image.values, image.params)
