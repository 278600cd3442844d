"""Deterministic Poisson-likelihood degradation mask for feature images.

Each feature value v is attenuated by the Poisson pmf evaluated at the
integerized value: out = pmf(round_clamp(v); rate) * v. No sampling is
involved, so the mask is a pure function and at rate 1.0 it can never
amplify (max pmf is e^-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mfcc import MfccImage

_LOG_SPACE_K = 20  # above this, evaluate the pmf in log space


class NegativeK(ValueError):
    """Poisson pmf queried at a negative count."""


@dataclass
class PoissonMaskConfig:
    rate: float = 1.0  # the Poisson rate parameter (lambda)
    value_mapping: str = "round_clamp"

    def validate(self) -> None:
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.value_mapping != "round_clamp":
            raise ValueError(f"unknown value mapping {self.value_mapping!r}")


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


def mask_factors(values: np.ndarray, config: PoissonMaskConfig) -> np.ndarray:
    """Per-element attenuation factors pmf(round_clamp(v); rate)."""
    config.validate()
    k = np.maximum(np.rint(values), 0.0).astype(np.int64)
    unique, inverse = np.unique(k, return_inverse=True)
    table = np.array([poisson_pmf(int(u), config.rate) for u in unique])
    return table[inverse].reshape(values.shape)


def apply_poisson_mask(image: MfccImage,
                       config: PoissonMaskConfig | None = None) -> MfccImage:
    """Return a new image with every value attenuated by its pmf factor."""
    config = PoissonMaskConfig() if config is None else config
    factors = mask_factors(image.values, config)
    return MfccImage(factors * image.values, image.params)
