"""Poisson pmf numerics and the deterministic degradation mask."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ovbm.degradation import (
    NegativeK,
    apply_poisson_mask,
    mask_factors,
    poisson_pmf,
)
from ovbm.mfcc import MfccImage, MfccParams


def _image(values):
    return MfccImage(np.asarray(values, dtype=np.float64),
                     MfccParams(num_cepstra=8, num_filters=16, fft_size=512))


class TestPmf:
    @pytest.mark.parametrize("k,expected", [
        (0, math.exp(-1)),
        (1, math.exp(-1)),
        (2, math.exp(-1) / 2),
        (3, math.exp(-1) / 6),
    ])
    def test_unit_rate_values(self, k, expected):
        assert poisson_pmf(k, 1.0) == pytest.approx(expected, abs=1e-15)

    @given(st.integers(0, 60), st.floats(0.1, 10.0))
    def test_matches_factorial_formula(self, k, lam):
        want = lam**k * math.exp(-lam) / math.factorial(k)
        assert poisson_pmf(k, lam) == pytest.approx(want, rel=1e-10)

    def test_direct_logspace_seam(self):
        # values straddling the k=20 switchover agree with the formula
        for k in (19, 20, 21, 22):
            want = math.exp(-1) / math.factorial(k)
            assert poisson_pmf(k, 1.0) == pytest.approx(want, rel=1e-12)

    def test_negative_k(self):
        with pytest.raises(NegativeK):
            poisson_pmf(-1, 1.0)

    @given(st.floats(0.1, 5.0))
    def test_normalizes(self, lam):
        total = sum(poisson_pmf(k, lam) for k in range(200))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestMask:
    def test_round_clamp_factor(self):
        out = apply_poisson_mask(_image([[-3.7, 0.4, 2.6]]))
        e = math.exp(-1)
        np.testing.assert_allclose(
            out.values,
            # k = rint -> [-4 -> 0, 0, 3]; factor = pmf(k, 1) * value
            [[-3.7 * e, 0.4 * e, 2.6 * e / 6.0]],
            rtol=1e-12,
        )

    def test_never_amplifies(self):
        rng = np.random.default_rng(0)
        v = rng.normal(scale=5.0, size=(20, 8))
        out = apply_poisson_mask(_image(v))
        assert np.all(np.abs(out.values) <= np.abs(v))

    @given(arrays(np.float64, (4, 6),
                  elements=st.floats(-50.0, 50.0)))
    def test_deterministic_and_shrinking(self, v):
        a = apply_poisson_mask(_image(v)).values
        b = apply_poisson_mask(_image(v)).values
        np.testing.assert_array_equal(a, b)
        assert np.all(np.abs(a) <= np.abs(v) + 1e-15)

    def test_factors_are_pmf_of_rounded(self):
        v = np.array([0.2, 0.5, 1.5, 7.9, -2.0])
        factors = mask_factors(v)
        k = np.clip(np.rint(v), 0, None).astype(int)
        want = np.array([math.exp(-1) / math.factorial(int(x)) for x in k])
        np.testing.assert_allclose(factors, want, rtol=1e-12)

    def test_preserves_params(self):
        img = _image(np.ones((3, 8)))
        out = apply_poisson_mask(img)
        assert out.params is img.params
