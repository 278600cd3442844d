"""Feature extraction vs independent brute-force oracles."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import clip_image, own_frames
from ovbm.audio_io import AudioClip, SynthSpec, synth_clip
from ovbm.chunker import extract_chunks
from ovbm.mfcc import (
    BLOCK_FRAMES,
    CEP_LIFTER,
    LOW_FREQ,
    MfccParams,
    OracleTooLarge,
    RateMismatch,
    TooManyFilters,
    dct2_matrix,
    hz_to_mel,
    lifter_weights,
    mel_filterbank,
    mel_to_hz,
    mfcc,
    mfcc_oracle,
    power_spectrum,
)

FAST = MfccParams(num_cepstra=8, num_filters=16, fft_size=512)


def _clip(duration=0.3, seed=4, freq=700.0):
    return synth_clip(SynthSpec("t", duration,
                                [("sine", freq, 0.6), ("noise", 0.0, 0.2)],
                                seed=seed))


class TestMelScale:
    def test_known_point(self):
        assert hz_to_mel(700.0) == pytest.approx(2595.0 * np.log10(2.0))
        assert hz_to_mel(0.0) == 0.0

    @given(st.floats(0.0, 8000.0))
    def test_round_trip(self, hz):
        assert mel_to_hz(hz_to_mel(hz)) == pytest.approx(hz, abs=1e-6)

    @given(st.floats(0.0, 7999.0), st.floats(0.001, 1.0))
    def test_monotone(self, hz, step):
        assert hz_to_mel(hz + step) > hz_to_mel(hz)


class TestFilterbank:
    def test_shape_and_support(self):
        fb = mel_filterbank(FAST)
        assert fb.weights.shape == (16, 512 // 2 + 1)
        assert np.all(fb.weights >= 0.0)
        assert np.all(fb.weights.sum(axis=1) > 0.0)

    def test_bin_points_formula(self):
        fb = mel_filterbank(FAST)
        low, high = hz_to_mel(0.0), hz_to_mel(8000.0)
        mels = np.linspace(low, high, 16 + 2)
        expected = np.floor((512 + 1) * mel_to_hz(mels) / 16000).astype(int)
        np.testing.assert_array_equal(fb.bin_points, expected)

    def test_too_many_filters(self):
        # the last two are refused without building their banks' edges
        for num_filters, fft_size in [(300, 512), (2**60, 2**62),
                                      (10**300, 512)]:
            with pytest.raises(TooManyFilters):
                MfccParams(num_cepstra=8, num_filters=num_filters,
                           fft_size=fft_size)

    def test_refuses_exactly_the_colliding_banks(self):
        # the oracle builds every edge bin as the filterbank places it
        def collides(num_filters, nfft, rate):
            mels = np.linspace(hz_to_mel(LOW_FREQ), hz_to_mel(rate / 2.0),
                               num_filters + 2)
            bins = np.floor((nfft + 1) * mel_to_hz(mels) / rate)
            return bool(np.any(np.diff(bins) == 0))

        def refused(num_filters, nfft, rate):
            try:
                MfccParams(window_len=0.01, num_cepstra=1,
                           num_filters=num_filters, fft_size=nfft,
                           sample_rate=rate)
            except TooManyFilters:
                return True
            return False

        outcomes = set()
        for config in itertools.product(range(1, 601), (512, 1024, 2048, 4096),
                                        (8000, 16000, 22050, 44100)):
            assert refused(*config) == collides(*config), config
            outcomes.add(collides(*config))
        assert outcomes == {False, True}

    @pytest.mark.parametrize("params", [
        FAST,
        MfccParams(num_cepstra=13, num_filters=26, fft_size=512),
        MfccParams(),
    ], ids=["fast", "run_default", "reference"])
    def test_weights_match_loop_formula_bitwise(self, params):
        fb = mel_filterbank(params)
        bins = fb.bin_points
        want = np.zeros((params.num_filters, params.fft_size // 2 + 1))
        for j in range(params.num_filters):
            left, center, right = bins[j], bins[j + 1], bins[j + 2]
            for i in range(left, center):
                want[j, i] = (i - left) / (center - left)
            for i in range(center, right):
                want[j, i] = (right - i) / (right - center)
        assert fb.weights.tobytes() == want.tobytes()

    def test_cached_by_params(self):
        a = mel_filterbank(FAST)
        assert mel_filterbank(MfccParams(num_cepstra=8, num_filters=16,
                                         fft_size=512)) is a
        assert mel_filterbank(MfccParams(num_cepstra=8, num_filters=17,
                                         fft_size=512)) is not a

    def test_cached_arrays_read_only(self):
        fb = mel_filterbank(FAST)
        with pytest.raises(ValueError):
            fb.weights[0, 0] = 1.0
        with pytest.raises(ValueError):
            fb.bin_points[0] = 3


class TestFraming:
    """The chunker's framing, the library's only one: a clip's image
    through `extract_chunks` is `mfcc` of frames cut here by hand."""

    def test_preemphasis_matches_loop(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        expected = x.copy()
        for n in range(199, 0, -1):
            expected[n] = x[n] - 0.97 * x[n - 1]
        frames = own_frames(x, FAST)
        np.testing.assert_array_equal(frames[0][:200], expected)
        assert frames[0][0] == x[0]
        clip = AudioClip(x, 16000)
        np.testing.assert_array_equal(clip_image(clip, FAST),
                                      mfcc(clip, FAST, frames).values)

    @given(st.integers(1, 20000))
    def test_frame_count_formula(self, n):
        # a crop wider than any framing here centres the clip's frames
        # between exact zero rows; no MFCC row of a frame is all zeros
        clip = AudioClip(np.random.default_rng(n).normal(size=n), 16000)
        image = extract_chunks(clip, [(0.0, clip.duration)], MfccParams(),
                               False, 130).images[0]
        L, S = 320, 160
        count = 1 + max(0, -(-(n - L) // S))
        real = np.flatnonzero(np.any(image != 0.0, axis=1))
        np.testing.assert_array_equal(real, (130 - count) // 2 + np.arange(count))

    def test_tail_zero_padded(self):
        x = np.ones(400)  # frame 1 covers 160..480, needs 80 pad samples
        y = np.full(400, 1.0 - 0.97)
        y[0] = 1.0
        frames = np.zeros((2, 320))
        frames[0] = y[:320]
        frames[1][:240] = y[160:400]
        clip = AudioClip(x, 16000)
        image = clip_image(clip, FAST)
        assert image.shape == (2, FAST.num_cepstra)
        np.testing.assert_array_equal(image, mfcc(clip, FAST, frames).values)

    def test_frames_match_manual_slices(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=1000)
        y = np.concatenate([[x[0]], x[1:] - 0.97 * x[:-1]])
        padded = np.concatenate([y, np.zeros(5 * 160 + 320 - 1000)])
        frames = np.stack([padded[i * 160:i * 160 + 320] for i in range(6)])
        clip = AudioClip(x, 16000)
        np.testing.assert_array_equal(clip_image(clip, FAST),
                                      mfcc(clip, FAST, frames).values)


def _direct_power_spectrum(frames, fft_size):
    """|X_k|^2 / fft_size from explicit cos/sin sums over the unpadded
    samples, one frame at a time."""
    flat = frames.reshape(-1, frames.shape[-1])
    n = np.arange(flat.shape[-1])
    out = np.zeros((flat.shape[0], fft_size // 2 + 1))
    for f, frame in enumerate(flat):
        for k in range(fft_size // 2 + 1):
            angle = 2.0 * np.pi * k * n / fft_size
            re = np.sum(frame * np.cos(angle))
            im = -np.sum(frame * np.sin(angle))
            out[f, k] = (re * re + im * im) / fft_size
    return out.reshape(frames.shape[:-1] + (fft_size // 2 + 1,))


class TestFft:
    @pytest.mark.parametrize("shape,fft_size", [
        ((3, 20), 64),        # frames shorter than the FFT: zero-padded
        ((5, 32), 32),        # 2-D batch of frames
        ((2, 3, 24), 32),     # 3-D batch of frames
    ], ids=["zero_padded", "batch_2d", "batch_3d"])
    def test_matches_direct_dft_sum(self, shape, fft_size):
        rng = np.random.default_rng(sum(shape) + fft_size)
        frames = rng.normal(size=shape)
        got = power_spectrum(frames, fft_size)
        want = _direct_power_spectrum(frames, fft_size)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    def test_power_spectrum_scaling(self):
        x = np.zeros((1, 8))
        x[0, 0] = 1.0  # impulse: |FFT|^2 == 1 everywhere, /8
        ps = power_spectrum(x, 8)
        np.testing.assert_allclose(ps, np.full((1, 5), 1.0 / 8.0))


class TestDctLifter:
    def test_dct_orthonormal(self):
        D = dct2_matrix(16)
        np.testing.assert_allclose(D @ D.T, np.eye(16), atol=1e-12)

    def test_dct_row_formula(self):
        D = dct2_matrix(5)
        n = np.arange(5)
        row2 = np.sqrt(2.0 / 5.0) * np.cos(np.pi * 2 * (2 * n + 1) / (2 * 5))
        np.testing.assert_allclose(D[2], row2)
        np.testing.assert_allclose(D[0], np.full(5, np.sqrt(1.0 / 5.0)))

    def test_dct_cached_read_only(self):
        D = dct2_matrix(7)
        assert dct2_matrix(7) is D
        with pytest.raises(ValueError):
            D[0, 0] = 0.0
        with pytest.raises(ValueError):
            D *= 2.0

    def test_lifter_formula(self):
        w = lifter_weights(8)
        n = np.arange(8)
        np.testing.assert_allclose(
            w, 1.0 + (CEP_LIFTER / 2.0) * np.sin(np.pi * n / CEP_LIFTER))
        assert w[0] == 1.0


class TestMfccAgainstOracle:
    def test_matches_oracle(self):
        clip = _clip(0.3)
        fast = clip_image(clip, FAST)
        slow = mfcc_oracle(clip, FAST).values
        rel = np.linalg.norm(fast - slow) / np.linalg.norm(slow)
        assert rel < 1e-6

    def test_reference_params_match_oracle(self):
        clip = _clip(0.2, seed=8)
        fast = clip_image(clip, MfccParams())
        slow = mfcc_oracle(clip).values
        assert fast.shape[1] == 200
        rel = np.linalg.norm(fast - slow) / np.linalg.norm(slow)
        assert rel < 1e-6

    def test_oracle_refuses_long_clips(self):
        with pytest.raises(OracleTooLarge):
            mfcc_oracle(AudioClip(np.zeros(16000 * 3), 16000), FAST)

    def test_oracle_rate_mismatch(self):
        with pytest.raises(RateMismatch):
            mfcc_oracle(AudioClip(np.zeros(8000), 8000), FAST)


class TestMfccProperties:
    def test_c0_is_log_total_energy(self):
        # frame 0's energy recomputed with a naive DFT, no shared code path
        params = MfccParams(num_cepstra=8, num_filters=16, fft_size=512)
        clip = _clip(0.1)
        image = clip_image(clip, params)
        half = _direct_power_spectrum(own_frames(clip.samples, params)[0], 512)
        assert image[0, 0] == pytest.approx(np.log(half.sum()), rel=1e-9)

    def test_scaling_moves_only_c0(self):
        clip = _clip(0.15, seed=13)
        a = clip_image(clip, FAST)
        b = clip_image(AudioClip(clip.samples * 2.0, clip.sample_rate), FAST)
        np.testing.assert_allclose(a[:, 1:], b[:, 1:], atol=1e-8)
        assert np.all(b[:, 0] > a[:, 0])

    def test_deterministic(self):
        clip = _clip(0.1)
        np.testing.assert_array_equal(clip_image(clip, FAST),
                                      clip_image(clip, FAST))

    def test_any_run_of_frames_matches_whole_clip(self):
        # Featurizing a run of a clip's frames on its own, however short,
        # gives exactly the rows of the whole clip's featurization.
        clip = _clip(3.0, seed=21)
        frames = own_frames(clip.samples, FAST)
        whole = clip_image(clip, FAST)
        assert len(frames) == 299
        for n in range(1, BLOCK_FRAMES + 2):
            lo = 7 * n % (len(frames) - n + 1)
            got = mfcc(clip, FAST, frames[lo:lo + n]).values
            np.testing.assert_array_equal(got, whole[lo:lo + n])

    def test_frames_rate_mismatch(self):
        clip = AudioClip(np.zeros(800), 8000)
        with pytest.raises(RateMismatch):
            extract_chunks(clip, [(0.0, 0.1)], FAST, False, 16)
        with pytest.raises(RateMismatch):
            mfcc(clip, FAST, own_frames(_clip(0.1).samples, FAST))

    def test_num_cepstra_le_filters_enforced(self):
        with pytest.raises(ValueError):
            clip_image(_clip(0.05),
                       MfccParams(num_cepstra=20, num_filters=10, fft_size=512))


class TestParamsValidate:
    @pytest.mark.parametrize("field",
                             ["window_len", "window_step"])
    @pytest.mark.parametrize("value", [float("inf"), -float("inf"),
                                       float("nan")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=field):
            MfccParams(num_cepstra=8, num_filters=16, fft_size=512,
                       **{field: value})

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FAST.window_step = 1.2e304

    # windows of no sample: an empty frame, or frames that never advance
    @pytest.mark.parametrize("field,value", [
        ("window_len", 0.0), ("window_len", 1e-5), ("window_step", 1e-5)])
    def test_rejects_sub_sample_windows(self, field, value):
        with pytest.raises(ValueError, match=field):
            MfccParams(num_cepstra=8, num_filters=16, fft_size=512,
                       **{field: value})
