"""MFCC feature images with a fixed, fully specified parameterization.

Pipeline: pre-emphasized rectangular frames (cut by
`chunker.extract_chunks`, the one framing path) -> NumPy real-FFT power
spectrum (|X|^2 / fft_size) -> mel triangular filterbank from 0 Hz to
Nyquist -> log with a floor -> orthonormal DCT-II -> sinusoidal
liftering -> coefficient 0 replaced by the log total frame energy. The
pre-emphasis coefficient, the filterbank's band and the log floor are
the module constants below; `MfccParams` holds what a run sets.

`mfcc_oracle` recomputes the whole chain with naive direct-DFT and
naive DCT sums (O(N^2)); it exists so the fast path can be checked
against an independent route and is limited to short clips.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioClip, EmptyAudio

CEP_LIFTER = 22  # sinusoidal lifter length applied to the cepstra
PREEMPHASIS = 0.97  # y[n] = x[n] - PREEMPHASIS * x[n-1]
LOW_FREQ = 0.0  # the filterbank's lower edge, Hz; its upper edge is Nyquist
LOG_FLOOR = 1e-10  # energies are floored here before the log


class RateMismatch(ValueError):
    """Clip sample rate disagrees with the MFCC parameterization."""


class TooManyFilters(ValueError):
    """Adjacent mel filter centers collide on the FFT bin grid."""


class OracleTooLarge(ValueError):
    """The O(N^2) oracle only accepts short clips."""


def duration_samples(name: str, seconds: float, sample_rate: int) -> int:
    """`seconds` in whole samples at `sample_rate`; ValueError naming
    `name` unless `seconds` is positive and finite, rounds to at least
    one sample, and its length in samples lies below 2**53, up to which
    a float counts exactly."""
    if not (math.isfinite(seconds) and seconds > 0):
        raise ValueError(f"{name} must be positive and finite, got {seconds!r}")
    samples = seconds * sample_rate
    if not samples < 2**53:
        raise ValueError(f"{name} {seconds!r} s is {samples!r} samples at "
                         f"{sample_rate} Hz; need < 2**53")
    whole = round(samples)
    if whole < 1:
        raise ValueError(f"{name} {seconds!r} s is {whole} samples at "
                         f"{sample_rate} Hz; need >= 1")
    return whole


@dataclass(frozen=True)
class MfccParams:
    """Feature extraction settings. Defaults: 20 ms / 10 ms rectangular
    frames, 200 filters, 200 cepstra, 2048-point FFT at 16 kHz.
    `frame_len` and `frame_step`, a frame's length and step in samples,
    are set when built and are not fields."""

    window_len: float = 0.020
    window_step: float = 0.010
    num_cepstra: int = 200
    num_filters: int = 200
    fft_size: int = 2048
    sample_rate: int = 16000

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "frame_len", duration_samples(
            "window_len", self.window_len, self.sample_rate))
        object.__setattr__(self, "frame_step", duration_samples(
            "window_step", self.window_step, self.sample_rate))
        if self.num_filters < 1 or self.num_cepstra < 1:
            raise ValueError("need at least one filter and one cepstrum")
        if self.num_cepstra > self.num_filters:
            raise ValueError("num_cepstra must not exceed num_filters")
        if self.fft_size < self.frame_len:
            raise ValueError("fft_size must cover a whole frame")
        if self.fft_size & (self.fft_size - 1) or self.fft_size == 0:
            raise ValueError("fft_size must be a power of two")
        # The bank's edges are equally spaced in mel from LOW_FREQ (0 Hz,
        # bin 0), and Hz is convex in mel, so the first gap is the
        # narrowest: two edges share an FFT bin exactly when the second
        # edge, placed as `_filterbank` places it, falls in bin 0.
        edge = mel_to_hz(np.array([(hz_to_mel(self.sample_rate / 2.0)
                                    - hz_to_mel(LOW_FREQ))
                                   / (self.num_filters + 1)]))[0]
        if (self.fft_size + 1) * edge / self.sample_rate < 1:
            raise TooManyFilters(f"{self.num_filters} filters collide on a "
                                 f"{self.fft_size}-point FFT grid")


@dataclass
class MfccImage:
    """values: [num_frames x num_cepstra] float64."""

    values: np.ndarray
    params: MfccParams


@dataclass
class FilterBank:
    """weights: [num_filters x (fft_size//2 + 1)], triangular rows."""

    weights: np.ndarray
    bin_points: np.ndarray = field(default=None, repr=False)


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(params: MfccParams) -> FilterBank:
    """Triangular filters with centers equally spaced on the mel axis
    from LOW_FREQ to Nyquist.

    Centers are quantized to FFT bins; `MfccParams` refuses, when built,
    a filter count whose adjacent edge/center points would share a bin
    (`TooManyFilters`), rather than merging filters. Banks are cached by
    the parameters they depend on and returned read-only.
    """
    return _filterbank(params.num_filters, params.fft_size, params.sample_rate)


@functools.cache
def _filterbank(num_filters: int, nfft: int, sample_rate: int) -> FilterBank:
    mel_points = np.linspace(
        hz_to_mel(LOW_FREQ), hz_to_mel(sample_rate / 2.0), num_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bins = np.floor((nfft + 1) * hz_points / sample_rate).astype(np.int64)
    i = np.arange(nfft // 2 + 1)[None, :]
    left, center, right = bins[:-2, None], bins[1:-1, None], bins[2:, None]
    rising = (i - left) / (center - left)
    falling = (right - i) / (right - center)
    weights = np.maximum(0.0, np.minimum(rising, falling))
    weights.setflags(write=False)
    bins.setflags(write=False)
    return FilterBank(weights, bins)


def power_spectrum(frames: np.ndarray, fft_size: int) -> np.ndarray:
    """|FFT|^2 / fft_size over the one-sided spectrum (fft_size//2 + 1 bins).

    Frames shorter than fft_size are zero-padded by the transform.
    """
    spec = np.fft.rfft(frames, n=fft_size, axis=-1)
    return (spec.real**2 + spec.imag**2) / fft_size


@functools.cache
def dct2_matrix(size: int) -> np.ndarray:
    """Orthonormal DCT-II basis; row k dotted with a signal gives
    coefficient k. Cached by size and returned read-only."""
    j = np.arange(size, dtype=np.float64)
    k = np.arange(size, dtype=np.float64)[:, None]
    mat = np.cos(np.pi * k * (2.0 * j + 1.0) / (2.0 * size))
    mat[0] *= math.sqrt(1.0 / size)
    mat[1:] *= math.sqrt(2.0 / size)
    mat.setflags(write=False)
    return mat


def lifter_weights(num_cepstra: int) -> np.ndarray:
    n = np.arange(num_cepstra, dtype=np.float64)
    return 1.0 + (CEP_LIFTER / 2.0) * np.sin(np.pi * n / CEP_LIFTER)


# Frames featurized per batch, which bounds the spectra held at once.
# The FFT runs on real frames only, and each row's transform does not
# depend on the batch, but OpenBLAS rounds small matrix products
# differently from large ones: a batch's power spectra are zero-padded
# to at least this many rows before the mel and DCT products, so every
# row comes out as it would in any larger batch.
BLOCK_FRAMES = 256


def _cepstra(frames: np.ndarray, params: MfccParams) -> np.ndarray:
    """MFCC rows of pre-emphasized frames [F x frame_len]."""
    total = len(frames)
    ps = power_spectrum(frames, params.fft_size)
    if total < BLOCK_FRAMES:
        ps = np.concatenate([ps, np.zeros((BLOCK_FRAMES - total, ps.shape[1]))])
    energies = ps @ mel_filterbank(params).weights.T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    basis = dct2_matrix(params.num_filters)[: params.num_cepstra]
    feat = log_energies @ basis.T
    feat *= lifter_weights(params.num_cepstra)[None, :]
    feat[:, 0] = np.log(np.maximum(ps.sum(axis=1), LOG_FLOOR))
    return feat[:total]


def mfcc(clip: AudioClip, params: MfccParams, frames: np.ndarray) -> MfccImage:
    """MFCC rows of `frames` [F x frame_len], pre-emphasized frames cut
    from `clip` by the chunker. Each row depends only on its frame:
    frames go through in blocks of at least BLOCK_FRAMES, and a shorter
    call transforms only its own frames."""
    if clip.sample_rate != params.sample_rate:
        raise RateMismatch(f"frames at {clip.sample_rate} Hz, params "
                           f"expect {params.sample_rate} Hz")
    parts = max(1, len(frames) // BLOCK_FRAMES)
    edges = [len(frames) * i // parts for i in range(parts + 1)]
    feat = np.concatenate([_cepstra(frames[lo:hi], params)
                           for lo, hi in zip(edges[:-1], edges[1:])])
    return MfccImage(feat, params)


def mfcc_oracle(clip: AudioClip, params: MfccParams | None = None) -> MfccImage:
    """Slow reference path: direct DFT sums and naive DCT sums.

    Kept deliberately independent of the fast path: its own framing
    loop, explicit cos/sin DFT evaluation, per-filter summation, and a
    literal DCT-II formula. Refuses clips longer than two seconds.
    """
    params = MfccParams() if params is None else params
    if clip.duration > 2.0 + 1e-9:
        raise OracleTooLarge(f"oracle limited to 2 s, got {clip.duration:.3f} s")
    if clip.samples.size == 0:
        raise EmptyAudio("cannot frame an empty clip")
    if clip.sample_rate != params.sample_rate:
        raise RateMismatch("oracle: sample rate mismatch")

    x = clip.samples
    y = np.empty_like(x)
    for i in range(x.size):
        y[i] = x[i] if i == 0 else x[i] - PREEMPHASIS * x[i - 1]

    L, S = params.frame_len, params.frame_step
    if y.size < L:
        y = np.concatenate([y, np.zeros(L - y.size)])
    num_frames = 1 + math.ceil((y.size - L) / S)
    frames = []
    for i in range(num_frames):
        seg = y[i * S: i * S + L]
        if seg.size < L:
            seg = np.concatenate([seg, np.zeros(L - seg.size)])
        frames.append(seg)

    nfft = params.fft_size
    nbins = nfft // 2 + 1
    angles = 2.0 * np.pi * np.outer(np.arange(nbins), np.arange(nfft)) / nfft
    cos_m, sin_m = np.cos(angles), np.sin(angles)
    bank = mel_filterbank(params)

    # One explicit DFT product over all frames at once.
    padded = np.zeros((num_frames, nfft))
    for f, frame in enumerate(frames):
        padded[f, :L] = frame
    re = padded @ cos_m.T
    im = -(padded @ sin_m.T)
    ps = (re * re + im * im) / nfft

    nfilt, ncep = params.num_filters, params.num_cepstra
    energies = np.zeros((num_frames, nfilt))
    for j in range(nfilt):
        energies[:, j] = np.sum(bank.weights[j] * ps, axis=1)
    loge = np.log(np.maximum(energies, LOG_FLOOR))

    scale0, scale = math.sqrt(1.0 / nfilt), math.sqrt(2.0 / nfilt)
    feat = np.zeros((num_frames, ncep))
    for k in range(ncep):
        # literal DCT-II row k, built once per clip
        row = np.cos(np.pi * k * (2.0 * np.arange(nfilt) + 1.0) / (2.0 * nfilt))
        c = np.sum(loge * row, axis=1) * (scale0 if k == 0 else scale)
        feat[:, k] = c * (1.0 + (CEP_LIFTER / 2.0)
                          * math.sin(math.pi * k / CEP_LIFTER))
    feat[:, 0] = np.log(np.maximum(ps.sum(axis=1), LOG_FLOOR))
    return MfccImage(feat, params)
