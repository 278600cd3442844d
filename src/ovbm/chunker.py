"""Overlapping chunk scheduling and chunk feature extraction.

A recording of any length is cut into fixed-size windows placed at
stride multiples starting at zero; the tail is zero-padded so the last
window is always whole. With the default 2 s stride a 78 s recording at
chunk size 2 yields exactly 39 chunks. The recording is featurized once
for all the chunk plans asked of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .audio_io import AudioClip, EmptyAudio, pad_to
from .degradation import PoissonMaskConfig, apply_poisson_mask
from .mfcc import MfccImage, MfccParams, mfcc

DEFAULT_STRIDE = 2.0


@dataclass
class ChunkPlan:
    chunk_size: float
    stride: float
    intervals: list = field(default_factory=list)  # [(start_s, end_s), ...]

    @property
    def count(self) -> int:
        return len(self.intervals)


@dataclass
class Chunk:
    index: int
    span: tuple
    features: MfccImage
    masked: bool = False


def chunk_plan(duration: float, chunk_size: float,
               stride: float = DEFAULT_STRIDE) -> ChunkPlan:
    """Plan window placement over `duration` seconds.

    Windows start at 0, stride, 2*stride, ...; the count is the smallest
    c with (c-1)*stride + chunk_size >= duration, i.e. the duration is
    first rounded up so (padded - chunk_size) is a stride multiple.
    Anything shorter than one window gets a single zero-padded window.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    if chunk_size <= 0 or stride <= 0:
        raise ValueError("chunk_size and stride must be positive")
    if duration <= chunk_size:
        count = 1
    else:
        count = 1 + math.ceil((duration - chunk_size) / stride)
    intervals = [(i * stride, i * stride + chunk_size) for i in range(count)]
    return ChunkPlan(chunk_size, stride, intervals)


def _frame_rows(num_samples: int, windows: list, params: MfccParams):
    """Where each window's frames come from in one featurization of a
    recording of `num_samples` samples.

    A window's own framing (`frame_signal` on its samples) starts frames
    every frame_step samples. A frame equals the recording's frame at
    the same start when it lies on the recording's frame grid, reads
    frame_len real samples, and is not the window's first frame, where
    pre-emphasis restarts. Every other frame is keyed by (start sample,
    restarts, real samples read), and each distinct key becomes one
    extra frame. Returns (row indices per window, keys [E x 3]); extra
    frame e is row grid + e.
    """
    L, S = params.frame_len, params.frame_step
    grid = 1 + max(0, -(-(num_samples - L) // S))  # as frame_signal counts
    starts, restarts, reals, counts = [], [], [], []
    for a, b in windows:
        if b <= a:
            raise EmptyAudio("cannot frame an empty chunk")
        count = 1 + max(0, -(-(b - a - L) // S))
        s = a + S * np.arange(count)
        restart = np.zeros(count, dtype=bool)
        restart[0] = a > 0  # at sample 0 the recording restarts too
        starts.append(s)
        restarts.append(restart)
        reals.append(np.clip(b - s, 0, L))
        counts.append(count)
    s, restart, real = (np.concatenate(v) for v in (starts, restarts, reals))
    on_grid = ~restart & (real == L) & (s % S == 0)
    rows = s // S
    keys, inverse = np.unique(np.stack([s, restart, real], axis=1)[~on_grid],
                              axis=0, return_inverse=True)
    rows[~on_grid] = grid + inverse.ravel()
    return np.split(rows, np.cumsum(counts)[:-1]), keys


def _extra_frames(samples: np.ndarray, keys: np.ndarray,
                  params: MfccParams) -> np.ndarray:
    """Pre-emphasized frames for (start, restarts, real) keys: `real`
    samples from `start`, then zeros, computed as `preemphasize` would
    on a window that begins at `start` if the frame restarts there."""
    s, restart, real = keys.T
    offsets = np.arange(params.frame_len)
    inside = offsets < real[:, None]
    idx = np.where(inside, s[:, None] + offsets, 0)
    frames = samples[idx] - params.preemphasis * samples[np.maximum(idx - 1, 0)]
    first = (restart == 1) | (s == 0)
    frames[first, 0] = samples[s[first]]
    frames[~inside] = 0.0
    return frames


def extract_chunks(clip: AudioClip, plans: ChunkPlan | list, params: MfccParams,
                   mask: PoissonMaskConfig | None = None) -> list:
    """Featurize the clip once and cut every plan's chunk images from it.

    `plans` is one ChunkPlan or a list of them; the chunks of all plans
    come back in plan order, each indexed within its own plan. The clip
    is zero-padded out to the last window's end. Each chunk image equals
    `mfcc` of that chunk's own samples bit for bit (see `_frame_rows`).
    An optional Poisson mask is applied once, to the whole featurization.
    """
    plans = [plans] if isinstance(plans, ChunkPlan) else list(plans)
    if not plans or not all(p.intervals for p in plans):
        raise ValueError("plan has no intervals")
    rate = clip.sample_rate
    final_end = max(p.intervals[-1][1] for p in plans)
    padded = pad_to(clip, final_end) if final_end > clip.duration else clip
    windows = [(int(round(start * rate)), int(round(end * rate)))
               for p in plans for start, end in p.intervals]
    rows, keys = _frame_rows(padded.samples.size, windows, params)
    image = mfcc(padded, params,
                 extra_frames=_extra_frames(padded.samples, keys, params))
    if mask is not None:
        image = apply_poisson_mask(image, mask)
    spans = [(i, span) for p in plans for i, span in enumerate(p.intervals)]
    return [Chunk(i, span, MfccImage(image.values[r], params, span),
                  masked=mask is not None)
            for (i, span), r in zip(spans, rows)]
