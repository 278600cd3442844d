"""Overlapping chunk scheduling and chunk feature extraction: the
library's only framing and pre-emphasis.

A recording of any length is cut into fixed-size windows placed at
stride multiples starting at zero; the tail is zero-padded so the last
window is always whole. A chunk plan is its list of (start_s, end_s)
windows: at a 2 s stride a 78 s recording at chunk size 2 yields
exactly 39 of them. Chunk images are cropped here to the member
input's frame count, and only the frames the crops read are built and
featurized, once for all the windows asked of the recording, from only
the sample ranges those frames read. Windows whose crops read the same
frames (at a 2 s stride, the centres of the 2 s and 14 s windows
coincide, as do those of the 8 s and 20 s ones) share one crop, which
members embed once. A whole clip's featurization is the one window
`[(0, d)]` with a crop of every frame.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip, EmptyAudio, Recording
from .degradation import apply_poisson_mask
from .mfcc import PREEMPHASIS, MfccParams, mfcc


class Chunks:
    """Every chunk image of one recording, each exactly what a member
    reads. `crops` [K, frames, num_cepstra] are the distinct images, in
    the order their first chunk comes; `index` [N] maps each chunk to its
    crop, and `images` [N, ...] is `crops[index]`. All three are
    read-only. Built from an array of images, each chunk is its own crop.
    `masked` says whether the Poisson mask was applied at extraction.
    `embeddings` holds member embeddings of the crops by member body,
    filled by `models.embed_chunks`, so every call on the same Chunks
    runs each distinct body once over each distinct crop."""

    def __init__(self, crops: np.ndarray, masked: bool,
                 index: np.ndarray | None = None):
        self.crops = _read_only(np.asarray(crops, dtype=np.float64).view())
        self.index = _read_only(np.arange(len(self.crops)) if index is None
                                else np.asarray(index).view())
        self.images = _read_only(self.expand(self.crops))
        self.masked = masked
        self.embeddings: dict = {}

    def __len__(self) -> int:
        return len(self.images)

    def expand(self, rows: np.ndarray) -> np.ndarray:
        """Rows [K, ...], one per crop, as rows [N, ...], one per chunk."""
        return rows if len(self.crops) == len(self.index) else rows[self.index]

    def head(self, n: int) -> "Chunks":
        """The first `n` chunks. Their crops come first, so they are a
        prefix of these, and the head shares this Chunks' embeddings."""
        k = int(self.index[:n].max()) + 1
        head = Chunks(self.crops[:k], self.masked, self.index[:n])
        head.embeddings = self.embeddings
        return head


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def chunk_plan(duration: float, chunk_size: float, stride: float) -> list:
    """The windows [(start_s, end_s), ...] over `duration` seconds.

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
    return [(i * stride, i * stride + chunk_size) for i in range(count)]


def _crop_rows(windows: list, params: MfccParams, frames: int, end: int):
    """Which frames each window's crop reads, for a recording of `end`
    samples.

    A window of n samples is framed on its own: 1 + ceil((n - frame_len)
    / frame_step) frames, and at least one, start every frame_step
    samples, the last zero-padded past the window's end. Its crop is the
    centre `frames` of them, or all of them, centred between zero rows,
    when it has fewer. Each crop frame is keyed by (start sample,
    restarts, real samples read): pre-emphasis restarts at a window's
    first frame, and a frame reads zeros past its window's end. Every
    frame that reads nothing before the recording's end (the sample
    before it included, when pre-emphasis reads it) is all zeros, and
    shares the key (end, 0, 0). Returns (distinct keys [K x 3], in the
    order of the first crop frame that reads each, rows [windows x
    frames] into them, -1 for a zero row).
    """
    L, S = params.frame_len, params.frame_step
    keys, slots = [], []
    for a, b in windows:
        if b <= a:
            raise EmptyAudio("cannot frame an empty chunk")
        count = 1 + max(0, -(-(b - a - L) // S))
        j = max(0, (count - frames) // 2) + np.arange(min(count, frames))
        s = a + S * j
        # pre-emphasis restarts at a window's first frame (at 0 it does anyway)
        restart = (j == 0) & (a > 0)
        key = np.stack([s, restart, np.clip(b - s, 0, L)], 1)
        key[s + restart > end] = (end, 0, 0)
        keys.append(key)
        slots.append(max(0, (frames - count) // 2) + np.arange(j.size))
    distinct: dict = {}  # key -> its row among the distinct keys
    inverse = [distinct.setdefault(k, len(distinct))
               for k in map(tuple, np.concatenate(keys).tolist())]
    rows = np.full((len(windows), frames), -1)
    rows[np.repeat(np.arange(len(windows)), [len(t) for t in slots]),
         np.concatenate(slots)] = inverse
    return np.array(list(distinct)), rows


def _read_ranges(source: Recording, keys: np.ndarray):
    """The samples the (start, restarts, real) frames read, from the
    sample before the first of them (for pre-emphasis) on: a zero buffer
    filled from `source` over the merged ranges that the frames read,
    each from one sample before its frame, up to the recording's end.
    Returns (samples, the sample the buffer starts at)."""
    live = keys[keys[:, 2] > 0]
    if not live.size:
        return np.zeros(0), 0
    starts = np.maximum(live[:, 0] - 1, 0)
    stops = live[:, 0] + live[:, 2]
    order = np.argsort(starts, kind="stable")
    starts, stops = starts[order], np.maximum.accumulate(stops[order])
    # a range that starts past every earlier one's end opens a new run
    opens = np.flatnonzero(np.r_[True, starts[1:] > stops[:-1]])
    closes = np.minimum(stops[np.r_[opens[1:] - 1, -1]], source.num_samples)
    lo = int(starts[0])
    samples = np.zeros(int(stops[-1]) - lo)
    for a, b in zip(starts[opens].tolist(), closes.tolist()):
        samples[a - lo:b - lo] = source.read(a, b)
    return samples, lo


def _build_frames(samples: np.ndarray, offset: int, keys: np.ndarray,
                  params: MfccParams) -> np.ndarray:
    """Pre-emphasized frames for (start, restarts, real) keys: `real`
    samples from `start`, then zeros. Pre-emphasis is y[n] = x[n] -
    PREEMPHASIS * x[n-1], restarting with y = x at the recording's first
    sample and at `start` if the frame restarts there.
    `samples` hold the recording from sample `offset` on, from one
    sample before the first frame that reads any, for pre-emphasis.
    The buffer is pre-emphasized once, and each frame is cut from it."""
    s, restart, real = keys.T
    L = params.frame_len
    if not samples.size:  # every frame lies in the padding
        return np.zeros((len(keys), L))
    y = np.zeros(samples.size + L)  # the frame at samples.size is all zero
    y[0] = samples[0]
    np.subtract(samples[1:], PREEMPHASIS * samples[:-1], out=y[1:samples.size])
    frames = sliding_window_view(y, L)[np.where(real > 0, s - offset,
                                                samples.size)]
    first = (restart == 1) | (s == 0)
    frames[first, 0] = samples[s[first] - offset]
    short = np.flatnonzero(real < L)
    cut = frames[short]
    cut[np.arange(L) >= real[short, None]] = 0.0
    frames[short] = cut
    return frames


def extract_chunks(source: Recording, windows: list, params: MfccParams,
                   mask: bool, frames: int) -> Chunks:
    """Chunk images of `windows`, each exactly what a member reads.

    `source` is any Recording: a clip, a WAV file, a resampled view of
    one, or the SynthSpec of a recording. `windows` [(start_s, end_s),
    ...] is one chunk plan, or several plans' windows one after another;
    a whole clip of d seconds is the one window [(0, d)]. The images come
    back in window order. A chunk image is the crop of the MFCC image
    of the chunk's own samples (the recording zero-padded out to the last
    window's end), framed on their own, to `frames` rows: its centre
    rows, or all of its rows centred between zero rows when it has fewer.
    Only the sample ranges the crop frames read are taken from the
    recording (and decoded, resampled or rendered), only the distinct
    frames of the crops are built, and they are featurized in one `mfcc`
    call, bit for bit as each chunk featurized alone would give them
    (see `_crop_rows`). With `mask`, the Poisson mask is
    applied once, to those rows; it maps zero rows to zero. Chunks whose
    crops read the same frame rows share one crop (`Chunks.index`), so a
    member embeds it once.
    """
    if not windows:
        raise ValueError("no windows to extract")
    rate = source.sample_rate
    windows = [(int(round(start * rate)), int(round(end * rate)))
               for start, end in windows]
    end = source.num_samples
    keys, rows = _crop_rows(windows, params, frames, end)
    samples, lo = _read_ranges(source, keys)
    real = AudioClip(samples[:end - lo], rate)
    image = mfcc(real, params, frames=_build_frames(samples, lo, keys, params))
    if mask:
        image = apply_poisson_mask(image)
    table = np.vstack([image.values, np.zeros(params.num_cepstra)])
    # Windows whose crops read the same frame rows share one crop,
    # numbered in the order of the first window that reads each.
    crops: dict = {}  # frame rows -> (crop, first window)
    index = [crops.setdefault(r.tobytes(), (len(crops), i))[0]
             for i, r in enumerate(rows)]
    return Chunks(table[rows[[i for _, i in crops.values()]]], mask,
                  np.array(index))
