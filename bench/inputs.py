"""Seeded long recordings for the screen_long workload.

The corpora come from the library's own `write_corpus`. Every value here
is drawn from the benchmark seed, so one seed always produces the same
recordings, byte for byte.
"""

from __future__ import annotations

import csv
import os
import struct

import numpy as np

from ovbm.audio_io import MANIFEST_COLUMNS, SynthSpec, synth_clip
from ovbm.synthesis import CORPUS_TONES
from ovbm.util import derive_seed

LONG_SECONDS = 78.0        # 39 chunks at chunk 2 s / stride 2 s
LONG_RATE = 44100          # resampled to the run's 16 kHz on load
_WAVE_IEEE_FLOAT = 3


def write_wav_stereo_float32(path: str, left: np.ndarray, right: np.ndarray,
                             rate: int) -> None:
    """Interleaved two-channel IEEE float32 WAV (the library writer is
    mono only)."""
    frames = np.stack([left, right], axis=1).astype("<f4").tobytes()
    block_align = 2 * 4
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(frames), b"WAVE",
        b"fmt ", 16, _WAVE_IEEE_FLOAT, 2, rate, rate * block_align,
        block_align, 32,
        b"data", len(frames),
    )
    with open(path, "wb") as fh:
        fh.write(header + frames)


def _render(seed: int, components: list):
    return synth_clip(SynthSpec(class_id="bench/long", duration=LONG_SECONDS,
                                components=components, seed=seed,
                                sample_rate=LONG_RATE)).samples


def long_recordings(out_dir: str, seed: int) -> str:
    """Two 78 s stereo float32 recordings at 44.1 kHz, one per label,
    voiced with the corpus tones. Returns the manifest path."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for label in (0, 1):
        rng = np.random.default_rng(derive_seed(seed, "bench_long", f"l{label}"))
        base = CORPUS_TONES[label] * (1.0 + rng.uniform(-0.04, 0.04))
        # The corpus voice, rendered at 44.1 kHz: the decoder's channel
        # average gives back exactly this mixture, so the recording has
        # the noise level the runs were trained on.
        voice = _render(derive_seed(seed, "bench_long", f"l{label}", "voice"),
                        [("sine", base, 0.55), ("sine", 2.0 * base, 0.25),
                         ("noise", 0.0, 0.15)])
        side = _render(derive_seed(seed, "bench_long", f"l{label}", "side"),
                       [("noise", 0.0, 0.05)])
        name = f"long{label}.wav"
        write_wav_stereo_float32(os.path.join(out_dir, name), voice + side,
                                 voice - side, LONG_RATE)
        gender = ("F", "M")[int(rng.integers(0, 2))]
        age = int(rng.integers(55, 91))
        rows.append([f"long{label}", name, "AD" if label else "nonAD",
                     gender, str(age)])
    manifest = os.path.join(out_dir, "manifest.csv")
    with open(manifest, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    return manifest
