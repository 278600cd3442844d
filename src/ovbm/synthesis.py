"""Synthetic audio: surrogate pretraining sets and a labeled corpus.

Everything here is tone/chirp/noise mixtures with class-dependent
spectral placement — crude stand-ins for speech, but linearly separable
in mel space, fully seeded, and cheap enough to regenerate on the fly.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .audio_io import MANIFEST_COLUMNS, AudioClip, SynthSpec, synth_clip, write_wav
from .chunker import extract_chunks
from .mfcc import MfccParams
from .models import RegistryEntry
from .util import derive_seed, map_tasks

# Class-0-vs-1 spectral anchors, in Hz. Wake-word surrogates put the
# keyword tone against a low distractor; the corpus separates healthy
# (low) from impaired (high) voices the same way.
KEYWORD_TONES = {
    "them": 1500.0,
    "kitchen": 700.0,
    "tipping": 1000.0,
    "jar": 1250.0,
    "overflow": 1850.0,
}
DISTRACTOR_TONE = 350.0
SENTIMENT_BASE, SENTIMENT_STEP = 300.0, 250.0
COUGH_CHIRPS = (450.0, 2400.0)
SPECTRAL_TONES = (600.0, 2800.0)
CORPUS_TONES = (500.0, 1800.0)

_GENDERS = ("F", "M", "unknown")
_AGE_RANGE = (55, 90)
_DURATION_RANGE = (5.0, 8.0)
_JITTER = 0.04  # relative tone jitter within a class


class UnknownRecipe(ValueError):
    """Registry entry kind has no surrogate generator."""


def _class_components(entry: RegistryEntry, class_id: int) -> list:
    if entry.kind == "wake_word":
        tone = KEYWORD_TONES[entry.keyword] if class_id == 1 else DISTRACTOR_TONE
        return [("sine", tone, 0.7), ("noise", 0.0, 0.2)]
    if entry.kind == "sentiment":
        return [("sine", SENTIMENT_BASE + SENTIMENT_STEP * class_id, 0.7),
                ("noise", 0.0, 0.2)]
    if entry.kind == "cough":
        return [("chirp", COUGH_CHIRPS[class_id], 0.7), ("noise", 0.0, 0.2)]
    if entry.kind == "masked_spectral":
        return [("sine", SPECTRAL_TONES[class_id], 0.7), ("noise", 0.0, 0.2)]
    raise UnknownRecipe(f"no surrogate recipe for kind {entry.kind!r}")


def surrogate_spec(entry: RegistryEntry, class_id: int, index: int,
                   seed: int, sample_rate: int) -> SynthSpec:
    """One surrogate clip recipe; tones jitter +-4% within a class."""
    if not 0 <= class_id < entry.num_classes:
        raise ValueError(f"class {class_id} outside 0..{entry.num_classes - 1}")
    clip_seed = derive_seed(seed, entry.biomarker_id, f"c{class_id}", f"i{index}")
    jitter_rng = np.random.default_rng(derive_seed(clip_seed, "jitter"))
    components = []
    for kind, freq, amp in _class_components(entry, class_id):
        if kind != "noise":
            freq *= 1.0 + jitter_rng.uniform(-_JITTER, _JITTER)
        components.append((kind, freq, amp))
    return SynthSpec(
        class_id=f"{entry.biomarker_id}/c{class_id}",
        duration=entry.chunk_seconds,
        components=components,
        seed=clip_seed,
        sample_rate=sample_rate,
    )


def surrogate_dataset(entry: RegistryEntry, params: MfccParams, seed: int,
                      n_per_class: int, frames: int) -> list:
    """Labeled (image [frames, num_cepstra], class) pairs for pretraining
    one member.

    Each clip is one chunk, featurized by the chunker like any recording
    and cropped to `frames` rows, unmasked; the chunker renders only the
    span of the clip that the crop reads. A member's own input transform
    is `models.member_inputs`' to apply.
    """
    if n_per_class < 1:
        raise ValueError("need at least one clip per class")
    dataset = []
    for class_id in range(entry.num_classes):
        for i in range(n_per_class):
            spec = surrogate_spec(entry, class_id, i, seed, params.sample_rate)
            chunks = extract_chunks(spec, [(0.0, spec.duration)], params,
                                    mask=False, frames=frames)
            dataset.append((chunks.images[0], class_id))
    return dataset


# ------------------------------------------------------------- corpus

def corpus_clip(subject_index: int, label: int, seed: int,
                sample_rate: int = 16000) -> AudioClip:
    """Synthetic voice for one subject: class tone + harmonic + noise."""
    clip_seed = derive_seed(seed, "corpus", f"s{subject_index}")
    rng = np.random.default_rng(derive_seed(clip_seed, "shape"))
    base = CORPUS_TONES[label] * (1.0 + rng.uniform(-_JITTER, _JITTER))
    duration = rng.uniform(*_DURATION_RANGE)
    spec = SynthSpec(
        class_id=f"corpus/{label}",
        duration=duration,
        components=[("sine", base, 0.55), ("sine", 2.0 * base, 0.25),
                    ("noise", 0.0, 0.15)],
        seed=clip_seed,
        sample_rate=sample_rate,
    )
    return synth_clip(spec)


def corpus_metadata(subject_index: int, seed: int) -> tuple:
    """(gender, age) for one subject, seeded like its audio."""
    rng = np.random.default_rng(
        derive_seed(seed, "corpus", f"s{subject_index}", "meta"))
    gender = _GENDERS[int(rng.integers(0, len(_GENDERS)))]
    age = int(rng.integers(_AGE_RANGE[0], _AGE_RANGE[1] + 1))
    return gender, age


def write_corpus(out_dir: str, n_subjects: int, seed: int,
                 sample_rate: int = 16000) -> str:
    """Render a labeled corpus and its manifest; returns manifest path.

    Subjects alternate nonAD/AD so any prefix is near-balanced. WAV
    paths in the manifest are relative to the manifest's directory.
    Each subject renders and writes its WAV in its own `map_tasks` task;
    the manifest is written last, once every WAV is.
    """
    if n_subjects < 2:
        raise ValueError("need at least two subjects (one per class)")
    os.makedirs(os.path.join(out_dir, "wav"), exist_ok=True)

    def subject(i: int) -> list:
        label = i % 2
        subject_id = f"s{i:03d}"
        rel_path = os.path.join("wav", f"{subject_id}.wav")
        write_wav(os.path.join(out_dir, rel_path),
                  corpus_clip(i, label, seed, sample_rate))
        gender, age = corpus_metadata(i, seed)
        return [subject_id, rel_path, "AD" if label else "nonAD",
                gender, str(age)]

    rows = map_tasks(subject, list(range(n_subjects)))
    manifest_path = os.path.join(out_dir, "manifest.csv")
    with open(manifest_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        writer.writerows(rows)
    return manifest_path
