"""Fuzzing of the readers of outside input. A mutated WAV or weight file,
an arbitrary manifest and a config of arbitrary JSON values either read
or fail with a ValueError or an OSError, which the CLI reports as exit
2 and 3. Any other error type fails the test."""

import dataclasses
import os
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovbm.audio_io import AudioClip, WavRecording, parse_manifest, write_wav
from ovbm.fusion import load_ensemble
from ovbm.models import load_model
from ovbm.pipeline import RunConfig

REFUSED = (ValueError, OSError)

# Overwrites of one to four bytes, with the little-endian words a size
# or count field reads as its edge cases.
WORDS = st.sampled_from([0, 1, 2, 3, 4, 16, 0x7FFF, 0x8000, 0xFFFF,
                         0x7FFFFFFF, 0x80000000, 0xFFFFFFFF]).map(
                             lambda v: struct.pack("<I", v))
PATCHES = st.one_of(st.binary(min_size=1, max_size=4), WORDS)


def mutated(raw: bytes, header: int):
    """Copies of `raw` with up to six patches, each in its first
    `header` bytes or anywhere, then cut at any length, or not at all."""
    position = st.one_of(st.integers(0, header - 1),
                         st.integers(0, len(raw) - 1))

    def apply(args):
        patches, cut = args
        data = bytearray(raw)
        for at, patch in patches:
            data[at:at + len(patch)] = patch
        return bytes(data[:cut])

    return st.tuples(st.lists(st.tuples(position, PATCHES), max_size=6),
                     st.integers(0, len(raw)) | st.none()).map(apply)


def wav_bytes(encoding: str, tmp_path_factory) -> bytes:
    samples = np.random.default_rng(0).uniform(-0.9, 0.9, 40)
    path = tmp_path_factory.mktemp("wav") / f"{encoding}.wav"
    write_wav(path, AudioClip(samples, 16000), encoding=encoding)
    return path.read_bytes()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("encoding", ["pcm16", "float32"])
def test_mutated_wav(encoding, tmp_path_factory, scratch):
    raw = wav_bytes(encoding, tmp_path_factory)
    path = scratch / "m.wav"

    @settings(max_examples=120)
    @given(data=mutated(raw, 44))
    def check(data):
        path.write_bytes(data)
        try:
            wav = WavRecording(path)
        except REFUSED:
            return
        assert wav.read(0, wav.num_samples).shape == (wav.num_samples,)

    check()


def ensemble_tensors(path: Path) -> list:
    """The tensors of the ensemble whose fusion file is `path`."""
    fusion = load_ensemble(path.parent)
    return [fusion.weights, *(m.weights for m in fusion.members)]


# Each weight file reader: the file it reads in a run directory, and the
# tensors it loads from that file's path.
READERS = {
    "member": (os.path.join("models", "member_tuned_cough_origin.ovbm"),
               lambda path: [load_model(path).weights]),
    "fusion": (os.path.join("ensemble_main", "fusion.ovbm"), ensemble_tensors),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_mutated_weight_file(reader, micro_run_dir, scratch):
    # the file is mutated in a copy of its directory, so the fusion file
    # is read with its members
    rel, tensors = READERS[reader]
    raw = Path(micro_run_dir, rel).read_bytes()
    (desc_len,) = struct.unpack_from("<I", raw, 8)
    shutil.copytree(Path(micro_run_dir, rel).parent, scratch / reader)
    path = scratch / reader / os.path.basename(rel)

    @settings(max_examples=120)
    @given(data=mutated(raw, 12 + desc_len + 64))
    def check(data):
        path.write_bytes(data)
        try:
            loaded = tensors(path)
        except REFUSED:
            return
        assert all(np.isfinite(w).all() for ws in loaded for w in ws.values())

    check()


CELLS = st.one_of(
    st.sampled_from(["s1", "s2", "a.wav", "AD", "nonAD", "0", "1", "F", "M",
                     "70", "", " ", "-5", "1e3", "nan", "٣", '"', "\r",
                     "\x00", "subject_id"]),
    st.text(max_size=8))
ROWS = st.lists(st.lists(CELLS, max_size=7), max_size=6)


@settings(max_examples=80)
@given(header=st.booleans(), rows=ROWS, raw=st.binary(max_size=64) | st.none())
def test_arbitrary_manifest(scratch, header, rows, raw):
    lines = (["subject_id,wav_path,label,gender,age"] if header else []) \
        + [",".join(row) for row in rows]
    path = scratch / "m.csv"
    if raw is None:
        path.write_text("\n".join(lines) + "\n", encoding="utf-8",
                        errors="surrogatepass")
    else:
        path.write_bytes(raw)
    try:
        records = parse_manifest(path)
    except REFUSED:
        return
    assert records


FIELDS = [f.name for f in dataclasses.fields(RunConfig)]
SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.sampled_from([2**1024, -10**400])  # past any float
           | st.text(max_size=8)
           | st.sampled_from(["frozen", "all", "last:0", "last:2", "last:99",
                              "last:-1", "average", "linpos", "linneg"]))
JSON_VALUES = SCALARS | st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)


@settings(max_examples=200)
@given(overrides=st.dictionaries(st.sampled_from(FIELDS), JSON_VALUES,
                                 min_size=1, max_size=2))
# durations whose sample counts overflow a float's integers
@example(overrides={"window_step": 1.1235582092889475e+304})
@example(overrides={"window_len": 1.1235582092889475e+304})
@example(overrides={"chunk_size": 1e305})
@example(overrides={"stride": 1e305, "chunk_size": 2.0})
# strides under one frame step, whose plans would list a window per stride
@example(overrides={"stride": 1e-300})
@example(overrides={"stride": 3.75e-5})
# more mel filters than the FFT grid holds, refused without building
# the bank's edges
@example(overrides={"num_filters": 2**60, "fft_size": 2**62})
# an FFT whose bank and transforms would not fit in memory
@example(overrides={"fft_size": 2**40})
# members and pretraining sets that would not fit in memory
@example(overrides={"stem_channels": 10**7, "embedding_dim": 10**9})
@example(overrides={"arch_frames": 10**9, "surrogate_per_class": 10**12})
def test_arbitrary_config_values(overrides):
    # a valid config with one or two fields replaced, so that each check
    # is reached with the others passing
    data = dict(RunConfig(manifest="m.csv").to_dict(), **overrides)
    try:
        RunConfig.from_dict(data)
    except REFUSED:
        pass
