"""The benchmark's outside-in tracer (`bench/tracer.py`, loaded as it is)
still finds what it measures in the library: a refactor that renames or
rebinds a traced function shows here, not only under `--trace 1`."""

import importlib.util
import os
import struct

import numpy as np

import ovbm.models as M
import ovbm.pipeline as P
from conftest import micro_run_config
from ovbm.audio_io import SubjectRecord, parse_manifest
from ovbm.chunker import chunk_plan

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                           "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_reports_every_layer(corpus_dir, monkeypatch):
    monkeypatch.setattr(P, "map_tasks", lambda fn, items: list(map(fn, items)))
    tracing = load_tracer()
    config = micro_run_config(corpus_dir, pretrain_epochs=1, tune_epochs=1,
                              fusion_epochs=1, surrogate_per_class=2)
    record = parse_manifest(config.manifest)[0]
    originals = (P.run_training, M.forward_batch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        pipe = P.run_training(config)
        P.subject_saliency(pipe, record,
                           P.load_clip(config.manifest, record,
                                       config.sample_rate))
    finally:
        tracer.uninstall()
    assert (P.run_training, M.forward_batch) == originals

    metrics = tracing.metrics(tracer, pass_s=1.0)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["models.images"] > 0
    assert metrics["mfcc.frames"] > 0
    assert metrics["mfcc.audio_s"] > 0
    # surrogate images come through the traced chunker, one chunk a clip
    assert metrics["chunker.chunks"] >= metrics["synthesis.surrogate_clips"] > 0
    # the conv figures the benchmark reports are timed on the conv path,
    # the model figures on the functions the members run, and the map's
    # time on `saliency_map`, which `subject_saliency` names
    for name in ("nn.conv3x3.block.s", "nn.conv3x3_backward.s",
                 "nn.conv3x3_backward.gflop", "models.forward_batch.calls",
                 "models.backward_from_embedding.s",
                 "saliency.saliency_map.s"):
        assert metrics[name] > 0, name


def test_traced_screen_of_a_resampled_stereo_recording(micro_pipeline,
                                                       tmp_path):
    # 44.1 kHz stereo float32, as the long screen reads: the traced
    # load, diagnosis and saliency map run every hook they reach
    rate = 44100
    frames = np.random.default_rng(2).uniform(-0.4, 0.4, (5 * rate, 2))
    payload = frames.astype("<f4").tobytes()
    fmt = struct.pack("<HHIIHH", 3, 2, rate, rate * 8, 8, 32)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
            + struct.pack("<I", len(payload)) + payload)
    (tmp_path / "long.wav").write_bytes(
        b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
    manifest = str(tmp_path / "manifest.csv")
    record = SubjectRecord("long", "long.wav", 1, "F", 70)
    pipe = micro_pipeline
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        clip = P.load_clip(manifest, record, pipe.config.sample_rate)
        P.diagnose_subject(pipe, record, clip)
        P.subject_saliency(pipe, record, clip)
    finally:
        tracer.uninstall()

    metrics = tracing.metrics(tracer, pass_s=1.0)
    assert metrics["mfcc.frames"] > 0
    assert metrics["chunker.extract_chunks.calls"] == 2
    # the diagnosis extracts the run plan's windows, the map those of
    # its distinct plans: the run's, then the chunk-scale probes'
    config = pipe.config
    run_plan = (config.chunk_size, config.stride)
    keys = dict.fromkeys([run_plan] + [
        (e.chunk_size, min(config.stride, e.chunk_size))
        for e in M.ROSTER if e.family == "brainos"])
    assert metrics["chunker.chunks"] == sum(
        len(chunk_plan(clip.duration, size, step))
        for size, step in [run_plan, *keys])
    assert metrics["models.images"] > 0
