import json
import math
import os
import struct
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import numpy as np
import pytest
from hypothesis import settings

import ovbm.models as models
from ovbm import nn
from ovbm.chunker import extract_chunks
from ovbm.mfcc import PREEMPHASIS
from ovbm.models import CnnArch, pack_tensor_records, read_weight_file
from ovbm.pipeline import RunConfig, TrainedPipeline, run_training, save_pipeline
from ovbm.synthesis import write_corpus

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

# one verdict line per acceptance criterion, echoed after the run so
# they survive output capture
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


MICRO_ARCH = CnnArch(input_shape=(10, 8), stem_channels=2, num_blocks=1,
                     embedding_dim=4)


class ReadLog:
    """A recording that logs the spans read from it."""

    def __init__(self, clip):
        self.clip, self.spans = clip, []
        self.sample_rate, self.duration = clip.sample_rate, clip.duration
        self.num_samples = clip.num_samples

    def read(self, lo, hi):
        self.spans.append((lo, hi))
        return self.clip.read(lo, hi)


@pytest.fixture
def micro_arch() -> CnnArch:
    return MICRO_ARCH


def record_boundaries(path) -> list:
    """Byte offsets at which each tensor record of a weight file starts."""
    descriptor, weights = read_weight_file(path)
    names = descriptor["tensors"]
    start = path.stat().st_size - len(pack_tensor_records(weights, names))
    return [start + len(pack_tensor_records(weights, names[:k]))
            for k in range(len(names))]


def _edited(edit):
    """Descriptor bytes: the file's descriptor JSON after `edit`."""
    def replace(descriptor):
        edit(descriptor)
        return json.dumps(descriptor).encode("utf-8")
    return replace


# Malformed descriptors: each maps a weight file's descriptor to bytes.
BAD_DESCRIPTORS = {
    "not_an_object": lambda d: b"[]",
    "not_utf8": lambda d: b"\xff\xfe{}",
    "invalid_json": lambda d: b'{"kind": ',
}
BAD_MODEL_DESCRIPTORS = dict(BAD_DESCRIPTORS, **{
    "arch_is_a_number": _edited(lambda d: d.update(arch=5)),
    "input_shape_is_a_number": _edited(
        lambda d: d["arch"].update(input_shape=5)),
})
BAD_FUSION_DESCRIPTORS = dict(BAD_DESCRIPTORS, **{
    "member_digests_is_a_list": _edited(lambda d: d.update(member_digests=[])),
    "member_dims_disagree": _edited(
        lambda d: d.update(member_dims=[n + 1 for n in d["member_dims"]])),
    "metadata_dim_disagrees": _edited(lambda d: d.update(metadata_dim=4)),
})


def replace_descriptor(path, make) -> None:
    """Rewrite a weight file's descriptor as `make(descriptor)` bytes,
    keeping its header and tensor records."""
    descriptor, _ = read_weight_file(path)
    buf = path.read_bytes()
    (length,) = struct.unpack_from("<I", buf, 8)
    raw = make(descriptor)
    path.write_bytes(buf[:8] + struct.pack("<I", len(raw)) + raw
                     + buf[12 + length:])


def replace_tensors(path, edit) -> None:
    """Rewrite a weight file after `edit(descriptor, weights)`, with
    records of the edited tensors and a descriptor listing them."""
    descriptor, weights = read_weight_file(path)
    edit(descriptor, weights)
    descriptor["tensors"] = list(weights)
    raw = json.dumps(descriptor).encode("utf-8")
    path.write_bytes(path.read_bytes()[:8] + struct.pack("<I", len(raw)) + raw
                     + pack_tensor_records(weights, list(weights)))


# Tensors that disagree with the descriptor's arch or dimensions: each
# edits a weight file's (descriptor, weights) in place.
BAD_MODEL_TENSORS = {
    "stem_w_shape": lambda d, w: w.update({"stem.w": np.zeros((4, 1, 3, 2))}),
    "only_stem_w": lambda d, w: [w.pop(k) for k in list(w) if k != "stem.w"],
    "num_classes_vs_head": lambda d, w: d.update(num_classes=5),
}
BAD_FUSION_TENSORS = {
    "hidden_w_vs_input_dim": lambda d, w: w.update(
        {"hidden.w": w["hidden.w"][:, 1:]}),
    "hidden_w_vs_hidden_dim": lambda d, w: w.update(
        {"hidden.w": w["hidden.w"][1:]}),
    "head_w_vs_hidden_dim": lambda d, w: w.update({"head.w": w["head.w"][:, 1:]}),
    "no_head_b": lambda d, w: w.pop("head.b"),
}


def nan_at(name: str):
    """An edit of a weight file's (descriptor, weights) that writes a NaN
    to the first value of tensor `name`."""
    def edit(descriptor, weights):
        weights[name].flat[0] = np.nan
    return edit


# Tensors of the right names and shapes holding a non-finite value.
NON_FINITE_MODEL_TENSORS = {"nan_in_stem_w": nan_at("stem.w")}
NON_FINITE_FUSION_TENSORS = {"nan_in_hidden_w": nan_at("hidden.w")}


def own_frames(samples, params) -> np.ndarray:
    """The framing rule written out, sharing no code with the library:
    pre-emphasis y[0] = x[0], y[n] = x[n] - PREEMPHASIS * x[n-1], then
    1 + ceil((N - frame_len) / frame_step) rectangular frames (at least
    one) every frame_step samples, the last zero-padded."""
    x = np.asarray(samples, dtype=np.float64)
    y = x.copy()
    y[1:] = x[1:] - PREEMPHASIS * x[:-1]
    L, S = params.frame_len, params.frame_step
    frames = np.zeros((1 + max(0, math.ceil((y.size - L) / S)), L))
    for i, frame in enumerate(frames):
        seg = y[i * S:i * S + L]
        frame[:seg.size] = seg
    return frames


def clip_image(clip, params) -> np.ndarray:
    """A whole clip's MFCC image through the product path: the one
    window over the clip, cropped to every frame."""
    count = len(own_frames(clip.samples, params))
    return extract_chunks(clip, [(0.0, clip.duration)], params, False,
                          count).images[0]


def tree_bytes(root) -> dict:
    """Every file under `root` by relative path, with its bytes."""
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def count_forward_images(monkeypatch) -> list:
    """Patch `models.forward_batch` to record how many images each call
    forwards, and return the list they go to."""
    images = []
    forward_batch = models.forward_batch

    def counting(model, x):
        images.append(x.shape[0])
        return forward_batch(model, x)

    monkeypatch.setattr(models, "forward_batch", counting)
    return images


def overflowing_member(config, biomarker_id):
    """A member whose finite weights, exact in float32, overflow its
    forward pass to inf and nan; three blocks, since the run's two would
    still end finite at 3e38."""
    arch = CnnArch((config.arch_frames, config.num_cepstra),
                   config.stem_channels, 3, config.embedding_dim)
    member = models.init_cnn(arch, 2, seed=0, biomarker_id=biomarker_id)
    for name, w in member.weights.items():
        if not name.startswith("head."):
            w[...] = 3e38
    return member


def member_loss_and_grads(model, x, targets, needed):
    """A member's mean cross-entropy over images x [B, H, W] and the
    gradients of the head and of the other layers in `needed`, through
    the calls one step of `models.train` makes: its head's in
    `models.train`, its body's in `models.fit_bodies`."""
    emb, cache = models.forward_batch(model, x)
    logits, probs = models.head_forward(model, emb)
    rest = set(needed) - {"head"}
    d_emb, dw, db = nn.linear_backward(nn.softmax_ce_backward(probs, targets),
                                       emb, model.weights["head.w"],
                                       need_dx=bool(rest))
    grads = {"head.w": dw, "head.b": db}
    if rest:
        grads.update(models.backward_from_embedding(model, cache, d_emb, rest))
    return nn.cross_entropy(logits, targets), grads


def random_images(n: int, shape=(10, 8), seed: int = 0) -> list:
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for _ in range(n)]


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("corpus")
    write_corpus(str(path), 8, seed=3)
    return str(path)


def micro_run_config(corpus_dir: str, **overrides) -> RunConfig:
    base = dict(
        manifest=os.path.join(corpus_dir, "manifest.csv"),
        seed=11, chunk_size=2.0, stride=2.0,
        pretrain_epochs=3, tune_epochs=3, fusion_epochs=4,
        surrogate_per_class=4,
        num_cepstra=8, num_filters=16, fft_size=512,
        arch_frames=16, stem_channels=4, num_blocks=2, embedding_dim=8,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="session")
def micro_pipeline(corpus_dir) -> TrainedPipeline:
    return run_training(micro_run_config(corpus_dir))


@pytest.fixture(scope="session")
def micro_run_dir(micro_pipeline, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("run"))
    save_pipeline(micro_pipeline, path)
    return path


@pytest.fixture(scope="session")
def last1_pipeline(corpus_dir) -> TrainedPipeline:
    return run_training(micro_run_config(corpus_dir, strategy="last:1"))


@pytest.fixture(scope="session")
def last1_run_dir(last1_pipeline, tmp_path_factory) -> str:
    path = str(tmp_path_factory.mktemp("run_last1"))
    save_pipeline(last1_pipeline, path)
    return path
