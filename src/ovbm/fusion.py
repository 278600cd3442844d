"""Late fusion of biomarker embeddings with subject metadata.

Member embeddings are concatenated with a metadata vector (gender
one-hot + age/100) and fed through one 1024-unit ReLU layer into a
two-way softmax head. Joint training backpropagates through members via
their embeddings into the layers the transfer strategy trains; member
classification heads sit off the fusion loss path and never move here.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import models as M
from . import nn
from .chunker import Chunks
from .util import atomic_write_bytes, named_errors, sha256_file

HIDDEN_DIM = 1024
METADATA_DIM = 3  # gender one-hot (F, M) + age/100
NUM_CLASSES = 2


class EmptyMembers(ValueError):
    """A fusion network needs at least one member."""


class DimMismatch(ValueError):
    pass


class EnsembleDigestMismatch(ValueError):
    """A member weight file does not match the digest the fusion file
    recorded for it."""


def metadata_vector(gender: str = "unknown", age: int | None = None) -> np.ndarray:
    """[is_F, is_M, age/100]; unknowns encode as zeros."""
    vec = np.zeros(METADATA_DIM, dtype=np.float64)
    if gender == "F":
        vec[0] = 1.0
    elif gender == "M":
        vec[1] = 1.0
    if age is not None:
        vec[2] = min(max(int(age), 0), 100) / 100.0
    return vec


@dataclass
class FusionModel:
    """An ensemble: its members, in fusion input order, and the fusion
    network's weights, checked when built."""

    members: list
    weights: dict  # hidden.w/b, head.w/b

    def __post_init__(self) -> None:
        if not self.members:
            raise EmptyMembers("no members")
        M.check_tensors(self.weights, {
            "hidden.w": (HIDDEN_DIM, self.input_dim), "hidden.b": (HIDDEN_DIM,),
            "head.w": (NUM_CLASSES, HIDDEN_DIM), "head.b": (NUM_CLASSES,)})

    @property
    def member_ids(self) -> list:
        return [m.biomarker_id for m in self.members]

    @property
    def member_dims(self) -> list:
        return [m.arch.embedding_dim for m in self.members]

    @property
    def input_dim(self) -> int:
        return sum(self.member_dims) + METADATA_DIM


def build_fusion(members: list, seed: int = 0) -> FusionModel:
    input_dim = sum(m.arch.embedding_dim for m in members) + METADATA_DIM
    rng = np.random.default_rng(seed)
    weights = {
        "hidden.w": nn.he_uniform(rng, (HIDDEN_DIM, input_dim), fan_in=input_dim),
        "hidden.b": np.zeros(HIDDEN_DIM),
        "head.w": nn.he_uniform(rng, (NUM_CLASSES, HIDDEN_DIM), fan_in=HIDDEN_DIM),
        "head.b": np.zeros(NUM_CLASSES),
    }
    return FusionModel(list(members), weights)


def fuse_from_embeddings(fusion: FusionModel, emb: np.ndarray,
                         metadata: np.ndarray):
    """emb: [B, sum(member_dims)], metadata: [B, METADATA_DIM], or one
    subject's vector for every row. Returns (probs [B, 2], cache)."""
    meta = np.broadcast_to(metadata, (len(emb), np.shape(metadata)[-1]))
    x = np.concatenate([emb, meta], axis=1)
    if x.shape[1] != fusion.input_dim:
        raise DimMismatch(f"fusion input is {x.shape[1]}, expected {fusion.input_dim}")
    w = fusion.weights
    hidden = nn.relu(nn.linear(x, w["hidden.w"], w["hidden.b"]))
    logits = nn.linear(hidden, w["head.w"], w["head.b"])
    probs = nn.softmax(logits)
    return probs, {"x": x, "hidden": hidden, "logits": logits, "probs": probs}


def fusion_backward(fusion: FusionModel, cache: dict, targets: np.ndarray,
                    need_dx: bool = True):
    """Returns (fusion grads, d_input [B, input_dim]); d_input is None
    unless `need_dx`, as when no member layer trains."""
    w = fusion.weights
    dlogits = nn.softmax_ce_backward(cache["probs"], targets)
    dhidden, dhw, dhb = nn.linear_backward(dlogits, cache["hidden"], w["head.w"])
    dhidden = nn.relu_backward(dhidden, cache["hidden"])
    dx, dw, db = nn.linear_backward(dhidden, cache["x"], w["hidden.w"],
                                    need_dx)
    grads = {"head.w": dhw, "head.b": dhb, "hidden.w": dw, "hidden.b": db}
    return grads, dx


def score_chunks(fusion: FusionModel, chunks: Chunks,
                 metadata: np.ndarray) -> np.ndarray:
    """Ensemble class probabilities [N, 2] of chunks, given each chunk's
    subject's metadata [N, METADATA_DIM] (or one subject's vector, for
    every chunk)."""
    emb = np.concatenate(M.embed_chunks(fusion.members, chunks), axis=1)
    return fuse_from_embeddings(fusion, emb, metadata)[0]


def score_subject(pipe, chunks: Chunks, metadata: np.ndarray) -> tuple:
    """One subject's chunk scores [N, 2] under the trained pipeline `pipe`
    (`pipeline.TrainedPipeline`): the main ensemble's, the pretuned
    one's (the main array itself when `pipe.pt is pipe.main`), and each
    tuned member's own head's, by biomarker id."""
    main_probs = score_chunks(pipe.main, chunks, metadata)
    pt_probs = (main_probs if pipe.pt is pipe.main
                else score_chunks(pipe.pt, chunks, metadata))
    return main_probs, pt_probs, {
        m.biomarker_id: M.head_batches(m, emb)
        for m, emb in zip(pipe.tuned, M.embed_chunks(pipe.tuned, chunks))}


# -------------------------------------------------------------- train

def train_fusion(fusion: FusionModel, chunks: Chunks, metadata: np.ndarray,
                 labels, config: M.TrainConfig,
                 layers: frozenset) -> tuple:
    """Jointly train the fusion layer and each member's `layers`
    (`models.trainable_layers`) through `models.fit_bodies`, on labeled
    chunks: `metadata` [N, METADATA_DIM] and `labels` [N] are each
    chunk's subject's. Returns the trained ensemble and its per-epoch
    mean losses; the input ensemble is not mutated."""
    labels = np.array([int(y) for y in labels])
    members = [M.clone_model(m) for m in fusion.members]
    fusion = FusionModel(members, {k: w.copy() for k, w in fusion.weights.items()})
    meta = np.asarray(metadata, dtype=np.float64)
    state = nn.AdamState(fusion.weights)

    def head(emb, batch, t, need_dx):
        _, cache = fuse_from_embeddings(fusion, emb, meta[batch])
        grads, dx = fusion_backward(fusion, cache, labels[batch], need_dx)
        M.adam_step(fusion.weights, grads, state, config, t)
        return nn.cross_entropy(cache["logits"], labels[batch]), dx

    return fusion, M.fit_bodies(members, chunks, labels, config, layers, head)


# --------------------------------------------------------- persistence

def fusion_file_bytes(fusion: FusionModel, member_digests: dict,
                      meta: dict | None = None) -> bytes:
    return M.weight_file_bytes({
        "kind": "fusion",
        "member_ids": fusion.member_ids,
        "member_dims": fusion.member_dims,
        "metadata_dim": METADATA_DIM,
        "hidden_dim": HIDDEN_DIM,
        "member_digests": dict(sorted(member_digests.items())),
        "tensors": ["hidden.w", "hidden.b", "head.w", "head.b"],
        "meta": meta or {},
    }, fusion.weights)


def save_ensemble(dir_path, fusion: FusionModel,
                  meta: dict | None = None) -> None:
    """One weight file per member plus a fusion file that records each
    member file's digest, so mismatched mixtures refuse to load."""
    dir_path = Path(dir_path)
    digests = {}
    for m in fusion.members:
        path = dir_path / f"member_{m.biomarker_id}.ovbm"
        atomic_write_bytes(path, M.model_file_bytes(m, meta))
        digests[m.biomarker_id] = sha256_file(path)
    atomic_write_bytes(dir_path / "fusion.ovbm",
                       fusion_file_bytes(fusion, digests, meta))


def load_ensemble(dir_path) -> FusionModel:
    """The saved ensemble, after digest verification of every member."""
    dir_path = Path(dir_path)
    fusion_path = dir_path / "fusion.ovbm"
    descriptor, weights = M.read_weight_file(fusion_path)
    if descriptor.get("kind") != "fusion":
        raise ValueError(f"{dir_path}: fusion.ovbm is not a fusion file")
    with named_errors(fusion_path):
        member_ids = list(descriptor["member_ids"])
        digests = [descriptor["member_digests"].get(mid) for mid in member_ids]
        recorded = [descriptor["member_dims"], descriptor["metadata_dim"]]
    members = []
    for mid, expected in zip(member_ids, digests):
        path = dir_path / f"member_{mid}.ovbm"
        digest = sha256_file(path)
        if digest != expected:
            raise EnsembleDigestMismatch(
                f"{path}: digest {digest[:12]}... does not match the "
                f"fusion manifest"
            )
        members.append(M.load_model(path))
    with named_errors(fusion_path):
        fusion = FusionModel(members, weights)
    if recorded != [fusion.member_dims, METADATA_DIM]:
        raise ValueError(f"{fusion_path}: member_dims and metadata_dim "
                         f"{recorded} do not match the members")
    return fusion
