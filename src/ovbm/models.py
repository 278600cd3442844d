"""Residual micro-CNN biomarker models: init, forward/backward, transfer
strategies, Adam training, the biomarker roster, and weight-file IO.

Topology: stem 3x3 conv -> N residual blocks (conv-ReLU-conv + identity
skip, ReLU, 2x2 average pool) -> global average pool -> linear embedding
-> linear classification head -> softmax. All passes are written by
hand in numpy so gradients can be checked against finite differences.
"""

from __future__ import annotations

import contextvars
import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import nn
from .chunker import Chunks
from .degradation import mask_factors
from .util import atomic_write_bytes, cpus, derive_seed, named_errors

WEIGHT_MAGIC = b"OVBM"
WEIGHT_FORMAT_VERSION = 1
EVAL_BATCH = 64  # images per inference forward pass
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class ShapeMismatch(ValueError):
    """Input image shape is incompatible with the model architecture."""


class NonFiniteActivation(ValueError):
    """Forward pass produced NaN/Inf; weights are corrupt."""


class NTooLarge(ValueError):
    """A `last:N` strategy asked for more conv layers than the arch has."""


class SingleClassDataset(ValueError):
    """Training data contains fewer than two classes."""


@dataclass(frozen=True)
class CnnArch:
    """input_shape: (frames, coefficients), the exact shape of a member
    input; `chunker.extract_chunks` crops chunk images to it."""

    input_shape: tuple
    stem_channels: int
    num_blocks: int
    embedding_dim: int

    def __post_init__(self) -> None:
        frames, coeffs = self.input_shape
        if frames < 1 or coeffs < 1:
            raise ShapeMismatch("input_shape must be positive")
        if self.stem_channels < 1 or self.num_blocks < 1 or self.embedding_dim < 1:
            raise ValueError("arch sizes must be positive")
        h, w = frames, coeffs
        for b in range(self.num_blocks):
            if h < 2 or w < 2:
                raise ShapeMismatch(
                    f"block {b + 1} would pool a {h}x{w} map; input too small"
                )
            h, w = h // 2, w // 2

    @staticmethod
    def from_dict(d: dict) -> "CnnArch":
        return CnnArch(
            tuple(d["input_shape"]), d["stem_channels"],
            d["num_blocks"], d["embedding_dim"],
        )


def conv_layer_names(arch: CnnArch) -> list:
    """Conv layers ordered input -> output."""
    names = ["stem"]
    for b in range(1, arch.num_blocks + 1):
        names += [f"block{b}.conv1", f"block{b}.conv2"]
    return names


def layer_names(arch: CnnArch) -> list:
    return conv_layer_names(arch) + ["embed", "head"]


def weight_shapes(arch: CnnArch, num_classes: int) -> dict:
    """Every tensor of a member, name -> shape, in layer order."""
    C, E = arch.stem_channels, arch.embedding_dim
    shapes = {"stem.w": (C, 1, 3, 3), "stem.b": (C,)}
    for name in conv_layer_names(arch)[1:]:
        shapes[f"{name}.w"], shapes[f"{name}.b"] = (C, C, 3, 3), (C,)
    shapes.update({"embed.w": (E, C), "embed.b": (E,),
                   "head.w": (num_classes, E), "head.b": (num_classes,)})
    return shapes


def check_tensors(weights: dict, shapes: dict) -> None:
    """ValueError unless `weights` are exactly the tensors `shapes`
    names, each of its shape, with every value finite."""
    got = {k: np.shape(w) for k, w in weights.items()}
    bad = [f"{k} is {got.get(k, 'missing')}, expected {shapes.get(k, 'none')}"
           for k in sorted(got.keys() | shapes.keys())
           if got.get(k) != shapes.get(k)]
    if bad:
        raise ValueError("tensors disagree with the architecture: "
                         + "; ".join(bad))
    for k, w in weights.items():
        if not np.isfinite(w).all():
            raise ValueError(f"non-finite weights in {k}")


def trainable_layers(strategy: str, arch: CnnArch) -> frozenset:
    """The layers fine-tuning under `strategy` trains on `arch`: the head
    under "frozen" and "last:0", the head and the last N conv layers
    (from the output side) under "last:N", and every layer under "all"."""
    text = strategy.strip().lower()
    if text == "all":
        return frozenset(layer_names(arch))
    digits = text.removeprefix("last:")
    if text == "frozen":
        n = 0
    elif digits != text and digits.isascii() and digits.isdigit():
        n = int(digits)
    else:
        raise ValueError(f"unknown strategy {text!r} (frozen | last:N | all)")
    convs = conv_layer_names(arch)
    if n > len(convs):
        raise NTooLarge(f"n={n} but arch has {len(convs)} conv layers")
    return frozenset(convs[len(convs) - n:] + ["head"])


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 30
    batch_size: int = 8
    seed: int = 0
    split_fraction: float = 0.7


@dataclass
class BiomarkerModel:
    """A member network, checked when built (`check_tensors`)."""

    biomarker_id: str
    arch: CnnArch
    num_classes: int
    weights: dict

    def __post_init__(self) -> None:
        if self.num_classes < 2:
            raise ValueError("need at least two classes")
        check_tensors(self.weights, weight_shapes(self.arch, self.num_classes))


def init_cnn(arch: CnnArch, num_classes: int, seed: int,
             biomarker_id: str = "") -> BiomarkerModel:
    """He-style uniform weights (scaled by fan-in), zero biases. The
    draw order is fixed so one seed always produces one network."""
    rng = np.random.default_rng(seed)
    weights = {k: nn.he_uniform(rng, shape, fan_in=int(np.prod(shape[1:])))
               if k.endswith(".w") else np.zeros(shape)
               for k, shape in weight_shapes(arch, num_classes).items()}
    return BiomarkerModel(biomarker_id, arch, num_classes, weights)


def clone_model(model: BiomarkerModel) -> BiomarkerModel:
    return BiomarkerModel(
        model.biomarker_id, model.arch, model.num_classes,
        {k: w.copy() for k, w in model.weights.items()})


def replace_head(model: BiomarkerModel, num_classes: int) -> BiomarkerModel:
    """A zero classification head for a new target task; every other
    tensor is carried over unchanged. Softmax regression is convex and
    zero is its standard start, so the head needs no draw, and its first
    step sends no gradient into the layers below."""
    weights = {k: w.copy() for k, w in model.weights.items()}
    weights["head.w"] = np.zeros((num_classes, model.arch.embedding_dim))
    weights["head.b"] = np.zeros(num_classes)
    return BiomarkerModel(model.biomarker_id, model.arch, num_classes, weights)


# ------------------------------------------------------------- forward

def forward_batch(model: BiomarkerModel, x: np.ndarray):
    """x: [B, H, W] member inputs. Returns (embeddings [B, E], the
    activations `backward_from_embedding` reads); the head is
    `head_forward`'s."""
    w = model.weights
    x = x[:, None, :, :]
    stem = nn.relu(nn.conv3x3(x, w["stem.w"], w["stem.b"]))
    a, blocks = stem, []
    for b in range(1, model.arch.num_blocks + 1):
        block_in = a
        r1 = nn.relu(nn.conv3x3(block_in, w[f"block{b}.conv1.w"],
                                w[f"block{b}.conv1.b"]))
        z2 = nn.conv3x3(r1, w[f"block{b}.conv2.w"], w[f"block{b}.conv2.b"])
        s = nn.relu(z2 + block_in)
        a = nn.avgpool2(s)
        blocks.append({"in": block_in, "r1": r1, "s": s})

    g = nn.global_avgpool(a)
    emb = _finite(model, nn.linear(g, w["embed.w"], w["embed.b"]))
    return emb, {"x": x, "stem_relu": stem, "blocks": blocks,
                 "gap_in_shape": a.shape, "g": g}


def head_forward(model: BiomarkerModel, emb: np.ndarray) -> tuple:
    """The member's own classification head over embeddings [B, E]:
    (logits, probs), each [B, num_classes]."""
    logits = _finite(model, nn.linear(emb, model.weights["head.w"],
                                      model.weights["head.b"]))
    return logits, nn.softmax(logits)


def _finite(model: BiomarkerModel, a: np.ndarray) -> np.ndarray:
    """`a`, unless a value of it is NaN or infinite."""
    if not np.isfinite(a).all():
        raise NonFiniteActivation(f"member {model.biomarker_id!r}: non-finite "
                                  f"activation; weights corrupt")
    return a


def backward_from_embedding(model: BiomarkerModel, cache: dict,
                            d_emb: np.ndarray, needed: set) -> dict:
    """Backprop from an embedding gradient. `needed` is the set of layer
    names whose weight gradients the caller wants; the walk stops as
    soon as nothing deeper is required."""
    w = model.weights
    convs = conv_layer_names(model.arch)
    grads: dict = {}

    needed_conv_idx = [convs.index(c) for c in needed if c in convs]
    dg, dw, db = nn.linear_backward(d_emb, cache["g"], w["embed.w"],
                                    need_dx=bool(needed_conv_idx))
    if "embed" in needed:
        grads["embed.w"], grads["embed.b"] = dw, db
    if not needed_conv_idx:
        return grads
    min_needed = min(needed_conv_idx)

    da = nn.global_avgpool_backward(dg, cache["gap_in_shape"])

    for b in range(model.arch.num_blocks, 0, -1):
        idx1, idx2 = 2 * b - 1, 2 * b
        blk = cache["blocks"][b - 1]
        da = nn.avgpool2_backward(da, blk["s"].shape)
        ds = nn.relu_backward(da, blk["s"])
        need_below_conv2 = min_needed < idx2
        dx2, dw2, db2 = nn.conv3x3_backward(
            ds, blk["r1"], w[f"block{b}.conv2.w"], need_dx=need_below_conv2
        )
        if f"block{b}.conv2" in needed:
            grads[f"block{b}.conv2.w"] = dw2
            grads[f"block{b}.conv2.b"] = db2
        if not need_below_conv2:
            break
        dr1 = nn.relu_backward(dx2, blk["r1"])
        need_below_conv1 = min_needed < idx1
        dx1, dw1, db1 = nn.conv3x3_backward(
            dr1, blk["in"], w[f"block{b}.conv1.w"], need_dx=need_below_conv1
        )
        if f"block{b}.conv1" in needed:
            grads[f"block{b}.conv1.w"] = dw1
            grads[f"block{b}.conv1.b"] = db1
        if not need_below_conv1:
            break
        da = dx1 + ds  # identity skip joins here

    if "stem" in needed:
        dpre = nn.relu_backward(da, cache["stem_relu"])
        _, dw, db = nn.conv3x3_backward(dpre, cache["x"], w["stem.w"],
                                        need_dx=False)
        grads["stem.w"] = dw
        grads["stem.b"] = db
    return grads


# -------------------------------------------------------------- train

def adam_step(weights: dict, grads: dict, state: nn.AdamState,
              config: TrainConfig, t: int) -> None:
    """One Adam update, in place, over every tensor present in `grads`."""
    if t < 1:
        raise ValueError("step index starts at 1")
    for key, g in grads.items():
        weights[key], state.m[key], state.v[key] = nn.adam_update(
            weights[key], g, state.m[key], state.v[key], t,
            config.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
        )


def stratified_split(labels, fraction: float, rng: np.random.Generator):
    """Per-class shuffled split. Every class keeps at least one item on
    each side when it has two or more."""
    labels = np.asarray(labels)
    train_idx: list = []
    test_idx: list = []
    for cls in sorted(set(labels.tolist())):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        n_train = int(round(fraction * idx.size))
        if idx.size >= 2:
            n_train = min(max(n_train, 1), idx.size - 1)
        else:
            n_train = idx.size
        train_idx.extend(idx[:n_train].tolist())
        test_idx.extend(idx[n_train:].tolist())
    return sorted(train_idx), sorted(test_idx)


def head_batches(model: BiomarkerModel, emb: np.ndarray) -> np.ndarray:
    """Own-head probabilities over embeddings [N, E], computed in the
    EVAL_BATCH batches of `embed_chunks`: a linear layer's rows depend
    on the batch around them, and these are the scores' batches."""
    probs = [np.zeros((0, model.num_classes))]
    for i in range(0, emb.shape[0], EVAL_BATCH):
        probs.append(head_forward(model, emb[i:i + EVAL_BATCH])[1])
    return np.concatenate(probs, axis=0)


def fit(labels: np.ndarray, config: TrainConfig, step):
    """The training loop of every model kind: a stratified split of the
    labeled items, then `config.epochs` shuffled passes over the
    training side in mini-batches. `step(batch, t)` takes one Adam step
    on the items at indices `batch` (step index t, from 1) and returns
    their mean loss. The split and the shuffles are drawn from sub-seeds
    of config.seed. Returns the epoch losses.
    """
    if len(set(labels.tolist())) < 2:
        raise SingleClassDataset("training data has fewer than two classes")
    split_rng = np.random.default_rng(derive_seed(config.seed, "split"))
    train_idx = np.array(stratified_split(labels, config.split_fraction,
                                          split_rng)[0], dtype=int)
    shuffle_rng = np.random.default_rng(derive_seed(config.seed, "shuffle"))
    epoch_losses: list = []
    t = 0
    for _ in range(config.epochs):
        order = train_idx[shuffle_rng.permutation(train_idx.size)]
        losses = []
        for start in range(0, order.size, config.batch_size):
            batch = order[start:start + config.batch_size]
            t += 1
            losses.append(step(batch, t) * batch.size)
        epoch_losses.append(float(np.sum(losses) / order.size))
    return epoch_losses


def fit_bodies(members: list, chunks: Chunks, labels: np.ndarray,
               config: TrainConfig, layers: frozenset, head) -> list:
    """The body half of every training step, through `fit` on chunks and
    their labels [N]. Each step hands the members' embeddings of the
    batch, concatenated [B, sum of E], to `head(emb, batch, t, need_dx)`,
    which steps the network above the bodies and returns (loss, d_emb);
    each member then takes its own Adam step, in place, on its layers in
    `layers` from its own columns of d_emb. With no body layer in
    `layers` the embeddings never change, so they are read once from
    `embed_chunks` (which keeps them on the Chunks) and `head` is asked
    for no d_emb. Returns the epoch losses."""
    needed = layers - {"head"}
    if not needed:
        emb = np.concatenate(embed_chunks(members, chunks), axis=1)
        return fit(labels, config,
                   lambda batch, t: head(emb[batch], batch, t, False)[0])
    inputs = [chunks.expand(member_inputs(m, chunks)) for m in members]
    states = [nn.AdamState({k: w for k, w in m.weights.items()
                            if k.rpartition(".")[0] in needed})
              for m in members]
    dims = np.cumsum([0] + [m.arch.embedding_dim for m in members])

    def step(batch, t):
        outs = [forward_batch(m, x[batch]) for m, x in zip(members, inputs)]
        loss, d_emb = head(np.concatenate([e for e, _ in outs], axis=1),
                           batch, t, True)
        for m, (_, cache), state, lo, hi in zip(members, outs, states,
                                                dims, dims[1:]):
            adam_step(m.weights, backward_from_embedding(
                m, cache, d_emb[:, lo:hi], needed), state, config, t)
        return loss

    return fit(labels, config, step)


def train(model: BiomarkerModel, chunks: Chunks, labels, config: TrainConfig,
          layers: frozenset) -> tuple:
    """Mini-batch Adam on the member's own softmax head and on its body
    layers in `layers` (`trainable_layers`), through `fit_bodies`, on
    chunks and their labels [N]. Returns the trained model and its
    per-epoch mean losses; the input model is not mutated."""
    labels = np.array([int(y) for y in labels])
    model = clone_model(model)
    if int(labels.max()) >= model.num_classes:
        raise ValueError("label outside the model's class range")
    w = model.weights
    state = nn.AdamState({k: w[k] for k in ("head.w", "head.b")})

    def head(emb, batch, t, need_dx):
        logits, probs = head_forward(model, emb)
        y = labels[batch]
        d_emb, dw, db = nn.linear_backward(nn.softmax_ce_backward(probs, y),
                                           emb, w["head.w"], need_dx=need_dx)
        adam_step(w, {"head.w": dw, "head.b": db}, state, config, t)
        return nn.cross_entropy(logits, y), d_emb

    return model, fit_bodies([model], chunks, labels, config, layers, head)


# ------------------------------------------------------------- roster

@dataclass(frozen=True)
class RegistryEntry:
    biomarker_id: str
    family: str  # sensory | brainos | cognitive | symbolic
    kind: str | None = None  # a member's surrogate recipe (`synthesis`)
    num_classes: int | None = None
    chunk_seconds: float | None = None
    keyword: str | None = None
    chunk_size: float | None = None
    scheme: str | None = None
    always_mask: bool = False


# The fixed 16-entry biomarker roster, four per family. Sensory and
# cognitive entries are model-backed: each pretrains on a synthetic
# surrogate task. The brainos family probes the full ensemble at fixed
# chunk sizes; the symbolic family scores the ensemble under each
# aggregation scheme, and the per-member-pretuned ensemble (no scheme).
ROSTER = (
    RegistryEntry("poisson_muscular", "sensory", "masked_spectral",
                  num_classes=2, chunk_seconds=4.0, always_mask=True),
    RegistryEntry("vocal_cords_ww_them", "sensory", "wake_word", num_classes=2,
                  chunk_seconds=3.0, keyword="them"),
    RegistryEntry("sentiment_8class", "sensory", "sentiment", num_classes=8,
                  chunk_seconds=4.0),
    RegistryEntry("cough_origin", "sensory", "cough", num_classes=2,
                  chunk_seconds=6.0),
    RegistryEntry("brainos_chunk2", "brainos", chunk_size=2.0),
    RegistryEntry("brainos_chunk8", "brainos", chunk_size=8.0),
    RegistryEntry("brainos_chunk14", "brainos", chunk_size=14.0),
    RegistryEntry("brainos_chunk20", "brainos", chunk_size=20.0),
    RegistryEntry("ww_context_kitchen", "cognitive", "wake_word", num_classes=2,
                  chunk_seconds=3.0, keyword="kitchen"),
    RegistryEntry("ww_unique_tipping", "cognitive", "wake_word", num_classes=2,
                  chunk_seconds=3.0, keyword="tipping"),
    RegistryEntry("ww_inferred_jar", "cognitive", "wake_word", num_classes=2,
                  chunk_seconds=3.0, keyword="jar"),
    RegistryEntry("ww_salient_overflow", "cognitive", "wake_word",
                  num_classes=2, chunk_seconds=3.0, keyword="overflow"),
    RegistryEntry("symbolic_average", "symbolic", scheme="average"),
    RegistryEntry("symbolic_linear_positive", "symbolic",
                  scheme="linear_positive"),
    RegistryEntry("symbolic_linear_negative", "symbolic",
                  scheme="linear_negative"),
    RegistryEntry("symbolic_pretuned", "symbolic"),
)

# The model-backed entries, in fusion input order.
MEMBERS = tuple(e for e in ROSTER if e.family in ("sensory", "cognitive"))
MEMBER_IDS = tuple(e.biomarker_id for e in MEMBERS)


# -------------------------------------------------- chunk embeddings

# Members whose input is always masked, whatever the run's mask setting.
_ALWAYS_MASK = frozenset(e.biomarker_id for e in MEMBERS if e.always_mask)


def member_inputs(member: BiomarkerModel, chunks: Chunks) -> np.ndarray:
    """[K, H, W] inputs of a member over the chunks' distinct crops
    (`chunks.expand` gives them per chunk). The degradation-sensitive
    member always sees masked features: chunks not masked at extraction
    are masked here (the mask is elementwise, so masking all images at
    once changes no bit)."""
    x = chunks.crops
    if x.shape[1:] != member.arch.input_shape:
        raise ShapeMismatch(f"chunk images are {x.shape[1:]}, arch expects "
                            f"{member.arch.input_shape}")
    if member.biomarker_id in _ALWAYS_MASK and not chunks.masked:
        x = mask_factors(x) * x
    return x


def _body_key(member: BiomarkerModel) -> tuple:
    """Everything a member's embedding of a chunk depends on: its id
    (which sets the input transform), architecture and non-head tensors."""
    return (member.biomarker_id, member.arch,
            tuple((name, w.tobytes()) for name, w in sorted(member.weights.items())
                  if not name.startswith("head.")))


# A call that embeds at least this many distinct crops runs its bodies
# on threads, one per CPU. Measured on a trained run's 8 members (2 CPUs,
# one BLAS thread, 30 alternations): two threads beat one in 29 of 30
# calls of 24 crops (1.21-1.23x), 25 of 30 of 16 and 19 of 30 of 8, and
# lost all 10 of 4 crops; the serial scoring after a threaded call of
# 24 was no slower. Pools on every small call slowed that later serial
# work (glibc's per-thread malloc arenas).
THREADED_CROPS = 24


def _embed(member: BiomarkerModel, chunks: Chunks) -> np.ndarray:
    """One body's embeddings [K, E] of the chunks' distinct crops, in
    batches of EVAL_BATCH."""
    x = member_inputs(member, chunks)
    return np.concatenate([np.zeros((0, member.arch.embedding_dim))]
                          + [forward_batch(member, x[i:i + EVAL_BATCH])[0]
                             for i in range(0, len(x), EVAL_BATCH)])


def embed_chunks(members: list, chunks: Chunks) -> list:
    """Each member's embeddings [N, E] of chunks.

    Each body runs over the distinct crops only, in batches of
    EVAL_BATCH, and the rows are expanded to the chunks by
    `chunks.index`. Embeddings are kept on `chunks.embeddings` by member
    body, so calls on the same Chunks (or on its `head`s) run each
    distinct body once: under the `frozen` strategy the tune step, the
    fusion training and the run's training-subject scores share the
    pretrained bodies' embeddings. Two or more bodies still to run over
    THREADED_CROPS or more crops run on threads, one per CPU that
    `util.cpus` grants (a `map_tasks` worker gets one, this thread), that
    end with the call; each computes the same rows as on this thread, in
    the caller's NumPy error state."""
    k = len(chunks.crops)
    keys = [_body_key(m) for m in members]
    todo = {key: m for key, m in zip(keys, members)
            if len(chunks.embeddings.get(key, ())) < k}
    threads = min(len(todo), cpus())
    if threads > 1 and k >= THREADED_CROPS:
        with ThreadPoolExecutor(threads) as pool:
            done = [pool.submit(contextvars.copy_context().run, _embed, m,
                                chunks) for m in todo.values()]
            embedded = [task.result() for task in done]
    else:
        embedded = [_embed(m, chunks) for m in todo.values()]
    chunks.embeddings.update(zip(todo, embedded))
    return [chunks.expand(chunks.embeddings[key][:k]) for key in keys]


# ---------------------------------------------------------- weight IO

def pack_tensor_records(weights: dict, order: list) -> bytes:
    """name length, name, u32 rank, u32 dims, float32 LE payload."""
    parts = []
    for name in order:
        w = np.ascontiguousarray(weights[name], dtype="<f4")
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", w.ndim))
        parts.append(struct.pack(f"<{w.ndim}I", *w.shape))
        parts.append(w.tobytes())
    return b"".join(parts)


def unpack_tensor_records(buf: bytes, offset: int) -> dict:
    weights: dict = {}
    n = len(buf)

    def need(nbytes: int) -> None:
        if offset + nbytes > n:
            raise ValueError("truncated weight file")

    while offset < n:
        need(4)
        (name_len,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        need(name_len)
        name = buf[offset:offset + name_len].decode("utf-8")
        offset += name_len
        need(4)
        (rank,) = struct.unpack_from("<I", buf, offset)
        offset += 4
        need(4 * rank)
        dims = struct.unpack_from(f"<{rank}I", buf, offset)
        offset += 4 * rank
        count = math.prod(dims)
        need(4 * count)
        data = np.frombuffer(buf, dtype="<f4", count=count, offset=offset)
        offset += 4 * count
        weights[name] = data.reshape(dims).astype(np.float64)
    return weights


def weight_file_bytes(descriptor: dict, weights: dict) -> bytes:
    """A weight file: the header, the descriptor, then the tensors that
    `descriptor["tensors"]` lists, in that order (`read_weight_file`)."""
    desc = json.dumps(descriptor, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    header = WEIGHT_MAGIC + struct.pack("<II", WEIGHT_FORMAT_VERSION, len(desc))
    return header + desc + pack_tensor_records(weights, descriptor["tensors"])


def read_weight_file(path):
    """Returns (descriptor dict, weights dict). The tensor records must
    be exactly the descriptor's `tensors` list, in order, so a file cut
    at a record boundary fails here rather than at first use."""
    buf = Path(path).read_bytes()
    if len(buf) < 12 or buf[:4] != WEIGHT_MAGIC:
        raise ValueError(f"{path}: not a weight file")
    version, desc_len = struct.unpack_from("<II", buf, 4)
    if version != WEIGHT_FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported weight format version {version}")
    if 12 + desc_len > len(buf):
        raise ValueError(f"{path}: truncated weight file")
    with named_errors(path):  # only a JSON object takes a string key
        descriptor = json.loads(buf[12:12 + desc_len].decode("utf-8"))
        tensors = descriptor["tensors"]
        weights = unpack_tensor_records(buf, 12 + desc_len)
    if list(weights) != tensors:
        raise ValueError(f"{path}: tensor records do not match the "
                         f"descriptor (truncated or tampered weight file)")
    return descriptor, weights


def model_file_bytes(model: BiomarkerModel, meta: dict | None = None) -> bytes:
    return weight_file_bytes({
        "kind": "biomarker",
        "biomarker_id": model.biomarker_id,
        "num_classes": model.num_classes,
        "arch": asdict(model.arch),
        "tensors": list(weight_shapes(model.arch, model.num_classes)),
        "meta": meta or {},
    }, model.weights)


def save_model(path, model: BiomarkerModel, meta: dict | None = None) -> None:
    atomic_write_bytes(path, model_file_bytes(model, meta))


def load_model(path) -> BiomarkerModel:
    descriptor, weights = read_weight_file(path)
    if descriptor.get("kind") != "biomarker":
        raise ValueError(f"{path}: not a biomarker model file")
    with named_errors(path):
        return BiomarkerModel(
            descriptor["biomarker_id"], CnnArch.from_dict(descriptor["arch"]),
            descriptor["num_classes"], weights)
