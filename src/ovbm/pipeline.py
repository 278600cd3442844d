"""End-to-end training runs: corpus in, trained ensemble + metrics out.

A run is fully described by a RunConfig. The stages are

  1. subject-level stratified split of the manifest, and the training
     subjects' chunks,
  2. surrogate pretraining of the eight CNN members, and
  3. per-member fine-tune to the 2-way target task (own heads), on those
     chunks: one task per member, run in worker processes
     (`util.map_tasks`),
  4. joint fusion training over the pretrained members (main ensemble)
     and, if the strategy lets tuning move a member body, over the tuned
     members (pretuned variant; else it is the main ensemble),
  5. subject-level evaluation via chunk aggregation.

Every random draw comes from a sub-seed named after its stage, so one
(config, manifest) pair always produces byte-identical artifacts.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import models as M
from .aggregation import AggregationScheme, Diagnosis, aggregate, decide
from .audio_io import (REPORT_UNSAFE, Recording, Resampled, SubjectRecord,
                       WavRecording, parse_manifest)
from .chunker import Chunks, chunk_plan, extract_chunks
from .fusion import (
    FusionModel,
    build_fusion,
    load_ensemble,
    metadata_vector,
    save_ensemble,
    score_chunks,
    score_subject,
    train_fusion,
)
from .mfcc import MfccParams, duration_samples
from .saliency import saliency_map
from .synthesis import MAX_SURROGATE_PER_CLASS, surrogate_dataset
from .util import (atomic_write_text, config_digest, derive_seed, map_tasks,
                   named_errors)

FORMAT_VERSION = 1


class UnknownConfigKey(ValueError):
    """Config source contains a key RunConfig does not define."""


# Python types each RunConfig field annotation accepts.
_FIELD_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


@dataclass(frozen=True)
class RunConfig:
    """Everything a training run depends on, flat and JSON-friendly,
    checked when built. The objects its fields describe are built with
    it, once, as read-only attributes that are not fields: `params`
    (MfccParams), `arch` (CnnArch), `aggregation` (the parsed `scheme`)
    and `layers` (what `strategy` trains on `arch`)."""

    manifest: str = ""
    seed: int = 0
    label: str = "run"
    # chunking / aggregation
    chunk_size: float = 4.0
    stride: float = 2.0
    poisson_mask: bool = True
    scheme: str = "average"
    threshold: float = 0.5
    # training
    strategy: str = "frozen"
    learning_rate: float = 1e-3
    batch_size: int = 8
    pretrain_epochs: int = 12
    tune_epochs: int = 10
    fusion_epochs: int = 25
    surrogate_per_class: int = 16
    split_fraction: float = 0.7
    # features (lighter than the extractor's reference defaults)
    sample_rate: int = 16000
    window_len: float = 0.020
    window_step: float = 0.010
    num_cepstra: int = 13
    num_filters: int = 26
    fft_size: int = 512
    # member architecture
    arch_frames: int = 64
    stem_channels: int = 8
    num_blocks: int = 3
    embedding_dim: int = 32

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            # a bool is an int to Python, but never a number here
            if (not isinstance(value, _FIELD_TYPES[f.type])
                    or (f.type != "bool" and isinstance(value, bool))):
                raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise ValueError(f"{f.name} is too large for a float")
        if not self.manifest:
            raise ValueError("manifest path is required")
        if set(self.label) & set(REPORT_UNSAFE):
            raise ValueError(f"label {self.label!r} holds one of {REPORT_UNSAFE!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        for name in ("pretrain_epochs", "tune_epochs", "fusion_epochs",
                     "surrogate_per_class", "batch_size"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
        if self.surrogate_per_class > MAX_SURROGATE_PER_CLASS:
            raise ValueError(f"surrogate_per_class {self.surrogate_per_class} "
                             f"exceeds MAX_SURROGATE_PER_CLASS "
                             f"{MAX_SURROGATE_PER_CLASS}")
        if not 0.0 < self.split_fraction < 1.0:
            raise ValueError("split_fraction must lie in (0, 1)")
        derive = functools.partial(object.__setattr__, self)
        derive("aggregation", AggregationScheme.parse(self.scheme))
        # building the arch checks it before `trainable_layers` lists
        # every one of its layers
        derive("arch", M.CnnArch(
            input_shape=(self.arch_frames, self.num_cepstra),
            stem_channels=self.stem_channels, num_blocks=self.num_blocks,
            embedding_dim=self.embedding_dim))
        derive("layers", M.trainable_layers(self.strategy, self.arch))
        derive("params", MfccParams(
            window_len=self.window_len, window_step=self.window_step,
            num_cepstra=self.num_cepstra, num_filters=self.num_filters,
            fft_size=self.fft_size, sample_rate=self.sample_rate))
        for name in ("chunk_size", "stride"):
            duration_samples(name, getattr(self, name), self.sample_rate)
        if self.chunk_size < self.window_len:
            raise ValueError(f"chunk_size {self.chunk_size!r} s is shorter than "
                             f"one window (window_len {self.window_len!r} s)")
        # one window per stride: no more windows than the recording has frames
        if self.stride < self.window_step:
            raise ValueError(f"stride {self.stride!r} s is shorter than one "
                             f"frame step (window_step {self.window_step!r} s)")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise UnknownConfigKey(f"unknown config keys: {', '.join(unknown)}")
        return cls(**data)

    def digest(self) -> str:
        return config_digest(self.to_dict())

    def train_config(self, epochs: int, seed: int) -> M.TrainConfig:
        return M.TrainConfig(
            learning_rate=self.learning_rate, epochs=epochs,
            batch_size=self.batch_size, seed=seed,
            split_fraction=self.split_fraction,
        )


def resolve_wav_path(manifest_path: str, wav_path: str) -> str:
    if os.path.isabs(wav_path):
        return wav_path
    return os.path.join(os.path.dirname(os.path.abspath(manifest_path)), wav_path)


def load_clip(manifest_path: str, record: SubjectRecord,
              sample_rate: int) -> Resampled:
    """A manifest row's recording at `sample_rate`: validated whole here,
    decoded and resampled only where the chunker reads it."""
    wav = WavRecording(resolve_wav_path(manifest_path, record.wav_path))
    return Resampled(wav, sample_rate)


class FeatureStore:
    """Per-subject chunk cache for one training run: each subject's
    chunks under the run's chunk plan, features and crop."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._chunks: dict = {}

    def chunks(self, record: SubjectRecord) -> Chunks:
        if record.subject_id not in self._chunks:
            clip = load_clip(self.config.manifest, record,
                             self.config.sample_rate)
            self._chunks[record.subject_id] = _run_chunks(self.config, clip)
        return self._chunks[record.subject_id]


def _run_chunks(config: RunConfig, clip: Recording) -> Chunks:
    """A recording's chunks under the run's chunk plan, features, mask
    and crop."""
    plan = chunk_plan(clip.duration, config.chunk_size, config.stride)
    return extract_chunks(clip, plan, config.params,
                          config.poisson_mask, config.arch_frames)


@dataclass
class TrainedPipeline:
    config: RunConfig
    tuned: list                 # 2-way fine-tuned models, in roster order
    main: FusionModel
    pt: FusionModel             # tuned fusion, or `main` (frozen, last:0)
    metrics: dict = field(default_factory=dict)


def _metadata_rows(records: list, counts: list) -> np.ndarray:
    """[sum(counts), METADATA_DIM]: each subject's vector, once per chunk."""
    return np.repeat([metadata_vector(r.gender, r.age) for r in records],
                     counts, axis=0)


def _diagnoses(config: RunConfig, records: list, probs) -> list:
    """Aggregate and threshold each subject's chunk class probabilities,
    an iterable of arrays [n, 2], one per record, in `records` order."""
    scheme = config.aggregation
    diagnoses = []
    for record, p in zip(records, probs):
        chunk_probs = p[:, 1].tolist()
        probability = aggregate(chunk_probs, scheme)
        diagnoses.append(Diagnosis(
            record.subject_id, probability, decide(probability, config.threshold),
            config.threshold, scheme.value, chunk_probs, config.chunk_size,
            config.stride))
    return diagnoses


def _subject_metrics(diagnoses: list, records: list, threshold: float) -> dict:
    labels = {r.subject_id: bool(r.label) for r in records}
    subjects = [(d.label == "positive") == labels[d.subject_id]
                for d in diagnoses]
    chunks = [(decide(p, threshold) == "positive") == labels[d.subject_id]
              for d in diagnoses for p in d.chunk_probabilities]
    return {
        "num_subjects": len(diagnoses),
        "subject_accuracy": sum(subjects) / len(subjects),
        "chunk_accuracy": sum(chunks) / len(chunks),
    }


def run_training(config: RunConfig) -> TrainedPipeline:
    records = parse_manifest(config.manifest)
    store = FeatureStore(config)

    # 1. hold out whole subjects, stratified by label
    labels = [r.label for r in records]
    split_rng = np.random.default_rng(derive_seed(config.seed, "subject_split"))
    train_idx, test_idx = M.stratified_split(labels, config.split_fraction,
                                             split_rng)
    train_records = [records[i] for i in train_idx]
    test_records = [records[i] for i in test_idx]
    if len(set(labels)) < 2:
        raise ValueError(f"{config.manifest}: every subject is labeled "
                         f"{('nonAD', 'AD')[labels[0]]}; training needs both")
    if not test_records:
        raise ValueError(f"{config.manifest}: the split leaves no test subject")

    # chunk-level target dataset from the training subjects: each chunk
    # carries its subject's metadata and label. Every later stage reads
    # this one Chunks, so each distinct member body embeds it once.
    parts = [store.chunks(rec) for rec in train_records]
    counts = [len(c) for c in parts]
    chunks = Chunks(np.concatenate([c.images for c in parts]),
                    config.poisson_mask)
    metadata = _metadata_rows(train_records, counts)
    labels = np.repeat([r.label for r in train_records], counts)

    # 2-3. one task per member: surrogate pretraining on the member's own
    # recipe, then the fine-tune on the target task (kept for saliency and
    # the pretuned ensemble; their own heads never see joint gradients).
    # A task returns the embeddings it left on `chunks`, as a worker's
    # copy of `chunks` is not the parent's (whose cache is empty until
    # every task is done).
    def member(entry: M.RegistryEntry) -> tuple:
        mid = entry.biomarker_id
        data = surrogate_dataset(entry, config.params,
                                 derive_seed(config.seed, "surrogate", mid),
                                 config.surrogate_per_class, config.arch_frames)
        model0 = M.init_cnn(config.arch, entry.num_classes,
                            derive_seed(config.seed, "init", mid), mid)
        pretrained, _ = M.train(
            model0, Chunks(np.stack([image for image, _ in data]), masked=False),
            [label for _, label in data],
            config.train_config(config.pretrain_epochs,
                                derive_seed(config.seed, "pretrain", mid)),
            frozenset(M.layer_names(config.arch)))
        tuned, _ = M.train(
            M.replace_head(pretrained, 2), chunks, labels,
            config.train_config(config.tune_epochs,
                                derive_seed(config.seed, "tune", mid)),
            config.layers)
        return pretrained, tuned, chunks.embeddings

    # the 8-class member pretrains on the most clips, so it starts first
    entries = sorted(M.MEMBERS, key=lambda e: -e.num_classes)
    results = dict(zip(entries, map_tasks(member, entries)))
    pretrained, tuned, embeddings = map(list, zip(*map(results.get, M.MEMBERS)))
    for cached in embeddings:
        chunks.embeddings.update(cached)

    # 4. joint fusion over the pretrained members (main), and over the tuned
    # ones (pt) only if tuning moved a body, as no fusion reads member heads
    def fuse(name: str, members: list) -> tuple:
        fusion0 = build_fusion(members, derive_seed(config.seed, "fusion", name))
        return train_fusion(
            fusion0, chunks, metadata, labels,
            config.train_config(config.fusion_epochs,
                                derive_seed(config.seed, "fusion_train", name)),
            config.layers)
    main, main_losses = fuse("main", pretrained)
    pt = fuse("pt", tuned)[0] if config.layers - {"head"} else main

    pipe = TrainedPipeline(config, tuned, main, pt)
    pipe.metrics = _run_metrics(pipe, store, train_records, chunks,
                                test_records, main_losses[-1])
    return pipe


def _run_metrics(pipe: TrainedPipeline, store: FeatureStore,
                 train_records: list, train_chunks: Chunks, test_records: list,
                 fusion_loss: float) -> dict:
    """`train_chunks` holds the training subjects' chunks end to end, in
    `train_records` order, as the run trained on them; `fusion_loss` is
    the main fusion's final epoch loss."""
    config = pipe.config

    # The training subjects are scored on the run's training Chunks,
    # whose embeddings the training stages left on it; each test
    # subject's cached chunks, by `score_subject`, as saliency scores a
    # run plan: main, pretuned, and each tuned member by its own head.
    counts = [len(store.chunks(r)) for r in train_records]
    train_diag = _diagnoses(config, train_records, np.split(score_chunks(
        pipe.main, train_chunks, _metadata_rows(train_records, counts)),
        np.cumsum(counts)[:-1]))
    scores = [score_subject(pipe, store.chunks(r),
                            metadata_vector(r.gender, r.age))
              for r in test_records]
    test_diag = _diagnoses(config, test_records, (s[0] for s in scores))
    pt_test = _diagnoses(config, test_records, (s[1] for s in scores))
    members = {mid: _diagnoses(config, test_records,
                               (s[2][mid] for s in scores))
               for mid in M.MEMBER_IDS}
    member_acc = {mid: _subject_metrics(d, test_records, config.threshold)
                  ["subject_accuracy"] for mid, d in members.items()}
    detections = {mid: sorted(d.subject_id for d, r in zip(ds, test_records)
                              if d.label == "positive" and r.label == 1)
                  for mid, ds in members.items()}
    test_positives = sorted(r.subject_id for r in test_records if r.label == 1)
    best_id = max(member_acc, key=lambda k: (member_acc[k], k))

    return {
        **_artifact_meta(config),
        "label": config.label,
        "counts": {
            "subjects": len(train_records) + len(test_records),
            "train_subjects": len(train_records),
            "test_subjects": len(test_records),
            "fusion_samples": len(train_chunks),
        },
        "train": _subject_metrics(train_diag, train_records, config.threshold),
        "test": _subject_metrics(test_diag, test_records, config.threshold),
        "pt_test": _subject_metrics(pt_test, test_records, config.threshold),
        "fusion": {"final_epoch_loss": fusion_loss},
        "members": {mid: {"test_subject_accuracy": member_acc[mid]}
                    for mid in member_acc},
        "best_member": {
            "biomarker_id": best_id,
            "test_subject_accuracy": member_acc[best_id],
        },
        "detections": detections,
        "test_positives": test_positives,
        "train_subjects": sorted(r.subject_id for r in train_records),
        "test_subjects": sorted(r.subject_id for r in test_records),
    }


# ---------------------------------------------------------- persistence

def _artifact_meta(config: RunConfig) -> dict:
    return {"format_version": FORMAT_VERSION, "seed": config.seed,
            "config_digest": config.digest()}


def save_pipeline(pipe: TrainedPipeline, out_dir: str) -> None:
    meta = _artifact_meta(pipe.config)

    payload = dict(meta)
    payload["config"] = pipe.config.to_dict()
    atomic_write_text(os.path.join(out_dir, "config.json"),
                      json.dumps(payload, indent=2, sort_keys=True) + "\n")
    atomic_write_text(os.path.join(out_dir, "metrics.json"),
                      json.dumps(pipe.metrics, indent=2, sort_keys=True) + "\n")
    for m in pipe.tuned:
        M.save_model(os.path.join(out_dir, "models", f"member_tuned_"
                                  f"{m.biomarker_id}.ovbm"), m, meta)
    save_ensemble(os.path.join(out_dir, "ensemble_main"), pipe.main, meta)
    if pipe.pt is not pipe.main:
        save_ensemble(os.path.join(out_dir, "ensemble_pt"), pipe.pt, meta)


def load_pipeline(out_dir: str) -> TrainedPipeline:
    config_path = os.path.join(out_dir, "config.json")
    metrics_path = os.path.join(out_dir, "metrics.json")
    with named_errors(config_path), open(config_path, encoding="utf-8") as fh:
        config = RunConfig.from_dict(json.load(fh)["config"])
    with named_errors(metrics_path), open(metrics_path, encoding="utf-8") as fh:
        metrics = json.load(fh)
        if not isinstance(metrics, dict):
            raise ValueError("run metrics must be a JSON object")

    paths = {mid: os.path.join(out_dir, "models", f"member_tuned_{mid}.ovbm")
             for mid in M.MEMBER_IDS}
    tuned = [M.load_model(path) for path in paths.values()]
    _check_roster(tuned, paths.get, two_way=True)
    # pt is main unless tuning moves a body (an older run's copy is unread)
    bodies = config.layers - {"head"}
    ensembles = []
    for name in ("ensemble_main", "ensemble_pt") if bodies else ("ensemble_main",):
        path = os.path.join(out_dir, name, "fusion.ovbm")
        ensembles.append(load_ensemble(os.path.dirname(path)))
        _check_roster(ensembles[-1].members, lambda mid: path)
    return TrainedPipeline(config, tuned, ensembles[0], ensembles[-1], metrics)


def _check_roster(members: list, file_at, two_way: bool = False) -> None:
    """ValueError unless `members` are the roster's members, in order,
    each with a 2-way head where `two_way`. It names `file_at(mid)`, the
    file that put another member in roster member `mid`'s place."""
    for mid, m in itertools.zip_longest(M.MEMBER_IDS, members):
        if not m or m.biomarker_id != mid or (two_way and m.num_classes != 2):
            found = f"{m.biomarker_id} of {m.num_classes} classes" if m else "none"
            raise ValueError(f"{file_at(mid)}: member {found} where the roster, in "
                             f"order, has {mid}{' of 2 classes' if two_way else ''}")


# ----------------------------------------------------------- per-subject

def evaluate_manifest(pipe: TrainedPipeline, manifest_path: str) -> dict:
    """Subject accuracy of the saved main ensemble on a manifest."""
    config = pipe.config
    records = parse_manifest(manifest_path)
    diagnoses = map_subjects(diagnose_subject, pipe, manifest_path, records)
    out = _subject_metrics(diagnoses, records, config.threshold)
    out["subjects"] = {
        d.subject_id: {"probability": d.probability, "label": d.label}
        for d in diagnoses
    }
    return out


def map_subjects(score, pipe: TrainedPipeline, manifest_path: str,
                 records: list) -> list:
    """`score(pipe, record, clip)` of each manifest record, in order, one
    task per subject through `map_tasks`."""
    rate = pipe.config.sample_rate
    return map_tasks(
        lambda rec: score(pipe, rec, load_clip(manifest_path, rec, rate)),
        records)


def diagnose_subject(pipe: TrainedPipeline, record: SubjectRecord,
                     clip: Recording) -> Diagnosis:
    probs = score_chunks(pipe.main, _run_chunks(pipe.config, clip),
                         metadata_vector(record.gender, record.age))
    return _diagnoses(pipe.config, [record], [probs])[0]


subject_saliency = saliency_map  # a `map_subjects` score, as is the above
