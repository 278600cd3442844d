"""The three benchmark workloads: set-up, one measured pass, checks.

Each workload is one process, one client and a closed loop: a call
starts only after the previous one returned. Every call goes through
the same library entry points the `ovbm` CLI uses, looked up on the
module at call time so the tracer's patches see them.

  train40      `ovbm train` at the criterion-07 config on a 40-subject
               corpus: the only workload with backward passes, Adam,
               surrogate synthesis and weight writes.
  screen40     `ovbm eval` and `diagnose` over the same kind of corpus
               and `saliency` over its first 20 subjects: short 16 kHz
               PCM16 clips, mask on, tiny conv batches, no resampling.
  screen_long  `diagnose` on two 78 s stereo float32 44.1 kHz
               recordings and `saliency` on one of them, with a mask-off
               run: real resampling, member batches of 64, the
               chunk-scale probes at length.

The screens train their run during set-up, with short epochs on the
first subjects of a corpus: inference cost depends on shapes, not on how
well the weights trained. screen40 checks nothing that depends on model
quality, so it trains on SCREEN40_TRAIN_SUBJECTS only; screen_long
checks each recording's decision against its label, so it trains on
LONG_TRAIN_SUBJECTS with enough fusion epochs to decide reliably. Both
keep set-up, which runs SETUPS times per run, cheap.
"""

from __future__ import annotations

import os
import sys
import time
import traceback

import ovbm.pipeline as P
from ovbm.audio_io import parse_manifest
from ovbm.synthesis import write_corpus

import inputs

CHUNK = dict(chunk_size=2.0, stride=2.0)
TRAIN_CONFIG = dict(CHUNK, pretrain_epochs=10, tune_epochs=8, fusion_epochs=25,
                    surrogate_per_class=16, poisson_mask=True)
# Fusion epochs are cheap (member embeddings are computed once); the
# surrogate set and the training subjects are what set-up pays for.
SHORT_CONFIG = dict(CHUNK, pretrain_epochs=2, tune_epochs=2, fusion_epochs=25,
                    surrogate_per_class=2)
CORPUS_SUBJECTS = 40
SCREEN40_TRAIN_SUBJECTS = 4
SCREEN40_SALIENCY_SUBJECTS = 20   # the first 20: ten per label
LONG_TRAIN_SUBJECTS = 10
LONG_CHUNKS = 39
FAMILIES = ("sensory", "brainos", "cognitive", "symbolic")
IDENTITY_TOL = 1e-12


class Ops:
    """Counts attempted and failed operations. A failed call or check is
    reported on stderr and the run carries on."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.tracer = None  # set for a traced pass; labels its spans

    def call(self, label: str, fn, *args):
        """Run one user-facing call; returns (result, seconds), with
        result None when the call raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.run_id = label
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc()}", file=sys.stderr)
            result = None
        return result, time.perf_counter() - start

    def check(self, label: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED {label} {detail}", file=sys.stderr)


def _config(manifest: str, seed: int, label: str, settings: dict,
            **overrides) -> P.RunConfig:
    return P.RunConfig(manifest=manifest, seed=seed, label=label,
                       **dict(settings, **overrides))


def _train_and_save(config: P.RunConfig, run_dir: str):
    pipe = P.run_training(config)
    P.save_pipeline(pipe, run_dir)
    return pipe


def _check_saliency(ops: Ops, sid: str, smap, probability: float) -> None:
    """16 entries, four per family, all in [0, 1]; and two identities
    with the diagnosis at the run's own chunking."""
    ops.check(f"saliency_shape:{sid}",
              len(smap.entries) == 16
              and all(sum(e.family == f for e in smap.entries) == 4
                      for f in FAMILIES)
              and all(0.0 <= e.score <= 1.0 for e in smap.entries))
    scores = {e.biomarker_id: e.score for e in smap.entries}
    for entry_id in ("symbolic_average", "brainos_chunk2"):
        gap = abs(scores.get(entry_id, float("nan")) - (1.0 - probability))
        ops.check(f"identity:{entry_id}:{sid}", gap <= IDENTITY_TOL,
                  f"gap {gap:.3e}")


# --------------------------------------------------------------- train40

def setup_train40(work: str, seed: int) -> dict:
    manifest = write_corpus(os.path.join(work, "corpus"), CORPUS_SUBJECTS, seed)
    return {"manifest": manifest, "seed": seed, "work": work, "passes": 0}


def pass_train40(state: dict, ops: Ops) -> dict:
    state["passes"] += 1
    run_dir = os.path.join(state["work"], f"run{state['passes']}")
    config = _config(state["manifest"], state["seed"], "train40", TRAIN_CONFIG)
    pipe, train_s = ops.call("train", _train_and_save, config, run_dir)
    if pipe is not None:
        test = pipe.metrics["test"]["subject_accuracy"]
        best = pipe.metrics["best_member"]["test_subject_accuracy"]
        ops.check("test_accuracy", test >= 0.90, f"{test:.3f}")
        ops.check("ensemble_vs_best_member", test >= best - 0.05,
                  f"{test:.3f} vs {best:.3f}")
        # load_pipeline verifies every ensemble member's digest
        reloaded, _ = ops.call("reload", P.load_pipeline, run_dir)
        ops.check("reload", reloaded is not None
                  and reloaded.metrics == pipe.metrics)
    return {"train_s": train_s}


# -------------------------------------------------------------- screens

def _screen_run(work: str, seed: int, subjects: int, mask: bool) -> str:
    manifest = write_corpus(os.path.join(work, "train_corpus"), subjects, seed)
    run_dir = os.path.join(work, "run")
    _train_and_save(_config(manifest, seed, "screen", SHORT_CONFIG,
                            poisson_mask=mask), run_dir)
    return run_dir


def setup_screen40(work: str, seed: int) -> dict:
    manifest = write_corpus(os.path.join(work, "corpus"), CORPUS_SUBJECTS, seed)
    run_dir = _screen_run(work, seed, SCREEN40_TRAIN_SUBJECTS, mask=True)
    return {"manifest": manifest, "run": run_dir}


def pass_screen40(state: dict, ops: Ops) -> dict:
    manifest = state["manifest"]
    records = parse_manifest(manifest)
    out = {"eval_subjects": len(records), "diagnose_s": [], "saliency_s": []}
    pipe, out["load_s"] = ops.call("load", P.load_pipeline, state["run"])
    if pipe is None:
        out["eval_s"] = float("nan")
        return out
    rate = pipe.config.sample_rate
    evaluation, out["eval_s"] = ops.call("eval", P.evaluate_manifest, pipe,
                                         manifest)

    def diagnose(rec):
        return P.diagnose_subject(pipe, rec, P.load_clip(manifest, rec, rate))

    def explain(rec):
        return P.subject_saliency(pipe, rec, P.load_clip(manifest, rec, rate))

    diagnoses = {}
    for rec in records:
        d, secs = ops.call(f"diagnose:{rec.subject_id}", diagnose, rec)
        diagnoses[rec.subject_id] = d
        out["diagnose_s"].append(secs)
    for rec in records[:SCREEN40_SALIENCY_SUBJECTS]:
        smap, secs = ops.call(f"saliency:{rec.subject_id}", explain, rec)
        out["saliency_s"].append(secs)
        d = diagnoses[rec.subject_id]
        if smap is not None and d is not None:
            _check_saliency(ops, rec.subject_id, smap, d.probability)

    if evaluation is not None:
        for sid, d in diagnoses.items():
            if d is not None:
                # bit-for-bit: both paths must score the same chunks alike
                ops.check(f"eval_equals_diagnose:{sid}",
                          d.probability == evaluation["subjects"][sid]["probability"])
    return out


def setup_screen_long(work: str, seed: int) -> dict:
    manifest = inputs.long_recordings(os.path.join(work, "long"), seed)
    run_dir = _screen_run(work, seed, LONG_TRAIN_SUBJECTS, mask=False)
    # Saliency on one recording (~20 s); which label alternates with the seed.
    return {"manifest": manifest, "pipe": P.load_pipeline(run_dir),
            "explain": seed % 2}


def pass_screen_long(state: dict, ops: Ops) -> dict:
    manifest = state["manifest"]
    records = parse_manifest(manifest)
    pipe = state["pipe"]
    rate = pipe.config.sample_rate

    def diagnose(rec):
        return P.diagnose_subject(pipe, rec, P.load_clip(manifest, rec, rate))

    def explain(rec):
        return P.subject_saliency(pipe, rec, P.load_clip(manifest, rec, rate))

    diagnoses, diagnose_s = {}, 0.0
    for rec in records:
        d, secs = ops.call(f"diagnose:{rec.subject_id}", diagnose, rec)
        diagnoses[rec.subject_id] = d
        diagnose_s += secs
        if d is not None:
            ops.check(f"chunks:{rec.subject_id}",
                      len(d.chunk_probabilities) == LONG_CHUNKS,
                      str(len(d.chunk_probabilities)))
            ops.check(f"decision:{rec.subject_id}",
                      (d.label == "positive") == bool(rec.label),
                      f"P={d.probability:.4g}")
    rec = records[state["explain"]]
    smap, saliency_s = ops.call(f"saliency:{rec.subject_id}", explain, rec)
    d = diagnoses[rec.subject_id]
    if smap is not None and d is not None:
        _check_saliency(ops, rec.subject_id, smap, d.probability)
    return {"long_diagnose_s": diagnose_s, "long_saliency_s": saliency_s}


# Per-layer metrics that must read exactly 0 in a workload's traced pass;
# the traced run checks them.
_TRAINING = ["nn.adam_update.calls", "nn.conv3x3_backward.gflop",
             "models.backward_from_embedding.s", "models.train.s",
             "fusion.fusion_backward.s", "fusion.train_fusion.s",
             "synthesis.surrogate_clips", "pipeline.run_training.s",
             "pipeline.save_pipeline.s", "fusion.save_ensemble.s"]
PREDICTED_ZERO = {
    "train40": ["audio_io.resampled_samples", "saliency.saliency_map.s",
                "aggregation.ensemble_chunk_probs.calls",
                "pipeline.evaluate_manifest.s"],
    "screen40": _TRAINING + ["audio_io.resampled_samples"],
    "screen_long": _TRAINING + ["pipeline.load_pipeline.s",
                                "pipeline.evaluate_manifest.s"],
}

WORKLOADS = {
    "train40": (setup_train40, pass_train40),
    "screen40": (setup_screen40, pass_screen40),
    "screen_long": (setup_screen_long, pass_screen_long),
}
