"""End-to-end training runs: config handling, staged training, metrics,
artifact round trips."""

import contextlib
import ctypes
import dataclasses
import glob
import json
import math
import multiprocessing
import os
import shutil
import signal
import threading
import warnings
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import ovbm.fusion as F
import ovbm.models as M
import ovbm.pipeline as P
import ovbm.saliency as S
from ovbm import nn, synthesis
from conftest import (MICRO_ARCH, count_forward_images, micro_run_config,
                      overflowing_member, random_images, tree_bytes)
from ovbm.audio_io import AudioClip, parse_manifest, write_wav
from ovbm.chunker import Chunks, chunk_plan, extract_chunks
from ovbm.cli import main
from ovbm.pipeline import (
    FeatureStore,
    RunConfig,
    UnknownConfigKey,
    _run_metrics,
    diagnose_subject,
    evaluate_manifest,
    load_clip,
    load_pipeline,
    resolve_wav_path,
    run_training,
    save_pipeline,
    subject_saliency,
)
from ovbm.util import map_tasks


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig(manifest="m.csv")

    def test_frozen(self):
        config = RunConfig(manifest="m.csv")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.chunk_size = 1e305

    @pytest.mark.parametrize("overrides", [
        {"manifest": ""},
        {"chunk_size": 0.0},
        {"stride": -1.0},
        {"threshold": 1.5},
        {"fusion_epochs": 0},
        {"split_fraction": 1.0},
        {"scheme": "median"},
        {"strategy": "last:x"},
        {"fft_size": 100},          # must cover one analysis window
        {"num_cepstra": 40},        # more cepstra than filters
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"learning_rate": "0.1"},
        {"chunk_size": float("nan")},
        {"stride": float("inf")},
        {"pretrain_epochs": float("inf")},
        {"tune_epochs": 2.0},
        {"fusion_epochs": True},
        {"surrogate_per_class": 0},
        {"batch_size": 2.5},
        {"batch_size": "8"},
        {"learning_rate": True},
        {"threshold": False},
        {"split_fraction": True},
        {"window_step": float("inf")},
        {"chunk_size": 0.01},        # shorter than one 20 ms window
        {"fft_size": 512.0},
        {"num_filters": 16.0},
        {"stem_channels": 4.0},
        {"threshold": "0.5"},
        {"split_fraction": "0.7"},
        {"window_len": "0.02"},
        {"scheme": 3},
        {"poisson_mask": "off"},     # a non-empty string is truthy
        {"seed": 1.5},
        {"seed": True},
        {"poisson_mask": 1},
        {"manifest": 5},
        {"label": None},
        {"strategy": 1},
        {"chunk_size": 2**1024},     # JSON integers past any float
        {"learning_rate": 10**400},
        {"window_len": -10**400},
        {"sample_rate": 2**1024},
        {"num_blocks": 10**12},      # refused before its layers are listed
        {"window_len": 1.2e304},     # sample counts past 2**53
        {"window_step": 1.2e304},
        {"chunk_size": 2**53 / 16000},
        {"stride": 1e305},
        {"stride": 1e-300},          # 0 samples
        {"stride": 3.75e-5},         # rounds to 1 sample, under one step
        {"stride": 0.005},           # half a 10 ms frame step
        {"num_filters": 60},         # mel edges collide on a 512-point FFT
        {"num_filters": 300},
    ])
    def test_rejects(self, overrides):
        with pytest.raises(ValueError):
            RunConfig(**{"manifest": "m.csv", **overrides})

    @pytest.mark.parametrize("label", ["mask,v2", "a;b", 'a"b', "a\nb",
                                       "a\rb"])
    def test_rejects_label_that_would_split_a_report(self, label):
        with pytest.raises(ValueError, match="label"):
            RunConfig(manifest="m.csv", label=label)

    def test_derived_settings_built_once(self, micro_pipeline, monkeypatch):
        config = RunConfig(manifest="m.csv")
        for name in ("params", "arch", "aggregation", "layers"):
            assert getattr(config, name) is getattr(config, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(config, name, None)
        assert (config.params.frame_len, config.arch.input_shape,
                config.aggregation.value, config.layers) == (
                    320, (64, 13), "average", {"head"})
        assert list(config.to_dict()) == [
            f.name for f in dataclasses.fields(RunConfig)]
        assert len(config.to_dict()) == 26
        assert config == RunConfig(manifest="m.csv")
        assert hash(config) == hash(RunConfig(manifest="m.csv"))

        # every featurization of an eval and of a saliency screen reads
        # the run's one MfccParams
        pipe, seen = micro_pipeline, []

        def featurize(clip, windows, params, *rest):
            seen.append(params)
            return extract_chunks(clip, windows, params, *rest)

        monkeypatch.setattr(P, "map_tasks",
                            lambda fn, items: list(map(fn, items)))
        monkeypatch.setattr(P, "extract_chunks", featurize)
        monkeypatch.setattr(S, "extract_chunks", featurize)
        records = parse_manifest(pipe.config.manifest)
        evaluate_manifest(pipe, pipe.config.manifest)
        P.map_subjects(subject_saliency, pipe, pipe.config.manifest, records)
        assert len(seen) == 2 * len(records)
        assert all(params is pipe.config.params for params in seen)

    def test_dict_round_trip(self):
        config = RunConfig(manifest="m.csv", seed=4, scheme="linpos")
        again = RunConfig.from_dict(config.to_dict())
        assert again == config

    def test_unknown_key(self):
        with pytest.raises(UnknownConfigKey):
            RunConfig.from_dict({"seed": 1, "typo_field": 2})

    def test_digest_tracks_content(self):
        a = RunConfig(manifest="m.csv", seed=1)
        b = RunConfig(manifest="m.csv", seed=2)
        assert a.digest() == RunConfig(manifest="m.csv", seed=1).digest()
        assert a.digest() != b.digest()

    def test_train_config_mapping(self):
        config = RunConfig(manifest="m.csv", learning_rate=0.5, batch_size=4,
                           split_fraction=0.6)
        tc = config.train_config(epochs=7, seed=9)
        assert (tc.learning_rate, tc.batch_size, tc.epochs, tc.seed,
                tc.split_fraction) == (0.5, 4, 7, 9, 0.6)


class TestPaths:
    def test_resolve_wav_path(self, tmp_path):
        manifest = str(tmp_path / "manifest.csv")
        assert resolve_wav_path(manifest, "/abs/x.wav") == "/abs/x.wav"
        assert resolve_wav_path(manifest, "wav/x.wav") == \
            str(tmp_path / "wav" / "x.wav")

    def test_feature_store_caches(self, corpus_dir):
        config = micro_run_config(corpus_dir)
        store = FeatureStore(config)
        rec = parse_manifest(config.manifest)[0]
        first = store.chunks(rec)
        assert store.chunks(rec) is first
        assert list(store._chunks) == [rec.subject_id]


class TestTrainedRun:
    def test_roster_and_head_widths(self, micro_pipeline):
        pipe = micro_pipeline
        assert len(M.MEMBER_IDS) == 8
        main = {m.biomarker_id: m for m in pipe.main.members}
        assert [m.biomarker_id for m in pipe.tuned] == list(M.MEMBER_IDS)
        for entry, tuned in zip(M.MEMBERS, pipe.tuned):
            # joint training never touches a member's surrogate-task head
            assert main[entry.biomarker_id].num_classes == entry.num_classes
            assert tuned.num_classes == 2

    def test_frozen_tuning_kept_bodies(self, micro_pipeline):
        # run strategy is "frozen": fine-tuning and joint training may
        # only move heads, so every other tensor of a tuned member must
        # match the main ensemble's (pretrained) member bit for bit
        pipe = micro_pipeline
        for pre, tuned in zip(pipe.main.members, pipe.tuned):
            assert pre.biomarker_id == tuned.biomarker_id
            for key, w in tuned.weights.items():
                if key.startswith("head."):
                    continue
                assert w.tobytes() == pre.weights[key].tobytes(), \
                    (pre.biomarker_id, key)

    def test_metrics_shape(self, micro_pipeline):
        m = micro_pipeline.metrics
        counts = m["counts"]
        assert counts["train_subjects"] + counts["test_subjects"] == \
            counts["subjects"] == 8
        for split in ("train", "test", "pt_test"):
            assert 0.0 <= m[split]["subject_accuracy"] <= 1.0
            assert 0.0 <= m[split]["chunk_accuracy"] <= 1.0
        assert set(m["members"]) == set(M.MEMBER_IDS)
        best = m["best_member"]
        assert best["test_subject_accuracy"] == max(
            v["test_subject_accuracy"] for v in m["members"].values())
        assert set(m["detections"]) == set(M.MEMBER_IDS)
        for detected in m["detections"].values():
            assert set(detected) <= set(m["test_positives"])
        assert sorted(m["train_subjects"] + m["test_subjects"]) == \
            [f"s{i:03d}" for i in range(8)]
        assert m["config_digest"] == micro_pipeline.config.digest()
        # The held-out estimate is subject-level: a chunk split of the
        # training subjects is within-subject and is not reported.
        assert set(m) == {
            "format_version", "seed", "config_digest", "label", "counts",
            "train", "test", "pt_test", "fusion", "members", "best_member",
            "detections", "test_positives", "train_subjects",
            "test_subjects"}
        loss = m["fusion"]["final_epoch_loss"]
        assert m["fusion"] == {"final_epoch_loss": loss}
        assert isinstance(loss, float) and math.isfinite(loss)

        def paths(tree, prefix=""):
            for key, value in tree.items():
                path = prefix + ("*" if prefix == "members." else key)
                yield path
                if isinstance(value, dict):
                    yield from paths(value, path + ".")

        assert {p for p in paths(m) if "test" in p.rsplit(".", 1)[-1]} == {
            "test", "pt_test", "members.*.test_subject_accuracy",
            "best_member.test_subject_accuracy", "test_positives",
            "test_subjects", "counts.test_subjects"}

    def test_determinism(self, corpus_dir, micro_pipeline):
        again = run_training(micro_run_config(corpus_dir))
        for k, w in again.main.weights.items():
            np.testing.assert_array_equal(
                w, micro_pipeline.main.weights[k])
        for m, want in zip(again.tuned, micro_pipeline.tuned, strict=True):
            for k, w in m.weights.items():
                np.testing.assert_array_equal(w, want.weights[k])
        assert again.metrics == micro_pipeline.metrics

    @pytest.mark.parametrize("pick, labels, message", [
        # one subject per label: the split keeps both for training
        (lambda rows: rows[:2], [0, 1], "no test subject"),
        # the four nonAD subjects: no split gives training a second label
        (lambda rows: rows[::2], [0] * 4, "every subject is labeled nonAD"),
    ], ids=["one_per_label", "one_label"])
    def test_split_without_test_subject_is_refused(self, corpus_dir, tmp_path,
                                                   monkeypatch, capsys, pick,
                                                   labels, message):
        with open(os.path.join(corpus_dir, "manifest.csv")) as fh:
            header, *rows = fh.read().splitlines()
        manifest = tmp_path / "picked.csv"
        manifest.write_text("\n".join([header] + [
            row.replace("wav/", os.path.join(corpus_dir, "wav") + "/")
            for row in pick(rows)]) + "\n")
        assert sorted(r.label for r in parse_manifest(str(manifest))) == labels

        def no_stage(*args):
            raise AssertionError("a training stage ran")

        monkeypatch.setattr(P, "map_tasks", no_stage)
        monkeypatch.setattr(P.FeatureStore, "chunks", no_stage)
        config = micro_run_config(corpus_dir, manifest=str(manifest))
        with pytest.raises(ValueError, match=message):
            run_training(config)
        out = tmp_path / "run"
        assert main(["train", "--manifest", str(manifest),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(manifest) in err and message in err
        assert not out.exists()


class TestArtifacts:
    def test_layout(self, micro_run_dir, last1_run_dir):
        # ensemble_pt/ is saved only when the strategy trains a member
        # body: not under the micro run's "frozen", but under last:1
        for run_dir, ensembles in ((micro_run_dir, ["ensemble_main"]),
                                   (last1_run_dir, ["ensemble_main",
                                                    "ensemble_pt"])):
            assert sorted(os.listdir(run_dir)) == sorted(
                ["config.json", "metrics.json", "models", *ensembles])
            for sub in ensembles:
                assert sorted(os.listdir(os.path.join(run_dir, sub))) == \
                    sorted(["fusion.ovbm", *(f"member_{mid}.ovbm"
                                             for mid in M.MEMBER_IDS)])
            models = os.listdir(os.path.join(run_dir, "models"))
            assert sorted(models) == sorted(
                f"member_tuned_{mid}.ovbm" for mid in M.MEMBER_IDS)

    def test_round_trip(self, micro_pipeline, micro_run_dir):
        loaded = load_pipeline(micro_run_dir)
        assert loaded.config == micro_pipeline.config
        assert loaded.metrics == micro_pipeline.metrics
        for m, saved in zip(loaded.tuned, micro_pipeline.tuned, strict=True):
            assert m.biomarker_id == saved.biomarker_id
            want, got = saved.weights, m.weights
            for k in want:
                np.testing.assert_array_equal(
                    got[k], want[k].astype(np.float32).astype(np.float64))
        for k, w in micro_pipeline.main.weights.items():
            np.testing.assert_array_equal(
                loaded.main.weights[k],
                w.astype(np.float32).astype(np.float64))

    def test_config_json_content(self, micro_pipeline, micro_run_dir):
        with open(os.path.join(micro_run_dir, "config.json")) as fh:
            payload = json.load(fh)
        assert payload["format_version"] == 1
        assert payload["config_digest"] == micro_pipeline.config.digest()
        assert RunConfig.from_dict(payload["config"]) == micro_pipeline.config

    def test_missing_artifacts(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            load_pipeline(str(tmp_path))
        assert "config.json" in str(err.value)

    def test_missing_metrics(self, micro_run_dir, tmp_path):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = os.path.join(broken, "metrics.json")
        os.unlink(victim)
        with pytest.raises(FileNotFoundError) as err:
            load_pipeline(broken)
        assert victim in str(err.value)

    def test_reload_then_save_is_stable(self, micro_run_dir, last1_run_dir,
                                        tmp_path):
        # weights are stored in float32; a load/save cycle must be a
        # fixed point so re-serialized runs stay byte-comparable, file
        # for file, under a strategy with one ensemble and one with two
        for run_dir in (micro_run_dir, last1_run_dir):
            out = str(tmp_path / os.path.basename(run_dir))
            save_pipeline(load_pipeline(run_dir), out)
            assert tree_bytes(out) == tree_bytes(run_dir)


class TestInference:
    def test_evaluate_manifest(self, micro_pipeline, corpus_dir):
        result = evaluate_manifest(micro_pipeline,
                                   micro_pipeline.config.manifest)
        assert result["num_subjects"] == 8
        assert 0.0 <= result["subject_accuracy"] <= 1.0
        assert len(result["subjects"]) == 8
        for row in result["subjects"].values():
            assert row["label"] in ("positive", "negative")

    def test_diagnose_subject(self, micro_pipeline):
        config = micro_pipeline.config
        rec = parse_manifest(config.manifest)[0]
        clip = load_clip(config.manifest, rec, config.sample_rate)
        d = diagnose_subject(micro_pipeline, rec, clip)
        assert d.subject_id == rec.subject_id
        assert 0.0 <= d.probability <= 1.0
        assert d.label in ("positive", "negative")
        # 5-8 s clips at 2 s / 2 s give ceil-based window counts
        assert len(d.chunk_probabilities) >= 3


class TestOneScoringPath:
    """Eval, diagnose and the run-chunking saliency entries all read the
    same ensemble scores."""

    def test_eval_equals_diagnose_bitwise(self, micro_pipeline):
        config = micro_pipeline.config
        result = evaluate_manifest(micro_pipeline, config.manifest)
        for rec in parse_manifest(config.manifest):
            clip = load_clip(config.manifest, rec, config.sample_rate)
            d = diagnose_subject(micro_pipeline, rec, clip)
            assert result["subjects"][rec.subject_id]["probability"] \
                == d.probability

    def test_saliency_identities(self, micro_pipeline):
        config = micro_pipeline.config
        assert (config.chunk_size, config.stride) == (2.0, 2.0)
        for rec in parse_manifest(config.manifest)[:3]:
            clip = load_clip(config.manifest, rec, config.sample_rate)
            d = diagnose_subject(micro_pipeline, rec, clip)
            smap = subject_saliency(micro_pipeline, rec, clip)
            scores = {e.biomarker_id: e.score for e in smap.entries}
            for entry_id in ("symbolic_average", "brainos_chunk2"):
                assert abs(scores[entry_id] - (1.0 - d.probability)) <= 1e-12


class TestMemberHeads:
    """A member's own head runs only where its output is read: the tuned
    members' own-head saliency scores. Diagnoses read the ensembles'
    fusions over member embeddings only."""

    @staticmethod
    def _heads_run(monkeypatch, pipe) -> list:
        """Patch `nn.linear` to record, in order, which of the run's
        members' heads each call computes, as (ensemble, member id).
        Heads are keyed by the ensemble that owns them, so a `pt` that
        is `main` counts once, as "main"."""
        ensembles = {id(fusion): (kind, fusion.members)
                     for kind, fusion in (("pt", pipe.pt), ("main", pipe.main))}
        owners = {id(m.weights["head.w"]): (kind, m.biomarker_id)
                  for kind, members in [*ensembles.values(),
                                        ("tuned", pipe.tuned)]
                  for m in members}
        assert len(owners) == (len(ensembles) + 1) * len(M.MEMBER_IDS)
        ran = []
        linear = nn.linear

        def recording(x, w, b):
            if id(w) in owners:
                ran.append(owners[id(w)])
            return linear(x, w, b)

        monkeypatch.setattr(nn, "linear", recording)
        return ran

    def test_diagnose_runs_no_head(self, micro_pipeline, monkeypatch):
        config = micro_pipeline.config
        rec = parse_manifest(config.manifest)[0]
        clip = load_clip(config.manifest, rec, config.sample_rate)
        ran = self._heads_run(monkeypatch, micro_pipeline)
        diagnose_subject(micro_pipeline, rec, clip)
        assert ran == []

    def test_saliency_runs_the_tuned_heads(self, micro_pipeline, monkeypatch):
        config = micro_pipeline.config
        rec = parse_manifest(config.manifest)[0]
        clip = load_clip(config.manifest, rec, config.sample_rate)
        ran = self._heads_run(monkeypatch, micro_pipeline)
        subject_saliency(micro_pipeline, rec, clip)
        assert ran == [("tuned", mid) for mid in M.MEMBER_IDS]


class TestPretunedEnsemble:
    """The pretuned ensemble gets a fusion of its own only when the
    strategy lets tuning move a member body. Otherwise its members
    differ from the pretrained ones in their heads alone, which no
    fusion reads, and it is the main ensemble."""

    @pytest.mark.parametrize("strategy,fusions", [
        ("frozen", 1), ("last:0", 1), ("last:1", 2)])
    def test_fusions_trained(self, strategy, fusions, corpus_dir,
                             monkeypatch):
        # Each fusion trains once, and `_run_metrics` scores each test
        # subject once per distinct ensemble. Scoring calls are keyed by
        # the ensemble and told apart by their chunk images.
        config = micro_run_config(corpus_dir, strategy=strategy)
        store = FeatureStore(config)
        subject_of = {store.chunks(r).images.tobytes(): r.subject_id
                      for r in parse_manifest(config.manifest)}
        calls, scored = [], {}
        train_fusion, score_chunks = P.train_fusion, F.score_chunks

        def counting(*args, **kwargs):
            calls.append(args[0])
            return train_fusion(*args, **kwargs)

        def scoring(fusion, chunks, metadata):
            scored.setdefault(id(fusion), []).append(
                subject_of.get(chunks.images.tobytes()))
            return score_chunks(fusion, chunks, metadata)

        monkeypatch.setattr(P, "train_fusion", counting)
        for module in (P, F):
            monkeypatch.setattr(module, "score_chunks", scoring)
        pipe = run_training(config)
        assert len(calls) == fusions
        m = pipe.metrics
        test = m["test_subjects"]
        ensembles = {id(fusion): sorted(test) for fusion in (pipe.main, pipe.pt)}
        assert len(ensembles) == fusions
        assert {key: sorted(s for s in ids if s in test)
                for key, ids in scored.items()} == ensembles
        if fusions == 1:
            assert pipe.pt is pipe.main
            assert m["pt_test"] == m["test"]
        else:
            moved = [(pre.biomarker_id, key)
                     for pre, post in zip(pipe.main.members, pipe.pt.members)
                     for key, w in pre.weights.items()
                     if not key.startswith("head.")
                     and w.tobytes() != post.weights[key].tobytes()]
            assert moved

    def test_old_pt_copy_is_ignored(self, micro_run_dir, corpus_dir,
                                    tmp_path, capsys):
        # frozen runs saved before ensemble_pt/ was dropped hold a byte
        # copy of ensemble_main/ there; they load as one ensemble and
        # score as the run without the copy
        old = str(tmp_path / "old_layout")
        shutil.copytree(micro_run_dir, old)
        shutil.copytree(os.path.join(old, "ensemble_main"),
                        os.path.join(old, "ensemble_pt"))
        loaded = load_pipeline(old)
        assert loaded.pt is loaded.main
        outputs = []
        for run_dir, name in ((micro_run_dir, "new.json"), (old, "old.json")):
            out = tmp_path / name
            assert main(["eval", "--run", run_dir, "--manifest",
                         os.path.join(corpus_dir, "manifest.csv"),
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_loaded_pt_is_main_unless_a_body_trains(self, micro_run_dir,
                                                    last1_run_dir):
        # The frozen run saved one ensemble and loads it as both; the
        # last:1 run saved two, which load as two.
        frozen = load_pipeline(micro_run_dir)
        assert frozen.pt is frozen.main
        last1 = load_pipeline(last1_run_dir)
        assert last1.pt is not last1.main


def _distinct_images(pipe, clip) -> tuple:
    """How many distinct chunk images one saliency map scores, over all
    its plans and over the run's plan alone, told apart by content."""
    config = pipe.config
    keys = [(config.chunk_size, config.stride)] + [
        (e.chunk_size, min(config.stride, e.chunk_size))
        for e in M.ROSTER if e.family == "brainos"]
    plans = [chunk_plan(clip.duration, *k) for k in dict.fromkeys(keys)]
    assert len(plans) == 4  # the run's plan, then the 8, 14 and 20 s probes
    windows = sum(plans, [])
    images = extract_chunks(clip, windows, config.params,
                            config.poisson_mask,
                            config.arch_frames).images.reshape(
                                len(windows), -1)

    def distinct(rows):
        return len(np.unique(rows, axis=0))

    return distinct(images), distinct(images[:len(plans[0])])


def _long_clip(pipe, first: int = 0) -> AudioClip:
    """The corpus recordings end to end from the `first`-th on, wrapping
    round, until they last 30 s or more."""
    config = pipe.config
    records = parse_manifest(config.manifest)
    parts = []
    while sum(p.size for p in parts) < 30 * config.sample_rate:
        rec = records[(first + len(parts)) % len(records)]
        part = load_clip(config.manifest, rec, config.sample_rate)
        parts.append(part.read(0, part.num_samples))
    return AudioClip(np.concatenate(parts), config.sample_rate)


class TestEmbeddingMemo:
    """Scoring calls on the same Chunks, which keep their embeddings by
    member body, run each distinct member body once per chunk, and give
    the same bits as scoring alone."""

    @pytest.mark.parametrize("fixture", ["micro_pipeline", "last1_pipeline"])
    def test_shared_memo_is_bit_identical(self, fixture, request,
                                          monkeypatch):
        pipe = request.getfixturevalue(fixture)
        config = pipe.config
        records = parse_manifest(config.manifest)
        m = pipe.metrics
        train = [r for r in records if r.subject_id in m["train_subjects"]]
        test = [r for r in records if r.subject_id in m["test_subjects"]]

        def outputs():
            store = FeatureStore(config)
            train_chunks = Chunks(np.concatenate(
                [store.chunks(r).images for r in train]), config.poisson_mask)
            metrics = _run_metrics(pipe, store, train, train_chunks, test,
                                   m["fusion"]["final_epoch_loss"])
            maps = [subject_saliency(pipe, r, load_clip(
                        config.manifest, r, config.sample_rate)).to_rows()
                    for r in records]
            return json.dumps(metrics, sort_keys=True), maps

        shared = outputs()
        assert shared[0] == json.dumps(pipe.metrics, sort_keys=True)

        embed_chunks = M.embed_chunks

        def alone(members, chunks):  # a fresh, empty cache every call
            return embed_chunks(members, Chunks(chunks.images, chunks.masked))

        for module in (M, S):
            monkeypatch.setattr(module, "embed_chunks", alone)
        assert outputs() == shared

    @pytest.mark.parametrize("fixture,run_plan_bodies", [
        ("micro_pipeline", 8),    # main, pretuned and tuned share bodies
        ("last1_pipeline", 24)])  # joint and tune training moved them all
    def test_saliency_images_per_chunk(self, fixture, run_plan_bodies,
                                       request, monkeypatch):
        # The main ensemble's 8 bodies embed each distinct crop of every
        # plan once; bodies only the pretuned and tuned members have
        # embed the run plan's distinct crops.
        pipe = request.getfixturevalue(fixture)
        config = pipe.config
        rec = parse_manifest(config.manifest)[0]
        clip = load_clip(config.manifest, rec, config.sample_rate)
        images = count_forward_images(monkeypatch)
        subject_saliency(pipe, rec, clip)
        every, run = _distinct_images(pipe, clip)
        assert sum(images) == 8 * every + (run_plan_bodies - 8) * run

    def test_long_clip_embeds_each_distinct_crop_once(self, micro_pipeline,
                                                      monkeypatch):
        # Corpus recordings end to end, 30 s or more. At the 2 s stride
        # the crops of the 2 s and 14 s windows coincide, and so do
        # those of the 8 s and 20 s ones: each is embedded once, by each
        # of the 8 member bodies the three ensembles share.
        pipe = micro_pipeline
        clip = _long_clip(pipe)
        rec = parse_manifest(pipe.config.manifest)[0]
        d = diagnose_subject(pipe, rec, clip)
        images = count_forward_images(monkeypatch)
        smap = subject_saliency(pipe, rec, clip)
        every, _ = _distinct_images(pipe, clip)
        chunks = len(d.chunk_probabilities) + sum(
            len(chunk_plan(clip.duration, size, 2.0)) for size in (8, 14, 20))
        assert every < chunks
        assert sum(images) == 8 * every
        scores = {e.biomarker_id: e.score for e in smap.entries}
        for entry_id in ("symbolic_average", "brainos_chunk2"):
            assert abs(scores[entry_id] - (1.0 - d.probability)) <= 1e-12

    @staticmethod
    def _images_inside(monkeypatch, wrapped) -> list:
        """Patch `M.forward_batch` to record the images it forwards while
        a call to one of `wrapped` [(module, name, counted(*args))] runs,
        and return the list they go to."""
        images, inside = [], []
        forward_batch = M.forward_batch

        def counting(model, x):
            if inside:
                images.append(x.shape[0])
            return forward_batch(model, x)

        def traced(fn, counted):
            def call(*args):
                if not counted(*args):
                    return fn(*args)
                inside.append(True)
                try:
                    return fn(*args)
                finally:
                    inside.pop()
            return call

        monkeypatch.setattr(M, "forward_batch", counting)
        for module, name, counted in wrapped:
            monkeypatch.setattr(module, name,
                                traced(getattr(module, name), counted))
        return images

    @staticmethod
    def _training_run(corpus_dir, strategy):
        config = micro_run_config(corpus_dir, strategy=strategy,
                                  pretrain_epochs=1, tune_epochs=1,
                                  fusion_epochs=2)
        return config, run_training(config).metrics

    @pytest.mark.parametrize("strategy", ["frozen", "last:1"])
    def test_fusion_training_images(self, strategy, corpus_dir, monkeypatch):
        # Member images forwarded inside the `train_fusion` calls.
        # Under `frozen` one fusion trains, over the pretrained bodies,
        # whose embeddings of the N training chunks the tune step left
        # on the run's Chunks: 0 images in all. Under `last:1` the main
        # and pretuned calls each train their 8 members on the training
        # split every epoch, and forward nothing more.
        images = self._images_inside(
            monkeypatch, [(P, "train_fusion", lambda *args: True)])
        config, metrics = self._training_run(corpus_dir, strategy)
        n = metrics["counts"]["fusion_samples"]
        if strategy == "frozen":
            assert sum(images) == 0
        else:
            # the split's size depends only on the chunk labels
            store = FeatureStore(config)
            train = [r for r in parse_manifest(config.manifest)
                     if r.subject_id in metrics["train_subjects"]]
            labels = np.repeat([r.label for r in train],
                               [len(store.chunks(r)) for r in train])
            assert labels.size == n
            split, _ = M.stratified_split(labels, config.split_fraction,
                                          np.random.default_rng(0))
            assert sum(images) == 2 * 8 * config.fusion_epochs * len(split)

    def test_frozen_run_embeds_training_chunks_once(self, corpus_dir,
                                                    monkeypatch):
        # Member images forwarded inside the tune step's `M.train`
        # calls, the `train_fusion` call and `_run_metrics`, under
        # `frozen`. All three read the pretrained bodies' embeddings of
        # the run's N training chunks, so those run once per body
        # (8 x N), and each body runs once on the test subjects' T
        # chunks (8 x T). The member tasks run in this process, where
        # the count sees them.
        monkeypatch.setattr(P, "map_tasks", _serial)
        images = self._images_inside(monkeypatch, [
            # pretraining trains every layer; the tune step only heads
            (M, "train", lambda *args: "embed" not in args[4]),
            (P, "train_fusion", lambda *args: True),
            (P, "_run_metrics", lambda *args: True)])
        config, metrics = self._training_run(corpus_dir, "frozen")
        store = FeatureStore(config)
        n = metrics["counts"]["fusion_samples"]
        t = sum(len(store.chunks(r)) for r in parse_manifest(config.manifest)
                if r.subject_id in metrics["test_subjects"])
        assert n > 0 and t > 0
        assert sum(images) == 8 * n + 8 * t


class WorkerFailure(ValueError):
    """Raised inside a member task. Module-level, so a worker can send it
    back pickled."""


def _serial(fn, items: list) -> list:
    return list(map(fn, items))


def _two_workers(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


@contextlib.contextmanager
def _deadline(seconds: float):
    """Fail the test if the block still runs after `seconds`, so a pool
    that waits forever fails here instead of hanging the suite. Forked
    workers do not inherit the timer."""
    def expired(signum, frame):
        pytest.fail(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestMemberWorkers:
    """Stages 2 and 3 run one task per member through `util.map_tasks`:
    in this process, or in a pool of worker processes."""

    @pytest.mark.parametrize("strategy", ["frozen", "last:1"])
    def test_worker_count_changes_no_byte(self, strategy, corpus_dir,
                                          tmp_path, monkeypatch):
        config = micro_run_config(corpus_dir, strategy=strategy)
        with monkeypatch.context() as patch:
            patch.setattr(P, "map_tasks", _serial)
            save_pipeline(run_training(config), str(tmp_path / "serial"))

        # each surrogate render leaves a file named after its process
        pids = tmp_path / "pids"
        pids.mkdir()
        surrogate_dataset = P.surrogate_dataset

        def rendering(*args):
            (pids / str(os.getpid())).touch()
            return surrogate_dataset(*args)

        _two_workers(monkeypatch)
        monkeypatch.setattr(P, "surrogate_dataset", rendering)
        save_pipeline(run_training(config), str(tmp_path / "workers"))
        assert multiprocessing.active_children() == []
        assert os.listdir(pids) and str(os.getpid()) not in os.listdir(pids)

        serial = tree_bytes(tmp_path / "serial")
        assert "metrics.json" in serial
        assert tree_bytes(tmp_path / "workers") == serial

    def test_worker_error_reaches_the_parent(self, corpus_dir, tmp_path,
                                             capsys, monkeypatch):
        def failing(entry, *args):
            raise WorkerFailure(f"no surrogate for {entry.biomarker_id}")

        _two_workers(monkeypatch)
        monkeypatch.setattr(P, "surrogate_dataset", failing)
        config = micro_run_config(corpus_dir)
        with pytest.raises(WorkerFailure, match="^no surrogate for "):
            run_training(config)
        assert multiprocessing.active_children() == []

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        code = main(["train", "--config", str(config_path),
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "no surrogate for " in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not os.path.exists(tmp_path / "run")

    def test_killed_worker_is_a_named_failure(self, corpus_dir, tmp_path,
                                              capsys, monkeypatch):
        # The 8-class member's task runs; every other task SIGKILLs its
        # worker, so a task is lost while the other worker is busy. The
        # test process itself is never killed.
        surrogate_dataset = P.surrogate_dataset
        first = max(M.MEMBERS, key=lambda e: e.num_classes)
        parent = os.getpid()

        def killing(entry, *args):
            if entry is not first and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return surrogate_dataset(entry, *args)

        _two_workers(monkeypatch)
        monkeypatch.setattr(P, "surrogate_dataset", killing)
        config = micro_run_config(corpus_dir)
        with _deadline(15.0), pytest.raises(BrokenProcessPool):
            run_training(config)
        assert multiprocessing.active_children() == []

        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        with _deadline(15.0):
            code = main(["train", "--config", str(config_path),
                         "--out", str(tmp_path / "run")])
        assert code == 4
        assert "worker process died" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not os.path.exists(tmp_path / "run")

    def test_workers_run_one_blas_thread(self, monkeypatch):
        libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                      "libscipy_openblas64_*.so"))
        if not libs:
            pytest.skip("NumPy bundles no scipy-openblas")
        threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
        threads.restype = ctypes.c_int
        _two_workers(monkeypatch)
        assert map_tasks(lambda _: threads(), [0, 1]) == [1, 1]
        assert multiprocessing.active_children() == []


def _cpus(patch, n: int) -> None:
    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _forward_threads(patch) -> set:
    """Patch `M.forward_batch` to record the threads it runs on, and
    return the set they go to."""
    threads = set()
    forward_batch = M.forward_batch

    def recording(model, x):
        threads.add(threading.get_ident())
        return forward_batch(model, x)

    patch.setattr(M, "forward_batch", recording)
    return threads


def _pools(patch) -> list:
    """Patch `M.ThreadPoolExecutor` to record the size of each pool
    `embed_chunks` opens, and return the list they go to."""
    sizes = []
    pool = M.ThreadPoolExecutor

    def recording(workers):
        sizes.append(workers)
        return pool(workers)

    patch.setattr(M, "ThreadPoolExecutor", recording)
    return sizes


def _process_log(patch, root) -> list:
    """Patch `P.load_clip` to log the process each recording is opened
    in, as a file named after it under `root`; returns a reader of the
    logged process ids."""
    root.mkdir()
    load_clip = P.load_clip

    def logging(*args):
        (root / str(os.getpid())).touch()
        return load_clip(*args)

    patch.setattr(P, "load_clip", logging)
    return lambda: sorted(int(name) for name in os.listdir(root))


@pytest.fixture(scope="module")
def long_manifest(micro_pipeline, tmp_path_factory) -> str:
    """Three float32 recordings of 30 s or more, made of the corpus
    recordings from different starts: one negative subject, two
    positive."""
    root = tmp_path_factory.mktemp("long")
    rows = ["subject_id,wav_path,label,gender,age"]
    for i, label in enumerate((0, 1, 1)):
        write_wav(str(root / f"long{i}.wav"), _long_clip(micro_pipeline, 3 * i),
                  encoding="float32")
        rows.append(f"long{i},long{i}.wav,{label},F,70")
    (root / "manifest.csv").write_text("\n".join(rows) + "\n")
    return str(root / "manifest.csv")


class TestBodyThreads:
    """A call with two or more member bodies to run over THREADED_CROPS
    or more distinct crops runs them on threads, one per CPU, that end
    with the call; every row is the bits the caller's thread computes.
    The micro corpus's 30 s recordings embed about 15 (diagnosis) and 30
    (saliency map) crops a call, so these tests lower the cut-off to 8.
    They check the pools the calls open and that the bodies leave the
    caller's thread, not which pool thread the OS gives each body."""

    def test_threads_change_no_bit(self, monkeypatch):
        members = [M.init_cnn(MICRO_ARCH, 2, seed=i, biomarker_id=mid)
                   for i, mid in enumerate(M.MEMBER_IDS)]
        x = np.stack(random_images(M.THREADED_CROPS + 3, seed=4))
        embs, keys, ran, pools = {}, {}, {}, {}
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                _cpus(patch, cpus)
                ran[cpus] = _forward_threads(patch)
                pools[cpus] = _pools(patch)
                chunks = Chunks(x, False)
                before = threading.active_count()
                embs[cpus] = M.embed_chunks(members, chunks)
                ran[cpus] = set(ran[cpus])  # the short call's go there too
                assert threading.active_count() == before
                keys[cpus] = list(chunks.embeddings)
                # one crop short of the cut-off: on this thread only
                ran[cpus, "short"] = _forward_threads(patch)
                pools[cpus, "short"] = _pools(patch)
                M.embed_chunks(members, Chunks(x[:M.THREADED_CROPS - 1], False))
        me = {threading.get_ident()}
        assert ran[1] == ran[1, "short"] == ran[2, "short"] == me
        assert pools[1] == pools[1, "short"] == pools[2, "short"] == []
        assert pools[2] == [2]
        assert ran[2] and me.isdisjoint(ran[2])
        assert keys[1] == keys[2] == [M._body_key(m) for m in members]
        for serial, threaded in zip(embs[1], embs[2]):
            np.testing.assert_array_equal(serial, threaded)

    def test_long_recording_scores(self, micro_pipeline, monkeypatch):
        pipe = micro_pipeline
        rec = parse_manifest(pipe.config.manifest)[0]
        clip = _long_clip(pipe)
        every, _ = _distinct_images(pipe, clip)
        monkeypatch.setattr(M, "THREADED_CROPS", 8)
        out = {}
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                _cpus(patch, cpus)
                ran = _forward_threads(patch)
                pools = _pools(patch)
                d = diagnose_subject(pipe, rec, clip)
                images = count_forward_images(patch)
                smap = subject_saliency(pipe, rec, clip)
                assert sum(images) == 8 * every
                # one pool for the diagnosis, one for the map's plans
                # (the tuned members read the frozen bodies' rows)
                assert pools == ([] if cpus == 1 else [2, 2])
                assert (threading.get_ident() in ran) == (cpus == 1)
                out[cpus] = (d, smap.to_rows())
        assert out[1] == out[2]

    def test_overflowing_member(self, micro_run_dir, long_manifest,
                                tmp_path, capsys, monkeypatch):
        # Each task runs in a copy of the caller's context, so NumPy's
        # error state (per thread) is the caller's: the overflow warns
        # nowhere, as on the caller's thread, and the member is named.
        pipe = load_pipeline(micro_run_dir)
        i = pipe.main.member_ids.index("cough_origin")
        pipe.main.members[i] = overflowing_member(pipe.config, "cough_origin")
        broken = str(tmp_path / "broken")
        save_pipeline(pipe, broken)
        rec = parse_manifest(long_manifest)[0]
        monkeypatch.setattr(M, "THREADED_CROPS", 8)
        _two_workers(monkeypatch)
        ran = _forward_threads(monkeypatch)
        pools = _pools(monkeypatch)
        with warnings.catch_warnings(), \
                np.errstate(over="ignore", invalid="ignore"):
            warnings.simplefilter("error")
            with pytest.raises(M.NonFiniteActivation, match="'cough_origin'"):
                diagnose_subject(pipe, rec, P.load_clip(
                    long_manifest, rec, pipe.config.sample_rate))
            assert pools == [2]
            assert ran and threading.get_ident() not in ran
            # one subject scores here, on threads; three, in workers
            for subjects in (["--subjects", rec.subject_id], []):
                code = main(["diagnose", "--run", broken, "--manifest",
                             long_manifest, *subjects])
                captured = capsys.readouterr()
                assert code == 2
                assert "cough_origin" in captured.err
                assert "non-finite" in captured.err
                assert captured.out == ""
        assert multiprocessing.active_children() == []

    def test_no_threads_in_subject_workers(self, micro_pipeline,
                                           long_manifest, tmp_path,
                                           monkeypatch):
        monkeypatch.setattr(M, "THREADED_CROPS", 8)
        parent = os.getpid()
        pool = M.ThreadPoolExecutor

        def parent_only(*args):
            if os.getpid() != parent:
                raise AssertionError("a thread pool started in a worker")
            return pool(*args)

        monkeypatch.setattr(M, "ThreadPoolExecutor", parent_only)
        logged = _process_log(monkeypatch, tmp_path / "pids")
        _cpus(monkeypatch, 1)
        serial = evaluate_manifest(micro_pipeline, long_manifest)
        assert logged() == [parent]
        _two_workers(monkeypatch)
        assert evaluate_manifest(micro_pipeline, long_manifest) == serial
        assert len(logged()) > 1
        assert multiprocessing.active_children() == []


class TestSubjectWorkers:
    """`ovbm eval`, `diagnose` and `saliency` score one subject per task
    through `util.map_tasks`, and print and write in manifest order."""

    def test_worker_count_changes_no_byte(self, micro_run_dir, corpus_dir,
                                          tmp_path, capsys, monkeypatch):
        manifest = os.path.join(corpus_dir, "manifest.csv")
        out = tmp_path / "out"
        commands = [
            ["eval", "--out", str(out / "eval.json")],
            ["diagnose", "--out", str(out / "diagnose.json")],
            ["saliency", "--subjects", "all", "--compare", "s000,s001",
             "--out", str(out / "saliency")]]
        results = {}
        for cpus in (1, 2):
            with monkeypatch.context() as patch:
                _cpus(patch, cpus)
                logged = _process_log(patch, tmp_path / f"pids{cpus}")
                stdout = []
                for command, *flags in commands:
                    assert main([command, "--run", micro_run_dir,
                                 "--manifest", manifest, *flags]) == 0
                    stdout.append(capsys.readouterr().out)
                results[cpus] = stdout, tree_bytes(out)
                shutil.rmtree(out)
                assert (os.getpid() in logged()) == (cpus == 1)
                assert multiprocessing.active_children() == []
        assert len(results[1][1]) == 6
        assert results[2] == results[1]

    @pytest.mark.parametrize("command", [
        ["eval", "--out"], ["diagnose", "--out"],
        ["saliency", "--subjects", "all", "--out"]], ids=lambda c: c[0])
    def test_killed_worker_is_a_named_failure(self, command, micro_run_dir,
                                              corpus_dir, tmp_path, capsys,
                                              monkeypatch):
        # The first subject's task runs; every other task SIGKILLs its
        # worker. The test process itself is never killed.
        manifest = os.path.join(corpus_dir, "manifest.csv")
        first = parse_manifest(manifest)[0]
        load_clip = P.load_clip
        parent = os.getpid()

        def killing(path, record, rate):
            if record != first and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return load_clip(path, record, rate)

        _two_workers(monkeypatch)
        monkeypatch.setattr(P, "load_clip", killing)
        out = tmp_path / "out"
        with _deadline(15.0):
            code = main([command[0], "--run", micro_run_dir, "--manifest",
                         manifest, *command[1:], str(out)])
        captured = capsys.readouterr()
        assert code == 4
        assert "worker process died" in captured.err
        assert captured.out == ""
        assert not out.exists()
        assert multiprocessing.active_children() == []

    def test_workers_run_bodies_serially(self, monkeypatch):
        # A `map_tasks` worker is one of one per CPU, and a process that
        # `multiprocessing` started: its bodies run on its own thread.
        # This process opens a pool for the same call.
        members = [M.init_cnn(MICRO_ARCH, 2, seed=i, biomarker_id=mid)
                   for i, mid in enumerate(M.MEMBER_IDS)]
        x = np.stack(random_images(M.THREADED_CROPS, seed=5))
        _two_workers(monkeypatch)
        ran = _forward_threads(monkeypatch)
        pools = _pools(monkeypatch)

        def embed(_):
            ran.clear()
            pools.clear()
            M.embed_chunks(members, Chunks(x, False))
            return ran == {threading.get_ident()}, list(pools)

        assert map_tasks(embed, [0, 1]) == [(True, []), (True, [])]
        assert embed(None) == (False, [2])
        assert multiprocessing.active_children() == []


class TestCorpusWorkers:
    """`write_corpus` renders and writes one subject per `map_tasks`
    task, and writes the manifest once every task is done."""

    def test_worker_count_changes_no_byte(self, tmp_path, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(synthesis, "map_tasks", _serial)
            synthesis.write_corpus(str(tmp_path / "serial"), 9, seed=5)

        # each render leaves a file named after its process
        pids = tmp_path / "pids"
        pids.mkdir()
        corpus_clip = synthesis.corpus_clip

        def rendering(*args):
            (pids / str(os.getpid())).touch()
            return corpus_clip(*args)

        _two_workers(monkeypatch)
        monkeypatch.setattr(synthesis, "corpus_clip", rendering)
        synthesis.write_corpus(str(tmp_path / "workers"), 9, seed=5)
        assert multiprocessing.active_children() == []
        assert os.listdir(pids) and str(os.getpid()) not in os.listdir(pids)

        serial = tree_bytes(tmp_path / "serial")
        assert len(serial) == 10 and "manifest.csv" in serial
        assert tree_bytes(tmp_path / "workers") == serial

    def test_render_error_reaches_the_caller(self, tmp_path, capsys,
                                             monkeypatch):
        corpus_clip = synthesis.corpus_clip

        def failing(i, *args):
            if i == 4:
                raise WorkerFailure("no voice for subject 4")
            return corpus_clip(i, *args)

        _two_workers(monkeypatch)
        monkeypatch.setattr(synthesis, "corpus_clip", failing)
        with pytest.raises(WorkerFailure, match="^no voice for subject 4$"):
            synthesis.write_corpus(str(tmp_path / "corpus"), 9, seed=5)
        assert not (tmp_path / "corpus" / "manifest.csv").exists()
        assert multiprocessing.active_children() == []

        out = tmp_path / "synth"
        assert main(["synth", "--out", str(out), "--n-subjects", "9"]) == 2
        assert "no voice for subject 4" in capsys.readouterr().err
        assert not (out / "manifest.csv").exists()
        assert multiprocessing.active_children() == []

    def test_killed_worker_is_a_named_failure(self, tmp_path, capsys,
                                              monkeypatch):
        # Subject 0 renders; every other render SIGKILLs its worker. The
        # test process itself is never killed.
        corpus_clip = synthesis.corpus_clip
        parent = os.getpid()

        def killing(i, *args):
            if i > 0 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return corpus_clip(i, *args)

        _two_workers(monkeypatch)
        monkeypatch.setattr(synthesis, "corpus_clip", killing)
        out = tmp_path / "synth"
        with _deadline(15.0):
            code = main(["synth", "--out", str(out), "--n-subjects", "9"])
        captured = capsys.readouterr()
        assert code == 4
        assert "worker process died" in captured.err
        assert captured.out == ""
        assert not (out / "manifest.csv").exists()
        assert multiprocessing.active_children() == []


def _doubled(items: list) -> list:
    return map_tasks(lambda x: x * 2, items)


def _in_pool_worker(fn, *args):
    """`fn(*args)` in the worker of a fork `multiprocessing.Pool(1)`: a
    daemonic process, which may start no child process."""
    with multiprocessing.get_context("fork").Pool(1) as pool:
        return pool.apply(fn, args)


class TestPoolInWorkers:
    """A process that `multiprocessing` started runs `map_tasks` items
    itself: it may not be allowed children, and as a pool worker it is
    already one of one per CPU."""

    def test_pool_worker_runs_the_items(self, tmp_path, monkeypatch):
        _two_workers(monkeypatch)
        assert _in_pool_worker(_doubled, [1, 2, 3]) == [2, 4, 6]
        synthesis.write_corpus(str(tmp_path / "here"), 5, seed=11)
        _in_pool_worker(synthesis.write_corpus, str(tmp_path / "worker"),
                        5, 11)
        here = tree_bytes(tmp_path / "here")
        assert len(here) == 6
        assert tree_bytes(tmp_path / "worker") == here
        assert multiprocessing.active_children() == []

    def test_nested_call_starts_no_child(self, monkeypatch):
        _two_workers(monkeypatch)

        def nested(_):
            ran = map_tasks(
                lambda _: (os.getpid(), multiprocessing.active_children()),
                [0, 1])
            return ran == [(os.getpid(), [])] * 2

        assert map_tasks(nested, [0, 1]) == [True, True]
        assert multiprocessing.active_children() == []
