"""Command-line interface: happy paths, config precedence, exit codes."""

import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import (
    BAD_FUSION_DESCRIPTORS,
    BAD_FUSION_TENSORS,
    BAD_MODEL_DESCRIPTORS,
    BAD_MODEL_TENSORS,
    NON_FINITE_FUSION_TENSORS,
    NON_FINITE_MODEL_TENSORS,
    ReadLog,
    micro_run_config,
    overflowing_member,
    record_boundaries,
    replace_descriptor,
    replace_tensors,
)
import ovbm.pipeline as P
from ovbm.audio_io import (AudioClip, MalformedContainer, NonFiniteAudio,
                           parse_manifest, write_wav)
from ovbm.cli import _build_parser, _config_from_args, main
from ovbm.models import NTooLarge, save_model
from ovbm.pipeline import (RunConfig, load_pipeline, resolve_wav_path,
                           save_pipeline)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cut_copy(run_dir: str, tmp_path, *rel) -> tuple:
    """A copy of a run whose weight file at `rel` ends just before its
    last tensor record. Returns (copy, cut file)."""
    broken = str(tmp_path / "broken")
    shutil.copytree(run_dir, broken)
    victim = Path(broken, *rel)
    victim.write_bytes(victim.read_bytes()[:record_boundaries(victim)[-1]])
    return broken, victim


def reversed_members(ensemble: str):
    """A tamper of a run copy that reverses the member list `ensemble`'s
    fusion file records. Digests are stored per member and every member
    dim is equal, so only the roster sees it."""
    def tamper(run: Path) -> Path:
        victim = run / ensemble / "fusion.ovbm"
        replace_descriptor(victim, lambda d: json.dumps(
            dict(d, member_ids=d["member_ids"][::-1])).encode("utf-8"))
        return victim
    return tamper


def swapped_tuned(run: Path) -> Path:
    """Swap two tuned member files, each valid on its own."""
    victim, other = (run / "models" / f"member_tuned_{mid}.ovbm"
                     for mid in ("poisson_muscular", "cough_origin"))
    raw = victim.read_bytes()
    victim.write_bytes(other.read_bytes())
    other.write_bytes(raw)
    return victim


def surrogate_as_tuned(run: Path) -> Path:
    """Copy the 8-way pretrained member over its 2-way tuned file."""
    victim = run / "models" / "member_tuned_sentiment_8class.ovbm"
    shutil.copyfile(run / "ensemble_main" / "member_sentiment_8class.ovbm",
                    victim)
    return victim


class TestSynth:
    def test_writes_parseable_corpus(self, tmp_path, capsys):
        out = str(tmp_path / "corpus")
        code, stdout, _ = run_cli(capsys, "synth", "--out", out,
                                  "--n-subjects", "6", "--seed", "4")
        assert code == 0
        assert "wrote 6 subjects" in stdout
        records = parse_manifest(os.path.join(out, "manifest.csv"))
        assert len(records) == 6
        assert sorted(r.label for r in records) == [0, 0, 0, 1, 1, 1]
        for r in records:
            assert os.path.exists(os.path.join(out, r.wav_path))

    def test_deterministic(self, tmp_path, capsys):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        for out in (a, b):
            code, _, _ = run_cli(capsys, "synth", "--out", out,
                                 "--n-subjects", "3", "--seed", "4")
            assert code == 0
        for name in ["manifest.csv"] + sorted(os.listdir(os.path.join(a, "wav"))):
            rel = name if name.endswith(".csv") else os.path.join("wav", name)
            with open(os.path.join(a, rel), "rb") as fh:
                want = fh.read()
            with open(os.path.join(b, rel), "rb") as fh:
                assert fh.read() == want, rel


def test_text_files_are_utf8_whatever_the_locale(tmp_path):
    """`synth` writes its manifest and `train` reads its config as UTF-8:
    under -X warn_default_encoding, with EncodingWarning an error, neither
    command opens a text file in the locale's encoding."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1}), encoding="utf-8")

    def ovbm(*argv):
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "ovbm.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, encoding="utf-8")

    synth = ovbm("synth", "--out", "corpus", "--n-subjects", "2")
    assert synth.returncode == 0, synth.stderr
    train = ovbm("train", "--config", str(config), "--out", "run")
    assert train.returncode == 2, train.stderr
    assert "manifest path is required" in train.stderr


# Every `ovbm train` flag: (flag, argument, RunConfig field, parsed value).
TRAIN_FLAGS = [
    ("--manifest", "flag.csv", "manifest", "flag.csv"),
    ("--seed", "9", "seed", 9),
    ("--label", "from-flag", "label", "from-flag"),
    ("--chunk-size", "3.5", "chunk_size", 3.5),
    ("--stride", "1.5", "stride", 1.5),
    ("--poisson-mask", "off", "poisson_mask", False),
    ("--scheme", "linpos", "scheme", "linpos"),
    ("--strategy", "last:2", "strategy", "last:2"),
    ("--lr", "0.05", "learning_rate", 0.05),
    ("--epochs", "7", "fusion_epochs", 7),
    ("--pretrain-epochs", "3", "pretrain_epochs", 3),
    ("--tune-epochs", "4", "tune_epochs", 4),
    ("--surrogate-per-class", "5", "surrogate_per_class", 5),
    ("--threshold", "0.25", "threshold", 0.25),
]


class TestTrain:
    @pytest.mark.parametrize("flag,arg,field,value", TRAIN_FLAGS,
                             ids=[f[0] for f in TRAIN_FLAGS])
    def test_flag_overrides_its_config_field(self, flag, arg, field, value,
                                             tmp_path):
        in_file = RunConfig(manifest="file.csv", label="from-file").to_dict()
        assert in_file[field] != value
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(in_file))
        config = _config_from_args(_build_parser().parse_args(
            ["train", "--out", "run", "--config", str(config_path), flag, arg]))
        assert config.to_dict() == dict(in_file, **{field: value})

    def test_config_file_with_flag_override(self, tmp_path, corpus_dir, capsys):
        config = micro_run_config(corpus_dir, label="from-file",
                                  pretrain_epochs=1, tune_epochs=1,
                                  fusion_epochs=2, surrogate_per_class=2)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        out = str(tmp_path / "run")
        code, stdout, _ = run_cli(capsys, "train", "--config", str(config_path),
                                  "--out", out, "--seed", "9")
        assert code == 0
        assert "saved to" in stdout
        with open(os.path.join(out, "config.json")) as fh:
            saved = json.load(fh)["config"]
        assert saved["seed"] == 9           # flag wins
        assert saved["label"] == "from-file"  # file value survives
        assert os.path.exists(os.path.join(out, "metrics.json"))
        assert os.path.exists(os.path.join(out, "ensemble_main", "fusion.ovbm"))

    def test_unknown_config_key(self, tmp_path, corpus_dir, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"typo": 1}))
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "run"))
        assert code == 2
        assert "unknown config keys" in stderr

    def test_deeply_nested_config(self, tmp_path, corpus_dir, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text("[" * 200_000)
        code, stdout, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{config_path}: malformed file" in stderr
        assert stdout == ""
        assert not os.path.exists(tmp_path / "r")

    def test_manifest_required(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "train", "--out", str(tmp_path / "r"))
        assert code == 2
        assert "manifest" in stderr

    def test_nan_learning_rate(self, tmp_path, corpus_dir, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--manifest",
            os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"), "--lr", "nan")
        assert code == 2
        assert "learning_rate" in stderr
        assert not os.path.exists(tmp_path / "r")

    def test_fractional_batch_size(self, tmp_path, corpus_dir, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"batch_size": 2.5}))
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert "batch_size" in stderr
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("field,value", [
        ("poisson_mask", "off"),   # truthy: would train with the mask on
        ("fft_size", 512.0),
    ])
    def test_wrongly_typed_field(self, field, value, tmp_path, corpus_dir,
                                 capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({field: value}))
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert field in stderr
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("field", ["window_len", "window_step"])
    def test_sub_sample_window(self, field, tmp_path, corpus_dir, capsys):
        # 1e-5 s is 0 samples at 16 kHz
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({field: 1e-5}))
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert field in stderr
        assert not os.path.exists(tmp_path / "r")

    # sample counts a float cannot hold exactly: refused when the config
    # is built, before any extraction rounds them
    @pytest.mark.parametrize("data,field", [
        ({"window_step": 1.2e304}, "window_step"),
        ({"chunk_size": 1e305}, "chunk_size"),
        ({"stride": 1e305, "chunk_size": 2.0}, "stride")])
    def test_overflowing_duration(self, data, field, tmp_path, corpus_dir,
                                  capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(data))
        code, stdout, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert field in stderr and "samples" in stderr
        assert stdout == ""
        assert not os.path.exists(tmp_path / "r")

    # a plan lists one window per stride: 1e-300 s is 0 samples, and
    # 3.75e-5 s rounds to 1, under the 160-sample frame step
    @pytest.mark.parametrize("stride", [1e-300, 3.75e-5, 0.005])
    def test_stride_under_one_frame_step(self, stride, tmp_path, corpus_dir,
                                         capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"stride": stride}))
        code, stdout, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert "stride" in stderr
        assert stdout == ""
        assert not os.path.exists(tmp_path / "r")

    def test_too_many_filters(self, tmp_path, corpus_dir, capsys, monkeypatch):
        # 60 filters' mel edges collide on the 512-point FFT grid: refused
        # when the config is read, before training featurizes a subject
        # or starts a worker
        def no_training(config):
            raise AssertionError("training started")

        monkeypatch.setattr("ovbm.cli.run_training", no_training)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"num_filters": 60}))
        code, stdout, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert "60 filters collide on a 512-point FFT grid" in stderr
        assert stdout == ""
        assert not os.path.exists(tmp_path / "r")

    def test_invalid_json_config(self, tmp_path, corpus_dir, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text('{"seed": 1,}')
        code, _, stderr = run_cli(
            capsys, "train", "--config", str(config_path),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert str(config_path) in stderr
        assert not os.path.exists(tmp_path / "r")

    def test_chunk_shorter_than_window(self, tmp_path, corpus_dir, capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--manifest",
            os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"), "--chunk-size", "0.01")
        assert code == 2
        assert "chunk_size 0.01" in stderr and "window_len 0.02" in stderr
        assert not os.path.exists(tmp_path / "r")

    @pytest.mark.parametrize("strategy,error,message", [
        ("last:99", NTooLarge, "n=99 but arch has 7 conv layers"),
        ("last:-1", ValueError, "unknown strategy 'last:-1'"),
        ("last:1.5", ValueError, "unknown strategy 'last:1.5'"),
        ("half", ValueError, "unknown strategy")])
    def test_impossible_last_n_fails_before_training(
            self, strategy, error, message, tmp_path, corpus_dir, capsys,
            monkeypatch):
        with pytest.raises(error, match=message):
            RunConfig(manifest="any.csv", strategy=strategy)
        rendered = []
        monkeypatch.setattr(P, "surrogate_dataset",
                            lambda *args: rendered.append(args))
        code, _, stderr = run_cli(
            capsys, "train", "--manifest",
            os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"), "--strategy", strategy)
        assert code == 2
        assert message in stderr
        assert rendered == [] and not os.path.exists(tmp_path / "r")

    def test_empty_wav_path(self, tmp_path, corpus_dir, capsys):
        manifest = tmp_path / "manifest.csv"
        lines = Path(corpus_dir, "manifest.csv").read_text().splitlines()
        fields = lines[1].split(",")
        lines[1] = ",".join(fields[:1] + [""] + fields[2:])
        manifest.write_text("\n".join(lines) + "\n")
        code, _, stderr = run_cli(capsys, "train", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{manifest}:2: empty wav_path" in stderr
        assert not os.path.exists(tmp_path / "r")

    def test_manifest_not_utf8(self, tmp_path, corpus_dir, capsys):
        manifest = tmp_path / "manifest.csv"
        text = Path(corpus_dir, "manifest.csv").read_text()
        manifest.write_bytes(text.replace(",F,", ",F\xe9,", 1).encode("latin-1"))
        code, _, stderr = run_cli(capsys, "train", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{manifest}: not UTF-8 text" in stderr
        assert not os.path.exists(tmp_path / "r")

    def test_label_that_would_split_a_report(self, tmp_path, corpus_dir,
                                             capsys):
        code, _, stderr = run_cli(
            capsys, "train", "--manifest",
            os.path.join(corpus_dir, "manifest.csv"),
            "--out", str(tmp_path / "r"), "--label", "mask,v2")
        assert code == 2
        assert "label 'mask,v2'" in stderr
        assert not os.path.exists(tmp_path / "r")

    def test_subject_id_that_would_split_a_report(self, tmp_path, corpus_dir,
                                                  capsys):
        manifest = tmp_path / "manifest.csv"
        lines = Path(corpus_dir, "manifest.csv").read_text().splitlines()
        fields = lines[1].split(",")
        lines[1] = ",".join(['"s,000"'] + fields[1:])
        manifest.write_text("\n".join(lines) + "\n")
        code, _, stderr = run_cli(capsys, "train", "--manifest", str(manifest),
                                  "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{manifest}:2: subject_id 's,000'" in stderr
        assert not os.path.exists(tmp_path / "r")

    def test_out_is_a_file(self, tmp_path, corpus_dir, capsys, monkeypatch):
        # refused before training, not when the run is saved
        monkeypatch.setattr("ovbm.cli.run_training",
                            lambda config: pytest.fail("training ran"))
        out = tmp_path / "afile"
        out.write_text("kept")
        code, _, stderr = run_cli(capsys, "train", "--manifest",
                                  os.path.join(corpus_dir, "manifest.csv"),
                                  "--out", str(out))
        assert code == 3
        assert f"--out {out} is not a directory" in stderr
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("below", ["run", "a/b/run"])
    def test_out_under_a_file(self, tmp_path, corpus_dir, capsys, monkeypatch,
                              below):
        monkeypatch.setattr("ovbm.cli.run_training",
                            lambda config: pytest.fail("training ran"))
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = os.path.join(afile, below)
        code, _, stderr = run_cli(capsys, "train", "--manifest",
                                  os.path.join(corpus_dir, "manifest.csv"),
                                  "--out", out)
        assert code == 3
        assert f"--out {out} is under {afile}, which is not a directory" \
            in stderr
        assert afile.read_text() == "kept"

    def test_missing_manifest_file(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "train", "--manifest",
                                  str(tmp_path / "nope.csv"),
                                  "--out", str(tmp_path / "r"))
        assert code == 3
        assert "nope.csv" in stderr


class TestEval:
    def test_writes_metrics(self, micro_run_dir, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "eval.json")
        code, stdout, _ = run_cli(
            capsys, "eval", "--run", micro_run_dir,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--out", out)
        assert code == 0
        assert "subject_accuracy=" in stdout
        with open(out) as fh:
            payload = json.load(fh)
        assert payload["num_subjects"] == 8

    def test_missing_run_dir(self, corpus_dir, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "eval", "--run", str(tmp_path / "ghost"),
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 3
        assert "ghost" in stderr

    def test_deleted_member_weights(self, micro_run_dir, corpus_dir,
                                    tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = os.path.join(broken, "models", "member_tuned_cough_origin.ovbm")
        os.unlink(victim)
        code, _, stderr = run_cli(
            capsys, "eval", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 3
        assert "member_tuned_cough_origin.ovbm" in stderr

    def test_cut_fusion_file(self, micro_run_dir, corpus_dir, tmp_path,
                             capsys):
        broken, victim = cut_copy(micro_run_dir, tmp_path,
                                  "ensemble_main", "fusion.ovbm")
        code, _, stderr = run_cli(
            capsys, "eval", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 2
        assert str(victim) in stderr

    @pytest.mark.parametrize("rel,case", [
        *((("models", "member_tuned_cough_origin.ovbm"), case)
          for case in sorted(BAD_MODEL_DESCRIPTORS)),
        *((("ensemble_main", "fusion.ovbm"), case)
          for case in sorted(BAD_FUSION_DESCRIPTORS)),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_malformed_descriptor(self, rel, case, micro_run_dir, corpus_dir,
                                  tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = Path(broken, *rel)
        replace_descriptor(victim, {**BAD_MODEL_DESCRIPTORS,
                                    **BAD_FUSION_DESCRIPTORS}[case])
        code, _, stderr = run_cli(
            capsys, "eval", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 2
        assert str(victim) in stderr

    @pytest.mark.parametrize("run,tamper", [
        ("micro_run_dir", reversed_members("ensemble_main")),
        # ensemble_pt is read only where a body trains
        ("last1_run_dir", reversed_members("ensemble_pt")),
        ("micro_run_dir", swapped_tuned),
        ("micro_run_dir", surrogate_as_tuned),
    ], ids=["ensemble_main", "ensemble_pt", "tuned_swapped", "tuned_8_way"])
    def test_members_out_of_roster_order(self, run, tamper, corpus_dir,
                                         tmp_path, capsys, request):
        broken = tmp_path / "broken"
        shutil.copytree(request.getfixturevalue(run), broken)
        victim = tamper(broken)
        eval_out, reports = tmp_path / "eval.json", tmp_path / "reports"
        for argv in (["eval", "--out", str(eval_out)],
                     ["saliency", "--subjects", "all", "--out", str(reports)]):
            code, stdout, stderr = run_cli(
                capsys, *argv, "--run", str(broken),
                "--manifest", os.path.join(corpus_dir, "manifest.csv"))
            assert code == 2
            assert str(victim) in stderr and "roster" in stderr
            assert stdout == ""
        assert not eval_out.exists() and not reports.exists()

    @pytest.mark.parametrize("rel,case", [
        *((("models", "member_tuned_cough_origin.ovbm"), case)
          for case in sorted({**BAD_MODEL_TENSORS, **NON_FINITE_MODEL_TENSORS})),
        *((("ensemble_main", "fusion.ovbm"), case)
          for case in sorted({**BAD_FUSION_TENSORS, **NON_FINITE_FUSION_TENSORS})),
    ], ids=lambda v: v if isinstance(v, str) else v[0])
    def test_tensors_disagree_with_descriptor(self, rel, case, micro_run_dir,
                                              corpus_dir, tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = Path(broken, *rel)
        replace_tensors(victim, {**BAD_MODEL_TENSORS, **BAD_FUSION_TENSORS,
                                 **NON_FINITE_MODEL_TENSORS,
                                 **NON_FINITE_FUSION_TENSORS}[case])
        code, stdout, stderr = run_cli(
            capsys, "eval", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 2
        assert str(victim) in stderr
        assert stdout == ""

    @pytest.mark.parametrize("edit", [
        lambda saved: "[]",
        lambda saved: '{"config": []}',
        lambda saved: "{",
        lambda saved: json.dumps(
            dict(saved, config=dict(saved["config"], chunk_size="2"))),
        lambda saved: json.dumps(
            dict(saved, config=dict(saved["config"], window_step=1.2e304))),
        lambda saved: json.dumps(
            dict(saved, config=dict(saved["config"], num_filters=60))),
    ], ids=["list", "config_is_a_list", "invalid_json", "field_of_wrong_type",
            "overflowing_duration", "too_many_filters"])
    def test_malformed_run_config(self, edit, micro_run_dir, corpus_dir,
                                  tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = Path(broken, "config.json")
        victim.write_text(edit(json.loads(victim.read_text())))
        code, _, stderr = run_cli(
            capsys, "eval", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 2
        assert str(victim) in stderr

    def test_wav_block_align_mismatch(self, micro_run_dir, corpus_dir,
                                      tmp_path, capsys):
        # stereo PCM16 whose header declares 2-byte frames, 3 samples
        corpus = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, corpus)
        manifest = os.path.join(corpus, "manifest.csv")
        victim = resolve_wav_path(manifest, parse_manifest(manifest)[0].wav_path)
        fmt = struct.pack("<HHIIHH", 1, 2, 16000, 32000, 2, 16)
        payload = np.array([100, -200, 300], dtype="<i2").tobytes()
        body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + b"data"
                + struct.pack("<I", len(payload)) + payload)
        Path(victim).write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body))
                                 + b"WAVE" + body)
        code, _, stderr = run_cli(capsys, "eval", "--run", micro_run_dir,
                                  "--manifest", manifest)
        assert code == 2
        assert victim in stderr
        assert "block_align" in stderr

    def test_pretrained_member_files_are_ignored(self, micro_run_dir,
                                                 corpus_dir, tmp_path, capsys):
        # runs saved before models/ dropped the pretrained copies still load
        old = str(tmp_path / "old_layout")
        shutil.copytree(micro_run_dir, old)
        for m in load_pipeline(micro_run_dir).main.members:
            save_model(os.path.join(old, "models",
                                    f"member_pre_{m.biomarker_id}.ovbm"), m)
        outputs = []
        for run_dir, name in ((micro_run_dir, "new.json"), (old, "old.json")):
            out = str(tmp_path / name)
            code, _, _ = run_cli(
                capsys, "eval", "--run", run_dir,
                "--manifest", os.path.join(corpus_dir, "manifest.csv"),
                "--out", out)
            assert code == 0
            outputs.append(Path(out).read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("command", ["eval", "uniqueness", "ablation"])
    def test_missing_metrics(self, command, micro_run_dir, corpus_dir,
                             tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = os.path.join(broken, "metrics.json")
        os.unlink(victim)
        argv = {
            "eval": ["eval", "--run", broken, "--manifest",
                     os.path.join(corpus_dir, "manifest.csv")],
            "uniqueness": ["report", "uniqueness", "--run", broken,
                           "--out", str(tmp_path / "r")],
            "ablation": ["report", "ablation", "--pairs",
                         f"{micro_run_dir}:{broken}", "--out",
                         str(tmp_path / "r")],
        }[command]
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 3
        assert victim in stderr
        assert stdout == ""

    @pytest.mark.parametrize("command", [
        ["eval"], ["diagnose"], ["saliency", "--subjects", "all"], ["train"]],
        ids=lambda argv: argv[0])
    def test_manifest_without_subject_rows(self, command, micro_run_dir,
                                           tmp_path, capsys):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("subject_id,wav_path,label,gender,age\n")
        out = tmp_path / "out"
        run = [] if command[0] == "train" else ["--run", micro_run_dir]
        code, stdout, stderr = run_cli(capsys, *command, *run, "--manifest",
                                       str(manifest), "--out", str(out))
        assert code == 2
        assert f"{manifest}: no subject rows" in stderr
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["eval"], ["diagnose"], ["saliency", "--subjects", "all"], ["train"]],
        ids=lambda argv: argv[0])
    def test_manifest_field_over_the_csv_limit(self, command, micro_run_dir,
                                               tmp_path, capsys):
        manifest = tmp_path / "long.csv"
        manifest.write_text("subject_id,wav_path,label,gender,age\n"
                            f"s0,{'a' * 140_000}.wav,1,F,70\n")
        out = tmp_path / "out"
        run = [] if command[0] == "train" else ["--run", micro_run_dir]
        code, stdout, stderr = run_cli(capsys, *command, *run, "--manifest",
                                       str(manifest), "--out", str(out))
        assert code == 2
        assert f"{manifest}:2: field larger than field limit" in stderr
        assert stdout == ""
        assert not out.exists()

    def test_deeply_nested_metrics(self, micro_run_dir, corpus_dir, tmp_path,
                                   capsys):
        # JSON nested past Python's recursion limit fails to parse
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = os.path.join(broken, "metrics.json")
        Path(victim).write_text("[" * 200_000)
        code, stdout, stderr = run_cli(
            capsys, "eval", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"))
        assert code == 2
        assert f"{victim}: malformed file" in stderr
        assert stdout == ""


class TestDiagnose:
    @pytest.mark.parametrize("damage", ["nan_where_no_crop_reads",
                                        "truncated_data", "streaming_size"])
    def test_recording_validated_whole(self, micro_run_dir, corpus_dir,
                                       tmp_path, capsys, damage):
        # A 6 s float recording, 2 s chunks: each window's 64-frame crop
        # starts 67 frames in, so no crop reads sample 5 (the logged
        # reads of the intact recording show it). Opening the file still
        # finds a NaN there, a data chunk cut short, or one whose size is
        # a stream writer's 0xFFFFFFFF placeholder.
        corpus = str(tmp_path / "corpus")
        shutil.copytree(corpus_dir, corpus)
        manifest = os.path.join(corpus, "manifest.csv")
        rec = parse_manifest(manifest)[0]
        victim = resolve_wav_path(manifest, rec.wav_path)
        samples = np.random.default_rng(4).uniform(-0.5, 0.5, 6 * 16000)
        write_wav(victim, AudioClip(samples, 16000), encoding="float32")
        log = ReadLog(P.load_clip(manifest, rec, 16000))
        P.diagnose_subject(load_pipeline(micro_run_dir), rec, log)
        assert min(lo for lo, _ in log.spans) > 5
        data = bytearray(Path(victim).read_bytes())
        if damage == "truncated_data":
            data = data[:-6]
            error = MalformedContainer
        elif damage == "streaming_size":
            data[40:44] = struct.pack("<I", 0xFFFFFFFF)
            error = MalformedContainer
        else:
            data[44 + 4 * 5:44 + 4 * 6] = np.float32(np.nan).tobytes()
            error = NonFiniteAudio
        Path(victim).write_bytes(bytes(data))
        with pytest.raises(error):
            P.load_clip(manifest, rec, 16000)
        code, stdout, stderr = run_cli(capsys, "diagnose", "--run",
                                       micro_run_dir, "--manifest", manifest,
                                       "--subjects", rec.subject_id)
        assert code == 2
        assert victim in stderr
        assert stdout == ""

    def test_selected_subject(self, micro_run_dir, corpus_dir, tmp_path,
                              capsys):
        out = str(tmp_path / "diag.json")
        code, stdout, _ = run_cli(
            capsys, "diagnose", "--run", micro_run_dir,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--subjects", "s000", "--out", out)
        assert code == 0
        assert stdout.startswith("s000: P(positive)=")
        with open(out) as fh:
            payload = json.load(fh)
        assert list(payload) == ["s000"]
        assert payload["s000"]["label"] in ("positive", "negative")

    def test_unknown_subject(self, micro_run_dir, corpus_dir, capsys):
        code, _, stderr = run_cli(
            capsys, "diagnose", "--run", micro_run_dir,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--subjects", "s999")
        assert code == 2
        assert "s999" in stderr

    def test_overflowing_member_weights(self, micro_run_dir, corpus_dir,
                                        tmp_path, capsys):
        # saved as they are, so every digest in the run verifies
        pipe = load_pipeline(micro_run_dir)
        i = pipe.main.member_ids.index("cough_origin")
        pipe.main.members[i] = overflowing_member(pipe.config, "cough_origin")
        broken = str(tmp_path / "broken")
        save_pipeline(pipe, broken)
        with np.errstate(over="ignore", invalid="ignore"):
            code, stdout, stderr = run_cli(
                capsys, "diagnose", "--run", broken,
                "--manifest", os.path.join(corpus_dir, "manifest.csv"),
                "--subjects", "s000")
        assert code == 2
        assert "cough_origin" in stderr and "non-finite" in stderr
        assert stdout == ""


class TestSaliency:
    def test_reports_and_compare(self, micro_run_dir, corpus_dir, tmp_path,
                                 capsys):
        out = str(tmp_path / "reports")
        code, stdout, _ = run_cli(
            capsys, "saliency", "--run", micro_run_dir,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--subjects", "s000,s001", "--compare", "s000,s001",
            "--out", out)
        assert code == 0
        assert "s000:" in stdout and "s001:" in stdout
        with open(os.path.join(out, "saliency.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "subject_id,family,biomarker_id,score"
        assert len(lines) == 1 + 2 * 16
        with open(os.path.join(out, "saliency.json")) as fh:
            assert len(json.load(fh)) == 2
        with open(os.path.join(out, "saliency.svg")) as fh:
            assert fh.read().startswith("<svg")
        with open(os.path.join(out, "comparison.csv")) as fh:
            assert fh.readline().strip() == \
                "biomarker_id,family,delta_s000_minus_s001"

    def test_svg_escapes_subject_ids(self, micro_run_dir, corpus_dir,
                                     tmp_path, capsys):
        # a manifest id may hold the characters XML marks up with
        sid = "a&b<c>d"
        lines = Path(corpus_dir, "manifest.csv").read_text().splitlines()
        fields = lines[1].split(",")
        fields[:2] = [sid, os.path.join(corpus_dir, fields[1])]
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(lines[0] + "\n" + ",".join(fields) + "\n")
        out = tmp_path / "reports"
        code, _, _ = run_cli(capsys, "saliency", "--run", micro_run_dir,
                             "--manifest", str(manifest), "--subjects", sid,
                             "--out", str(out))
        assert code == 0
        svg = ElementTree.fromstring((out / "saliency.svg").read_text())
        texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert sid in texts

    def test_cut_member_file(self, micro_run_dir, corpus_dir, tmp_path,
                             capsys):
        broken, victim = cut_copy(micro_run_dir, tmp_path, "models",
                                  "member_tuned_cough_origin.ovbm")
        code, _, stderr = run_cli(
            capsys, "saliency", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--subjects", "s000", "--out", str(tmp_path / "r"))
        assert code == 2
        assert str(victim) in stderr

    def test_member_file_cut_inside_a_record(self, micro_run_dir, corpus_dir,
                                             tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = Path(broken, "models", "member_tuned_cough_origin.ovbm")
        victim.write_bytes(victim.read_bytes()[:-3])
        code, _, stderr = run_cli(
            capsys, "saliency", "--run", broken,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--subjects", "s000", "--out", str(tmp_path / "r"))
        assert code == 2
        assert str(victim) in stderr

    def test_overflowing_member_weights(self, micro_run_dir, corpus_dir,
                                        tmp_path, capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        save_model(os.path.join(broken, "models",
                                "member_tuned_cough_origin.ovbm"),
                   overflowing_member(load_pipeline(broken).config,
                                      "cough_origin"))
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, stderr = run_cli(
                capsys, "saliency", "--run", broken,
                "--manifest", os.path.join(corpus_dir, "manifest.csv"),
                "--subjects", "s000", "--out", str(tmp_path / "r"))
        assert code == 2
        assert "cough_origin" in stderr

    def test_bad_compare(self, micro_run_dir, corpus_dir, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "saliency", "--run", micro_run_dir,
            "--manifest", os.path.join(corpus_dir, "manifest.csv"),
            "--subjects", "s000", "--compare", "s000",
            "--out", str(tmp_path / "r"))
        assert code == 2
        assert "exactly two" in stderr


SELECTION_ERRORS = {"": "no subjects selected", ",": "no subjects selected",
                    "s000,s000": "duplicate subject ids: s000"}


@pytest.mark.parametrize("command", ["diagnose", "saliency"])
@pytest.mark.parametrize("spec", sorted(SELECTION_ERRORS))
def test_empty_subject_selection(command, spec, micro_run_dir, corpus_dir,
                                 tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(
        capsys, command, "--run", micro_run_dir,
        "--manifest", os.path.join(corpus_dir, "manifest.csv"),
        "--subjects", spec, "--out", str(out))
    assert code == 2
    assert SELECTION_ERRORS[spec] in stderr
    assert stdout == "" and not out.exists()


# `saliency --compare` and `report uniqueness --members`, refused before
# any map is computed or report written: (command, arguments, error).
ID_LIST_ERRORS = {
    "compare-empty": (["saliency", "--subjects", "s000,s001", "--compare", ""],
                      "no --compare subjects selected"),
    "compare-repeated": (["saliency", "--subjects", "s000,s001",
                          "--compare", "s000,s000"],
                         "duplicate --compare subject ids: s000"),
    "compare-one": (["saliency", "--subjects", "s000,s001",
                     "--compare", "s000"], "exactly two"),
    "compare-unselected": (["saliency", "--subjects", "s000,s001",
                            "--compare", "s000,s002"],
                           "--compare subjects not in --subjects: s002"),
    "members-empty": (["report", "uniqueness", "--members", ","],
                      "no members selected"),
    "members-repeated": (["report", "uniqueness", "--members",
                          "ww_context_kitchen,ww_context_kitchen"],
                         "duplicate member ids: ww_context_kitchen"),
}


@pytest.mark.parametrize("case", sorted(ID_LIST_ERRORS))
def test_bad_id_list(case, micro_run_dir, corpus_dir, tmp_path, capsys):
    argv, error = ID_LIST_ERRORS[case]
    if argv[0] == "saliency":
        argv = argv + ["--manifest", os.path.join(corpus_dir, "manifest.csv")]
    out = tmp_path / "out"
    code, stdout, stderr = run_cli(capsys, *argv, "--run", micro_run_dir,
                                   "--out", str(out))
    assert code == 2
    assert error in stderr
    assert stdout == "" and not out.exists()


class TestScreenOut:
    """`eval`, `diagnose` and `saliency` refuse an --out they could not
    write once the run is loaded, before they open a recording, with
    `train`'s messages."""

    @pytest.mark.parametrize("command", [
        ["eval", "--out", "e.json"], ["diagnose", "--out", "d.json"],
        ["saliency", "--subjects", "all", "--out", "s"]], ids=lambda c: c[0])
    def test_out_under_a_file(self, command, micro_run_dir, corpus_dir,
                              tmp_path, capsys, monkeypatch):
        def opening(*args):
            raise AssertionError("a recording was opened")

        monkeypatch.setattr(P, "load_clip", opening)
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = os.path.join(afile, command[-1])
        code, stdout, stderr = run_cli(
            capsys, command[0], "--run", micro_run_dir, "--manifest",
            os.path.join(corpus_dir, "manifest.csv"), *command[1:-1], out)
        assert code == 3
        assert f"--out {out} is under {afile}, which is not a directory" \
            in stderr
        assert stdout == ""
        assert os.listdir(tmp_path) == ["afile"]
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_file_out_is_a_directory(self, command, micro_run_dir,
                                     corpus_dir, tmp_path, capsys,
                                     monkeypatch):
        def opening(*args):
            raise AssertionError("a recording was opened")

        monkeypatch.setattr(P, "load_clip", opening)
        out = tmp_path / "adir"
        out.mkdir()
        code, stdout, stderr = run_cli(
            capsys, command, "--run", micro_run_dir, "--manifest",
            os.path.join(corpus_dir, "manifest.csv"), "--out", str(out))
        assert code == 3
        assert f"--out {out} is a directory" in stderr
        assert stdout == ""
        assert os.listdir(out) == []


class TestReports:
    def test_uniqueness(self, micro_run_dir, tmp_path, capsys):
        out = str(tmp_path / "reports")
        code, stdout, _ = run_cli(capsys, "report", "uniqueness",
                                  "--run", micro_run_dir, "--out", out)
        assert code == 0
        assert "In all 4" in stdout
        with open(os.path.join(out, "uniqueness.json")) as fh:
            payload = json.load(fh)
        assert len(payload["models"]) == 4
        assert sum(r["count"] for r in payload["rows"]) == \
            len(payload["positives"])

    def test_uniqueness_unknown_member(self, micro_run_dir, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "report", "uniqueness",
                                  "--run", micro_run_dir,
                                  "--members", "cough_origin,bogus",
                                  "--out", str(tmp_path / "r"))
        assert code == 2
        assert "bogus" in stderr

    def test_ablation(self, micro_run_dir, tmp_path, capsys):
        out = str(tmp_path / "reports")
        code, stdout, _ = run_cli(
            capsys, "report", "ablation",
            "--pairs", f"{micro_run_dir}:{micro_run_dir}", "--out", out)
        assert code == 0
        assert "avg improvement: 0.0" in stdout
        with open(os.path.join(out, "ablation.csv")) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[-1] == "Avg improvement,,,0.0"

    @pytest.mark.parametrize("report", ["uniqueness", "ablation"])
    @pytest.mark.parametrize("text", ["[]", "{"], ids=["list", "invalid_json"])
    def test_malformed_metrics(self, report, text, micro_run_dir, tmp_path,
                               capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = Path(broken, "metrics.json")
        victim.write_text(text)
        where = (["--run", broken] if report == "uniqueness"
                 else ["--pairs", f"{micro_run_dir}:{broken}"])
        code, _, stderr = run_cli(capsys, "report", report, *where,
                                  "--out", str(tmp_path / "r"))
        assert code == 2
        assert str(victim) in stderr

    @pytest.mark.parametrize("text", [
        "{}", '{"test": []}', '{"test": {"subject_accuracy": "x"}}'],
        ids=["no_test", "test_list", "accuracy_str"])
    def test_malformed_ablation_accuracy(self, text, micro_run_dir, tmp_path,
                                         capsys):
        broken = str(tmp_path / "broken")
        shutil.copytree(micro_run_dir, broken)
        victim = Path(broken, "metrics.json")
        victim.write_text(text)
        code, _, stderr = run_cli(capsys, "report", "ablation",
                                  "--pairs", f"{micro_run_dir}:{broken}",
                                  "--out", str(tmp_path / "r"))
        assert code == 2
        assert str(victim) in stderr

    def test_ablation_bad_pair(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "report", "ablation",
                                  "--pairs", "solo", "--out",
                                  str(tmp_path / "r"))
        assert code == 2
        assert "expected without:with" in stderr
