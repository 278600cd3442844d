#!/usr/bin/env python3
r"""Print one sha256 per file that the micro test config produces through
`ovbm train`, `eval`, `diagnose`, `saliency --subjects all --compare
s000,s001` and `report uniqueness`, under the frozen, last:1 and all
strategies with the Poisson mask on and off, plus one `report ablation`
per strategy pairing its mask-off and mask-on runs. One more frozen run
uses 0.5 s chunks under a 64-frame crop, so every member input there is
zero-padded. A last frozen run, mask off with a 64-frame crop, trains on
the same corpus but evaluates, diagnoses and explains two recordings of
about 50 s, each the corpus clips end to end, so the chunk-scale probes
run at length. After the digests come two plain lines per run: each
subject's decision label from `diagnoses.json`, and every accuracy field
of `metrics.json`; then one line per run and subject with every saliency
score's `repr`. A change that moves float bits but no decision then
differs in digest and saliency lines only, and a moved score shows by
how much. A change to weight-file bytes alone (a descriptor field, say)
differs in `.ovbm` digest lines only; the plain decision, accuracy and
saliency lines, with the other digests, are then the numeric check:

    diff <(grep -v '\.ovbm' a.txt) <(grep -v '\.ovbm' b.txt)

    python3 scripts/output_digests.py --work /tmp/ovbm-digests > a.txt

Run it in two checkouts with the same --work (each run's config.json
records the manifest path) and `diff` the two listings: no difference
means every artifact and report is byte-identical. The listing is not
part of the test suite; it takes about 8 s on two cores.

    python3 scripts/output_digests.py --work /tmp/ovbm-golden \
        --golden tests/golden/outputs.json

rewrites the fixture that `tests/test_golden.py` pins outputs to, from
three of these runs (`GOLDEN_RUNS`): per-subject decisions and chunk
probabilities, saliency scores, `metrics.json` accuracies and the
fusion's final epoch loss. Only a change whose stated purpose includes
an output change may regenerate it, and that change lists every moved
value, with its largest move, in CHANGES.md. A change that claims
identical outputs never mends a failing golden test by regenerating the
fixture.
"""

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from conftest import micro_run_config  # noqa: E402
import numpy as np  # noqa: E402
from ovbm.audio_io import (MANIFEST_COLUMNS, AudioClip,  # noqa: E402
                           WavRecording, parse_manifest, write_wav)
from ovbm.cli import main as ovbm  # noqa: E402
from ovbm.synthesis import write_corpus  # noqa: E402

STRATEGIES = ("frozen", "last:1", "all")
CORPUS_SUBJECTS, CORPUS_SEED = 8, 3  # the test suite's corpus_dir fixture
# Chunks of 49 frames, shorter than the crop.
SHORT_CHUNKS = dict(strategy="frozen", chunk_size=0.5, stride=0.5,
                    arch_frames=64)
LONG_RECORDINGS = dict(strategy="frozen", poisson_mask=False, arch_frames=64)
# The runs the golden fixture records: training under the frozen and a
# partly trainable strategy, the mask on and off, and the probes at length.
GOLDEN_RUNS = ("frozen_mask_on", "last1_mask_off", "long_recordings")


def run(*argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = ovbm(list(argv))
    if code != 0:
        sys.exit(f"ovbm {' '.join(argv)} exited with {code}")


def accuracy_fields(obj, prefix=""):
    """(dotted key, value) for every key of a metrics tree that names an
    accuracy, in key order."""
    for key in sorted(obj):
        value, name = obj[key], prefix + key
        if isinstance(value, dict):
            yield from accuracy_fields(value, name + ".")
        elif "accuracy" in key:
            yield name, value


def outcome_lines(out: str) -> list:
    """The decision labels and accuracies of the run trained into `out`."""
    name = os.path.basename(out)
    with open(os.path.join(out, "diagnoses.json")) as fh:
        diagnoses = json.load(fh)
    with open(os.path.join(out, "run", "metrics.json")) as fh:
        metrics = json.load(fh)
    labels = " ".join(f"{sid}={d['label']}" for sid, d in sorted(diagnoses.items()))
    accuracies = " ".join(f"{k}={v!r}" for k, v in accuracy_fields(metrics))
    lines = [f"labels {name}: {labels}", f"accuracy {name}: {accuracies}"]
    with open(os.path.join(out, "saliency", "saliency.json")) as fh:
        for smap in json.load(fh):
            scores = " ".join(f"{e['biomarker_id']}={e['score']!r}"
                              for e in smap["entries"])
            lines.append(f"saliency {name} {smap['subject_id']}: {scores}")
    return lines


def golden_record(out: str) -> dict:
    """What the golden fixture records of the run trained into `out`:
    each subject's decision and chunk probabilities, each saliency
    score, every accuracy field of `metrics.json`, the run's counts and
    the fusion's final epoch loss."""
    with open(os.path.join(out, "diagnoses.json")) as fh:
        diagnoses = json.load(fh)
    with open(os.path.join(out, "run", "metrics.json")) as fh:
        metrics = json.load(fh)
    with open(os.path.join(out, "saliency", "saliency.json")) as fh:
        saliency = {smap["subject_id"]: {e["biomarker_id"]: e["score"]
                                         for e in smap["entries"]}
                    for smap in json.load(fh)}
    return {
        "subjects": {sid: {k: d[k] for k in ("label", "probability",
                                              "chunk_probabilities")}
                     for sid, d in sorted(diagnoses.items())},
        "saliency": saliency,
        "accuracy": dict(accuracy_fields(metrics)),
        "counts": metrics["counts"],
        "final_epoch_loss": metrics["fusion"]["final_epoch_loss"],
    }


def golden_outputs(work: str) -> dict:
    """Train and score the GOLDEN_RUNS under `work` (emptied first);
    returns what the golden fixture records of each, by run name."""
    shutil.rmtree(work, ignore_errors=True)
    runs = run_plans(work)
    outs = {}
    for name in GOLDEN_RUNS:
        out = os.path.join(work, name)
        run_all(out, *runs[name])
        outs[name] = golden_record(out)
    return outs


def write_long_manifest(corpus: str) -> str:
    """A manifest of two recordings, the corpus clips end to end in
    manifest order and in reverse; returns its path."""
    records = parse_manifest(os.path.join(corpus, "manifest.csv"))
    wavs = [WavRecording(os.path.join(corpus, r.wav_path)) for r in records]
    clips = [w.read(0, w.num_samples) for w in wavs]
    rows = []
    for i, order in enumerate([clips, clips[::-1]]):
        path = os.path.join(corpus, "wav", f"long{i}.wav")
        write_wav(path, AudioClip(np.concatenate(order), wavs[0].sample_rate))
        rows.append(f"l{i:03d},{os.path.relpath(path, corpus)},"
                    f"{'AD' if i else 'nonAD'},F,70\n")
    manifest = os.path.join(corpus, "long_manifest.csv")
    with open(manifest, "w") as fh:
        fh.write(",".join(MANIFEST_COLUMNS) + "\n" + "".join(rows))
    return manifest


def run_all(out: str, config: dict, manifest: str, compare: str) -> str:
    """Train one config into `out` and run every per-run command on it,
    over the subjects of `manifest`; returns the run directory."""
    os.makedirs(out)
    config_path = os.path.join(out, "config_in.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)
    run_dir = os.path.join(out, "run")
    run("train", "--config", config_path, "--out", run_dir)
    run("eval", "--run", run_dir, "--manifest", manifest,
        "--out", os.path.join(out, "eval.json"))
    run("diagnose", "--run", run_dir, "--manifest", manifest,
        "--out", os.path.join(out, "diagnoses.json"))
    run("saliency", "--run", run_dir, "--manifest", manifest,
        "--subjects", "all", "--compare", compare,
        "--out", os.path.join(out, "saliency"))
    run("report", "uniqueness", "--run", run_dir,
        "--out", os.path.join(out, "uniqueness"))
    return run_dir


def run_plans(work: str) -> dict:
    """Write the corpus and the long-recording manifest under `work`;
    returns every run's name -> (config, the manifest it scores, the
    subjects it compares), in listing order."""
    corpus = os.path.join(work, "corpus")
    write_corpus(corpus, CORPUS_SUBJECTS, seed=CORPUS_SEED)
    manifest = os.path.join(corpus, "manifest.csv")
    base = micro_run_config(corpus).to_dict()
    runs = {}
    for strategy in STRATEGIES:
        for mask in (True, False):
            name = f"{strategy.replace(':', '')}_mask_{'on' if mask else 'off'}"
            runs[name] = (dict(base, strategy=strategy, poisson_mask=mask),
                          manifest, "s000,s001")
    runs["short_chunks"] = (dict(base, **SHORT_CHUNKS), manifest, "s000,s001")
    runs["long_recordings"] = (dict(base, **LONG_RECORDINGS),
                               write_long_manifest(corpus), "l000,l001")
    return runs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--work", required=True,
                   help="scratch directory; emptied first")
    p.add_argument("--golden", metavar="PATH",
                   help="write the golden fixture to PATH instead of the "
                        "listing")
    args = p.parse_args()
    work = os.path.abspath(args.work)
    if args.golden:
        with open(args.golden, "w") as fh:
            json.dump(golden_outputs(work), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return
    shutil.rmtree(work, ignore_errors=True)
    outs = []
    for name, plan in run_plans(work).items():
        outs.append(os.path.join(work, name))
        run_all(outs[-1], *plan)
    for strategy in STRATEGIES:
        name = strategy.replace(":", "")
        run("report", "ablation", "--pairs",
            ":".join(os.path.join(work, f"{name}_mask_{mask}", "run")
                     for mask in ("off", "on")),
            "--out", os.path.join(work, f"{name}_ablation"))

    for dirpath, dirnames, filenames in os.walk(work):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            print(f"{digest}  {os.path.relpath(path, work)}")
    for out in outs:
        print("\n".join(outcome_lines(out)))


if __name__ == "__main__":
    main()
