"""Acceptance gate: ten numbered, self-contained checks over the whole
pipeline. Each records exactly one PASS/FAIL verdict line (with the
measured values); conftest echoes them in the terminal summary. One
unnumbered test reads criterion 07's training runs."""

import json
import math
import os
import time

import numpy as np
import pytest

import conftest
from conftest import MICRO_ARCH, member_loss_and_grads, own_frames, tree_bytes
from ovbm import cli
from ovbm import nn
from ovbm.aggregation import AggregationScheme, aggregate, scheme_weights
from ovbm.audio_io import AudioClip, parse_manifest
from ovbm.chunker import Chunks, chunk_plan, extract_chunks
from ovbm.degradation import apply_poisson_mask, poisson_pmf
from ovbm.fusion import build_fusion, fuse_from_embeddings, fusion_backward
from ovbm.mfcc import MfccImage, MfccParams, mfcc_oracle
from ovbm.models import (
    TrainConfig,
    embed_chunks,
    head_batches,
    init_cnn,
    layer_names,
    read_weight_file,
    save_model,
    train,
    trainable_layers,
)
from ovbm.pipeline import (FeatureStore, RunConfig, load_clip, run_training,
                           subject_saliency)
from ovbm.saliency import ablation_report, uniqueness_report
from ovbm.synthesis import write_corpus


def report(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def test_criterion_01_mfcc_matches_direct_dft_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    params = MfccParams()
    n_clips = 24
    worst = 0.0
    for _ in range(n_clips):
        duration = float(rng.uniform(0.25, 2.0))
        samples = np.clip(rng.normal(0.0, 0.3, size=int(duration * 16000)),
                          -1.0, 1.0)
        clip = AudioClip(samples, 16000)
        # the product path over a whole clip: its one window, cropped to
        # every frame
        count = len(own_frames(samples, params))
        fast = extract_chunks(clip, [(0.0, clip.duration)], params, False,
                              frames=count).images[0]
        slow = mfcc_oracle(clip, params).values
        rel = np.linalg.norm(fast - slow) / np.linalg.norm(slow)
        worst = max(worst, float(rel))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    report(1, ok, f"{n_clips} clips <=2s, worst relative Frobenius error "
                  f"{worst:.3e} (tol 1e-6), {elapsed:.1f}s (budget 60s)")


def test_criterion_02_poisson_mask_numerics():
    want = [math.exp(-1.0), math.exp(-1.0), math.exp(-1.0) / 2.0,
            math.exp(-1.0) / 6.0]
    pmf_err = max(abs(poisson_pmf(k, 1.0) - want[k]) for k in range(4))

    rng = np.random.default_rng(202)
    values = rng.normal(0.0, 2.5, size=(40, 13))
    image = MfccImage(values, MfccParams(num_cepstra=13, num_filters=26,
                                         fft_size=512))
    once = apply_poisson_mask(image).values
    twice = apply_poisson_mask(image).values
    never_amplifies = bool(np.all(np.abs(once) <= np.abs(values)))
    deterministic = bool(np.array_equal(once, twice))

    ok = pmf_err <= 1e-12 and never_amplifies and deterministic
    report(2, ok, f"unit-rate pmf k=0..3 max abs error {pmf_err:.2e} "
                  f"(tol 1e-12), never amplifies={never_amplifies}, "
                  f"deterministic={deterministic}")


def test_criterion_03_chunk_plans():
    def brute_intervals(duration, size, stride):
        spans = [(0.0, size)]
        k = 1
        while spans[-1][1] < duration:
            spans.append((k * stride, k * stride + size))
            k += 1
        return spans

    rng = np.random.default_rng(303)
    mismatches = 0
    for _ in range(1000):
        # quarter-second grid keeps the formula and the enumerator on
        # exactly representable floats
        duration = int(rng.integers(1, 121)) / 4.0
        size = int(rng.integers(1, 41)) / 4.0
        stride = int(rng.integers(1, 21)) / 4.0
        plan = chunk_plan(duration, size, stride)
        if plan != brute_intervals(duration, size, stride):
            mismatches += 1

    worked = chunk_plan(8.0, 4.0, 2.0)
    worked_ok = worked == [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0)]
    count_78 = len(chunk_plan(78.0, 2.0, 2.0))

    ok = mismatches == 0 and worked_ok and count_78 == 39
    report(3, ok, f"1000 random triples, {mismatches} enumerator "
                  f"disagreements; 8s@4/2 -> {worked}; "
                  f"78s@2/2 -> {count_78} chunks (want 39)")


def test_criterion_04_gradients_match_finite_differences():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    h = 1e-6
    worst = 0.0

    def fd_check(value_fn, tensors, analytic, n_coords=6):
        nonlocal worst
        for tensor, grad in zip(tensors, analytic):
            flat = tensor.reshape(-1)
            gflat = grad.reshape(-1)
            idx = rng.choice(flat.size, size=min(n_coords, flat.size),
                             replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                up = value_fn()
                flat[i] = orig - h
                down = value_fn()
                flat[i] = orig
                worst = max(worst, rel_err((up - down) / (2 * h), gflat[i]))

    # every layer, via a random projection loss
    x = rng.normal(size=(2, 3, 8, 6))
    w = rng.normal(size=(4, 3, 3, 3)) * 0.3
    b = rng.normal(size=4) * 0.1
    p = rng.normal(size=(2, 4, 8, 6))
    dx, dw, db = nn.conv3x3_backward(p, x, w)
    fd_check(lambda: float(np.sum(p * nn.conv3x3(x, w, b))), [x, w, b],
             [dx, dw, db])

    p2 = rng.normal(size=(2, 3, 4, 3))
    dxp = nn.avgpool2_backward(p2, x.shape)
    fd_check(lambda: float(np.sum(p2 * nn.avgpool2(x))), [x], [dxp])

    p3 = rng.normal(size=(2, 3))
    dxg = nn.global_avgpool_backward(p3, x.shape)
    fd_check(lambda: float(np.sum(p3 * nn.global_avgpool(x))), [x], [dxg])

    xl = rng.normal(size=(3, 5))
    wl = rng.normal(size=(4, 5))
    bl = rng.normal(size=4)
    pl = rng.normal(size=(3, 4))
    dxl, dwl, dbl = nn.linear_backward(pl, xl, wl)
    fd_check(lambda: float(np.sum(pl * nn.linear(xl, wl, bl))), [xl, wl, bl],
             [dxl, dwl, dbl])

    xr = rng.normal(size=(4, 6))
    pr = rng.normal(size=(4, 6))
    out = nn.relu(xr)
    dxr = nn.relu_backward(pr, out)
    fd_check(lambda: float(np.sum(pr * nn.relu(xr))), [xr], [dxr])

    logits = rng.normal(size=(5, 3))
    targets = np.array([0, 2, 1, 1, 0])
    dlogits = nn.softmax_ce_backward(nn.softmax(logits), targets)
    fd_check(lambda: nn.cross_entropy(logits, targets), [logits], [dlogits])

    # the full micro CNN through its own backward pass
    model = init_cnn(MICRO_ARCH, 2, seed=405)
    x = rng.normal(size=(1, 10, 8))
    target = np.array([1])

    def member_loss():
        return member_loss_and_grads(model, x, target, set())[0]

    _, grads = member_loss_and_grads(model, x, target,
                                     set(layer_names(MICRO_ARCH)))
    assert len(grads) == len(model.weights)
    for key in grads:
        fd_check(member_loss, [model.weights[key]], [grads[key]], n_coords=4)

    # the fusion network, parameters and input side
    members = [init_cnn(MICRO_ARCH, 2, seed=406 + i, biomarker_id=f"m{i}")
               for i in range(2)]
    fusion = build_fusion(members, seed=407)
    emb = rng.normal(size=(3, 8))
    meta = rng.normal(size=(3, 3))
    y = np.array([0, 1, 1])

    def fusion_loss():
        probs, cache = fuse_from_embeddings(fusion, emb, meta)
        return nn.cross_entropy(cache["logits"], y)

    _, cache = fuse_from_embeddings(fusion, emb, meta)
    fgrads, demb = fusion_backward(fusion, cache, y)
    fd_check(fusion_loss, [fusion.weights[k] for k in fgrads],
             [fgrads[k] for k in fgrads])
    fd_check(fusion_loss, [emb], [demb[:, :8]])

    elapsed = time.monotonic() - start
    ok = worst < 1e-4 and elapsed < 120.0
    report(4, ok, f"all layers + micro CNN + fusion, worst FD relative "
                  f"error {worst:.3e} (tol 1e-4), {elapsed:.1f}s "
                  f"(budget 120s)")


def test_criterion_05_transfer_strategy_weight_file_diffs(tmp_path):
    rng = np.random.default_rng(505)
    data = (Chunks(np.stack([rng.normal(size=(10, 8)) + (2.0 if i % 2 else -2.0)
                             for i in range(16)]), False),
            [i % 2 for i in range(16)])
    convs = ["stem", "block1.conv1", "block1.conv2"]
    cases = [
        ("frozen", trainable_layers("frozen", MICRO_ARCH), {"head"}),
        ("last:0", trainable_layers("last:0", MICRO_ARCH), {"head"}),
        ("last:1", trainable_layers("last:1", MICRO_ARCH),
         {"head", "block1.conv2"}),
        ("last:all", trainable_layers(f"last:{len(convs)}", MICRO_ARCH),
         {"head", *convs}),
    ]
    failures = []
    for name, layers, expected in cases:
        model = init_cnn(MICRO_ARCH, 2, seed=506, biomarker_id="probe")
        before_path = tmp_path / f"{name.replace(':', '_')}_before.ovbm"
        after_path = tmp_path / f"{name.replace(':', '_')}_after.ovbm"
        save_model(before_path, model)
        trained, _ = train(model, *data, TrainConfig(epochs=3, seed=507),
                           layers)
        save_model(after_path, trained)
        _, before = read_weight_file(before_path)
        _, after = read_weight_file(after_path)
        changed = {key.rsplit(".", 1)[0] for key in before
                   if before[key].tobytes() != after[key].tobytes()}
        if changed != expected:
            failures.append(f"{name}: changed {sorted(changed)}, "
                            f"expected {sorted(expected)}")
    ok = not failures
    report(5, ok, "frozen/last:0/last:1/last:all weight-file diffs touch "
                  "exactly the expected layers"
                  + ("" if ok else f" -- {'; '.join(failures)}"))


def test_criterion_06_aggregation_algebra():
    schemes = list(AggregationScheme)
    worst_sum = max(abs(scheme_weights(n, s).sum() - 1.0)
                    for n in range(1, 101) for s in schemes)

    rng = np.random.default_rng(606)
    constant_ok = True
    for _ in range(50):
        c = float(rng.uniform(0, 1))
        n = int(rng.integers(1, 60))
        outs = [aggregate([c] * n, s) for s in schemes]
        constant_ok &= max(abs(o - c) for o in outs) <= 1e-12

    monotone_ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        probs = np.sort(rng.uniform(0, 1, size=n))
        late = aggregate(probs, AggregationScheme.LINEAR_POSITIVE)
        avg = aggregate(probs, AggregationScheme.AVERAGE)
        monotone_ok &= late >= avg - 1e-12

    probs = [0.2, 0.4, 0.9]
    got = [aggregate(probs, s) for s in schemes]
    want = [0.5, 3.7 / 6.0, 2.3 / 6.0]  # displayed as 0.5/0.61667/0.38333
    worked_err = max(abs(g - w) for g, w in zip(got, want))
    display_ok = [f"{g:.5f}" for g in got] == ["0.50000", "0.61667", "0.38333"]

    ok = (worst_sum <= 1e-12 and constant_ok and monotone_ok
          and worked_err <= 1e-9 and display_ok)
    report(6, ok, f"weight sums off by <={worst_sum:.2e} for n<=100; "
                  f"constant fixed point={constant_ok}; late>=avg on 1000 "
                  f"monotone cases={monotone_ok}; [0.2,0.4,0.9] -> "
                  f"{[f'{g:.5f}' for g in got]} (err {worked_err:.1e})")


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """40-subject corpus, three full training runs (seeds 1..3)."""
    root = tmp_path_factory.mktemp("experiment")
    manifest = write_corpus(str(root / "corpus"), 40, seed=7)
    start = time.monotonic()
    pipes = {}
    for seed in (1, 2, 3):
        pipes[seed] = run_training(RunConfig(
            manifest=manifest, seed=seed, label=f"seed{seed}",
            chunk_size=2.0, stride=2.0, pretrain_epochs=10, tune_epochs=8,
            fusion_epochs=25, surrogate_per_class=16,
        ))
    elapsed = time.monotonic() - start
    return pipes, elapsed


def test_criterion_07_end_to_end_scaled_experiment(experiment):
    pipes, elapsed = experiment
    accs = {seed: p.metrics["test"]["subject_accuracy"]
            for seed, p in pipes.items()}
    hits = sum(acc >= 0.90 for acc in accs.values())
    margins_ok = all(
        p.metrics["test"]["subject_accuracy"]
        >= p.metrics["best_member"]["test_subject_accuracy"] - 0.05
        for p in pipes.values()
    )
    ok = hits >= 2 and elapsed < 600.0 and margins_ok
    report(7, ok, f"test subject accuracy by seed "
                  f"{ {s: round(a, 3) for s, a in accs.items()} } "
                  f"({hits}/3 >= 0.90, need 2); ensemble within 0.05 of "
                  f"best member={margins_ok}; 3 runs in {elapsed:.0f}s "
                  f"(budget 600s)")


def test_criterion_08_report_formats():
    table = [
        ("baseline", 65.6, 68.8),
        ("cough", 75.0, 75.0),
        ("intonation", 68.8, 75.0),
        ("wake_word", 75.0, 78.1),
        ("multi_modal", 90.6, 93.8),
    ]
    display = ablation_report(table).avg_improvement_display

    detections = {"A": ["s1", "s4"], "B": ["s2", "s4"], "C": ["s3", "s4"]}
    positives = [f"s{i}" for i in range(6)]
    rep = uniqueness_report(detections, positives)
    labels = [r.label for r in rep.rows]
    vocab_ok = "In all 3" in labels and "In neither of the 3" in labels
    sums_ok = sum(r.count for r in rep.rows) == len(positives)

    rng = np.random.default_rng(808)
    for _ in range(25):
        k = int(rng.integers(2, 5))
        pos = [f"p{i}" for i in range(int(rng.integers(1, 12)))]
        dets = {f"M{j}": [s for s in pos if rng.random() < 0.5]
                for j in range(k)}
        r = uniqueness_report(dets, pos)
        sums_ok &= sum(row.count for row in r.rows) == len(pos)

    ok = display == "3.1" and vocab_ok and sums_ok
    report(8, ok, f"avg improvement display {display!r} (want '3.1'); "
                  f"row vocabulary ok={vocab_ok}; partition counts sum to "
                  f"positives on worked + 25 random cases={sums_ok}")


def test_criterion_09_saliency_map_contract(experiment):
    pipes, _ = experiment
    pipe = pipes[1]
    config = pipe.config
    records = {r.subject_id: r for r in parse_manifest(config.manifest)}
    test_ids = pipe.metrics["test_subjects"]
    ad_id = next(s for s in test_ids if records[s].label == 1)
    control_id = next(s for s in test_ids if records[s].label == 0)

    maps = {}
    rerun_equal = True
    for sid in (ad_id, control_id):
        rec = records[sid]
        clip = load_clip(config.manifest, rec, config.sample_rate)
        maps[sid] = subject_saliency(pipe, rec, clip)
        again = subject_saliency(pipe, rec, clip)
        rerun_equal &= ([(e.biomarker_id, e.score) for e in again.entries]
                        == [(e.biomarker_id, e.score)
                            for e in maps[sid].entries])

    families = ("sensory", "brainos", "cognitive", "symbolic")
    shape_ok = all(
        len(m.entries) == 16
        and all(sum(e.family == f for e in m.entries) == 4 for f in families)
        and all(0.0 <= e.score <= 1.0 for e in m.entries)
        for m in maps.values()
    )
    contrasts = {f: (maps[ad_id].family_mean(f),
                     maps[control_id].family_mean(f)) for f in families}
    contrast_ok = all(ad < ctrl for ad, ctrl in contrasts.values())

    ok = shape_ok and rerun_equal and contrast_ok
    report(9, ok, f"16 entries / 4 per family / scores in [0,1]={shape_ok}; "
                  f"rerun identical={rerun_equal}; affected {ad_id} strictly "
                  f"below control {control_id} on all family means="
                  f"{contrast_ok} "
                  f"{ {f: (round(a, 3), round(c, 3)) for f, (a, c) in contrasts.items()} }")


def test_tuned_member_heads_fit_their_training_chunks(experiment):
    """Every tuned member's own head decides at least 0.9 of its run's
    training chunks right, on each seed of criterion 07's runs. The
    chunks are rebuilt as the run built them, from its training
    subjects."""
    pipes, _ = experiment
    low = {}
    for seed, pipe in pipes.items():
        records = {r.subject_id: r
                   for r in parse_manifest(pipe.config.manifest)}
        train_records = [records[s] for s in pipe.metrics["train_subjects"]]
        store = FeatureStore(pipe.config)
        parts = [store.chunks(r) for r in train_records]
        chunks = Chunks(np.concatenate([c.images for c in parts]),
                        pipe.config.poisson_mask)
        labels = np.repeat([r.label for r in train_records],
                           [len(c) for c in parts])
        members = pipe.tuned
        for m, emb in zip(members, embed_chunks(members, chunks)):
            accuracy = np.mean(np.argmax(head_batches(m, emb), axis=1) == labels)
            if accuracy < 0.9:
                low[(seed, m.biomarker_id)] = round(float(accuracy), 3)
    assert not low, f"tuned members below 0.9 on their training chunks: {low}"


def test_criterion_10_full_cli_determinism(tmp_path):
    corpus = str(tmp_path / "corpus")
    assert cli.main(["synth", "--out", corpus, "--n-subjects", "8",
                     "--seed", "3"]) == 0
    manifest = os.path.join(corpus, "manifest.csv")
    config = {
        "manifest": manifest, "seed": 11, "label": "determinism",
        "chunk_size": 2.0, "stride": 2.0,
        "pretrain_epochs": 3, "tune_epochs": 3, "fusion_epochs": 4,
        "surrogate_per_class": 4,
        "num_cepstra": 8, "num_filters": 16, "fft_size": 512,
        "arch_frames": 16, "stem_channels": 4, "num_blocks": 2,
        "embedding_dim": 8,
    }
    config_path = str(tmp_path / "config.json")
    with open(config_path, "w") as fh:
        json.dump(config, fh)

    def full_run(side: str) -> str:
        root = str(tmp_path / side)
        run = os.path.join(root, "run")
        reports = os.path.join(root, "reports")
        for argv in (
            ["train", "--config", config_path, "--out", run],
            ["eval", "--run", run, "--manifest", manifest,
             "--out", os.path.join(root, "eval.json")],
            ["diagnose", "--run", run, "--manifest", manifest,
             "--out", os.path.join(root, "diagnose.json")],
            ["saliency", "--run", run, "--manifest", manifest,
             "--subjects", "s000,s001", "--compare", "s000,s001",
             "--out", reports],
            ["report", "uniqueness", "--run", run, "--out", reports],
            ["report", "ablation", "--pairs", f"{run}:{run}",
             "--out", reports],
        ):
            assert cli.main(argv) == 0, argv
        return root

    a = tree_bytes(full_run("a"))
    b = tree_bytes(full_run("b"))
    same_names = sorted(a) == sorted(b)
    diffs = [name for name in a if same_names and a[name] != b[name]]
    ok = same_names and not diffs
    report(10, ok, f"two identical-config CLI runs: {len(a)} artifacts "
                   f"(weights, metrics, reports) byte-identical="
                   f"{ok}" + ("" if ok else f"; differing: {diffs[:5]}"))
