"""Residual CNN members: init, gradients, the layers each transfer
strategy trains, training, weight files, and the fixed biomarker
roster."""

import struct

import numpy as np
import pytest

from conftest import (
    BAD_MODEL_DESCRIPTORS,
    BAD_MODEL_TENSORS,
    MICRO_ARCH,
    _edited,
    count_forward_images,
    member_loss_and_grads,
    random_images,
    record_boundaries,
    replace_descriptor,
    replace_tensors,
)
from ovbm.chunker import Chunks
from ovbm.models import (
    EVAL_BATCH,
    MEMBERS,
    ROSTER,
    BiomarkerModel,
    CnnArch,
    NonFiniteActivation,
    NTooLarge,
    ShapeMismatch,
    SingleClassDataset,
    TrainConfig,
    conv_layer_names,
    embed_chunks,
    fit,
    forward_batch,
    head_batches,
    head_forward,
    init_cnn,
    layer_names,
    load_model,
    member_inputs,
    read_weight_file,
    replace_head,
    save_model,
    stratified_split,
    train,
    trainable_layers,
)
from ovbm.pipeline import RunConfig
from ovbm.util import derive_seed

# The run's default member arch: 7 conv layers.
DEFAULT_ARCH = RunConfig(manifest="m.csv").arch


def labeled_set(n=20, seed=0, shape=(10, 8), separation=2.0):
    """(chunks, labels): two linearly separable classes of random images."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % 2
    images = [rng.normal(size=shape) + (separation if label else -separation)
              for label in labels]
    return Chunks(np.stack(images), False), labels


class TestInit:
    def test_deterministic(self):
        a = init_cnn(MICRO_ARCH, 2, seed=7)
        b = init_cnn(MICRO_ARCH, 2, seed=7)
        for k in a.weights:
            np.testing.assert_array_equal(a.weights[k], b.weights[k])
        c = init_cnn(MICRO_ARCH, 2, seed=8)
        assert any(not np.array_equal(a.weights[k], c.weights[k])
                   for k in a.weights)

    def test_layer_inventory(self):
        model = init_cnn(MICRO_ARCH, 3, seed=0)
        assert layer_names(MICRO_ARCH) == ["stem", "block1.conv1",
                                           "block1.conv2", "embed", "head"]
        assert conv_layer_names(MICRO_ARCH) == ["stem", "block1.conv1",
                                                "block1.conv2"]
        assert model.weights["head.w"].shape == (3, 4)
        assert all(np.all(model.weights[f"{n}.b"] == 0.0)
                   for n in layer_names(MICRO_ARCH))

    def test_replace_head_keeps_body(self):
        base = init_cnn(MICRO_ARCH, 5, seed=0)
        out = replace_head(base, 2)
        assert out.num_classes == 2
        np.testing.assert_array_equal(out.weights["head.w"], np.zeros((2, 4)))
        np.testing.assert_array_equal(out.weights["head.b"], np.zeros(2))
        np.testing.assert_array_equal(out.weights["stem.w"],
                                      base.weights["stem.w"])
        out.weights["stem.w"][0, 0, 0, 0] += 1.0  # copies, not views
        assert out.weights["stem.w"][0, 0, 0, 0] != base.weights["stem.w"][0, 0, 0, 0]

    def test_checked_when_built(self):
        weights = init_cnn(MICRO_ARCH, 2, seed=0).weights
        del weights["head.b"]
        with pytest.raises(ValueError, match="head.b is missing"):
            BiomarkerModel("probe", MICRO_ARCH, 2, weights)

    def test_arch_rejects_overpooling(self):
        with pytest.raises(ValueError):
            CnnArch(input_shape=(4, 4), stem_channels=2, num_blocks=3,
                    embedding_dim=4)


class TestForward:
    def test_shapes_and_prob_rows(self):
        model = init_cnn(MICRO_ARCH, 3, seed=1)
        emb, _ = forward_batch(model, np.stack(random_images(5)))
        probs = head_forward(model, emb)[1]
        assert emb.shape == (5, 4)
        assert probs.shape == (5, 3)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
        assert np.all(probs >= 0.0)

    def test_frame_mismatch(self):
        # the chunker crops chunk images; a member takes only its shape
        model = init_cnn(MICRO_ARCH, 2, seed=1)
        for frames in (4, 9, 11, 30):
            with pytest.raises(ShapeMismatch):
                member_inputs(model, Chunks(np.ones((3, frames, 8)), False))
        with pytest.raises(ShapeMismatch):
            member_inputs(model, Chunks(np.ones((3, 80)), False))

    def test_coeff_mismatch(self):
        model = init_cnn(MICRO_ARCH, 2, seed=1)
        with pytest.raises(ShapeMismatch):
            member_inputs(model, Chunks(np.ones((3, 10, 9)), False))

    def test_single_matches_batch(self):
        # one chunk through the product path: embed_chunks, then the head
        model = init_cnn(MICRO_ARCH, 2, seed=2)
        x = random_images(1, seed=3)[0][None]
        emb1 = embed_chunks([model], Chunks(x, False))[0]
        emb2, _ = forward_batch(model, x)
        np.testing.assert_array_equal(emb1, emb2)
        np.testing.assert_array_equal(head_batches(model, emb1),
                                      head_forward(model, emb2)[1])


class TestNonFiniteActivation:
    """Finite weights whose products overflow: loading accepts them, the
    passes refuse what they compute, naming the member."""

    def test_overflowing_embedding(self):
        model = init_cnn(MICRO_ARCH, 2, seed=0, biomarker_id="probe")
        for name, w in model.weights.items():
            if not name.startswith("head."):
                w[...] = 1e200
        model = BiomarkerModel("probe", MICRO_ARCH, 2, model.weights)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NonFiniteActivation, match="'probe'"):
            forward_batch(model, np.stack(random_images(2)))

    def test_overflowing_head(self):
        model = init_cnn(MICRO_ARCH, 2, seed=0, biomarker_id="probe")
        model.weights["head.w"][...] = 1e300
        model = BiomarkerModel("probe", MICRO_ARCH, 2, model.weights)
        emb = np.full((3, 4), 1e300)
        for head in (head_forward, head_batches):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NonFiniteActivation, match="'probe'"):
                head(model, emb)


class TestChunkEmbeddings:
    def test_array_chunks_embed_every_image(self, monkeypatch):
        # Built from an array, each chunk is its own crop, even where two
        # images are equal, so the bodies run the batches they always
        # did: each EVAL_BATCH slice of the images, byte for byte.
        model = init_cnn(MICRO_ARCH, 2, seed=2)
        x = np.stack(random_images(150, seed=5))
        x[7] = x[3]
        want = np.concatenate([forward_batch(model, x[i:i + EVAL_BATCH])[0]
                               for i in range(0, len(x), EVAL_BATCH)])
        chunks = Chunks(x, False)
        np.testing.assert_array_equal(chunks.index, np.arange(150))
        images = count_forward_images(monkeypatch)
        got = embed_chunks([model], chunks)[0]
        assert images == [64, 64, 22]
        assert got.tobytes() == want.tobytes()

    def test_shared_crops_embed_once(self, monkeypatch):
        model = init_cnn(MICRO_ARCH, 2, seed=2)
        crops = np.stack(random_images(3, seed=6))
        index = np.array([0, 1, 0, 2, 1])
        chunks = Chunks(crops, False, index)
        np.testing.assert_array_equal(chunks.images, crops[index])
        images = count_forward_images(monkeypatch)
        emb = embed_chunks([model], chunks)[0]
        assert images == [3]
        np.testing.assert_array_equal(emb, forward_batch(model, crops)[0][index])
        # the first two chunks read the first two crops, and share the
        # embeddings already made
        head = chunks.head(2)
        assert len(head) == 2 and len(head.crops) == 2
        np.testing.assert_array_equal(embed_chunks([model], head)[0], emb[:2])
        assert images == [3]


def loss_and_grads(model, img, target, needed):
    """Cross-entropy of one image and the gradients of the head and of
    the layers in `needed`, through the calls `train`'s step makes."""
    return member_loss_and_grads(model, img[None], np.array([target]), needed)


class TestGradients:
    def test_full_model_fd(self):
        model = init_cnn(MICRO_ARCH, 2, seed=3)
        img = random_images(1, seed=4)[0]
        _, grads = loss_and_grads(model, img, 1, set(layer_names(MICRO_ARCH)))
        assert len(grads) == len(model.weights)
        h = 1e-5
        rng = np.random.default_rng(5)
        worst = 0.0
        for key, g in grads.items():
            flat = model.weights[key].reshape(-1)
            idx = rng.choice(flat.size, size=min(6, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                up = loss_and_grads(model, img, 1, set())[0]
                flat[i] = orig - h
                down = loss_and_grads(model, img, 1, set())[0]
                flat[i] = orig
                fd = (up - down) / (2 * h)
                worst = max(worst, abs(fd - g.reshape(-1)[i])
                            / max(abs(fd), abs(g.reshape(-1)[i]), 1e-8))
        assert worst < 1e-4

    def test_frozen_layers_get_exact_zero(self):
        # under `frozen` only the head gets a gradient, so an Adam step
        # leaves every other tensor as it was
        model = init_cnn(MICRO_ARCH, 2, seed=3)
        needed = trainable_layers("frozen", MICRO_ARCH)
        _, grads = loss_and_grads(model, random_images(1)[0], 0, needed)
        assert sorted(grads) == ["head.b", "head.w"]
        assert np.any(grads["head.w"] != 0.0)


class TestTrainableLayers:
    @pytest.mark.parametrize("arch", [MICRO_ARCH, DEFAULT_ARCH],
                             ids=["micro", "default"])
    def test_layer_sets(self, arch):
        convs = conv_layer_names(arch)
        assert (trainable_layers("frozen", arch)
                == trainable_layers("last:0", arch) == {"head"})
        nested = [trainable_layers(f"last:{n}", arch)
                  for n in range(len(convs) + 1)]
        for n, layers in enumerate(nested):
            assert layers - {"head"} == set(convs[len(convs) - n:])
            assert "head" in layers and (n == 0 or nested[n - 1] < layers)
        assert trainable_layers("all", arch) == set(layer_names(arch))
        assert trainable_layers(" Last:1 ", arch) == nested[1]

    @pytest.mark.parametrize("strategy,error,message", [
        ("half", ValueError, "unknown strategy"),
        ("last:x", ValueError, "unknown strategy 'last:x'"),
        ("last:1.5", ValueError, "unknown strategy 'last:1.5'"),
        ("last:-1", ValueError, "unknown strategy 'last:-1'"),
        ("last:8", NTooLarge, "n=8 but arch has 7 conv layers")],
        ids=["half", "last:x", "last:1.5", "last:-1", "last:8"])
    def test_rejected(self, strategy, error, message):
        with pytest.raises(error, match=message):
            trainable_layers(strategy, DEFAULT_ARCH)


class TestTraining:
    def test_frozen_leaves_body_bit_identical(self):
        model = init_cnn(MICRO_ARCH, 2, seed=1)
        before = {k: w.copy() for k, w in model.weights.items()}
        trained, _ = train(model, *labeled_set(), TrainConfig(epochs=2, seed=0),
                           trainable_layers("frozen", MICRO_ARCH))
        for k, w in trained.weights.items():
            if k.startswith("head."):
                assert not np.array_equal(w, before[k])
            else:
                assert w.tobytes() == before[k].tobytes()

    def test_loss_trend_over_seeds(self):
        improved = 0
        for seed in range(5):
            _, losses = train(init_cnn(MICRO_ARCH, 2, seed=seed),
                              *labeled_set(seed=seed),
                              TrainConfig(epochs=6, seed=seed),
                              trainable_layers("all", MICRO_ARCH))
            improved += losses[-1] <= losses[0]
        assert improved >= 4

    def test_deterministic(self):
        model = init_cnn(MICRO_ARCH, 2, seed=2)
        data = labeled_set(seed=2)
        config = TrainConfig(epochs=2, seed=5)
        layers = trainable_layers("all", MICRO_ARCH)
        a, a_losses = train(model, *data, config, layers)
        b, b_losses = train(model, *data, config, layers)
        for k in a.weights:
            np.testing.assert_array_equal(a.weights[k], b.weights[k])
        assert a_losses == b_losses

    def test_input_model_not_mutated(self):
        model = init_cnn(MICRO_ARCH, 2, seed=2)
        before = {k: w.copy() for k, w in model.weights.items()}
        train(model, *labeled_set(), TrainConfig(epochs=1, seed=0),
              trainable_layers("all", MICRO_ARCH))
        for k, w in model.weights.items():
            np.testing.assert_array_equal(w, before[k])

    def test_single_class_rejected(self):
        chunks = Chunks(np.stack(random_images(6)), False)
        with pytest.raises(SingleClassDataset):
            train(init_cnn(MICRO_ARCH, 2, seed=0), chunks, [0] * 6,
                  TrainConfig(epochs=1), trainable_layers("frozen", MICRO_ARCH))

    def test_learns_separable_task(self):
        chunks, labels = labeled_set(n=40, separation=3.0)
        model, _ = train(init_cnn(MICRO_ARCH, 2, seed=1), chunks, labels,
                         TrainConfig(epochs=10, seed=1),
                         trainable_layers("all", MICRO_ARCH))
        probs = head_batches(model, embed_chunks([model], chunks)[0])
        assert np.mean(np.argmax(probs, axis=1) == labels) >= 0.9


class TestFit:
    def test_batches_epochs_and_step_index(self):
        labels = np.arange(23) % 3
        config = TrainConfig(epochs=3, batch_size=4, seed=9,
                             split_fraction=0.7)
        calls = []

        def step(batch, t):
            calls.append((batch.copy(), t))
            return float(t)

        losses = fit(labels, config, step)
        # the batches cover the split's train side only
        want_train, _ = stratified_split(
            labels, 0.7, np.random.default_rng(derive_seed(9, "split")))
        train_idx = np.array(want_train)
        assert len(losses) == 3 and len(want_train) < len(labels)
        shuffle = np.random.default_rng(derive_seed(9, "shuffle"))
        per_epoch = -(-len(want_train) // 4)
        assert [t for _, t in calls] == list(range(1, 3 * per_epoch + 1))
        for epoch in range(3):
            batches = [b for b, _ in calls[epoch * per_epoch:
                                           (epoch + 1) * per_epoch]]
            order = train_idx[shuffle.permutation(len(want_train))]
            np.testing.assert_array_equal(np.concatenate(batches), order)
            assert all(len(b) == 4 for b in batches[:-1])
            # each epoch's loss is the size-weighted mean of its steps'
            ts = [t for _, t in calls[epoch * per_epoch:
                                      (epoch + 1) * per_epoch]]
            assert losses[epoch] == pytest.approx(
                sum(t * len(b) for t, b in zip(ts, batches)) / len(order))


class TestSplit:
    def test_stratified(self):
        labels = np.array([0] * 10 + [1] * 6)
        rng = np.random.default_rng(0)
        train_idx, test_idx = stratified_split(labels, 0.7, rng)
        assert sorted(train_idx + test_idx) == list(range(16))
        assert len(set(labels[train_idx])) == 2
        assert len(set(labels[test_idx])) == 2
        assert len(train_idx) == 7 + 4


class TestWeightFiles:
    def test_round_trip_exact(self, tmp_path):
        model = init_cnn(MICRO_ARCH, 3, seed=4, biomarker_id="demo")
        path = tmp_path / "m.ovbm"
        save_model(path, model, meta={"seed": 4})
        out = load_model(path)
        assert out.biomarker_id == "demo"
        assert out.num_classes == 3
        assert out.arch == model.arch
        for k in model.weights:
            np.testing.assert_array_equal(out.weights[k],
                                          model.weights[k].astype(np.float32)
                                          .astype(np.float64))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"ZZZZ"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(ValueError, match="m.ovbm"):
            load_model(path)

    def test_overflowing_dims(self, tmp_path):
        # 65536**4 is 2**64: a product taken in int64 wraps to 0
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        raw = path.read_bytes()
        start = record_boundaries(path)[-1]
        (name_len,) = struct.unpack_from("<I", raw, start)
        rank_at = start + 4 + name_len
        (rank,) = struct.unpack_from("<I", raw, rank_at)
        path.write_bytes(raw[:rank_at] + struct.pack("<5I", 4, *(65536,) * 4)
                         + raw[rank_at + 4 + 4 * rank:])
        with pytest.raises(ValueError, match="m.ovbm.*truncated"):
            load_model(path)

    def test_old_trainable_mask_is_ignored(self, tmp_path):
        # files written before the run's layer set was the only record
        # of what trains carry a per-layer mask in their descriptor
        path = tmp_path / "m.ovbm"
        model = init_cnn(MICRO_ARCH, 3, seed=4, biomarker_id="demo")
        save_model(path, model)
        new = load_model(path)
        mask = {name: name == "head" for name in layer_names(MICRO_ARCH)}
        replace_descriptor(path, _edited(lambda d: d.update(trainable=mask)))
        old = load_model(path)
        assert (old.biomarker_id, old.arch, old.num_classes) == \
            (new.biomarker_id, new.arch, new.num_classes)
        assert list(old.weights) == list(new.weights)
        for k, w in new.weights.items():
            assert old.weights[k].tobytes() == w.tobytes()

    def test_cut_at_record_boundary(self, tmp_path):
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        raw = path.read_bytes()
        cuts = record_boundaries(path)
        assert len(cuts) == 2 * len(layer_names(MICRO_ARCH))
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="m.ovbm"):
                load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "nope.ovbm")

    def test_deeply_nested_descriptor(self, tmp_path):
        # JSON nested past Python's recursion limit fails to parse
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        replace_descriptor(path, lambda d: b"[" * 200_000)
        with pytest.raises(ValueError, match="m.ovbm: malformed file"):
            read_weight_file(path)

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_DESCRIPTORS))
    def test_malformed_descriptor(self, case, tmp_path):
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        replace_descriptor(path, BAD_MODEL_DESCRIPTORS[case])
        with pytest.raises(ValueError, match="m.ovbm"):
            load_model(path)

    @pytest.mark.parametrize("case", sorted(BAD_MODEL_TENSORS))
    def test_tensors_disagree_with_arch(self, case, tmp_path):
        path = tmp_path / "m.ovbm"
        save_model(path, init_cnn(MICRO_ARCH, 2, seed=0))
        replace_tensors(path, BAD_MODEL_TENSORS[case])
        with pytest.raises(ValueError, match="m.ovbm.*disagree"):
            load_model(path)


def family(name: str) -> list:
    return [e for e in ROSTER if e.family == name]


class TestRegistry:
    def test_roster_shape(self):
        assert len(ROSTER) == 16
        for name in ("sensory", "brainos", "cognitive", "symbolic"):
            assert len(family(name)) == 4
        assert len({e.biomarker_id for e in ROSTER}) == 16

    def test_model_backed_entries(self):
        by_id = {e.biomarker_id: e for e in ROSTER}
        assert list(MEMBERS) == family("sensory") + family("cognitive")
        assert by_id["poisson_muscular"].always_mask is True
        assert sum(e.always_mask for e in ROSTER) == 1
        assert by_id["sentiment_8class"].num_classes == 8
        assert by_id["cough_origin"].chunk_seconds == 6.0
        for wid in ("vocal_cords_ww_them", "ww_context_kitchen",
                    "ww_unique_tipping", "ww_inferred_jar",
                    "ww_salient_overflow"):
            entry = by_id[wid]
            assert entry.kind == "wake_word"
            assert entry.chunk_seconds == 3.0
        keywords = {by_id[w].keyword for w in (
            "vocal_cords_ww_them", "ww_context_kitchen", "ww_unique_tipping",
            "ww_inferred_jar", "ww_salient_overflow")}
        assert keywords == {"them", "kitchen", "tipping", "jar", "overflow"}

    def test_chunk_probe_sizes_match(self):
        sizes = [e.chunk_size for e in family("brainos")]
        assert sizes == [2.0, 8.0, 14.0, 20.0]

    def test_symbolic_schemes(self):
        # three aggregation schemes of the main ensemble, then the
        # pretuned ensemble, which has none
        schemes = [e.scheme for e in family("symbolic")]
        assert schemes == ["average", "linear_positive", "linear_negative",
                           None]
