"""Metadata fusion network: forward/backward, chunk scoring, joint
training, ensemble serialization."""

import threading

import numpy as np
import pytest

from conftest import (
    BAD_FUSION_DESCRIPTORS,
    BAD_FUSION_TENSORS,
    MICRO_ARCH,
    NON_FINITE_FUSION_TENSORS,
    record_boundaries,
    replace_descriptor,
    replace_tensors,
)
from ovbm.chunker import Chunks
from ovbm.degradation import apply_poisson_mask
from ovbm.fusion import (
    HIDDEN_DIM,
    DimMismatch,
    EmptyMembers,
    EnsembleDigestMismatch,
    FusionModel,
    build_fusion,
    fuse_from_embeddings,
    fusion_backward,
    load_ensemble,
    metadata_vector,
    save_ensemble,
    score_chunks,
    train_fusion,
)
from ovbm.mfcc import MfccImage, MfccParams
from ovbm.models import (
    EVAL_BATCH,
    TrainConfig,
    conv_layer_names,
    embed_chunks,
    forward_batch,
    head_batches,
    head_forward,
    init_cnn,
    member_inputs,
    replace_head,
    trainable_layers,
)

FROZEN = trainable_layers("frozen", MICRO_ARCH)
ALL_LAYERS = trainable_layers("all", MICRO_ARCH)


def make_members(n=2, num_classes=3, seed=0):
    return [init_cnn(MICRO_ARCH, num_classes, seed=seed + i,
                     biomarker_id=f"m{i}")
            for i in range(n)]


def make_image(seed=0, offset=0.0):
    return np.random.default_rng(seed).normal(size=(10, 8)) + offset


def make_chunks(n=1, masked=False):
    return Chunks(np.stack([make_image(seed=i) for i in range(n)]), masked)


def make_samples(n=24, seed=0, separation=2.5):
    """(chunks, metadata, labels) whose classes differ in image mean and
    age."""
    labels = np.arange(n) % 2
    chunks = Chunks(np.stack([
        make_image(seed=seed + i, offset=separation if y else -separation)
        for i, y in enumerate(labels)]), False)
    metadata = np.stack([metadata_vector("F" if y else "M", 80 if y else 60)
                         for y in labels])
    return chunks, metadata, labels


class TestMetadata:
    def test_encoding(self):
        np.testing.assert_array_equal(metadata_vector("F", 70), [1, 0, 0.7])
        np.testing.assert_array_equal(metadata_vector("M", 0), [0, 1, 0.0])
        np.testing.assert_array_equal(metadata_vector("unknown", None),
                                      [0, 0, 0])
        assert metadata_vector("F", 150)[2] == 1.0  # age clamps at 100


class TestFuseForward:
    def test_hidden_width_and_probs(self):
        members = make_members()
        fusion = build_fusion(members, seed=1)
        assert fusion.weights["hidden.w"].shape == (HIDDEN_DIM, 2 * 4 + 3)
        emb = np.zeros((5, 8))
        meta = np.zeros((5, 3))
        probs, _ = fuse_from_embeddings(fusion, emb, meta)
        assert probs.shape == (5, 2)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)

    def test_dim_mismatch(self):
        fusion = build_fusion(make_members(), seed=1)
        with pytest.raises(DimMismatch):
            fuse_from_embeddings(fusion, np.zeros((2, 5)), np.zeros((2, 3)))

    def test_empty_members(self):
        with pytest.raises(EmptyMembers):
            build_fusion([])

    @pytest.mark.parametrize("edit,message", [
        (lambda w: w["hidden.w"].__setitem__((0, 0), np.nan),
         "non-finite weights in hidden.w"),
        (lambda w: w.__setitem__("hidden.w", w["hidden.w"][:, 1:]),
         "hidden.w is"),
    ], ids=["nan", "wrong_width"])
    def test_checked_when_built(self, edit, message):
        members = make_members()
        weights = build_fusion(members, seed=1).weights
        edit(weights)
        with pytest.raises(ValueError, match=message):
            FusionModel(members, weights)

    def test_single_chunk_prob(self):
        members = make_members()
        fusion = build_fusion(members, seed=2)
        probs = score_chunks(fusion, make_chunks(), metadata_vector("F", 70))
        assert probs.shape == (1, 2)
        assert 0.0 <= probs[0, 1] <= 1.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        # each member's own 3-way head, read from its embeddings
        embs = embed_chunks(members, make_chunks())
        assert [e.shape for e in embs] == [(1, 4), (1, 4)]
        own = [head_batches(m, e) for m, e in zip(members, embs)]
        assert [p.shape for p in own] == [(1, 3), (1, 3)]

    def test_memo_reuses_bodies_and_keeps_own_heads(self):
        members = make_members()
        fusion = build_fusion(members, seed=2)
        # same bodies under new heads, as frozen tuning leaves them; a
        # zero head would score every chunk 0.5, so give each weights
        rng = np.random.default_rng(9)
        retuned = [replace_head(m, 2) for m in members]
        for m in retuned:
            m.weights["head.w"] = rng.normal(size=m.weights["head.w"].shape)
        chunks = make_chunks(70)  # two batches
        probs = score_chunks(fusion, chunks, metadata_vector())
        assert len(chunks.embeddings) == 2
        # bit-identical to scoring without a cache
        np.testing.assert_array_equal(
            probs, score_chunks(fusion, Chunks(chunks.images, False),
                                metadata_vector()))
        embs = embed_chunks(retuned, chunks)
        assert len(chunks.embeddings) == 2
        for m, e in zip(retuned, embs):
            x = member_inputs(m, chunks)
            np.testing.assert_array_equal(head_batches(m, e), np.concatenate(
                [head_forward(m, forward_batch(m, x[i:i + EVAL_BATCH])[0])[1]
                 for i in range(0, len(x), EVAL_BATCH)]))

    def test_per_chunk_metadata_matches_per_subject_scores(self):
        # One call over several subjects' chunks, laid end to end with a
        # metadata row per chunk, scores each subject's rows as scoring
        # that subject's slice with its own vector does. Not bit for bit:
        # BLAS may round a matrix product's row differently by its
        # position in the product (edge tiles, and one-row products), so
        # the bound is 1e-12.
        fusion = build_fusion(make_members(), seed=2)
        chunks = make_chunks(75)  # two batches; subjects straddle them
        counts = [30, 1, 44]
        vectors = [metadata_vector("F", 70), metadata_vector("M", 45),
                   metadata_vector()]
        got = score_chunks(fusion, chunks, np.repeat(vectors, counts, axis=0))
        ends = np.cumsum(counts)
        want = [score_chunks(fusion, Chunks(chunks.images[end - n:end], False),
                             vector)
                for n, end, vector in zip(counts, ends, vectors)]
        np.testing.assert_allclose(got, np.concatenate(want), rtol=0,
                                   atol=1e-12)


class TestFusionBackward:
    def test_matches_fd(self):
        fusion = build_fusion(make_members(), seed=3)
        rng = np.random.default_rng(4)
        emb = rng.normal(size=(4, 8))
        meta = rng.normal(size=(4, 3))
        y = np.array([0, 1, 1, 0])

        def loss():
            probs, _ = fuse_from_embeddings(fusion, emb, meta)
            return -float(np.mean(np.log(probs[np.arange(4), y])))

        _, cache = fuse_from_embeddings(fusion, emb, meta)
        grads, dx = fusion_backward(fusion, cache, y)
        h = 1e-6
        worst = 0.0
        for key in grads:
            flat = fusion.weights[key].reshape(-1)
            idx = rng.choice(flat.size, size=min(8, flat.size), replace=False)
            for i in idx:
                orig = flat[i]
                flat[i] = orig + h
                up = loss()
                flat[i] = orig - h
                down = loss()
                flat[i] = orig
                fd = (up - down) / (2 * h)
                got = grads[key].reshape(-1)[i]
                worst = max(worst, abs(fd - got) / max(abs(fd), abs(got), 1e-8))
        # d_input via FD on the embedding side
        for i in range(8):
            orig = emb[0, i]
            emb[0, i] = orig + h
            up = loss()
            emb[0, i] = orig - h
            down = loss()
            emb[0, i] = orig
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(fd - dx[0, i]) / max(abs(fd), abs(dx[0, i]), 1e-8))
        assert worst < 1e-4

    def test_without_dx_gradients_are_unchanged(self):
        fusion = build_fusion(make_members(), seed=3)
        rng = np.random.default_rng(5)
        _, cache = fuse_from_embeddings(fusion, rng.normal(size=(6, 8)),
                                        rng.normal(size=(6, 3)))
        y = np.array([0, 1, 1, 0, 1, 0])
        grads, dx = fusion_backward(fusion, cache, y)
        bare, none = fusion_backward(fusion, cache, y, need_dx=False)
        assert dx.shape == (6, fusion.input_dim) and none is None
        assert list(bare) == list(grads)
        for key in grads:
            np.testing.assert_array_equal(bare[key], grads[key])


class TestAlwaysMask:
    def test_masked_member_input(self):
        member = init_cnn(MICRO_ARCH, 2, seed=0,
                          biomarker_id="poisson_muscular")
        rng = np.random.default_rng(3)
        images = rng.normal(0.0, 2.5, size=(3, 10, 8))
        out = member_inputs(member, Chunks(images, False))
        # the whole array is masked at once, bit for bit as image by image
        params = MfccParams(num_cepstra=8, num_filters=16, fft_size=512)
        for got, image in zip(out, images):
            np.testing.assert_array_equal(
                got, apply_poisson_mask(MfccImage(image, params)).values)
            assert not np.array_equal(got, image)
        # already-masked chunks pass through untouched
        masked = make_chunks(masked=True)
        np.testing.assert_array_equal(member_inputs(member, masked),
                                      masked.images)

    def test_other_members_passthrough(self):
        member = init_cnn(MICRO_ARCH, 2, seed=0, biomarker_id="cough_origin")
        chunks = make_chunks()
        np.testing.assert_array_equal(member_inputs(member, chunks),
                                      chunks.images)


class TestTrainFusion:
    def test_frozen_members_bit_identical(self):
        members = make_members()
        fusion = build_fusion(members, seed=5)
        before = [{k: w.copy() for k, w in m.weights.items()} for m in members]
        trained, _ = train_fusion(fusion, *make_samples(),
                                  TrainConfig(epochs=3, seed=1), FROZEN)
        for m, b in zip(trained.members, before):
            for k, w in m.weights.items():
                assert w.tobytes() == b[k].tobytes()
        assert any(not np.array_equal(trained.weights[k],
                                      fusion.weights[k])
                   for k in fusion.weights)

    def test_joint_training_moves_convs_not_heads(self):
        members = make_members()
        fusion = build_fusion(members, seed=6)
        before = [{k: w.copy() for k, w in m.weights.items()} for m in members]
        trained, _ = train_fusion(fusion, *make_samples(),
                                  TrainConfig(epochs=2, seed=2), ALL_LAYERS)
        for m, b in zip(trained.members, before):
            assert not np.array_equal(m.weights["stem.w"], b["stem.w"])
            assert not np.array_equal(m.weights["embed.w"], b["embed.w"])
            # member heads sit off the joint loss path
            assert m.weights["head.w"].tobytes() == b["head.w"].tobytes()

    def test_last1_moves_only_the_last_conv(self):
        members = make_members()
        fusion = build_fusion(members, seed=11)
        before = [{k: w.copy() for k, w in m.weights.items()} for m in members]
        trained, _ = train_fusion(fusion, *make_samples(),
                                  TrainConfig(epochs=2, seed=7),
                                  trainable_layers("last:1", MICRO_ARCH))
        last = conv_layer_names(MICRO_ARCH)[-1]
        for m, b in zip(trained.members, before):
            moved = {k for k, w in m.weights.items()
                     if w.tobytes() != b[k].tobytes()}
            assert moved == {f"{last}.w", f"{last}.b"}

    def test_each_body_trains_from_its_own_columns(self):
        # with the last member's columns of hidden.w zero, its body gets no
        # gradient on the first step, while the first member's body does
        members = make_members()
        fusion = build_fusion(members, seed=12)
        dims = fusion.member_dims
        fusion.weights["hidden.w"][:, sum(dims[:-1]):sum(dims)] = 0.0
        chunks, metadata, labels = make_samples()
        trained, _ = train_fusion(
            fusion, chunks, metadata, labels,
            TrainConfig(epochs=1, batch_size=len(labels), seed=8), ALL_LAYERS)
        first, last = trained.members
        for k, w in last.weights.items():
            assert w.tobytes() == members[-1].weights[k].tobytes(), k
        assert not np.array_equal(first.weights["stem.w"],
                                  members[0].weights["stem.w"])

    def test_input_ensemble_not_mutated(self):
        members = make_members()
        fusion = build_fusion(members, seed=7)
        before = {k: w.copy() for k, w in fusion.weights.items()}
        before_members = [{k: w.copy() for k, w in m.weights.items()}
                          for m in members]
        train_fusion(fusion, *make_samples(), TrainConfig(epochs=2, seed=3),
                     ALL_LAYERS)
        for k, w in fusion.weights.items():
            np.testing.assert_array_equal(w, before[k])
        for m, b in zip(fusion.members, before_members):
            for k, w in m.weights.items():
                np.testing.assert_array_equal(w, b[k])

    def test_deterministic(self):
        members = make_members()
        fusion = build_fusion(members, seed=8)
        samples = make_samples()
        config = TrainConfig(epochs=2, seed=4)
        a, a_losses = train_fusion(fusion, *samples, config, FROZEN)
        b, b_losses = train_fusion(fusion, *samples, config, FROZEN)
        assert a_losses == b_losses and len(a_losses) == config.epochs
        for k in a.weights:
            np.testing.assert_array_equal(a.weights[k], b.weights[k])

    def test_learns_metadata_only_signal(self):
        # zero member weights kill the embeddings; gender/age alone must
        # carry the decision
        members = make_members()
        for m in members:
            for k in m.weights:
                m.weights[k][:] = 0.0
        fusion = build_fusion(members, seed=9)
        chunks, metadata, labels = make_samples(n=40, separation=0.0)
        trained, _ = train_fusion(fusion, chunks, metadata, labels,
                                  TrainConfig(epochs=20, seed=5), FROZEN)
        probs = score_chunks(trained, chunks, metadata)
        assert np.mean(np.argmax(probs, axis=1) == labels) >= 0.9

    def test_thread_parallel_matches_sequential(self):
        members = make_members()
        fusion = build_fusion(members, seed=10)
        samples = make_samples()
        config = TrainConfig(epochs=2, seed=6)
        want, _ = train_fusion(fusion, *samples, config, FROZEN)
        results = [None, None]

        def work(slot):
            results[slot], _ = train_fusion(fusion, *samples, config,
                                            FROZEN)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for got in results:
            for k in want.weights:
                np.testing.assert_array_equal(got.weights[k], want.weights[k])


class TestEnsembleFiles:
    def test_round_trip(self, tmp_path):
        members = make_members()
        fusion = build_fusion(members, seed=12)
        save_ensemble(tmp_path, fusion, meta={"seed": 12})
        out_fusion = load_ensemble(tmp_path)
        assert out_fusion.member_ids == fusion.member_ids == ["m0", "m1"]
        for k in fusion.weights:
            np.testing.assert_array_equal(
                out_fusion.weights[k],
                fusion.weights[k].astype(np.float32).astype(np.float64))

    def test_digest_mismatch(self, tmp_path):
        members = make_members()
        fusion = build_fusion(members, seed=12)
        save_ensemble(tmp_path, fusion)
        path = tmp_path / "member_m0.ovbm"
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(EnsembleDigestMismatch):
            load_ensemble(tmp_path)

    def test_missing_member_file(self, tmp_path):
        members = make_members()
        fusion = build_fusion(members, seed=12)
        save_ensemble(tmp_path, fusion)
        (tmp_path / "member_m1.ovbm").unlink()
        with pytest.raises(FileNotFoundError) as err:
            load_ensemble(tmp_path)
        assert "member_m1.ovbm" in str(err.value)

    def test_fusion_cut_at_record_boundary(self, tmp_path):
        members = make_members()
        save_ensemble(tmp_path, build_fusion(members, seed=12))
        path = tmp_path / "fusion.ovbm"
        raw = path.read_bytes()
        cuts = record_boundaries(path)
        assert len(cuts) == 4
        for cut in cuts:
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError, match="fusion.ovbm"):
                load_ensemble(tmp_path)

    @pytest.mark.parametrize("case", sorted(BAD_FUSION_DESCRIPTORS))
    def test_malformed_descriptor(self, case, tmp_path):
        members = make_members()
        save_ensemble(tmp_path, build_fusion(members, seed=12))
        replace_descriptor(tmp_path / "fusion.ovbm",
                           BAD_FUSION_DESCRIPTORS[case])
        with pytest.raises(ValueError, match="fusion.ovbm"):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("case", sorted(BAD_FUSION_TENSORS))
    def test_tensors_disagree_with_dims(self, case, tmp_path):
        save_ensemble(tmp_path, build_fusion(make_members(), seed=12))
        replace_tensors(tmp_path / "fusion.ovbm", BAD_FUSION_TENSORS[case])
        with pytest.raises(ValueError, match="fusion.ovbm.*disagree"):
            load_ensemble(tmp_path)

    @pytest.mark.parametrize("case", sorted(NON_FINITE_FUSION_TENSORS))
    def test_non_finite_tensor(self, case, tmp_path):
        save_ensemble(tmp_path, build_fusion(make_members(), seed=12))
        replace_tensors(tmp_path / "fusion.ovbm", NON_FINITE_FUSION_TENSORS[case])
        with pytest.raises(ValueError, match="fusion.ovbm.*non-finite"):
            load_ensemble(tmp_path)
