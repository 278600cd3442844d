"""Overlapping chunk plans against a brute-force window enumerator."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ReadLog, own_frames
import ovbm.audio_io as audio_io
from ovbm.audio_io import AudioClip, SynthSpec, synth_clip
from ovbm.chunker import Chunks, chunk_plan, extract_chunks
import ovbm.chunker as chunker
from ovbm.degradation import apply_poisson_mask
from ovbm.mfcc import MfccImage, MfccParams, mfcc
from ovbm.models import (MEMBER_IDS, MEMBERS, ROSTER, CnnArch, embed_chunks,
                         init_cnn, member_inputs)
from ovbm.synthesis import surrogate_dataset, surrogate_spec


def enumerate_windows(duration, size, stride):
    """Independent reference: slide until a window reaches the end."""
    spans = [(0.0, size)]
    k = 0
    while k * stride + size < duration:
        k += 1
        spans.append((k * stride, k * stride + size))
    return spans


class TestPlan:
    def test_worked_example(self):
        plan = chunk_plan(8.0, 4.0, 2.0)
        assert plan == [(0.0, 4.0), (2.0, 6.0), (4.0, 8.0)]
        assert type(plan) is list

    def test_78s_at_2_2_gives_39(self):
        assert len(chunk_plan(78.0, 2.0, 2.0)) == 39

    def test_short_clip_single_chunk(self):
        assert chunk_plan(1.0, 4.0, 2.0) == [(0.0, 4.0)]

    # quarter-second grid keeps the float arithmetic exact, so the
    # formula and the enumerator must agree to the last chunk
    @given(st.integers(1, 480), st.integers(2, 120), st.integers(1, 40))
    def test_matches_enumerator(self, duration4, size4, stride4):
        duration, size, stride = duration4 / 4, size4 / 4, stride4 / 4
        plan = chunk_plan(duration, size, stride)
        want = enumerate_windows(duration, size, stride)
        assert len(plan) == len(want)
        np.testing.assert_allclose(plan, want, atol=1e-9)

    @given(st.integers(20, 160), st.integers(1, 160),
           st.integers(4, 24), st.integers(2, 16))
    def test_longer_clip_extends_plan(self, d4, extra4, size4, stride4):
        d1, size, stride = d4 / 4, size4 / 4, stride4 / 4
        short = chunk_plan(d1, size, stride)
        long = chunk_plan(d1 + extra4 / 4, size, stride)
        assert long[:len(short)] == short

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_plan(10.0, 0.0, 2.0)
        with pytest.raises(ValueError):
            chunk_plan(10.0, 2.0, -1.0)
        with pytest.raises(ValueError):
            chunk_plan(-1.0, 2.0, 2.0)


FAST = MfccParams(num_cepstra=8, num_filters=16, fft_size=512)
WHOLE = 199  # the frame count of a 2 s chunk, so its image is not cut


def _clip(duration):
    return synth_clip(SynthSpec("t", duration, [("sine", 500.0, 0.5),
                                                ("noise", 0.0, 0.2)], seed=1))


def _own(samples):
    """`mfcc` of samples as one recording, framed by `own_frames`."""
    return mfcc(AudioClip(samples, 16000), FAST, own_frames(samples, FAST))


def _centre(values, frames):
    """The crop rule, stated directly: the centre `frames` rows, or all
    rows centred between zero rows when there are fewer."""
    n = values.shape[0]
    if n >= frames:
        start = (n - frames) // 2
        return values[start:start + frames]
    out = np.zeros((frames, values.shape[1]))
    before = (frames - n) // 2
    out[before:before + n] = values
    return out


class TestExtract:
    def test_uniform_shapes_and_spans(self):
        clip = _clip(5.0)
        plan = chunk_plan(clip.duration, 2.0, 1.5)
        chunks = extract_chunks(clip, plan, FAST, False, WHOLE)
        assert len(chunks) == len(plan)
        assert chunks.images.shape == (len(plan), WHOLE, FAST.num_cepstra)
        assert not chunks.masked
        assert chunks.embeddings == {}

    def test_images_are_read_only(self):
        clip = _clip(4.0)
        chunks = extract_chunks(clip, chunk_plan(clip.duration, 2.0, 2.0),
                                FAST, False, 16)
        with pytest.raises(ValueError):
            chunks.images[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            chunks.images[1][:] = 0.0

    def test_final_chunk_zero_padded(self):
        clip = _clip(5.0)
        plan = chunk_plan(clip.duration, 2.0, 1.5)
        chunks = extract_chunks(clip, plan, FAST, False, WHOLE)
        start, end = plan[-1]
        tail = clip.samples[int(round(start * 16000)):]
        padded = np.concatenate([tail, np.zeros(32000 - tail.size)])
        want = _own(padded).values
        np.testing.assert_array_equal(chunks.images[-1], want)

    def test_interior_chunk_matches_direct_slice(self):
        clip = _clip(6.0)
        plan = chunk_plan(clip.duration, 2.0, 2.0)
        chunks = extract_chunks(clip, plan, FAST, False, WHOLE)
        piece = clip.samples[32000:64000]
        want = _own(piece).values
        np.testing.assert_array_equal(chunks.images[1], want)

    def test_no_windows(self):
        with pytest.raises(ValueError):
            extract_chunks(_clip(1.0), [], FAST, False, 16)

    def test_mask_flag_and_effect(self):
        clip = _clip(4.0)
        plan = chunk_plan(clip.duration, 2.0, 2.0)
        plain = extract_chunks(clip, plan, FAST, False, WHOLE)
        masked = extract_chunks(clip, plan, FAST, True, WHOLE)
        assert masked.masked
        for a, b in zip(plain.images, masked.images):
            assert not np.array_equal(a, b)
            assert np.all(np.abs(b) <= np.abs(a) + 1e-15)


class TestCrop:
    """The chunker crops every chunk image to the member input's frame
    count: a member reads exactly the chunk image."""

    def test_short_window_is_centred_between_zero_rows(self):
        clip = _clip(1.0)
        plan = chunk_plan(clip.duration, 0.1, 0.1)  # 9 frames a chunk
        own = _own(clip.samples[1600:3200])
        assert own.values.shape[0] == 9
        image = extract_chunks(clip, plan, FAST, False, 16).images[1]
        assert image.shape == (16, FAST.num_cepstra)
        assert np.all(image[:3] == 0.0) and np.all(image[12:] == 0.0)
        np.testing.assert_array_equal(image[3:12], own.values)

    def test_long_window_keeps_its_centre_rows(self):
        clip = _clip(6.0)
        plan = chunk_plan(clip.duration, 2.0, 2.0)  # 199 frames a chunk
        own = _own(clip.samples[32000:64000])
        image = extract_chunks(clip, plan, FAST, False, 16).images[1]
        np.testing.assert_array_equal(image, own.values[91:107])


def _own_mfcc(clip, plan, span, mask, frames):
    """The per-chunk definition: `mfcc` of the chunk's own samples, cut
    from the clip zero-padded to the plan's last window and framed by
    `own_frames`, cropped to `frames` rows, then masked."""
    rate = clip.sample_rate
    tail = int(round(plan[-1][1] * rate)) - clip.samples.size
    padded = np.concatenate([clip.samples, np.zeros(max(tail, 0))])
    a, b = (int(round(t * rate)) for t in span)
    image = _own(padded[a:b])
    image = MfccImage(_centre(image.values, frames), FAST)
    return apply_poisson_mask(image) if mask else image


def _assert_own_mfcc(clip, plan, images, mask, frames):
    """`images` are the plan's chunk images, in window order."""
    assert len(images) == len(plan)
    for image, span in zip(images, plan):
        np.testing.assert_array_equal(
            image, _own_mfcc(clip, plan, span, mask, frames).values)


MASKS = [False, True]
# A crop inside every chunk, one wider than a 2 s chunk, and one wider
# than any chunk here.
CROPS = (16, 300, 1000)


class TestOneFeaturization:
    """Chunks are cut from one featurization of the recording's crop
    frames, yet each chunk image equals the crop of `mfcc` of that chunk
    alone bit for bit, row 0 (where pre-emphasis restarts) included."""

    # (clip s, chunk s, stride s): on the frame grid; stride off the
    # 10 ms grid; long chunks; chunk length off the grid (partial last
    # frame); a 15 ms stride; the (2, 2) clip ends 0.1 s into its last
    # chunk, so that chunk is mostly zero padding.
    @pytest.mark.parametrize("mask", MASKS, ids=["plain", "masked"])
    @pytest.mark.parametrize("duration,size,stride", [
        (4.1, 2.0, 2.0), (5.0, 2.0, 1.5), (9.1, 8.0, 2.0),
        (6.3, 2.005, 2.0), (2.3, 2.0, 0.015)])
    def test_every_chunk_is_its_own_mfcc(self, duration, size, stride, mask):
        clip = _clip(duration)
        plan = chunk_plan(clip.duration, size, stride)
        for frames in CROPS:
            _assert_own_mfcc(
                clip, plan,
                extract_chunks(clip, plan, FAST, mask, frames).images,
                mask, frames)

    def test_short_chunks_bit_identical(self):
        # A chunk of a few frames, featurized alone, is zero-padded to a
        # whole block like the recording's frames, so rows agree exactly.
        clip = _clip(1.0)
        plan = chunk_plan(clip.duration, 0.1, 0.05)
        _assert_own_mfcc(clip, plan,
                         extract_chunks(clip, plan, FAST, False, 16).images,
                         False, 16)

    @pytest.mark.parametrize("mask", MASKS, ids=["plain", "masked"])
    def test_saliency_plans_share_one_featurization(self, mask, monkeypatch):
        calls = []
        monkeypatch.setattr(chunker, "mfcc",
                            lambda *a, **k: calls.append(1) or mfcc(*a, **k))
        clip = _clip(9.1)
        plans = [chunk_plan(clip.duration, size, 2.0)
                 for size in [4.0] + [e.chunk_size for e in ROSTER
                                      if e.family == "brainos"]]
        chunks = extract_chunks(clip, sum(plans, []), FAST, mask, 64)
        assert len(calls) == 1
        assert len(chunks) == sum(len(p) for p in plans)
        start = 0
        for plan in plans:
            _assert_own_mfcc(clip, plan,
                             chunks.images[start:start + len(plan)], mask, 64)
            start += len(plan)

    # a plan is its windows: plans concatenate as lists, and each
    # plan's images come out as they do alone, bit for bit
    @pytest.mark.parametrize("mask", MASKS, ids=["plain", "masked"])
    @pytest.mark.parametrize("a,b", [
        ((2.0, 2.0), (8.0, 2.0)), ((2.0, 1.5), (0.1, 0.05)),
        ((20.0, 2.0), (4.0, 0.5)), ((2.005, 2.0), (2.005, 2.0))])
    def test_plans_concatenate(self, a, b, mask):
        clip = _clip(9.1)
        a, b = (chunk_plan(clip.duration, *steps) for steps in (a, b))
        both = extract_chunks(clip, a + b, FAST, mask, 64).images
        np.testing.assert_array_equal(
            both, np.concatenate([extract_chunks(clip, plan, FAST, mask,
                                                 64).images
                                  for plan in (a, b)]))

    def test_only_crop_frames_are_featurized(self, monkeypatch):
        # Four 8 s windows 0.5 s apart (799 frames each) and one 20 s
        # window on a 9.1 s clip. The 64-frame crops start at 3.67,
        # 4.17, 4.67 and 5.17 s, so they share frames: 214 distinct ones.
        # The 20 s window's crop starts at 9.67 s, in the padding: its
        # 64 all-zero frames are one frame.
        rows = []
        monkeypatch.setattr(
            chunker, "mfcc",
            lambda *a, **k: rows.append(len(k["frames"])) or mfcc(*a, **k))
        clip = _clip(9.1)
        plans = [chunk_plan(clip.duration, 8.0, 0.5),
                 chunk_plan(clip.duration, 20.0, 2.0)]
        assert [len(p) for p in plans] == [4, 1]
        extract_chunks(clip, sum(plans, []), FAST, False, 64)
        assert rows == [214 + 1]


def _surrogate_crop(entry, class_id, index) -> MfccImage:
    """The centre 64-row crop of a surrogate clip's whole featurization."""
    spec = surrogate_spec(entry, class_id, index, 5, FAST.sample_rate)
    return MfccImage(_centre(_own(synth_clip(spec).samples).values, 64), FAST)


class TestSurrogates:
    """Pretraining images come through the chunker, one window a clip,
    unmasked for every member."""

    @pytest.mark.parametrize("biomarker_id", MEMBER_IDS)
    def test_image_is_centre_crop_of_clip_mfcc(self, biomarker_id):
        entry = MEMBERS[MEMBER_IDS.index(biomarker_id)]
        data = surrogate_dataset(entry, FAST, seed=5, n_per_class=2, frames=64)
        assert [y for _, y in data] == [c for c in range(entry.num_classes)
                                        for _ in range(2)]
        for (image, y), i in zip(data, [0, 1] * entry.num_classes):
            np.testing.assert_array_equal(image,
                                          _surrogate_crop(entry, y, i).values)

    @pytest.mark.parametrize("biomarker_id", MEMBER_IDS)
    def test_only_the_always_masked_member_reads_masked_crops(self,
                                                              biomarker_id):
        """`member_inputs` over the pretraining Chunks, built unmasked as
        `run_training` builds them: the degradation-sensitive member
        reads the masked centre crop, every other member the crop."""
        entry = MEMBERS[MEMBER_IDS.index(biomarker_id)]
        data = surrogate_dataset(entry, FAST, seed=5, n_per_class=2, frames=64)
        chunks = Chunks(np.stack([image for image, _ in data]), False)
        member = init_cnn(CnnArch((64, FAST.num_cepstra), stem_channels=2,
                                  num_blocks=1, embedding_dim=4),
                          entry.num_classes, seed=0, biomarker_id=biomarker_id)
        got = chunks.expand(member_inputs(member, chunks))
        assert entry.always_mask == (biomarker_id == "poisson_muscular")
        for x, (image, y), i in zip(got, data, [0, 1] * entry.num_classes):
            want = _surrogate_crop(entry, y, i)
            if entry.always_mask:
                want = apply_poisson_mask(want)
                assert not np.array_equal(want.values, image)
            np.testing.assert_array_equal(x, want.values)


@st.composite
def spans_specs(draw):
    """A sine, a chirp and two noise components over 0.05-2.5 s."""
    return SynthSpec("p", draw(st.integers(800, 40000)) / 16000,
                     [("sine", draw(st.floats(100.0, 3000.0)), 0.3),
                      ("noise", 0.0, 0.2),
                      ("chirp", draw(st.floats(100.0, 3000.0)), 0.3),
                      ("noise", 0.0, 0.2)],
                     seed=draw(st.integers(0, 2**32 - 1)))


# Chunk sizes and strides on a 5 ms grid, from one frame to past any
# clip drawn here, so windows run past the end and crops fall in padding.
PLAN_STEPS = st.tuples(st.integers(1, 800), st.integers(1, 400))


class TestSpecSource:
    """A SynthSpec source renders only the span its crops read, and gives
    the chunk images of its full render bit for bit."""

    @given(spans_specs(), st.lists(PLAN_STEPS, min_size=1, max_size=3),
           st.sampled_from(MASKS), st.sampled_from([1, 16, 64, 300]))
    def test_spec_equals_its_render(self, spec, steps, mask, frames):
        clip = synth_clip(spec)
        plans = [chunk_plan(clip.duration, size / 200, stride / 200)
                 for size, stride in steps]
        got = extract_chunks(spec, sum(plans, []), FAST, mask, frames)
        want = extract_chunks(clip, sum(plans, []), FAST, mask, frames)
        assert got.masked == want.masked
        np.testing.assert_array_equal(got.images, want.images)

    def test_renders_only_the_crop_span(self, monkeypatch):
        spans = []
        real = audio_io.synth_clip
        monkeypatch.setattr(audio_io, "synth_clip", lambda spec, a, b: (
            spans.append((a, b)) or real(spec, a, b)))
        spec = SynthSpec("p", 4.0, [("sine", 500.0, 0.5),
                                    ("noise", 0.0, 0.2)], seed=1)
        extract_chunks(spec, [(0.0, 4.0)], FAST, False, 64)
        # 399 frames; the crop is frames 167-230, and pre-emphasis reads
        # the sample before frame 167
        assert spans == [(167 * 160 - 1, 230 * 160 + 320)]


class TestReadRanges:
    """Only the sample ranges the crop frames read are read, each from
    the sample before its frame, merged where they meet or overlap."""

    def test_separate_crops_read_separate_ranges(self):
        # 2 s windows at a 4 s stride on a 9.1 s clip: the three crops
        # (frames 67-130 of each window, 10 ms apart) lie 4 s apart.
        log = ReadLog(_clip(9.1))
        plan = chunk_plan(log.duration, 2.0, 4.0)
        got = extract_chunks(log, plan, FAST, False, 64)
        want = [(a + 67 * 160 - 1, a + 130 * 160 + 320)
                for a in (0, 64000, 128000)]
        assert log.spans == [(a, min(b, log.num_samples)) for a, b in want]
        np.testing.assert_array_equal(
            got.images, extract_chunks(log.clip, plan, FAST, False, 64).images)

    def test_overlapping_crops_read_one_range(self):
        # 8 s windows 0.5 s apart: the four crops overlap (see
        # test_only_crop_frames_are_featurized), so one range is read.
        log = ReadLog(_clip(9.1))
        extract_chunks(log, chunk_plan(log.duration, 8.0, 0.5), FAST, False, 64)
        assert len(log.spans) == 1

    def test_crops_in_the_padding_read_nothing(self):
        log = ReadLog(_clip(5.0))
        extract_chunks(log, chunk_plan(log.duration, 20.0, 2.0), FAST, False,
                       64)
        assert log.spans == []


class TestSharedCrops:
    """Chunks whose crops read the same frames share one crop, which
    members embed once."""

    @given(spans_specs(), st.lists(PLAN_STEPS, min_size=1, max_size=4),
           st.sampled_from(MASKS), st.sampled_from([2, 16, 64]))
    def test_each_chunk_is_its_own_crop(self, spec, steps, mask, frames):
        clip = synth_clip(spec)
        plans = [chunk_plan(clip.duration, size / 200, stride / 200)
                 for size, stride in steps]
        spans = sum(plans, [])
        chunks = extract_chunks(clip, spans, FAST, mask, frames)
        assert len(chunks) == len(spans)
        # crops come in the order of the first chunk that reads each
        index = chunks.index.tolist()
        assert sorted(set(index)) == list(range(len(chunks.crops)))
        assert [index.index(k) for k in range(len(chunks.crops))] == \
            sorted(index.index(k) for k in range(len(chunks.crops)))
        for image, k, span in zip(chunks.images, index, spans):
            alone = extract_chunks(clip, [span], FAST, mask, frames)
            np.testing.assert_array_equal(image, alone.images[0])
            np.testing.assert_array_equal(image, chunks.crops[k])
        model = init_cnn(CnnArch((frames, FAST.num_cepstra), 2, 1, 4), 2,
                         seed=1)
        emb = embed_chunks([model], chunks)[0]
        for i, k in enumerate(index):
            np.testing.assert_array_equal(emb[i], emb[index.index(k)])

    def test_probe_crops_coincide_at_a_2s_stride(self):
        # The 14 s window at t has its centre at t + 7 s, where the 2 s
        # window at t + 6 s has its own; the 20 s window at t and the
        # 8 s window at t + 6 s share a centre too.
        clip = _clip(32.0)
        plans = [chunk_plan(clip.duration, size, 2.0) for size in (2, 8, 14, 20)]
        chunks = extract_chunks(clip, sum(plans, []), FAST, False, 64)
        assert [len(p) for p in plans] == [16, 13, 10, 7]
        assert len(chunks) == 46
        assert len(chunks.crops) == 16 + 13
        np.testing.assert_array_equal(chunks.index[29:39], np.arange(3, 13))
        np.testing.assert_array_equal(chunks.index[39:], np.arange(19, 26))

    def test_padding_crops_coincide(self):
        # On a 5 s clip the 14 s and 20 s windows' crops lie wholly in
        # the zero padding, so they read the same all-zero frames.
        clip = _clip(5.0)
        plans = [chunk_plan(clip.duration, size, 2.0) for size in (8, 14, 20)]
        chunks = extract_chunks(clip, sum(plans, []), FAST, False, 64)
        assert chunks.index.tolist() == [0, 1, 1]
        # alone, such a crop reads no sample of the recording
        alone = extract_chunks(clip, plans[2], FAST, False, 64)
        np.testing.assert_array_equal(alone.images[0], chunks.images[2])
        _assert_own_mfcc(clip, plans[2], alone.images, False, 64)
