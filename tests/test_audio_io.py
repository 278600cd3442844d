"""WAV container round trips, manifest parsing, synthetic signals."""

import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ovbm.audio_io import (
    AudioClip,
    DuplicateSubject,
    EmptyAudio,
    MalformedContainer,
    ManifestError,
    NonFiniteAudio,
    SynthSpec,
    UnparseableLabel,
    UnsupportedEncoding,
    load_wav,
    parse_manifest,
    resample_linear,
    synth_clip,
    write_wav,
)


def _wav_bytes(payload: bytes, audio_format=1, channels=1, rate=16000,
               bits=16, extra_chunks=b"", block_align=None) -> bytes:
    """Hand-built RIFF container, independent of write_wav. block_align
    defaults to the one channels and bits imply."""
    block = channels * bits // 8 if block_align is None else block_align
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * block, block, bits)
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra_chunks
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


class TestWavRoundTrip:
    def test_pcm16_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.9, 0.9, 500)
        path = tmp_path / "a.wav"
        write_wav(path, AudioClip(x, 16000))
        out = load_wav(path)
        assert out.sample_rate == 16000
        assert out.samples.size == 500
        # quantized to the nearest 1/32768 step
        expected = np.round(x * 32768.0) / 32768.0
        np.testing.assert_allclose(out.samples, expected, atol=0, rtol=0)

    def test_float32_exact(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 97)
        path = tmp_path / "a.wav"
        write_wav(path, AudioClip(x, 8000), encoding="float32")
        out = load_wav(path)
        np.testing.assert_array_equal(out.samples,
                                      x.astype(np.float32).astype(np.float64))

    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_pcm16_error_bound(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n)
        path = tmp_path_factory.mktemp("wav") / "a.wav"
        write_wav(path, AudioClip(x, 16000))
        out = load_wav(path)
        assert np.max(np.abs(out.samples - x)) <= 1.0 / 32768.0


class TestWavParsing:
    def test_stereo_averages_channels(self, tmp_path):
        left = np.array([1000, -2000, 3000], dtype="<i2")
        right = np.array([3000, 2000, -1000], dtype="<i2")
        interleaved = np.empty(6, dtype="<i2")
        interleaved[0::2], interleaved[1::2] = left, right
        path = tmp_path / "st.wav"
        path.write_bytes(_wav_bytes(interleaved.tobytes(), channels=2))
        out = load_wav(path)
        np.testing.assert_allclose(
            out.samples, (left.astype(float) + right) / 2.0 / 32768.0)

    @pytest.mark.parametrize("dtype,audio_format,bits,scale", [
        ("<i2", 1, 16, 32768.0), ("<f4", 3, 32, 1.0)],
        ids=["pcm16", "float32"])
    def test_stereo_downmix_is_the_mean_of_each_pair(
            self, tmp_path, dtype, audio_format, bits, scale):
        rng = np.random.default_rng(12)
        interleaved = (rng.uniform(-1.0, 1.0, 2 * 997) * scale).astype(dtype)
        path = tmp_path / "st.wav"
        path.write_bytes(_wav_bytes(interleaved.tobytes(), channels=2,
                                    audio_format=audio_format, bits=bits))
        pairs = interleaved.astype(np.float64).reshape(-1, 2) / scale
        np.testing.assert_array_equal(load_wav(path).samples,
                                      pairs.mean(axis=1))

    @pytest.mark.parametrize("dtype,audio_format,bits,scale", [
        ("<i2", 1, 16, 32768.0), ("<f4", 3, 32, 1.0)],
        ids=["pcm16", "float32"])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_downmix_over_every_bit_pattern(self, tmp_path_factory, dtype,
                                            audio_format, bits, scale, seed):
        # Any finite sample pair, tiny and huge floats and the int16
        # extremes included, folds to (a / scale + b / scale) / 2 in
        # float64, bit for bit.
        rng = np.random.default_rng(seed)
        raw = rng.integers(0, 256, 4 * 257, dtype=np.uint8).view(dtype)
        raw = raw[np.isfinite(raw)]
        raw = raw[:raw.size // 2 * 2]
        path = tmp_path_factory.mktemp("wav") / "st.wav"
        path.write_bytes(_wav_bytes(raw.tobytes(), channels=2,
                                    audio_format=audio_format, bits=bits))
        pairs = raw.astype(np.float64).reshape(-1, 2) / scale
        want = (pairs[:, 0] + pairs[:, 1]) / 2.0
        assert load_wav(path).samples.tobytes() == want.tobytes()

    def test_skips_unknown_chunks_word_aligned(self, tmp_path):
        # 3-byte junk chunk must be skipped with its pad byte
        junk = b"junk" + struct.pack("<I", 3) + b"abc\x00"
        payload = np.array([123, -456], dtype="<i2").tobytes()
        path = tmp_path / "j.wav"
        path.write_bytes(_wav_bytes(payload, extra_chunks=junk))
        out = load_wav(path)
        np.testing.assert_allclose(out.samples,
                                   np.array([123, -456]) / 32768.0)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedContainer):
            load_wav(path)

    def test_truncated_data(self, tmp_path):
        good = _wav_bytes(np.zeros(10, dtype="<i2").tobytes())
        path = tmp_path / "t.wav"
        path.write_bytes(good[:-6])
        with pytest.raises(MalformedContainer):
            load_wav(path)

    def test_mulaw_rejected(self, tmp_path):
        path = tmp_path / "m.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 16, audio_format=7, bits=8))
        with pytest.raises(UnsupportedEncoding):
            load_wav(path)

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(_wav_bytes(b""))
        with pytest.raises(EmptyAudio):
            load_wav(path)

    @pytest.mark.parametrize("channels,block_align,samples", [
        (2, 2, 3),   # stereo PCM16 declaring mono frames, odd sample count
        (2, 2, 4),
        (1, 4, 4),   # mono PCM16 declaring stereo frames
        (1, 1, 4),
        (2, 8, 4),
    ])
    def test_block_align_must_match_channels_and_bits(
            self, tmp_path, channels, block_align, samples):
        path = tmp_path / "b.wav"
        payload = np.arange(samples, dtype="<i2").tobytes()
        path.write_bytes(_wav_bytes(payload, channels=channels,
                                    block_align=block_align))
        with pytest.raises(MalformedContainer, match="block_align") as err:
            load_wav(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples(self, tmp_path, bad):
        path = tmp_path / "f.wav"
        payload = np.array([0.25, bad, -0.5], dtype="<f4").tobytes()
        path.write_bytes(_wav_bytes(payload, audio_format=3, bits=32))
        with pytest.raises(NonFiniteAudio) as err:
            load_wav(path)
        assert str(path) in str(err.value)


class TestResamplePad:
    def test_identity_copies(self):
        clip = AudioClip(np.arange(8.0), 16000)
        out = resample_linear(clip, 16000)
        np.testing.assert_array_equal(out.samples, clip.samples)
        assert out.samples is not clip.samples

    def test_length_rule(self):
        clip = AudioClip(np.zeros(16000), 16000)
        assert resample_linear(clip, 8000).samples.size == 8000
        assert resample_linear(clip, 44100).samples.size == 44100

    def test_low_freq_sine_preserved(self):
        sr, target = 16000, 8000
        t = np.arange(sr) / sr
        clip = AudioClip(np.sin(2 * np.pi * 50 * t), sr)
        out = resample_linear(clip, target)
        t2 = np.arange(out.samples.size) / target
        assert np.max(np.abs(out.samples - np.sin(2 * np.pi * 50 * t2))) < 1e-3


MANIFEST_HEADER = "subject_id,wav_path,label,gender,age"


def _write_manifest(tmp_path, lines):
    path = tmp_path / "m.csv"
    path.write_text("\n".join([MANIFEST_HEADER] + lines) + "\n")
    return path


class TestManifest:
    def test_happy_path(self, tmp_path):
        path = _write_manifest(tmp_path, [
            "s1,a.wav,AD,F,70",
            "s2,b.wav,nonAD,M,66",
            "s3,c.wav,1,x,",
            "s4,d.wav,0,,80",
        ])
        records = parse_manifest(path)
        assert [r.subject_id for r in records] == ["s1", "s2", "s3", "s4"]
        assert [r.label for r in records] == [1, 0, 1, 0]
        assert [r.gender for r in records] == ["F", "M", "unknown", "unknown"]
        assert [r.age for r in records] == [70, 66, None, 80]

    def test_label_case_insensitive(self, tmp_path):
        path = _write_manifest(tmp_path, ["s1,a.wav,ad,F,70",
                                          "s2,b.wav,NONAD,M,66"])
        assert [r.label for r in parse_manifest(path)] == [1, 0]

    def test_byte_order_mark(self, tmp_path):
        # spreadsheet exports start a UTF-8 CSV with a BOM
        path = tmp_path / "m.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (MANIFEST_HEADER
                                             + "\ns1,a.wav,AD,F,70\n").encode())
        assert [r.subject_id for r in parse_manifest(path)] == ["s1"]

    def test_wrong_column_order(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("wav_path,subject_id,label,gender,age\na.wav,s1,1,F,70\n")
        with pytest.raises(ManifestError):
            parse_manifest(path)

    def test_duplicate_subject(self, tmp_path):
        path = _write_manifest(tmp_path, ["s1,a.wav,1,F,70",
                                          "s1,b.wav,0,M,66"])
        with pytest.raises(DuplicateSubject):
            parse_manifest(path)

    def test_bad_label(self, tmp_path):
        path = _write_manifest(tmp_path, ["s1,a.wav,maybe,F,70"])
        with pytest.raises(UnparseableLabel):
            parse_manifest(path)

    def test_empty_wav_path(self, tmp_path):
        # joined to the manifest's directory it would name a directory
        path = _write_manifest(tmp_path, ["s1,a.wav,AD,F,70", "s2, ,nonAD,M,66"])
        with pytest.raises(ManifestError, match=r"m\.csv:3: empty wav_path"):
            parse_manifest(path)

    @pytest.mark.parametrize("subject_id", [
        '"s,000"', "s;000", '"s""000"', '"s\n000"', '"s\r000"'])
    def test_subject_id_that_would_split_a_report(self, tmp_path, subject_id):
        # a quoted field parses, but the reports and the comma-separated
        # --subjects/--compare lists would split it
        path = _write_manifest(tmp_path, ["s1,a.wav,AD,F,70",
                                          f"{subject_id},b.wav,nonAD,M,66"])
        with pytest.raises(ManifestError, match=r"m\.csv:3: subject_id"):
            parse_manifest(path)

    def test_not_utf8(self, tmp_path):
        # a Latin-1 export: the gender cell is "F\xe9"
        path = tmp_path / "m.csv"
        path.write_bytes((MANIFEST_HEADER + "\ns1,a.wav,AD,F").encode()
                         + b"\xe9,70\n")
        with pytest.raises(ManifestError,
                           match=r"m\.csv: not UTF-8 text .*0xe9"):
            parse_manifest(path)

    def test_header_without_subject_rows(self, tmp_path):
        path = _write_manifest(tmp_path, [])
        with pytest.raises(ManifestError, match=r"m\.csv: no subject rows"):
            parse_manifest(path)


class TestSynth:
    def test_deterministic(self):
        spec = SynthSpec("c", 0.25, [("sine", 440.0, 0.5), ("noise", 0.0, 0.3)],
                         seed=9)
        a, b = synth_clip(spec), synth_clip(spec)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_amplitude_bound(self):
        spec = SynthSpec("c", 0.25,
                         [("sine", 200.0, 0.4), ("chirp", 500.0, 0.3),
                          ("noise", 0.0, 0.3)], seed=2)
        assert np.max(np.abs(synth_clip(spec).samples)) <= 1.0 + 1e-12

    def test_amplitudes_validated(self):
        with pytest.raises(ValueError):
            SynthSpec("c", 1.0, [("sine", 100.0, 0.8), ("noise", 0.0, 0.4)])

    def test_pure_sine_matches_formula(self):
        spec = SynthSpec("c", 0.01, [("sine", 1000.0, 0.7)], seed=0)
        clip = synth_clip(spec)
        t = np.arange(160) / 16000
        np.testing.assert_allclose(clip.samples,
                                   0.7 * np.sin(2 * np.pi * 1000.0 * t),
                                   atol=1e-12)


@st.composite
def synth_specs(draw):
    """Specs mixing a sine, a chirp and two noise components, plus up to
    two more of any kind, in any order, at 8 or 16 kHz."""
    kinds = draw(st.permutations(
        ["sine", "chirp", "noise", "noise"]
        + draw(st.lists(st.sampled_from(["sine", "chirp", "noise"]),
                        max_size=2))))
    components = [(kind, draw(st.floats(20.0, 3000.0)), 1.0 / len(kinds))
                  for kind in kinds]
    rate = draw(st.sampled_from([8000, 16000]))
    return SynthSpec("p", draw(st.integers(1, 3000)) / rate, components,
                     seed=draw(st.integers(0, 2**32 - 1)), sample_rate=rate)


class TestSynthSpan:
    @given(synth_specs(), st.data())
    def test_span_is_the_slice_of_the_full_render(self, spec, data):
        full = synth_clip(spec).samples
        n = spec.num_samples
        assert full.size == n
        a = data.draw(st.integers(0, n))
        b = data.draw(st.integers(a, n))
        # whole, empty at both ends and inside, and prefix/suffix/inner
        for start, stop in [(0, n), (0, 0), (n, n), (a, a), (0, b), (a, n),
                            (a, b)]:
            part = synth_clip(spec, start, stop)
            assert part.sample_rate == spec.sample_rate
            np.testing.assert_array_equal(part.samples, full[start:stop])

    @pytest.mark.parametrize("start,stop", [(-1, 10), (5, 4), (0, 4001)])
    def test_span_outside_the_render_is_refused(self, start, stop):
        spec = SynthSpec("c", 0.25, [("noise", 0.0, 0.3)], seed=9)
        with pytest.raises(ValueError, match="span"):
            synth_clip(spec, start, stop)
