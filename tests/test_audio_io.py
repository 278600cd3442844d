"""WAV container round trips, manifest parsing, synthetic signals."""

import struct
import uuid

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovbm.audio_io import (
    AudioClip,
    DuplicateSubject,
    EmptyAudio,
    MalformedContainer,
    ManifestError,
    NonFiniteAudio,
    Resampled,
    SynthSpec,
    UnparseableLabel,
    UnsupportedEncoding,
    WavRecording,
    parse_manifest,
    synth_clip,
    write_wav,
)
from ovbm.chunker import chunk_plan, extract_chunks
from ovbm.mfcc import MfccParams


def _wav_bytes(payload: bytes, audio_format=1, channels=1, rate=16000,
               bits=16, extra_chunks=b"", block_align=None,
               sub_format=None) -> bytes:
    """Hand-built RIFF container, independent of write_wav. block_align
    defaults to the one channels and bits imply. A `sub_format` GUID
    writes a WAVE_FORMAT_EXTENSIBLE header carrying it."""
    block = channels * bits // 8 if block_align is None else block_align
    fmt = struct.pack("<HHIIHH", audio_format, channels, rate,
                      rate * block, block, bits)
    if sub_format is not None:
        fmt += struct.pack("<HHI", 22, bits, 0) + sub_format.bytes_le
    body = (b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra_chunks
            + b"data" + struct.pack("<I", len(payload)) + payload)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def _decoded(path) -> AudioClip:
    """The whole file, decoded."""
    wav = WavRecording(path)
    return AudioClip(wav.read(0, wav.num_samples), wav.sample_rate)


def _resampled(clip: AudioClip, target_rate: int) -> AudioClip:
    """The whole clip, resampled."""
    view = Resampled(clip, target_rate)
    return AudioClip(view.read(0, view.num_samples), target_rate)


class TestWavRoundTrip:
    def test_pcm16_quantization(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.9, 0.9, 500)
        path = tmp_path / "a.wav"
        write_wav(path, AudioClip(x, 16000))
        out = _decoded(path)
        assert out.sample_rate == 16000
        assert out.samples.size == 500
        # quantized to the nearest 1/32768 step
        expected = np.round(x * 32768.0) / 32768.0
        np.testing.assert_allclose(out.samples, expected, atol=0, rtol=0)

    def test_float32_exact(self, tmp_path):
        x = np.linspace(-1.0, 1.0, 97)
        path = tmp_path / "a.wav"
        write_wav(path, AudioClip(x, 8000), encoding="float32")
        out = _decoded(path)
        np.testing.assert_array_equal(out.samples,
                                      x.astype(np.float32).astype(np.float64))

    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    def test_pcm16_error_bound(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-1.0, 1.0, n)
        path = tmp_path_factory.mktemp("wav") / "a.wav"
        write_wav(path, AudioClip(x, 16000))
        out = _decoded(path)
        assert np.max(np.abs(out.samples - x)) <= 1.0 / 32768.0


class TestWavParsing:
    def test_streaming_data_size(self, tmp_path):
        # a stream writer that never learns the length leaves 0xFFFFFFFF
        # as the data size: refused, as the file holds less than that
        raw = bytearray(_wav_bytes(np.zeros(8, "<i2").tobytes()))
        raw[40:44] = struct.pack("<I", 0xFFFFFFFF)
        path = tmp_path / "stream.wav"
        path.write_bytes(bytes(raw))
        with pytest.raises(MalformedContainer,
                           match=r"truncated b'data' chunk"):
            WavRecording(path)

    def test_stereo_averages_channels(self, tmp_path):
        left = np.array([1000, -2000, 3000], dtype="<i2")
        right = np.array([3000, 2000, -1000], dtype="<i2")
        interleaved = np.empty(6, dtype="<i2")
        interleaved[0::2], interleaved[1::2] = left, right
        path = tmp_path / "st.wav"
        path.write_bytes(_wav_bytes(interleaved.tobytes(), channels=2))
        out = _decoded(path)
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
        np.testing.assert_array_equal(_decoded(path).samples,
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
        assert _decoded(path).samples.tobytes() == want.tobytes()

    def test_skips_unknown_chunks_word_aligned(self, tmp_path):
        # 3-byte junk chunk must be skipped with its pad byte
        junk = b"junk" + struct.pack("<I", 3) + b"abc\x00"
        payload = np.array([123, -456], dtype="<i2").tobytes()
        path = tmp_path / "j.wav"
        path.write_bytes(_wav_bytes(payload, extra_chunks=junk))
        out = _decoded(path)
        np.testing.assert_allclose(out.samples,
                                   np.array([123, -456]) / 32768.0)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(MalformedContainer):
            _decoded(path)

    def test_truncated_data(self, tmp_path):
        good = _wav_bytes(np.zeros(10, dtype="<i2").tobytes())
        path = tmp_path / "t.wav"
        path.write_bytes(good[:-6])
        with pytest.raises(MalformedContainer):
            _decoded(path)

    def test_mulaw_rejected(self, tmp_path):
        path = tmp_path / "m.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 16, audio_format=7, bits=8))
        with pytest.raises(UnsupportedEncoding):
            _decoded(path)

    def test_empty_payload(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(_wav_bytes(b""))
        with pytest.raises(EmptyAudio):
            _decoded(path)

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
            _decoded(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_samples(self, tmp_path, bad):
        path = tmp_path / "f.wav"
        payload = np.array([0.25, bad, -0.5], dtype="<f4").tobytes()
        path.write_bytes(_wav_bytes(payload, audio_format=3, bits=32))
        with pytest.raises(NonFiniteAudio) as err:
            _decoded(path)
        assert str(path) in str(err.value)


PCM_GUID = uuid.UUID("00000001-0000-0010-8000-00aa00389b71")
FLOAT_GUID = uuid.UUID("00000003-0000-0010-8000-00aa00389b71")


class TestExtensible:
    """WAVE_FORMAT_EXTENSIBLE (0xFFFE) headers carry the encoding as a
    SubFormat GUID; PCM16 and float32 decode like their plain files."""

    @pytest.mark.parametrize("dtype,audio_format,bits,guid", [
        ("<i2", 1, 16, PCM_GUID), ("<f4", 3, 32, FLOAT_GUID)],
        ids=["pcm16", "float32"])
    def test_decodes_like_the_plain_file(self, tmp_path, dtype, audio_format,
                                         bits, guid):
        rng = np.random.default_rng(5)
        scale = 32767 if audio_format == 1 else 1.0
        payload = (rng.uniform(-1, 1, 2 * 501) * scale).astype(dtype).tobytes()
        plain, extensible = tmp_path / "p.wav", tmp_path / "x.wav"
        plain.write_bytes(_wav_bytes(payload, audio_format, channels=2,
                                     rate=22050, bits=bits))
        extensible.write_bytes(_wav_bytes(payload, 0xFFFE, channels=2,
                                          rate=22050, bits=bits,
                                          sub_format=guid))
        want, got = _decoded(plain), _decoded(extensible)
        assert got.sample_rate == want.sample_rate == 22050
        assert got.samples.size == 501
        assert got.samples.tobytes() == want.samples.tobytes()

    @pytest.mark.parametrize("bits,guid", [
        (8, PCM_GUID), (24, PCM_GUID), (16, FLOAT_GUID),
        (16, uuid.UUID("00000006-0000-0010-8000-00aa00389b71")),  # A-law
        (16, uuid.UUID("00000001-0000-0010-8000-00aa00389b72"))],
        ids=["pcm8", "pcm24", "float16", "alaw", "foreign-guid"])
    def test_other_sub_formats_refused(self, tmp_path, bits, guid):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 48, 0xFFFE, bits=bits,
                                    sub_format=guid))
        with pytest.raises(UnsupportedEncoding) as err:
            WavRecording(path)
        assert str(path) in str(err.value)

    def test_missing_extension_is_malformed(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b"\x00" * 8, 0xFFFE))
        with pytest.raises(MalformedContainer, match="extension"):
            WavRecording(path)


def _reference(frames: np.ndarray, pcm: bool, rate: int,
               target: int) -> np.ndarray:
    """The whole recording decoded and resampled at once, stated
    directly: frames [n, channels] scaled, averaged over channels, then
    interpolated at positions k * rate / target."""
    x = frames.astype(np.float64) / (32768.0 if pcm else 1.0)
    x = x.mean(axis=1)
    m = max(1, int(round(x.size * target / rate)))
    return np.interp(np.arange(m) * (rate / target), np.arange(x.size), x)


SOURCE_RATES = [8000, 11025, 16000, 22050, 44100, 48000]


@st.composite
def wav_files(draw, max_seconds):
    """(file bytes, frames [n, channels], pcm, rate): PCM16 or float32,
    mono or stereo, at one of SOURCE_RATES, from one frame to
    `max_seconds` long: in the shortest, middle or longest tenth of that
    range alike."""
    pcm = draw(st.booleans())
    channels = draw(st.sampled_from([1, 2]))
    rate = draw(st.sampled_from(SOURCE_RATES))
    longest = int(max_seconds * rate)
    start = draw(st.sampled_from([0, 45, 90])) * longest // 100
    n = draw(st.integers(max(start, 1), start + longest // 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if pcm:
        frames = rng.integers(-32768, 32768, (n, channels)).astype("<i2")
    else:
        frames = rng.uniform(-1.0, 1.0, (n, channels)).astype("<f4")
    data = _wav_bytes(frames.tobytes(), 1 if pcm else 3, channels, rate,
                      16 if pcm else 32)
    return data, frames, pcm, rate


class TestSpanReads:
    """A WAV file resampled to 16 kHz, read span by span, gives the
    whole-file decode and resample bit for bit."""

    @given(wav_files(max_seconds=2.0), st.data())
    def test_any_span_is_the_slice_of_the_whole(self, tmp_path_factory,
                                                wav, data):
        raw, frames, pcm, rate = wav
        path = tmp_path_factory.mktemp("wav") / "a.wav"
        path.write_bytes(raw)
        want = _reference(frames, pcm, rate, 16000)
        view = Resampled(WavRecording(path), 16000)
        m = view.num_samples
        assert (m, view.sample_rate) == (want.size, 16000)
        spans = [(0, m), (0, 0), (m, m), (0, 1), (m - 1, m)]
        for _ in range(20):
            a = data.draw(st.integers(0, m))
            spans.append((a, data.draw(st.integers(a, m))))
        for a, b in spans:
            assert view.read(a, b).tobytes() == want[a:b].tobytes(), (a, b)

    def test_file_cut_short_after_opening(self, tmp_path):
        path = tmp_path / "a.wav"
        path.write_bytes(_wav_bytes(np.arange(16, dtype="<i2").tobytes()))
        wav = WavRecording(path)
        path.write_bytes(path.read_bytes()[:-8])
        assert wav.read(0, 12).tolist() == [k / 32768 for k in range(12)]
        with pytest.raises(MalformedContainer, match="cut short"):
            wav.read(10, 16)

    @pytest.mark.parametrize("lo,hi", [(-1, 3), (4, 3), (0, 17)])
    def test_span_outside_the_recording_is_refused(self, tmp_path, lo, hi):
        path = tmp_path / "a.wav"
        path.write_bytes(_wav_bytes(np.zeros(16, "<i2").tobytes()))
        for source in (WavRecording(path),
                       Resampled(WavRecording(path), 16000),
                       AudioClip(np.zeros(16), 16000)):
            with pytest.raises(ValueError, match="span"):
                source.read(lo, hi)

    @settings(max_examples=25)
    @given(wav_files(max_seconds=24.0),
           st.lists(st.sampled_from([(2, 2), (4, 2), (8, 2), (14, 2), (20, 2),
                                     (0.5, 0.5)]),
                    min_size=1, max_size=6, unique=True),
           st.booleans())
    def test_chunks_equal_the_whole_clip_path(self, tmp_path_factory, wav,
                                              steps, mask):
        raw, frames, pcm, rate = wav
        path = tmp_path_factory.mktemp("wav") / "a.wav"
        path.write_bytes(raw)
        params = MfccParams(num_cepstra=8, num_filters=16, fft_size=512)
        view = Resampled(WavRecording(path), 16000)
        whole = AudioClip(_reference(frames, pcm, rate, 16000), 16000)
        assert view.duration == whole.duration
        plans = [chunk_plan(whole.duration, size, stride)
                 for size, stride in steps]
        got = extract_chunks(view, sum(plans, []), params, mask, 64)
        want = extract_chunks(whole, sum(plans, []), params, mask, 64)
        assert got.crops.tobytes() == want.crops.tobytes()
        np.testing.assert_array_equal(got.index, want.index)


class TestResamplePad:
    def test_identity_copies(self):
        clip = AudioClip(np.arange(8.0), 16000)
        out = _resampled(clip, 16000)
        np.testing.assert_array_equal(out.samples, clip.samples)
        assert out.samples is not clip.samples

    def test_length_rule(self):
        clip = AudioClip(np.zeros(16000), 16000)
        assert _resampled(clip, 8000).samples.size == 8000
        assert _resampled(clip, 44100).samples.size == 44100

    def test_low_freq_sine_preserved(self):
        sr, target = 16000, 8000
        t = np.arange(sr) / sr
        clip = AudioClip(np.sin(2 * np.pi * 50 * t), sr)
        out = _resampled(clip, target)
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

    def test_field_over_the_csv_limit(self, tmp_path):
        # the csv module refuses a field over 131,072 characters with
        # its own error type, which is no ValueError
        path = _write_manifest(tmp_path, ["s1,a.wav,AD,F,70",
                                          f"s2,{'b' * 140_000}.wav,AD,F,70"])
        with pytest.raises(ManifestError,
                           match=r"m\.csv:3: field larger than field limit"):
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
