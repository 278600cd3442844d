"""Audio loading, synthesis, resampling, and dataset manifest parsing.

Clips are mono float64 arrays in [-1, 1] with an explicit sample rate.
Every recording the chunker reads is a `Recording`: a sample rate, a
length and `read(lo, hi)`, the float64 mono samples [lo, hi). A WAV file
is validated whole when opened, then read from disk and decoded only
where it is read, and `Resampled` interpolates only the spans read from
it. WAV support covers
RIFF/WAVE containers, plain or WAVE_FORMAT_EXTENSIBLE, holding 16-bit
PCM or 32-bit IEEE-float frames, mono or stereo; stereo folds to mono by
averaging. A header whose block_align is not its channels times the
sample width, and float samples holding NaN or Inf, raise errors that
name the file.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

MANIFEST_COLUMNS = ["subject_id", "wav_path", "label", "gender", "age"]

# A subject id or run label is one field of the CSV reports, and ids are
# picked by name from comma-separated lists; these characters split it.
REPORT_UNSAFE = ',;"\r\n'

# Accepted label spellings, case-insensitive. 1/AD = positive class.
_LABELS = {"0": 0, "nonad": 0, "1": 1, "ad": 1}

_WAVE_PCM = 1
_WAVE_IEEE_FLOAT = 3
_WAVE_EXTENSIBLE = 0xFFFE
# The KSDATAFORMAT_SUBTYPE GUIDs of PCM and IEEE float, past their
# leading 16-bit format code, as stored (little-endian fields).
_SUBFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")
# Float frames are checked for NaN and Inf this many values at a time.
_SCAN_VALUES = 1 << 18


class MalformedContainer(ValueError):
    """RIFF/WAVE structure is broken (bad magic, truncated chunks...)."""


class UnsupportedEncoding(ValueError):
    """Container is fine but the sample encoding is not one we decode."""


class NonFiniteAudio(ValueError):
    """Float samples hold NaN or Inf."""


class EmptyAudio(ValueError):
    """Zero samples where audio content is required."""


class ManifestError(ValueError):
    """Base for dataset manifest problems; message carries the detail."""


class MissingColumn(ManifestError):
    pass


class DuplicateSubject(ManifestError):
    pass


class UnparseableLabel(ManifestError):
    pass


class Recording(Protocol):
    """Audio the chunker reads span by span."""

    sample_rate: int
    duration: float

    @property
    def num_samples(self) -> int: ...

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Samples [lo, hi), 0 <= lo <= hi <= num_samples, as a new
        float64 mono array."""
        ...


def _check_span(lo: int, hi: int, n: int) -> None:
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"span [{lo}, {hi}) outside [0, {n})")


@dataclass
class AudioClip:
    """Mono audio buffer. samples: float64 [-1, 1], 1-D."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("AudioClip samples must be 1-D")
        if int(self.sample_rate) <= 0:
            raise ValueError("sample rate must be positive")
        self.sample_rate = int(self.sample_rate)
        if self.samples.size and not np.isfinite(self.samples).all():
            raise ValueError("non-finite samples")

    @property
    def duration(self) -> float:
        return self.samples.size / self.sample_rate

    @property
    def num_samples(self) -> int:
        return self.samples.size

    def read(self, lo: int, hi: int) -> np.ndarray:
        _check_span(lo, hi, self.num_samples)
        return self.samples[lo:hi].copy()


@dataclass
class SubjectRecord:
    """One manifest row. label: 1 = positive class, 0 = negative."""

    subject_id: str
    wav_path: str
    label: int
    gender: str = "unknown"  # "F", "M", or "unknown"
    age: int | None = None


@dataclass
class SynthSpec:
    """Deterministic test-signal recipe.

    components: list of (kind, frequency_hz, amplitude) with kind in
    {"sine", "noise", "chirp"}. A chirp sweeps frequency f -> 2f over
    the clip. Component amplitudes must sum to <= 1 so the mix never
    clips.
    """

    class_id: str
    duration: float
    components: list = field(default_factory=list)
    seed: int = 0
    sample_rate: int = 16000

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        total = sum(abs(float(a)) for _, _, a in self.components)
        if total > 1.0 + 1e-12:
            raise ValueError("component amplitudes sum above 1 (would clip)")

    @property
    def num_samples(self) -> int:
        """Length of the full render."""
        return int(round(self.duration * self.sample_rate))

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Renders only samples [lo, hi)."""
        return synth_clip(self, lo, hi).samples


class WavRecording:
    """A RIFF/WAVE file, validated whole when opened and then read from
    disk only where it is read.

    Opening checks the container, the encoding, frame alignment, that
    there is at least one frame, and that float frames hold no NaN or
    Inf anywhere, scanning them in blocks. `read(lo, hi)` reads and
    decodes frames [lo, hi): int16 PCM scales by 1/32768 so 32767 maps
    just below 1.0, and stereo averages the two channels.
    """

    def __init__(self, path):
        self.path = path
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(12)
            if len(head) < 12 or head[:4] != b"RIFF" or head[8:12] != b"WAVE":
                raise MalformedContainer(f"{path}: not a RIFF/WAVE file")

            fmt = None
            data = None  # (offset, size) of the data chunk's body
            pos = 12
            while pos + 8 <= size:
                fh.seek(pos)
                chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
                if pos + 8 + chunk_size > size:
                    raise MalformedContainer(
                        f"{path}: truncated {chunk_id!r} chunk")
                if chunk_id == b"fmt ":
                    if chunk_size < 16:
                        raise MalformedContainer(f"{path}: fmt chunk too small")
                    fmt = fh.read(chunk_size)
                elif chunk_id == b"data":
                    data = (pos + 8, chunk_size)
                pos += 8 + chunk_size + (chunk_size & 1)  # word-aligned chunks

            if fmt is None or data is None:
                raise MalformedContainer(f"{path}: missing fmt or data chunk")

            audio_format, channels, rate, _byte_rate, block_align, bits = \
                struct.unpack_from("<HHIIHH", fmt)
            if rate <= 0 or block_align <= 0:
                raise MalformedContainer(f"{path}: nonsense fmt fields")
            if channels not in (1, 2):
                raise UnsupportedEncoding(
                    f"{path}: {channels} channels unsupported")
            if data[1] % block_align:
                raise MalformedContainer(f"{path}: data chunk not frame-aligned")
            if audio_format == _WAVE_EXTENSIBLE:
                # the SubFormat GUID at byte 24 of the extension; PCM and
                # IEEE float are their format codes then one fixed tail
                if len(fmt) < 40:
                    raise MalformedContainer(f"{path}: fmt extension too small")
                if fmt[26:40] != _SUBFORMAT_TAIL:
                    raise UnsupportedEncoding(f"{path}: extensible sub-format "
                                              f"{fmt[24:40].hex()} unsupported")
                (audio_format,) = struct.unpack_from("<H", fmt, 24)

            if audio_format == _WAVE_PCM and bits == 16:
                dtype = "<i2"
            elif audio_format == _WAVE_IEEE_FLOAT and bits == 32:
                dtype = "<f4"
            else:
                raise UnsupportedEncoding(
                    f"{path}: format {audio_format} at {bits} bits unsupported"
                )
            if block_align != channels * bits // 8:
                raise MalformedContainer(
                    f"{path}: block_align {block_align} is not {channels} "
                    f"channel(s) of {bits} bits")
            if audio_format == _WAVE_IEEE_FLOAT:
                fh.seek(data[0])
                block = np.empty(_SCAN_VALUES, dtype)
                for start in range(0, data[1] // 4, _SCAN_VALUES):
                    part = block[:data[1] // 4 - start]
                    fh.readinto(part)
                    if not np.isfinite(part).all():
                        raise NonFiniteAudio(
                            f"{path}: float samples hold NaN or Inf")
        if data[1] == 0:
            raise EmptyAudio(f"{path}: no samples")
        self.sample_rate = rate
        self.num_samples = data[1] // block_align
        self._offset, self._block_align = data[0], block_align
        self._dtype, self._channels = dtype, channels
        self._pcm = audio_format == _WAVE_PCM

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def read(self, lo: int, hi: int) -> np.ndarray:
        _check_span(lo, hi, self.num_samples)
        with open(self.path, "rb") as fh:
            fh.seek(self._offset + lo * self._block_align)
            raw = fh.read((hi - lo) * self._block_align)
        if len(raw) != (hi - lo) * self._block_align:
            raise MalformedContainer(f"{self.path}: cut short since opened")
        frames = np.frombuffer(raw, self._dtype).reshape(-1, self._channels)
        if self._channels == 2:
            # (a + b) / 2 in float64, bit for bit what a mean over the
            # pair gives, without a float64 copy of both channels
            samples = np.add(frames[:, 0], frames[:, 1], dtype=np.float64)
        else:
            samples = frames[:, 0].astype(np.float64)
        if self._pcm:
            samples /= 32768.0  # a power of two: exact, before or after the sum
        if self._channels == 2:
            samples /= 2.0
        return samples


def write_wav(path, clip: AudioClip, encoding: str = "pcm16") -> None:
    """Write a mono WAV. encoding: "pcm16" or "float32"."""
    if clip.samples.size == 0:
        raise EmptyAudio("refusing to write an empty clip")
    if encoding == "pcm16":
        ints = np.clip(np.round(clip.samples * 32768.0), -32768, 32767)
        payload = ints.astype("<i2").tobytes()
        audio_format, bits = _WAVE_PCM, 16
    elif encoding == "float32":
        payload = clip.samples.astype("<f4").tobytes()
        audio_format, bits = _WAVE_IEEE_FLOAT, 32
    else:
        raise ValueError(f"unknown encoding {encoding!r}")

    block_align = bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload),
        b"WAVE",
        b"fmt ",
        16,
        audio_format,
        1,
        clip.sample_rate,
        clip.sample_rate * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    )
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(header + payload)


class Resampled:
    """`source` at `sample_rate`, by linear interpolation, computed only
    where it is read.

    Output sample k sits at source position k * (source rate / rate), so
    any span reads bit for bit what the whole resampled recording holds
    there. The length keeps the duration to within one sample period. At
    the source's own rate, reads pass straight through.
    """

    def __init__(self, source: Recording, sample_rate: int):
        sample_rate = int(sample_rate)
        if sample_rate <= 0:
            raise ValueError("target rate must be positive")
        n = source.num_samples
        if n == 0:
            raise EmptyAudio("cannot resample an empty clip")
        self.source = source
        self.sample_rate = sample_rate
        self._step = source.sample_rate / sample_rate
        self.num_samples = max(1, int(round(n * sample_rate
                                            / source.sample_rate)))

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    def read(self, lo: int, hi: int) -> np.ndarray:
        _check_span(lo, hi, self.num_samples)
        if self.sample_rate == self.source.sample_rate:
            return self.source.read(lo, hi)
        if lo == hi:
            return np.zeros(0)
        positions = np.arange(lo, hi) * self._step
        # the source samples around those positions; past the last one,
        # interpolation holds the last sample
        n = self.source.num_samples
        i0 = min(int(positions[0]), n - 1)
        i1 = min(int(positions[-1]) + 2, n)
        return np.interp(positions, np.arange(i0, i1), self.source.read(i0, i1))


def parse_manifest(path) -> list[SubjectRecord]:
    """Read a subject manifest CSV: a header and at least one subject row.

    Header must be exactly `subject_id,wav_path,label,gender,age`.
    Labels accept {0, 1, AD, nonAD} case-insensitively. Gender values
    other than F/M become "unknown"; age may be blank. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            rows = [row for row in reader if row]
    except UnicodeDecodeError as e:
        raise ManifestError(f"{path}: not UTF-8 text (it holds byte "
                            f"0x{e.object[e.start]:02x})") from None
    except csv.Error as e:  # a field over csv's size limit
        raise ManifestError(f"{path}:{reader.line_num}: {e}") from None
    if not rows:
        raise ManifestError(f"{path}: empty manifest")

    header = [c.strip() for c in rows[0]]
    missing = [c for c in MANIFEST_COLUMNS if c not in header]
    if missing:
        raise MissingColumn(f"{path}: missing column(s) {', '.join(missing)}")
    if header != MANIFEST_COLUMNS:
        raise ManifestError(
            f"{path}: header must be exactly {','.join(MANIFEST_COLUMNS)}"
        )

    records: list[SubjectRecord] = []
    seen: set[str] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != len(MANIFEST_COLUMNS):
            raise ManifestError(f"{path}:{lineno}: expected 5 fields, got {len(row)}")
        subject_id, wav_path, label_raw, gender_raw, age_raw = (c.strip() for c in row)
        if not subject_id:
            raise ManifestError(f"{path}:{lineno}: empty subject_id")
        if set(subject_id) & set(REPORT_UNSAFE):
            raise ManifestError(f"{path}:{lineno}: subject_id {subject_id!r} "
                                f"holds one of {REPORT_UNSAFE!r}")
        if not wav_path:
            raise ManifestError(f"{path}:{lineno}: empty wav_path")
        if subject_id in seen:
            raise DuplicateSubject(f"{path}:{lineno}: duplicate subject {subject_id}")
        seen.add(subject_id)

        key = label_raw.lower()
        if key not in _LABELS:
            raise UnparseableLabel(f"{path}:{lineno}: label {label_raw!r}")
        label = _LABELS[key]

        gender = gender_raw.upper() if gender_raw.upper() in ("F", "M") else "unknown"
        if age_raw == "":
            age = None
        else:
            try:
                age = int(age_raw)
            except ValueError:
                raise ManifestError(f"{path}:{lineno}: bad age {age_raw!r}") from None
            if age < 0:
                raise ManifestError(f"{path}:{lineno}: negative age")

        records.append(SubjectRecord(subject_id, wav_path, label, gender, age))
    if not records:
        raise ManifestError(f"{path}: no subject rows")
    return records


def synth_clip(spec: SynthSpec, start: int = 0,
               stop: int | None = None) -> AudioClip:
    """Render samples [start, stop) of a SynthSpec, by default all of
    them. Same spec (incl. seed) -> identical samples, and a span equals
    that slice of the full render bit for bit.

    Noise draws come from one PCG64 stream consumed in component order,
    and are uniform in [-amp, amp] so the no-clipping bound holds. Each
    draw takes one step of the stream, so a noise component skips the
    draws before and after the span by jumping the stream ahead.

    Each component is computed in one scratch buffer and added into the
    clip, each step the same IEEE operation as the whole-array formula
    (`amp * sin(2 pi f t)`, `amp * uniform(-1, 1)`), so the samples are
    those bits: `2u - 1` on the stream's doubles `u` is `uniform(-1,
    1)`'s `-1 + 2u` exactly.
    """
    n = spec.num_samples
    if n <= 0:
        raise EmptyAudio("spec renders zero samples")
    stop = n if stop is None else stop
    _check_span(start, stop, n)
    t = np.arange(start, stop) / spec.sample_rate
    rng = np.random.default_rng(spec.seed)
    total = np.zeros(stop - start, dtype=np.float64)
    buf = np.empty_like(total)
    for kind, freq, amp in spec.components:
        freq = float(freq)
        amp = float(amp)
        if kind == "sine":
            np.multiply(2.0 * np.pi * freq, t, out=buf)
            np.sin(buf, out=buf)
        elif kind == "chirp":
            # Instantaneous frequency ramps f -> 2f across the clip.
            np.multiply(freq, t, out=buf)
            buf += buf * t / (2.0 * spec.duration)
            buf *= 2.0 * np.pi
            np.sin(buf, out=buf)
        elif kind == "noise":
            rng.bit_generator.advance(start)
            rng.random(out=buf)
            buf *= 2.0
            buf -= 1.0
            rng.bit_generator.advance(n - stop)
        else:
            raise ValueError(f"unknown component kind {kind!r}")
        buf *= amp
        total += buf
    return AudioClip(total, spec.sample_rate)
