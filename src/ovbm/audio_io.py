"""Audio loading, synthesis, resampling, and dataset manifest parsing.

Clips are mono float64 arrays in [-1, 1] with an explicit sample rate.
WAV support covers RIFF/WAVE containers holding 16-bit PCM or 32-bit
IEEE-float frames, mono or stereo; stereo folds to mono by averaging.
A header whose block_align is not its channels times the sample width,
and float samples holding NaN or Inf, raise errors that name the file.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MANIFEST_COLUMNS = ["subject_id", "wav_path", "label", "gender", "age"]

# A subject id or run label is one field of the CSV reports, and ids are
# picked by name from comma-separated lists; these characters split it.
REPORT_UNSAFE = ',;"\r\n'

# Accepted label spellings, case-insensitive. 1/AD = positive class.
_LABELS = {"0": 0, "nonad": 0, "1": 1, "ad": 1}

_WAVE_PCM = 1
_WAVE_IEEE_FLOAT = 3


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


def load_wav(path) -> AudioClip:
    """Parse a RIFF/WAVE file into a mono AudioClip.

    Int16 PCM scales by 1/32768 so 32767 maps just below 1.0. Stereo
    averages the two channels.
    """
    data = Path(path).read_bytes()
    if len(data) < 12 or data[:4] != b"RIFF" or data[8:12] != b"WAVE":
        raise MalformedContainer(f"{path}: not a RIFF/WAVE file")

    fmt = None
    raw = None
    pos = 12
    data = memoryview(data)  # chunk bodies are views, not copies
    while pos + 8 <= len(data):
        chunk_id = bytes(data[pos:pos + 4])
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = data[pos + 8: pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise MalformedContainer(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise MalformedContainer(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body)
        elif chunk_id == b"data":
            raw = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or raw is None:
        raise MalformedContainer(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, _byte_rate, block_align, bits = fmt
    if rate <= 0 or block_align <= 0:
        raise MalformedContainer(f"{path}: nonsense fmt fields")
    if channels not in (1, 2):
        raise UnsupportedEncoding(f"{path}: {channels} channels unsupported")
    if len(raw) % block_align:
        raise MalformedContainer(f"{path}: data chunk not frame-aligned")

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
            f"{path}: block_align {block_align} is not {channels} channel(s)"
            f" of {bits} bits")
    frames = np.frombuffer(raw, dtype=dtype)
    if audio_format == _WAVE_IEEE_FLOAT and not np.isfinite(frames).all():
        raise NonFiniteAudio(f"{path}: float samples hold NaN or Inf")
    if channels == 2:
        # (a + b) / 2 in float64, bit for bit what a mean over the pair
        # gives, without a float64 copy of both channels
        samples = np.add(frames[0::2], frames[1::2], dtype=np.float64)
    else:
        samples = frames.astype(np.float64)
    if audio_format == _WAVE_PCM:
        samples /= 32768.0  # a power of two: exact, before or after the sum
    if channels == 2:
        samples /= 2.0
    if samples.size == 0:
        raise EmptyAudio(f"{path}: no samples")
    return AudioClip(samples, rate)


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


def resample_linear(clip: AudioClip, target_rate: int) -> AudioClip:
    """Linear-interpolation resampler.

    Matching rates return an identical clip. Output length is chosen so
    duration is preserved to within one sample period.
    """
    target_rate = int(target_rate)
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    n = clip.samples.size
    if n == 0:
        raise EmptyAudio("cannot resample an empty clip")
    m = max(1, int(round(n * target_rate / clip.sample_rate)))
    positions = np.arange(m) * (clip.sample_rate / target_rate)
    out = np.interp(positions, np.arange(n), clip.samples)
    return AudioClip(out, target_rate)


def parse_manifest(path) -> list[SubjectRecord]:
    """Read a subject manifest CSV: a header and at least one subject row.

    Header must be exactly `subject_id,wav_path,label,gender,age`.
    Labels accept {0, 1, AD, nonAD} case-insensitively. Gender values
    other than F/M become "unknown"; age may be blank. A leading UTF-8
    byte-order mark, as spreadsheet exports write, is skipped.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = [row for row in csv.reader(fh) if row]
    except UnicodeDecodeError as e:
        raise ManifestError(f"{path}: not UTF-8 text (it holds byte "
                            f"0x{e.object[e.start]:02x})") from None
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
    """
    n = spec.num_samples
    if n <= 0:
        raise EmptyAudio("spec renders zero samples")
    stop = n if stop is None else stop
    if not 0 <= start <= stop <= n:
        raise ValueError(f"span [{start}, {stop}) outside [0, {n})")
    t = np.arange(start, stop) / spec.sample_rate
    rng = np.random.default_rng(spec.seed)
    total = np.zeros(stop - start, dtype=np.float64)
    for kind, freq, amp in spec.components:
        freq = float(freq)
        amp = float(amp)
        if kind == "sine":
            total += amp * np.sin(2.0 * np.pi * freq * t)
        elif kind == "chirp":
            # Instantaneous frequency ramps f -> 2f across the clip.
            phase = freq * t + freq * t * t / (2.0 * spec.duration)
            total += amp * np.sin(2.0 * np.pi * phase)
        elif kind == "noise":
            rng.bit_generator.advance(start)
            total += amp * rng.uniform(-1.0, 1.0, stop - start)
            rng.bit_generator.advance(n - stop)
        else:
            raise ValueError(f"unknown component kind {kind!r}")
    return AudioClip(total, spec.sample_rate)
