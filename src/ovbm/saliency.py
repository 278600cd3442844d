"""Per-subject biomarker saliency maps and the statistical reports.

A saliency map holds one score per roster biomarker (16 entries, four
per family). Every score is an aggregated P(healthy) in [0, 1], so
higher means the biomarker sees a healthier subject and map shapes are
comparable across subjects and across the roster.

A report (a map comparison, detection uniqueness, the masking
ablation) is the plain dict its JSON file holds; `report_json` is the
one JSON writer, and the CSV writers read the same keys.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .aggregation import AggregationScheme, aggregate
from .audio_io import Recording, SubjectRecord
from .chunker import chunk_plan, extract_chunks
from .fusion import fuse_from_embeddings, metadata_vector, score_subject
from .models import MEMBERS, ROSTER, embed_chunks

SALIENCY_CSV_COLUMNS = "subject_id,family,biomarker_id,score"


class RegistryMismatch(ValueError):
    """Two maps cover different biomarker rosters."""


@dataclass
class SaliencyEntry:
    biomarker_id: str
    family: str
    score: float  # aggregated P(healthy), in [0, 1]


@dataclass
class SaliencyMap:
    subject_id: str
    entries: list = field(default_factory=list)

    def family_mean(self, family: str) -> float:
        scores = [e.score for e in self.entries if e.family == family]
        return float(np.mean(scores))

    def to_rows(self) -> list:
        return [(self.subject_id, e.family, e.biomarker_id, e.score)
                for e in self.entries]


def saliency_map(pipe, record: SubjectRecord, clip: Recording) -> SaliencyMap:
    """Score all 16 roster entries for one subject under the trained
    pipeline `pipe` (`pipeline.TrainedPipeline`).

    `fusion.score_subject` scores the run's chunks, as it does a run's
    test subjects: sensory/cognitive scores aggregate each tuned
    member's own head; symbolic scores, the main ensemble under each
    scheme plus the per-member-pretuned ensemble `pipe.pt` under the
    flat average (`frozen` and `last:0` runs hold `main` as `pt`, so
    those two agree up to rounding). Chunk-scale scores run the main
    fusion on each probe plan.
    """
    config, main = pipe.config, pipe.main
    metadata = metadata_vector(record.gender, record.age)

    # Every distinct chunk plan (the run's, then the chunk-scale
    # probes, whose stride is capped so windows keep covering the
    # recording without gaps), all cut from one featurization. Chunks
    # whose crops coincide share one, so each body embeds it once.
    run_plan = (config.chunk_size, config.stride)
    probes = {e.biomarker_id: (e.chunk_size, min(config.stride, e.chunk_size))
              for e in ROSTER if e.family == "brainos"}
    keys = list(dict.fromkeys([run_plan, *probes.values()]))
    plans = [chunk_plan(clip.duration, size, step) for size, step in keys]
    flat = extract_chunks(clip, sum(plans, []), config.params,
                          config.poisson_mask, config.arch_frames)

    # The main bodies embed every plan's crops at once, and the main
    # fusion scores each probe plan on its own rows. The run's chunks,
    # whose crops come first, read those embeddings in `score_subject`.
    # Under `frozen` the pretuned and tuned members share the bodies too.
    main_emb = np.concatenate(embed_chunks(main.members, flat), axis=1)
    ends = np.cumsum([len(p) for p in plans])
    main_probs = {
        key: fuse_from_embeddings(main, main_emb[end - len(plan):end],
                                  metadata)[0]
        for key, plan, end in zip(keys[1:], plans[1:], ends[1:])}
    main_probs[run_plan], pt_probs, own = score_subject(
        pipe, flat.head(len(plans[0])), metadata)

    scheme = config.aggregation
    entries = []
    for entry in ROSTER:
        if entry in MEMBERS:
            score = aggregate(own[entry.biomarker_id][:, 0], scheme)
        elif entry.family == "brainos":
            probs = main_probs[probes[entry.biomarker_id]]
            score = aggregate(1.0 - probs[:, 1], scheme)
        elif entry.scheme is not None:
            score = aggregate(main_probs[run_plan][:, 0],
                              AggregationScheme(entry.scheme))
        else:  # the pretuned ensemble
            score = aggregate(1.0 - pt_probs[:, 1], AggregationScheme.AVERAGE)
        entries.append(SaliencyEntry(entry.biomarker_id, entry.family,
                                     float(score)))
    return SaliencyMap(record.subject_id, entries)


def compare_maps(a: SaliencyMap, b: SaliencyMap) -> dict:
    """Per-biomarker score deltas (a - b) plus family-mean deltas."""
    ids_a = [e.biomarker_id for e in a.entries]
    ids_b = [e.biomarker_id for e in b.entries]
    if ids_a != ids_b:
        raise RegistryMismatch("maps cover different biomarker rosters")
    rows = [(ea.biomarker_id, ea.family, ea.score - eb.score)
            for ea, eb in zip(a.entries, b.entries)]
    family_means = {
        fam: float(np.mean([d for _, f, d in rows if f == fam]))
        for fam in dict.fromkeys(f for _, f, _ in rows)
    }
    return {"subject_a": a.subject_id, "subject_b": b.subject_id,
            "rows": rows, "family_means": family_means}


# ----------------------------------------------------------- reports

def uniqueness_report(detections: dict, positives) -> dict:
    """Partition true positives by which models detected them.

    detections: model name -> iterable of detected subject ids. Rows
    cover every exact detection signature (singles, pairs, larger
    combinations when more than three models, all, neither), so the
    counts sum to the number of positives exactly.
    """
    names = list(detections.keys())
    if len(names) < 2:
        raise ValueError("need at least two models to partition")
    positives = sorted(set(positives))
    if not positives:
        raise ValueError("no positive subjects to partition")
    sets = {n: set(detections[n]) & set(positives) for n in names}
    k = len(names)

    # each positive's detection signature: the models that caught it
    signature = {s: frozenset(n for n in names if s in sets[n])
                 for s in positives}
    rows = []

    def add(label, sig):
        subjects = [s for s in positives if signature[s] == sig]
        rows.append({"label": label, "subjects": subjects,
                     "count": len(subjects),
                     "percent": 100.0 * len(subjects) / len(positives)})

    for n in names:
        add(f"Only in {n}", frozenset([n]))
    if k >= 3:
        for a, b in itertools.combinations(names, 2):
            add(f"In {a} and {b}", frozenset([a, b]))
    for size in range(3, k):
        for combo in itertools.combinations(names, size):
            add("Exactly in " + " + ".join(combo), frozenset(combo))
    add(f"In all {k}", frozenset(names))
    add(f"In neither of the {k}", frozenset())
    return {"models": names, "positives": positives, "rows": rows}


def ablation_report(runs: list) -> dict:
    """runs: (label, accuracy_without_mask, accuracy_with_mask) rows."""
    if not runs:
        raise ValueError("no runs to compare")
    rows = [{"model": label, "without_mask": float(a), "with_mask": float(b),
             "improvement": float(b) - float(a)} for label, a, b in runs]
    avg = float(np.mean([r["improvement"] for r in rows]))
    return {"rows": rows, "avg_improvement": avg,
            "avg_improvement_display": f"{avg:.1f}"}


# ------------------------------------------------------------ writers

def report_json(obj) -> str:
    """The one JSON writer: every JSON report is a plain object."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def saliency_csv(maps: list) -> str:
    lines = [SALIENCY_CSV_COLUMNS]
    for m in maps:
        for sid, family, bid, score in m.to_rows():
            lines.append(f"{sid},{family},{bid},{score:.6f}")
    return "\n".join(lines) + "\n"


def saliency_json(maps: list) -> str:
    return report_json([asdict(m) for m in maps])


def comparison_csv(cmp: dict) -> str:
    lines = [f"biomarker_id,family,"
             f"delta_{cmp['subject_a']}_minus_{cmp['subject_b']}"]
    for bid, fam, delta in cmp["rows"]:
        lines.append(f"{bid},{fam},{delta:.6f}")
    for fam, mean in cmp["family_means"].items():
        lines.append(f"family_mean_{fam},{fam},{mean:.6f}")
    return "\n".join(lines) + "\n"


def uniqueness_csv(report: dict) -> str:
    lines = ["group,count,percent,subjects"]
    for row in report["rows"]:
        subjects = ";".join(row["subjects"])
        lines.append(f"\"{row['label']}\",{row['count']},"
                     f"{row['percent']:.1f},\"{subjects}\"")
    return "\n".join(lines) + "\n"


def ablation_csv(report: dict) -> str:
    lines = ["model,without_mask_pct,with_mask_pct,improvement_pct"]
    for r in report["rows"]:
        lines.append(f"{r['model']},{r['without_mask']:.1f},"
                     f"{r['with_mask']:.1f},{r['improvement']:.1f}")
    lines.append(f"Avg improvement,,,{report['avg_improvement_display']}")
    return "\n".join(lines) + "\n"


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]


def saliency_svg(maps: list) -> str:
    """Static line chart of one or more maps over the 16-entry roster.
    Pure string assembly so identical maps give identical bytes."""
    # imported here: it loads urllib.request, megabytes no scorer needs
    from xml.sax.saxutils import escape

    if not maps:
        raise ValueError("nothing to plot")
    ids = [e.biomarker_id for e in maps[0].entries]
    for m in maps[1:]:
        if [e.biomarker_id for e in m.entries] != ids:
            raise RegistryMismatch("maps cover different biomarker rosters")
    families = [e.family for e in maps[0].entries]

    left, right, top, bottom = 60.0, 20.0, 28.0, 150.0
    plot_w, plot_h = 780.0, 240.0
    width, height = left + plot_w + right, top + plot_h + bottom
    xs = [left + plot_w * (i + 0.5) / len(ids) for i in range(len(ids))]

    def y_of(score):
        return top + plot_h * (1.0 - score)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" font-family="monospace" font-size="11">',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#333"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        parts.append(f'<line x1="{left:.1f}" y1="{y:.1f}" '
                     f'x2="{left + plot_w:.1f}" y2="{y:.1f}" '
                     f'stroke="#ccc" stroke-width="0.5"/>')
        parts.append(f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{tick:.2f}</text>')
    # family separators
    for i in range(1, len(ids)):
        if families[i] != families[i - 1]:
            x = (xs[i - 1] + xs[i]) / 2.0
            parts.append(f'<line x1="{x:.1f}" y1="{top:.1f}" x2="{x:.1f}" '
                         f'y2="{top + plot_h:.1f}" stroke="#999" '
                         f'stroke-dasharray="4 3"/>')
    for i, bid in enumerate(ids):
        parts.append(
            f'<text x="{xs[i]:.1f}" y="{top + plot_h + 12:.1f}" '
            f'text-anchor="end" '
            f'transform="rotate(-45 {xs[i]:.1f} {top + plot_h + 12:.1f})">'
            f'{bid}</text>'
        )
    for mi, m in enumerate(maps):
        color = _SVG_COLORS[mi % len(_SVG_COLORS)]
        points = " ".join(f"{xs[i]:.1f},{y_of(e.score):.1f}"
                          for i, e in enumerate(m.entries))
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for i, e in enumerate(m.entries):
            parts.append(f'<circle cx="{xs[i]:.1f}" cy="{y_of(e.score):.1f}" '
                         f'r="2.5" fill="{color}"/>')
        parts.append(f'<text x="{left + 6 + 150 * mi:.1f}" y="{top - 10:.1f}" '
                     f'fill="{color}">{escape(m.subject_id)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
