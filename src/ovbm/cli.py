"""Command-line front end.

    ovbm synth     --out data/ --n-subjects 40 --seed 7
    ovbm train     --manifest data/manifest.csv --out runs/a --seed 1
    ovbm eval      --run runs/a --manifest data/manifest.csv
    ovbm diagnose  --run runs/a --manifest data/manifest.csv --subjects s001
    ovbm saliency  --run runs/a --manifest data/manifest.csv \
                   --subjects s000,s001 --compare s000,s001 --out reports/
    ovbm report uniqueness --run runs/a --out reports/
    ovbm report ablation --pairs runs/nomask:runs/mask --out reports/

Exit codes: 0 ok, 2 bad inputs or config, 3 missing/unreadable files,
4 a worker process died (`ovbm synth`, `train`, `eval`, `diagnose`,
`saliency`; nothing is written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict

from .audio_io import parse_manifest
from .models import MEMBERS
from .pipeline import (
    RunConfig,
    diagnose_subject,
    evaluate_manifest,
    load_pipeline,
    map_subjects,
    run_training,
    save_pipeline,
    subject_saliency,
)
from .saliency import (
    ablation_csv,
    ablation_report,
    comparison_csv,
    compare_maps,
    report_json,
    saliency_csv,
    saliency_json,
    saliency_svg,
    uniqueness_csv,
    uniqueness_report,
)
from .util import atomic_write_text, named_errors

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ovbm",
        description="voice-based disease screening: train, diagnose, explain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="render a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    p.add_argument("--n-subjects", type=int, default=40)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.set_defaults(func=cmd_synth)

    # Every flag but --out and --config has the RunConfig field it
    # overrides as its dest; a flag not given sets nothing.
    p = sub.add_parser("train", help="train the full ensemble on a manifest",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--manifest", help="subject manifest CSV")
    p.add_argument("--out", required=True, help="run output directory")
    p.add_argument("--config", default=None,
                   help="JSON config file; flags override it")
    p.add_argument("--seed", type=int)
    p.add_argument("--label")
    p.add_argument("--chunk-size", type=float)
    p.add_argument("--stride", type=float)
    p.add_argument("--poisson-mask", choices=("on", "off"))
    p.add_argument("--scheme", choices=("average", "linpos", "linneg"))
    p.add_argument("--strategy", help="frozen, last:N, or all")
    p.add_argument("--lr", type=float, dest="learning_rate", metavar="LR")
    p.add_argument("--epochs", type=int, dest="fusion_epochs",
                   metavar="EPOCHS", help="joint fusion epochs")
    p.add_argument("--pretrain-epochs", type=int)
    p.add_argument("--tune-epochs", type=int)
    p.add_argument("--surrogate-per-class", type=int)
    p.add_argument("--threshold", type=float)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a saved run against a manifest")
    p.add_argument("--run", required=True, help="training run directory")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", help="write metrics JSON here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("diagnose", help="per-subject screening decisions")
    p.add_argument("--run", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subjects", help="comma-separated ids (default: all)")
    p.add_argument("--out", help="write diagnoses JSON here")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("saliency", help="per-subject biomarker maps")
    p.add_argument("--run", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--subjects", required=True,
                   help="comma-separated ids, or 'all'")
    p.add_argument("--compare", help="two ids to diff, e.g. s000,s001")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("report", help="roster-level statistical reports")
    rsub = p.add_subparsers(dest="report_kind", required=True)

    r = rsub.add_parser("uniqueness",
                        help="which members caught which positives")
    r.add_argument("--run", required=True)
    r.add_argument("--members",
                   default=",".join(e.biomarker_id for e in MEMBERS
                                    if e.family == "cognitive"),
                   help="comma-separated member ids (default: the four "
                        "word-recall members)")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report_uniqueness)

    r = rsub.add_parser("ablation",
                        help="accuracy deltas between paired runs")
    r.add_argument("--pairs", required=True,
                   help="comma-separated without:with run directory pairs")
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report_ablation)

    return parser


# ----------------------------------------------------------- commands

def cmd_synth(args) -> int:
    from .synthesis import write_corpus

    manifest = write_corpus(args.out, args.n_subjects, args.seed,
                            args.sample_rate)
    print(f"wrote {args.n_subjects} subjects to {manifest}")
    return 0


def _config_from_args(args) -> RunConfig:
    flags = {k: v for k, v in vars(args).items()
             if k not in ("command", "func", "out", "config")}
    if "poisson_mask" in flags:
        flags["poisson_mask"] = flags["poisson_mask"] == "on"
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh, named_errors(args.config):
            data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("config file must hold a JSON object")
    return RunConfig.from_dict(dict(data, **flags))


def _check_out(out: str, is_file: bool = False) -> None:
    """Outputs are written only after the work: refuse now an --out that
    is, or lies under, something other than a directory, or that is a
    directory where a file goes (`is_file`)."""
    path = os.path.abspath(out)
    if is_file and os.path.isdir(path):
        raise IsADirectoryError(f"--out {out} is a directory")
    found = os.path.dirname(path) if is_file else path
    while not os.path.exists(found):
        found = os.path.dirname(found)
    if not os.path.isdir(found):
        under = "" if found == path else f" is under {found}, which"
        raise NotADirectoryError(f"--out {out}{under} is not a directory")


def cmd_train(args) -> int:
    config = _config_from_args(args)
    _check_out(args.out)
    pipe = run_training(config)
    save_pipeline(pipe, args.out)
    m = pipe.metrics
    print(f"run {config.label}: seed={config.seed} "
          f"digest={m['config_digest'][:12]}")
    print(f"train subjects={m['counts']['train_subjects']} "
          f"accuracy={m['train']['subject_accuracy']:.3f}")
    print(f"test  subjects={m['counts']['test_subjects']} "
          f"accuracy={m['test']['subject_accuracy']:.3f}")
    print(f"best member {m['best_member']['biomarker_id']} "
          f"accuracy={m['best_member']['test_subject_accuracy']:.3f}")
    print(f"saved to {args.out}")
    return 0


def cmd_eval(args) -> int:
    pipe = load_pipeline(args.run)
    if args.out:
        _check_out(args.out, is_file=True)
    result = evaluate_manifest(pipe, args.manifest)
    print(f"subjects={result['num_subjects']} "
          f"subject_accuracy={result['subject_accuracy']:.3f} "
          f"chunk_accuracy={result['chunk_accuracy']:.3f}")
    if args.out:
        atomic_write_text(args.out, report_json(result))
        print(f"wrote {args.out}")
    return 0


def _id_list(spec: str, what: str, known, where: str) -> list:
    """The `what` ids of a comma-separated list, in order; refuses an
    empty list, repeated ids and ids not in `known` (named `where`)."""
    ids = [s for s in spec.split(",") if s]
    if not ids:
        raise ValueError(f"no {what}s selected")
    repeated = sorted({s for s in ids if ids.count(s) > 1})
    if repeated:
        raise ValueError(f"duplicate {what} ids: {', '.join(repeated)}")
    missing = [s for s in ids if s not in known]
    if missing:
        raise ValueError(f"{what}s not in {where}: {', '.join(missing)}")
    return ids


def _select_records(manifest_path: str, spec: str | None) -> list:
    records = parse_manifest(manifest_path)
    if spec is None or spec == "all":
        return records
    by_id = {r.subject_id: r for r in records}
    return [by_id[s] for s in _id_list(spec, "subject", by_id, "manifest")]


def cmd_diagnose(args) -> int:
    pipe = load_pipeline(args.run)
    if args.out:
        _check_out(args.out, is_file=True)
    records = _select_records(args.manifest, args.subjects)
    results = {}
    for rec, d in zip(records, map_subjects(diagnose_subject, pipe,
                                            args.manifest, records)):
        results[rec.subject_id] = asdict(d)
        print(f"{rec.subject_id}: P(positive)={d.probability:.4f} -> {d.label}")
    if args.out:
        atomic_write_text(args.out, report_json(results))
        print(f"wrote {args.out}")
    return 0


def cmd_saliency(args) -> int:
    pipe = load_pipeline(args.run)
    _check_out(args.out)
    records = _select_records(args.manifest, args.subjects)
    if args.compare is not None:
        pair = _id_list(args.compare, "--compare subject",
                        {r.subject_id for r in records}, "--subjects")
        if len(pair) != 2:
            raise ValueError("--compare takes exactly two subject ids")
    ordered = map_subjects(subject_saliency, pipe, args.manifest, records)
    for rec, smap in zip(records, ordered):
        families = sorted({e.family for e in smap.entries})
        means = " ".join(f"{fam}={smap.family_mean(fam):.3f}"
                         for fam in families)
        print(f"{rec.subject_id}: {means}")

    atomic_write_text(os.path.join(args.out, "saliency.csv"),
                      saliency_csv(ordered))
    atomic_write_text(os.path.join(args.out, "saliency.json"),
                      saliency_json(ordered))
    atomic_write_text(os.path.join(args.out, "saliency.svg"),
                      saliency_svg(ordered))
    if args.compare is not None:
        maps = {r.subject_id: smap for r, smap in zip(records, ordered)}
        cmp = compare_maps(maps[pair[0]], maps[pair[1]])
        atomic_write_text(os.path.join(args.out, "comparison.csv"),
                          comparison_csv(cmp))
    print(f"wrote reports to {args.out}")
    return 0


def cmd_report_uniqueness(args) -> int:
    pipe = load_pipeline(args.run)
    with named_errors(os.path.join(args.run, "metrics.json")):
        detections = pipe.metrics["detections"]
        positives = pipe.metrics["test_positives"]
    members = _id_list(args.members, "member", detections, "run detections")
    report = uniqueness_report({m: detections[m] for m in members}, positives)
    atomic_write_text(os.path.join(args.out, "uniqueness.csv"),
                      uniqueness_csv(report))
    atomic_write_text(os.path.join(args.out, "uniqueness.json"),
                      report_json(report))
    for row in report["rows"]:
        print(f"{row['label']}: {row['count']} ({row['percent']:.1f}%)")
    print(f"wrote reports to {args.out}")
    return 0


def cmd_report_ablation(args) -> int:
    rows = []
    for pair in args.pairs.split(","):
        parts = pair.split(":")
        if len(parts) != 2:
            raise ValueError(f"bad pair {pair!r}; expected without:with")
        accuracies = []
        for run_dir in parts:
            pipe = load_pipeline(run_dir)
            with named_errors(os.path.join(run_dir, "metrics.json")):
                accuracies.append(100.0 * pipe.metrics["test"]["subject_accuracy"])
        # the label is the with-mask run's, as the pair's last
        rows.append((pipe.config.label, *accuracies))
    report = ablation_report(rows)
    atomic_write_text(os.path.join(args.out, "ablation.csv"),
                      ablation_csv(report))
    atomic_write_text(os.path.join(args.out, "ablation.json"),
                      report_json(report))
    for row in report["rows"]:
        print(f"{row['model']}: {row['without_mask']:.1f} -> "
              f"{row['with_mask']:.1f} ({row['improvement']:+.1f})")
    print(f"avg improvement: {report['avg_improvement_display']}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # FileNotFoundError included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
