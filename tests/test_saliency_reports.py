"""Saliency maps, map comparison, detection-uniqueness and masking
ablation reports, and their CSV/JSON/SVG writers."""

import json

import pytest

from conftest import micro_run_config
from ovbm.audio_io import parse_manifest
from ovbm.pipeline import load_clip, subject_saliency
from ovbm.saliency import (
    SALIENCY_CSV_COLUMNS,
    RegistryMismatch,
    SaliencyEntry,
    SaliencyMap,
    ablation_csv,
    ablation_json,
    ablation_report,
    compare_maps,
    comparison_csv,
    saliency_csv,
    saliency_json,
    saliency_svg,
    uniqueness_csv,
    uniqueness_json,
    uniqueness_report,
)

FAMILIES = ("sensory", "brainos", "cognitive", "symbolic")


def fake_map(subject_id="s0", base=0.5):
    entries = []
    for fi, fam in enumerate(FAMILIES):
        for i in range(4):
            entries.append(SaliencyEntry(f"{fam}_{i}", fam,
                                         min(1.0, base + 0.05 * fi + 0.01 * i)))
    return SaliencyMap(subject_id, entries)


class TestUniqueness:
    def test_three_model_partition(self):
        detections = {
            "A": ["s1", "s2", "s5"],
            "B": ["s2", "s3", "s5"],
            "C": ["s4", "s5"],
        }
        positives = [f"s{i}" for i in range(7)]
        report = uniqueness_report(detections, positives)
        by_label = {r.label: r for r in report.rows}
        assert set(by_label) == {
            "Only in A", "Only in B", "Only in C",
            "In A and B", "In A and C", "In B and C",
            "In all 3", "In neither of the 3",
        }
        assert by_label["Only in A"].subjects == ["s1"]
        assert by_label["Only in B"].subjects == ["s3"]
        assert by_label["Only in C"].subjects == ["s4"]
        assert by_label["In A and B"].subjects == ["s2"]
        assert by_label["In A and C"].count == 0
        assert by_label["In all 3"].subjects == ["s5"]
        assert by_label["In neither of the 3"].subjects == ["s0", "s6"]
        assert sum(r.count for r in report.rows) == len(positives)
        assert abs(sum(r.percent for r in report.rows) - 100.0) < 1e-9

    def test_four_model_partition_has_triples(self):
        detections = {
            "A": ["s0", "s1"], "B": ["s0", "s1"],
            "C": ["s0", "s1"], "D": ["s0"],
        }
        report = uniqueness_report(detections, ["s0", "s1", "s2"])
        by_label = {r.label: r for r in report.rows}
        assert by_label["Exactly in A + B + C"].subjects == ["s1"]
        assert by_label["In all 4"].subjects == ["s0"]
        assert by_label["In neither of the 4"].subjects == ["s2"]
        assert sum(r.count for r in report.rows) == 3
        # every exact signature appears exactly once: 4 singles + 6
        # pairs + 4 triples + all + neither
        assert len(report.rows) == 16

    def test_detections_outside_positives_ignored(self):
        report = uniqueness_report({"A": ["s9"], "B": []}, ["s0"])
        by_label = {r.label: r for r in report.rows}
        assert by_label["In neither of the 2"].count == 1
        assert sum(r.count for r in report.rows) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            uniqueness_report({"A": ["s0"]}, ["s0"])
        with pytest.raises(ValueError):
            uniqueness_report({"A": [], "B": []}, [])

    def test_csv_and_json(self):
        report = uniqueness_report({"A": ["s0"], "B": ["s0", "s1"]},
                                   ["s0", "s1", "s2"])
        text = uniqueness_csv(report)
        assert text.splitlines()[0] == "group,count,percent,subjects"
        assert '"In all 2",1,33.3,"s0"' in text
        payload = json.loads(uniqueness_json(report))
        assert payload["models"] == ["A", "B"]
        assert sum(r["count"] for r in payload["rows"]) == 3


class TestAblation:
    RUNS = [
        ("baseline", 65.6, 68.8),
        ("cough", 75.0, 75.0),
        ("intonation", 68.8, 75.0),
        ("wake_word", 75.0, 78.1),
        ("multi_modal", 90.6, 93.8),
    ]

    def test_row_improvements(self):
        report = ablation_report(self.RUNS)
        imps = [round(r.improvement, 1) for r in report.rows]
        assert imps == [3.2, 0.0, 6.2, 3.1, 3.2]

    def test_average_display(self):
        report = ablation_report(self.RUNS)
        assert abs(report.avg_improvement - 15.7 / 5) < 1e-9
        assert report.avg_improvement_display == "3.1"

    def test_csv_last_line(self):
        text = ablation_csv(ablation_report(self.RUNS))
        lines = text.strip().splitlines()
        assert lines[0] == "model,without_mask_pct,with_mask_pct,improvement_pct"
        assert lines[1] == "baseline,65.6,68.8,3.2"
        assert lines[-1] == "Avg improvement,,,3.1"

    def test_json(self):
        payload = json.loads(ablation_json(ablation_report(self.RUNS)))
        assert payload["avg_improvement_display"] == "3.1"
        assert len(payload["rows"]) == 5

    def test_empty(self):
        with pytest.raises(ValueError):
            ablation_report([])


class TestCompareMaps:
    def test_deltas_and_family_means(self):
        a = fake_map("sA", base=0.6)
        b = fake_map("sB", base=0.5)
        cmp = compare_maps(a, b)
        assert cmp.subject_a == "sA" and cmp.subject_b == "sB"
        assert len(cmp.rows) == 16
        for _, _, delta in cmp.rows:
            assert abs(delta - 0.1) < 1e-12
        assert set(cmp.family_means) == set(FAMILIES)
        for fam in FAMILIES:
            assert abs(cmp.family_means[fam] - 0.1) < 1e-12

    def test_roster_mismatch(self):
        a = fake_map()
        b = fake_map()
        b.entries = b.entries[:-1]
        with pytest.raises(RegistryMismatch):
            compare_maps(a, b)
        c = fake_map()
        c.entries[0].biomarker_id = "renamed"
        with pytest.raises(RegistryMismatch):
            compare_maps(a, c)


class TestWriters:
    def test_saliency_csv_header_and_rows(self):
        text = saliency_csv([fake_map("s0"), fake_map("s1")])
        lines = text.strip().splitlines()
        assert lines[0] == SALIENCY_CSV_COLUMNS
        assert lines[0] == "subject_id,family,biomarker_id,score"
        assert len(lines) == 1 + 32
        assert lines[1].startswith("s0,sensory,sensory_0,")

    def test_saliency_json_round_trip(self):
        payload = json.loads(saliency_json([fake_map("s0")]))
        assert payload[0]["subject_id"] == "s0"
        assert len(payload[0]["entries"]) == 16

    def test_comparison_csv(self):
        text = comparison_csv(compare_maps(fake_map("sA"), fake_map("sB")))
        lines = text.strip().splitlines()
        assert lines[0] == "biomarker_id,family,delta_sA_minus_sB"
        assert len(lines) == 1 + 16 + 4

    def test_svg_deterministic_and_labeled(self):
        maps = [fake_map("s0"), fake_map("s1", base=0.3)]
        svg = saliency_svg(maps)
        assert svg == saliency_svg(maps)
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert svg.count("rotate(-45") == 16
        assert svg.count("stroke-dasharray") == 3  # family separators

    def test_svg_errors(self):
        with pytest.raises(ValueError):
            saliency_svg([])
        other = fake_map()
        other.entries[3].biomarker_id = "odd_one"
        with pytest.raises(RegistryMismatch):
            saliency_svg([fake_map(), other])


@pytest.fixture(scope="module")
def subject_map(micro_pipeline, corpus_dir):
    config = micro_run_config(corpus_dir)
    records = parse_manifest(config.manifest)
    record = records[0]
    clip = load_clip(config.manifest, record, config.sample_rate)
    return micro_pipeline, record, clip, \
        subject_saliency(micro_pipeline, record, clip)


class TestSaliencyMap:
    def test_roster_shape(self, subject_map):
        _, record, _, smap = subject_map
        assert smap.subject_id == record.subject_id
        assert len(smap.entries) == 16
        for fam in FAMILIES:
            assert sum(e.family == fam for e in smap.entries) == 4
        for e in smap.entries:
            assert 0.0 <= e.score <= 1.0

    def test_deterministic(self, subject_map):
        pipe, record, clip, smap = subject_map
        again = subject_saliency(pipe, record, clip)
        assert [(e.biomarker_id, e.score) for e in again.entries] == \
            [(e.biomarker_id, e.score) for e in smap.entries]
