"""Golden outputs: what three micro runs decide and score, pinned across
commits.

`tests/golden/outputs.json` holds, for the frozen mask-on run, the
last:1 mask-off run and the long-recording run of
`scripts/output_digests.py`, each subject's decision and chunk
probabilities, every saliency score, every `metrics.json` accuracy, the
run's counts and the fusion's final epoch loss. Criterion 10 checks two
runs of one checkout against each other; this test sees a change that
moves every run alike. Labels and counts must match exactly, floats to
an absolute 1e-9: loose enough for another BLAS build, far tighter than
any change of meaning. `scripts/output_digests.py --golden PATH`
rewrites the fixture; its docstring says when that is allowed.
"""

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))

import output_digests  # noqa: E402

GOLDEN = Path(__file__).parent / "golden" / "outputs.json"
ATOL = 1e-9


def mismatches(got, want, path="") -> list:
    """Where `got` differs from `want`: floats by more than ATOL, any
    other value, key or length at all."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"
                    f" != {sorted(want)}"]
        return [m for k in sorted(want)
                for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: {got!r} != {want!r}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if isinstance(got, float) and abs(got - want) <= ATOL:
            return []
    elif type(got) is type(want) and got == want:
        return []
    return [f"{path}: {got!r} != {want!r}"]


def test_outputs_match_the_golden_fixture(tmp_path):
    want = json.loads(GOLDEN.read_text())
    assert sorted(want) == sorted(output_digests.GOLDEN_RUNS)
    got = output_digests.golden_outputs(str(tmp_path / "work"))
    bad = mismatches(got, want)
    assert not bad, f"{len(bad)} golden values moved:\n" + "\n".join(bad[:40])


def test_mismatches_tolerance_and_exact_fields():
    want = {"p": [0.25, 0.5], "label": "positive", "n": 3}
    assert mismatches({"p": [0.25 + 5e-10, 0.5], "label": "positive", "n": 3},
                      want) == []
    assert len(mismatches({"p": [0.25 + 2e-9, 0.5], "label": "positive",
                           "n": 3}, want)) == 1
    assert len(mismatches({"p": [0.25], "label": "negative", "n": 4},
                          want)) == 3
    assert mismatches({"p": [0.25, 0.5], "label": "positive"}, want)
