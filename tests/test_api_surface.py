"""Every public function and class defined in `src/ovbm` is used by
product code. A helper that only tests call belongs in the tests."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ovbm"

# Public names no product code references, each with why it stays.
ALLOWED = {
    "mfcc_oracle": "the direct-DFT oracle that criterion 01 checks the "
                   "featurization against",
}


def public_names_and_uses():
    """(public top-level function and class name -> module, every name
    the library's code reads). Package re-exports are not uses."""
    defined, used = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = path.stem
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return defined, used


def test_every_public_name_has_a_product_use():
    defined, used = public_names_and_uses()
    unused = sorted(f"{module}.{name}" for name, module in defined.items()
                    if name not in used and name not in ALLOWED)
    assert not unused, f"public API no product code uses: {unused}"


def test_allowlist_is_current():
    defined, used = public_names_and_uses()
    stale = sorted(name for name in ALLOWED
                   if name not in defined or name in used)
    assert not stale, f"allowlisted names now used or gone: {stale}"
