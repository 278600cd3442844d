"""Every public function and class defined in `src/ovbm`, and every
public method and property of such a class, is used by product code. A
helper that only tests call belongs in the tests."""

import ast
import importlib
from pathlib import Path

import ovbm

SRC = Path(__file__).resolve().parent.parent / "src" / "ovbm"

# Public names no product code references, each with why it stays.
ALLOWED = {
    "mfcc_oracle": "the direct-DFT oracle that criterion 01 checks the "
                   "featurization against",
}


def public_names_and_uses():
    """(public name -> module, every name the library's code reads,
    every attribute it reads). A public name is a top-level function or
    class, or `Class.method` for a public method or property in the body
    of a public class. Package re-exports are not uses."""
    defined, names, attrs = {}, set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            defined[node.name] = path.stem
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        defined[f"{node.name}.{item.name}"] = path.stem
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return defined, names, attrs


def is_used(name: str, names: set, attrs: set) -> bool:
    """A method counts as used when the library reads it as an
    attribute; a top-level name, when it reads it either way."""
    owner, _, method = name.rpartition(".")
    return method in attrs if owner else name in names | attrs


def test_every_public_name_has_a_product_use():
    defined, names, attrs = public_names_and_uses()
    unused = sorted(f"{module}.{name}" for name, module in defined.items()
                    if not is_used(name, names, attrs) and name not in ALLOWED)
    assert not unused, f"public API no product code uses: {unused}"


def test_allowlist_is_current():
    defined, names, attrs = public_names_and_uses()
    stale = sorted(name for name in ALLOWED
                   if name not in defined or is_used(name, names, attrs))
    assert not stale, f"allowlisted names now used or gone: {stale}"


def test_package_root_binds_only_version():
    """The API is the submodules; the package root imports, defines and
    assigns nothing but `__version__`."""
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    assert bound == {"__version__"}, sorted(bound - {"__version__"})


def test_no_package_attribute_hides_a_submodule():
    hidden = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__init__":
            module = importlib.import_module(f"ovbm.{path.stem}")
            if getattr(ovbm, path.stem) is not module:
                hidden.append(path.stem)
    assert not hidden, f"package attributes that hide a submodule: {hidden}"


def private_reads() -> list:
    """Every `_`-prefixed name that an `ovbm` module imports from another
    `ovbm` module, or reads as an attribute of one: "module: name"."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        modules = set()  # the local names of `ovbm` modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname for a in node.names
                            if a.name.startswith("ovbm.") and a.asname}
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("ovbm")):
                for a in node.names:
                    if a.name.startswith("_"):
                        found.append(f"{path.stem}: {a.name}")
                    elif node.module in (None, "ovbm"):
                        modules.add(a.asname or a.name)
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and node.attr.startswith("_")
                    and not node.attr.endswith("__")):
                found.append(f"{path.stem}: {node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_reads() == []


def builder_calls() -> set:
    """(callee, enclosing function) of every call in `src/ovbm` that
    builds a run's MfccParams, CnnArch, scheme or trained layers. The
    callee gains "()" when the call passes no argument; the function is
    named `Class.method` inside a class."""
    builders = ("MfccParams", "CnnArch", "AggregationScheme.parse",
                "trainable_layers")
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                callee = ast.unparse(child.func)
                for name in builders:
                    if callee == name or callee.endswith("." + name):
                        bare = not (child.args or child.keywords)
                        found.add((name + "()" * bare, ".".join(scope)))
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), [])
    return found


def test_run_settings_are_derived_only_with_the_run_config():
    """A run's derived objects are built once, with its RunConfig.
    `mfcc_oracle` defaults to the reference MfccParams(), and
    `CnnArch.from_dict` reads a weight file's own arch."""
    built_with_config = "RunConfig.__post_init__"
    allowed = {("MfccParams", built_with_config),
               ("CnnArch", built_with_config),
               ("AggregationScheme.parse", built_with_config),
               ("trainable_layers", built_with_config),
               ("MfccParams()", "mfcc_oracle"),
               ("CnnArch", "CnnArch.from_dict")}
    assert builder_calls() == allowed
