"""The package source and the README's documented API, checked with the stdlib."""

import ast
import re
import types
from pathlib import Path

import birwalk

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "birwalk"


def _unused_imports(tree: ast.Module):
    """Names a module imports and never reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module != "__future__":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import List, Tuple\n"
                     "import a.b\nx: List[int] = a.b.c\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "Tuple")]


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports only to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(ast.parse(p.read_text()))
              for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}


def _imports_of(tree: ast.Module, package: str):
    """Lines that import ``package`` or a name from it."""
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == package for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == package)


def test_fraction_import_scan_sees_both_import_forms():
    tree = ast.parse("import os\nfrom fractions import Fraction\n"
                     "import fractions as f\nfrom .poly import fractions\n")
    assert _imports_of(tree, "fractions") == [2, 3]


def test_no_module_imports_fractions():
    # forms and points hold Python ints; a rational input is scaled to
    # integers where it is read
    found = {p.name: _imports_of(ast.parse(p.read_text()), "fractions")
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_json_import_scan_sees_every_import_form():
    tree = ast.parse("import os\nfrom json import dumps\n"
                     "import json.encoder as e\nfrom .config import json\n"
                     "from json.encoder import c_make_encoder\n")
    assert _imports_of(tree, "json") == [2, 3, 5]


def test_only_config_imports_json():
    # every document goes through dumps_json and its byte contract
    found = {p.name: _imports_of(ast.parse(p.read_text()), "json")
             for p in sorted(PACKAGE.glob("*.py"))}
    assert sorted(name for name, lines in found.items() if lines) == \
        ["config.py"]


def _private_reach_ins(tree: ast.Module):
    """(line, name) of each private name of another birwalk module that a
    module imports, or reads as an attribute of a module it imported."""
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.level or (node.module or "").split(".")[0] == "birwalk"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "birwalk"):  # a submodule
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname for alias in node.names
                           if alias.asname
                           and alias.name.startswith("birwalk."))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.endswith("__") \
                and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_private_name_scan_sees_imports_and_reads():
    tree = ast.parse("from . import genericity, projective\n"
                     "from .walk import _health, run_walk\n"
                     "from birwalk.poly import _SHIFT as shift\n"
                     "import birwalk.maps as maps\n"
                     "x = genericity._step(projective.FINGERPRINT_P)\n"
                     "y = genericity.__name__ + run_walk._cache\n"
                     "z = maps._cache + shift\n")
    assert _private_reach_ins(tree) == [
        (2, "_health"), (3, "_SHIFT"), (5, "genericity._step"),
        (7, "maps._cache")]


def test_no_module_reads_another_modules_private_names():
    found = {p.name: _private_reach_ins(ast.parse(p.read_text()))
             for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_only_picard_pulls_a_class_back_by_a_letter():
    # a letter's pushforward is PointRegistry.push and a run of pullbacks
    # picard.pull; every other module goes through them
    calling = sorted(p.name for p in PACKAGE.glob("*.py")
                     if ".pullback(" in p.read_text())
    assert calling == ["picard.py"]


def _readme_sketch() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library sketch", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_package_root_exports_the_readme_sketch_names():
    sketch = {alias.name for node in ast.walk(ast.parse(_readme_sketch()))
              if isinstance(node, ast.ImportFrom) and node.module == "birwalk"
              for alias in node.names}
    public = {name for name, value in vars(birwalk).items()
              if not name.startswith("__")
              and not isinstance(value, types.ModuleType)}
    assert sketch == {"check_genericity", "run_walk", "sample_generators"}
    assert public == sketch


def test_readme_library_sketch_runs(capsys):
    exec(compile(_readme_sketch(), "README.md (Library sketch)", "exec"), {})
    out = capsys.readouterr().out.splitlines()
    # one row for the start and one per step of the 16-step walk
    assert len(out) == 17
    assert out[-1].split()[0] == "16"
