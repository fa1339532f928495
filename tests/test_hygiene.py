"""Source hygiene: no module of the package imports a name it never uses,
none imports an underscore (module-private) name from another module of the
package, the package imports nothing outside the standard library, each
ratio formula of the flags module is written in one function only and only
the formulas, the entry memo and the genericity check read a table's
entries, only ``flags.WedgeTrie.table`` constructs a ``WedgeTable`` and no
class derives from the wedge classes, only ``multilinear.bareiss_append``
holds the Bareiss update and ``det_int`` folds its state step, every
function, class and method of the package is read by the package, a script
or the benchmark, not by tests alone, and every function the benchmark's
tracer wraps resolves with the parameters its wrapper passes.  Importing the
package or its command line loads neither ``dataclasses`` nor ``inspect``.

The package re-exports its public names from ``__init__.py``, so only the
other modules are checked for unused and private imports; every module is
checked for third-party imports.  The checks read the source with ``ast``: a
name counts as used when it appears as an identifier anywhere in the module
(attribute chains such as ``bd.bd_vector`` use ``bd``), and an import is
from the package when it is relative or names ``bdcoords``.
"""
import ast
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bdcoords"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]
ALLOWED_TOP_LEVEL = sys.stdlib_module_names | {"bdcoords"}


def unused_imports(source: str) -> list:
    """(line, name) of every imported name the source never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_imports(source: str) -> list:
    """(line, name) of every underscore name imported from the package."""
    return sorted(
        (node.lineno, alias.name) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "bdcoords")
        for alias in node.names if alias.name.startswith("_"))


def test_checker_flags_an_unused_import():
    source = "import math\nfrom .surfaces import SLOTS, leaf_name\nprint(leaf_name(1, 2))\n"
    assert unused_imports(source) == [(1, "math"), (2, "SLOTS")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_a_private_import():
    source = ("from __future__ import annotations\n"
              "from .multilinear import _det, det\n"
              "from bdcoords.surfaces import _pair\n"
              "from os import _exit\n")
    assert private_imports(source) == [(2, "_det"), (3, "_pair")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def third_party_imports(source: str) -> list:
    """(line, module) of every absolute import naming a module outside the
    standard library and the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in ALLOWED_TOP_LEVEL]
    return sorted(found)


def test_checker_flags_a_third_party_import():
    source = ("from __future__ import annotations\n"
              "import math, numpy as np\n"
              "import os.path\n"
              "from scipy.linalg import det\n"
              "from . import bd\n"
              "from .flags import Flag\n"
              "from bdcoords.surfaces import SLOTS\n")
    assert third_party_imports(source) == [(2, "numpy"), (4, "scipy.linalg")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_standard_library_only(path):
    assert third_party_imports(path.read_text()) == []


# the leading wedge levels of each ratio formula (see ``flags.WedgeTable``)
RATIO_PATTERNS = {"triple ratio": "(p + 1, q, r - 1)", "double ratio": "(p, n - p - 1)"}


def pattern_sites(source: str, pattern: str) -> list:
    """Names of the innermost functions holding a call or a tuple whose
    leading elements are the elements of ``pattern``, as written there."""
    want = [ast.dump(e) for e in ast.parse(pattern, mode="eval").body.elts]
    sites = set()

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elts = (node.args if isinstance(node, ast.Call)
                else node.elts if isinstance(node, (ast.Tuple, ast.List)) else [])
        if [ast.dump(e) for e in elts[:len(want)]] == want:
            sites.add(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(sites)


def test_checker_finds_each_copy_of_a_ratio_pattern():
    source = ("def triple(E, F, G, p, q, r):\n"
              "    def w(a, b, c):\n"
              "        return (a, b, c)\n"
              "    return w(p + 1, q, r - 1) * w(p - 1, q + 1, r)\n"
              "class Table:\n"
              "    def log_triple(self, p, q, r):\n"
              "        levels = [(p + 1, q, r - 1), (p, q - 1, r + 1)]\n"
              "        return self.wedge(p + 1, q, r - 1, 0)\n"
              "    def double(self, p, n):\n"
              "        return self.wedge(p, n - p - 1, 1, 0), (p + 1, q, r)\n")
    assert pattern_sites(source, RATIO_PATTERNS["triple ratio"]) == ["log_triple", "triple"]
    assert pattern_sites(source, RATIO_PATTERNS["double ratio"]) == ["double"]


@pytest.mark.parametrize("ratio", sorted(RATIO_PATTERNS))
def test_each_ratio_formula_has_one_copy(ratio):
    sites = [(path.name, name) for path in ALL_MODULES
             for name in pattern_sites(path.read_text(), RATIO_PATTERNS[ratio])]
    assert sites == [("flags.py", ratio.replace(" ", "_"))]


def entry_read_sites(source: str) -> list:
    """(class, function) of every read of ``.wedge`` or ``._entry`` on a
    table, called or not, with "" for no class: on any receiver but a trie,
    which is ``self`` in ``WedgeTrie`` or an attribute named ``trie`` or
    ``base``."""
    sites = set()

    def visit(node, cls, function):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Attribute) and node.attr in ("wedge", "_entry"):
            receiver = node.value
            on_trie = (getattr(receiver, "attr", None) in ("trie", "base")
                       or (cls == "WedgeTrie" and getattr(receiver, "id", None) == "self"))
            if not on_trie:
                sites.add((cls, function))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, function)

    visit(ast.parse(source), "", None)
    return sorted(sites)


def test_checker_finds_each_read_of_a_table_entry():
    source = ("class WedgeTrie:\n"
              "    def wedge(self, blocks):\n"
              "        return self.base.wedge(blocks) or self.wedge(blocks[1:])\n"
              "class WedgeTable:\n"
              "    def _entry(self, levels):\n"
              "        return self.trie.wedge(levels)\n"
              "    def ratios(self, plan):\n"
              "        return [self._entry(levels) for levels in plan]\n"
              "    def double(self, p):\n"
              "        w = self.wedge\n"
              "        return w(p, 1)\n"
              "def log_ratio(table):\n"
              "    return table.wedge(1, 2)\n")
    assert entry_read_sites(source) == [("", "log_ratio"), ("WedgeTable", "double"),
                                        ("WedgeTable", "ratios")]


def test_ratios_have_one_reader():
    # a table's entries are read by its memo, the two ratio formulas and the
    # genericity check, and by nothing else: no second way to read a ratio
    sites = [(path.name, *site) for path in ALL_MODULES
             for site in entry_read_sites(path.read_text())]
    assert sorted(sites) == [("flags.py", "WedgeTable", name) for name in
                             ("double_ratio", "is_generic", "triple_ratio", "wedge")]


WEDGE_CLASSES = ("WedgeTrie", "WedgeTable")


def wedge_table_sites(source: str) -> list:
    """(line, innermost function, what) of every call that constructs a
    ``WedgeTable`` and every class that derives from ``WedgeTrie`` or
    ``WedgeTable``, by either name or an attribute of that name."""
    def named(node):
        return getattr(node, "id", None) or getattr(node, "attr", None)

    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and named(node.func) == "WedgeTable":
            sites.append((node.lineno, function, "WedgeTable("))
        if isinstance(node, ast.ClassDef):
            sites.extend((node.lineno, function, f"class {node.name}({named(base)})")
                         for base in node.bases if named(base) in WEDGE_CLASSES)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sorted(sites)


def test_checker_finds_each_wedge_table_constructor():
    source = ("from . import flags\n"
              "class Kernel(flags.WedgeTrie):\n"
              "    def table(self, keys, where):\n"
              "        return Table(self, keys, where)\n"
              "class Table(WedgeTable):\n"
              "    pass\n"
              "def build(trie):\n"
              "    return flags.WedgeTable(trie, [0], 'at'), trie.table([0], 'at')\n")
    assert wedge_table_sites(source) == [(2, None, "class Kernel(WedgeTrie)"),
                                         (5, None, "class Table(WedgeTable)"),
                                         (8, "build", "WedgeTable(")]


def test_only_the_trie_builds_a_wedge_table():
    # ``WedgeTrie.table`` is the one constructor of every table, exact or
    # float, and no class derives from these
    sites = [(path.name, *site) for path in ALL_MODULES
             for site in wedge_table_sites(path.read_text())]
    assert [(name, *site) for name, _line, *site in sites] == [
        ("flags.py", "table", "WedgeTable(")]


def defined_names(source: str) -> list:
    """(line, name) of every function and class at the top of a module and
    every method of those classes, dunder methods left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        if isinstance(node, ast.ClassDef):
            found += [(sub.lineno, sub.name) for sub in node.body
                      if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
    return found


def read_names(source: str) -> set:
    """Every identifier, attribute name and string constant in the source:
    the benchmark's tracer names the functions it wraps by string."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_checker_finds_a_name_only_its_definition_mentions():
    source = ("class Table:\n"
              "    def __init__(self):\n"
              "        self.rows = []\n"
              "    def read(self):\n"
              "        return self.rows\n"
              "    def unread(self):\n"
              "        return None\n"
              "def helper():\n"
              "    return Table().read()\n"
              "def orphan():\n"
              "    return 'helper'\n")
    unread = [(line, name) for line, name in defined_names(source)
              if name not in read_names(source)]
    assert unread == [(6, "unread"), (10, "orphan")]


# criterion 8's dimension bookkeeping, which the acceptance suite reads
READ_BY_TESTS_ONLY = {"dimension_counts"}


def test_every_definition_is_reached_outside_the_tests():
    # a name counts as reached when any module of the package other than
    # __init__.py, any script or any benchmark file mentions it, so an
    # unrelated identifier of the same name hides a dead definition
    readers = [*MODULES, *sorted((ROOT / "scripts").glob("*.py")),
               *sorted((ROOT / "bench").glob("*.py"))]
    reached = set().union(*(read_names(path.read_text()) for path in readers))
    unreached = [(path.name, line, name) for path in MODULES
                 for line, name in defined_names(path.read_text())
                 if name not in reached and name not in READ_BY_TESTS_ONLY]
    assert unreached == []


def tracer_names() -> list:
    """(module, name) of every function the benchmark's tracer wraps: its
    ``SPANS`` and ``COUNTED`` tables, read without importing the tracer, plus
    the two it wraps by hand (``Flag.__init__`` and ``det_raw``)."""
    tables = {}
    for node in ast.parse((ROOT / "bench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANS", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANS", "COUNTED"}
    return [*tables["SPANS"], *tables["COUNTED"], ("flags", "Flag"), ("multilinear", "det_raw")]


@pytest.mark.parametrize("traced", tracer_names(), ids=".".join)
def test_every_traced_function_resolves(traced):
    # a traced run fails when one of these is gone, so deleting a traced
    # function fails here first
    module, name = traced
    assert callable(getattr(importlib.import_module(f"bdcoords.{module}"), name, None))


# the functions the tracer wraps by hand in a wrapper of fixed parameters,
# which it passes on by position: ``_det_span`` and ``_flag_span``
TRACER_SIGNATURES = {("multilinear", "det_raw"): ("rows", "mode"),
                     ("veronese", "veronese_flag"): ("p", "n")}


@pytest.mark.parametrize("traced", sorted(TRACER_SIGNATURES), ids=".".join)
def test_every_hand_wrapped_function_keeps_its_parameters(traced):
    module, name = traced
    code = getattr(importlib.import_module(f"bdcoords.{module}"), name).__code__
    assert code.co_varnames[:code.co_argcount] == TRACER_SIGNATURES[traced]
    assert code.co_kwonlyargcount == 0


def bareiss_update_sites(source: str) -> list:
    """Names of the innermost functions holding a floor division whose left
    operand is a difference, the shape of the Bareiss update
    ``(x * pivot - lead * y) // previous pivot``."""
    sites = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv)
                and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Sub)):
            sites.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return sites


def names_in_calls(source: str, function: str) -> set:
    """Every name that a call in the top-level ``function`` of the source
    calls or passes as an argument."""
    [node] = [node for node in ast.parse(source).body
              if isinstance(node, ast.FunctionDef) and node.name == function]
    return {getattr(part, "id", None) or getattr(part, "attr", None)
            for call in ast.walk(node) if isinstance(call, ast.Call)
            for part in (call.func, *call.args)} - {None}


def test_checker_finds_each_bareiss_update():
    source = ("def det(a, n):\n"
              "    def update(x, y, lead, pivot, prev):\n"
              "        return (x * pivot - lead * y) // prev\n"
              "    prev = 1\n"
              "    for k in range(n - 1):\n"
              "        a[k + 1][k] = (a[k][k] - a[k + 1][k]) // prev\n"
              "    return functools.reduce(update, a, ((), 0))\n"
              "def rescale(x, pivot, prev, n):\n"
              "    return x * pivot // prev, (n - 1) / 2, (n * (n - 1)) // 2\n")
    assert bareiss_update_sites(source) == ["update", "det"]
    assert names_in_calls(source, "det") == {"a", "range", "reduce", "update"}
    assert names_in_calls(source, "rescale") == set()


def test_src_has_one_bareiss_elimination():
    # every exact determinant, the trie's states and ``det_int`` alike, runs
    # the update of ``bareiss_append``: ``det_int`` folds the state step
    sites = [(path.name, name) for path in ALL_MODULES
             for name in bareiss_update_sites(path.read_text())]
    assert sites == [("multilinear.py", "bareiss_append")]
    assert "append_row" in names_in_calls((PACKAGE / "multilinear.py").read_text(), "det_int")


def defaulted_parameters(source: str) -> list:
    """(function, parameter, position) of every parameter with a default in
    the source; position counts the call's positional arguments (``self`` and
    ``cls`` are not one), and is None for a keyword-only parameter."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first = len(positional) - len(args.defaults)
            found += [(node.name, arg.arg, first + i - skip)
                      for i, arg in enumerate(positional[first:])]
            found += [(node.name, arg.arg, None)
                      for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
    return found


def passed_arguments(sources) -> dict:
    """Per called name (``f(...)`` or ``x.f(...)``), the keywords and the
    largest number of positional arguments any call in the sources passes;
    ``**`` passes every keyword and ``*`` every position."""
    passed = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            keywords, count = passed.get(name, (set(), 0))
            keywords |= {kw.arg or "**" for kw in node.keywords}
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            passed[name] = keywords, max(count, math.inf if starred else len(node.args))
    return passed


def unpassed_defaults(definitions, callers) -> list:
    """(function, parameter) of every defaulted parameter in ``definitions``
    that no call in ``callers`` passes, by keyword or by position."""
    passed = passed_arguments(callers)
    found = set()
    for source in definitions:
        for function, param, position in defaulted_parameters(source):
            keywords, count = passed.get(function, (set(), 0))
            by_position = position is not None and count > position
            if param not in keywords and "**" not in keywords and not by_position:
                found.add((function, param))
    return sorted(found)


def test_checker_finds_a_default_no_call_passes():
    source = ("def run(n, samples=10, seed=1, *, tol=1e-9, out=None):\n"
              "    return n\n"
              "class Report:\n"
              "    def record(self, deviation, tol=0.0, label=''):\n"
              "        return deviation\n"
              "def main(opts):\n"
              "    run(3, 20, out='x')\n"
              "    Report().record(1.0, 1e-9)\n"
              "    return run(**opts) if opts else None\n")
    assert unpassed_defaults([source], [source.replace("run(**opts)", "run(4)")]) == [
        ("record", "label"), ("run", "seed"), ("run", "tol")]
    assert unpassed_defaults([source], [source]) == [("record", "label")]


# the defaulted parameters that no call in the package, a script or the
# benchmark passes, each kept for a reason; any other such parameter is a
# setting that only ever takes its default, and belongs in a constant
UNPASSED_DEFAULTS = {
    ("closed_leaf_report", "vertex_rule"):
        "two readings of the spiral-sum formula, until an off-Fuchsian oracle "
        "settles one (ROADMAP item 10)",
    ("assemble_surface", "base_points"):
        "the seam through which the chart-invariance tests move the base triangles",
    ("run_genus2_invariants", "n_values"):
        "tests run the suite at other ranks, and `verify --n` is to reach it (ROADMAP item 9)",
    ("run_roundtrip", "n_values"):
        "tests run the suite at other ranks, and `verify --n` is to reach it (ROADMAP item 9)",
    ("sample_valid_shears", "hi"):
        "the side-check stress test samples shears up to 4.0",
}


def test_every_default_is_a_setting_some_caller_sets():
    readers = [*ALL_MODULES, *sorted((ROOT / "scripts").glob("*.py")),
               *sorted((ROOT / "bench").glob("*.py"))]
    found = unpassed_defaults([path.read_text() for path in MODULES],
                              [path.read_text() for path in readers])
    assert [default for default in found if default not in UNPASSED_DEFAULTS] == []
    assert [default for default in found if default in UNPASSED_DEFAULTS] == sorted(
        UNPASSED_DEFAULTS)


# modules that cost a real call their import time and that the package does
# not need: ``dataclasses`` loads ``inspect``, which loads ``ast``, ``dis``
# and ``tokenize``
HEAVY_MODULES = ("dataclasses", "inspect")


@pytest.mark.parametrize("module", ["bdcoords", "bdcoords.cli"])
def test_import_loads_no_heavy_module(module):
    # a fresh interpreter, so the modules this test run has loaded do not
    # count; only what the import itself adds is checked
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            f"import {module}\n"
            f"print(sorted(set({HEAVY_MODULES!r}) & (set(sys.modules) - before)))\n")
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout == "[]\n"
