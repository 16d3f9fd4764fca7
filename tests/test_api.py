"""The package's public surface: the exported names and the README quickstart."""
import ast
import importlib
import math
import os
import re

import pytest

import frechetsimp
from frechetsimp import _disk
from frechetsimp.simplify import CASES

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_public_names():
    assert sorted(frechetsimp.__all__) == [
        "InternalGeometryError", "InvalidInputError", "Metric", "SimplificationResult",
        "ball_segment_interval", "shortcut_is_valid", "shortcuts", "simplify",
        "simplify_baseline",
    ]
    for name in frechetsimp.__all__:
        assert hasattr(frechetsimp, name), name
    assert importlib.import_module("frechetsimp.simplify").InvalidInputError is \
        frechetsimp.InvalidInputError


def test_readme_quickstart_runs():
    with open(README) as fh:
        text = fh.read()
    section = text[text.index("## Library quickstart"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    ns = {}
    exec(code, ns)
    res = ns["res"]
    assert res.indices == [0, 4]
    assert res.link_count == 1
    assert res.stats["link_distance"] == 1
    points = ns["points"]
    metric = frechetsimp.Metric
    assert frechetsimp.shortcuts(points, 0, 1.0, metric.LINF) == [1, 2, 3, 4]
    assert frechetsimp.shortcuts(points, 0, 1.0, metric.L1) == \
        [k for k in range(1, 5) if frechetsimp.shortcut_is_valid(points, 0, k, 1.0, metric.L1)]
    assert frechetsimp.shortcut_is_valid(points, 0, 4, 1.0)


def test_public_calls_take_a_metric_by_value():
    # L2 rejects the shortcut <p0, p3> at delta 0.5 that Linf accepts
    zigzag = [(0, 0), (1, 0.9), (2, 0), (3, 0.9), (4, 0)]
    assert frechetsimp.shortcut_is_valid(zigzag, 0, 3, 0.5, "l2") is False
    assert frechetsimp.ball_segment_interval(zigzag[2], 0.5, "l2", zigzag[0], zigzag[3]) is None
    assert frechetsimp.shortcuts(zigzag, 0, 0.5, "l2") == [1]
    for metric in frechetsimp.Metric:
        v = metric.value
        assert (frechetsimp.shortcut_is_valid(zigzag, 0, 3, 0.5, v)
                == frechetsimp.shortcut_is_valid(zigzag, 0, 3, 0.5, metric))
        assert (frechetsimp.ball_segment_interval(zigzag[2], 0.5, v, zigzag[0], zigzag[3])
                == frechetsimp.ball_segment_interval(zigzag[2], 0.5, metric, zigzag[0], zigzag[3]))
        assert (frechetsimp.shortcuts(zigzag, 0, 0.5, v)
                == frechetsimp.shortcuts(zigzag, 0, 0.5, metric))


PTS = [(0, 0), (1, 0.2), (2, -0.1), (3, 0), (4, 5)]
NAN = float("nan")


@pytest.mark.parametrize("metric", list(frechetsimp.Metric), ids=lambda m: m.value)
@pytest.mark.parametrize("i", [-1, -5, 5, 6])
def test_shortcuts_rejects_a_vertex_index_out_of_range(i, metric):
    # Python would wrap a negative index; shortcut_is_valid's rule holds instead
    with pytest.raises(IndexError):
        frechetsimp.shortcuts(PTS, i, 1.0, metric)
    with pytest.raises(IndexError):
        frechetsimp.shortcut_is_valid(PTS, i, 4, 1.0, metric)


@pytest.mark.parametrize("metric", list(frechetsimp.Metric), ids=lambda m: m.value)
@pytest.mark.parametrize("delta", [-1.0, 0.0])
def test_shortcuts_rejects_a_nonpositive_delta(delta, metric):
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcuts(PTS, 0, delta, metric)
    _oracle_rejects(PTS, delta, metric)
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcut_is_valid(PTS, 0, 1, delta, metric)


def _oracle_rejects(pts, delta, metric):
    """Both scalar oracles raise InvalidInputError on ``pts[0:3]`` and on the
    shortcut over all of ``pts``."""
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.ball_segment_interval(pts[1], delta, metric, pts[0], pts[2])
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcut_is_valid(pts, 0, len(pts) - 1, delta, metric)


@pytest.mark.parametrize("metric", list(frechetsimp.Metric), ids=lambda m: m.value)
@pytest.mark.parametrize("delta", [NAN, math.inf])
def test_shortcuts_rejects_a_nonfinite_delta(delta, metric):
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcuts(PTS, 0, delta, metric)
    _oracle_rejects(PTS, delta, metric)


@pytest.mark.parametrize("metric", list(frechetsimp.Metric), ids=lambda m: m.value)
@pytest.mark.parametrize("bad", [(NAN, 0.0), (2.0, math.inf)])
def test_shortcuts_rejects_a_nonfinite_coordinate(bad, metric):
    pts = PTS[:2] + [bad] + PTS[3:]
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcuts(pts, 0, 1.0, metric)
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.simplify(pts, 1.0, metric)
    # the oracles reject the vertices they read: the three points, or p_i
    # ... p_k of a shortcut that bridges a vertex
    _oracle_rejects(pts[1:4], 1.0, metric)
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcut_is_valid(pts, 2, 4, 1.0, metric)
    assert frechetsimp.shortcut_is_valid(pts, 2, 3, 1.0, metric)


def test_shortcuts_rejects_an_unknown_metric():
    with pytest.raises(frechetsimp.InvalidInputError):
        frechetsimp.shortcuts(PTS, 0, 1.0, "l7")
    _oracle_rejects(PTS, 1.0, "l7")


def test_shortcuts_of_every_vertex_in_range():
    for metric in frechetsimp.Metric:
        for i in range(len(PTS)):
            assert frechetsimp.shortcuts(PTS, i, 1.0, metric) == [
                k for k in range(i + 1, len(PTS))
                if frechetsimp.shortcut_is_valid(PTS, i, k, 1.0, metric)]


# -- the single sweep dispatch, checked on the source ----------------------------

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "frechetsimp")


def _modules():
    """(module name, syntax tree) of every module of the package."""
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name[:-3], ast.parse(fh.read())


def _names(tree):
    """Every identifier the module names: variables, attributes, parameters,
    keywords, definitions, imports and identifier-like strings (``__slots__``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.alias):
            yield node.name
            yield node.asname
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def _callers(tree, name):
    """Names of the functions whose bodies call ``name`` (None: module level)."""
    return _where(tree, lambda node: isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name))


def _users(tree, name):
    """Names of the functions whose bodies name ``name`` as a variable, an
    attribute or an import (None: module level)."""
    return _where(tree, lambda node: name in (
        getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)))


def _where(tree, hit):
    """Names of the functions whose bodies hold a node ``hit`` accepts
    (None: module level); a definition's own name is not in its body."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if hit(child):
                found.add(where)
            visit(child, where)

    visit(tree, None)
    return found


def _imported(tree):
    """The package modules a module imports, by name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level or mod.split(".")[0] == "frechetsimp":
                mod = mod.removeprefix("frechetsimp").lstrip(".")
                yield from [mod] if mod else (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("frechetsimp."):
                    yield a.name.split(".", 1)[1]


def test_one_place_picks_the_sweep():
    modules = dict(_modules())
    # the engine is a leaf: the package's paths run the two sweeps alone
    assert {mod for mod, tree in modules.items() if "_engine" in _imported(tree)} == set()
    # and sweep_rows alone runs them
    sweeps = {(mod, fn) for mod, tree in modules.items() for fn in _callers(tree, "_scalar")}
    assert sweeps == {("simplify", "sweep_rows")}
    named = {(mod, fn) for mod, tree in modules.items() if mod not in ("_disk", "_square")
             for fn in _users(tree, "_scalar")}
    assert named == {("simplify", "sweep_rows")}
    for mod, tree in modules.items():
        names = set(_names(tree))
        assert not any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                       and node.name == "prepare" for node in ast.walk(tree)), mod
        assert "svg_sink" not in names, mod
        if mod != "_engine":
            assert not names & {"Sweep", "InvariantChecker"}, mod
        if mod not in ("geometry", "_engine"):
            assert not names & {"CircleKernel", "SquareKernel"}, mod
        # the sweeps add into their call's accumulator and build no record
        if mod in ("_disk", "_square"):
            assert "SweepStats" not in names, mod
    # each rule once: _disk has one crossing scan besides case MM's, and the
    # scalar oracle maps coordinates where it is entered, with no helper
    defined = {mod: {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
               for mod, tree in modules.items()}
    assert {fn for fn in defined["_disk"] if fn.startswith("_scan")} == {"_scan", "_scan_mm"}
    assert "_interval" not in defined["oracle"]
    # and the accumulator's layout is defined in simplify alone
    assert {case: getattr(_disk, "_" + case) for case in CASES} == {
        case: CASES.index(case) for case in CASES}


def _handled(tree, name):
    """Names of the functions with an ``except`` clause that names ``name``
    (None: module level)."""
    def names(node):
        kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        return {getattr(k, "id", None) or getattr(k, "attr", None) for k in kinds if k}
    return _where(tree, lambda node: isinstance(node, ast.ExceptHandler) and name in names(node))


def test_one_place_maps_failures_to_exit_codes():
    # cli.main alone turns the library's errors into exit codes; the
    # counterexample write of _cmd_verify, which exits 3, is the one exception
    tree = dict(_modules())["cli"]
    handled = {(fn, name) for name in ("InvalidInputError", "InstanceError", "ParseError",
                                       "OSError") for fn in _handled(tree, name)}
    assert handled == {("main", "InvalidInputError"), ("main", "InstanceError"),
                       ("main", "ParseError"), ("main", "OSError"), ("_cmd_verify", "OSError")}
