import ast
import concurrent.futures
from pathlib import Path

import pytest

import equideg
from equideg.bifurcation import local_invariant
from equideg.burnside import BurnsideElement
from equideg.degrees import basic_degree
from equideg.orbit_types import parse_symbol


def test_concurrent_invariants(model, prob):
    def work(cp):
        return dict(local_invariant(prob, cp).value.sorted_terms())

    serial = [work(cp) for cp in model.critical]
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(work, model.critical))
    assert parallel == serial


def test_concurrent_degree_queries(model):
    ctx = model.ctx

    def work(arg):
        m, j = arg
        return dict(basic_degree(ctx, m, j).sorted_terms())

    jobs = [(m, j) for m in (1, 3) for j in (0, 2, 3)] * 2
    with concurrent.futures.ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(work, jobs))
    assert results[: len(jobs) // 2] == results[len(jobs) // 2:]


def test_ambient_convention(ctx):
    d = basic_degree(ctx, 1, 2)
    t = parse_symbol(ctx, "(D6^Z1 x^V4 S4p)")
    # without the table rescale the rotation-kernel coefficient is half as large
    assert d.coeff_ambient(t) == -1
    assert d.coeff(t) == -2
    assert d * d == BurnsideElement.unit(ctx)


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    meta = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert meta["project"]["version"] == equideg.__version__


def _used_names(tree) -> set[str]:
    """Names a module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        notes = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for note in notes:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used_names(ast.parse(note.value, mode="eval"))
    return used


def test_no_unused_imports_in_the_package():
    # __init__ imports only to re-export
    src = Path(equideg.__file__).resolve().parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno}: {name}")
    assert not unused
