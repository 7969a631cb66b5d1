"""Tests of the benchmark's own parts; run with `python3 -m pytest -q bench/tests`."""

import copy
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import equideg  # noqa: E402
from check import check_report, load_reference  # noqa: E402
from tracing import TARGETS, Trace  # noqa: E402
from workloads import TRIANGLE_WIDE, relabel  # noqa: E402

# the default 8 x 8 horizon gives the same report as the wide one, faster
TRIANGLE = copy.deepcopy(TRIANGLE_WIDE)
TRIANGLE["horizon"] = {"m_max": 8, "n_max": 8}


def report_text(cfg) -> str:
    return equideg.report_json(equideg.run_report(equideg.load_model(cfg)))


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_relabelled_triangle_is_isomorphic(seed):
    cfg = relabel(TRIANGLE, seed)
    assert relabel(TRIANGLE, 0) == TRIANGLE
    assert check_report(report_text(cfg), load_reference("triangle.json"), exact=False) == []


def test_relabel_permutes_images_and_adjacency():
    cfg = relabel(TRIANGLE, 2)
    assert cfg != TRIANGLE
    for img in cfg["action"]["generator_images"]:
        assert sorted(img) == [0, 1, 2]
    adj = cfg["linearization"]["coupling_matrix"]["adjacency"]
    assert sorted(map(sum, adj)) == [2, 2, 2]


def _holders():
    """Every (namespace, attribute) of the package that holds a function or method."""
    mods = [m for n, m in sys.modules.items() if n == "equideg" or n.startswith("equideg.")]
    return {(id(m), k): v for m in mods for k, v in vars(m).items()} | {
        (id(c), k): v for m in mods for c in vars(m).values() if isinstance(c, type)
        for k, v in vars(c).items()}


def test_wrappers_leave_report_bytes_unchanged_and_are_removed():
    before = _holders()
    plain = report_text(TRIANGLE)
    tr = Trace()
    with tr.installed():
        ot = sys.modules["equideg.orbit_types"]
        assert ot.fold is not before[(id(ot), "fold")]
        traced = report_text(TRIANGLE)
    assert traced == plain
    assert tr.absent == []
    assert tr.calls["run_report"] == 1 and tr.calls["AmbientContext.intern"] > 0
    after = _holders()
    assert all(after[k] is v for k, v in before.items() if k in after)
    assert report_text(TRIANGLE) == plain


def test_wrappers_reach_every_importing_namespace():
    import equideg.bifurcation as bif
    import equideg.degrees as deg
    tr = Trace()
    with tr.installed():
        assert deg.fold is bif.fold is equideg.fold is sys.modules["equideg.orbit_types"].fold
        assert getattr(deg.fold, "__wrapped__", None) is not None


def test_two_traced_runs_count_the_same():
    counts = []
    for _ in range(2):
        tr = Trace()
        with tr.installed():
            report_text(TRIANGLE)
        counts.append(tr.counts())
        assert sum(tr.self_s.values()) > 0
    assert counts[0] == counts[1]
    assert counts[0]["burnside.product_calls"] > 0


def test_missing_entry_point_is_reported_absent(monkeypatch):
    import tracing
    monkeypatch.setattr(tracing, "TARGETS", TARGETS + (("orbit_types", "no_such_entry", "span"),))
    tr = Trace()
    with tr.installed():
        pass
    assert tr.absent == ["orbit_types.no_such_entry"]
