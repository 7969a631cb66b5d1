"""End-to-end run on a second, smaller symmetry group (S3 ring of membranes).

Exercises the non-bundled paths: generated subgroup-class names, a different
finite factor (S3 x Z2), and verdicts at folding level 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from equideg.bifurcation import folding_profile, global_verdict, local_invariant
from equideg.burnside import BurnsideElement
from equideg.degrees import basic_degree
from equideg.model_io import load_model, report_json, run_report
from equideg.orbit_types import maximal_types

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

TRIANGLE = {
    "name": "three-membranes",
    "group": {"degree": 3, "gamma_generators": ["(1 2 3)", "(1 2)"], "antipodal": True},
    "action": {"type": "permutation", "generator_images": [[1, 2, 0], [1, 0, 2]]},
    "linearization": {
        "a": 12.0,
        "coupling_matrix": {
            "template": "adjacency",
            "c": 22.0 / 3.0,
            "d": -5.0 / 3.0,
            "adjacency": [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
        },
        "zeta": "sigmoid",
    },
    "horizon": {"m_max": 8, "n_max": 8},
    "analysis": {"mode": "relative", "k_fixed": True, "alpha_bracket": 1.0},
}


@pytest.fixture(scope="module")
def tri():
    return load_model(TRIANGLE)


def test_triangle_decomposition(tri):
    # trivial block weight c + 2d = 4, standard block weight c - d = 9
    ws = sorted(round(w, 9) for w in tri.weights.values())
    assert ws == [4.0, 9.0]
    dims = sorted(c.irrep_dim for c in tri.components)
    assert dims == [1, 2]
    assert tri.gamma_prime.order == 12


def test_triangle_critical_points(tri):
    # both windows catch only the frequency-1 first zero; the stiffer block
    # (weight 9) crosses at the lower saturation level, hence first
    assert [cp.id for cp in tri.critical] == [(1, 1, 1), (1, 1, 0)]
    assert tri.critical[0].alpha < tri.critical[1].alpha


def test_triangle_degrees_are_involutive(tri):
    u = BurnsideElement.unit(tri.ctx)
    for comp in tri.components:
        for m in (0, 1, 2):
            d = basic_degree(tri.ctx, m, comp.j)
            assert d * d == u


def test_triangle_invariants_and_verdicts(tri):
    prob = tri.problem
    for cp in tri.critical:
        inv = local_invariant(prob, cp)
        assert not inv.value.is_zero()
        for h in maximal_types(tri.ctx, 1, cp.j):
            prof = folding_profile(prob, cp, h)
            assert prof.s_max == 1
            v = global_verdict(prob, h)
            assert v.conclusion == "UnboundedBranch"
            assert v.s_bar == 1
            assert v.members == (cp.id,)


def test_triangle_report(tri):
    rep = run_report(tri)
    assert {e["status"] for e in rep["fast_path_checks"]} == {"ok"}
    # the 8 x 8 horizon gives the same report as the benchmark's 24 x 24 one
    assert report_json(rep) == (REFERENCE / "triangle.json").read_text()
    assert rep["rabinowitz_sum"]["terms"]
    # generated names appear for the unnamed finite factor
    assert any("U" in t["orbit_type"] or "x" in t["orbit_type"]
               for t in rep["verdicts"])


def test_triangle_report_under_optimize(tmp_path):
    # python -O strips assert statements; every check the report relies on
    # must still run and the report must not change
    cfg = tmp_path / "triangle.json"
    cfg.write_text(json.dumps(TRIANGLE))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "equideg.cli", "--config", str(cfg),
         "--format", "json", "report"],
        capture_output=True, text=True, env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    assert out.stdout == (REFERENCE / "triangle.json").read_text()
