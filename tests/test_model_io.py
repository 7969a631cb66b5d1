import copy
import enum
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equideg.errors import (
    ComputationError,
    ConfigError,
    EquivarianceViolation,
    NonMonotoneCurve,
    NonScalarIsotypicBlock,
    SchemaError,
)
from equideg.model_io import (
    bundled_config,
    load_model,
    model_kernel_mode,
    report_json,
    run_report,
)
from equideg.orbit_types import ROT, fixed_dim_irrep, fold, maximal_types
from equideg.reps import split_gamma_prime
from equideg.spectrum import sigmoid

from test_generality import TRIANGLE

# reports as the CLI writes them, kept byte-exact by the benchmark's check
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference"

W1 = np.array([-1.0, 1.0, -1.0, 1.0, 0.0, 0.0])
W2 = np.array([1.0, 0.0, 1.0, 0.0, -1.0, -1.0])


def test_bundled_weights_and_multiplicities(model):
    assert {j: round(w, 9) for j, w in model.weights.items()} == {0: 16.0, 2: 22.0, 3: 20.0}
    spec = [(c.j, round(model.weights[c.j], 9), c.irrep_dim * c.multiplicity)
            for c in model.components]
    assert spec == [(0, 16.0, 1), (2, 22.0, 2), (3, 20.0, 3)]
    # numeric eigensolve oracle on the assembled 6x6 coupling
    vals = sorted(np.linalg.eigvalsh(model.coupling).round(9))
    assert vals == [16.0, 20.0, 20.0, 20.0, 22.0, 22.0]


def test_crossing_eigenspace_contains_reference_vectors(model):
    basis = model.component(2).basis
    for w in (W1, W2):
        proj = basis @ (basis.T @ w)
        assert np.abs(proj - w).max() < 1e-9


def test_identity_coupling_gives_equal_curves():
    cfg = copy.deepcopy(bundled_config("six_membranes"))
    cfg["linearization"]["coupling_matrix"] = np.eye(6).tolist()
    cfg["linearization"]["a"] = 2.0
    m = load_model(cfg)
    assert all(abs(w - 1.0) < 1e-12 for w in m.weights.values())
    for c in m.curves:
        assert abs(c.value(0.3) - (2.0 + 1.0 / (1.0 + np.exp(-0.3)))) < 1e-12


def test_non_equivariant_coupling_rejected():
    cfg = copy.deepcopy(bundled_config("six_membranes"))
    C = np.eye(6)
    C[0, 1] = C[1, 0] = 0.5  # couples one adjacent pair only
    cfg["linearization"]["coupling_matrix"] = C.tolist()
    with pytest.raises(EquivarianceViolation):
        load_model(cfg)


def test_asymmetric_coupling_rejected():
    cfg = copy.deepcopy(bundled_config("six_membranes"))
    C = np.eye(6)
    C[0, 1] = 1.0
    cfg["linearization"]["coupling_matrix"] = C.tolist()
    with pytest.raises(SchemaError):
        load_model(cfg)


def test_non_scalar_isotypic_block_rejected():
    cfg = {
        "name": "two-copies",
        "group": {"degree": 1, "gamma_generators": [], "antipodal": True},
        "action": {"type": "matrices", "generator_matrices": [], "dimension": 2},
        "linearization": {"a": 1.0, "coupling_matrix": [[1.0, 0.0], [0.0, 2.0]],
                          "zeta": "sigmoid"},
        "horizon": {"m_max": 4, "n_max": 4},
    }
    with pytest.raises(NonScalarIsotypicBlock):
        load_model(cfg)


def test_constant_curve_rejected():
    cfg = copy.deepcopy(bundled_config("six_membranes"))
    cfg["linearization"]["coupling_matrix"] = {
        "template": "adjacency", "c": 4.0, "d": -1.0,
        "adjacency": cfg["linearization"]["coupling_matrix"]["adjacency"]}
    # c + 4d = 0 makes the radial curve constant
    with pytest.raises(NonMonotoneCurve):
        load_model(cfg)


def test_schema_errors():
    with pytest.raises(SchemaError):
        load_model({"group": {"degree": 4}})
    with pytest.raises(SchemaError):
        load_model("{ not json")


@pytest.mark.parametrize("section, key, value", [
    ("group", "gamma_generators", ["(1 2 3 4)", "(2 3 4) x"]),
    ("analysis", "mode", "bogus"),
    ("horizon", "n_max", 10 ** 6),
    ("group", "subgroup_names", ["Z1"] * 32),
    ("analysis", "alpha_bracket", -1),
    ("analysis", "alpha_bracket", 0),
    ("linearization", "a", 1e6),
    ("action", "generator_images", [["x", 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]),
    ("action", "generator_images", [[None, 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]),
    ("action", "generator_images", [[1.0, 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]),
    ("action", "generator_images", [[], []]),
])
def test_malformed_field_is_a_config_error_naming_it(section, key, value):
    cfg = bundled_config("six_membranes")
    cfg[section][key] = value
    with pytest.raises(ConfigError, match=f"{section}.{key}"):
        load_model(cfg)


def test_non_utf8_config_is_a_schema_error(tmp_path):
    p = tmp_path / "latin1.json"
    p.write_bytes('{"name": "membranes \u00e0 six"}'.encode("latin-1"))
    with pytest.raises(SchemaError, match="not valid UTF-8 JSON: 'utf-8' codec"):
        load_model(p)


def test_breakpoint_zeta_sampled_from_the_sigmoid():
    """The triangle's sigmoid tabulated on [-30, 30] has the sigmoid's
    critical points and verdicts, and its fast-path checks all pass."""
    cfg = copy.deepcopy(TRIANGLE)
    cfg["linearization"]["zeta"] = {"breakpoints": [[x / 2, sigmoid(x / 2)]
                                                    for x in range(-60, 61)]}
    tabulated, exact = load_model(cfg), load_model(TRIANGLE)
    assert tabulated.problem.curves[0].breakpoints is not None
    assert [cp.id for cp in tabulated.critical] == [cp.id for cp in exact.critical]
    assert tabulated.critical
    rep = run_report(tabulated)
    assert [e["status"] for e in rep["fast_path_checks"]] == ["ok"] * 4
    assert ([v["conclusion"] for v in rep["verdicts"]]
            == [v["conclusion"] for v in run_report(exact)["verdicts"]])


def test_subgroup_name_list_names_the_classes():
    """A group.subgroup_names list is taken as the class names, in class
    order; the generated names given as a list give the same report."""
    auto = load_model(TRIANGLE)
    cfg = copy.deepcopy(TRIANGLE)
    cfg["group"]["subgroup_names"] = list(auto.ctx.class_names)
    named = load_model(cfg)
    assert named.ctx.class_names == auto.ctx.class_names
    assert report_json(run_report(named)) == report_json(run_report(auto))
    cfg["group"]["subgroup_names"] = [f"K{i}" for i in range(len(auto.ctx.class_names))]
    renamed = load_model(cfg)
    assert renamed.ctx.class_names == cfg["group"]["subgroup_names"]
    assert renamed.ctx.unit.symbol == "(G)"
    maximal = [v["orbit_type"] for v in run_report(renamed)["verdicts"]]
    assert maximal and all(re.fullmatch(r"\(\S+ x\^K\d+ K\d+\)", s) for s in maximal)


def test_text_variant_has_empty_critical_set():
    m = load_model(bundled_config("six_membranes_text_variant"))
    assert m.critical == []
    rep = run_report(m)
    assert rep["critical_points"] == []
    assert rep["rabinowitz_sum"]["terms"] == []
    assert all(v["conclusion"] == "Inconclusive" for v in rep["verdicts"])


def test_report_roundtrip_and_determinism(model):
    rep = run_report(model)
    text = report_json(rep)
    assert json.loads(text) == rep
    assert report_json(run_report(model)) == text
    assert text == (REFERENCE / "six_membranes.json").read_text()
    assert {e["status"] for e in rep["fast_path_checks"]} == {"ok"}
    assert rep["warnings"]


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 7


_LEAVES = (st.integers() | st.sampled_from([2 ** 70, -(2 ** 70), _Level.LOW, _Level.HIGH])
           | st.floats().map(np.float64)
           | st.sampled_from([-0.0, 1e16, 1e-7, float("nan"), float("inf"), -float("inf")])
           | st.floats() | st.booleans() | st.none() | st.text(max_size=6))
_KEYS = st.text(max_size=6) | st.sampled_from(["", "\u00e9t\u00e9", "\u03b1\u207a", "a\"b\\c\n\t\x00"])
_TREES = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_TREES)
def test_report_json_is_json_dumps_indent_2(tree):
    assert report_json(tree) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("value", [set(), np.int64(3), object(), {1: 2}, [{"a": object()}]])
def test_report_json_rejects_non_json_values_and_non_str_keys(value):
    with pytest.raises(TypeError):
        report_json(value)


def test_kernel_mode_symmetry_condition(model):
    km = model_kernel_mode(model, (1, 3, 2), "(D6^D3 x^D4 D4p)")
    assert np.abs(km.b_vec).max() < 1e-9
    a = km.a_vec / np.linalg.norm(km.a_vec)
    target = W1 + 2 * W2
    target = target / np.linalg.norm(target)
    assert min(np.abs(a - target).max(), np.abs(a + target).max()) < 1e-9


def test_kernel_mode_default_vector(model):
    km = model_kernel_mode(model, (1, 3, 0))
    # radial block: the mode is theta-independent up to the cos factor and
    # proportional to the constant vector
    a = km.a_vec / np.linalg.norm(km.a_vec)
    assert np.abs(np.abs(a) - 1 / np.sqrt(6)).max() < 1e-9


# two identical uncoupled triangle layers: both S3 blocks have multiplicity 2
_TRIANGLE_ADJ = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
TWO_TRIANGLES = {
    "name": "two-triangles",
    "group": {"degree": 3, "gamma_generators": ["(1 2 3)", "(1 2)"], "antipodal": True},
    "action": {"type": "permutation",
               "generator_images": [[1, 2, 0, 4, 5, 3], [1, 0, 2, 4, 3, 5]]},
    "linearization": {
        "a": 12.0,
        "coupling_matrix": {
            "template": "adjacency",
            "c": 22.0 / 3.0,
            "d": -5.0 / 3.0,
            "adjacency": [row + [0, 0, 0] for row in _TRIANGLE_ADJ]
                         + [[0, 0, 0] + row for row in _TRIANGLE_ADJ],
        },
        "zeta": "sigmoid",
    },
    "horizon": {"m_max": 8, "n_max": 8},
    "analysis": {"mode": "relative", "k_fixed": True, "alpha_bracket": 1.0},
}


def _symmetry_residual(model, km, t):
    """max |M x - x| / max |x| over the elements of t's representative, with
    x = [a_vec; b_vec] and M the element's matrix on W_m (x) V in V-coordinates."""
    x = np.concatenate([km.a_vec, km.b_vec])
    split = split_gamma_prime(model.gamma, model.gamma_prime)
    worst = 0.0
    for kind, tick, g in t.rep.elems:
        gi, sign = split[g]
        phi = 2.0 * math.pi * km.cp.m * tick / t.rep.level
        c, s = math.cos(phi), math.sin(phi)
        R = np.array([[c, -s], [s, c]] if kind == ROT else [[c, s], [s, -c]])
        worst = max(worst, np.abs(np.kron(R, sign * model.action.matrices[gi]) @ x - x).max())
    return worst / np.abs(x).max()


@pytest.mark.parametrize("which", ["six", "two_triangles"])
def test_kernel_mode_has_the_symmetry_it_names(model, which):
    if which == "two_triangles":
        model = load_model(TWO_TRIANGLES)
        assert {c.multiplicity for c in model.components} == {2}
    checked = 0
    for cp in model.critical:
        if cp.m == 0:
            continue
        for h in maximal_types(model.ctx, 1, cp.j):
            u = fold(model.ctx, h, cp.m)
            if fixed_dim_irrep(model.ctx, u, cp.m, cp.j) != 1:
                continue
            km = model_kernel_mode(model, cp.id, h.symbol)
            assert _symmetry_residual(model, km, u) <= 1e-12, (cp.id, h.symbol)
            checked += 1
    assert checked


def test_config_echo_roundtrip():
    cfg = bundled_config("six_membranes")
    m = load_model(json.dumps(cfg))
    assert m.config == cfg


def test_report_command_exit_3_on_mismatch(monkeypatch, capsys):
    import equideg.cli as cli
    from equideg.errors import CrossCheckMismatch

    def boom(model):
        raise CrossCheckMismatch("forced for the error-path test")

    monkeypatch.setattr(cli, "run_report", boom)
    code = cli.main(["--config", "bundled:six_membranes", "report"])
    assert code == 3
    assert "computation error" in capsys.readouterr().err


def test_flagged_checks_are_reported_not_raised(model, monkeypatch, tmp_path):
    """A coefficient rule that disagrees with the product value is flagged in
    the report, which is still written in full, and the CLI exits 3."""
    import equideg.bifurcation as bif
    import equideg.cli as cli

    coeff_scale = bif.coeff_scale
    monkeypatch.setattr(bif, "coeff_scale", lambda ctx, u: -coeff_scale(ctx, u))
    rep = run_report(model)
    checks = rep["fast_path_checks"]
    assert len(checks) == 17
    assert all(e["status"].startswith("mismatch:") for e in checks)
    flagged = {(tuple(e["id"]), e["orbit_type"]) for e in checks}
    assert not [c for c in rep["certificates"] if (tuple(c["id"]), c["orbit_type"]) in flagged]
    out = tmp_path / "report.json"
    code = cli.main(["--config", "bundled:six_membranes", "--format", "json",
                     "--out", str(out), "report"])
    assert code == 3
    assert json.loads(out.read_text())["fast_path_checks"] == checks


def test_multiplicity_two_block_with_scalar_coupling():
    cfg = {
        "name": "two-copies-scalar",
        "group": {"degree": 1, "gamma_generators": [], "antipodal": True},
        "action": {"type": "matrices", "generator_matrices": [], "dimension": 2},
        "linearization": {"a": 10.0, "coupling_matrix": [[2.0, 0.0], [0.0, 2.0]],
                          "zeta": "sigmoid"},
        "horizon": {"m_max": 4, "n_max": 4},
    }
    m = load_model(cfg)
    assert [c.multiplicity for c in m.components] == [2]
    assert list(m.weights.values()) == [2.0]
    assert m.critical == []  # window (10, 12) holds no squared zero


# -- mutated configs ---------------------------------------------------------------

_BAD_VALUES = (None, True, -1, 0, 0.5, 1e6, float("nan"), float("inf"), "x", "", [], {},
               [[]], [0])


def _paths(value, prefix=()):
    """The key or index path of every entry under value, parents first."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _at(cfg, path):
    for key in path:
        cfg = cfg[key]
    return cfg


def _mutate(cfg, kind, pick, value, within=()):
    """Delete an entry, append a copy of a list's last item to it (or 0 to an
    empty one), or set an entry to value; pick indexes the candidate paths,
    those at or under the path within.  Returns the path mutated, or None."""
    paths = [p for p in _paths(cfg) if p[:len(within)] == within
             and (kind != "grow" or isinstance(_at(cfg, p), list))]
    if not paths:
        return None
    path = paths[pick % len(paths)]
    parent, key = _at(cfg, path[:-1]), path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "grow":
        parent[key].append(copy.deepcopy(parent[key][-1]) if parent[key] else 0)
    else:
        parent[key] = copy.deepcopy(value)
    return path


_MUTATIONS = st.lists(st.tuples(st.sampled_from(("delete", "grow", "set")),
                                st.integers(0, 1000), st.sampled_from(_BAD_VALUES)),
                      min_size=1, max_size=2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_MUTATIONS)
def test_mutated_config_fails_only_with_its_error_kind(mutations):
    """One or two mutations of the triangle config: load_model raises only a
    ConfigError, and run_report on what loads only a ComputationError.  When
    the first mutation's pick is odd, the second is drawn from the entry the
    first one mutated and the entries under it, so about half the pairs hit
    one field twice; uniform picks over the config's 45 entries rarely do."""
    cfg = copy.deepcopy(TRIANGLE)
    within = ()
    for kind, pick, value in mutations:
        path = _mutate(cfg, kind, pick, value, within)
        within = path if path and pick % 2 else ()
    try:
        model = load_model(cfg)
    except ConfigError:
        return
    try:
        run_report(model)
    except ComputationError:
        pass
