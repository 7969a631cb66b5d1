import contextlib
import copy
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equideg import cli, model_io
from equideg.burnside import format_terms
from equideg.cli import main
from equideg.model_io import bundled_config, load_model
from equideg.orbit_types import fixed_dim_irrep, fold, maximal_types

from test_generality import TRIANGLE
from test_ring import ring


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bessel_text(capsys):
    code, out, _ = run_cli(capsys, "bessel", "--m-max", "2", "--n-max", "3")
    assert code == 0
    assert "5.783" in out


def test_bessel_json(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "bessel", "--m-max", "1", "--n-max", "2")
    assert code == 0
    data = json.loads(out)
    assert abs(data["entries"][0][0] - 5.783) < 2e-3


def test_bessel_horizon_outside_supported_range_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "bessel", "--m-max", "2", "--n-max", "0")
    assert code == 2
    assert "supported range" in err


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes", "decompose")
    assert code == 0
    assert "chi2" in out and "weight 22" in out


def test_critical_points_json(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes",
                           "--format", "json", "critical-points")
    assert code == 0
    ids = [tuple(r["id"]) for r in json.loads(out)]
    assert ids == [(1, 3, 2), (1, 3, 3), (1, 3, 0), (2, 1, 2), (2, 1, 3)]


def test_basic_degree_command(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes",
                           "basic-degree", "--m", "1", "--j", "0")
    assert code == 0
    assert out.strip() == "(G) - (D2^D1 x^S4 S4p)"


def test_basic_degree_command_json(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes", "--format", "json",
                           "basic-degree", "--m", "1", "--j", "0")
    assert code == 0
    assert json.loads(out) == {"m": 1, "j": 0,
                               "terms": [["(G)", 1], ["(D2^D1 x^S4 S4p)", -1]]}


def test_invariant_command_text_is_the_json_terms(capsys):
    base = ("--config", "bundled:six_membranes")
    code, out, _ = run_cli(capsys, *base, "invariant", "--id", "1,3,2")
    assert code == 0
    terms = json.loads(run_cli(capsys, *base, "--format", "json", "invariant",
                               "--id", "1,3,2")[1])["terms"]
    assert out == format_terms(terms) + "\n"
    assert "+ 2(D18^Z3 x^V4 S4p)" in out


def test_invariant_command(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes",
                           "--format", "json", "invariant", "--id", "1,3,2")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "relative"
    assert ["(D18^Z3 x^V4 S4p)", 2] in data["terms"]


def test_global_command(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes",
                           "global", "--orbit-type", "(D2^D1 x^S4 S4p)")
    assert code == 0
    assert "UnboundedBranch" in out
    assert "(D6^D3 x^S4 S4p)" in out


def test_kernel_grid_csv(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "--config", "bundled:six_membranes",
                         "--out", str(out_path), "kernel-grid", "--id", "1,3,2",
                         "--orbit-type", "(D6^D3 x^D4 D4p)", "--resolution", "6")
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "r,theta,u1,u2,u3,u4,u5,u6"
    assert len(lines) == 1 + 36


def test_missing_config_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "critical-points")
    assert code == 2
    assert "config" in err


@pytest.mark.parametrize("args, flag", [
    (("--config", "{dir}"), "--config"),
    (("--config", "{dir}/latin1.json"), "--config"),
    (("--config", "{dir}/nosuch.json"), "--config"),
    (("--config", "bundled:nosuch"), "--config"),
    (("--config", "bundled:six_membranes", "--out", "{dir}"), "--out"),
], ids=["config_directory", "config_not_utf8", "config_missing", "bundled_unknown",
        "out_directory"])
def test_unreadable_path_is_a_config_error_naming_its_flag(capsys, tmp_path, args, flag):
    (tmp_path / "latin1.json").write_bytes('{"name": "membranes à six"}'.encode("latin-1"))
    args = [a.format(dir=tmp_path) for a in args]
    code, _, err = run_cli(capsys, *args, "critical-points")
    assert code == 2
    assert err.startswith(f"config error: {flag}: ")
    assert "Traceback" not in err and "equideg/data" not in err


def test_unknown_bundled_name_lists_the_bundled_ones():
    with pytest.raises(FileNotFoundError) as err:
        bundled_config("nosuch")
    assert str(err.value) == ("no bundled config 'nosuch'; bundled: six_membranes, "
                              "six_membranes_text_variant")


def test_bad_config_is_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{\"group\": {}}")
    code, _, err = run_cli(capsys, "--config", str(p), "critical-points")
    assert code == 2


def test_report_text(capsys):
    code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes", "report")
    assert code == 0
    assert "rabinowitz sum" in out
    assert "0 flagged" in out


@pytest.mark.parametrize("path, value", [
    (("group",), 3),
    (("action",), 7),
    (("group", "gamma_generators"), 5),
    (("linearization",), 4),
], ids=["group", "action", "gamma_generators", "linearization"])
def test_malformed_section_is_exit_2(capsys, tmp_path, path, value):
    cfg = bundled_config("six_membranes")
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "--config", str(p), "report")
    assert code == 2
    assert err.startswith("config error:")


# Gamma = Z3, so a class representative (1 2) is a permutation outside it
Z3 = {**TRIANGLE,
      "group": {"degree": 3, "gamma_generators": ["(1 2 3)"], "antipodal": True},
      "action": {"type": "permutation", "generator_images": [[1, 2, 0]]},
      "character_table": {"class_representatives": ["()", "(1 2 3)", "(1 3 2)"],
                          "rows": [[1, 1, 1]]}}


@pytest.mark.parametrize("base, path, value", [("six_membranes", p, v) for p, v in [
    (("horizon", "n_max"), -4),
    (("horizon", "m_max"), [1]),
    (("character_table", "rows"), 5),
    (("linearization", "zeta"), {"breakpoints": 5}),
    (("action", "generator_images"), [5, 5]),
    (("action", "generator_images"), [["x", 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]),
    (("action", "generator_images"), [[None, 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]),
    # 1.0 sorts equal to 1
    (("action", "generator_images"), [[1.0, 2, 3, 0, 4, 5], [4, 0, 5, 2, 1, 3]]),
    (("linearization", "a"), 1e6),
    (("linearization", "a"), float("inf")),
    (("analysis", "k_fixed"), "false"),
    (("notes",), 5),
    (("notes",), "abc"),
    (("group", "gamma_generators"), ["(1 2 3 4) x", "(2 3 4)"]),
    (("group", "gamma_generators"), ["(1 a)", "(2 3 4)"]),
    (("analysis", "mode"), "bogus"),
    (("horizon", "m_max"), 500),
    (("group", "subgroup_names"), ["a"]),
    (("group", "subgroup_names"), 5),
    (("character_table", "class_representatives"), ["()", "(1 2", "(1 2 3)", "(1 2)(3 4)",
                                                    "(1 2 3 4)"]),
    # a second trivial row in place of the sign character
    (("character_table", "rows"), [[1, 1, 1, 1, 1], [1, 1, 1, 1, 1], [2, 0, 2, -1, 0],
                                   [3, -1, -1, 0, 1], [3, 1, -1, 0, -1]]),
    # chi2 with its (1 2) and (1 2 3) columns swapped
    (("character_table", "rows"), [[1, 1, 1, 1, 1], [1, -1, 1, 1, -1], [2, -1, 2, 0, 0],
                                   [3, -1, -1, 0, 1], [3, 1, -1, 0, -1]]),
    # chi3 and chi4 turned by 45 degrees in their plane: orthonormal, not characters
    (("character_table", "rows"), [[1, 1, 1, 1, 1], [1, -1, 1, 1, -1], [2, 0, 2, -1, 0],
                                   [6 / 2 ** 0.5, 0, -2 / 2 ** 0.5, 0, 0],
                                   [0, -2 / 2 ** 0.5, 0, 0, 2 / 2 ** 0.5]]),
    # the class of (1 2 3 4) dropped from the representatives and every row
    (("character_table",), {"class_representatives": ["()", "(1 2)", "(1 2)(3 4)", "(1 2 3)"],
                            "rows": [[1, 1, 1, 1], [1, -1, 1, 1], [2, 0, 2, -1],
                                     [3, -1, -1, 0], [3, 1, -1, 0]]}),
]] + [
    (Z3, ("character_table", "class_representatives"), ["()", "(1 2)", "(1 3 2)"]),
], ids=["n_max", "m_max", "rows", "zeta", "generator_images", "image_string", "image_none",
        "image_float", "a_beyond_horizon", "a_infinite",
        "k_fixed_string", "notes_number", "notes_string", "generator_trailing_junk",
        "generator_letter", "mode_unknown", "m_max_too_large", "names_too_few",
        "names_number", "class_representative_unclosed", "rows_second_trivial",
        "rows_columns_swapped", "rows_not_characters", "class_dropped",
        "class_representative_outside_gamma"])
def test_malformed_field_is_exit_2(capsys, tmp_path, base, path, value):
    cfg = bundled_config(base) if isinstance(base, str) else copy.deepcopy(base)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    code, _, err = run_cli(capsys, "--config", str(p), "critical-points")
    assert code == 2
    assert err.startswith("config error:") and ".".join(path) in err


def test_float_character_table_is_accepted():
    # D5 on a ring of five membranes, its characters 2 cos(72 k degrees) given as
    # floats; an identity value 1e-12 below 2 still reads as dimension 2
    c1, c2 = (2 * math.cos(math.radians(a)) for a in (72, 144))
    cfg = ring(5)
    cfg["character_table"] = {
        "class_representatives": ["()", "(1 2 3 4 5)", "(1 3 5 2 4)", "(2 5)(3 4)"],
        "rows": [[1, 1, 1, 1], [1, 1, 1, -1], [2 - 1e-12, c1, c2, 0], [2, c2, c1, 0]]}
    assert [c.irrep_dim for c in load_model(cfg).components] == [1, 2, 2]


def test_row_commands_print_the_report_rows(capsys):
    """decompose, critical-points and global print the report's own rows."""
    base = ("--config", "bundled:six_membranes", "--format", "json")
    rep = json.loads(run_cli(capsys, *base, "report")[1])
    assert json.loads(run_cli(capsys, *base, "decompose")[1]) == rep["isotypic"]
    assert json.loads(run_cli(capsys, *base, "critical-points")[1]) == rep["critical_points"]
    for v in rep["verdicts"]:
        assert json.loads(run_cli(capsys, *base, "global", "--orbit-type", v["orbit_type"])[1]) == v


def test_s4xz2_names_on_another_group_is_exit_2(capsys):
    cfg = copy.deepcopy(TRIANGLE)
    cfg["group"]["subgroup_names"] = "s4xz2"
    code, _, err = run_cli(capsys, "--config", json.dumps(cfg), "critical-points")
    assert code == 2
    assert err.startswith("config error:") and "group.subgroup_names" in err


def test_generator_images_breaking_relations_are_exit_2(capsys):
    # permutations of the coordinates, but no homomorphism: (1 2 3) and (1 2)
    # both act as one transposition
    cfg = copy.deepcopy(TRIANGLE)
    cfg["action"]["generator_images"] = [[1, 0, 2], [1, 0, 2]]
    code, _, err = run_cli(capsys, "--config", json.dumps(cfg), "critical-points")
    assert code == 2
    assert err.startswith("config error:") and "relations" in err


@pytest.mark.parametrize("args, flag", [
    (("invariant", "--id", "9,9,9"), "--id"),
    (("invariant", "--id", "1,3"), "--id"),
    (("kernel-grid", "--id", "1,x,2"), "--id"),
    (("global", "--orbit-type", "(D7^D7 x^S4 S4p)"),
     "--orbit-type: no orbit type '(D7^D7 x^S4 S4p)'\n"),
    # (G) and this type are known but not maximal: no verdict is given for them
    (("global", "--orbit-type", "(G)"), "--orbit-type: (G) is not a maximal"),
    (("global", "--orbit-type", "(D6^D3 x^V4 V4p)"), "--orbit-type"),
    (("kernel-grid", "--id", "1,3,2", "--orbit-type", "bogus"), "--orbit-type"),
    # kernel-grid takes a type only where it fixes a line
    (("kernel-grid", "--id", "1,3,2", "--orbit-type", "(G)"),
     "--orbit-type: (G) fixes a 0-dimensional space at (1, 3, 2), not a line"),
    (("kernel-grid", "--id", "1,3,2", "--orbit-type", "(D6^D3 x^V4 V4p)"),
     "--orbit-type: (D6^D3 x^V4 V4p) fixes a 2-dimensional space"),
    (("kernel-grid", "--id", "1,3,2", "--orbit-type", "(D2^D1 x^S4 S4p)"),
     "--orbit-type: (D2^D1 x^S4 S4p) fixes a 0-dimensional space"),
    (("basic-degree", "--m", "1", "--j", "7"), "--j"),
    (("basic-degree", "--m", "-1", "--j", "0"), "--m"),
    (("kernel-grid", "--id", "1,3,2", "--resolution", "-1"), "--resolution"),
    (("bessel", "--m-max", "999"), "--m-max"),
], ids=["id_unknown", "id_two_numbers", "id_not_integer", "orbit_type_unknown",
        "orbit_type_unit", "orbit_type_not_maximal",
        "grid_orbit_type_unknown", "grid_orbit_type_unit", "grid_orbit_type_plane",
        "grid_orbit_type_no_line", "j_unknown", "m_negative", "resolution_negative",
        "m_max_too_large"])
def test_bad_flag_value_is_a_config_error_naming_it(capsys, args, flag):
    code, _, err = run_cli(capsys, "--config", "bundled:six_membranes", *args)
    assert code == 2
    assert err.startswith(f"config error: {flag}")


def test_fault_inside_a_command_is_not_a_config_error(capsys, monkeypatch):
    # a ValueError from inside a computation is a fault of the program, not bad
    # input: it is not reported as a config error with exit 2
    def broken(*args):
        raise ValueError("fault")

    for module, name, args in [
            (cli, "run_report", ["report"]),
            (model_io, "fixed_space",
             ["kernel-grid", "--id", "1,3,2", "--orbit-type", "(D6^D3 x^D4 D4p)"])]:
        with monkeypatch.context() as patch:
            patch.setattr(module, name, broken)
            with pytest.raises(ValueError, match="fault"):
                main(["--config", "bundled:six_membranes", *args])
        assert "config error" not in capsys.readouterr().err, name


def test_kernel_grid_exits_0_exactly_on_a_fixed_line(capsys, monkeypatch, model):
    # every crossing x (no type, each maximal type, each one's fold there):
    # a grid where the resolved type fixes a line, a config error naming
    # --orbit-type everywhere else, and never exit 3 or a traceback
    monkeypatch.setattr(cli, "load_model", lambda cfg: model)
    ctx = model.ctx
    pool = model.problem.maximal_pool()
    codes = []
    for cp in model.critical:
        cid = ",".join(map(str, cp.id))
        code, out, _ = run_cli(capsys, "--config", "bundled:six_membranes",
                               "kernel-grid", "--id", cid, "--resolution", "2")
        assert code == 0 and out.startswith("r,theta,u1"), cid
        types = {t.key: t for h in pool for t in (h, fold(ctx, h, cp.m))}
        for t in types.values():
            u = fold(ctx, t, cp.m) if t in maximal_types(ctx, 1, cp.j) else t
            code, out, err = run_cli(capsys, "--config", "bundled:six_membranes", "kernel-grid",
                                     "--id", cid, "--orbit-type", t.symbol, "--resolution", "2")
            if fixed_dim_irrep(ctx, u, cp.m, cp.j) == 1:
                assert code == 0 and out.startswith("r,theta,u1"), (cid, t.symbol)
            else:
                assert code == 2 and err.startswith("config error: --orbit-type"), (cid, t.symbol)
            codes.append(code)
    assert codes.count(0) and codes.count(2)


# Gamma = S2 on two coupled membranes: both crossings have m = 0
TWO_MEMBRANES = copy.deepcopy(TRIANGLE)
TWO_MEMBRANES.update(
    name="two-membranes",
    group={"degree": 2, "gamma_generators": ["(1 2)"], "antipodal": True},
    action={"type": "permutation", "generator_images": [[1, 0]]},
    horizon={"m_max": 4, "n_max": 4})
TWO_MEMBRANES["linearization"].update(
    a=3.0, coupling_matrix={"template": "adjacency", "c": 5.0, "d": 1.0,
                            "adjacency": [[0, 1], [1, 0]]})


def test_kernel_grid_at_m_0_spans_the_fixed_line_of_o2_x_k(capsys):
    cfg = json.dumps(TWO_MEMBRANES)
    model = load_model(cfg)
    assert [cp.id for cp in model.critical] == [(1, 0, 1), (1, 0, 0)]
    code, out, _ = run_cli(capsys, "--config", cfg, "kernel-grid", "--id", "1,0,1",
                           "--orbit-type", "(O2 x U2_1)", "--resolution", "5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert len(rows) == 25
    # the sine part is 0, so at each radius the values do not vary in theta
    by_r = {}
    for r, _, *u in rows:
        by_r.setdefault(r, set()).add(tuple(u))
    assert all(len(us) == 1 for us in by_r.values())
    assert any(float(x) != 0.0 for x in rows[0][2:])
    # a frequency-1 type is not folded by m = 0 and fixes nothing here
    h = maximal_types(model.ctx, 1, 1)[0]
    code, _, err = run_cli(capsys, "--config", cfg, "kernel-grid", "--id", "1,0,1",
                           "--orbit-type", h.symbol)
    assert code == 2 and err.startswith("config error: --orbit-type"), err


def _field_paths(cfg, prefix=()):
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


def _json_kind(value):
    return "number" if type(value) in (int, float) else type(value)


_FIELDS = sorted(_field_paths(TRIANGLE))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=6)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.sampled_from(_FIELDS), st.data())
def test_ill_typed_field_is_exit_0_or_2(path, data):
    cfg = copy.deepcopy(TRIANGLE)
    section = cfg
    for key in path[:-1]:
        section = section[key]
    value = data.draw(_JSON_VALUES.filter(
        lambda v: _json_kind(v) != _json_kind(section[path[-1]])))
    section[path[-1]] = value
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--config", json.dumps(cfg), "critical-points"])
    assert code in (0, 2)
