"""Model configuration, assembly, and report generation.

A model is described by a JSON config: the finite symmetry group and its
action on the membrane coordinates, the linearization a*I + zeta(alpha)*C,
a Bessel-table horizon, and the analysis options.  Assembly validates the
coupling (symmetry, equivariance, scalar isotypic blocks, monotone curves),
builds the ambient Burnside context, and exposes the full pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import bifurcation as bif
from .burnside import BurnsideElement
from .errors import (
    CrossCheckMismatch,
    EquivarianceViolation,
    NonMonotoneCurve,
    NonPermutationInput,
    NonScalarIsotypicBlock,
    SchemaError,
)
from .groups import CharacterTable, FiniteGroup, OrthogonalAction, Permutation, group_from_generators
from .naming import s4z2_class_names
from .orbit_types import (AmbientContext, OrbitType, fixed_dim_irrep, fixed_space, fold,
                          maximal_types, parse_symbol)
from .reps import (IsotypicComponent, antipodal_product, generic_invariant_matrix,
                   irreps_with_antipodal, isotypic_components, single_copy_basis)
from .spectrum import (
    MAX_INDEX,
    MAX_ORDER,
    BesselZeroTable,
    CriticalPoint,
    EigenvalueCurve,
    KernelMode,
    critical_points,
    kernel_mode,
)


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _number(section: dict, key: str, what: str, default=None) -> float:
    v = section.get(key, default)
    _require(_is_number(v), f"{what} must be a number")
    return float(v)


def _rows(v, width: int) -> bool:
    """Whether v is a list of rows of `width` numbers each."""
    return isinstance(v, list) and all(
        isinstance(r, list) and len(r) == width and all(map(_is_number, r)) for r in v)


def _cycles(degree: int, texts: list, what: str) -> list[Permutation]:
    try:
        return [Permutation.parse(degree, s) for s in texts]
    except NonPermutationInput as e:
        raise SchemaError(f"{what}: {e}") from None


def _matrix(v, what: str, k: int) -> np.ndarray:
    _require(_rows(v, k) and len(v) == k, f"{what} must be a {k} x {k} matrix of numbers")
    return np.array(v, dtype=float)


@dataclass
class Model:
    name: str
    config: dict
    gamma: FiniteGroup
    gamma_prime: FiniteGroup
    action: OrthogonalAction
    components: list[IsotypicComponent]
    ctx: AmbientContext
    a: float
    coupling: np.ndarray
    weights: dict[int, float]
    curves: list[EigenvalueCurve]
    bessel: BesselZeroTable
    critical: list[CriticalPoint]
    problem: bif.BifurcationProblem

    def component(self, j: int) -> IsotypicComponent:
        for c in self.components:
            if c.j == j:
                return c
        raise KeyError(f"no isotypic component labelled {j}")

    def critical_by_id(self, cid) -> CriticalPoint:
        cid = tuple(cid)
        for cp in self.critical:
            if cp.id == cid:
                return cp
        raise KeyError(f"no critical point with id {cid}")


def read_config(source):
    """The config of a config path, JSON string, or dict, unchecked."""
    if isinstance(source, dict):
        return source
    text = str(source)
    try:
        if not text.lstrip().startswith("{"):
            text = Path(text).read_text(encoding="utf-8")
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise SchemaError(f"config is not valid UTF-8 JSON: {e}") from None


def load_model(source) -> Model:
    """Assemble a model from a config path, JSON string, or dict."""
    return _assemble(read_config(source))


def _assemble(cfg: dict) -> Model:
    _require(isinstance(cfg, dict), "config must be a JSON object")
    for key in ("group", "action", "linearization"):
        _require(key in cfg, f"config is missing the '{key}' section")
    for key in ("group", "action", "linearization", "character_table", "horizon", "analysis"):
        _require(isinstance(cfg.get(key, {}), dict), f"config section '{key}' must be an object")
    gcfg = cfg["group"]
    _require(isinstance(gcfg.get("degree"), int) and gcfg["degree"] >= 1,
             "group.degree must be a positive integer")
    degree = gcfg["degree"]
    gens = gcfg.get("gamma_generators", [])
    _require(isinstance(gens, list) and all(isinstance(s, str) for s in gens),
             "group.gamma_generators must be a list of cycle strings")
    gens = _cycles(degree, gens, "group.gamma_generators")
    gamma = group_from_generators(degree, gens)
    _require(gcfg.get("antipodal", True) is True,
             "only antipodal models are supported (group.antipodal must be true)")
    gamma_prime = antipodal_product(gamma)

    acfg = cfg["action"]
    if acfg.get("type") == "permutation":
        images = acfg.get("generator_images")
        _require(isinstance(images, list) and len(images) == len(gens),
                 "action.generator_images must list one permutation per generator")
        k = len(images[0]) if images and isinstance(images[0], list) else degree
        _require(k >= 1, "action.generator_images must permute at least one coordinate")
        _require(all(isinstance(im, list) and all(type(x) is int for x in im)
                     and sorted(im) == list(range(k)) for im in images),
                 f"action.generator_images must be permutations of 0..{k - 1}")
        action = OrthogonalAction.from_permutation_images(gamma, gens, images, k)
    elif acfg.get("type") == "matrices":
        mats = acfg.get("generator_matrices")
        _require(isinstance(mats, list) and len(mats) == len(gens),
                 "action.generator_matrices must list one matrix per generator")
        k = len(mats[0]) if mats and isinstance(mats[0], list) else acfg.get("dimension", 0)
        _require(isinstance(k, int) and k >= 1,
                 "action.dimension is required when there are no generators")
        mats = [_matrix(m, "each action.generator_matrices entry", k) for m in mats]
        action = OrthogonalAction.from_generator_matrices(gamma, gens, mats, k)
    else:
        raise SchemaError("action.type must be 'permutation' or 'matrices'")

    if "character_table" in cfg:
        tcfg = cfg["character_table"]
        reps = tcfg.get("class_representatives")
        _require(isinstance(reps, list) and all(isinstance(r, str) for r in reps),
                 "character_table.class_representatives must be a list of cycle strings")
        rows, labels = tcfg.get("rows"), tcfg.get("labels")
        _require(_rows(rows, len(reps)),
                 "character_table.rows must be rows of numbers, one per class")
        _require(labels is None or (isinstance(labels, list) and len(labels) == len(rows)
                                    and all(isinstance(x, str) for x in labels)),
                 "character_table.labels must be a list of strings, one per row")
        reps = _cycles(degree, reps, "character_table.class_representatives")
        _require(all(p in gamma.index for p in reps),
                 "character_table.class_representatives must be elements of the group")
        reps = [gamma.index[p] for p in reps]
        n = len(gamma.conjugacy_classes())
        class_of = gamma.element_class_table()
        _require(sorted(class_of[r] for r in reps) == list(range(n)),
                 f"character_table.class_representatives must hit each of the {n} "
                 "conjugacy classes of the group once")
        _require(len(rows) == n, f"character_table.rows must hold {n} rows, one per class")
        table = CharacterTable.from_rows(gamma, rows, labels, class_representatives=reps)
        _require(table.check_orthogonality(),
                 "character_table.rows must be orthonormal irreducible characters")
        components = isotypic_components(action, table)
    else:
        components = _components_from_matrices(gamma, action)

    lcfg = cfg["linearization"]
    a = _number(lcfg, "a", "linearization.a")
    C = _coupling_matrix(lcfg, action.dimension)
    if np.abs(C - C.T).max() > 1e-12:
        raise SchemaError("coupling matrix must be symmetric")
    for g, p in zip(gens, (action.matrices[gamma.index[g]] for g in gens)):
        if np.abs(p @ C - C @ p).max() > 1e-12:
            raise EquivarianceViolation(
                f"coupling matrix does not commute with generator {g.cycle_string()}")

    weights = {}
    for comp in components:
        block = comp.basis.T @ C @ comp.basis
        w = float(block.trace()) / block.shape[0]
        if np.abs(block - w * np.eye(block.shape[0])).max() > 1e-9:
            raise NonScalarIsotypicBlock(
                f"coupling is not scalar on the isotypic block of {comp.label}")
        weights[comp.j] = w

    zeta = lcfg.get("zeta", "sigmoid")
    curves = []
    for comp in components:
        w = weights[comp.j]
        if abs(w) < 1e-9:
            raise NonMonotoneCurve(f"eigenvalue curve for {comp.label} is constant")
        if zeta == "sigmoid":
            curves.append(EigenvalueCurve(comp.j, a, w))
        elif isinstance(zeta, dict) and "breakpoints" in zeta:
            bps = zeta["breakpoints"]
            _require(_rows(bps, 2),
                     "linearization.zeta.breakpoints must be a list of [alpha, value] pairs")
            pts = tuple((float(x), a + w * float(v)) for x, v in bps)
            curves.append(EigenvalueCurve(comp.j, breakpoints=pts))
        else:
            raise SchemaError("linearization.zeta must be 'sigmoid' or {'breakpoints': ...}")

    hcfg = cfg.get("horizon", {})
    m_max, n_max = hcfg.get("m_max", 12), hcfg.get("n_max", 12)
    _require(all(isinstance(v, int) and not isinstance(v, bool) for v in (m_max, n_max))
             and 0 <= m_max <= MAX_ORDER and 1 <= n_max <= MAX_INDEX,
             "horizon.m_max and horizon.n_max must be integers, "
             f"0 <= m_max <= {MAX_ORDER} and 1 <= n_max <= {MAX_INDEX}")
    sup_mu = max(c.codomain()[1] for c in curves)
    try:
        bessel = BesselZeroTable.sufficient_for(sup_mu, m_max, n_max)
    except ValueError:
        raise SchemaError(f"linearization.a = {a} puts eigenvalues up to {sup_mu:.6g}, beyond "
                          f"the Bessel horizon m <= {MAX_ORDER}, n <= {MAX_INDEX}") from None
    critical = critical_points(curves, bessel)

    names = None
    name_table = gcfg.get("subgroup_names", "auto")
    is_s4 = degree == 4 and gamma.order == 24
    if isinstance(name_table, list):
        n = len(gamma_prime.subgroup_classes())
        _require(len(name_table) == n and all(isinstance(x, str) for x in name_table),
                 f"group.subgroup_names must list {n} names, one per subgroup class of Gamma x Z2")
        names = list(name_table)
    else:
        _require(name_table in ("auto", "s4xz2"),
                 "group.subgroup_names must be 'auto', 's4xz2' or a list of names")
        _require(name_table == "auto" or is_s4, "group.subgroup_names 's4xz2' needs Gamma = S4")
        if is_s4:
            names = s4z2_class_names(gamma_prime)

    irreps = irreps_with_antipodal(gamma, gamma_prime, action, components)
    ctx = AmbientContext(gamma_prime, irreps, names)

    an = cfg.get("analysis", {})
    mode = an.get("mode", "relative")
    _require(mode in ("relative", "full"), "analysis.mode must be 'relative' or 'full'")
    k_fixed = an.get("k_fixed", True)
    _require(isinstance(k_fixed, bool), "analysis.k_fixed must be true or false")
    notes = cfg.get("notes", [])
    _require(isinstance(notes, list) and all(isinstance(n, str) for n in notes),
             "notes must be a list of strings")
    bracket = _number(an, "alpha_bracket", "analysis.alpha_bracket", 1.0)
    _require(bracket > 0, "analysis.alpha_bracket must be a number > 0")
    mults = {comp.j: comp.multiplicity for comp in components}
    problem = bif.BifurcationProblem(ctx, curves, bessel, mults, critical,
                                     mode=mode, k_fixed=k_fixed, alpha_bracket=bracket)
    return Model(cfg.get("name", "model"), cfg, gamma, gamma_prime, action, components,
                 ctx, a, C, weights, curves, bessel, critical, problem)


def _coupling_matrix(lcfg: dict, k: int) -> np.ndarray:
    spec = lcfg.get("coupling_matrix")
    _require(spec is not None, "linearization.coupling_matrix is required")
    if isinstance(spec, dict):
        _require(spec.get("template") == "adjacency",
                 "only the 'adjacency' coupling template is supported")
        adj = _matrix(spec.get("adjacency"), "the adjacency matrix", k)
        return (_number(spec, "c", "coupling_matrix.c") * np.eye(k)
                + _number(spec, "d", "coupling_matrix.d") * adj)
    return _matrix(spec, "the coupling matrix", k)


def _components_from_matrices(gamma: FiniteGroup, action: OrthogonalAction) -> list[IsotypicComponent]:
    """Isotypic blocks recovered from the matrices alone: eigenspaces of a
    symmetry-averaged generic matrix, merged by equal block characters."""
    k = action.dimension
    vals, vecs = np.linalg.eigh(generic_invariant_matrix(action, 7))
    blocks: list[tuple[np.ndarray, tuple]] = []
    i = 0
    while i < k:
        jref = i
        while i + 1 < k and vals[i + 1] - vals[jref] < 1e-8:
            i += 1
        basis = vecs[:, jref:i + 1]
        chars = tuple(round(float(np.trace(basis.T @ action.matrices[x] @ basis)), 6)
                      for x in range(gamma.order))
        blocks.append((basis, chars))
        i += 1
    merged: dict[tuple, np.ndarray] = {}
    for basis, chars in blocks:
        if chars in merged:
            merged[chars] = np.hstack([merged[chars], basis])
        else:
            merged[chars] = basis
    out = []
    for j, (chars, basis) in enumerate(sorted(merged.items(), key=lambda kv: (kv[1].shape[1], kv[0]))):
        # the character norm of the merged block is the squared multiplicity
        full = [float(np.trace(basis.T @ action.matrices[x] @ basis))
                for x in range(gamma.order)]
        norm = sum(c * c for c in full) / gamma.order
        mult = round(float(np.sqrt(norm)))
        dim_block = basis.shape[1]
        if mult < 1 or dim_block % mult:
            raise NonScalarIsotypicBlock("could not split action into isotypic blocks")
        out.append(IsotypicComponent(j, f"block{j}", dim_block // mult, mult, basis))
    return out


# -- kernel modes ---------------------------------------------------------------------

def kernel_type(model: Model, cp: CriticalPoint, orbit_type) -> OrbitType:
    """The type whose fixed line at cp a kernel mode spans: orbit_type (a symbol
    or a type), folded by m if it is a maximal frequency-1 type and m >= 1.  An
    unknown symbol is a KeyError, a fixed space in W_m (x) V_j^- other than a
    line a ValueError."""
    ctx = model.ctx
    t = parse_symbol(ctx, orbit_type) if isinstance(orbit_type, str) else orbit_type
    if cp.m and t in maximal_types(ctx, 1, cp.j):
        t = fold(ctx, t, cp.m)
    dim = fixed_dim_irrep(ctx, t, cp.m, cp.j)
    if dim != 1:
        raise ValueError(f"{t.symbol} fixes a {dim}-dimensional space at {cp.id}, not a line")
    return t


def model_kernel_mode(model: Model, cid, orbit_type=None) -> KernelMode:
    """Kernel eigenmode at a critical point, in the copy of V_j that the irrep
    matrices act on (reps.single_copy_basis).  Without an orbit type its cosine
    part is the copy's first basis vector; with one it spans the fixed line of
    kernel_type(model, cp, orbit_type), with its largest entry positive."""
    cp = model.critical_by_id(cid)
    q = single_copy_basis(model.action, model.component(cp.j))
    d = q.shape[1]
    if orbit_type is None:
        return kernel_mode(cp, model.bessel, q[:, 0], np.zeros(model.action.dimension))
    vec = fixed_space(model.ctx, kernel_type(model, cp, orbit_type), cp.m, cp.j)[:, 0]
    vec = vec * np.sign(vec[np.argmax(np.abs(vec))])
    a_irr, b_irr = vec[:d], (vec[d:] if cp.m else np.zeros(d))
    return kernel_mode(cp, model.bessel, q @ a_irr, q @ b_irr)


# -- report -----------------------------------------------------------------------------

def _element_terms(e: BurnsideElement) -> list[list]:
    return [[sym, c] for sym, c in e.sorted_terms()]


def isotypic_rows(model: Model) -> list[dict]:
    """One row per isotypic component, as the report and `decompose` print it."""
    return [{"j": comp.j, "label": comp.label, "irrep_dim": comp.irrep_dim,
             "multiplicity": comp.multiplicity, "weight": model.weights[comp.j]}
            for comp in model.components]


def critical_point_rows(model: Model) -> list[dict]:
    """One row per critical point, as the report and `critical-points` print it."""
    return [{"id": list(cp.id), "alpha": cp.alpha, "zeta_level": cp.zeta_level}
            for cp in model.critical]


def verdict_row(v: bif.GlobalVerdict) -> dict:
    """A global verdict as the report and `global` print it."""
    return {"orbit_type": v.orbit_type_symbol, "s_bar": v.s_bar,
            "members": [list(m) for m in v.members], "parity_odd": v.parity_odd,
            "conclusion": v.conclusion, "folded": v.folded_symbol, "direction": v.direction}


def run_report(model: Model) -> dict:
    """Full pipeline report, invariants in both modes; deterministic for a fixed config."""
    prob = model.problem
    report: dict = {
        "model": {
            "name": model.name,
            "a": model.a,
            "mode": prob.mode,
            "k_fixed": prob.k_fixed,
            "weyl_convention": "reduced",
        },
        "isotypic": isotypic_rows(model),
        "critical_points": critical_point_rows(model),
        "invariants": [],
        "profiles": [],
        "certificates": [],
        "verdicts": [],
        "fast_path_checks": [],
        "warnings": list(model.config.get("notes", [])),
    }
    if prob.k_fixed:
        report["warnings"].append(
            "reduced-problem analysis: the odd-frequency filter represents the "
            "reflection-paired fixed-point reduction, while all Burnside arithmetic "
            "stays in the full product ring")
    invariants_by_mode: dict[str, list] = {}
    for mode in ("relative", "full"):
        for cp in model.critical:
            inv = bif.local_invariant(prob, cp, mode=mode)
            invariants_by_mode.setdefault(mode, []).append(inv)
            report["invariants"].append({
                "id": list(cp.id), "mode": mode, "k_fixed": prob.k_fixed,
                "alpha_minus": inv.alpha_minus, "alpha_plus": inv.alpha_plus,
                "terms": _element_terms(inv.value),
            })
    pool = prob.maximal_pool()
    for cp in model.critical:
        for h in pool:
            prof = bif.folding_profile(prob, cp, h)
            report["profiles"].append({
                "id": list(cp.id), "orbit_type": h.symbol, "s_max": prof.s_max,
                **{name: {str(k): v for k, v in getattr(prof, name).items()}
                   for name in ("n_minus", "n_plus", "indicator", "signed_indicator",
                                "m_minus", "m_plus")},
            })
            if prof.s_max is None:
                continue
            entry = {"id": list(cp.id), "orbit_type": h.symbol, "s": prof.s_max}
            try:
                entry["value"] = bif.theorem_bounded_coeff(prob, cp, h, prof.s_max)
                entry["status"] = "ok"
            except CrossCheckMismatch as e:
                entry["status"] = f"mismatch: {e}"
            report["fast_path_checks"].append(entry)
            if entry.get("value"):  # a zero or flagged coefficient certifies nothing
                cert = bif.certificate(prob, cp, h, prof.s_max, entry["value"])
                report["certificates"].append({
                    "id": list(cert.cp_id), "orbit_type": cert.orbit_type_symbol,
                    "folded": cert.folded_symbol, "s": cert.s,
                    "coefficient": cert.coefficient, "statement": cert.statement,
                })
    report["verdicts"].extend(verdict_row(bif.global_verdict(prob, h)) for h in pool)
    if invariants_by_mode.get(prob.mode):
        total = bif.rabinowitz_sum(invariants_by_mode[prob.mode])
        report["rabinowitz_sum"] = {"mode": prob.mode, "terms": _element_terms(total)}
    else:
        report["rabinowitz_sum"] = {"mode": prob.mode, "terms": []}
    return report


def report_json(report: dict) -> str:
    """The report as text: json.dumps(report, sort_keys=True, indent=2) plus a
    newline, byte for byte.  It is written in one pass into one list, because
    the stdlib encoder leaves its C path whenever indent is set and then costs
    more than a warm report."""
    out: list[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(x: float) -> str:
    r = float.__repr__(x)
    return _NON_FINITE.get(r, r)


# Leaves by exact type; bool cannot be subclassed, so every bool is found here.
_JSON_LEAF = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float,
              bool: {True: "true", False: "false"}.__getitem__,
              type(None): lambda _: "null"}
# Subclasses (IntEnum, np.float64, ...) as json.dumps sees them.
_JSON_LEAF_BASES = ((str, encode_basestring_ascii), (int, int.__repr__), (float, _json_float))


def _write_json(x, nl: str, out: list[str]) -> None:
    """Append the JSON text of x to out; nl is the newline and indent of x's line."""
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep, nxt = "{" + inner, "," + inner
        for k in sorted(x):  # the order of sorted(x.items()), without the pairs
            v = x[k]
            out.append(sep)
            out.append(encode_basestring_ascii(k))  # a TypeError for a non-str key
            out.append(": ")
            leaf = _JSON_LEAF.get(type(v))
            if leaf is None:
                _write_json(v, inner, out)
            else:
                out.append(leaf(v))
            sep = nxt
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        sep, nxt = "[" + inner, "," + inner
        for v in x:
            out.append(sep)
            leaf = _JSON_LEAF.get(type(v))
            if leaf is None:
                _write_json(v, inner, out)
            else:
                out.append(leaf(v))
            sep = nxt
        out.append(nl + "]")
    else:
        leaf = _JSON_LEAF.get(type(x))
        if leaf is None:
            leaf = next((w for base, w in _JSON_LEAF_BASES if isinstance(x, base)), None)
            if leaf is None:
                raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        out.append(leaf(x))


# -- bundled example configs --------------------------------------------------------------

def bundled_config(name: str) -> dict:
    """Load one of the packaged example configs by bare name."""
    data = resources.files("equideg.data")
    if not data.joinpath(f"{name}.json").is_file():
        known = sorted(p.name[:-5] for p in data.iterdir() if p.name.endswith(".json"))
        raise FileNotFoundError(f"no bundled config {name!r}; bundled: {', '.join(known)}")
    with data.joinpath(f"{name}.json").open() as f:
        return json.load(f)


def bundled_model(name: str = "six_membranes") -> Model:
    return load_model(bundled_config(name))
