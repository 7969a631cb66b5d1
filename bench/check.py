"""Correctness check of one report against the stored reference.

The reference files under reference/ are the JSON reports the equideg CLI
writes for the seed-0 configs (see make_reference.py).  Every field that is
not a float must match exactly: invariants, profiles, certificates, verdicts,
the Rabinowitz sum and the fast-path statuses.  Floats (weights, alphas,
levels) may differ by FLOAT_TOL, relative above 1 and absolute below, which
covers the rounding a membrane relabelling introduces (measured <= 1e-14).
"""

from __future__ import annotations

import json
from pathlib import Path

FLOAT_TOL = 1e-12
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def load_reference(name: str) -> str:
    return (REFERENCE_DIR / name).read_text()


def _diff(got, want, path: str, out: list[str]):
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if abs(got - want) > FLOAT_TOL * max(1.0, abs(want)):
            out.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want):
        out.append(f"{path}: {type(got).__name__} != {type(want).__name__}")
    elif isinstance(want, dict):
        if sorted(got) != sorted(want):
            out.append(f"{path}: keys {sorted(got)} != {sorted(want)}")
        else:
            for k in want:
                _diff(got[k], want[k], f"{path}.{k}", out)
    elif isinstance(want, list):
        if len(got) != len(want):
            out.append(f"{path}: length {len(got)} != {len(want)}")
        else:
            for i, (g, w) in enumerate(zip(got, want)):
                _diff(g, w, f"{path}[{i}]", out)
    elif got != want:
        out.append(f"{path}: {got!r} != {want!r}")


def check_report(text: str, reference: str, exact: bool) -> list[str]:
    """Problems found in one report text; empty when it passes.

    exact asks for the bytes of the reference (seed 0, where the config is
    the one the reference was made from).
    """
    problems: list[str] = []
    if exact and text != reference:
        problems.append("report bytes differ from the reference")
    report = json.loads(text)
    checks = report.get("fast_path_checks") or []
    if not checks:
        problems.append("no fast-path checks in the report")
    problems += [f"fast-path check {e.get('id')} {e.get('orbit_type')}: {e.get('status')}"
                 for e in checks if e.get("status") != "ok"]
    _diff(report, json.loads(reference), "report", problems)
    return problems
