"""Pinned bytes of whole runs: the sha256 of each model's JSON report and a
digest of its type registry after the report.  The registry digest covers
every interned type, in intern order, by symbol and representative, so it
also guards the choice of each type's representative and every ~N suffix.
The pins were computed before the orbit-type candidates became the Goursat
surjections of D_{a1}, and that change kept them."""

import hashlib
import json

import pytest

from equideg.model_io import bundled_model, load_model, report_json, run_report

from test_generality import TRIANGLE
from test_ring import ring
from test_s5 import s5_edges

REPORTS = {
    "six": "ff021282b7080a4ae1f241a12166987917f5d0922dd163d60bd3227224598458",
    "triangle": "a9d22142c76dcec7a31fa23bc6067828bc646959f6c013bfe928ed0f7cef2fa8",
    "ring5": "a23db18c45a0d865879027a4ef6dd612104db150f59250dffb9ed8a592a8c7ec",
    "ring7": "8c9e8c31306ee26c2cb74bedff5969d32b32a01a75541788b22f5b07ae970261",
    "s5": "c500633da6a6d6638fcd6ecaa5d52c0c5c778c04d822ec63e527217e7621ce9d",
}

REGISTRIES = {
    "six": "c7ce6fd7e51b6cccc22209736a5e6c81cbba87f6a24ddcd7e2f6cd579f7d748f",
    "triangle": "09b6979e2b2242a353e711c41157392296d3638f71ce35905bf0edab03d2b440",
    "ring5": "b5f9b8c7d2539328b2bb01b9f6c31d428c5c5dd4394d1195c867f6119c089849",
    "ring7": "49ff56595a979d952e9b150bd4ab7b018f73b46e46b205f2a61bb5cde1286d77",
    "s5": "5fc1239b0f9d8d1def9d05c9d484c40533b091b0954efde9128d6248e4d56385",
}

CONFIGS = {"triangle": lambda: TRIANGLE, "ring5": lambda: ring(5),
           "ring7": lambda: ring(7), "s5": s5_edges}


def registry_digest(ctx) -> str:
    """sha256 over (symbol, rep level, sorted rep elements) of ctx's types."""
    rows = [(t.symbol, t.rep.level, sorted(t.rep.elems)) if t.rep is not None
            else (t.symbol, None, None) for t in ctx._types]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REGISTRIES))
def test_report_and_registry_digests(name):
    model = bundled_model() if name == "six" else load_model(CONFIGS[name]())
    report = report_json(run_report(model))
    assert hashlib.sha256(report.encode()).hexdigest() == REPORTS[name]
    assert registry_digest(model.ctx) == REGISTRIES[name]
