#!/usr/bin/env python3
"""Write the reference reports under bench/reference/ with the equideg CLI.

    python3 bench/make_reference.py

The six-membranes reference is what `equideg --config bundled:six_membranes
--format json report` writes; the triangle reference is the same command on
the seed-0 triangle_wide config.  Rerun only when a change to the program is
meant to change its reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import TRIANGLE_WIDE  # noqa: E402


def cli_report(config: str, out: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "equideg.cli", "--config", config,
                    "--format", "json", "--out", str(out), "report"],
                   env=env, check=True)


def main():
    ref = BENCH_DIR / "reference"
    cli_report("bundled:six_membranes", ref / "six_membranes.json")
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    cfg = out_dir / "triangle_wide.json"
    cfg.write_text(json.dumps(TRIANGLE_WIDE))
    cli_report(str(cfg), ref / "triangle.json")


if __name__ == "__main__":
    main()
