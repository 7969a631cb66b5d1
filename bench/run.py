#!/usr/bin/env python3
"""equideg benchmark: config-to-report time on three workloads.

    python3 bench/run.py --workload six_cold --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all          # every workload, each in its own interpreter

Run from the root of a checkout; the package is imported from its src/.
Each workload is a closed loop in one single-threaded process: the next
iteration starts when the previous report has been checked.

--trace 0 measures the end-to-end metrics with no wrappers in place.
--trace 1 alternates untraced and traced iterations and reports per-layer
self times and work counts from the traced ones (see tracing.py), plus the
tracing overhead.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are capped before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(BENCH_DIR))

from check import check_report, load_reference  # noqa: E402
from tracing import Trace  # noqa: E402
from workloads import WORKLOADS, workload_config  # noqa: E402

# Six-membranes set-ups paid per warm run; their median is setup_s there.
WARM_SETUPS = 2

def import_package():
    """equideg from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import equideg
    if not Path(equideg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"equideg was imported from {equideg.__file__}, not from {src}")
    return equideg


def environment() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "machine": platform.machine()}


class Run:
    """Samples, checks and failures of one workload run."""

    def __init__(self, api, workload, seed: int):
        self.api = api
        self.workload = workload
        self.seed = seed
        self.config = workload_config(api, workload, seed)
        self.reference = load_reference(workload.reference)
        self.first_text = None
        self.model = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fresh_config(self) -> dict:
        return json.loads(json.dumps(self.config))

    def check(self, text: str) -> bool:
        problems = check_report(text, self.reference, exact=self.seed == 0)
        if self.first_text is None:
            self.first_text = text
        elif text != self.first_text:
            problems.append("report bytes differ from the first report of this run")
        self.problems += problems[:5]
        return not problems

    def attempt(self, fn):
        """One iteration: fn() returns (timings, report text); None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            timings, text = fn()
            ok = self.check(text)
        except Exception:
            ok = False
            self.problems.append(traceback.format_exc(limit=3))
        if not ok:
            self.failed += 1
            return None
        return timings

    # -- iterations (all calls go through the package namespace, so the
    # tracer's wrappers see them) ------------------------------------------

    def cold(self):
        api, cfg = self.api, self.fresh_config()
        t0 = time.perf_counter()
        model = api.load_model(cfg)
        t1 = time.perf_counter()
        text = api.report_json(api.run_report(model))
        t2 = time.perf_counter()
        return (t1 - t0, t2 - t1), text

    def warm_setup(self):
        api, cfg = self.api, self.fresh_config()
        t0 = time.perf_counter()
        self.model = api.load_model(cfg)
        text = api.report_json(api.run_report(self.model))
        return (time.perf_counter() - t0,), text

    def warm(self):
        api = self.api
        t0 = time.perf_counter()
        text = api.report_json(api.run_report(self.model))
        return (time.perf_counter() - t0,), text


def _fits(deadline: float, lengths: list[float]) -> bool:
    """Whether an iteration of the median length still ends by the deadline."""
    return time.perf_counter() + statistics.median(lengths) <= deadline


def measure(run: Run, seconds: float) -> dict:
    """Untraced closed loop for `seconds`; samples of setup_s and report_s."""
    setup, report = [], []
    start = time.perf_counter()
    if run.workload.warm:
        # each cycle pays one set-up (load + cache-filling report), then
        # repeats the report on the same model until the cycle's end
        for cycle in range(WARM_SETUPS):
            run.model = None
            cycle_end = start + seconds * (cycle + 1) / WARM_SETUPS
            got = run.attempt(run.warm_setup)
            if got is None:
                continue
            setup.append(got[0])
            lengths = []
            while True:
                t = time.perf_counter()
                got = run.attempt(run.warm)
                lengths.append(time.perf_counter() - t)
                if got is not None:
                    report.append(got[0])
                if not _fits(cycle_end, lengths):
                    break
        run.model = None
    else:
        lengths = []
        while True:
            t = time.perf_counter()
            got = run.attempt(run.cold)
            lengths.append(time.perf_counter() - t)
            if got is not None:
                setup.append(got[0])
                report.append(got[1])
            if not _fits(start + seconds, lengths):
                break
    return {"setup_s": setup, "report_s": report}


def measure_traced(run: Run, seconds: float) -> tuple[dict, list]:
    """Alternate untraced and traced iterations; per-layer metrics and spans."""
    start = time.perf_counter()
    deadline = start + seconds
    step = run.cold
    if run.workload.warm:
        run.model = None
        if run.attempt(run.warm_setup) is None:
            return {}, []
        step = run.warm
    plain, traced, traces = [], [], []
    lengths = []
    while True:
        t = time.perf_counter()
        got = run.attempt(step)
        if got is not None:
            plain.append(sum(got))
        tr = Trace()
        with tr.installed():
            got = run.attempt(step)
        if got is not None:
            traced.append(sum(got))
            traces.append(tr)
        lengths.append(time.perf_counter() - t)
        if not _fits(deadline, lengths):
            break
    run.model = None
    if not traces or not plain:
        return {}, []
    counts = traces[0].counts()
    for i, tr in enumerate(traces[1:], 2):
        if tr.counts() != counts:
            run.failed += 1
            run.problems.append(f"traced iteration {i} counted differently from the first")
    per_iter = [tr.metrics() for tr in traces]
    metrics = {k: (v if isinstance(v, int) else statistics.median(m[k] for m in per_iter))
               for k, v in per_iter[0].items()}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    spans = [[i, *span] for i, tr in enumerate(traces) for span in tr.spans]
    if traces[0].absent:
        print("absent entry points: " + ", ".join(traces[0].absent))
    return metrics, spans


def _tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return "no tail percentile (n < 11)"
    return f"p{100 * (n - 10) // n} {sorted(samples)[n - 11]:.4f}"


def run_one(args) -> int:
    try:
        api = import_package()
    except ImportError as e:
        print(f"cannot import equideg from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    run = Run(api, workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} | "
          + " ".join(f"{k} {v}" for k, v in env.items()))
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "environment": env}
    if args.trace:
        metrics, spans = measure_traced(run, args.seconds)
        out = {k: {"value": v, "unit": "s" if k.endswith("_s") else
                   ("fraction" if k.endswith("_frac") else "count")}
               for k, v in metrics.items()}
        for k, v in out.items():
            print(f"  {k:34s} {v['value']:.6g} {v['unit']}")
        for name in metrics:
            if name.endswith("_distinct"):
                base = name[:-len("_distinct")]
                d, c = metrics[name], metrics[base + "_calls"]
                ratio = f"{d / c:.3f}" if c else "n/a"
                print(f"  {base} useful work: {d} distinct / {c} calls = {ratio}")
        record["metrics"] = metrics
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(
            {"columns": ["iteration", "name", "parent", "start", "end"], "spans": spans}))
    else:
        samples = measure(run, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {}
        for name in ("setup_s", "report_s"):
            xs = samples[name]
            if xs:
                out[name] = {"value": statistics.median(xs), "unit": "s"}
                print(f"  {name:12s} median {out[name]['value']:.4f} s, "
                      f"{_tail(xs)}, n={len(xs)}")
        out["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
        print(f"  {'peak_rss_mb':12s} {rss_mb:.1f} MB")
        print(f"  {'failed_frac':12s} {run.failed / max(run.attempted, 1):.4f} fraction "
              f"({run.failed} of {run.attempted})")
        record["samples"] = samples
    for p in run.problems[:10]:
        print("  problem: " + p.strip().replace("\n", "\n    "), file=sys.stderr)
    record.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    correct = run.failed == 0 and run.attempted > 0 and bool(out)
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
