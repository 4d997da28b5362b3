"""Benchmark driver for the khintchine verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed-loop client: each certificate
runs in a fresh interpreter (``worker.py``) started only after the previous
one has exited, so module-level caches such as cond1's ``_ZETA_CACHE`` never
make a later certificate cheaper than a CLI invocation.  With ``--trace 0``
the driver times seven imports of ``khintchine.cli`` (after one warm-up that
compiles bytecode), then runs certificates until ``--seconds`` have passed,
and reports the end-to-end metrics.  Certificate times are scaled to nominal
host speed by the reference samples of ``calib.py``.  With ``--trace 1`` it
runs one plain and one traced certificate (the traced one without the
reference) and reports the per-layer metrics.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracing import CHECKS, LAYERS, SPECFUN

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("gap-integrals", "sign-change", "lemma-tree")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
B_P_LEAVES = 17  # constants/B_p-* leaves of the constants suite (p_boxes = 16)

END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "leaf_ok_frac": "frac",
    "margin_width_gmean": "1",
}

PER_LAYER = {
    "interval.objects": "count",
    "interval.arith_ops": "count",
    "interval.elem_ops": "count",
    "interval.from_fraction": "count",
    "interval.pow_real": "count",
    **{f"specfun.{fn}.{k}": u
       for fn in SPECFUN for k, u in (("calls", "count"), ("s", "s"))},
    "quad.integrations": "count",
    "quad.cells": "count",
    "quad.s": "s",
    "quad.cells_per_s": "1/s",
    "quad.wide": "count",
    "quad.ok_ratio": "frac",
    "distfn.f_star.calls": "count",
    "distfn.s": "s",
    "engine.cells": "count",
    "engine.s": "s",
    "engine.inconclusive": "count",
    "npcheck.classifier_cells": "count",
    "npcheck.classifier_self_s": "s",
    **{f"verifier.{fn}.s": "s" for fn in CHECKS},
    "oracle.s": "s",
    "cli.report_s": "s",
    "cli.report_bytes": "bytes",
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("other",)},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its JSON line."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise BenchError(f"worker {args} passed the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(certs: list[dict], workload: str) -> list[bool]:
    """Whether each certificate is correct: every leaf and the overall verdict
    as expected, every B_p enclosure holding mpmath's value, and the same
    leaves and margins as the first certificate."""
    bp = B_P_LEAVES if workload == "lemma-tree" else 0
    ref = certs[0]["digest"]
    return [not c["bad_leaves"] and c["overall_ok"] and c["bp_checked"] == bp
            and c["digest"] == ref for c in certs]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False) -> dict:
    if not (ROOT / "src" / "khintchine" / "__init__.py").is_file():
        raise BenchError(f"no library source under {ROOT / 'src'}")
    deadline = monotonic() + DEADLINE_S
    args = ["--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    setups = []
    if trace:
        OUT.mkdir(exist_ok=True)
        certs = [spawn(args, deadline),
                 spawn(args + ["--trace-out", str(OUT / f"trace-{workload}.json")], deadline)]
    else:
        setups = [spawn(["--setup"], deadline)["setup_s"]
                  for _ in range(SETUP_SAMPLES + 1)][1:]
        certs = []
        t0 = monotonic()
        while not certs or monotonic() - t0 < seconds:
            certs.append(spawn(args, deadline))

    ok = gate(certs, workload)
    attempted = sum(c["leaves"] for c in certs)
    # a certificate that fails only a whole-certificate check fails all its leaves
    failed = sum(len(c["bad_leaves"]) or (0 if good else c["leaves"])
                 for c, good in zip(certs, ok))
    for c in certs:
        for path in c["bad_leaves"]:
            print(f"unexpected status or B_p miss: {path}", file=sys.stderr)
    timed = [c for c, good in zip(certs, ok) if good] or certs  # failed runs' timings unused

    if trace:
        plain, traced = certs
        layers = dict(traced["layers"], **{"trace.overhead_s": traced["wall_s"] - plain["wall_s"]})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        values = {
            "wall_norm_s": statistics.median(c["wall_norm_s"] for c in timed),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
            "leaf_ok_frac": 1.0 - failed / attempted,
            "margin_width_gmean": statistics.median(c["margin_width_gmean"] for c in timed),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return {"correct": all(ok), "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="khintchine verifier benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
