"""One certificate in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --workload NAME --seed N [--quick] [--trace-out PATH]

``--setup`` times ``import khintchine.cli`` and exits.  Otherwise the worker
imports the library from this checkout's ``src/``, runs the workload once
through the library's public functions, and gates the certificate outside the
timed region.  Unless ``--trace-out`` is given (its samples would land in
the spans), the timed region interleaves the speed reference of ``calib.py``
and ``wall_norm_s`` is the certificate time at nominal host speed; ``wall_s``
excludes the samples either way.  An exclusive lock on
``perfbench/out/worker.lock`` makes a second worker started while one runs
fail, so two workload processes never run at once.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import resource
import sys
from pathlib import Path
from time import perf_counter

from calib import SpeedSampler, Stopwatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

EXPECTED_STATUS = "proved"  # of every leaf and of the overall verdict, all workloads
SUITES = ("cond1", "cond2", "oracle", "constants")
QUICK_SUITES = ("cond1", "constants")
BP_DIGITS = 40


def import_library():
    if "khintchine" in sys.modules:
        raise RuntimeError("khintchine imported before the fresh-interpreter check")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import khintchine.cli
    setup_s = perf_counter() - t0
    path = Path(khintchine.cli.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise RuntimeError(f"khintchine imported from {path}, not from {SRC}")
    return setup_s


def gap_integrals(seed: int, quick: bool, timer):
    """Quadrature-bound conclusion integrals at the corners of the (p, s) grid."""
    import khintchine.verifier as v
    from khintchine.interval import SQRT2

    s_min = float(SQRT2.lo)
    grid = dict(p_grid=(2.1,), s_grid=(s_min,)) if quick else dict(
        p_grid=(2.1, 2.9), s_grid=(s_min, 4.0))
    with timer:
        return [v.check_conclusion_direct(**grid)]


def sign_change(seed: int, quick: bool, timer):
    """The np_generic classifier over F_* (a K=200 series) and G_*."""
    import khintchine.verifier as v

    with timer:
        if quick:
            return [v.check_np_cos_gauss(2.0, K=20, grid=16)]
        return [v.check_np_cos_gauss(p) for p in (2.0, 2.5)]


def lemma_tree(seed: int, quick: bool, timer):
    """The CLI path: many small checks, each report serialized."""
    import khintchine.cli as cli

    results = []
    with timer:
        for suite in QUICK_SUITES if quick else SUITES:
            report = cli.run(cli.RunConfig(suite=suite, seed=seed))
            report.to_json()
            results.append(report)
    return results


WORKLOADS = {
    "gap-integrals": gap_integrals,
    "sign-change": sign_change,
    "lemma-tree": lemma_tree,
}


def leaves(node, path=""):
    path = f"{path}/{node.name}" if path else node.name
    if not node.children:
        yield path, node
    for c in node.children:
        yield from leaves(c, path)


def b_p_misses(bp_leaves) -> list[str]:
    """Paths of constants/B_p-* leaves whose enclosure misses mpmath's value."""
    import mpmath

    mpmath.mp.dps = BP_DIGITS
    misses = []
    for path, node in bp_leaves:
        p = mpmath.mpf(node.name.rsplit("-", 1)[1])
        truth = mpmath.sqrt(2) * (mpmath.gamma((p + 1) / 2) / mpmath.sqrt(mpmath.pi)) ** (1 / p)
        if not mpmath.mpf(node.margin.lo) <= truth <= mpmath.mpf(node.margin.hi):
            misses.append(path)
    return misses


def certificate(workload: str, seed: int, quick: bool, trace_out: str | None) -> dict:
    setup_s = import_library()
    tracer = None
    if trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    timer = Stopwatch() if tracer else SpeedSampler()
    results = WORKLOADS[workload](seed, quick, timer)
    wall_s = timer.raw_s
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # gate, outside the timed region
    if workload == "lemma-tree":
        overall = [r.overall for r in results]
        roots = [c for r in results for c in r.results]
    else:
        overall = [r.status for r in results]
        roots = results
    leaf_list = [lf for r in roots for lf in leaves(r)]
    bad = [p for p, n in leaf_list if n.status != EXPECTED_STATUS]
    bp_leaves = [lf for lf in leaf_list if lf[1].name.startswith("constants/B_p-")]
    if bp_leaves:
        bad += [p for p in b_p_misses(bp_leaves) if p not in bad]
    widths = [n.margin.hi - n.margin.lo for _, n in leaf_list]
    logs = [math.log10(w) for w in widths if 1e-12 < w < math.inf]
    digest = hashlib.sha256(json.dumps(
        [(p, n.status, n.margin.lo, n.margin.hi) for p, n in leaf_list]).encode()
    ).hexdigest()
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "wall_norm_s": None if tracer else timer.norm_s,
        "peak_rss_mb": rss_mb,
        "leaves": len(leaf_list),
        "bad_leaves": bad,
        "overall_ok": all(s == EXPECTED_STATUS for s in overall),
        "bp_checked": len(bp_leaves),
        "margin_width_gmean": 10.0 ** (sum(logs) / len(logs)) if logs else 0.0,
        "digest": digest,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(wall_s)
        tracer.dump(trace_out)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    if args.setup:
        out = {"setup_s": import_library()}
    else:
        if args.workload is None:
            ap.error("--workload is required")
        OUT.mkdir(exist_ok=True)
        with open(OUT / "worker.lock", "w") as lock:
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                print("another workload process is running", file=sys.stderr)
                return 3
            out = certificate(args.workload, args.seed, args.quick, args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
