"""Command-line front end: run verification suites, emit reports.

A proof is configured by two settings alone, RunConfig's suite and seed;
the proof parameters are constants of the verifier.  main's --out and
--format say only where and how the report is written.  The JSON body
(everything except the timestamp and elapsed-seconds fields) is a function
of the config, byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .interval import HALF_PI, PI, Interval
from .oracle import khintchine_check, random_unit_vectors
from .specfun import b_constant, ci, ei_neg, si, zeta_sum
from .verifier import (
    FAILED,
    HYPOTHESIS_P,
    P_BOXES,
    PROVED,
    CheckResult,
    check_conclusion_direct,
    check_cond1_monotone,
    check_cond1_sign_at_sigma,
    check_cond1_small_x,
    check_cond2_h2,
    check_cond2_hprime,
    check_fp_convergence,
    check_np_cos_gauss,
    conjunction,
    leaf,
)

SUITES = ("cond1", "cond2", "np", "conclusion", "oracle", "constants", "all")

SCHEMA_VERSION = 3


class RunConfig:
    """What a report certifies: the suite, and the seed that draws the oracle
    sweep's vectors."""

    __slots__ = ("suite", "seed")

    def __init__(self, suite: str = "all", seed: int = 20240801):
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        self.suite = suite
        self.seed = seed


class Report:
    __slots__ = ("tool_version", "config", "results", "overall",
                 "elapsed_seconds", "timestamp")

    def __init__(self, tool_version: str, config: RunConfig,
                 results: list[CheckResult], overall: str,
                 elapsed_seconds: float, timestamp: str):
        self.tool_version = tool_version
        self.config = config
        self.results = results
        self.overall = overall
        self.elapsed_seconds = elapsed_seconds
        self.timestamp = timestamp

    def body(self) -> dict:
        """The deterministic part of the report (no timestamp, no timings)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config": {"suite": self.config.suite, "seed": self.config.seed},
            "overall": self.overall,
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self) -> str:
        doc = self.body()
        doc["timestamp"] = self.timestamp
        doc["elapsed_seconds"] = self.elapsed_seconds
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = [
            f"khintchine-verify {self.tool_version}  suite={self.config.suite}  "
            f"overall={self.overall}  ({self.elapsed_seconds:.1f}s)"
        ]

        def emit(r: CheckResult, depth: int) -> None:
            lines.append(
                "  " * depth
                + f"{r.name}: {r.status}  [{r.margin.lo:.6g}, {r.margin.hi:.6g}]"
                + (f"  -- {r.note}" if r.note and depth <= 2 else "")
            )
            for c in r.children:
                emit(c, depth + 1)

        for r in self.results:
            emit(r, 1)
        return "\n".join(lines) + "\n"


def _constants_suite() -> list[CheckResult]:
    out = []
    for i in range(P_BOXES + 1):
        p = 2.0 + i / P_BOXES
        B = b_constant(Interval(p, p))
        out.append(
            leaf(
                f"constants/B_p-{p:.4f}",
                B,
                note=f"B_{p:.4f} midpoint {B.mid:.12f}, width {B.width:.3g}",
            )
        )
    anchors = [
        ("constants/Ei(-1)", ei_neg(Interval(-1.0, -1.0)) * -1.0),
        ("constants/si(pi)", si(PI)),
        ("constants/ci(pi-half)", ci(HALF_PI)),
        ("constants/zeta(3)", zeta_sum(Interval(3.0, 3.0), terms=10_000)),
    ]
    for name, enc in anchors:
        out.append(leaf(name, enc, note=f"enclosure width {enc.width:.3g}"))
    return out


def _oracle_suite(cfg: RunConfig) -> list[CheckResult]:
    """The one oracle leaf: the float Khintchine sweep over cfg.seed's vectors."""
    worst = 1.0
    ok_all = True
    # vector outside, p inside: each vector's sign sums are enumerated once
    for v in random_unit_vectors(200, 12, cfg.seed):
        for p in (2.2, 2.5, 2.8):
            ratio, bound, ok = khintchine_check(v, p)
            ok_all = ok_all and ok
            worst = min(worst, bound - ratio)
    return [leaf("oracle/khintchine-sweep",
                 Interval(worst, worst) if ok_all else Interval(-1.0, -1.0),
                 note=f"200 seeded unit vectors (n <= 12) x p in (2.2, 2.5, 2.8); "
                 f"min bound-ratio gap {worst:.3e}")]


def run(config: RunConfig) -> Report:
    """Execute the selected suite."""
    t0 = time.perf_counter()
    results: list[CheckResult] = []
    suite = config.suite
    if suite in ("cond1", "all"):
        results.append(check_cond1_sign_at_sigma())
        results.append(check_cond1_small_x())
        results.append(check_cond1_monotone())
    if suite in ("cond2", "all"):
        results.append(check_cond2_hprime())
        results.append(check_cond2_h2())
    if suite in ("np", "all"):
        for p in HYPOTHESIS_P:
            results.append(check_np_cos_gauss(p))
    if suite in ("conclusion", "all"):
        results += [check_conclusion_direct(), check_fp_convergence()]
    if suite in ("oracle", "all"):
        results.extend(_oracle_suite(config))
    if suite in ("constants", "all"):
        results.extend(_constants_suite())

    # ISO 8601 in UTC, microseconds and all, without importing datetime
    sec, ns = divmod(time.time_ns(), 10**9)
    return Report(
        tool_version=__version__,
        config=config,
        results=results,
        overall=conjunction(r.status for r in results),
        elapsed_seconds=time.perf_counter() - t0,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(sec))
        + f".{ns // 1000:06d}+00:00",
    )


def exit_code(report: Report) -> int:
    if report.overall == PROVED:
        return 0
    if report.overall == FAILED:
        return 1
    return 2


def build_parser() -> argparse.ArgumentParser:
    defaults = RunConfig()
    ap = argparse.ArgumentParser(
        prog="khintchine-verify",
        description="Rigorously verify the optimal-upper-Khintchine-constant "
        "inequalities (2 < p < 3).",
    )
    ap.add_argument(
        "--suite",
        choices=SUITES,
        default=defaults.suite,
        help="which verification suite to run",
    )
    ap.add_argument(
        "--seed",
        type=int,
        default=defaults.seed,
        help="seed that draws the oracle sweep's unit vectors",
    )
    ap.add_argument("--out", help="also write the report to this path")
    ap.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    return ap


def main(argv=None) -> int:
    """Run the suite, write the report to stdout and to --out; the exit code
    is exit_code's, or 3 when --out cannot be written."""
    args = build_parser().parse_args(argv)
    report = run(RunConfig(suite=args.suite, seed=args.seed))
    payload = report.to_text() if args.format == "text" else report.to_json() + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            return 3
    sys.stdout.write(payload)
    return exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
