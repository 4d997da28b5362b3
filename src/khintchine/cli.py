"""Command-line front end: run verification suites, emit reports.

Configuration precedence: flags > KHINTCHINE_* environment variables >
defaults.  Reports are deterministic for a fixed config and seed: the JSON
body (everything except the timestamp and elapsed-seconds fields) is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__
from .interval import Interval
from .oracle import (
    CoefficientVector,
    exact_moment,
    khintchine_check,
    monte_carlo_moment,
    random_unit_vectors,
    steckin_convergence,
)
from .specfun import b_constant, ci, ei_neg, si, zeta_sum
from .verifier import (
    FAILED,
    INCONCLUSIVE,
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
    leaf,
)

SUITES = ("cond1", "cond2", "np", "conclusion", "oracle", "constants", "all")

ENV_PREFIX = "KHINTCHINE_"

SCHEMA_VERSION = 1


@dataclass
class RunConfig:
    suite: str = "all"
    p_boxes: int = 16
    target_width: float | None = None
    terms: int = 200
    seed: int = 20240801
    out_path: str | None = None
    format: str = "text"

    def __post_init__(self):
        if self.suite not in SUITES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.p_boxes < 1:
            raise ValueError("p_boxes must be >= 1")
        if self.target_width is not None and self.target_width <= 0:
            raise ValueError("target width must be positive")
        if self.format not in ("text", "json"):
            raise ValueError(f"unknown format {self.format!r}")


@dataclass
class Report:
    tool_version: str
    config: RunConfig
    results: list[CheckResult]
    overall: str
    elapsed_seconds: float
    timestamp: str

    def body(self) -> dict:
        """The deterministic part of the report (no timestamp, no timings)."""
        cfg = asdict(self.config)
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "config": cfg,
            "overall": self.overall,
            "results": [r.to_dict(with_elapsed=False) for r in self.results],
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


def _constants_suite(cfg: RunConfig) -> list[CheckResult]:
    out = []
    for i in range(cfg.p_boxes + 1):
        p = 2.0 + i / cfg.p_boxes
        _, B = b_constant(Interval(p, p))
        out.append(
            leaf(
                f"constants/B_p-{p:.4f}",
                B,
                note=f"B_{p:.4f} midpoint {B.mid:.12f}, width {B.width:.3g}",
            )
        )
    anchors = [
        ("constants/Ei(-1)", ei_neg(Interval(-1.0, -1.0)) * -1.0),
        ("constants/si(pi)", si(Interval(3.141592653589793, 3.141592653589793))),
        ("constants/ci(pi-half)", ci(Interval(1.5707963267948966, 1.5707963267948966))),
        ("constants/zeta(3)", zeta_sum(Interval(3.0, 3.0), terms=10_000)),
    ]
    for name, enc in anchors:
        out.append(leaf(name, enc, note=f"enclosure width {enc.width:.3g}"))
    return out


def _oracle_suite(cfg: RunConfig) -> list[CheckResult]:
    out = []
    vectors = random_unit_vectors(200, 16, cfg.seed)
    worst = 1.0
    ok_all = True
    for p in (2.2, 2.5, 2.8):
        for v in vectors:
            ratio, bound, ok = khintchine_check(v, p)
            ok_all = ok_all and ok
            worst = min(worst, bound - ratio)
    out.append(
        leaf(
            "oracle/khintchine-sweep",
            Interval(worst, worst) if ok_all else Interval(-1.0, -1.0),
            note=f"200 seeded unit vectors (n <= 16) x p in (2.2, 2.5, 2.8); "
            f"min bound-ratio gap {worst:.3e}",
        )
    )
    rows = steckin_convergence(3.0, (16, 64, 256, 1024))
    _, m64, target = rows[1]
    out.append(
        leaf(
            "oracle/steckin-n64",
            Interval(1.0, 1.0) * (0.02 - abs(m64 - target) / target),
            note=f"E|S_64/8|^3 = {m64:.6f} vs limit {target:.6f}",
        )
    )
    deviations = [abs(m - t) for (_, m, t) in rows]
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    out.append(
        leaf(
            "oracle/steckin-monotone-approach",
            Interval(1.0, 1.0) if monotone else Interval(-1.0, -1.0),
            note=" -> ".join(f"{d:.5f}" for d in deviations),
        )
    )
    v8 = CoefficientVector(tuple([1.0 / (8**0.5)] * 8))
    est, err = monte_carlo_moment(v8, 2.5, 100_000, cfg.seed)
    exact = exact_moment(v8, 2.5)
    out.append(
        leaf(
            "oracle/monte-carlo-agreement",
            Interval(1.0, 1.0) * (4.0 * err - abs(est - exact)),
            note=f"estimate {est:.6f} +- {err:.6f} vs exact {exact:.6f}",
        )
    )
    return out


def run(config: RunConfig) -> Report:
    """Execute the selected suite and (optionally) write the report."""
    t0 = time.perf_counter()
    results: list[CheckResult] = []
    suite = config.suite
    if suite in ("cond1", "all"):
        results.append(check_cond1_sign_at_sigma(n_boxes=config.p_boxes))
        results.append(check_cond1_small_x(n_boxes=config.p_boxes))
        results.append(check_cond1_monotone())
    if suite in ("cond2", "all"):
        results.append(
            check_cond2_hprime(
                n_boxes=config.p_boxes, target_width=config.target_width
            )
        )
        results.append(check_cond2_h2(target_width=config.target_width))
    if suite in ("np", "all"):
        for p in (2.0, 2.5, 2.9):
            results.append(check_np_cos_gauss(p, K=config.terms))
    if suite in ("conclusion", "all"):
        results.append(check_conclusion_direct())
        results.append(check_fp_convergence())
    if suite in ("oracle", "all"):
        results.extend(_oracle_suite(config))
    if suite in ("constants", "all"):
        results.extend(_constants_suite(config))

    if any(r.status == FAILED for r in results):
        overall = FAILED
    elif all(r.status == PROVED for r in results):
        overall = PROVED
    else:
        overall = INCONCLUSIVE
    report = Report(
        tool_version=__version__,
        config=config,
        results=results,
        overall=overall,
        elapsed_seconds=time.perf_counter() - t0,
        timestamp=datetime.datetime.now(datetime.timezone.utc).isoformat(),
    )
    if config.out_path:
        payload = report.to_json() if config.format == "json" else report.to_text()
        try:
            with open(config.out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"cannot write report: {exc}", file=sys.stderr)
            raise SystemExit(3)
    return report


def exit_code(report: Report) -> int:
    if report.overall == PROVED:
        return 0
    if report.overall == FAILED:
        return 1
    return 2


def _env(name: str, default, cast):
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return default
    return cast(raw)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="khintchine-verify",
        description="Rigorously verify the optimal-upper-Khintchine-constant "
        "inequalities (2 < p < 3).",
        epilog="Environment overrides: KHINTCHINE_SUITE, KHINTCHINE_P_BOXES, "
        "KHINTCHINE_WIDTH, KHINTCHINE_TERMS, KHINTCHINE_SEED, KHINTCHINE_OUT, "
        "KHINTCHINE_FORMAT (flags win over the environment).",
    )
    ap.add_argument(
        "--suite",
        choices=SUITES,
        default=_env("SUITE", "all", str),
        help="which verification suite to run",
    )
    ap.add_argument(
        "--p-boxes",
        type=int,
        default=_env("P_BOXES", 16, int),
        help="number of p boxes covering [2, 3]",
    )
    ap.add_argument(
        "--width",
        type=float,
        default=_env("WIDTH", None, float),
        help="override quadrature target widths (loose values may degrade "
        "checks to inconclusive)",
    )
    ap.add_argument(
        "--terms",
        type=int,
        default=_env("TERMS", 200, int),
        help="series terms for the distribution functions",
    )
    ap.add_argument(
        "--seed",
        type=int,
        default=_env("SEED", 20240801, int),
        help="seed for the oracle suites",
    )
    ap.add_argument("--out", default=_env("OUT", None, str), help="report path")
    ap.add_argument(
        "--format",
        choices=("text", "json"),
        default=_env("FORMAT", "text", str),
        help="report format",
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            suite=args.suite,
            p_boxes=args.p_boxes,
            target_width=args.width,
            terms=args.terms,
            seed=args.seed,
            out_path=args.out,
            format=args.format,
        )
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    report = run(config)
    sys.stdout.write(report.to_text() if config.format == "text" else report.to_json() + "\n")
    return exit_code(report)


if __name__ == "__main__":
    raise SystemExit(main())
