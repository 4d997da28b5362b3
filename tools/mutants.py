"""Mutation census: which tests notice an unsound one-line change?

Each mutant is one exact-string replacement in one file under ``src/``.  For
every selected mutant the script copies ``src/``, ``tests/``, ``README.md``
and ``pyproject.toml`` to a temporary directory, applies the replacement (and
stops unless the string occurs there exactly once), runs the test modules
mapped to the mutant (all of Tier-1 with ``--tier1``) and
``khintchine-verify --suite all``, and prints one table row: the
certificate's overall status and the tests that failed.  The unmutated copy
runs the same modules first, and must pass.

    python tools/mutants.py                  # all mutants, mapped modules
    python tools/mutants.py K1 K2 K3         # three interval-kernel mutants
    python tools/mutants.py M4 M9 --tier1    # two mutants against all of Tier-1

Exit status: 0 when every selected mutant fails at least one test, 1 when one
survives or the unmutated copy fails, 2 when a mutant's string is not found
exactly once.  pytest does not collect this file (``testpaths`` is
``tests``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNEL = "src/khintchine/interval.py"
KERNEL_TESTS = ("tests/test_interval.py", "tests/test_interval_differential.py")
GAP_TESTS = ("tests/test_quad.py", "tests/test_verifier_np.py")
NPCHECK = "src/khintchine/verifier/npcheck.py"
HAAGERUP_TESTS = ("tests/test_verifier_np.py", "tests/test_identities.py")
COND1 = "src/khintchine/verifier/cond1.py"
COND1_TESTS = ("tests/test_verifier_cond1.py",)
COND2 = "src/khintchine/verifier/cond2.py"
COND2_TESTS = ("tests/test_verifier_cond2.py",)
CORE_TESTS = ("tests/test_verifier_core.py",)


@dataclass(frozen=True)
class Mutant:
    name: str
    change: str
    path: str
    old: str
    new: str
    modules: tuple[str, ...]


MUTANTS = [
    # the interval kernel
    Mutant("K1", "`_hull4` without its outward ulp", KERNEL,
           "return _make(_nextafter(lo, -INF), _nextafter(hi, INF))",
           "return _make(lo, hi)", KERNEL_TESTS),
    Mutant("K2", "one extra outward ulp in `+`", KERNEL,
           "lo if lo == 0.0 else _nextafter(lo, -INF),\n"
           "            hi if hi == 0.0 else _nextafter(hi, INF),\n"
           "        )\n\n    __radd__",
           "lo if lo == 0.0 else _nextafter(_nextafter(lo, -INF), -INF),\n"
           "            hi if hi == 0.0 else _nextafter(_nextafter(hi, INF), INF),\n"
           "        )\n\n    __radd__", KERNEL_TESTS),
    Mutant("K3", "`exp_sum`'s upper corner taken from `s.lo`", KERNEL,
           "b = s_hi * xl", "b = s_lo * xl", KERNEL_TESTS),
    Mutant("K4", "`pow_real`'s main-branch ends swapped", KERNEL,
           "l_lo = _log(a.lo)\n        l_hi = _log(a.hi)",
           "l_lo = _log(a.hi)\n        l_hi = _log(a.lo)", KERNEL_TESTS),
    Mutant("K5", "`ELEM_ULPS = 0`", KERNEL,
           "\nELEM_ULPS = 4\n", "\nELEM_ULPS = 0\n", KERNEL_TESTS),
    Mutant("K6", "`ELEM_ULPS = 8`", KERNEL,
           "\nELEM_ULPS = 4\n", "\nELEM_ULPS = 8\n", KERNEL_TESTS),
    Mutant("K7", "`exp`'s one-step widening without its ulp check", KERNEL,
           "lo = r if _ulp(r) == u else _down_n(lo, ELEM_ULPS)\n"
           "        u = _ulp(hi)\n"
           "        r = hi + _ELEM * u\n"
           "        hi = r if r and _ulp(r) == u else _up_n(hi, ELEM_ULPS)\n"
           "        return _make(lo if lo > 0.0 else 0.0, hi)\n\n    def ln",
           "lo = r\n"
           "        u = _ulp(hi)\n"
           "        r = hi + _ELEM * u\n"
           "        hi = r\n"
           "        return _make(lo if lo > 0.0 else 0.0, hi)\n\n    def ln",
           KERNEL_TESTS),
    # the proof layer (ROADMAP item 18)
    Mutant("M1", "`cos_power_tail` without its (pi^2/32)(p+1)T*^(-p-2) band",
           "src/khintchine/quad.py",
           "Interval(0.0, band.hi + sliver.hi)", "Interval(0.0, sliver.hi)",
           ("tests/test_quad.py", "tests/test_verifier_cond2.py")),
    Mutant("M2", "`_gap_series` without its three remainder bands",
           NPCHECK,
           "return [*enumerate(poly_mul(e, g), 2)] + [(j, Interval(0.0, r.hi)) for j, r in rems]",
           "return [*enumerate(poly_mul(e, g), 2)]", GAP_TESTS),
    Mutant("M3", "`em_tail` without its one-sided last correction",
           "src/khintchine/specfun.py",
           "return acc + Interval.hull(_ZERO, last)", "return acc",
           ("tests/test_distfn.py", "tests/test_specfun.py")),
    Mutant("M4", "the gap integral without its [0, delta] majorant",
           NPCHECK,
           "out.append((near0 + series + direct.value", "out.append((series + direct.value",
           GAP_TESTS),
    Mutant("M5", "`quad._cell` without the f'' term", "src/khintchine/quad.py",
           "        + (jet.dd - jet.dd) * (w**3 / 162.0)\n", "", ("tests/test_quad.py",)),
    Mutant("M6", "a nonstrict claim graded `proved` down to a lower end of -1e-12",
           "src/khintchine/verifier/result.py",
           "else margin.lo >= 0.0)", "else margin.lo >= -1e-12)", CORE_TESTS),
    Mutant("M7", "the prover takes f(c).lo as a lower bound of its cell",
           "src/khintchine/verifier/engine.py",
           "max(natural.lo, form.lo)", "max(natural.lo, form.lo, at_c.lo)",
           ("tests/test_verifier_core.py", "tests/test_verifier_cond2.py")),
    Mutant("M8", "`ELEM_ULPS = 0` (as K5)", KERNEL,
           "\nELEM_ULPS = 4\n", "\nELEM_ULPS = 0\n", KERNEL_TESTS + ("tests/test_jet.py",)),
    Mutant("M9", "`_c4` halved (1/16 for 1/8)", NPCHECK,
           "(1.0 - div * div * 0.5) * 8.0)", "(1.0 - div * div * 0.5) * 16.0)", GAP_TESTS),
    Mutant("M10", "the direct quadrature starts at 0.65, not t1 = 0.6",
           NPCHECK,
           "s_factor(t) * p_factor(t), _SERIES_T1, T,",
           "s_factor(t) * p_factor(t), 0.65, T,", GAP_TESTS),
    # Haagerup's identity, which the even-s gap integrals take without a
    # second route
    Mutant("H1", "the p = 2 limit with +gamma for -gamma", NPCHECK,
           "(2.0 - EULER_GAMMA + Interval(n / 2).ln())",
           "(2.0 + EULER_GAMMA + Interval(n / 2).ln())", HAAGERUP_TESTS),
    Mutant("H2", "the p = 2 limit with ln n for ln(n/2)", NPCHECK,
           "EULER_GAMMA + Interval(n / 2).ln()", "EULER_GAMMA + Interval(n).ln()",
           HAAGERUP_TESTS),
    Mutant("H3", "the identity's n^(p/2) read as n^p", NPCHECK,
           "pow_real(Interval(n), p * 0.5) * gauss_moment_integral(p)",
           "pow_real(Interval(n), p) * gauss_moment_integral(p)", HAAGERUP_TESTS),
    # H(2)'s closed forms, which the certificate takes without a second route
    Mutant("C1", "A's 1/12 read as 1/11", COND2,
           "(1.0 - eU) * _FR(1, 12)", "(1.0 - eU) * _FR(1, 11)", COND2_TESTS),
    Mutant("C2", "B's Ei term over 2.01 sqrt2", COND2,
           "ei_neg(-U) / (SQRT2 * 2.0)", "ei_neg(-U) / (SQRT2 * 2.01)", COND2_TESTS),
    Mutant("C3", "C's third segment with +b1", COND2,
           "segment(HALF_PI, t2, -b1)", "segment(HALF_PI, t2, b1)", COND2_TESTS),
    Mutant("C4", "`_F23`'s 1/t^2 term at 0.99 (S, and C)", COND2,
           "- ci(tt) * 4.0 - 1.0 / (t * t)", "- ci(tt) * 4.0 - 0.99 / (t * t)",
           COND2_TESTS),
    # J's rational primitive, which the certificate takes without a second
    # route; the mutant lowers J, so suite=all stays proved
    Mutant("J1", "J's primitive with 1.99/t for 2/t", COND2,
           "t.ln() + r * 2.0 - half_r2", "t.ln() + r * 1.99 - half_r2", COND2_TESTS),
    # cond1's case-2 transcriptions, which the certificate takes without a
    # second route
    Mutant("D1", "`_g_case2`'s second term over 1.01", COND1,
           "1.0 / t**3 + 1.0 / (PI - t) ** 3", "1.0 / t**3 + 1.01 / (PI - t) ** 3",
           COND1_TESTS),
    Mutant("D2", "`_g_case2_prime`'s 3/t^4 read as 2.9/t^4", COND1,
           "3.0 / (PI - t) ** 4 - 3.0 / t**4", "3.0 / (PI - t) ** 4 - 2.9 / t**4",
           COND1_TESTS),
    Mutant("D3", "`_f_case2`'s -2 ln cos t read as -2.1 ln cos t", COND1,
           "(c.ln() * -2.0) ** 2", "(c.ln() * -2.1) ** 2", COND1_TESTS),
    # the grading and composite logic (ROADMAP item 21)
    Mutant("N6", "the prover's mean-value form with half its slope",
           "src/khintchine/verifier/engine.py",
           "form = at_c + jet.d * (x - c)", "form = at_c + jet.d * 0.5 * (x - c)",
           CORE_TESTS),
    Mutant("N7", "the classifier's transition gap accepted when its rise is > -1",
           NPCHECK,
           "if not rise.lo > 0.0:", "if not rise.lo > -1.0:", ("tests/test_verifier_np.py",)),
    Mutant("N14", "a strict claim graded `proved` at a lower end of exactly 0",
           "src/khintchine/verifier/result.py",
           "margin.lo > 0.0 if strict", "margin.lo >= 0.0 if strict", CORE_TESTS),
    Mutant("N17", "`concave_nonneg_check` without its right-end value",
           "src/khintchine/verifier/engine.py",
           "[e1, e2, conc]", "[e1, conc]", CORE_TESTS),
]


def _copy_tree(dest: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("README.md", "pyproject.toml"):
        shutil.copy2(ROOT / name, dest / name)


def _apply(tree: Path, m: Mutant) -> None:
    path = tree / m.path
    path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")


def _run(tree: Path, modules: tuple[str, ...] | None) -> tuple[list[str], str]:
    """(failing test ids, suite=all overall) for the tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    targets = list(modules) if modules else ["--continue-on-collection-errors"]
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *targets],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in tests.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if tests.returncode not in (0, 1) and not failed:
        failed = [f"pytest exit {tests.returncode}"]
    cli = subprocess.run(
        [sys.executable, "-m", "khintchine.cli", "--suite", "all", "--format", "json"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    try:
        overall = json.loads(cli.stdout)["overall"]
    except ValueError:
        overall = f"error (exit {cli.returncode})"
    return failed, overall


def _summary(failed: list[str]) -> str:
    if not failed:
        return "**0**"
    per_module = Counter(f.split("::")[0].removeprefix("tests/").removesuffix(".py")
                         for f in failed)
    return f"{len(failed)}: " + ", ".join(f"{mod} x{n}" for mod, n in per_module.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    ap.add_argument("--tier1", action="store_true", help="run all of Tier-1, not the mapped modules")
    args = ap.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    if not chosen:
        ap.error("no mutant selected")
    t0 = time.perf_counter()
    for m in chosen:  # every string is checked before anything runs
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"{m.name}: the string to replace occurs {count} times in {m.path}",
                  file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp) / "tree"
        modules = None if args.tier1 else tuple(sorted({f for m in chosen for f in m.modules}))
        _copy_tree(tree)
        failed, overall = _run(tree, modules)
        print(f"unmutated: suite=all {overall}, {_summary(failed)} failing", flush=True)
        if failed:
            print("\n".join(failed))
            return 1
        rows, survivors = [], []
        for m in chosen:
            shutil.rmtree(tree)
            _copy_tree(tree)
            _apply(tree, m)
            t = time.perf_counter()
            failed, overall = _run(tree, None if args.tier1 else m.modules)
            rows.append((m, overall, failed))
            if not failed:
                survivors.append(m.name)
            print(f"{m.name}: {time.perf_counter() - t:.1f} s, suite=all {overall}, "
                  f"{_summary(failed)}", flush=True)
            for f in failed:
                print(f"    {f}")
    scope = "all of Tier-1" if args.tier1 else "mapped modules"
    print(f"\n| mutant | change | `suite=all` | failing tests ({scope}) |")
    print("|---|---|---|---|")
    for m, overall, failed in rows:
        print(f"| {m.name} | {m.change} | {overall} | {_summary(failed)} |")
    print(f"\nsurvivors: {', '.join(survivors) or 'none'}; "
          f"wall time {time.perf_counter() - t0:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
