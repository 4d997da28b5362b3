"""Quick self-test of the benchmark (about a minute on two CPUs).

    python3 perfbench/selftest.py

Runs every workload on a reduced input, once plain and twice traced, and
checks that each metric BENCHMARK.json names is emitted with its unit, that
the traced counts repeat exactly, that the trace wrappers reached the
namespaces the library imports into, and that a second workload process
cannot start while one runs.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import fcntl
import json
import subprocess
import sys

import run

COUNTS = ("interval.objects", "interval.arith_ops", "interval.elem_ops",
          "interval.from_fraction", "interval.pow_real", "quad.cells",
          "engine.cells", "npcheck.classifier_cells", "distfn.f_star.calls")

# Namespaces that import these functions by name; each must see the wrapper.
REBOUND = {
    "quad.integrate": ("khintchine.verifier.cond2.integrate",
                       "khintchine.verifier.npcheck.integrate"),
    "distfn.f_star": ("khintchine.verifier.npcheck.f_star",
                      "khintchine.verifier.cond1.f_star"),
    "specfun.zeta_sum": ("khintchine.verifier.cond1.zeta_sum",),
    "specfun.neg_ln_cos_excess": ("khintchine.verifier.npcheck.neg_ln_cos_excess",),
    "specfun.b_constant": ("khintchine.cli.b_constant",),
}


def emitted(result: dict, spec: dict[str, str], what: str) -> None:
    assert result["correct"] and result["failed"] == 0, f"{what}: gate failed: {result}"
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == spec, f"{what}: metrics or units differ from BENCHMARK.json: {got}"


def lock_excludes_second_worker() -> None:
    run.OUT.mkdir(exist_ok=True)
    with open(run.OUT / "worker.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        proc = subprocess.run(
            [sys.executable, str(run.WORKER), "--workload", "lemma-tree", "--quick"],
            capture_output=True, text=True, timeout=60)
    assert proc.returncode == 3, f"worker ran beside another: {proc.returncode}"


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert e2e == run.END_TO_END and per_layer == run.PER_LAYER

    lock_excludes_second_worker()
    for w in run.WORKLOADS:
        emitted(run.measure(w, 1, 0, trace=False, quick=True), e2e, w)
        first, second = (run.measure(w, 1, 0, trace=True, quick=True) for _ in range(2))
        emitted(first, per_layer, w + " traced")
        for k in COUNTS:
            a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
            assert a == b, f"{w}: {k} differs between traced runs: {a} != {b}"
        bound = json.loads((run.OUT / f"trace-{w}.json").read_text())["bound"]
        for span, names in REBOUND.items():
            missing = set(names) - set(bound[span])
            assert not missing, f"{span} wrapper not installed in {missing}"
        print(f"{w}: ok", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
