"""Check results: a named inequality, its rigorous margin, and a verdict."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..interval import Interval

PROVED = "proved"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"

# slack for claims whose margin is analytically zero at a boundary point
NONSTRICT_TOL = 1e-12


def status_from_margin(margin: Interval, strict: bool) -> str:
    if strict:
        if margin.lo > 0.0:
            return PROVED
        if margin.hi < 0.0:
            return FAILED
        return INCONCLUSIVE
    if margin.hi < -NONSTRICT_TOL:
        return FAILED
    if margin.lo >= -NONSTRICT_TOL:
        return PROVED
    return INCONCLUSIVE


@dataclass
class CheckResult:
    """Outcome of one named inequality check.

    margin encloses the quantity the check proves nonnegative (for leaf
    checks, usually the infimum of the claim over its domain).  A composite's
    margin is the minimum of its children's margins and its status follows the
    children: proved only when every child proved, failed as soon as one is.
    """

    name: str
    status: str
    margin: Interval
    strict: bool = True
    children: list["CheckResult"] = field(default_factory=list)
    evaluations: int = 0
    elapsed: float = 0.0
    note: str = ""

    def recompute_status(self) -> str:
        if not self.children:
            return status_from_margin(self.margin, self.strict)
        if any(c.status == FAILED for c in self.children):
            return FAILED
        if all(c.status == PROVED for c in self.children):
            return PROVED
        return INCONCLUSIVE

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self, with_elapsed: bool = False) -> dict:
        d = {
            "name": self.name,
            "status": self.status,
            "margin_lo": self.margin.lo,
            "margin_hi": self.margin.hi,
            "strict": self.strict,
            "evaluations": self.evaluations,
            "note": self.note,
            "children": [c.to_dict(with_elapsed) for c in self.children],
        }
        if with_elapsed:
            d["elapsed"] = self.elapsed
        return d


def leaf(name: str, margin: Interval, strict: bool = True, evaluations: int = 0,
         note: str = "") -> CheckResult:
    return CheckResult(
        name=name,
        status=status_from_margin(margin, strict),
        margin=margin,
        strict=strict,
        evaluations=evaluations,
        note=note,
    )


def combine(name: str, children: list[CheckResult], note: str = "") -> CheckResult:
    margin = Interval(
        min(c.margin.lo for c in children),
        min(c.margin.hi for c in children),
    )
    res = CheckResult(
        name=name,
        status=PROVED,
        margin=margin,
        strict=all(c.strict for c in children),
        children=list(children),
        evaluations=sum(c.evaluations for c in children),
        note=note,
    )
    res.status = res.recompute_status()
    return res


class timer:
    """Context manager stamping CheckResult.elapsed."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.dt = time.perf_counter() - self.t0
        return False

    def stamp(self, result: CheckResult) -> CheckResult:
        result.elapsed = time.perf_counter() - self.t0
        return result
