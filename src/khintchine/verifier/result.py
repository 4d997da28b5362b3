"""Check results: a named inequality, its rigorous margin, and a verdict.

Every status in a report is decided here: a leaf's by grading its margin
(status_from_margin), a composite's and the overall verdict by the
conjunction of their parts.
"""

from __future__ import annotations

from typing import Iterable

from ..interval import Interval, imin

PROVED = "proved"
FAILED = "failed"
INCONCLUSIVE = "inconclusive"


def status_from_margin(margin: Interval, strict: bool) -> str:
    """Proved when the margin's lower end is > 0 (>= 0 when not strict),
    failed when its upper end is < 0, inconclusive otherwise; no tolerance."""
    if (margin.lo > 0.0 if strict else margin.lo >= 0.0):
        return PROVED
    if margin.hi < 0.0:
        return FAILED
    return INCONCLUSIVE


def conjunction(statuses: Iterable[str]) -> str:
    """Verdict of a claim that holds when all its parts do: failed as soon as
    one part failed, proved only when every part proved."""
    statuses = list(statuses)
    if FAILED in statuses:
        return FAILED
    if all(s == PROVED for s in statuses):
        return PROVED
    return INCONCLUSIVE


class CheckResult:
    """Outcome of one named inequality check.

    margin encloses the quantity the check proves nonnegative (for leaf
    checks, usually the infimum of the claim over its domain).  A composite's
    margin is the minimum of its children's margins unless combine is given
    one, and its status is the conjunction of theirs.
    """

    __slots__ = ("name", "status", "margin", "strict", "children", "evaluations", "note")

    def __init__(self, name: str, status: str, margin: Interval, strict: bool = True,
                 children: list[CheckResult] | None = None, evaluations: int = 0,
                 note: str = ""):
        self.name = name
        self.status = status
        self.margin = margin
        self.strict = strict
        self.children = [] if children is None else children
        self.evaluations = evaluations
        self.note = note

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "margin_lo": self.margin.lo,
            "margin_hi": self.margin.hi,
            "strict": self.strict,
            "evaluations": self.evaluations,
            "note": self.note,
            "children": [c.to_dict() for c in self.children],
        }


def leaf(name: str, margin: Interval, strict: bool = True, evaluations: int = 0,
         note: str = "", verdict: str = PROVED) -> CheckResult:
    """A check graded by its margin.  A claim that also rests on a verdict
    reached outside the margin (np_generic's sign pattern) passes it as
    `verdict`; the status is the conjunction of the two."""
    return CheckResult(
        name=name,
        status=conjunction((status_from_margin(margin, strict), verdict)),
        margin=margin,
        strict=strict,
        evaluations=evaluations,
        note=note,
    )


def combine(name: str, children: list[CheckResult], note: str = "",
            margin: Interval | None = None) -> CheckResult:
    """The conjunction of children.  Its margin is the minimum of theirs
    unless the caller derives a better one (an anchor under monotonicity)."""
    return CheckResult(
        name=name,
        status=conjunction(c.status for c in children),
        margin=imin([c.margin for c in children]) if margin is None else margin,
        strict=all(c.strict for c in children),
        children=list(children),
        evaluations=sum(c.evaluations for c in children),
        note=note,
    )

