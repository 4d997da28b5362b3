"""Machine-speed reference for the certificate timings.

The benchmark's host is a shared VM whose speed drifts by a factor of two
or more within a minute (neighbours' load; CPU time drifts as much as wall
time, so process time does not help).  A certificate's wall time therefore
says as much about the host as about the program.  ``SpeedSampler`` runs a
fixed reference job every ``PERIOD_S`` seconds of the timed region, from a
SIGALRM handler in the certificate's own process, so the reference sees the
same host speed as the library code around it.  Each stretch of certificate
time between two samples is scaled by ``REF_NOMINAL_S`` over the median of
the ``2 * WINDOW`` nearest samples: the sum is the certificate's time on a
host that runs the reference in ``REF_NOMINAL_S`` seconds.

The reference is a small outward-rounded interval kernel written in the
style of the library's own (validated construction, coercion, ulp widening
by ``math.nextafter``, Fraction coefficients, real powers through exp/ln),
because host contention slows different instruction mixes by different
amounts.  It imports nothing from the library, so a change to the library
cannot move it.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# One reference() call on the nominal host (a 2-vCPU Intel Xeon VM at its
# faster speed).  Only ratios matter; the constant keeps the unit seconds.
REF_NOMINAL_S = 0.010
PERIOD_S = 0.25
REF_POINTS = 45
WINDOW = 3  # samples on each side of a stretch whose median sets its speed

_INF = math.inf
_ELEM_ULPS = 4

# Fractions of the size of the library's series coefficients (up to about 20
# digits), converted to intervals on every use as the library does.
_COEFFS = [Fraction(3 ** k + 1, math.factorial(2 * k)) for k in range(1, 15)]


def _down_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, -_INF)
    return x


def _up_n(x: float, n: int) -> float:
    for _ in range(n):
        x = math.nextafter(x, _INF)
    return x


def _prod(a: float, b: float) -> float:
    if (a == 0.0 and math.isinf(b)) or (b == 0.0 and math.isinf(a)):
        return 0.0
    return a * b


def _coerce(x) -> "_Iv":
    if isinstance(x, _Iv):
        return x
    if isinstance(x, (int, float)):
        return _Iv(x, x)
    if isinstance(x, Fraction):
        return _Iv.of(x)
    raise TypeError(f"cannot interpret {x!r} as an interval")


class _Iv:
    """Outward-rounded interval in the style of the library's kernel:
    validated construction, coercion, corner products, ulp widening."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        if hi is None:
            hi = lo
        lo = float(lo)
        hi = float(hi)
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @staticmethod
    def of(fr: Fraction) -> "_Iv":
        v = float(fr)
        if v == fr:
            return _Iv(v, v)
        return _Iv(_down_n(v, 1), _up_n(v, 1))

    def __add__(self, other):
        o = _coerce(other)
        return _Iv(_down_n(self.lo + o.lo, 1), _up_n(self.hi + o.hi, 1))

    def __sub__(self, other):
        o = _coerce(other)
        return _Iv(_down_n(self.lo - o.hi, 1), _up_n(self.hi - o.lo, 1))

    def __mul__(self, other):
        o = _coerce(other)
        p = (_prod(self.lo, o.lo), _prod(self.lo, o.hi), _prod(self.hi, o.lo),
             _prod(self.hi, o.hi))
        return _Iv(_down_n(min(p), 1), _up_n(max(p), 1))

    def __truediv__(self, other):
        o = _coerce(other)
        q = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return _Iv(_down_n(min(q), 1), _up_n(max(q), 1))

    def exp(self):
        return _Iv(max(0.0, _down_n(math.exp(self.lo), _ELEM_ULPS)),
                   _up_n(math.exp(self.hi), _ELEM_ULPS))

    def ln(self):
        return _Iv(_down_n(math.log(self.lo), _ELEM_ULPS), _up_n(math.log(self.hi), _ELEM_ULPS))


def _pow_real(a: _Iv, s: _Iv) -> _Iv:
    return (s * a.ln()).exp()


def reference() -> None:
    """The fixed reference job: a Horner sum over Fraction coefficients and a
    short series of real powers, the two shapes that dominate the library's
    time."""
    expo = _Iv(-2.5)
    for i in range(REF_POINTS):
        t = _Iv(0.2 + i * 1e-3, 0.2 + i * 1e-3 + 1e-4)
        u = t * t
        acc = _Iv.of(_COEFFS[-1])
        for c in reversed(_COEFFS[:-1]):
            acc = acc * u + c
        for k in range(1, 9):
            kx = _Iv(3.14159 * k)
            acc = acc - (_pow_real(kx - t, expo) - _pow_real(kx + t, expo))
        acc = acc / 2.5
    if not acc.lo <= acc.hi:
        raise AssertionError("reference job broke its own enclosure")


def _quiet_reference() -> tuple[float, float]:
    """reference() with the garbage collector held off, so the sample never
    pays for a collection of the certificate's heap.  Returns (start, end)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return t0, perf_counter()
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Interleaves reference samples with a timed region of the same process.

    Use as a context manager around the timed region; ``raw_s`` is then the
    region's time without the samples and ``norm_s`` that time at nominal
    host speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.raw_s = self.norm_s = math.nan

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_quiet_reference())

    def __enter__(self) -> "SpeedSampler":
        for _ in range(WINDOW):  # samples before the region, so its start has neighbours
            self.samples.append(_quiet_reference())
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        for _ in range(WINDOW):
            self.samples.append(_quiet_reference())
        if exc[0] is None:
            self._normalise()

    def _normalise(self) -> None:
        s = self.samples
        ref = [b - a for a, b in s]
        raw = norm = 0.0
        # stretch i runs from the end of sample i to the start of sample i + 1
        for i in range(WINDOW - 1, len(s) - WINDOW):
            stretch = s[i + 1][0] - s[i][1]
            nearby = ref[i + 1 - WINDOW:i + 1 + WINDOW]
            raw += stretch
            norm += stretch * REF_NOMINAL_S / statistics.median(nearby)
        self.raw_s, self.norm_s = raw, norm


class Stopwatch:
    """Plain timing of a region, for runs that need no speed reference."""

    def __enter__(self) -> "Stopwatch":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_s = perf_counter() - self._t0
