"""Algorithm parameters and derived constants.

Two modes: "paper" applies the literal formulas (conservative at desk
scale), "practical" takes user-scaled constants so deep recursion is
exercised on small graphs.  All logarithms in constant formulas are base-2
logarithms of n, matching the power-of-two distance scales.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

MODE_PAPER = "paper"
MODE_PRACTICAL = "practical"
OVERRIDES = ("L", "c", "repetitions", "interval_count", "interval_width",
             "rho_min", "rho_max")


@dataclass(frozen=True)
class Params:
    n: int
    k: int
    lam: int
    L: int
    c: float
    epsilon: float
    repetitions: int
    interval_count: int
    interval_width: int
    rho_min: float
    rho_max: float
    max_level: int
    mode: str

    @property
    def log_n(self) -> float:
        return math.log2(self.n)

    def to_dict(self) -> dict:
        return asdict(self)


def _validate(p: Params) -> Params:
    if p.k < 2:
        raise ValueError("k must be >= 2")
    if p.lam < 1:
        raise ValueError("lambda must be >= 1")
    if p.interval_width < 2:
        raise ValueError("interval width must be >= 2")
    if not (p.rho_max > p.rho_min > 1):
        raise ValueError("need rho_max > rho_min > 1")
    span = p.rho_max - (p.rho_min + 1)
    if abs(span - p.interval_count * p.interval_width) > 1e-9:
        raise ValueError(
            "interval_count * interval_width must span [rho_min+1, rho_max)")
    return p


def derive_params(n: int, epsilon: float, k: int = 2, lam: int = 8,
                  mode: str = MODE_PAPER, **overrides) -> Params:
    """Fill in all derived constants for the given mode.

    Paper mode ignores ``overrides`` except ``repetitions``.  Practical
    mode accepts explicit constants via ``overrides``; unspecified ones get
    small defaults suited to desk-scale graphs.  ValueError for a key
    not in ``OVERRIDES``.
    """
    unknown = sorted(set(overrides) - set(OVERRIDES))
    if unknown:
        raise ValueError(f"unknown overrides {unknown}")
    if n < 2:
        raise ValueError("n must be >= 2")
    if not 0 <= epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    if k < 2:
        raise ValueError("k must be >= 2")
    log_n = math.log2(n)
    max_level = max(1, math.ceil(math.log(n, k)))
    if mode == MODE_PAPER:
        rho_min = 16.0 * lam * lam * k * k * log_n * log_n - 1.0
        interval_count = math.ceil(4.0 * lam * lam * k * log_n * log_n)
        interval_width = 4 * k
        # rho_max defined through the span so the interval invariant holds
        # exactly; equals 32*lam^2*k^2*log^2(n) when log2(n) is integral.
        rho_max = rho_min + 1.0 + interval_count * interval_width
        if epsilon > 0:
            L = math.ceil(15.0 - 2.0 * math.log(epsilon, k))
        else:
            L = 15
        kc = (lam ** L) * (k ** ((L - 1) / 2.0)) / (32.0 * log_n ** 3)
        c = math.log(kc, k)
        repetitions = overrides.get("repetitions",
                                    math.ceil(lam * log_n))
        return _validate(Params(
            n=n, k=k, lam=lam, L=L, c=c, epsilon=epsilon,
            repetitions=repetitions, interval_count=interval_count,
            interval_width=interval_width, rho_min=rho_min, rho_max=rho_max,
            max_level=max_level, mode=MODE_PAPER))
    if mode != MODE_PRACTICAL:
        raise ValueError(f"unknown mode {mode!r}")
    L = overrides.get("L", 2)
    c = overrides.get("c", 0.0)
    repetitions = overrides.get("repetitions", 1)
    interval_count = overrides.get("interval_count", 2)
    interval_width = overrides.get("interval_width", 2)
    rho_min = overrides.get("rho_min", 3.0)
    rho_max = overrides.get(
        "rho_max", rho_min + 1.0 + interval_count * interval_width)
    return _validate(Params(
        n=n, k=k, lam=lam, L=L, c=float(c), epsilon=epsilon,
        repetitions=repetitions, interval_count=interval_count,
        interval_width=interval_width, rho_min=float(rho_min),
        rho_max=float(rho_max), max_level=max_level, mode=MODE_PRACTICAL))
