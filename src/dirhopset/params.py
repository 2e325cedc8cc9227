"""Algorithm parameters and derived constants.

Two modes: "paper" applies the literal formulas (conservative at desk
scale), "practical" takes user-scaled constants so deep recursion is
exercised on small graphs.  All logarithms in constant formulas are base-2
logarithms of n, matching the power-of-two distance scales.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, asdict

MODE_PAPER = "paper"
MODE_PRACTICAL = "practical"
# practical mode's constants and their defaults, each overridable by name
PRACTICAL = {"L": 2, "c": 0.0, "repetitions": 1, "interval_count": 2,
             "interval_width": 2, "rho_min": 3.0}
OVERRIDES = tuple(PRACTICAL)


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
    if p.lam < 1:
        raise ValueError("lambda must be >= 1")
    if not abs(p.c) * math.log2(p.k) < sys.float_info.max_exp - 1:
        raise ValueError(f"c must be finite, with k^c and k^-c finite "
                         f"floats, got {p.c}")
    if p.repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {p.repetitions}")
    if p.interval_count < 1:
        raise ValueError(
            f"interval_count must be >= 1, got {p.interval_count}")
    if p.interval_width < 2:
        raise ValueError("interval width must be >= 2")
    # the radii are integers drawn from [rho_min + 1, rho_max), so the
    # range must lie where floats hold every integer
    if not 1 < p.rho_min < p.rho_max <= 2.0 ** sys.float_info.mant_dig:
        raise ValueError(f"need 1 < rho_min and rho_max <= 2^53, got "
                         f"rho_min = {p.rho_min}, rho_max = {p.rho_max}")
    return p


def derive_params(n: int, epsilon: float, k: int = 2, lam: int = 8,
                  mode: str = MODE_PAPER, **overrides) -> Params:
    """Fill in all derived constants for the given mode.

    Practical mode takes ``PRACTICAL`` with ``overrides`` merged over
    it.  Paper mode derives every constant but ``repetitions`` and
    raises ValueError for any other override.  Both derive rho_max =
    rho_min + 1 + interval_count * interval_width, so the intervals
    tile [rho_min + 1, rho_max).  ValueError for a key not in
    ``OVERRIDES`` or a value ``_validate`` rejects.
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
    if mode == MODE_PAPER:
        ignored = sorted(set(overrides) - {"repetitions"})
        if ignored:
            raise ValueError(f"paper mode derives {ignored}; only "
                             "repetitions may be overridden")
        L = math.ceil(15.0 - 2.0 * math.log(epsilon, k)) if epsilon > 0 \
            else 15
        kc = (lam ** L) * (k ** ((L - 1) / 2.0)) / (32.0 * log_n ** 3)
        # rho_max is then 32*lam^2*k^2*log^2(n) when log2(n) is integral
        const = {
            "L": L, "c": math.log(kc, k),
            "repetitions": math.ceil(lam * log_n),
            "interval_count": math.ceil(4.0 * lam * lam * k * log_n * log_n),
            "interval_width": 4 * k,
            "rho_min": 16.0 * lam * lam * k * k * log_n * log_n - 1.0,
            **overrides}
    elif mode == MODE_PRACTICAL:
        const = {**PRACTICAL, **overrides}
    else:
        raise ValueError(f"unknown mode {mode!r}")
    const["c"], const["rho_min"] = float(const["c"]), float(const["rho_min"])
    # a span beyond the floats gives rho_max = inf, which _validate refuses
    span = const["interval_count"] * const["interval_width"]
    return _validate(Params(
        n=n, k=k, lam=lam, epsilon=epsilon,
        rho_max=const["rho_min"] + 1.0
        + (span if abs(span) <= sys.float_info.max else math.inf),
        max_level=max(1, math.ceil(math.log(n, k))), mode=mode, **const))
