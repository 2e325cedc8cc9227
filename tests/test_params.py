import math
import re

import pytest

from dirhopset.params import (MODE_PAPER, MODE_PRACTICAL, OVERRIDES,
                              PRACTICAL, derive_params)
from dirhopset.parallel import derive_parallel_params


class TestPaperMode:
    def test_rho_values_n1024(self):
        p = derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER)
        # 16*64*4*100 - 1 and 32*64*4*100
        assert p.rho_min == 409599.0
        assert p.rho_max == 819200.0
        assert p.interval_count == 51200
        assert p.interval_width == 8

    def test_L_for_eps_one(self):
        p = derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER)
        assert p.L == 15

    def test_L_shrinks_with_eps(self):
        small = derive_params(1024, 0.25, k=2, lam=8, mode=MODE_PAPER)
        assert small.L == 19  # 15 - 2*log2(0.25)

    def test_kc_formula(self):
        p = derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER)
        want = (8 ** 15) * (2 ** 7.0) / (32.0 * 1000.0)
        assert math.isclose(p.k ** p.c, want, rel_tol=1e-9)

    def test_repetitions(self):
        p = derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER)
        assert p.repetitions == 80

    def test_span_invariant(self):
        for n in (100, 1024, 5000):
            p = derive_params(n, 0.5, k=2, lam=8, mode=MODE_PAPER)
            span = p.rho_max - (p.rho_min + 1)
            assert abs(span - p.interval_count * p.interval_width) < 1e-9

    def test_only_repetitions_overridable(self):
        p = derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER,
                          repetitions=3)
        assert p.repetitions == 3 and p.L == 15
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER,
                          repetitions=0)
        for key in set(OVERRIDES) - {"repetitions"}:
            with pytest.raises(ValueError, match=rf"paper mode derives "
                                                 rf"\['{key}'\]"):
                derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER,
                              **{key: PRACTICAL[key]})

    def test_max_level(self):
        p = derive_params(1024, 1.0, k=2, lam=8, mode=MODE_PAPER)
        assert p.max_level == 10
        assert derive_params(1000, 1.0, k=2, lam=8).max_level == 10


class TestPracticalMode:
    def test_defaults_accepted(self):
        p = derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL)
        assert p.rho_min == 3.0 and p.rho_max == 8.0
        assert p.interval_count == 2 and p.interval_width == 2

    def test_overrides(self):
        p = derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL,
                          L=0, c=2.0, rho_min=2.0, interval_count=3,
                          interval_width=4)
        assert p.L == 0 and p.c == 2.0
        assert p.rho_max == 2.0 + 1.0 + 12.0

    def test_one_table_of_defaults(self):
        assert OVERRIDES == tuple(PRACTICAL) and len(OVERRIDES) == 6
        p = derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL)
        assert {key: getattr(p, key) for key in OVERRIDES} == PRACTICAL

    def test_rejects_bad_rho_order(self):
        with pytest.raises(ValueError, match="need 1 < rho_min"):
            derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL,
                          rho_min=1.0)

    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL,
                          interval_width=1)

    def test_rejects_span_mismatch(self):
        # rho_max is derived from the span, so it cannot be given
        with pytest.raises(ValueError,
                           match=r"unknown overrides \['rho_max'\]"):
            derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL,
                          rho_min=3.0, rho_max=100.0)

    @pytest.mark.parametrize("key, value, fragment", [
        ("c", math.nan, "c must be finite"),
        ("c", math.inf, "c must be finite"),
        ("c", -math.inf, "c must be finite"),
        ("c", -1e300, "c must be finite"),  # k^-c overflows
        ("interval_count", 0, "interval_count must be >= 1"),
        ("interval_count", -2, "interval_count must be >= 1"),
        ("repetitions", 0, "repetitions must be >= 1"),
        ("repetitions", -3, "repetitions must be >= 1"),
        ("rho_min", math.nan, "need 1 < rho_min"),
        ("rho_min", math.inf, "need 1 < rho_min"),
        ("rho_min", 1e308, "rho_max <= 2^53"),  # no integer radii left
        ("interval_width", 2 ** 53, "rho_max <= 2^53"),
        pytest.param("interval_width", 10 ** 400, "rho_max <= 2^53",
                     id="interval_width-401-digits")])
    def test_rejects_meaningless_values(self, key, value, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            derive_params(64, 0.5, k=2, lam=1, mode=MODE_PRACTICAL,
                          **{key: value})

    @pytest.mark.parametrize("mode", [MODE_PRACTICAL, MODE_PAPER])
    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.5])
    def test_rejects_bad_epsilon(self, mode, epsilon):
        with pytest.raises(ValueError, match="finite and >= 0"):
            derive_params(64, epsilon, k=2, lam=1, mode=mode)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            derive_params(64, 0.5, k=1, lam=1, mode=MODE_PRACTICAL)

    @pytest.mark.parametrize("k, lam, fragment", [
        pytest.param(10 ** 400, 1, "lambda * k^1 must be at most",
                     id="k-401-digits"),
        pytest.param(2, 10 ** 400, "lambda * k^3 must be at most",
                     id="lambda-401-digits")])
    def test_rejects_constants_beyond_floats(self, k, lam, fragment):
        # the drivers take k^x and lam * k^i as floats: OverflowError
        with pytest.raises(ValueError, match=re.escape(fragment)):
            derive_params(8, 0.0, k=k, lam=lam, mode=MODE_PRACTICAL)

    @pytest.mark.parametrize("k, lam", [(2, 10 ** 30), (10 ** 301 - 1, 1)])
    def test_paper_constants_overflow(self, k, lam):
        with pytest.raises(ValueError, match="paper mode's constants "
                                             "overflow a float"):
            derive_params(8, 0.0, k=k, lam=lam, mode=MODE_PAPER)

    @pytest.mark.parametrize("mode", [MODE_PRACTICAL, MODE_PAPER])
    def test_rejects_unknown_overrides(self, mode):
        with pytest.raises(ValueError, match=r"\['Lx', 'rho_mn'\]"):
            derive_params(8, 0.0, 2, 1, mode, rho_mn=99, Lx=7)
        with pytest.raises(ValueError, match="unknown overrides"):
            derive_params(8, 0.0, 2, 1, mode, max_level=3)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            derive_params(64, 0.5, mode="turbo")


class TestParallelParams:
    def test_delta(self):
        delta, eps_inner, _, _ = derive_parallel_params(1024, 0.8)
        assert math.isclose(delta, 0.01)
        assert math.isclose(eps_inner, 0.01)

    def test_L(self):
        _, _, L, _ = derive_parallel_params(1024, 1.0, k=2)
        assert L == 17

    def test_beta(self):
        _, _, _, beta = derive_parallel_params(1024, 1.0, k=2, lam=8)
        assert math.isclose(beta, 6.0 * (8 ** 10) * 32.0 / 10.0)

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            derive_parallel_params(1024, 0.0)

    @pytest.mark.parametrize("epsilon", [math.inf, math.nan, -0.5])
    def test_rejects_non_finite_eps(self, epsilon):
        with pytest.raises(ValueError, match="finite and > 0"):
            derive_parallel_params(1024, epsilon)
