"""Tests for multiplier invariants and the rationality case split."""

import math
import re

import numpy as np
import pytest

from hopfsurf.errors import ConsistencyError, InvalidInputError
from hopfsurf.invariants import (Declared, HopfParams, Numeric, derive_invariants,
                                 detect_rational, roots_of_unity)


class TestHopfParams:
    def test_valid_contraction(self):
        p = HopfParams(2 + 0j, -4 + 0j)
        assert p.rho == 2.0
        assert p.log_abs_a == math.log(2.0)
        assert p.arg_b == math.pi

    def test_rejects_small_a(self):
        with pytest.raises(InvalidInputError):
            HopfParams(0.5 + 0j, 3 + 0j)

    def test_rejects_b_smaller_than_a(self):
        with pytest.raises(InvalidInputError):
            HopfParams(3 + 0j, 2 + 0j)

    @pytest.mark.parametrize("a, b, bad", [
        (2 + 0j, complex(math.inf, 0), "b = (inf+0j)"),
        (complex(math.nan, 0), 3 + 0j, "a = (nan+0j)"),
        (complex(-math.inf, 1), complex(math.inf, 0), "a = (-inf+1j)"),
        (2 + 0j, complex(3, math.nan), "b = (3+nanj)"),
    ])
    def test_rejects_non_finite_multipliers(self, a, b, bad):
        # inf used to pass both modulus checks and fail later in math.floor
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"multiplier {bad} is not finite")):
            HopfParams(a, b)

    def test_args_are_in_principal_window(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = (1.0 + rng.uniform(0.1, 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            b = abs(a) * (1 + rng.uniform(0.1, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            p = HopfParams(complex(a), complex(b))
            assert 0.0 <= p.arg_a < 2 * math.pi
            assert 0.0 <= p.arg_b < 2 * math.pi

    def test_log_moduli_are_cached_outside_eq_and_hash(self):
        p = HopfParams(2 + 0j, 3 + 0j)
        assert (p.log_abs_a, p.log_abs_b) == (math.log(2.0), math.log(3.0))
        assert vars(p)["log_abs_a"] is p.log_abs_a
        fresh = HopfParams(2 + 0j, 3 + 0j)
        assert p == fresh and hash(p) == hash(fresh)
        assert repr(p) == repr(fresh)


class TestDetectRational:
    def test_exact_half(self):
        r = detect_rational(-0.5, 1e-12, 10**6)
        assert r.kind == "ExactRational"
        assert (r.numerator, r.denominator) == (-1, 2)

    def test_exact_integer(self):
        r = detect_rational(2.0, 1e-12, 10**6)
        assert (r.numerator, r.denominator) == (2, 1)

    def test_log_ratio_is_heuristically_irrational(self):
        # log 3 / log 2 has excellent convergents below the denominator cap;
        # the detector must not mistake them for the exact value
        r = detect_rational(math.log(3) / math.log(2), 1e-12, 10**6)
        assert r.kind == "HeuristicIrrational"
        assert r.best_convergent is not None

    def test_golden_ratio_irrational(self):
        phi = (1 + math.sqrt(5)) / 2
        assert detect_rational(phi, 1e-12, 10**6).kind == "HeuristicIrrational"

    def test_random_true_rationals_detected(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q = int(rng.integers(1, 2000))
            p = int(rng.integers(-2000, 2000))
            r = detect_rational(p / q, 1e-12, 10**6)
            assert r.kind == "ExactRational"
            assert abs(r.numerator / r.denominator - p / q) < 1e-12


    @pytest.mark.parametrize("tol", [-1e-12, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        with pytest.raises(InvalidInputError,
                           match=f"tol must be finite and >= 0, got {tol}"):
            detect_rational(0.5, tol, 10**6)

    @pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(InvalidInputError,
                           match=f"^x must be finite, got {x}$"):
            detect_rational(x, 1e-12, 10**6)

    def test_rejects_zero_max_den(self):
        with pytest.raises(InvalidInputError,
                           match="^max_den must be >= 1$"):
            detect_rational(0.5, 1e-12, 0)

    def test_numeric_mode_rejects_nan_tol(self):
        # a NaN tol used to reach the report and print as invalid JSON
        with pytest.raises(InvalidInputError, match="tol must be finite"):
            derive_invariants(HopfParams(2 + 0j, 4 + 0j), Numeric(tol=math.nan))


class TestDeriveInvariants:
    def test_case_b2_reference_pair(self):
        inv = derive_invariants(HopfParams(2 + 0j, -4 + 0j), Numeric())
        assert inv.case_tag == "CaseB2"
        assert inv.rho == 2.0
        assert inv.tau == -0.5
        assert (inv.p, inv.q, inv.l, inv.m) == (1, 2, 2, -1)
        assert inv.nu == 2
        assert inv.K == [1 + 0j, -1 + 0j]

    def test_case_a_reference_pair(self):
        inv = derive_invariants(HopfParams(2 + 0j, 3 + 0j), Numeric())
        assert inv.case_tag == "CaseA"
        assert inv.tau is None

    def test_case_b1(self):
        # rho = 1 exactly; tau = (arg a - arg b)/2pi irrational by choice of args
        a = 2 * np.exp(1j * 1.0)
        b = 2 * np.exp(0j)
        inv = derive_invariants(HopfParams(complex(a), complex(b)), Numeric())
        assert inv.case_tag == "CaseB1"
        assert inv.nu is None

    def test_declared_matches_numeric(self):
        inv_n = derive_invariants(HopfParams(2 + 0j, -4 + 0j), Numeric())
        inv_d = derive_invariants(HopfParams(2 + 0j, -4 + 0j),
                                  Declared(p=1, q=2, l=2, m=-1))
        assert inv_d.case_tag == inv_n.case_tag == "CaseB2"
        assert inv_d.nu == inv_n.nu == 2
        assert inv_d.K == inv_n.K

    @pytest.mark.parametrize("l, m", [(2, None), (None, -1)])
    def test_declared_needs_l_and_m_together(self, l, m):
        # l without m failed on abs(None), which the CLI reported as exit 1
        with pytest.raises(InvalidInputError,
                           match="^declare both l and m, or neither$"):
            derive_invariants(HopfParams(2 + 0j, -4 + 0j),
                              Declared(p=1, q=2, l=l, m=m))

    @pytest.mark.parametrize("mode, error, message", [
        (Declared(p=2, q=4), InvalidInputError,
         "declared rho = 4/2 must have q >= p >= 1 and gcd(p, q) = 1"),
        (Declared(p=1, q=2, l=4, m=2), InvalidInputError,
         "declared tau = 2/4 must have l >= 1 and gcd(l, |m|) = 1"),
        (Declared(p=1, q=2, l=3, m=1), ConsistencyError,
         "declared tau = 1/3 but computed tau = -0.5"),
    ])
    def test_declared_rejects_bad_fractions(self, mode, error, message):
        # rho = 2 and tau = -1/2 on (2, -4)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            derive_invariants(HopfParams(2 + 0j, -4 + 0j), mode)

    def test_declared_rejects_inconsistent(self):
        with pytest.raises(ConsistencyError):
            derive_invariants(HopfParams(2 + 0j, -4 + 0j), Declared(p=1, q=3))

    def test_declared_irrational_tau(self):
        a = 2 * np.exp(1j * 1.0)
        inv = derive_invariants(HopfParams(complex(a), 4 + 0j),
                                Declared(p=1, q=2, l=None))
        assert inv.case_tag == "CaseB1"


class TestRootsOfUnity:
    @pytest.mark.parametrize("nu", [0, -3])
    def test_rejects_orders_below_one(self, nu):
        with pytest.raises(InvalidInputError, match="^nu must be >= 1$"):
            roots_of_unity(nu)

    def test_quarter_turns_exact(self):
        assert roots_of_unity(4) == [1 + 0j, 1j, -1 + 0j, -1j]
        assert roots_of_unity(2) == [1 + 0j, -1 + 0j]
        assert roots_of_unity(1) == [1 + 0j]

    def test_generic_order(self):
        for nu in (3, 5, 7, 12):
            K = roots_of_unity(nu)
            assert len(K) == nu
            for k in K:
                assert abs(k**nu - 1) < 1e-12
