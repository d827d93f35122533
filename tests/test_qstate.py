import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import BENCH_ENTRIES, MIXED_ENTRIES
from oracles import dense_xmatrix, partial_trace_a, random_xstate_entries
from xdiscord.errors import PositivityError, TraceError
from xdiscord.qstate import bloch_params, eigenvalues, xstate_from_entries


class TestXStateValidation:
    def test_benchmark_entries_valid(self):
        s = xstate_from_entries(*BENCH_ENTRIES["rho1"])
        assert_allclose(s.a + s.b + s.c + s.d, 1.0, atol=1e-15)

    def test_maximally_mixed_valid(self):
        s = xstate_from_entries(*MIXED_ENTRIES)
        assert s.a == s.b == s.c == s.d == 0.25

    def test_trace_error(self):
        with pytest.raises(TraceError):
            xstate_from_entries(0.25, 0.25, 0.25, 0.15, 0.0, 0.0)

    def test_block_positivity_error(self):
        with pytest.raises(PositivityError):
            xstate_from_entries(0.5, 0.0, 0.0, 0.5, 0.6, 0.0)

    def test_second_block_positivity_error(self):
        with pytest.raises(PositivityError):
            xstate_from_entries(0.3, 0.2, 0.2, 0.3, 0.0, 0.21)

    def test_negative_population_rejected(self):
        with pytest.raises(PositivityError):
            xstate_from_entries(-0.1, 0.4, 0.4, 0.3, 0.0, 0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            xstate_from_entries(math.nan, 0.25, 0.25, 0.25, 0.0, 0.0)

    def test_renormalizes_within_input_tolerance(self):
        # 6-decimal inputs that sum to 1 only at printed precision
        s = xstate_from_entries(0.25, 0.25, 0.25, 0.25 + 4e-10, 0.0, 0.0)
        assert abs(s.a + s.b + s.c + s.d - 1.0) <= 1e-15

    def test_random_entries_accepted(self, rng):
        for _ in range(200):
            s = xstate_from_entries(*random_xstate_entries(rng))
            assert s.a * s.d >= s.eps**2 - 1e-12


class TestBlochParams:
    def test_maximally_mixed_is_zero(self, mixed_state):
        bp = bloch_params(mixed_state)
        assert (bp.A, bp.B, bp.t1, bp.t2, bp.t3) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_rho3_values(self, bench_states):
        bp = bloch_params(bench_states["rho3"])
        assert_allclose(
            [bp.A, bp.B, bp.t1, bp.t2, bp.t3],
            [-0.5934, -0.5934, 0.2, 0.2, 0.5],
            atol=1e-12,
        )

    def test_rho1_b_coefficient(self, bench_states):
        assert_allclose(bloch_params(bench_states["rho1"]).B, -0.945192, atol=1e-12)

    def test_round_trip_inversion(self, rng):
        for _ in range(500):
            s = xstate_from_entries(*random_xstate_entries(rng))
            bp = bloch_params(s)
            # invert the linear system for the diagonal and coherences
            a = (1.0 + bp.A + bp.B + bp.t3) / 4.0
            b = (1.0 - bp.A + bp.B - bp.t3) / 4.0
            c = (1.0 + bp.A - bp.B - bp.t3) / 4.0
            d = (1.0 - bp.A - bp.B + bp.t3) / 4.0
            eps = (bp.t1 - bp.t2) / 4.0
            delta = (bp.t1 + bp.t2) / 4.0
            assert_allclose(
                [a, b, c, d, eps, delta],
                [s.a, s.b, s.c, s.d, s.eps, s.delta],
                atol=1e-14,
            )

    def test_bounded_for_valid_states(self, rng):
        for _ in range(500):
            bp = bloch_params(xstate_from_entries(*random_xstate_entries(rng)))
            assert max(abs(v) for v in (bp.A, bp.B, bp.t1, bp.t2, bp.t3)) <= 1 + 1e-12


def populations_b(s):
    """Populations (p0, p1) of subsystem B from its Bloch z-component A."""
    A = bloch_params(s).A
    return (1.0 + A) / 2.0, (1.0 - A) / 2.0


class TestMarginalB:
    def test_maximally_mixed(self, mixed_state):
        assert populations_b(mixed_state) == (0.5, 0.5)

    def test_rho1(self, bench_states):
        assert_allclose(populations_b(bench_states["rho1"]), (0.054507, 0.945493), atol=1e-12)

    def test_rho3(self, bench_states):
        assert_allclose(populations_b(bench_states["rho3"]), (0.2033, 0.7967), atol=1e-12)

    def test_matches_partial_trace(self, rng):
        for _ in range(200):
            s = xstate_from_entries(*random_xstate_entries(rng))
            rho_b = partial_trace_a(dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta))
            assert_allclose(np.diag(rho_b).real, populations_b(s), rtol=0.0, atol=1e-15)
            assert_allclose(rho_b[0, 1], 0.0, atol=0.0)


class TestEigenvalues:
    def test_closed_form_matches_dense_solver(self, rng):
        for _ in range(2000):
            s = xstate_from_entries(*random_xstate_entries(rng))
            ours = np.sort(eigenvalues(s))
            dense = np.sort(np.linalg.eigvalsh(dense_xmatrix(s.a, s.b, s.c, s.d, s.eps, s.delta)))
            assert_allclose(ours, dense, atol=1e-12)

    def test_nonnegative_and_normalized(self, rng):
        for _ in range(500):
            lams = eigenvalues(xstate_from_entries(*random_xstate_entries(rng)))
            assert lams.min() >= -1e-10
            assert_allclose(lams.sum(), 1.0, atol=1e-12)
