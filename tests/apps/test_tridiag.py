"""Tests for the Thomas solvers (TRIDIAG of Figure 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.tridiag import (
    thomas, thomas_const, thomas_const_batch, tridiag_matvec,
)


class TestThomasConst:
    def test_solves_system(self):
        rng = np.random.default_rng(0)
        rhs = rng.standard_normal(50)
        x = thomas_const(rhs, a=-1.0, b=4.0)
        assert np.allclose(tridiag_matvec(x, -1.0, 4.0), rhs)

    def test_identity_system(self):
        rhs = np.array([1.0, 2.0, 3.0])
        assert np.allclose(thomas_const(rhs, a=0.0, b=1.0), rhs)

    def test_scalar_system(self):
        assert np.allclose(thomas_const(np.array([6.0]), a=-1.0, b=2.0), [3.0])

    def test_empty(self):
        assert len(thomas_const(np.array([]), a=-1.0, b=4.0)) == 0

    def test_zero_diagonal_rejected(self):
        with pytest.raises(ZeroDivisionError):
            thomas_const(np.ones(4), a=1.0, b=0.0)

    def test_input_not_modified(self):
        rhs = np.ones(10)
        thomas_const(rhs, a=-1.0, b=4.0)
        assert (rhs == 1.0).all()

    def test_diagonal_dominance_stability(self):
        # large system stays accurate when diagonally dominant
        rng = np.random.default_rng(1)
        rhs = rng.standard_normal(2000)
        x = thomas_const(rhs, a=-1.0, b=2.5)
        assert np.allclose(tridiag_matvec(x, -1.0, 2.5), rhs, atol=1e-10)


class TestThomasConstBatch:
    """The stacked form is the scalar routine lane by lane: bitwise."""

    @given(
        m=st.integers(1, 9), n=st.sampled_from([1, 2, 3, 8, 17]),
        coeffs=st.sampled_from(
            [(-1.0, 4.0), (-1, 4), (1, 3), (0.3, -2.5), (2.0, 0.5)]),
        layout=st.sampled_from(["C", "F", "strided"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bitwise_equals_row_wise_scalar(self, m, n, coeffs, layout, seed):
        a, b = coeffs
        rhs = np.random.default_rng(seed).standard_normal((2 * m, 2 * n))
        rhs = {"C": rhs[:m, :n].copy(), "F": np.asfortranarray(rhs[:m, :n]),
               "strided": rhs[::2, ::2]}[layout]
        before = rhs.copy()
        got = thomas_const_batch(rhs, a, b)
        want = np.stack([thomas_const(row, a, b) for row in rhs])
        assert got.tobytes() == want.tobytes(), (m, n, a, b, layout)
        assert got.shape == (m, n) and got.flags.c_contiguous
        assert not np.shares_memory(got, rhs)
        assert rhs.tobytes() == before.tobytes()  # input not modified

    def test_zero_pivot_raises_every_time(self):
        # b - a * (a / b) == 0 at the second pivot; nothing may remember
        # the coefficients of a failed (or any) earlier call
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                thomas_const_batch(np.ones((3, 4)), a=1.0, b=1.0)
            with pytest.raises(ZeroDivisionError):
                thomas_const_batch(np.ones((3, 4)), a=1.0, b=0.0)

    @pytest.mark.parametrize("shape", [(0, 5), (4, 0)])
    def test_empty_batches_return_copies(self, shape):
        rhs = np.empty(shape)
        got = thomas_const_batch(rhs, -1.0, 4.0)
        assert got.shape == shape and got is not rhs

    def test_needs_a_2d_rhs(self):
        with pytest.raises(ValueError, match="2-D"):
            thomas_const_batch(np.ones(4), -1.0, 4.0)


class TestThomasGeneral:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(2)
        n = 30
        lower = rng.uniform(-1, 0, n - 1)
        upper = rng.uniform(-1, 0, n - 1)
        diag = 4.0 + rng.uniform(0, 1, n)
        rhs = rng.standard_normal(n)
        x = thomas(lower, diag, upper, rhs)
        A = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
        assert np.allclose(A @ x, rhs)

    def test_agrees_with_const_variant(self):
        rhs = np.random.default_rng(3).standard_normal(20)
        x1 = thomas_const(rhs, a=-1.0, b=4.0)
        x2 = thomas(
            np.full(19, -1.0), np.full(20, 4.0), np.full(19, -1.0), rhs
        )
        assert np.allclose(x1, x2)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            thomas(np.ones(3), np.ones(3), np.ones(2), np.ones(3))

    def test_zero_pivot_detected(self):
        with pytest.raises(ZeroDivisionError):
            thomas(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]),
                   np.array([1.0, 1.0]))


class TestMatvec:
    def test_tridiagonal_structure(self):
        x = np.array([1.0, 0.0, 0.0, 0.0])
        y = tridiag_matvec(x, a=2.0, b=3.0)
        assert list(y) == [3.0, 2.0, 0.0, 0.0]
