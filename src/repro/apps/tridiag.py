"""Tridiagonal solvers — the paper's ``TRIDIAG`` routine (Figure 1).

"The tridiagonal solves are performed by a sequential routine TRIDIAG
(not shown here) which is given a right hand side and overwrites it
with the solution of a constant coefficient tridiagonal system."

:func:`thomas_const` is exactly that routine: the Thomas algorithm
specialized to a constant-coefficient system (sub/sup-diagonal ``a``,
diagonal ``b``).  :func:`thomas` solves the general variable
coefficient case; both are plain sequential kernels — parallelism in
ADI comes from solving *many independent lines*, not from inside one
solve, which is the whole point of the paper's example.
"""

from __future__ import annotations

import numpy as np

__all__ = ["thomas", "thomas_const", "thomas_const_batch", "tridiag_matvec"]


def thomas(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve a general tridiagonal system by the Thomas algorithm.

    ``lower`` has length n-1 (subdiagonal), ``diag`` length n,
    ``upper`` length n-1 (superdiagonal).  Returns the solution (the
    inputs are not modified).  The algorithm is the standard O(n)
    forward elimination / back substitution; it is stable for the
    diagonally dominant systems ADI produces.
    """
    diag = np.asarray(diag, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    lower = np.asarray(lower, dtype=np.float64)
    upper = np.asarray(upper, dtype=np.float64)
    n = len(diag)
    if len(rhs) != n or len(lower) != n - 1 or len(upper) != n - 1:
        raise ValueError("inconsistent tridiagonal system sizes")
    if n == 0:
        return rhs.copy()
    cp = np.empty(n, dtype=np.float64)
    dp = np.empty(n, dtype=np.float64)
    if diag[0] == 0:
        raise ZeroDivisionError("zero pivot in Thomas algorithm")
    cp[0] = upper[0] / diag[0] if n > 1 else 0.0
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - lower[i - 1] * cp[i - 1]
        if denom == 0:
            raise ZeroDivisionError("zero pivot in Thomas algorithm")
        cp[i] = upper[i] / denom if i < n - 1 else 0.0
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / denom
    x = np.empty(n, dtype=np.float64)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def thomas_const(rhs: np.ndarray, a: float, b: float) -> np.ndarray:
    """The paper's TRIDIAG: solve ``T x = rhs`` with constant
    coefficients — diagonal ``b``, sub- and super-diagonal ``a``.

    Returns the solution; callers overwrite their right-hand side with
    it exactly as Figure 1 describes.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = len(rhs)
    if n == 0:
        return rhs.copy()
    cp = np.empty(n, dtype=np.float64)
    dp = np.empty(n, dtype=np.float64)
    if b == 0:
        raise ZeroDivisionError("zero pivot in Thomas algorithm")
    cp[0] = a / b if n > 1 else 0.0
    dp[0] = rhs[0] / b
    for i in range(1, n):
        denom = b - a * cp[i - 1]
        if denom == 0:
            raise ZeroDivisionError("zero pivot in Thomas algorithm")
        cp[i] = a / denom if i < n - 1 else 0.0
        dp[i] = (rhs[i] - a * dp[i - 1]) / denom
    x = np.empty(n, dtype=np.float64)
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def thomas_const_batch(rhs: np.ndarray, a: float, b: float) -> np.ndarray:
    """Solve many constant-coefficient tridiagonal systems at once.

    ``rhs`` is ``(nlines, n)`` in any memory order (it is not
    modified); returns the solutions as a fresh C-contiguous
    ``(nlines, n)`` array.  The elimination coefficients depend only on
    ``(a, b, n)``, so they are computed once, in Python floats, with
    the scalar recurrence of :func:`thomas_const`.  The ``dp`` sweep
    and the back substitution then run on the *transposed* block — a
    contiguous ``(n, nlines)`` copy in which index ``i`` of every line
    is one contiguous row — as one in-place row operation per step: a
    line is a lane (a column) of the block, nothing ever combines two
    lanes, and each lane sees the scalar routine's operations in the
    scalar routine's order.  So every row of the result is **bitwise
    identical** to a ``thomas_const`` call on that row (elementwise
    IEEE arithmetic), however many lines are stacked — which is what
    lets a line sweep hand over all of its lines in one call (see
    :func:`repro.compiler.codegen.batched_line_solver`).
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 2:
        raise ValueError(f"batched solve needs a 2-D rhs, got {rhs.shape}")
    m, n = rhs.shape
    if n == 0 or m == 0:
        return rhs.copy()
    if b == 0:
        raise ZeroDivisionError("zero pivot in Thomas algorithm")
    # only ``a / b`` depends on the coefficients' own type (int / int is
    # true division); every later step of the scalar routine has a
    # float64 operand, i.e. sees float(a) and float(b)
    cp = [float(a / b) if n > 1 else 0.0]
    a, b = float(a), float(b)
    denom = [b]
    for i in range(1, n):
        denom.append(b - a * cp[-1])
        if denom[i] == 0:
            raise ZeroDivisionError("zero pivot in Thomas algorithm")
        cp.append(a / denom[i] if i < n - 1 else 0.0)
    block = np.array(rhs.T, order="C")  # always a copy: worked in place
    rows = list(block)
    tmp = np.empty(m, dtype=np.float64)
    np.divide(rows[0], b, out=rows[0])
    for i in range(1, n):  # rows[i] becomes dp[i]
        np.multiply(rows[i - 1], a, out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
        np.divide(rows[i], denom[i], out=rows[i])
    for i in range(n - 2, -1, -1):  # rows[i] becomes x[i]
        np.multiply(rows[i + 1], cp[i], out=tmp)
        np.subtract(rows[i], tmp, out=rows[i])
    return np.ascontiguousarray(block.T)


#: advertise the batched form to the vectorized line sweeps
thomas_const.batched = thomas_const_batch


def tridiag_matvec(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """``T x`` for the constant-coefficient tridiagonal ``T`` —
    the verification counterpart of :func:`thomas_const`."""
    x = np.asarray(x, dtype=np.float64)
    y = b * x
    y[1:] += a * x[:-1]
    y[:-1] += a * x[1:]
    return y
