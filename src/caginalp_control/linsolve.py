"""Factorized solves with operators that are products of shifted Laplacians.

Every implicit operator of a sweep is A = c0 I - L, or
A = c0 I - c1 L + L^2 = (r1 I - L)(r2 I - L) with r1 + r2 = c1 and
r1 r2 = c0, the second-order splitting of a Cahn-Hilliard operator (Elliott,
French and Milner, Numer. Math. 54, 1989). Real roots are taken with the
smaller as c0 / r1, so that it does not cancel. A complex pair r, conj(r)
needs one complex factor, since L is real:
(conj(r) I - L)^-1 v = conj((r I - L)^-1 conj(v)). Each factor rI - L gets
a LAPACK tridiagonal LU by gttrf in 1D, its band L's band with a shifted
diagonal (Golub and Van Loan, Matrix Computations, section 4.3), and a
sparse LU by ``splu`` in 2D. No matrix with entries of size h^-4 is formed.

A cold solve is one LU solve. A warm start keeps its guess when the guess's
normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) is at
rounding level, a few units of roundoff (Higham, Accuracy and Stability of
Numerical Algorithms, section 7.1), so that a fixed point stays exact;
otherwise it adds one correction, the LU solution of its residual. The
residual is composed from products by L, (c0 x - c1 L x) + L (L x), so its
rounding stays at the scale of L, and ||A||_inf is bounded by
c0 + c1 ||L||_inf + ||L||_inf^2 without assembling A.

An exactly singular factor or non-finite values raise ``SolverError``
carrying the block label and the step index. A sweep hands its assembled
right-hand sides over unchecked, so these solves alone judge the non-finite
values of a sweep.

A right-hand side whose entries lie outside [2**-400, 2**400] is scaled by
a power of two before the solve and the solution scaled back, so the bound
of the acceptance test can neither overflow nor underflow; a power of two
scales exactly, so the scaled solve rounds as the unscaled one would.

Every matrix-vector product of a sweep goes through :class:`MatVec`, which
calls the compiled CSR/CSC kernel that scipy's own ``A @ x`` ends in.
scipy's operator dispatch around that kernel costs more than the kernel
itself at desk size, and a sweep makes several products per step; the kernel
and its summation order are the same, so the products are bit-equal. MatVec
is the package's only use of scipy's private ``_sparsetools``. The checks
below call the array method ``abs(x).max()`` for the same reason: it
computes exactly what ``np.max(np.abs(x))`` computes on a 1-D real array,
without its Python-level wrapper.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgttrf, dgttrs, zgttrf, zgttrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .errors import SolverError

__all__ = ["FactorizedOperator"]

# Backward error at which a solve counts as converged to rounding level, a
# few units of roundoff.
_ROUNDING = 4.0 * np.finfo(float).eps

# Right-hand sides whose largest entry lies outside this range are scaled
# by a power of two first. Inside it, the bound of the acceptance test
# stays far from overflow, and a residual 1e-30 times the right-hand side
# is still a normal number.
_SMALLEST = 2.0 ** -400
_LARGEST = 2.0 ** 400


def _at_rounding(residual, x, matrix_norm, rhs_inf):
    """Whether ||r||_inf <= _ROUNDING (||A||_inf ||x||_inf + ||b||_inf)."""
    # The array methods skip np.max's Python-level dispatch, which costs as
    # much as the reduction itself on desk-sized vectors.
    return abs(residual).max() <= _ROUNDING * (
        matrix_norm * abs(x).max() + rhs_inf)


class MatVec:
    """y = A @ x for a CSR or CSC matrix A, by the kernel ``A @ x`` calls.

    Calls ``csr_matvec`` or ``csc_matvec`` into a fresh zero vector, as
    scipy does once it has dispatched ``A @ x`` for a 1-D float array x, so
    the result is bit-equal to ``A @ x``.
    """

    __slots__ = ("_kernel", "_rows", "_cols", "_indptr", "_indices", "_data")

    _KERNELS = {"csr": _sparsetools.csr_matvec,
                "csc": _sparsetools.csc_matvec}

    def __init__(self, matrix):
        self._kernel = self._KERNELS[matrix.format]
        self._rows, self._cols = matrix.shape
        self._indptr = matrix.indptr
        self._indices = matrix.indices
        self._data = matrix.data

    def __call__(self, x):
        result = np.zeros(self._rows)
        self._kernel(self._rows, self._cols, self._indptr, self._indices,
                     self._data, x, result)
        return result


class SolveCounter:
    """Mutable tally of inner linear solves, one per StepOperators."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0


class _BandLU:
    """LAPACK LU of a real or complex tridiagonal matrix, by gttrf with
    partial pivoting, solved like a SuperLU factor.

    Raises:
        np.linalg.LinAlgError: If a pivot is exactly zero.
    """

    __slots__ = ("_backsolve",)

    def __init__(self, lower, diagonal, upper):
        factor, backsolve = ((zgttrf, zgttrs) if np.iscomplexobj(diagonal)
                             else (dgttrf, dgttrs))
        *factors, info = factor(lower, diagonal, upper)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"matrix is exactly singular (LAPACK info {info})")
        self._backsolve = functools.partial(backsolve, *factors)

    def solve(self, rhs):
        return self._backsolve(rhs)[0]


def _negated_band(lap):
    """Sub-, main and super-diagonal of -L when L is tridiagonal with at
    least three rows, as every 1D Laplacian is; else None."""
    band = [-lap.diagonal(k) for k in (-1, 0, 1)]
    if lap.shape[0] < 3 or sum(map(np.count_nonzero, band)) < lap.nnz:
        return None
    return band


def _shifts(c0, c1):
    """The shifts r of the factors rI - L of A: one for c0 I - L, the real
    pair of c0 I - c1 L + L^2, or one root of its complex pair."""
    if c1 is None:
        return (c0,)
    discriminant = c1 * c1 - 4.0 * c0
    if discriminant < 0.0:
        return (complex(0.5 * c1, 0.5 * math.sqrt(-discriminant)),)
    larger = 0.5 * (c1 + math.copysign(math.sqrt(discriminant), c1))
    return (larger, c0 / larger)


def _factor(lap, band, shift):
    """LU of shift I - L: the band LU of -L's band with a shifted diagonal
    when there is a band, else a sparse LU."""
    if band is not None:
        lower, diagonal, upper = band
        return _BandLU(lower, shift + diagonal, upper)
    identity = sp.identity(lap.shape[0], format="csc")
    return splu((shift * identity - lap).tocsc())


class FactorizedOperator:
    """A = c0 I - L, or A = c0 I - c1 L + L^2, factorized as shifted
    Laplacians, with one-shot direct solves.

    Args:
        lap: Sparse square Laplacian L, CSR.
        c0: Shift of the identity.
        c1: Coefficient of -L in the second-degree operator; None for the
            first-degree operator c0 I - L.
        counter: Optional SolveCounter ticked once per solve.
        label: Block name put into failures (phase, heat, nutrient, ...).

    Raises:
        SolverError: If a factor is exactly singular.
    """

    def __init__(self, lap, c0, c1=None, *, counter=None, label="linear"):
        self._apply_lap = MatVec(lap)
        self._c0 = float(c0)
        self._c1 = None if c1 is None else float(c1)
        lap_norm = float(abs(lap).sum(axis=1).max())
        self._norm_inf = abs(self._c0) + lap_norm * (
            1.0 if c1 is None else abs(self._c1) + lap_norm)
        self._counter = counter
        self.label = label
        band = _negated_band(lap)
        shifts = _shifts(self._c0, self._c1)
        self._paired = isinstance(shifts[0], complex)
        try:
            self._factors = [_factor(lap, band, r) for r in shifts]
        except (np.linalg.LinAlgError, RuntimeError) as exc:
            raise self._failure(f"could not be factored: {exc}",
                                None) from exc

    def solve(self, rhs, step=None, guess=None):
        """Solve A x = rhs.

        Args:
            rhs: Right-hand side (flat array).
            step: Time-step index attached to failures, for diagnostics.
            guess: Optional warm start, kept as it is when its backward
                error is at rounding level and otherwise corrected once.
                Keeping an exact guess keeps slowly varying solutions
                (fixed points in particular) from accumulating
                factorization rounding noise step after step.

        Returns:
            Real solution array.

        Raises:
            SolverError: On non-finite values.
        """
        if self._counter is not None:
            self._counter.count += 1
        rhs = np.ascontiguousarray(rhs, dtype=float)
        rhs_inf = float(abs(rhs).max())
        if not math.isfinite(rhs_inf):
            raise self._failure("received non-finite right-hand side", step)
        if rhs_inf == 0.0:
            return np.zeros_like(rhs)
        if _SMALLEST <= rhs_inf <= _LARGEST:
            return self._solve(rhs, rhs_inf, step, guess)
        scale = math.ldexp(1.0, math.frexp(rhs_inf)[1])
        if guess is not None:
            guess = np.asarray(guess, dtype=float) / scale
        return scale * self._solve(rhs / scale, rhs_inf / scale, step, guess)

    def _apply(self, x):
        """A x, composed from products by L."""
        lap_x = self._apply_lap(x)
        if self._c1 is None:
            return self._c0 * x - lap_x
        return (self._c0 * x - self._c1 * lap_x) + self._apply_lap(lap_x)

    def _direct(self, rhs):
        """A^-1 rhs, through each factor in turn; a complex root's factor
        serves its conjugate too."""
        x = rhs
        for lu in self._factors:
            x = lu.solve(x)
        if self._paired:
            x = self._factors[0].solve(x.conj()).real
        return x

    def _solve(self, rhs, rhs_inf, step, guess):
        if guess is None:
            x = self._direct(rhs)
        else:
            x = np.asarray(guess, dtype=float)
            residual = rhs - self._apply(x)
            if not _at_rounding(residual, x, self._norm_inf, rhs_inf):
                x = x + self._direct(residual)
        if not np.isfinite(x).all():
            raise self._failure("produced non-finite values", step)
        return x

    def _failure(self, what, step):
        where = "" if step is None else f" at step {step}"
        return SolverError(f"{self.label} solve{where} {what}", step=step,
                           block=self.label)
