"""Factorized sparse solves with residual-checked iteration.

Every inner linear system in the package goes through this wrapper, each
solve iterated until it is accepted. The forward operators are factorized
once per forward sweep and reused by the sweeps around its trajectory, the
adjoint's terminal operator once per base, and a 1D shifted nutrient band
once per step. A solution is accepted once its relative residual
||r||_2 / ||b||_2 meets the requested tolerance, or once its normwise
backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) is at rounding
level, a few units of roundoff (Higham, Accuracy and Stability of Numerical
Algorithms, section 7.1). The relative residual of a backward-stable solve
grows with the condition number of A, which on fine grids keeps it above
any fixed tolerance; the backward error does not.

The factorization is chosen once per matrix, from the matrix alone. A
matrix whose band storage (2 kl + ku + 1) N is at most twice its nonzeros,
as every 1D operator is, gets a LAPACK band LU: gttrf for a tridiagonal
band, gbtrf for a wider one (Golub and Van Loan, Matrix Computations,
section 4.3). Any other matrix, as a 2D operator with its band about
sqrt(N) wide, gets a sparse LU by ``splu``.

A plain solve refines the LU solution. A shifted solve of
(A + diag(shift)) x = b, whose diagonal changes from step to step, factors
the shifted band afresh when A is banded, at O(N) cost, and refines that
solution the same way. A sparse A instead runs conjugate gradients
preconditioned by its LU, so no sparse matrix is assembled or factorized per
step. A solve that meets neither test, a factor that is exactly singular, or
a solve that produces non-finite values raises ``SolverError`` carrying the
block label, the step index and the achieved residual.

A right-hand side whose entries lie outside [2**-400, 2**400] is scaled by
a power of two before the solve and the solution scaled back, so the norms
of the acceptance tests can neither overflow nor underflow; a power of two
scales exactly, so the scaled solve rounds as the unscaled one would.

Every matrix-vector product of a sweep goes through :class:`MatVec`, which
calls the compiled CSR/CSC kernel that scipy's own ``A @ x`` ends in.
scipy's operator dispatch around that kernel costs more than the kernel
itself at desk size, and a sweep makes several products per step; the kernel
and its summation order are the same, so the products are bit-equal. MatVec
is the package's only use of scipy's private ``_sparsetools``. The norms and
checks below call array methods (``x.dot(x)``, ``abs(x).max()``) for the
same reason: they compute exactly what ``np.linalg.norm`` and ``np.max``
compute on a 1-D real array, without their Python-level wrappers.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dgttrf, dgttrs
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .errors import SolverError

__all__ = ["SolveCounter", "FactorizedOperator", "MatVec"]

# Backward error at which a solve counts as converged to rounding level, a
# few units of roundoff.
_ROUNDING = 4.0 * np.finfo(float).eps

# Right-hand sides whose largest entry lies outside this range are scaled
# by a power of two first. Inside it, the sums of squares in the norms stay
# far from overflow, and a residual 1e-30 times the right-hand side still
# has a nonzero norm.
_SMALLEST = 2.0 ** -400
_LARGEST = 2.0 ** 400


def _at_rounding(residual, x, matrix_norm, rhs_inf):
    """Whether ||r||_inf <= _ROUNDING (||A||_inf ||x||_inf + ||b||_inf)."""
    # The array methods skip np.max's Python-level dispatch, which costs as
    # much as the reduction itself on desk-sized vectors.
    return abs(residual).max() <= _ROUNDING * (
        matrix_norm * abs(x).max() + rhs_inf)


def _norm(v):
    """Euclidean norm of a contiguous 1-D float array, as np.linalg.norm."""
    return math.sqrt(v.dot(v))


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
    """LAPACK LU of a band matrix, solved like a SuperLU factor.

    Takes the diagonals in the layout of ``scipy.linalg.solve_banded``,
    band[ku + i - j, j] = A[i, j]. A tridiagonal band of three or more rows
    is factored by gttrf, any other band by gbtrf, both with partial
    pivoting.

    Raises:
        np.linalg.LinAlgError: If a pivot is exactly zero.
    """

    __slots__ = ("_backsolve",)

    def __init__(self, band, kl, ku):
        if kl == ku == 1 and band.shape[1] > 2:
            *factors, info = dgttrf(band[2, :-1], band[1], band[0, 1:])
            self._backsolve = functools.partial(dgttrs, *factors)
        else:
            storage = np.zeros((2 * kl + ku + 1, band.shape[1]), order="F")
            storage[kl:] = band
            lu, ipiv, info = dgbtrf(storage, kl, ku, overwrite_ab=1)
            self._backsolve = functools.partial(dgbtrs, lu, kl, ku,
                                                ipiv=ipiv)
        if info != 0:
            raise np.linalg.LinAlgError(
                f"matrix is exactly singular (LAPACK info {info})")

    def solve(self, rhs):
        return self._backsolve(rhs)[0]


def _band_of(matrix):
    """Diagonal-ordered band (band, kl, ku) of a sparse square matrix, or
    None when its band storage exceeds twice its nonzeros."""
    coo = matrix.tocoo()
    offsets = coo.col - coo.row
    ku = max(int(offsets.max()), 0)
    kl = max(-int(offsets.min()), 0)
    n = matrix.shape[0]
    if (2 * kl + ku + 1) * n > 2 * coo.nnz:
        return None
    band = np.zeros((kl + ku + 1, n))
    band[ku - offsets, coo.col] = coo.data
    return band, kl, ku


class FactorizedOperator:
    """LU-factorized sparse operator with an iterated solve.

    Args:
        matrix: Sparse square matrix A to factorize.
        linear_tol: Relative residual at which a solve is accepted, unless
            its backward error reaches rounding level first.
        max_linear_iters: Cap on the corrections of one solve, each costing
            one back-substitution.
        counter: Optional SolveCounter ticked once per solve.
        weights: Positive diagonal of the inner product in which A and the
            shifted matrices are self-adjoint; needed only by shifted solves
            of a sparse A. Defaults to the Euclidean inner product.
        label: Block name put into failures (phase, heat, nutrient, ...).

    Raises:
        SolverError: If A is exactly singular.
    """

    def __init__(self, matrix, linear_tol, max_linear_iters, counter=None,
                 weights=None, label="linear"):
        self._matrix = matrix.tocsc()
        self._apply = MatVec(self._matrix)
        self._norm_inf = float(abs(self._matrix).sum(axis=1).max())
        self._tol = float(linear_tol)
        self._max_iters = int(max_linear_iters)
        self._counter = counter
        self._weights = (np.ones(self._matrix.shape[0]) if weights is None
                         else np.asarray(weights, dtype=float))
        self.label = label
        self._band = _band_of(self._matrix)
        if self._band is None:
            try:
                self._lu = splu(self._matrix)
            except RuntimeError as exc:
                raise self._singular(exc, None) from exc
        else:
            self._lu = self._band_lu(None)

    def solve(self, rhs, step=None, guess=None, shift=None):
        """Solve (A + diag(shift)) x = rhs until the solution is accepted.

        Args:
            rhs: Right-hand side (flat array).
            step: Time-step index attached to failures, for diagnostics.
            guess: Optional warm start. The solve then corrects the guess
                through the residual equation, which keeps slowly varying
                solutions (fixed points in particular) from accumulating
                factorization rounding noise step after step.
            shift: Optional diagonal added to A. Without it the LU solution
                is refined. With it, a banded A + diag(shift) is factored
                and its LU solution refined; a sparse one is solved by
                conjugate gradients in the weighted inner product,
                preconditioned by the LU of A.

        Returns:
            Solution array.

        Raises:
            SolverError: On residual nonconvergence, an exactly singular
                shifted band, or non-finite values.
        """
        if self._counter is not None:
            self._counter.count += 1
        rhs = np.ascontiguousarray(rhs, dtype=float)
        rhs_inf = float(abs(rhs).max())
        if not math.isfinite(rhs_inf):
            raise self._failure("received non-finite right-hand side", step,
                                float("nan"))
        if rhs_inf == 0.0:
            return np.zeros_like(rhs)
        if shift is not None:
            shift = np.asarray(shift, dtype=float)
        if _SMALLEST <= rhs_inf <= _LARGEST:
            return self._solve(rhs, rhs_inf, step, guess, shift)
        scale = math.ldexp(1.0, math.frexp(rhs_inf)[1])
        if guess is not None:
            guess = np.asarray(guess, dtype=float) / scale
        return scale * self._solve(rhs / scale, rhs_inf / scale, step, guess,
                                   shift)

    def _solve(self, rhs, rhs_inf, step, guess, shift):
        rhs_norm = _norm(rhs)
        if shift is None:
            return self._refine(self._lu, self._apply, self._norm_inf, rhs,
                                rhs_norm, rhs_inf, step, guess)

        def apply(v):
            return self._apply(v) + shift * v

        matrix_norm = self._norm_inf + float(abs(shift).max())
        if self._band is None:
            return self._conjugate_gradients(apply, matrix_norm, rhs,
                                             rhs_norm, rhs_inf, step, guess)
        return self._refine(self._band_lu(step, shift), apply, matrix_norm,
                            rhs, rhs_norm, rhs_inf, step, guess)

    def _refine(self, lu, apply, matrix_norm, rhs, rhs_norm, rhs_inf, step,
                guess):
        if guess is None:
            x = lu.solve(rhs)
        else:
            x = np.asarray(guess, dtype=float)
        relative = np.inf
        for _ in range(self._max_iters + 1):
            self._require_finite(x, step)
            residual = rhs - apply(x)
            relative = _norm(residual) / rhs_norm
            if relative <= self._tol or _at_rounding(
                    residual, x, matrix_norm, rhs_inf):
                return x
            x = x + lu.solve(residual)
        raise self._stall(relative, step)

    def _conjugate_gradients(self, apply, matrix_norm, rhs, rhs_norm,
                             rhs_inf, step, guess):
        """Preconditioned CG, driven by the recursive residual.

        Meeting the tolerance does not end the iteration before the normwise
        backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) is at
        rounding level too, so the solution is as accurate as a
        backward-stable LU solve of the same system; callers that difference
        nearby solutions (line searches in particular) rely on that. The
        recursive residual keeps falling below the true one, so it meets the
        tolerance even where the true residual cannot. The true residual
        then confirms the acceptance on either test, and CG restarts from it
        if it passes neither.
        """
        if guess is None:
            x = np.zeros_like(rhs)
            residual = rhs
        else:
            x = np.asarray(guess, dtype=float)
            residual = rhs - apply(x)
        # Same back-substitution budget as refinement: a cold start spends
        # one on its initial solution.
        budget = self._max_iters + (guess is None)
        direction = None
        while True:
            relative = _norm(residual) / rhs_norm
            if not math.isfinite(relative):
                raise self._failure("produced non-finite values", step,
                                    float("nan"))
            if relative <= self._tol and (budget == 0 or _at_rounding(
                    residual, x, matrix_norm, rhs_inf)):
                residual = rhs - apply(x)
                relative = _norm(residual) / rhs_norm
                if relative <= self._tol or _at_rounding(
                        residual, x, matrix_norm, rhs_inf):
                    return x
                direction = None
            if budget == 0:
                raise self._stall(relative, step)
            budget -= 1
            preconditioned = self._lu.solve(residual)
            rho_new = float(np.dot(self._weights * residual, preconditioned))
            if direction is None:
                direction = preconditioned
            else:
                direction = preconditioned + (rho_new / rho) * direction
            rho = rho_new
            applied = apply(direction)
            curvature = float(np.dot(self._weights * direction, applied))
            if not curvature > 0.0:
                raise self._stall(relative, step)
            alpha = rho / curvature
            x = x + alpha * direction
            residual = residual - alpha * applied

    def _band_lu(self, step, shift=None):
        """Band LU of A, or of A + diag(shift)."""
        band, kl, ku = self._band
        if shift is not None:
            band = band.copy()
            band[ku] += shift
        try:
            return _BandLU(band, kl, ku)
        except np.linalg.LinAlgError as exc:
            raise self._singular(exc, step) from exc

    def _require_finite(self, x, step):
        if not np.isfinite(x).all():
            raise self._failure("produced non-finite values", step,
                                float("nan"))

    def _stall(self, relative, step):
        return self._failure(
            f"stalled at relative residual {relative:.3e}"
            f" (tolerance {self._tol:.3e})", step, relative)

    def _singular(self, exc, step):
        return self._failure(f"could not be factored: {exc}", step,
                             float("nan"))

    def _failure(self, what, step, residual):
        where = "" if step is None else f" at step {step}"
        return SolverError(f"{self.label} solve{where} {what}", step=step,
                           residual=residual, block=self.label)
