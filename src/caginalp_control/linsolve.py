"""LU-factorized sparse solves with residual-checked iteration.

Every inner linear system in the package goes through this wrapper: one LU
factorization per matrix, made once per forward sweep and reused by every
linearized and adjoint sweep around that trajectory, with each solve
iterated until it is accepted. A solution is accepted once its relative
residual ||r||_2 / ||b||_2 meets the requested tolerance, or once its
normwise backward error ||r||_inf / (||A||_inf ||x||_inf + ||b||_inf) is at
rounding level, a few units of roundoff (Higham, Accuracy and Stability of
Numerical Algorithms, section 7.1). The relative residual of a
backward-stable solve grows with the condition number of A, which on fine
grids keeps it above any fixed tolerance; the backward error does not.

A plain solve refines the LU solution. A shifted solve of
(A + diag(shift)) x = b, whose diagonal changes from step to step, runs
conjugate gradients preconditioned by the LU of A instead, so no matrix is
assembled or factorized per step. A solve that meets neither test, or that
produces non-finite values, raises ``SolverError`` carrying the block label,
the step index and the achieved residual.

Every matrix-vector product of a sweep goes through :class:`MatVec`, which
calls the compiled CSR/CSC kernel that scipy's own ``A @ x`` ends in.
scipy's operator dispatch around that kernel costs more than the kernel
itself at desk size, and a sweep makes several products per step; the kernel
and its summation order are the same, so the products are bit-equal. MatVec
is the package's only use of scipy's private ``_sparsetools``. The norms and
checks below call array methods (``x.dot(x)``, ``abs(x).max()``,
``np.isfinite(x).all()``) for the same reason: they compute exactly what
``np.linalg.norm``, ``np.max`` and ``np.all`` compute on a 1-D real array,
without their Python-level wrappers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .errors import SolverError

__all__ = ["SolveCounter", "FactorizedOperator", "MatVec"]

# Backward error at which a solve counts as converged to rounding level, a
# few units of roundoff.
_ROUNDING = 4.0 * np.finfo(float).eps


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
            shifted matrices are self-adjoint; needed only by shifted solves.
            Defaults to the Euclidean inner product.
        label: Block name put into failures (phase, heat, nutrient, ...).
    """

    def __init__(self, matrix, linear_tol, max_linear_iters, counter=None,
                 weights=None, label="linear"):
        self._matrix = matrix.tocsc()
        self._apply = MatVec(self._matrix)
        self._lu = splu(self._matrix)
        self._norm_inf = float(abs(self._matrix).sum(axis=1).max())
        self._tol = float(linear_tol)
        self._max_iters = int(max_linear_iters)
        self._counter = counter
        self._weights = (np.ones(self._matrix.shape[0]) if weights is None
                         else np.asarray(weights, dtype=float))
        self.label = label

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
                is refined; with it the system is solved by conjugate
                gradients in the weighted inner product, preconditioned by
                the LU of A.

        Returns:
            Solution array.

        Raises:
            SolverError: On residual nonconvergence or non-finite values.
        """
        if self._counter is not None:
            self._counter.count += 1
        rhs = np.ascontiguousarray(rhs, dtype=float)
        if not np.isfinite(rhs).all():
            raise self._failure("received non-finite right-hand side", step,
                                float("nan"))
        rhs_norm = _norm(rhs)
        if rhs_norm == 0.0:
            return np.zeros_like(rhs)
        if shift is None:
            return self._refine(rhs, rhs_norm, step, guess)
        return self._conjugate_gradients(rhs, rhs_norm, step, guess,
                                         np.asarray(shift, dtype=float))

    def _refine(self, rhs, rhs_norm, step, guess):
        if guess is None:
            x = self._lu.solve(rhs)
        else:
            x = np.asarray(guess, dtype=float)
        relative = np.inf
        for _ in range(self._max_iters + 1):
            self._require_finite(x, step)
            residual = rhs - self._apply(x)
            relative = _norm(residual) / rhs_norm
            if relative <= self._tol or _at_rounding(
                    residual, x, self._norm_inf, abs(rhs).max()):
                return x
            x = x + self._lu.solve(residual)
        raise self._stall(relative, step)

    def _conjugate_gradients(self, rhs, rhs_norm, step, guess, shift):
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

        def apply(v):
            return self._apply(v) + shift * v

        matrix_norm = self._norm_inf + float(abs(shift).max())
        rhs_inf = float(abs(rhs).max())
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

    def _require_finite(self, x, step):
        if not np.isfinite(x).all():
            raise self._failure("produced non-finite values", step,
                                float("nan"))

    def _stall(self, relative, step):
        return self._failure(
            f"stalled at relative residual {relative:.3e}"
            f" (tolerance {self._tol:.3e})", step, relative)

    def _failure(self, what, step, residual):
        where = "" if step is None else f" at step {step}"
        return SolverError(f"{self.label} solve{where} {what}", step=step,
                           residual=residual, block=self.label)
