"""Model constants and nonlinear ingredients of the tumor-growth system.

Holds the coupling constants, the proliferation gate and temperature response
functions with their first derivatives (the only ones the sweeps call), and
the double-well potential, together with a structured validation pass over
the standing hypotheses: positivity of the physical constants, boundedness of
the gates, lower-boundedness of the potential, and finite-difference
consistency of every declared derivative.

Each hypothesis has one owner. :class:`ModelParams` owns finiteness and the
signs the scheme itself relies on: every constant and a scalar ``sigma_b``
finite, tau and the rates lambda_* at least 0. It is deliberately
permissive about the signs of ell, Lambda and chi, since several
verification regimes legitimately zero those couplings out. :func:`validate`
owns what ModelParams leaves open: the positivity of ell, Lambda and chi,
the gate bounds, the potential's lower bound and every derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError
from .grid import SpaceTimeField

__all__ = [
    "ModelParams",
    "Nonlinearities",
    "Potential",
    "default_nonlinearities",
    "default_potential",
    "zero_potential",
    "ValidationCheck",
    "ValidationReport",
    "validate",
]


@dataclass(frozen=True)
class ModelParams:
    """Constants of the coupled system.

    Attributes:
        ell: Latent-heat coupling between temperature and phase.
        lambda_big: Strength of the temperature term in the potential balance.
        chi: Chemotaxis/active-transport coupling between nutrient and phase.
        tau: Viscosity of the phase equation; 0 recovers the classical model.
        lambda_p, lambda_a, lambda_e: Proliferation, apoptosis and
            temperature-extinction rates gating the phase source.
        lambda_c: Nutrient consumption rate.
        lambda_b: Nutrient exchange rate with the far field.
        lambda_d: Temperature-gated nutrient decay rate.
        sigma_b: Far-field nutrient supply, a scalar or a space-time field.
    """

    ell: float = 1.0
    lambda_big: float = 1.0
    chi: float = 1.0
    tau: float = 0.0
    lambda_p: float = 0.0
    lambda_a: float = 0.0
    lambda_e: float = 0.0
    lambda_c: float = 0.0
    lambda_b: float = 0.0
    lambda_d: float = 0.0
    sigma_b: Union[float, SpaceTimeField] = 1.0

    def __post_init__(self):
        for name in ("ell", "lambda_big", "chi", "sigma_b"):
            value = getattr(self, name)
            # A space-time supply is finite by construction.
            if not (isinstance(value, SpaceTimeField) or np.isfinite(value)):
                raise ConfigurationError(f"{name} must be finite, got {value}")
        for name in ("tau", "lambda_p", "lambda_a", "lambda_e", "lambda_c",
                     "lambda_b", "lambda_d"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ConfigurationError(
                    f"{name} must be a finite real >= 0, got {value}")

    def sigma_b_at(self, t, dt, grid):
        """Far-field supply for the step of length dt starting at time t.

        A space-time supply is sampled at its own level whose time is t, so
        it may live on a finer time grid than the run.

        Raises:
            ConfigurationError: If the supply lives on another grid, has no
                level at t, or does not reach t.
        """
        if isinstance(self.sigma_b, SpaceTimeField):
            if self.sigma_b.grid != grid:
                raise ConfigurationError("sigma_b grid does not match the run")
            own_dt = self.sigma_b.time_grid.dt
            level = int(round(t / own_dt))
            if abs(t - level * own_dt) > 1e-9 * max(own_dt, dt):
                raise ConfigurationError(
                    f"sigma_b time grid has no level at t={t}"
                )
            if not 0 <= level <= self.sigma_b.time_grid.nt:
                raise ConfigurationError(
                    f"sigma_b time grid does not cover t={t}"
                )
            return self.sigma_b.flat_slices[level]
        return np.full(grid.num_nodes, float(self.sigma_b))


@dataclass(frozen=True)
class Nonlinearities:
    """Gate functions with their first derivatives and sup bounds.

    ``H_gate`` modulates the phase source by the local phase (near 0 in
    healthy tissue, near 1 in tumor); ``K_temp`` modulates nutrient decay by
    temperature. ``h_star`` and ``k_star`` are the declared sup bounds used
    by validation.
    """

    H_gate: Callable
    H_gate_prime: Callable
    K_temp: Callable
    K_temp_prime: Callable
    h_star: float = 1.0
    k_star: float = 1.0


@dataclass(frozen=True)
class Potential:
    """Double-well potential split as value, derivative chain, and bound.

    ``f`` is the derivative of ``F_hat`` and ``f_prime`` that of ``f``.
    ``lower_bound_c0`` declares a constant with F_hat >= -lower_bound_c0.
    """

    F_hat: Callable
    f: Callable
    f_prime: Callable
    lower_bound_c0: float = 0.25


def default_nonlinearities():
    """Smooth tanh gates: H(s) = (1 + tanh(2s))/2, K(s) = (1 + tanh(s))/2.

    Both are C-infinity, bounded in [0, 1] and Lipschitz; H is about 0.018
    at s = -1 and 0.982 at s = 1, a smooth stand-in for a gate that is off
    in healthy tissue and on in the tumor.
    """

    def h_gate(s):
        return 0.5 * (1.0 + np.tanh(2.0 * s))

    def h_prime(s):
        return 1.0 / np.cosh(2.0 * s) ** 2

    def k_temp(s):
        return 0.5 * (1.0 + np.tanh(s))

    def k_prime(s):
        return 0.5 / np.cosh(s) ** 2

    return Nonlinearities(
        H_gate=h_gate,
        H_gate_prime=h_prime,
        K_temp=k_temp,
        K_temp_prime=k_prime,
        h_star=1.0,
        k_star=1.0,
    )


def default_potential():
    """Classical quartic double well F_hat(s) = (s^2 - 1)^2 / 4."""

    def f_hat(s):
        return 0.25 * (np.square(s) - 1.0) ** 2

    def f(s):
        return s * np.square(s) - s

    def f_prime(s):
        return 3.0 * np.square(s) - 1.0

    return Potential(
        F_hat=f_hat,
        f=f,
        f_prime=f_prime,
        lower_bound_c0=0.25,
    )


def zero_potential():
    """Identically zero potential, used by the fully linear regimes."""

    def zero(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return Potential(F_hat=zero, f=zero, f_prime=zero, lower_bound_c0=0.0)


@dataclass(frozen=True)
class ValidationCheck:
    """One hypothesis check: identifier, verdict, and failure witness."""

    hypothesis: str
    description: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`; never raised, always fully populated."""

    checks: tuple

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def __str__(self):
        lines = []
        for c in self.checks:
            verdict = "pass" if c.passed else "FAIL"
            suffix = f" ({c.witness})" if c.witness and not c.passed else ""
            lines.append(f"[{c.hypothesis}] {verdict}: {c.description}{suffix}")
        return "\n".join(lines)


# validate samples the gates and the potential at VALIDATION_SAMPLES points
# spread uniformly over [-VALIDATION_BOUND, VALIDATION_BOUND], and checks
# each derivative against central differences of step FD_STEP.
VALIDATION_SAMPLES = 10001
VALIDATION_BOUND = 50.0
FD_STEP = 1e-5
FD_TOL = 1e-6


def _fd_consistency(fn, derivative, sample):
    """Central-difference check |fd - d| <= FD_TOL * (1 + |d|).

    The mixed absolute/relative criterion matters: the tanh gates saturate on
    the validation interval, where the true derivative underflows far below
    the finite-difference cancellation noise and a purely relative test would
    measure nothing but roundoff.
    """
    fd = (fn(sample + FD_STEP) - fn(sample - FD_STEP)) / (2.0 * FD_STEP)
    d = derivative(sample)
    err = np.abs(fd - d) - FD_TOL * (1.0 + np.abs(d))
    worst = int(np.argmax(err))
    return bool(err[worst] <= 0.0), sample[worst], float(np.abs(fd - d)[worst])


def validate(params, nl, pot):
    """Check the standing hypotheses and report each verdict.

    What :class:`ModelParams` enforces at construction is not checked
    again. Every check runs regardless of earlier failures; a check that
    raises is reported as failed with the exception as witness. Growth
    conditions that are global statements are checked on the sample only,
    which the report wording makes explicit.

    Args:
        params: Model constants.
        nl: Gate functions with derivatives.
        pot: Potential with derivative chain.

    Returns:
        ValidationReport listing one ValidationCheck per condition.
    """
    sample = np.linspace(-VALIDATION_BOUND, VALIDATION_BOUND,
                         VALIDATION_SAMPLES)
    checks = []

    def run(hypothesis, description, body):
        try:
            # An overflowing gate fails its check; numpy need not warn too.
            with np.errstate(all="ignore"):
                passed, witness = body()
        except Exception as exc:  # report, never abort mid-check
            passed, witness = False, f"check raised: {exc!r}"
        checks.append(ValidationCheck(hypothesis, description, passed, witness))

    def positive(name):
        def body():
            value = getattr(params, name)
            return value > 0.0, f"{name}={value}"
        return body

    for name in ("ell", "lambda_big", "chi"):
        run("H1", f"{name} positive", positive(name))

    def bounded(fn, lo, hi, label):
        def body():
            vals = np.asarray(fn(sample), dtype=float)
            bad = (vals < lo) | (vals > hi) | ~np.isfinite(vals)
            if bad.any():
                where = int(np.argmax(bad))
                return False, f"{label}({sample[where]:g})={vals[where]:g}"
            return True, ""
        return body

    run("H3", f"0 <= H_gate <= h_star={nl.h_star} on sample",
        bounded(nl.H_gate, 0.0, nl.h_star, "H_gate"))
    run("H3", f"0 <= K_temp <= k_star={nl.k_star} on sample",
        bounded(nl.K_temp, 0.0, nl.k_star, "K_temp"))

    def fd_check(fn, derivative, label):
        def body():
            ok, at, gap = _fd_consistency(fn, derivative, sample)
            return ok, f"{label} at s={at:g}, |fd-d|={gap:g}"
        return body

    run("H3", "H_gate_prime matches finite differences of H_gate",
        fd_check(nl.H_gate, nl.H_gate_prime, "H_gate'"))
    run("H3", "K_temp_prime matches finite differences of K_temp",
        fd_check(nl.K_temp, nl.K_temp_prime, "K_temp'"))

    def lower_bounded():
        vals = np.asarray(pot.F_hat(sample), dtype=float)
        bad = (vals < -pot.lower_bound_c0) | ~np.isfinite(vals)
        if bad.any():
            where = int(np.argmax(bad))
            return False, f"F_hat({sample[where]:g})={vals[where]:g}"
        return True, ""

    run("H4", f"F_hat >= -c0 with c0={pot.lower_bound_c0} on sample",
        lower_bounded)
    run("H4", "f matches finite differences of F_hat",
        fd_check(pot.F_hat, pot.f, "f"))
    run("H4", "f_prime matches finite differences of f",
        fd_check(pot.f, pot.f_prime, "f'"))

    return ValidationReport(checks=tuple(checks))
