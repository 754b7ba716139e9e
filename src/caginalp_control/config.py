"""Config-file parsing and run assembly for the command-line interface.

Configs are line-oriented ``key = value`` files with ``[section]`` headers,
parsed by the standard library with interpolation disabled. Unknown sections
and unknown keys are rejected, every diagnostic names the offending
``[section].key``, and all paths resolve relative to the config file.

Field-valued entries (initial data, controls, tracking targets, the far-field
supply) use a small source grammar:

- ``zero``: the zero field;
- ``constant:<v>``: a spatially constant field;
- ``cosine:<amplitude>,<mode>[,<offset>]``: offset plus amplitude times a
  product of ``cos(mode * pi * x / L)`` factors per axis, which satisfies the
  no-flux boundary conditions exactly for integer modes;
- ``file:<path>``: a CSV previously written by this package (per-field format
  for spatial fields, time-indexed format for space-time fields);
- ``from_reference_run:<config path>`` (tracking targets only): runs the
  referenced config's forward solve and samples the target from it, which is
  how self-consistent tracking problems are set up.

The parsed result can re-emit itself as an ``effective_config`` file with
all defaults filled in, numbers in round-trip precision and paths absolute;
loading that file reproduces the run exactly.
"""

from __future__ import annotations

import configparser
import os

import numpy as np

from .control import AdmissibleSet, CostSpec, OptimizerConfig
from .errors import ConfigurationError
from .grid import (
    Field,
    Grid,
    SpaceTimeField,
    TimeGrid,
    read_field_csv,
    read_space_time_csv,
)
from .model import (
    Nonlinearities,
    default_nonlinearities,
    default_potential,
)
from .state import InitialData, SolverConfig, solve_state
from .verification import SUITE_NAMES, VerifyProblem, VerifySuiteConfig

__all__ = ["RunConfig", "load_config", "EFFECTIVE_CONFIG_NAME"]

EFFECTIVE_CONFIG_NAME = "effective_config"

_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}

_READ_ERRORS = (OSError, ValueError, IndexError, KeyError, StopIteration)

_KNOWN_KEYS = {
    "grid": ("n", "length"),
    "time": ("t_final",),
    "model": ("ell", "lambda_big", "chi", "tau", "lambda_p", "lambda_a",
              "lambda_e", "lambda_c", "lambda_b", "lambda_d", "sigma_b",
              "nonlinearity", "potential"),
    "solver": ("nt", "dt", "stabilization_s", "linear_tol",
               "max_linear_iters", "control", "theta0", "phi0", "sigma0"),
    "cost": ("b1", "b2", "b3", "b4", "b5", "theta_q", "phi_q", "theta_omega",
             "phi_omega"),
    "admissible": ("u_min", "u_max", "m_bound"),
    "optimizer": ("max_iters", "armijo_c", "backtrack_factor",
                  "initial_step", "stationarity_tol", "min_step"),
    "verify": ("seed", "suites", "debug_flip_adjoint_sign"),
    "output": ("dir", "slices"),
}

_REQUIRED_KEYS = {
    "grid": ("n", "length"),
    "time": ("t_final",),
    "model": ("ell", "lambda_big", "chi"),
    "solver": ("theta0", "phi0", "sigma0"),
    "admissible": ("u_min", "u_max"),
}

_REQUIRED_SECTIONS = ("grid", "time", "model", "solver")


def _fail(section, key, message):
    raise ConfigurationError(f"[{section}].{key}: {message}")


def _parse_float(section, key, raw):
    try:
        value = float(raw)
    except ValueError:
        _fail(section, key, f"expected a number, got {raw!r}")
    if not np.isfinite(value):
        _fail(section, key, f"expected a finite number, got {raw!r}")
    return value


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, f"expected an integer, got {raw!r}")


def _parse_bool(section, key, raw):
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    _fail(section, key, f"expected true/false, got {raw!r}")


def _parse_axis_values(section, key, raw, caster):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) not in (1, 2):
        _fail(section, key, f"expected 1 or 2 comma-separated values,"
                            f" got {raw!r}")
    try:
        values = tuple(caster(p) for p in parts)
    except ValueError:
        _fail(section, key, f"could not parse {raw!r}")
    return values[0] if len(values) == 1 else values


def _float_str(value):
    return repr(float(value))


class RunConfig:
    """One parsed config: model data, discretization, cost and outputs.

    Attributes are built eagerly at load time so that every configuration
    error surfaces before any solve starts. Optional problem pieces (cost,
    admissible set) are None when their sections are absent.

    Reference runs are solved once per load: ``references`` maps each
    resolved reference path to its state trajectory, or to None while that
    run is itself being loaded (so a cycle is caught). It is shared with
    the nested loads and dropped when the load ends, so a later load reads
    the reference files afresh.
    """

    def __init__(self, path, references=None):
        self._references = {} if references is None else references
        path = os.path.abspath(path)
        if not os.path.isfile(path):
            raise ConfigurationError(f"config file not found: {path}")
        self.path = path
        self.base_dir = os.path.dirname(path)

        parser = configparser.ConfigParser(interpolation=None,
                                           delimiters=("=",))
        parser.optionxform = str
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"could not parse {path}: {exc}")

        for section in parser.sections():
            if section not in _KNOWN_KEYS:
                raise ConfigurationError(
                    f"unknown section [{section}];"
                    f" known sections: {', '.join(_KNOWN_KEYS)}"
                )
            for key in parser[section]:
                if key not in _KNOWN_KEYS[section]:
                    raise ConfigurationError(
                        f"unknown key [{section}].{key}; known keys:"
                        f" {', '.join(_KNOWN_KEYS[section])}"
                    )
        for section in _REQUIRED_SECTIONS:
            if not parser.has_section(section):
                raise ConfigurationError(
                    f"missing required section [{section}]"
                )
        for section, keys in _REQUIRED_KEYS.items():
            if not parser.has_section(section):
                continue
            for key in keys:
                if key not in parser[section]:
                    raise ConfigurationError(
                        f"missing required key [{section}].{key}"
                    )

        self._parser = parser
        self._raw = {section: dict(parser[section])
                     for section in parser.sections()}

        self._build_grid()
        self._build_model()
        self._build_solver()
        self._build_cost()
        self._build_admissible()
        self._build_optimizer()
        self._build_verify()
        self._build_output()
        del self._references

    def _get(self, section, key, default=None):
        return self._raw.get(section, {}).get(key, default)

    def _resolve(self, relpath):
        return os.path.abspath(os.path.join(self.base_dir, relpath))

    # -- section builders ---------------------------------------------------

    def _build_grid(self):
        n = _parse_axis_values("grid", "n", self._get("grid", "n"), int)
        length = _parse_axis_values("grid", "length",
                                    self._get("grid", "length"), float)
        try:
            self.grid = Grid(n, length)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[grid]: {exc}")

        t_final = _parse_float("time", "t_final",
                               self._get("time", "t_final"))
        if t_final <= 0.0:
            _fail("time", "t_final", f"must be positive, got {t_final}")
        self.t_final = t_final

        nt_raw = self._get("solver", "nt")
        dt_raw = self._get("solver", "dt")
        if (nt_raw is None) == (dt_raw is None):
            raise ConfigurationError(
                "[solver]: exactly one of nt and dt must be set"
            )
        if nt_raw is not None:
            nt = _parse_int("solver", "nt", nt_raw)
        else:
            dt = _parse_float("solver", "dt", dt_raw)
            if dt <= 0.0:
                _fail("solver", "dt", f"must be positive, got {dt}")
            steps = t_final / dt
            nt = int(round(steps))
            if nt < 1 or abs(steps - nt) > 1e-9 * max(1.0, steps):
                _fail("solver", "dt",
                      f"dt={dt} does not divide t_final={t_final}")
        if nt < 1:
            _fail("solver", "nt", f"must be at least 1, got {nt}")
        try:
            self.time_grid = TimeGrid(t_final, nt)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[time]: {exc}")

    def _build_model(self):
        from .model import ModelParams

        values = {}
        for key in ("ell", "lambda_big", "chi"):
            values[key] = _parse_float("model", key,
                                       self._get("model", key))
        for key in ("tau", "lambda_p", "lambda_a", "lambda_e", "lambda_c",
                    "lambda_b", "lambda_d"):
            values[key] = _parse_float("model", key,
                                       self._get("model", key, "0.0"))

        sigma_raw = self._get("model", "sigma_b", "1.0")
        try:
            sigma_b = float(sigma_raw)
            self._sigma_b_raw = _float_str(sigma_b)
        except ValueError:
            resolved = self._resolve(sigma_raw)
            try:
                sigma_b = read_space_time_csv(resolved)
            except _READ_ERRORS as exc:
                _fail("model", "sigma_b", f"could not read {resolved}: {exc}")
            if sigma_b.grid != self.grid:
                _fail("model", "sigma_b",
                      "field grid does not match [grid]")
            self._sigma_b_raw = resolved

        nl_raw = self._get("model", "nonlinearity", "default")
        if nl_raw == "default":
            self.nonlinearities = default_nonlinearities()
        elif nl_raw.startswith("custom:"):
            self.nonlinearities = self._load_custom_nonlinearities(
                nl_raw[len("custom:"):])
            nl_raw = "custom:" + self._resolve(nl_raw[len("custom:"):])
        else:
            _fail("model", "nonlinearity",
                  f"expected 'default' or 'custom:<path>', got {nl_raw!r}")
        self._nonlinearity_raw = nl_raw

        pot_raw = self._get("model", "potential", "quartic")
        if pot_raw != "quartic":
            _fail("model", "potential",
                  f"only 'quartic' is available, got {pot_raw!r}")
        self.potential = default_potential()

        try:
            self.params = ModelParams(sigma_b=sigma_b, **values)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[model]: {exc}")

    def _load_custom_nonlinearities(self, relpath):
        resolved = self._resolve(relpath)
        namespace = {}
        try:
            with open(resolved, encoding="utf-8") as handle:
                code = handle.read()
        except OSError as exc:
            _fail("model", "nonlinearity",
                  f"could not read {resolved}: {exc}")
        try:
            exec(compile(code, resolved, "exec"), namespace)
        except Exception as exc:
            _fail("model", "nonlinearity",
                  f"error executing {resolved}: {exc}")
        factory = namespace.get("make_nonlinearities")
        if not callable(factory):
            _fail("model", "nonlinearity",
                  f"{resolved} must define make_nonlinearities()")
        made = factory()
        if not isinstance(made, Nonlinearities):
            _fail("model", "nonlinearity",
                  "make_nonlinearities() must return a Nonlinearities")
        return made

    def _build_solver(self):
        s = _parse_float("solver", "stabilization_s",
                         self._get("solver", "stabilization_s", "2.0"))
        tol = _parse_float("solver", "linear_tol",
                           self._get("solver", "linear_tol", "1e-12"))
        iters = _parse_int("solver", "max_linear_iters",
                           self._get("solver", "max_linear_iters", "50"))
        try:
            self.solver = SolverConfig(stabilization_s=s, linear_tol=tol,
                                       max_linear_iters=iters)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[solver]: {exc}")

        fields = {}
        for key in ("theta0", "phi0", "sigma0"):
            fields[key] = self._spatial_source(
                "solver", key, self._get("solver", key))
        try:
            self.init = InitialData(theta0=fields["theta0"],
                                    phi0=fields["phi0"],
                                    sigma0=fields["sigma0"])
        except ConfigurationError as exc:
            raise ConfigurationError(f"[solver]: {exc}")

        self.control = self._space_time_source(
            "solver", "control", self._get("solver", "control", "zero"))

    def _build_cost(self):
        if "cost" not in self._raw:
            self.cost = None
            return
        weights = {key: _parse_float("cost", key,
                                     self._get("cost", key, default))
                   for key, default in (("b1", "0.0"), ("b2", "0.0"),
                                        ("b3", "0.0"), ("b4", "0.0"),
                                        ("b5", "1.0"))}
        targets = {}
        for key in ("theta_q", "phi_q"):
            raw = self._get("cost", key)
            targets[key] = (None if raw is None
                            else self._space_time_source("cost", key, raw,
                                                         allow_reference=True))
        for key in ("theta_omega", "phi_omega"):
            raw = self._get("cost", key)
            targets[key] = (None if raw is None
                            else self._spatial_source("cost", key, raw,
                                                      allow_reference=True))
        try:
            self.cost = CostSpec(**weights, **targets)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[cost]: {exc}")

    def _build_admissible(self):
        if "admissible" not in self._raw:
            self.admissible = None
            return
        u_min = _parse_float("admissible", "u_min",
                             self._get("admissible", "u_min"))
        u_max = _parse_float("admissible", "u_max",
                             self._get("admissible", "u_max"))
        m_raw = self._get("admissible", "m_bound")
        m_bound = (None if m_raw is None
                   else _parse_float("admissible", "m_bound", m_raw))
        try:
            self.admissible = AdmissibleSet(u_min=u_min, u_max=u_max,
                                            m_bound=m_bound)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[admissible]: {exc}")

    def _build_optimizer(self):
        def get(key, default):
            return self._get("optimizer", key, default)

        try:
            self.optimizer = OptimizerConfig(
                max_iters=_parse_int("optimizer", "max_iters",
                                     get("max_iters", "100")),
                armijo_c=_parse_float("optimizer", "armijo_c",
                                      get("armijo_c", "1e-4")),
                backtrack_factor=_parse_float(
                    "optimizer", "backtrack_factor",
                    get("backtrack_factor", "0.5")),
                initial_step=_parse_float("optimizer", "initial_step",
                                          get("initial_step", "1.0")),
                stationarity_tol=_parse_float(
                    "optimizer", "stationarity_tol",
                    get("stationarity_tol", "1e-8")),
                min_step=_parse_float("optimizer", "min_step",
                                      get("min_step", "1e-14")),
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"[optimizer]: {exc}")

    def _build_verify(self):
        seed = _parse_int("verify", "seed", self._get("verify", "seed",
                                                      "1729"))
        suites_raw = self._get("verify", "suites", "all")
        if suites_raw.strip() == "all":
            suites = None
        else:
            suites = tuple(part.strip() for part in suites_raw.split(",")
                           if part.strip())
        flip = _parse_bool(
            "verify", "debug_flip_adjoint_sign",
            self._get("verify", "debug_flip_adjoint_sign", "false"))
        try:
            self.verify = VerifySuiteConfig(
                seed=seed, suites=suites, debug_flip_adjoint_sign=flip)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[verify].suites: {exc}")

    def _build_output(self):
        self.output_dir = self._resolve(self._get("output", "dir", "out"))
        slices_raw = self._get("output", "slices", str(self.time_grid.nt))
        indices = []
        for part in slices_raw.split(","):
            part = part.strip()
            if not part:
                continue
            idx = _parse_int("output", "slices", part)
            if not 0 <= idx <= self.time_grid.nt:
                _fail("output", "slices",
                      f"index {idx} outside 0..{self.time_grid.nt}")
            indices.append(idx)
        if not indices:
            _fail("output", "slices", "no time indices given")
        self.output_slices = tuple(indices)

    # -- field sources ------------------------------------------------------

    def _cosine_values(self, amplitude, mode, offset):
        axes = [np.cos(mode * np.pi * self.grid.coords(axis)
                       / self.grid.length[axis])
                for axis in range(self.grid.dim)]
        profile = axes[0] if self.grid.dim == 1 else np.multiply.outer(
            axes[0], axes[1])
        return offset + amplitude * profile

    def _parse_cosine(self, section, key, body):
        parts = [p.strip() for p in body.split(",")]
        if len(parts) not in (2, 3):
            _fail(section, key,
                  "cosine source needs amplitude,mode[,offset],"
                  f" got {body!r}")
        amplitude = _parse_float(section, key, parts[0])
        mode = _parse_int(section, key, parts[1])
        offset = _parse_float(section, key, parts[2]) if len(parts) == 3 \
            else 0.0
        canonical = f"cosine:{_float_str(amplitude)},{mode}"
        if offset != 0.0:
            canonical += f",{_float_str(offset)}"
        return self._cosine_values(amplitude, mode, offset), canonical

    def _spatial_source(self, section, key, raw, allow_reference=False):
        raw = raw.strip()
        if raw == "zero":
            return Field.zeros(self.grid)
        if raw.startswith("constant:"):
            value = _parse_float(section, key, raw[len("constant:"):])
            self._raw[section][key] = f"constant:{_float_str(value)}"
            return Field.constant(self.grid, value)
        if raw.startswith("cosine:"):
            values, canonical = self._parse_cosine(
                section, key, raw[len("cosine:"):])
            self._raw[section][key] = canonical
            return Field(self.grid, values)
        if raw.startswith("file:"):
            resolved = self._resolve(raw[len("file:"):])
            self._raw[section][key] = f"file:{resolved}"
            try:
                field = read_field_csv(resolved)
            except _READ_ERRORS as exc:
                _fail(section, key, f"could not read {resolved}: {exc}")
            if field.grid != self.grid:
                _fail(section, key, "field grid does not match [grid]")
            return field
        if raw.startswith("from_reference_run:"):
            if not allow_reference:
                _fail(section, key,
                      "from_reference_run is only valid for tracking targets")
            trajectory, resolved = self._reference_trajectory(
                section, key, raw[len("from_reference_run:"):])
            self._raw[section][key] = f"from_reference_run:{resolved}"
            name = "theta" if key.startswith("theta") else "phi"
            return trajectory.field(name, trajectory.time_grid.nt)
        _fail(section, key, f"unrecognized field source {raw!r}")

    def _space_time_source(self, section, key, raw, allow_reference=False):
        raw = raw.strip()
        if raw == "zero":
            return SpaceTimeField.zeros(self.time_grid, self.grid)
        if raw.startswith("constant:"):
            value = _parse_float(section, key, raw[len("constant:"):])
            self._raw[section][key] = f"constant:{_float_str(value)}"
            return SpaceTimeField.constant(self.time_grid, self.grid, value)
        if raw.startswith("cosine:"):
            values, canonical = self._parse_cosine(
                section, key, raw[len("cosine:"):])
            self._raw[section][key] = canonical
            reps = (self.time_grid.nt + 1,) + (1,) * values.ndim
            return SpaceTimeField(self.time_grid, self.grid,
                                  np.tile(values, reps))
        if raw.startswith("file:"):
            resolved = self._resolve(raw[len("file:"):])
            self._raw[section][key] = f"file:{resolved}"
            try:
                field = read_space_time_csv(resolved)
            except _READ_ERRORS as exc:
                _fail(section, key, f"could not read {resolved}: {exc}")
            if field.grid != self.grid:
                _fail(section, key, "field grid does not match [grid]")
            if field.time_grid != self.time_grid:
                _fail(section, key, "field time grid does not match the run")
            return field
        if raw.startswith("from_reference_run:"):
            if not allow_reference:
                _fail(section, key,
                      "from_reference_run is only valid for tracking targets")
            trajectory, resolved = self._reference_trajectory(
                section, key, raw[len("from_reference_run:"):])
            self._raw[section][key] = f"from_reference_run:{resolved}"
            name = "theta" if key.startswith("theta") else "phi"
            return trajectory.space_time(name)
        _fail(section, key, f"unrecognized field source {raw!r}")

    def _reference_trajectory(self, section, key, relpath):
        resolved = self._resolve(relpath)
        if resolved not in self._references:
            self._references[resolved] = None
            reference = RunConfig(resolved, self._references)
            if reference.grid != self.grid:
                _fail(section, key,
                      "reference run grid does not match [grid]")
            if reference.time_grid != self.time_grid:
                _fail(section, key,
                      "reference run time grid does not match the run")
            self._references[resolved] = solve_state(
                reference.init, reference.control, reference.solver,
                reference.params, reference.nonlinearities,
                reference.potential)
        trajectory = self._references[resolved]
        if trajectory is None:
            _fail(section, key, f"reference run cycle through {resolved}")
        if trajectory.grid != self.grid \
                or trajectory.time_grid != self.time_grid:
            _fail(section, key, "reference run grids do not match the run")
        return trajectory, resolved

    # -- derived views ------------------------------------------------------

    def verify_problem(self):
        """VerifyProblem for this config; needs [cost] and [admissible]."""
        if self.cost is None:
            raise ConfigurationError(
                "verification needs a [cost] section"
            )
        if self.admissible is None:
            raise ConfigurationError(
                "verification needs an [admissible] section"
            )
        return VerifyProblem(
            params=self.params, nonlinearities=self.nonlinearities,
            potential=self.potential, solver=self.solver, init=self.init,
            base_control=self.control, cost=self.cost,
            admissible=self.admissible, optimizer=self.optimizer,
        )

    def effective_config(self):
        """Round-trip config text with defaults resolved.

        Numbers are emitted in round-trip precision, file paths absolute,
        the time discretization pinned through nt, and every defaulted key
        made explicit, so loading the emitted text reproduces this run.
        """
        lines = []

        def emit(section, pairs):
            lines.append(f"[{section}]")
            for key, value in pairs:
                lines.append(f"{key} = {value}")
            lines.append("")

        emit("grid", [
            ("n", ",".join(str(c) for c in self.grid.n)),
            ("length", ",".join(_float_str(c) for c in self.grid.length)),
        ])
        emit("time", [("t_final", _float_str(self.t_final))])

        model_pairs = [(key, _float_str(getattr(self.params, key)))
                       for key in ("ell", "lambda_big", "chi", "tau",
                                   "lambda_p", "lambda_a", "lambda_e",
                                   "lambda_c", "lambda_b", "lambda_d")]
        model_pairs.append(("sigma_b", self._sigma_b_raw))
        model_pairs.append(("nonlinearity", self._nonlinearity_raw))
        model_pairs.append(("potential", "quartic"))
        emit("model", model_pairs)

        emit("solver", [
            ("nt", str(self.time_grid.nt)),
            ("stabilization_s", _float_str(self.solver.stabilization_s)),
            ("linear_tol", _float_str(self.solver.linear_tol)),
            ("max_linear_iters", str(self.solver.max_linear_iters)),
            ("control", self._raw["solver"].get("control", "zero")),
            ("theta0", self._raw["solver"]["theta0"]),
            ("phi0", self._raw["solver"]["phi0"]),
            ("sigma0", self._raw["solver"]["sigma0"]),
        ])

        if self.cost is not None:
            pairs = [(key, _float_str(getattr(self.cost, key)))
                     for key in ("b1", "b2", "b3", "b4", "b5")]
            for key in ("theta_q", "phi_q", "theta_omega", "phi_omega"):
                raw = self._raw["cost"].get(key)
                if raw is not None:
                    pairs.append((key, raw))
            emit("cost", pairs)

        if self.admissible is not None:
            emit("admissible", [
                ("u_min", _float_str(self.admissible.u_min)),
                ("u_max", _float_str(self.admissible.u_max)),
                ("m_bound", _float_str(self.admissible.m_bound)),
            ])

        emit("optimizer", [
            ("max_iters", str(self.optimizer.max_iters)),
            ("armijo_c", _float_str(self.optimizer.armijo_c)),
            ("backtrack_factor",
             _float_str(self.optimizer.backtrack_factor)),
            ("initial_step", _float_str(self.optimizer.initial_step)),
            ("stationarity_tol",
             _float_str(self.optimizer.stationarity_tol)),
            ("min_step", _float_str(self.optimizer.min_step)),
        ])

        emit("verify", [
            ("seed", str(self.verify.seed)),
            ("suites", "all" if self.verify.suites is None
             else ",".join(self.verify.suites)),
            ("debug_flip_adjoint_sign",
             "true" if self.verify.debug_flip_adjoint_sign else "false"),
        ])

        emit("output", [
            ("dir", self.output_dir),
            ("slices", ",".join(str(i) for i in self.output_slices)),
        ])
        return "\n".join(lines)


def load_config(path):
    """Parse a config file into a fully validated RunConfig."""
    return RunConfig(path)
