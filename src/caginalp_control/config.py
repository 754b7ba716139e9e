"""Config-file parsing and run assembly for the command-line interface.

Configs are line-oriented ``key = value`` files with ``[section]`` headers,
parsed by the standard library with interpolation disabled. Unknown sections
and unknown keys are rejected, every diagnostic names the offending
``[section].key``, and all paths resolve relative to the config file.

The scalar keys of a section are the float and int fields of its
dataclass: ModelParams for ``[model]``, SolverConfig, CostSpec,
AdmissibleSet, OptimizerConfig and VerifySuiteConfig for ``[solver]``,
``[cost]``, ``[admissible]``, ``[optimizer]`` and ``[verify]``. Each field
gives its key's name, type and default; an absent key keeps the default.

``[model] sigma_b``, the far-field supply, takes a number or a bare path to
a space-time CSV. The other field-valued entries (initial data, controls,
tracking targets) use a small source grammar:

- ``zero``: the zero field;
- ``constant:<v>``: a spatially constant field;
- ``cosine:<amplitude>,<mode>[,<offset>]``: offset plus amplitude times a
  product of ``cos(mode * pi * x / L)`` factors per axis, which satisfies the
  no-flux boundary conditions exactly for integer modes;
- ``file:<path>``: a CSV previously written by this package (per-field format
  for spatial fields, time-indexed format for space-time fields);
- ``from_control:<space-time source>`` (tracking targets only): this
  config's own state under the named control, which makes the targets
  reachable; the control is any source ``[solver] control`` accepts.

The model is validated where it is built: once ``[model]`` gives the
constants, the gates and the potential, the standing hypotheses are checked
and a space-time ``sigma_b`` is sampled at every step start of the run,
before any ``from_control:`` target is solved.

A key's canonical text is decided where the key is parsed: numbers in
round-trip precision, paths absolute, and a defaulted key given its default.
The parsed result prints these texts as an ``effective_config`` file, and
loading that file reproduces the run exactly.
"""

from __future__ import annotations

import configparser
import dataclasses
import os
import typing

import numpy as np

from .control import AdmissibleSet, CostSpec, OptimizerConfig, Problem
from .errors import ConfigurationError
from .grid import (
    Field,
    Grid,
    SpaceTimeField,
    TimeGrid,
    _cosine_profile,
    read_field_csv,
    read_space_time_csv,
)
from .model import (
    ModelParams,
    Nonlinearities,
    default_nonlinearities,
    default_potential,
    validate,
)
from .state import InitialData, SolverConfig, solve_state
from .verification import VerifySuiteConfig

__all__ = ["RunConfig", "load_config", "EFFECTIVE_CONFIG_NAME"]

EFFECTIVE_CONFIG_NAME = "effective_config"

_READ_ERRORS = (OSError, ValueError, IndexError, KeyError, StopIteration)

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


_PARSERS = {float: _parse_float, int: _parse_int}
_FORMATS = {float: _float_str, int: str}


def _scalar_fields(cls):
    """Name and type of each float or int field of a dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls)
                 if hints[f.name] in _PARSERS)


_INITIAL_KEYS = ("theta0", "phi0", "sigma0")
_TARGET_KEYS = ("theta_q", "phi_q", "theta_omega", "phi_omega")

# Each section's dataclass, whose scalar fields are the section's scalar
# keys, and the keys that have parsers of their own.
_SECTIONS = {
    "grid": (None, ("n", "length")),
    "time": (None, ("t_final",)),
    "model": (ModelParams, ("sigma_b", "nonlinearity")),
    "solver": (SolverConfig, ("nt", "control") + _INITIAL_KEYS),
    "cost": (CostSpec, _TARGET_KEYS),
    "admissible": (AdmissibleSet, ()),
    "optimizer": (OptimizerConfig, ()),
    "verify": (VerifySuiteConfig, ()),
    "output": (None, ("dir", "slices")),
}

_KNOWN_KEYS = {
    section: tuple(name for name, _ in (_scalar_fields(cls) if cls else ()))
    + own for section, (cls, own) in _SECTIONS.items()
}

# Keys a config file must set, even where the dataclass has a default.
_REQUIRED_KEYS = {
    "grid": ("n", "length"),
    "time": ("t_final",),
    "model": ("ell", "lambda_big", "chi"),
    "solver": ("nt",) + _INITIAL_KEYS,
    "admissible": ("u_min", "u_max"),
}

_REQUIRED_SECTIONS = ("grid", "time", "model", "solver")


class RunConfig:
    """One parsed config: model data, discretization, cost and outputs.

    Attributes are built eagerly at load time so that every configuration
    error surfaces before any solve starts. Optional problem pieces (cost,
    admissible set) are None when their sections are absent. This is where
    a run's model is admitted: a failed hypothesis check is a
    ConfigurationError naming ``[model]``, raised before any target solve,
    so every subcommand and every caller of load_config sees a validated
    model.

    The builder that parses a key records its canonical text in place of
    the text read, and effective_config prints the records. Each distinct
    control named by a ``from_control:`` target is solved once per load,
    keyed by its canonical text; the table is dropped when the load ends.
    """

    def __init__(self, path):
        path = os.path.abspath(path)
        if not os.path.isfile(path):
            raise ConfigurationError(f"config file not found: {path}")
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

        self._raw = {section: dict(parser[section])
                     for section in parser.sections()}

        self._build_grid()
        self._build_model()
        self._build_solver()
        self._build_cost()
        self.admissible = (self._dataclass("admissible")
                           if "admissible" in self._raw else None)
        self.optimizer = self._dataclass("optimizer")
        self.verify = self._dataclass("verify")
        self._build_output()

    def _get(self, section, key, default=None):
        return self._raw.get(section, {}).get(key, default)

    def _resolve(self, relpath):
        return os.path.abspath(os.path.join(self.base_dir, relpath))

    def _record(self, section, key, text):
        """Keep ``text`` as the canonical text of ``[section].key``."""
        self._raw.setdefault(section, {})[key] = text

    def _dataclass(self, section, **special):
        """The section's dataclass, from the scalar keys the section sets
        and the ``special`` fields; an absent key keeps its default. Every
        scalar field is recorded, defaults included."""
        cls = _SECTIONS[section][0]
        fields = _scalar_fields(cls)
        values = {}
        for name, kind in fields:
            raw = self._get(section, name)
            if raw is not None:
                values[name] = _PARSERS[kind](section, name, raw)
        try:
            built = cls(**values, **special)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[{section}]: {exc}")
        for name, kind in fields:
            self._record(section, name, _FORMATS[kind](getattr(built, name)))
        return built

    # -- section builders ---------------------------------------------------

    def _build_grid(self):
        n = _parse_axis_values("grid", "n", self._get("grid", "n"), int)
        length = _parse_axis_values("grid", "length",
                                    self._get("grid", "length"), float)
        try:
            self.grid = Grid(n, length)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[grid]: {exc}")
        self._record("grid", "n", ",".join(map(str, self.grid.n)))
        self._record("grid", "length",
                     ",".join(map(_float_str, self.grid.length)))

        t_final = _parse_float("time", "t_final",
                               self._get("time", "t_final"))
        if t_final <= 0.0:
            _fail("time", "t_final", f"must be positive, got {t_final}")
        nt = _parse_int("solver", "nt", self._get("solver", "nt"))
        if nt < 1:
            _fail("solver", "nt", f"must be at least 1, got {nt}")
        self.time_grid = TimeGrid(t_final, nt)
        self._record("time", "t_final", _float_str(t_final))
        self._record("solver", "nt", str(nt))

    def _build_model(self):
        sigma_raw = self._get("model", "sigma_b", "1.0")
        try:
            sigma_b = float(sigma_raw)
            self._record("model", "sigma_b", _float_str(sigma_b))
        except ValueError:
            resolved = self._resolve(sigma_raw)
            try:
                sigma_b = read_space_time_csv(resolved)
            except _READ_ERRORS as exc:
                _fail("model", "sigma_b", f"could not read {resolved}: {exc}")
            self._record("model", "sigma_b", resolved)

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
        self._record("model", "nonlinearity", nl_raw)
        self.potential = default_potential()
        self.params = self._dataclass("model", sigma_b=sigma_b)
        if isinstance(sigma_b, SpaceTimeField):
            try:
                for t in self.time_grid.times[:-1]:
                    self.params.sigma_b_at(t, self.time_grid.dt, self.grid)
            except ConfigurationError as exc:
                _fail("model", "sigma_b", exc)
        failures = validate(self.params, self.nonlinearities,
                            self.potential).failures()
        if failures:
            parts = [f"[{c.hypothesis}] {c.description}"
                     + (f" ({c.witness})" if c.witness else "")
                     for c in failures]
            raise ConfigurationError("[model]: hypothesis checks failed: "
                                     + "; ".join(parts))

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
        try:
            made = factory()
        except Exception as exc:
            _fail("model", "nonlinearity",
                  f"make_nonlinearities() in {resolved} raised: {exc!r}")
        if not isinstance(made, Nonlinearities):
            _fail("model", "nonlinearity",
                  "make_nonlinearities() must return a Nonlinearities")
        return made

    def _build_solver(self):
        self.solver = self._dataclass("solver")
        fields = {key: self._source("solver", key, self._get("solver", key))
                  for key in _INITIAL_KEYS}
        try:
            self.init = InitialData(**fields)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[solver]: {exc}")
        self.control = self._source(
            "solver", "control", self._get("solver", "control", "zero"),
            space_time=True)

    def _build_cost(self):
        if "cost" not in self._raw:
            self.cost = None
            return
        targets = {}
        self._target_states = {}
        for key in _TARGET_KEYS:
            raw = self._get("cost", key)
            targets[key] = (None if raw is None else self._source(
                "cost", key, raw, space_time=key.endswith("_q"),
                allow_reference=True))
        del self._target_states
        self.cost = self._dataclass("cost", **targets)

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
        self._record("output", "dir", self.output_dir)
        self._record("output", "slices", ",".join(map(str, indices)))

    # -- field sources ------------------------------------------------------

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
        return (offset + amplitude * _cosine_profile(self.grid, mode),
                canonical)

    def _source(self, section, key, raw, space_time=False,
                allow_reference=False):
        """A Field, or with ``space_time`` a SpaceTimeField, from a source.

        A profile source (zero, constant, cosine) gives a space-time field
        that repeats the profile at every time level.
        """
        raw = raw.strip()
        if raw == "zero":
            self._record(section, key, "zero")
            profile = np.zeros(self.grid.shape)
        elif raw.startswith("constant:"):
            value = _parse_float(section, key, raw[len("constant:"):])
            self._record(section, key, f"constant:{_float_str(value)}")
            profile = np.full(self.grid.shape, value)
        elif raw.startswith("cosine:"):
            profile, canonical = self._parse_cosine(
                section, key, raw[len("cosine:"):])
            self._record(section, key, canonical)
        elif raw.startswith("file:"):
            resolved = self._resolve(raw[len("file:"):])
            self._record(section, key, f"file:{resolved}")
            reader = read_space_time_csv if space_time else read_field_csv
            try:
                field = reader(resolved)
            except _READ_ERRORS as exc:
                _fail(section, key, f"could not read {resolved}: {exc}")
            if field.grid != self.grid:
                _fail(section, key, "field grid does not match [grid]")
            if space_time and field.time_grid != self.time_grid:
                _fail(section, key, "field time grid does not match the run")
            return field
        elif raw.startswith("from_control:"):
            if not allow_reference:
                _fail(section, key,
                      "from_control is only valid for tracking targets")
            control = self._source(section, key, raw[len("from_control:"):],
                                   space_time=True)
            canonical = self._raw[section][key]
            self._record(section, key, f"from_control:{canonical}")
            if canonical not in self._target_states:
                self._target_states[canonical] = solve_state(
                    self.init, control, self.solver, self.params,
                    self.nonlinearities, self.potential)
            trajectory = self._target_states[canonical]
            name = "theta" if key.startswith("theta") else "phi"
            if space_time:
                return trajectory.space_time(name)
            return trajectory.field(name, self.time_grid.nt)
        else:
            _fail(section, key, f"unrecognized field source {raw!r}")
        if not space_time:
            return Field(self.grid, profile)
        levels = (self.time_grid.nt + 1,) + profile.shape
        return SpaceTimeField(self.time_grid, self.grid,
                              np.broadcast_to(profile, levels))

    # -- derived views ------------------------------------------------------

    def verify_problem(self):
        """The control problem of this config, which ``optimize`` and
        ``verify`` run; it needs [cost] and [admissible] sections."""
        for section in ("cost", "admissible"):
            if getattr(self, section) is None:
                raise ConfigurationError(
                    f"optimize and verify need the [{section}] section")
        return Problem(
            params=self.params, nonlinearities=self.nonlinearities,
            potential=self.potential, solver=self.solver, init=self.init,
            control=self.control, cost=self.cost,
            admissible=self.admissible, optimizer=self.optimizer,
        )

    def effective_config(self):
        """Round-trip config text: the canonical text the builders recorded
        for each key, in the order of the sections and keys a config
        accepts. Loading the emitted text reproduces this run.
        """
        lines = []
        for section, keys in _KNOWN_KEYS.items():
            if section in self._raw:
                recorded = self._raw[section]
                lines.append(f"[{section}]")
                lines.extend(f"{key} = {recorded[key]}" for key in keys
                             if key in recorded)
                lines.append("")
        return "\n".join(lines)


def load_config(path):
    """Parse a config file into a fully validated RunConfig."""
    return RunConfig(path)
