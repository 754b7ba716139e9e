"""Config parsing: grammar, defaults, sources, control targets, round trip."""

import configparser
import dataclasses
import shutil
import textwrap
import typing

import numpy as np
import pytest
from conftest import DESK_CFG

import caginalp_control.config as config
from caginalp_control import (
    AdmissibleSet,
    ConfigurationError,
    CostSpec,
    Field,
    Grid,
    ModelParams,
    OptimizerConfig,
    SolverConfig,
    SpaceTimeField,
    TimeGrid,
    VerifySuiteConfig,
    load_config,
    solve_state,
    write_field_csv,
    write_space_time_csv,
)

MINIMAL = """\
[grid]
n = 9
length = 1.0

[time]
t_final = 0.2

[model]
ell = 0.5
lambda_big = 0.7
chi = 0.3

[solver]
nt = 4
theta0 = zero
phi0 = constant:0.5
sigma0 = constant:1.0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    assert cfg.grid == Grid(9, 1.0)
    assert cfg.time_grid == TimeGrid(0.2, 4)
    assert cfg.params.ell == 0.5
    assert cfg.params.tau == 0.0
    assert cfg.params.sigma_b == 1.0
    assert np.all(cfg.init.theta0.values == 0.0)
    assert np.all(cfg.init.phi0.values == 0.5)
    assert np.all(cfg.control.values == 0.0)
    assert cfg.cost is None
    assert cfg.admissible is None
    assert cfg.optimizer.max_iters == 100
    assert cfg.optimizer.stationarity_tol == 1e-8
    assert cfg.verify.seed == 1729
    assert cfg.output_dir == str(tmp_path / "out")
    assert cfg.output_slices == (4,)


def test_missing_file_is_a_configuration_error(tmp_path):
    with pytest.raises(ConfigurationError, match="not found"):
        load_config(str(tmp_path / "absent.cfg"))


def test_solver_nt_is_required(tmp_path):
    neither = MINIMAL.replace("nt = 4\n", "")
    with pytest.raises(ConfigurationError,
                       match=r"missing required key \[solver\]\.nt"):
        load_config(_write(tmp_path, neither))


def test_unknown_section_and_key_are_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown section"):
        load_config(_write(tmp_path, MINIMAL + "\n[plotting]\nstyle = x\n"))
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(_write(tmp_path,
                           MINIMAL.replace("nt = 4", "nt = 4\ncolor = red"),
                           "key.cfg"))


def test_missing_required_key_is_named(tmp_path):
    broken = MINIMAL.replace("ell = 0.5\n", "")
    with pytest.raises(ConfigurationError,
                       match=r"missing required key \[model\].ell"):
        load_config(_write(tmp_path, broken))


def test_missing_required_section_is_named(tmp_path):
    broken = MINIMAL.split("[model]")[0] + "[solver]\nnt = 4\n" \
        "theta0 = zero\nphi0 = zero\nsigma0 = zero\n"
    with pytest.raises(ConfigurationError,
                       match=r"missing required section \[model\]"):
        load_config(_write(tmp_path, broken))


def test_cosine_source_matches_closed_form(tmp_path):
    text = MINIMAL.replace("theta0 = zero",
                           "theta0 = cosine:0.25,2,0.1")
    cfg = load_config(_write(tmp_path, text))
    x = cfg.grid.coords(0)
    expected = 0.1 + 0.25 * np.cos(2 * np.pi * x / 1.0)
    assert np.array_equal(cfg.init.theta0.values, expected)


def test_cosine_source_arity_errors(tmp_path):
    for body in ("cosine:0.25", "cosine:1,2,3,4", "cosine:a,1"):
        text = MINIMAL.replace("theta0 = zero", f"theta0 = {body}")
        with pytest.raises(ConfigurationError, match=r"\[solver\].theta0"):
            load_config(_write(tmp_path, text, f"{len(body)}.cfg"))


def test_file_source_round_trips(tmp_path):
    grid = Grid(9, 1.0)
    rng = np.random.default_rng(3)
    field = Field(grid, rng.normal(size=grid.shape))
    csv_path = tmp_path / "theta0.csv"
    write_field_csv(field, str(csv_path))
    text = MINIMAL.replace("theta0 = zero", "theta0 = file:theta0.csv")
    cfg = load_config(_write(tmp_path, text))
    assert np.array_equal(cfg.init.theta0.values, field.values)


def test_file_source_grid_mismatch(tmp_path):
    other = Grid(7, 1.0)
    field = Field(other, np.zeros(other.shape))
    write_field_csv(field, str(tmp_path / "theta0.csv"))
    text = MINIMAL.replace("theta0 = zero", "theta0 = file:theta0.csv")
    with pytest.raises(ConfigurationError, match="does not match"):
        load_config(_write(tmp_path, text))


def test_space_time_file_source_round_trips(tmp_path):
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    rng = np.random.default_rng(5)
    control = SpaceTimeField(
        time_grid, grid, rng.normal(size=(5,) + grid.shape))
    write_space_time_csv(control, str(tmp_path / "u.csv"))
    text = MINIMAL.replace("sigma0 = constant:1.0",
                           "sigma0 = constant:1.0\ncontrol = file:u.csv")
    cfg = load_config(_write(tmp_path, text))
    assert np.array_equal(cfg.control.values, control.values)


@pytest.mark.parametrize("key, header", [
    ("theta0", "index_x,x,value"),
    ("control", "t_index,t,index_x,x,value"),
], ids=["theta0", "control"])
@pytest.mark.parametrize("body", ["", "{header}\n", "{header}\n{row}\n0,0\n",
                                  "{header}\n{row}\n{bad}\n"],
                         ids=["empty", "header_only", "short_row",
                              "non_numeric"])
def test_malformed_file_source_is_a_config_error(tmp_path, key, header,
                                                  body):
    # zip(*rows) stops at the shortest row, so a reader that transposes the
    # rows into columns has to check each row's width itself.
    row = ",".join(["0"] * header.count(","))
    (tmp_path / "bad.csv").write_text(body.format(
        header=header, row=row + ",1", bad=row + ",abc"))
    if key == "theta0":
        text = MINIMAL.replace("theta0 = zero", "theta0 = file:bad.csv")
    else:
        text = MINIMAL.replace("sigma0 = constant:1.0",
                               "sigma0 = constant:1.0\ncontrol = file:bad.csv")
    with pytest.raises(ConfigurationError,
                       match=rf"\[solver\]\.{key}: could not read"):
        load_config(_write(tmp_path, text))


def test_unrecognized_source_is_rejected(tmp_path):
    text = MINIMAL.replace("theta0 = zero", "theta0 = gaussian:1.0")
    with pytest.raises(ConfigurationError, match="unrecognized"):
        load_config(_write(tmp_path, text))


def test_reference_run_only_valid_for_targets(tmp_path):
    text = MINIMAL.replace("theta0 = zero", "theta0 = from_control:zero")
    with pytest.raises(ConfigurationError,
                       match=r"^\[solver\]\.theta0: from_control is only"
                             " valid for tracking targets"):
        load_config(_write(tmp_path, text))


_COST_BOX = """
[cost]
b1 = 1.0
b5 = 0.5
{targets}

[admissible]
u_min = -1.0
u_max = 1.0
"""


def test_reference_run_builds_targets(tmp_path):
    # The targets are this config's own state under the named control,
    # not under its [solver] control, which stays zero here.
    targets = ("theta_q = from_control:cosine:0.3,2\n"
               "phi_omega = from_control:cosine:0.3,2")
    cfg = load_config(_write(
        tmp_path, MINIMAL + _COST_BOX.format(targets=targets)))
    assert not np.any(cfg.control.values)
    control = load_config(_write(tmp_path, MINIMAL.replace(
        "sigma0 = constant:1.0",
        "sigma0 = constant:1.0\ncontrol = cosine:0.3,2"), "u.cfg")).control
    traj = solve_state(cfg.init, control, cfg.solver, cfg.params,
                       cfg.nonlinearities, cfg.potential)
    expected = traj.field_array("theta")
    got = cfg.cost.theta_q.values.reshape(expected.shape)
    assert np.array_equal(got, expected)
    assert np.array_equal(cfg.cost.phi_omega.flat,
                          traj.field_array("phi")[-1])


def test_nested_from_control_is_rejected(tmp_path):
    targets = "theta_q = from_control:from_control:zero"
    with pytest.raises(ConfigurationError, match=r"^\[cost\]\.theta_q: "):
        load_config(_write(
            tmp_path, MINIMAL + _COST_BOX.format(targets=targets)))


def test_desk_targets_cost_one_sweep_per_load(monkeypatch):
    # desk.cfg's four targets name one control, which is solved once.
    sweeps = []
    original = config.solve_state

    def counting(*args, **kwargs):
        sweeps.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(config, "solve_state", counting)
    load_config(DESK_CFG)
    assert len(sweeps) == 1


def test_reference_run_is_read_afresh_on_every_load(tmp_path):
    # Target states are solved once per load, not once per process: after
    # the config's initial data change, the next load sees new targets
    # under the same control.
    path = tmp_path / "desk.cfg"
    shutil.copy(DESK_CFG, str(path))
    before = load_config(str(path)).cost.theta_omega
    text = path.read_text(encoding="utf-8")
    assert "phi0 = cosine:0.5,1,0.2\n" in text
    path.write_text(text.replace("phi0 = cosine:0.5,1,0.2\n",
                                 "phi0 = cosine:0.5,1,0.4\n"),
                    encoding="utf-8")
    after = load_config(str(path)).cost.theta_omega
    assert np.max(np.abs(after.flat - before.flat)) > 1e-3


def test_sigma_b_space_time_file(tmp_path):
    grid = Grid(9, 1.0)
    time_grid = TimeGrid(0.2, 4)
    values = np.linspace(0.5, 1.5, 5)[:, None] * np.ones((1,) + grid.shape)
    supply = SpaceTimeField(time_grid, grid, values)
    write_space_time_csv(supply, str(tmp_path / "supply.csv"))
    text = MINIMAL.replace("chi = 0.3", "chi = 0.3\nsigma_b = supply.csv")
    cfg = load_config(_write(tmp_path, text))
    assert np.array_equal(cfg.params.sigma_b.values, supply.values)


def test_sigma_b_bad_file_is_a_config_error(tmp_path):
    text = MINIMAL.replace("chi = 0.3", "chi = 0.3\nsigma_b = missing.csv")
    with pytest.raises(ConfigurationError, match="could not read"):
        load_config(_write(tmp_path, text))


# A custom nonlinearity file: a steeper phase gate than the default.
_GATES = textwrap.dedent("""\
    import numpy as np

    from caginalp_control import Nonlinearities


    def make_nonlinearities():
        return Nonlinearities(
            H_gate=lambda s: 0.5 * (1.0 + np.tanh(4.0 * np.asarray(s))),
            H_gate_prime=lambda s: 2.0 / np.cosh(4.0 * np.asarray(s)) ** 2,
            K_temp=lambda s: 0.5 * (1.0 + np.tanh(np.asarray(s))),
            K_temp_prime=lambda s: 0.5 / np.cosh(np.asarray(s)) ** 2,
        )
    """)


def test_custom_nonlinearity_file(tmp_path):
    (tmp_path / "gates.py").write_text(_GATES)
    text = MINIMAL.replace("chi = 0.3",
                           "chi = 0.3\nnonlinearity = custom:gates.py")
    cfg = load_config(_write(tmp_path, text))
    assert cfg.nonlinearities.H_gate(0.0) == 0.5
    assert cfg.nonlinearities.H_gate(1.0) == pytest.approx(
        0.5 * (1.0 + np.tanh(4.0)))


def test_custom_nonlinearity_missing_factory(tmp_path):
    (tmp_path / "gates.py").write_text("x = 1\n")
    text = MINIMAL.replace("chi = 0.3",
                           "chi = 0.3\nnonlinearity = custom:gates.py")
    with pytest.raises(ConfigurationError,
                       match="must define make_nonlinearities"):
        load_config(_write(tmp_path, text))


# Keys that were deleted, each with a value it used to accept. Only the
# quartic potential exists and no constraint read m_bound; the others are
# now constants of the code that reads them (or, for suites, the suite
# argument of ``caginalp verify``) because no config set them to anything
# but their defaults.
_DELETED_KEYS = (
    ("model", "potential", "quartic"),
    ("admissible", "m_bound", "2.0"),
    ("solver", "stabilization_s", "2.0"),
    ("solver", "max_linear_iters", "50"),
    ("solver", "dt", "0.05"),
    ("optimizer", "armijo_c", "0.0001"),
    ("optimizer", "backtrack_factor", "0.5"),
    ("optimizer", "initial_step", "1.0"),
    ("optimizer", "min_step", "1e-14"),
    ("verify", "debug_flip_adjoint_sign", "false"),
    ("verify", "suites", "all"),
)


@pytest.mark.parametrize("section, key, value", _DELETED_KEYS,
                         ids=[f"{s}-{k}" for s, k, _ in _DELETED_KEYS])
def test_keys_that_did_nothing_are_unknown(tmp_path, section, key, value):
    base = MINIMAL + "\n[admissible]\nu_min = -1.0\nu_max = 1.0\n" \
        "\n[optimizer]\n\n[verify]\n"
    text = base.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")
    with pytest.raises(ConfigurationError,
                       match=rf"unknown key \[{section}\]\.{key};"):
        load_config(_write(tmp_path, text))


def test_verify_problem_requires_cost_and_admissible(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL))
    with pytest.raises(ConfigurationError, match=r"\[cost\]"):
        cfg.verify_problem()


_NONLINEARITY = "chi = 0.3\nnonlinearity = {}"


# A gate file written for the model's old contract, which also took H''.
_OLD_CONTRACT_GATES = textwrap.dedent("""\
    from caginalp_control import Nonlinearities, default_nonlinearities


    def make_nonlinearities():
        nl = default_nonlinearities()
        return Nonlinearities(
            H_gate=nl.H_gate, H_gate_prime=nl.H_gate_prime,
            H_gate_second=lambda s: 0.0 * s,
            K_temp=nl.K_temp, K_temp_prime=nl.K_temp_prime)
    """)


# Each case edits MINIMAL once and may add files beside the config.
@pytest.mark.parametrize("old, new, files, key", [
    ("n = 9", "n = 9, 9, 9", {}, "[grid].n"),
    ("n = 9", "n = nine", {}, "[grid].n"),
    ("nt = 4", "nt = 4.5", {}, "[solver].nt"),
    ("t_final = 0.2", "t_final = inf", {}, "[time].t_final"),
    ("t_final = 0.2", "t_final = 0.0", {}, "[time].t_final"),
    ("nt = 4", "nt = 0", {}, "[solver].nt"),
    ("chi = 0.3", _NONLINEARITY.format("builtin:gates"), {},
     "[model].nonlinearity"),
    ("chi = 0.3", _NONLINEARITY.format("custom:absent.py"), {},
     "[model].nonlinearity"),
    ("chi = 0.3", _NONLINEARITY.format("custom:gates.py"),
     {"gates.py": "raise RuntimeError('broken gates')\n"},
     "[model].nonlinearity"),
    ("chi = 0.3", _NONLINEARITY.format("custom:gates.py"),
     {"gates.py": "def make_nonlinearities():\n    return None\n"},
     "[model].nonlinearity"),
    ("chi = 0.3", _NONLINEARITY.format("custom:gates.py"),
     {"gates.py": "def make_nonlinearities():\n"
                  "    raise RuntimeError('boom')\n"},
     "[model].nonlinearity"),
    ("chi = 0.3", _NONLINEARITY.format("custom:gates.py"),
     {"gates.py": _OLD_CONTRACT_GATES}, "[model].nonlinearity"),
    ("sigma0 = constant:1.0", "sigma0 = constant:1.0\n[output]\nslices = ,",
     {}, "[output].slices"),
    ("sigma0 = constant:1.0", "sigma0 = constant:1.0\n[cost]\nb1 = 1.0\n"
     "theta_q = from_control:file:u.csv",
     {"u.csv": SpaceTimeField.zeros(TimeGrid(0.2, 8), Grid(9, 1.0))},
     "[cost].theta_q"),
    ("chi = 0.3", "chi = -1.0", {}, "[model]"),
    ("chi = 0.3", "chi = 0.3\nsigma_b = inf", {}, "[model]"),
    # The supply ends at t = 0.1, before the run's last step starts.
    ("chi = 0.3", "chi = 0.3\nlambda_b = 0.5\nsigma_b = supply.csv",
     {"supply.csv": SpaceTimeField.constant(TimeGrid(0.1, 2), Grid(9, 1.0),
                                            1.0)},
     "[model].sigma_b"),
], ids=["grid-three-values", "grid-not-integer", "bad-integer",
        "non-finite", "t-final-not-positive", "nt-below-one",
        "nonlinearity-prefix", "nonlinearity-unreadable",
        "nonlinearity-raises", "nonlinearity-wrong-type", "factory-raises",
        "factory-old-fields", "slices-empty",
        "reference-time-grid", "hypothesis-failed", "sigma-b-not-finite",
        "sigma-b-short-time-grid"])
def test_invalid_value_names_its_key(tmp_path, old, new, files, key):
    for name, content in files.items():
        if isinstance(content, SpaceTimeField):
            write_space_time_csv(content, str(tmp_path / name))
        else:
            (tmp_path / name).write_text(content)
    assert old in MINIMAL
    with pytest.raises(ConfigurationError) as excinfo:
        load_config(_write(tmp_path, MINIMAL.replace(old, new)))
    assert str(excinfo.value).startswith(f"{key}: ")


def test_output_slices_parsing_and_bounds(tmp_path):
    text = MINIMAL + "\n[output]\nslices = 0, 2, 4\n"
    cfg = load_config(_write(tmp_path, text))
    assert cfg.output_slices == (0, 2, 4)
    bad = MINIMAL + "\n[output]\nslices = 5\n"
    with pytest.raises(ConfigurationError, match="outside"):
        load_config(_write(tmp_path, bad, "bad.cfg"))


# Each case names the control of its from_control target, or None for a
# config without [cost] and [admissible], and makes one edit to MINIMAL.
@pytest.mark.parametrize("control, old, new", [
    ("zero", "", ""),
    ("constant:0.2", "", ""),
    ("cosine:0.3,2,0.1", "", ""),
    ("file:u.csv", "", ""),
    ("zero", "n = 9\nlength = 1.0", "n = 5,4\nlength = 1.0,2.0"),
    ("zero", "chi = 0.3", "chi = 0.3\nsigma_b = 0.75"),
    ("zero", "chi = 0.3", "chi = 0.3\nsigma_b = supply.csv"),
    ("zero", "chi = 0.3", "chi = 0.3\nnonlinearity = custom:gates.py"),
    ("zero", "sigma0 = constant:1.0",
     "sigma0 = constant:1.0\n\n[output]\ndir = results\nslices = 4, 0,2"),
    (None, "", ""),
], ids=["zero", "constant", "cosine", "file", "2d", "sigma-b-scalar",
        "sigma-b-file", "custom-nonlinearity", "output", "no-cost"])
def test_effective_config_round_trips_bitwise(tmp_path, control, old, new):
    rng = np.random.default_rng(11)
    for name in ("u.csv", "supply.csv"):
        write_space_time_csv(SpaceTimeField(
            TimeGrid(0.2, 4), Grid(9, 1.0), rng.uniform(0.5, 1.5, (5, 9))),
            str(tmp_path / name))
    (tmp_path / "gates.py").write_text(_GATES)
    text = MINIMAL.replace("theta0 = zero", "theta0 = cosine:0.05,1")
    if control is not None:
        text += _COST_BOX.format(targets=f"theta_q = from_control:{control}")
    first = load_config(_write(tmp_path, text.replace(old, new)))
    emitted = first.effective_config()
    second = load_config(_write(tmp_path, emitted, "effective.cfg"))
    assert second.effective_config() == emitted
    assert second.grid == first.grid
    assert second.time_grid == first.time_grid
    supplies = [np.asarray(getattr(cfg.params.sigma_b, "values",
                                   cfg.params.sigma_b))
                for cfg in (first, second)]
    assert np.array_equal(*supplies)
    assert dataclasses.replace(second.params, sigma_b=1.0) \
        == dataclasses.replace(first.params, sigma_b=1.0)
    assert second.nonlinearities.H_gate(0.25) \
        == first.nonlinearities.H_gate(0.25)
    assert np.array_equal(second.init.theta0.values,
                          first.init.theta0.values)
    assert np.array_equal(second.control.values, first.control.values)
    if control is None:
        assert second.cost is second.admissible is None
    else:
        assert np.array_equal(second.cost.theta_q.values,
                              first.cost.theta_q.values)
        assert dataclasses.replace(second.cost, theta_q=None) \
            == dataclasses.replace(first.cost, theta_q=None)
    assert second.admissible == first.admissible
    assert second.optimizer == first.optimizer
    assert second.verify.seed == first.verify.seed
    assert second.output_dir == first.output_dir
    assert second.output_slices == first.output_slices

    # Every section present is spelled out: each key a config accepts, in
    # the order of _KNOWN_KEYS, defaults included; only cost targets left
    # unset are absent.
    parser = configparser.ConfigParser(interpolation=None,
                                       delimiters=("=",))
    parser.optionxform = str
    parser.read_string(emitted)
    assert parser.sections() == [
        section for section in config._KNOWN_KEYS
        if control is not None or section not in ("cost", "admissible")]
    for section in parser.sections():
        keys = [key for key in config._KNOWN_KEYS[section]
                if section != "cost" or getattr(first.cost, key) is not None]
        assert list(parser[section]) == keys, section


# Every float and int key, with a legal value other than its default,
# written in the form effective_config re-emits it.
_SCALAR_KEYS = {
    "model": {"ell": "0.25", "lambda_big": "0.25", "chi": "0.25",
              "tau": "0.25", "lambda_p": "0.25", "lambda_a": "0.25",
              "lambda_e": "0.25", "lambda_c": "0.25", "lambda_b": "0.25",
              "lambda_d": "0.25"},
    "solver": {"linear_tol": "1e-09"},
    "cost": {"b1": "0.25", "b2": "0.25", "b3": "0.25", "b4": "0.25",
             "b5": "0.25"},
    "admissible": {"u_min": "-0.5", "u_max": "0.25"},
    "optimizer": {"max_iters": "7", "stationarity_tol": "1e-07"},
    "verify": {"seed": "7"},
}

# The RunConfig attribute that holds each section's dataclass.
_SECTION_OBJECTS = {"model": ("params", ModelParams),
                    "solver": ("solver", SolverConfig),
                    "cost": ("cost", CostSpec),
                    "admissible": ("admissible", AdmissibleSet),
                    "optimizer": ("optimizer", OptimizerConfig),
                    "verify": ("verify", VerifySuiteConfig)}


def test_scalar_key_table_covers_every_scalar_field():
    for section, (_, cls) in _SECTION_OBJECTS.items():
        hints = typing.get_type_hints(cls)
        scalars = {f.name for f in dataclasses.fields(cls)
                   if hints[f.name] in (float, int)}
        assert scalars == set(_SCALAR_KEYS[section]), section


@pytest.mark.parametrize("section, key", [
    (section, key) for section, keys in _SCALAR_KEYS.items()
    for key in keys])
def test_every_scalar_key_is_parsed_and_re_emitted(tmp_path, section, key):
    text = _SCALAR_KEYS[section][key]
    base = MINIMAL + "\n[cost]\n\n[admissible]\nu_min = -1.0\n" \
        "u_max = 1.0\n\n[optimizer]\n\n[verify]\n"
    lines = [line for line in base.splitlines()
             if line.split(" = ")[0] != key]
    lines.insert(lines.index(f"[{section}]") + 1, f"{key} = {text}")
    cfg = load_config(_write(tmp_path, "\n".join(lines) + "\n"))

    attr = _SECTION_OBJECTS[section][0]
    built = getattr(cfg, attr)
    value = getattr(built, key)
    assert str(value) == text
    default = next(f.default for f in dataclasses.fields(built)
                   if f.name == key)
    assert value != default

    emitted = cfg.effective_config()
    body = emitted.split(f"[{section}]\n")[1].split("\n\n")[0]
    assert f"{key} = {text}" in body.splitlines()
    again = load_config(_write(tmp_path, emitted, "effective.cfg"))
    assert getattr(again, attr) == built


def test_shipped_desk_config_loads(tmp_path):
    cfg = load_config(DESK_CFG)
    problem = cfg.verify_problem()
    assert problem.grid == Grid(33, 2.0)
    assert problem.time_grid == TimeGrid(0.5, 50)
    assert problem.cost.b5 == 0.5
