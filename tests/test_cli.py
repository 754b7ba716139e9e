"""Command-line interface: subcommands, reports, exit codes, determinism."""

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from conftest import DESK_CFG

import caginalp_control
from caginalp_control import (
    Field,
    Grid,
    SpaceTimeField,
    TimeGrid,
    Trajectory,
    write_field_csv,
    write_space_time_csv,
)
from caginalp_control.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_OPTIMIZER,
    EXIT_SOLVER,
    EXIT_VERIFY,
    _write_state_slice,
    main,
)

BASE = """\
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
phi0 = constant:1.0
sigma0 = constant:1.0
"""

COST_BOX = """

[cost]
b1 = 0.0
b2 = 0.0
b3 = 0.0
b4 = 0.0
b5 = 1.0

[admissible]
u_min = -1.0
u_max = 1.0
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def _read(tmp_path, *parts):
    with open(os.path.join(str(tmp_path), *parts), "rb") as handle:
        return handle.read()


def test_exit_codes_are_pinned():
    assert (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_OPTIMIZER,
            EXIT_VERIFY) == (0, 2, 3, 4, 5)


def test_simulate_writes_reports(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = sim_out\n")
    assert main(["simulate", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "simulate: 4 steps" in out
    diag = _read(tmp_path, "sim_out", "diagnostics.csv").decode()
    lines = diag.strip().split("\n")
    assert lines[0] == ("step,time,mass_theta_ell_phi,mass_phi,energy,"
                        "linf_theta,linf_phi")
    assert len(lines) == 6
    state = _read(tmp_path, "sim_out", "state_000004.csv").decode()
    assert state.split("\n")[0] == "index_x,x,theta,phi,mu,sigma"
    assert os.path.isfile(
        os.path.join(str(tmp_path), "sim_out", "effective_config"))


@pytest.mark.parametrize("writer", ["state_slice", "field", "space_time"])
@pytest.mark.parametrize("n, length", [((9,), (1.0,)),
                                       ((5, 4), (1.0, 0.75))])
def test_state_slice_lines_match_per_cell_formatting(tmp_path, n, length,
                                                     writer):
    # Each node-table row is formatted by one template; the reference formats
    # every cell on its own, with node (i, j) at flat index i * ny + j.
    grid = Grid(n, length)
    time_grid = TimeGrid(0.2, 2)
    rng = np.random.default_rng(11)
    path = str(tmp_path / "table.csv")
    times = None
    if writer == "state_slice":
        names = ("theta", "phi", "mu", "sigma")
        traj = Trajectory(time_grid, grid, {
            name: rng.normal(size=(3, grid.num_nodes)) for name in names})
        levels = [[traj.field_array(name)[1] for name in names]]
        _write_state_slice(path, traj, 1)
    elif writer == "field":
        names = ("value",)
        field = Field(grid, rng.normal(size=grid.shape))
        levels = [[field.values.reshape(-1)]]
        write_field_csv(field, path)
    else:
        names = ("value",)
        stf = SpaceTimeField(time_grid, grid,
                             rng.normal(size=(3,) + grid.shape))
        levels = [[level.reshape(-1)] for level in stf.values]
        times = time_grid.times
        write_space_time_csv(stf, path)
    coords = [grid.coords(axis) for axis in range(grid.dim)]
    header = ("index_x,x," if grid.dim == 1 else "index_x,index_y,x,y,")
    expected = [("" if times is None else "t_index,t,") + header
                + ",".join(names)]
    for k, columns in enumerate(levels):
        for flat, index in enumerate(np.ndindex(*grid.n)):
            cells = [] if times is None else [str(k),
                                              "{:.17g}".format(times[k])]
            cells += [str(i) for i in index]
            cells += ["{:.17g}".format(c[i]) for c, i in zip(coords, index)]
            cells += ["{:.17g}".format(col[flat]) for col in columns]
            expected.append(",".join(cells))
    with open(path, "rb") as handle:
        assert handle.read() == ("\n".join(expected) + "\n").encode()


def test_simulate_constant_data_has_constant_diagnostics(tmp_path):
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = eq_out\n")
    assert main(["simulate", cfg]) == EXIT_OK
    diag = _read(tmp_path, "eq_out", "diagnostics.csv").decode()
    rows = [line.split(",") for line in diag.strip().split("\n")[1:]]
    masses = {row[2] for row in rows}
    energies = {row[4] for row in rows}
    assert len(masses) == 1
    assert len(energies) == 1


def test_simulate_is_byte_deterministic(tmp_path):
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = det_out\n")
    assert main(["simulate", cfg]) == EXIT_OK
    first = _read(tmp_path, "det_out", "diagnostics.csv")
    assert main(["simulate", cfg]) == EXIT_OK
    second = _read(tmp_path, "det_out", "diagnostics.csv")
    assert first == second


def test_simulate_rerun_on_effective_config_is_identical(tmp_path):
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = eff_out\n")
    assert main(["simulate", cfg]) == EXIT_OK
    first = _read(tmp_path, "eff_out", "diagnostics.csv")
    effective = os.path.join(str(tmp_path), "eff_out", "effective_config")
    assert main(["simulate", effective]) == EXIT_OK
    second = _read(tmp_path, "eff_out", "diagnostics.csv")
    assert first == second


def test_missing_model_key_exits_2_and_names_the_key(tmp_path, capsys):
    broken = BASE.replace("ell = 0.5\n", "")
    cfg = _write(tmp_path, broken)
    assert main(["simulate", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[model].ell" in err


def test_failed_hypothesis_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace("chi = 0.3", "chi = -1.0"))
    assert main(["simulate", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "hypothesis" in err
    assert "chi" in err


def test_solver_blowup_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace(
        "chi = 0.3", "chi = 0.3\nlambda_p = 1e300"))
    assert main(["simulate", cfg]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "forward solve failed" in err
    # The source overflows at step 1; the phase solve names it.
    assert "phase solve at step 1" in err
    assert "forward sweep" in err


def test_optimize_writes_reports(tmp_path, capsys):
    text = (BASE.replace("sigma0 = constant:1.0",
                         "sigma0 = constant:1.0\ncontrol = constant:0.5")
            + COST_BOX + "\n[output]\ndir = opt_out\n")
    path = _write(tmp_path, text, "opt.cfg")
    assert main(["optimize", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "optimize: stationarity" in out
    report = _read(tmp_path, "opt_out", "optim_report.csv").decode()
    lines = report.strip().split("\n")
    assert lines[0] == "iter,J,stationarity,step,backtracks"
    assert len(lines) >= 3
    work = _read(tmp_path, "opt_out", "optim_work.csv").decode()
    work_lines = work.strip().split("\n")
    assert work_lines[0] == "iter,forward_sweeps,adjoint_sweeps,linear_solves"
    assert len(work_lines) == len(lines)
    # One gradient per row; every forward sweep but the first is a trial.
    forward, adjoint = map(int, work_lines[-1].split(",")[1:3])
    assert adjoint == len(work_lines) - 1
    assert forward >= adjoint
    control = _read(tmp_path, "opt_out", "control.csv").decode()
    rows = control.strip().split("\n")[1:]
    values = {row.rsplit(",", 1)[1] for row in rows}
    assert values == {"0"}


@pytest.mark.parametrize("missing", ["cost", "admissible"])
@pytest.mark.parametrize("command", [["optimize"], ["verify", "all"]],
                         ids=["optimize", "verify"])
def test_optimize_requires_cost_section(tmp_path, capsys, command, missing):
    # Both commands run the control problem, which needs both sections.
    text = BASE + re.sub(rf"\[{missing}\][^[]*", "", COST_BOX)
    cfg = _write(tmp_path, text)
    assert main([*command, cfg]) == EXIT_CONFIG
    assert f"[{missing}]" in capsys.readouterr().err


def test_optimize_empty_box_exits_2(tmp_path):
    text = BASE + COST_BOX.replace("u_min = -1.0", "u_min = 2.0")
    cfg = _write(tmp_path, text)
    assert main(["optimize", cfg]) == EXIT_CONFIG


def test_optimize_blowup_exits_4(tmp_path, capsys):
    text = (BASE.replace("chi = 0.3", "chi = 0.3\nlambda_p = 1e300")
            + COST_BOX)
    cfg = _write(tmp_path, text)
    assert main(["optimize", cfg]) == EXIT_OPTIMIZER
    assert "optimization aborted" in capsys.readouterr().err


def test_verify_single_suite_writes_its_table(tmp_path, capsys):
    text = BASE + COST_BOX + "\n[output]\ndir = ver_out\n"
    cfg = _write(tmp_path, text)
    assert main(["verify", "taylor", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS taylor_slope" in out
    assert "all 2 check(s) passed" in out
    report = _read(tmp_path, "ver_out", "verify_report.csv").decode()
    lines = report.split("\n")
    assert lines[0] == "# seed=1729"
    assert lines[1] == "name,passed,measured,tolerance"
    out_files = os.listdir(os.path.join(str(tmp_path), "ver_out"))
    assert "taylor_report.csv" in out_files
    assert "dot_product_report.csv" not in out_files
    table = _read(tmp_path, "ver_out", "taylor_report.csv").decode()
    assert table.startswith("# seed=1729\nepsilon,remainder_norm,slope\n")


def test_verify_unknown_suite_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, BASE + COST_BOX)
    assert main(["verify", "nonsense", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "valid names" in err
    assert "conservation" in err


def test_verify_negative_seed_exits_2(tmp_path, capsys):
    # numpy's generators take no negative seed material, so a negative seed
    # would fail every seeded suite as if its checks had failed (exit 5).
    cfg = _write(tmp_path, BASE + COST_BOX + "\n[verify]\nseed = -1\n")
    assert main(["verify", "all", cfg]) == EXIT_CONFIG
    assert "[verify]: seed must be nonnegative" in capsys.readouterr().err


def test_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("a regular file\n")
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = taken\n")
    assert main(["simulate", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[output].dir" in err
    assert str(tmp_path / "taken") in err


def test_verify_fault_injection_exits_5(tmp_path, capsys, flipped_adjoint):
    text = BASE + COST_BOX + "\n[output]\ndir = flip_out\n"
    cfg = _write(tmp_path, text)
    assert main(["verify", "adjoint", cfg]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL dot_product" in out
    assert "FAILED" in out


@pytest.fixture(scope="module")
def desk_verify_run(tmp_path_factory):
    """Exit code, stdout and output directory of ``verify all`` on the
    shipped desk config."""
    tmp_path = tmp_path_factory.mktemp("desk_verify")
    with open(DESK_CFG, encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("dir = out_desk", f"dir = {tmp_path}/desk_out")
    (tmp_path / "desk.cfg").write_text(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "all", str(tmp_path / "desk.cfg")])
    return code, out.getvalue(), tmp_path / "desk_out"


def test_verify_all_on_shipped_desk_config(desk_verify_run):
    code, out, out_dir = desk_verify_run
    assert code == EXIT_OK
    assert "all 17 check(s) passed" in out
    out_files = os.listdir(str(out_dir))
    assert "verify_report.csv" in out_files
    assert "optimizer_report.csv" in out_files


def test_desk_verify_report_writes_every_verdict_as_true_or_false(
        desk_verify_run):
    _, _, out_dir = desk_verify_run
    lines = (out_dir / "verify_report.csv").read_text().splitlines()
    assert lines[1] == "name,passed,measured,tolerance"
    verdicts = [line.split(",")[1] for line in lines[2:]]
    assert len(verdicts) == 17
    assert set(verdicts) <= {"true", "false"}


def test_module_entry_point_runs_simulate(tmp_path):
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = module_out\n")
    src = os.path.dirname(os.path.dirname(caginalp_control.__file__))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "caginalp_control", "simulate",
         cfg], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "simulate: 4 steps" in proc.stdout
    diag = _read(tmp_path, "module_out", "diagnostics.csv").decode()
    assert len(diag.strip().split("\n")) == 1 + (4 + 1)


def test_verify_keeps_the_report_that_optimize_wrote(tmp_path, capsys):
    # Both commands write into one [output] dir. The battery's optimizer
    # table has its own name, so optimize's iteration table survives.
    text = (BASE.replace("theta0 = zero", "theta0 = constant:0.3")
            .replace("sigma0 = constant:1.0",
                     "sigma0 = constant:1.0\ncontrol = constant:0.5")
            + COST_BOX.replace("b1 = 0.0", "b1 = 1.0")
            + "\n[output]\ndir = shared_out\n")
    path = _write(tmp_path, text)
    assert main(["optimize", path]) == EXIT_OK
    report = _read(tmp_path, "shared_out", "optim_report.csv")
    assert main(["verify", "optimizer", path]) == EXIT_OK
    capsys.readouterr()
    assert _read(tmp_path, "shared_out", "optim_report.csv") == report
    work = _read(tmp_path, "shared_out", "optim_work.csv")
    assert len(report.splitlines()) == len(work.splitlines())
    battery = _read(tmp_path, "shared_out", "optimizer_report.csv").decode()
    assert battery.splitlines()[0].startswith("# seed=")
