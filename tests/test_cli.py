"""Command-line interface: subcommands, reports, exit codes, determinism."""

import contextlib
import io
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from conftest import DESK_CFG

import caginalp_control
from caginalp_control import (
    DIAGNOSTICS_HEADER,
    Field,
    Grid,
    SpaceTimeField,
    TimeGrid,
    diagnostics,
    load_config,
    solve_state,
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


def _node_table_bytes(grid, names, levels, times=None):
    """A node table formatted cell by cell, with node (i, j) at flat index
    i * ny + j; ``levels`` holds one flat array per name and level."""
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
    return ("\n".join(expected) + "\n").encode()


@pytest.mark.parametrize("writer", ["state_slice", "field", "space_time"])
@pytest.mark.parametrize("n, length", [((9,), (1.0,)),
                                       ((5, 4), (1.0, 0.75))])
def test_state_slice_lines_match_per_cell_formatting(tmp_path, n, length,
                                                     writer):
    # Each node-table row is formatted by one template; the reference formats
    # every cell on its own.
    grid = Grid(n, length)
    time_grid = TimeGrid(0.2, 2)
    rng = np.random.default_rng(11)
    path = str(tmp_path / "table.csv")
    times = None
    if writer == "state_slice":
        names = ("theta", "phi", "mu", "sigma")
        levels = [list(rng.normal(size=(4, grid.num_nodes)))]
        _write_state_slice(path, grid, levels[0])
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
    with open(path, "rb") as handle:
        assert handle.read() == _node_table_bytes(grid, names, levels, times)


def _desk_simulate_text(grid, nt, slices, out):
    """desk.cfg up to its [cost] section, on another grid and step count,
    with an [output] section."""
    with open(DESK_CFG, encoding="utf-8") as handle:
        desk = handle.read().split("[cost]")[0]
    return (desk.replace("n = 33\nlength = 2.0", grid)
            .replace("nt = 50", f"nt = {nt}")
            + f"\n[output]\ndir = {out}\nslices = {slices}\n")


@pytest.mark.parametrize("grid, nt, slices", [
    ("n = 33\nlength = 2.0", 50, "0,1,25,50"),
    ("n = 17,17\nlength = 2.0,2.0", 10, "0,3,10"),
], ids=["desk", "2d-17x17-nt10"])
def test_simulate_streams_the_stored_trajectory_bytes(tmp_path, grid, nt,
                                                      slices):
    # simulate keeps one diagnostics row per level and copies only the
    # levels it writes; its files equal those built from a stored sweep.
    cfg_path = _write(tmp_path, _desk_simulate_text(grid, nt, slices, "out"))
    assert main(["simulate", cfg_path]) == EXIT_OK

    cfg = load_config(cfg_path)
    model = (cfg.solver, cfg.params, cfg.nonlinearities, cfg.potential)
    traj = solve_state(cfg.init, cfg.control, *model)
    diagnostics_bytes = "\n".join(
        [",".join(DIAGNOSTICS_HEADER)]
        + [",".join(str(cell) if isinstance(cell, int)
                    else "{:.17g}".format(cell) for cell in row)
           for row in diagnostics(traj, cfg.params, cfg.potential)]) + "\n"
    assert (_read(tmp_path, "out", "diagnostics.csv")
            == diagnostics_bytes.encode())
    names = ("theta", "phi", "mu", "sigma")
    for level in cfg.output_slices:
        columns = [traj.field_array(name)[level] for name in names]
        assert (_read(tmp_path, "out", f"state_{level:06d}.csv")
                == _node_table_bytes(cfg.grid, names, [columns]))

    recorded = solve_state(cfg.init, cfg.control, *model,
                           on_level=lambda *level: None)
    assert recorded.operators is None
    assert recorded.linear_solve_count == traj.linear_solve_count == 3 * nt


def test_simulate_memory_does_not_grow_with_the_stored_levels(tmp_path):
    # The sweep stores no level it does not write: the peak stays below two
    # (nt + 1, N) arrays, one of which is the control itself.
    nodes, nt = 513, 1000
    text = _desk_simulate_text(f"n = {nodes}\nlength = 2.0", nt,
                               "0,500,1000", "mem_out")
    cfg_path = _write(tmp_path, text)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", cfg_path]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (nt + 1) * nodes * 8


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


_GROWING_GATE = """\
import dataclasses

import numpy as np

from caginalp_control import default_nonlinearities


def grow(s):
    with np.errstate(over="ignore"):
        return np.exp(40.0 * np.asarray(s, dtype=float))


def make_nonlinearities():
    return dataclasses.replace(
        default_nonlinearities(), H_gate=grow,
        H_gate_prime=lambda s: 40.0 * grow(s))
"""


def test_failed_hypothesis_exits_2_before_any_target_solve(tmp_path,
                                                           capsys):
    # The gated source would overflow in the target's own solve (exit 3);
    # the model is rejected where the config builds it, before that solve.
    (tmp_path / "gates.py").write_text(_GROWING_GATE)
    text = (BASE.replace("chi = 0.3", "chi = 0.3\nlambda_p = 1.0\n"
                         "nonlinearity = custom:gates.py")
            + COST_BOX.replace("b5 = 1.0", "b5 = 1.0\n"
                               "theta_q = from_control:cosine:0.4,1"))
    assert main(["simulate", _write(tmp_path, text)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [model]: hypothesis checks failed:")
    assert "H_gate" in err
    assert len(err.splitlines()) == 1


def test_solver_blowup_exits_3(tmp_path, capsys):
    cfg = _write(tmp_path, BASE.replace(
        "chi = 0.3", "chi = 0.3\nlambda_p = 1e300"))
    assert main(["simulate", cfg]) == EXIT_SOLVER
    err = capsys.readouterr().err
    assert "forward solve failed" in err
    # The source overflows at step 1; the phase solve names it.
    assert "phase solve at step 1" in err
    assert "forward sweep" in err
    # Reports are written after the sweep returns, so a failed one leaves
    # none.
    written = os.listdir(os.path.join(str(tmp_path), "out"))
    assert "diagnostics.csv" not in written
    assert not [name for name in written if name.startswith("state_")]


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


@pytest.mark.parametrize("suite", ["equilibrium", "energy"])
def test_verify_with_sigma_b_file_covering_the_run_exits_0(tmp_path, capsys,
                                                           suite):
    # Both suites march past the run's horizon with the supply switched
    # off, so a sigma_b file that covers only the run is never sampled.
    write_space_time_csv(SpaceTimeField.constant(
        TimeGrid(0.5, 50), Grid(33, 2.0), 1.0), str(tmp_path / "supply.csv"))
    with open(DESK_CFG, encoding="utf-8") as handle:
        text = handle.read()
    text = text.replace("sigma_b = 1.0", "sigma_b = supply.csv")
    text = text.replace("dir = out_desk", "dir = sigma_out")
    cfg = _write(tmp_path, text)
    assert main(["verify", suite, cfg]) == EXIT_OK
    assert "all 1 check(s) passed" in capsys.readouterr().out


def test_output_dir_that_cannot_be_created_exits_2(tmp_path, capsys):
    (tmp_path / "taken").write_text("a regular file\n")
    cfg = _write(tmp_path, BASE + "\n[output]\ndir = taken\n")
    assert main(["simulate", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[output].dir" in err
    assert str(tmp_path / "taken") in err


def test_report_that_cannot_be_written_exits_2(tmp_path, capsys):
    # The write fails after the solve; main reports it in one line instead
    # of raising.
    (tmp_path / "out" / "diagnostics.csv").mkdir(parents=True)
    assert main(["simulate", _write(tmp_path, BASE)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: [output].dir: cannot write ")
    assert str(tmp_path / "out" / "diagnostics.csv") in err
    assert len(err.splitlines()) == 1


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


def test_2d_simulate_bytes_do_not_depend_on_the_thread_count(tmp_path):
    # On 129^2 nodes OpenBLAS splits a dot product over its threads, so a
    # weighted sum by BLAS would round differently at 1 and at 2 threads.
    src = os.path.dirname(os.path.dirname(caginalp_control.__file__))
    outputs = []
    for threads in ("1", "2"):
        text = _desk_simulate_text("n = 129,129\nlength = 2.0,2.0", 10, "10",
                                   f"out_{threads}")
        cfg = _write(tmp_path, text, name=f"threads_{threads}.cfg")
        env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": threads,
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-m", "caginalp_control", "simulate", cfg],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_OK, proc.stderr
        outputs.append([_read(tmp_path, f"out_{threads}", name)
                        for name in ("diagnostics.csv", "state_000010.csv")])
    assert outputs[0] == outputs[1]


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
