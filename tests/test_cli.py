"""CLI behavior: flags, config files, schemas, determinism, exit codes."""

import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import acimlab.cli as cli
import acimlab.density
import acimlab.ulam
from acimlab.errors import ComputationError
from acimlab.wmap import WParams, build_w_map, fixed_points
from conftest import draw_case_i

DENSITY_EXAMPLE = [
    "density", "--s1", "2", "--s2", "2", "--a", "0",
    "--method", "ulam", "--bins", "2", "--align-half",
]


@pytest.fixture
def run_cli(cli_env):
    def run(args, cwd):
        return subprocess.run(
            [sys.executable, "-m", "acimlab.cli", *args],
            cwd=cwd,
            env=cli_env,
            capture_output=True,
            text=True,
        )

    return run


def _rejected(result, needle):
    """Exit 2 with one acimlab: line on stderr that names the fault, and no traceback."""
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("acimlab: config error: ")
    assert needle in result.stderr


def test_classify_stdout(tmp_path, run_cli):
    result = run_cli(["classify", "--s1", "1.5", "--s2", "3"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "case II\n"
    assert run_cli(["classify", "--s1", "3", "--s2", "3"], tmp_path).stdout == "case III\n"


def test_density_markov_example(tmp_path, run_cli):
    result = run_cli([*DENSITY_EXAMPLE, "--output", "out.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert lines[0].startswith("# acimlab ")
    assert lines[1].startswith("# config: ")
    assert lines[2] == "cell_left,cell_right,value"
    assert lines[3] == "0.0,0.5,1.5"
    assert lines[4] == "0.5,1.0,0.5"


def test_density_csv_roundtrip(tmp_path, run_cli):
    result = run_cli(
        ["density", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a", "0.05", "--output", "dens.csv"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    rows = [
        line.split(",")
        for line in (tmp_path / "dens.csv").read_text().splitlines()
        if not line.startswith("#")
    ][1:]
    from acimlab.density import normalize, solve_series
    from acimlab.wmap import WParams

    h = normalize(solve_series(WParams(1.5, 3.0, 3.0, 2.0, 2.0, 0.05)).density)
    assert len(rows) == h.values.size
    for (left, right, value), bl, br, bv in zip(
        rows, h.breakpoints[:-1], h.breakpoints[1:], h.values
    ):
        # shortest round-trip serialization parses back to the exact double
        assert float(left) == bl and float(right) == br and float(value) == bv


def test_density_json_format(tmp_path, run_cli):
    result = run_cli([*DENSITY_EXAMPLE, "--output", "out.json", "--format", "json"], tmp_path)
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "out.json").read_text())
    assert payload["meta"]["artifact"] == "acimlab"
    assert payload["meta"]["config"]["bins"] == 2
    assert payload["rows"][0] == {"cell_left": 0.0, "cell_right": 0.5, "value": 1.5}


def test_density_both_writes_two_files(tmp_path, run_cli):
    result = run_cli(
        ["density", "--s1", "2", "--s2", "2", "--a", "0.05", "--method", "both",
         "--bins", "1024", "--output", "pair.csv"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "pair.gora.csv").exists()
    assert (tmp_path / "pair.ulam.csv").exists()
    assert float(result.stdout.strip()) < 0.05


def test_byte_identical_reruns(tmp_path, run_cli):
    for name in ("one.csv", "two.csv"):
        result = run_cli(
            ["sweep", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
             "--a-schedule", "0.05,0.02", "--output", name],
            tmp_path,
        )
        assert result.returncode == 0, result.stderr
    one = (tmp_path / "one.csv").read_bytes()
    two = (tmp_path / "two.csv").read_bytes()
    # identical apart from the configured output name in the header
    assert one.replace(b"one.csv", b"X") == two.replace(b"two.csv", b"X")


def test_sweep_schema(tmp_path, run_cli):
    result = run_cli(
        ["sweep", "--s1", "4", "--s2", "4", "--a-schedule", "0.05,0.01",
         "--output", "sw.csv"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "sw.csv").read_text().splitlines()
    assert lines[2] == (
        "a,case,d_to_limit,C1_over_a,C2_over_a,C3_over_a,B_over_a,"
        "sup_density,essinf_density,k"
    )
    first = lines[3].split(",")
    assert first[1] == "III"
    assert first[3] == ""  # C ratios only apply in case II


def test_sweep_empty_schedule_exits_2(tmp_path, run_cli):
    result = run_cli(
        ["sweep", "--s1", "1.5", "--s2", "3", "--a-schedule", "", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "a_schedule" in result.stderr


def test_missing_required_flag_exits_2(tmp_path, run_cli):
    result = run_cli(["density", "--s1", "2", "--s2", "2", "--a", "0"], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "output" in result.stderr


def test_invalid_params_exit_2(tmp_path, run_cli):
    result = run_cli(
        ["density", "--s1", "0.5", "--s2", "2", "--a", "0.01", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "s1" in result.stderr


def test_generated_log_schedule(tmp_path, run_cli):
    result = run_cli(
        ["ratios", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a-start", "0.01", "--a-stop", "0.001", "--a-points", "3",
         "--output", "r.csv"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[-1].startswith("# monotone_approach:")
    data = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert [float(row[0]) for row in data] == pytest.approx([1e-2, 10**-2.5, 1e-3])


def test_config_file_with_flag_override(tmp_path, run_cli):
    config = {"s1": 1.5, "s2": 3.0, "p": 3.0, "q": 2.0, "r": 2.0, "a": 0.05}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    result = run_cli(
        ["--config", "cfg.json", "density", "--a", "0.01", "--output", "d.csv"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    header = (tmp_path / "d.csv").read_text().splitlines()[1]
    resolved = json.loads(header.removeprefix("# config: "))
    assert resolved["a"] == 0.01  # flag wins
    assert resolved["s1"] == 1.5  # config file fills the rest


def test_counterexample_schema(tmp_path, run_cli):
    result = run_cli(["counterexample", "--n-max", "2", "--output", "ce.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "ce.csv").read_text().splitlines()
    assert lines[2] == "n,r_n,a_n,d_n,essinf_n"
    assert len(lines) == 5


def test_map_eval_orbit(tmp_path, run_cli):
    result = run_cli(
        ["map-eval", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a", "0.05", "--x", "0.5", "--steps", "2"],
        tmp_path,
    )
    values = [float(v) for v in result.stdout.split()]
    assert values == pytest.approx([0.5, 0.6, 0.29], abs=1e-12)


def test_computation_error_exits_3(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise ComputationError("synthetic blowup")

    monkeypatch.setattr(acimlab.density, "solve_series", explode)
    code = cli.main(
        ["density", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a", "0.05", "--output", "never.csv"]
    )
    assert code == 3
    assert "synthetic blowup" in capsys.readouterr().err


@pytest.mark.parametrize("tail_tol", ["0", "nan", "-1e-10"])
def test_bad_tail_tol_exits_2(tmp_path, run_cli, tail_tol):
    result = run_cli(
        ["density", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a", "0.01", f"--tail-tol={tail_tol}", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "tail_tol" in result.stderr


def test_cancelled_closed_form_offset_exits_3(tmp_path, run_cli):
    result = run_cli(
        ["density", "--s1", "2", "--s2", "2", "--p", "1", "--q", "1", "--r", "1",
         "--a", "1e-9", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "precision floor" in result.stderr


def test_orbit_walk_below_precision_floor_exits_3(tmp_path, run_cli):
    # the float64 orbit sticks to the rising branch's fixed point at a = 1e-8
    result = run_cli(
        ["density", "--s1", "2", "--s2", "2", "--p", "1", "--q", "1", "--r", "1",
         "--a", "1e-8", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert "2 * closed_form_k = 106 steps" in result.stderr
    assert "precision floor" in result.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command, label", [("sweep", "sweep point"), ("ratios", "ratio point")])
def test_failed_schedule_point_exits_3(tmp_path, capsys, command, label):
    # a = 1e-8 lies below the orbit walk's precision floor; a = 0.01 does not
    out = tmp_path / "x.csv"
    code = cli.main(
        [command, "--s1", "2", "--s2", "2", "--a-schedule", "0.01,1e-8", "--output", str(out)]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"acimlab: computation error: {label} a=1e-08 failed: turning orbit")
    assert "precision floor" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_case_i_sweep_needs_two_bins(tmp_path, capsys):
    out = tmp_path / "x.csv"
    case_i = ["sweep", "--s1", "1.5", "--s2", "2", "--a-schedule", "0.01", "--output", str(out)]
    assert cli.main([*case_i, "--bins", "1"]) == 2
    assert capsys.readouterr().err == (
        "acimlab: config error: a case-I sweep needs bins >= 2 (got 1)\n"
    )
    assert not out.exists()
    # the series route of a case-III sweep uses no bins
    case_iii = ["sweep", "--s1", "3", "--s2", "3", "--a-schedule", "0.01", "--bins", "1"]
    assert cli.main([*case_iii, "--output", str(out)]) == 0
    assert out.exists()


def _family_flags(params):
    return [f"--{name}={getattr(params, name)!r}" for name in ("s1", "s2", "p", "q", "r", "a")]


def test_case_i_ulam_density_keeps_its_mass_on_the_invariant_interval(tmp_path, rng):
    # on the full map, (1.5, 2, 1, 1, 1) at a = 1e-4 put 0.0023 of it there
    cases = [(WParams(1.5, 2.0, 1.0, 1.0, 1.0, 1e-4), 1024)]
    cases += [(draw_case_i(rng), bins) for bins in (2, 3, 64, 1024, 4096)]
    out = tmp_path / "d.csv"
    for params, bins in cases:
        for align in ([], ["--align-half"]):
            argv = ["density", *_family_flags(params), "--method", "ulam", "--bins", str(bins)]
            assert cli.main([*argv, *align, "--output", str(out)]) == 0
            left, right, value = np.loadtxt(out, delimiter=",", comments="#", skiprows=3).T
            x_l, x_r = fixed_points(params)
            inside = (left >= x_l) & (right <= x_r)
            assert abs((value * (right - left))[inside].sum() - 1.0) <= 1e-12
            assert not value[~inside].any()


@pytest.mark.parametrize("a", ["0.05", "0.03", "0.01"])
def test_non_invariant_case_i_points_exit_2(tmp_path, capsys, a):
    # W(1/2) - x_r = 5.6e-3, 1.8e-3 and 2.3e-5 for this family
    family = ["--s1", "1.9", "--s2", "2.05", "--p", "3", "--q", "3", "--r", "1"]
    out = tmp_path / "x.csv"
    density = ["density", *family, "--a", a, "--method", "ulam", "--bins", "64"]
    sweep = ["sweep", *family, "--a-schedule", f"{a},0.001", "--bins", "64"]
    for argv in (density, sweep):
        assert cli.main([*argv, "--output", str(out)]) == 2
        assert "is not invariant" in capsys.readouterr().err
        assert not out.exists()
    # at a = 1e-3 the interval is invariant and the row is written
    assert cli.main(["sweep", *family, "--a-schedule", "0.001", "--bins", "64", "--output", str(out)]) == 0
    assert out.exists()


def test_case_i_ulam_density_at_a_zero_exits_2(tmp_path, capsys):
    argv = ["density", "--s1", "1.5", "--s2", "2", "--a", "0", "--method", "ulam",
            "--output", str(tmp_path / "x.csv")]
    assert cli.main(argv) == 2
    assert "single point 1/2" in capsys.readouterr().err


def test_ulam_non_convergence_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(acimlab.ulam, "MAX_POWER_STEPS", 5)
    code = cli.main(
        ["density", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a", "0.001", "--method", "ulam", "--bins", "1024",
         "--output", str(tmp_path / "never.csv")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(
        "acimlab: computation error: power iteration did not reach tol=1e-12 in 5 iterations"
    )
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "never.csv").exists()


@pytest.mark.parametrize(
    "config, args",
    [
        ({"s1": "abc"}, ["classify", "--s2", "3"]),
        ({"s1": True}, ["classify", "--s2", "3"]),
        ({"a_points": 3.0}, ["sweep", "--s1", "1.5", "--s2", "3", "--a-start", "0.01",
                             "--a-stop", "0.001", "--output", "x.csv"]),
        ({"method": "exact"}, ["density", "--s1", "2", "--s2", "2", "--a", "0",
                               "--output", "x.csv"]),
        ({"output": 3}, ["density", "--s1", "2", "--s2", "2", "--a", "0"]),
        ({"a_schedule": [0.01, "x"]}, ["sweep", "--s1", "3", "--s2", "3", "--output", "x.csv"]),
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, run_cli, config, args):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    result = run_cli(["--config", "cfg.json", *args], tmp_path)
    _rejected(result, f"invalid value for {next(iter(config))}")
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("output", ["missing/x.csv", "taken"])
def test_unwritable_output_exits_2(tmp_path, run_cli, output):
    (tmp_path / "taken").mkdir()
    result = run_cli([*DENSITY_EXAMPLE, "--output", output], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert output in result.stderr
    assert not list(tmp_path.rglob(".acimlab-*"))


def test_output_through_a_symlink_writes_its_target(tmp_path, run_cli):
    (tmp_path / "data").mkdir()
    target = tmp_path / "data" / "x.csv"
    target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    result = run_cli([*DENSITY_EXAMPLE, "--output", "link.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert link.is_symlink() and link.resolve() == target
    assert not list(tmp_path.rglob(".acimlab-*"))
    # the same call onto a plain file writes the same bytes
    link.unlink()
    assert run_cli([*DENSITY_EXAMPLE, "--output", "link.csv"], tmp_path).returncode == 0
    assert target.read_bytes() == link.read_bytes()


def test_output_onto_a_fifo_exits_2(tmp_path, run_cli):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    result = run_cli([*DENSITY_EXAMPLE, "--output", "pipe"], tmp_path)
    _rejected(result, "cannot write output pipe: not a regular file")
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert not list(tmp_path.rglob(".acimlab-*"))


RATIOS_GOLDEN = [
    "ratios", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
    "--a-start", "0.01", "--a-stop", "0.0001", "--a-points", "3",
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_ratios_golden(tmp_path, run_cli, fmt):
    name = f"ratios_fig_family_3pt.{fmt}"
    result = run_cli([*RATIOS_GOLDEN, "--format", fmt, "--output", name], tmp_path)
    assert result.returncode == 0, result.stderr
    golden = Path(__file__).parent / "goldens" / name
    assert (tmp_path / name).read_bytes() == golden.read_bytes()


def _config_run(tmp_path, run_cli, config, *flags):
    """The Markov density example with bins and grid alignment left to config."""
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    return run_cli(
        ["--config", "cfg.json", "density", "--s1", "2", "--s2", "2", "--a", "0",
         "--method", "ulam", *flags, "--output", "d.csv"],
        tmp_path,
    )


def test_config_entry_beats_flag_default(tmp_path, run_cli):
    result = _config_run(tmp_path, run_cli, {"bins": 2, "align_half": True})
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert json.loads(lines[1].removeprefix("# config: "))["bins"] == 2
    assert lines[3:] == ["0.0,0.5,1.5", "0.5,1.0,0.5"]


def test_explicit_flag_beats_config_entry(tmp_path, run_cli):
    result = _config_run(tmp_path, run_cli, {"bins": 1024}, "--bins", "2", "--align-half")
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "d.csv").read_text().splitlines()
    assert json.loads(lines[1].removeprefix("# config: "))["bins"] == 2
    assert len(lines) == 5


@pytest.mark.parametrize(
    "config, needle",
    [({"tial_tol": 1e-10}, "tial_tol"), ({"bins": 4096.0}, "bins"), ({"tail_tol": 0}, "tail_tol")],
)
def test_config_entry_is_applied_or_rejected(tmp_path, run_cli, config, needle):
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    result = run_cli(
        ["--config", "cfg.json", "density", "--s1", "1.5", "--s2", "3", "--p", "3",
         "--q", "2", "--r", "2", "--a", "0.01", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert needle in result.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["density", "--a", "0.3", "--output", "x.csv"],
        ["sweep", "--a-schedule", "0.3", "--output", "x.csv"],
        ["ratios", "--a-schedule", "0.3", "--output", "x.csv"],
    ],
)
def test_point_outside_structured_regime_exits_2(tmp_path, run_cli, args):
    # r*a*(s2 + q*a - 1) = 0.69 > 1/2: the lifted turning value misses branch 3
    family = ["--s1", "1.5", "--s2", "3", "--p", "1", "--q", "1", "--r", "1"]
    result = run_cli([args[0], *family, *args[1:]], tmp_path)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "falling branch" in result.stderr
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("slopes", [("nan", "3"), ("inf", "3"), ("3", "nan"), ("3", "inf")])
def test_classify_non_finite_slope_exits_2(tmp_path, run_cli, slopes):
    s1, s2 = slopes
    result = run_cli(["classify", "--s1", s1, "--s2", s2], tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert result.stderr == "acimlab: config error: classification requires finite s1 and s2\n"


@pytest.mark.parametrize(
    "flag, value", [("s1", "inf"), ("s2", "nan"), ("p", "inf"), ("r", "-inf"), ("a", "nan")]
)
def test_map_eval_non_finite_parameter_exits_2(tmp_path, run_cli, flag, value):
    params = {"s1": "2", "s2": "3", "p": "1", "q": "1", "r": "1", "a": "0.01", flag: value}
    args = [f"--{name}={v}" for name, v in params.items()]  # "=" keeps "-inf" a value
    result = run_cli(["map-eval", *args, "--x", "0.3"], tmp_path)
    assert result.returncode == 2, result.stderr
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert f"require finite {flag}" in result.stderr


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    # A huge --bins fails inside build_ulam's allocation. Simulate that rather
    # than allocate for real, which could get the test process killed; the
    # grid asked for is small, so a stub that is not reached allocates nothing.
    def exhaust(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr(acimlab.ulam, "build_ulam", exhaust)
    code = cli.main(
        ["density", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
         "--a", "0.01", "--method", "ulam", "--bins", "64",
         "--output", str(tmp_path / "never.csv")]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err == "acimlab: computation error: out of memory: Unable to allocate 745. GiB\n"


@pytest.mark.parametrize("ends", [("0.01", "0"), ("0", "0.01"), ("-0.01", "0.001")])
def test_log_schedule_needs_positive_ends(tmp_path, run_cli, ends):
    start, stop = ends
    result = run_cli(
        ["sweep", "--s1", "3", "--s2", "3", "--a-start", start, "--a-stop", stop,
         "--a-points", "3", "--output", "x.csv"],
        tmp_path,
    )
    assert result.returncode == 2, result.stderr
    assert result.stderr == (
        "acimlab: config error: a log-spaced schedule needs a_start > 0 and a_stop > 0\n"
    )
    assert not (tmp_path / "x.csv").exists()


SWEEP_III = ["sweep", "--s1", "3", "--s2", "3"]


@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize(
    "ends, needle",
    [(("inf", "0.001"), "a_start must be finite (got inf)"),
     (("0.01", "nan"), "a_stop must be finite (got nan)")],
)
def test_non_finite_schedule_end_exits_2(tmp_path, run_cli, spacing, ends, needle):
    start, stop = ends
    result = run_cli(
        [*SWEEP_III, "--a-start", start, "--a-stop", stop, "--a-points", "3",
         "--a-spacing", spacing, "--output", "x.csv"],
        tmp_path,
    )
    _rejected(result, needle)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "args, needle",
    [
        ([*SWEEP_III, "--a-start", "0.01", "--a-stop", "0.001", "--a-points", "0",
          "--output", "x.csv"], "a_points must be >= 1"),
        ([*SWEEP_III, "--a-start", "0.01", "--output", "x.csv"],
         "pass --a-schedule or all of --a-start/--a-stop/--a-points"),
        (["counterexample", "--n-max", "0", "--output", "x.csv"], "n_max must be >= 1"),
    ],
)
def test_bad_schedule_or_row_count_exits_2(tmp_path, run_cli, args, needle):
    _rejected(run_cli(args, tmp_path), needle)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize(
    "text, needle",
    [
        (None, "cannot read cfg.json: [Errno 2]"),
        ("{", "cannot read cfg.json: Expecting"),
        ('["s1", 1.5]', "top-level JSON object required"),
    ],
)
def test_unreadable_or_non_object_config_exits_2(tmp_path, run_cli, text, needle):
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
    args = ["--config", "cfg.json", "classify", "--s1", "1.5", "--s2", "3"]
    _rejected(run_cli(args, tmp_path), needle)


def test_map_eval_without_steps_prints_the_image(tmp_path, run_cli):
    point = ["map-eval", "--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2",
             "--a", "0.05", "--x", "0.5"]
    result = run_cli(point, tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert float(result.stdout) == pytest.approx(0.6, abs=1e-12)
    # the same image as the first step of the orbit
    assert result.stdout == run_cli([*point, "--steps", "1"], tmp_path).stdout.split("\n", 1)[1]


# x = x3, the third breakpoint, whose raw branch-3 image is -4.4e-16
MAP_EVAL_AT_X3 = [
    "map-eval", "--s1", "1.8489256569912653", "--s2", "1.8030185051513434",
    "--p", "2.0149396229530248", "--q", "2.0884272710618808", "--r", "1.0680986027784949",
    "--a", "0.007654460089050646", "--x", "0.7793702694280382",
]


@pytest.mark.parametrize("steps", [[], ["--steps", "2"]])
def test_map_eval_at_a_breakpoint_stays_in_the_unit_interval(tmp_path, run_cli, steps):
    result = run_cli([*MAP_EVAL_AT_X3, *steps], tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    values = [float(v) for v in result.stdout.split()]
    assert len(values) == (3 if steps else 1)
    assert all(0.0 <= v <= 1.0 for v in values)


@pytest.mark.parametrize("steps", [1, 2, 7, 200])
@pytest.mark.parametrize("x", ["0.3", "0.5", "0.7793702694280382"])
def test_map_eval_prints_the_orbit_iterate_gives(capsys, steps, x):
    assert cli.main([*MAP_EVAL_AT_X3[:-1], x, "--steps", str(steps)]) == 0
    params = [float(v) for v in MAP_EVAL_AT_X3[2:-2:2]]  # s1, s2, p, q, r, a
    orbit = build_w_map(WParams(*params)).iterate(float(x), steps)
    assert capsys.readouterr().out.splitlines() == [repr(v) for v in orbit]


@pytest.mark.parametrize("args, needle", [(["--steps", "-1"], "iteration count"),
                                          (["--x", "1.5", "--steps", "3"], "outside the map domain")])
def test_map_eval_orbit_checks_its_start(tmp_path, run_cli, args, needle):
    _rejected(run_cli([*MAP_EVAL_AT_X3, *args], tmp_path), needle)


# runs cli.main with stdout discarded and reports its exit code and peak RSS
RSS_PROBE = """
import os, resource, sys
import acimlab.cli as cli
sys.stdout = open(os.devnull, "w")
code = cli.main(sys.argv[1:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_map_eval_orbit_memory_does_not_grow_with_steps(tmp_path, cli_env):
    peaks = []
    for steps in (1, 300_000):
        result = subprocess.run(
            [sys.executable, "-c", RSS_PROBE, *MAP_EVAL_AT_X3, "--steps", str(steps)],
            cwd=tmp_path, env=cli_env, capture_output=True, text=True,
        )
        code, peak_kb = result.stderr.split()
        assert code == "0"
        peaks.append(int(peak_kb))
    # holding the orbit would take about 10 MB more
    assert peaks[1] - peaks[0] < 3 * 1024, peaks


@pytest.mark.parametrize(
    "config, args, entry",
    [
        (None, ["sweep", "--a-schedule", "0.01,abc"], "'abc'"),
        (None, ["ratios", "--a-schedule", "0.01,1e-3x"], "'1e-3x'"),
        ({"a_schedule": "0.01,abc"}, ["sweep"], "'abc'"),
    ],
)
def test_non_numeric_schedule_entry_exits_2(tmp_path, run_cli, config, args, entry):
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = ["--config", "cfg.json", *args]
    result = run_cli([*args, "--s1", "1.5", "--s2", "3", "--output", "x.csv"], tmp_path)
    _rejected(result, f"a_schedule: could not convert string to float: {entry}")
    assert not (tmp_path / "x.csv").exists()


def test_series_density_at_a_zero_is_h0(tmp_path, run_cli):
    result = run_cli(["density", "--s1", "2", "--s2", "2", "--a", "0", "--output", "h0.csv"], tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "h0.csv").read_text().splitlines()[2:] == [
        "cell_left,cell_right,value", "0.0,0.5,1.5", "0.5,1.0,0.5"
    ]


def test_generated_linear_schedule(tmp_path, run_cli):
    result = run_cli(
        [*SWEEP_III, "--a-start", "0.03", "--a-stop", "0.01", "--a-points", "3",
         "--a-spacing", "linear", "--output", "s.csv"],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    rows = (tmp_path / "s.csv").read_text().splitlines()[3:]
    assert [float(row.split(",")[0]) for row in rows] == pytest.approx([0.03, 0.02, 0.01], abs=1e-15)


def test_config_list_schedule_matches_the_flag(tmp_path, run_cli):
    (tmp_path / "cfg.json").write_text(json.dumps({"a_schedule": [0.05, 0.01]}))
    from_config = run_cli(["--config", "cfg.json", *SWEEP_III, "--output", "c.csv"], tmp_path)
    from_flag = run_cli([*SWEEP_III, "--a-schedule", "0.05,0.01", "--output", "f.csv"], tmp_path)
    assert from_config.returncode == 0, from_config.stderr
    assert from_flag.returncode == 0, from_flag.stderr
    rows = (tmp_path / "c.csv").read_text().splitlines()[2:]
    assert len(rows) == 3
    assert rows == (tmp_path / "f.csv").read_text().splitlines()[2:]


def test_config_null_and_other_subcommands_keys_are_ignored(tmp_path, run_cli):
    result = _config_run(tmp_path, run_cli, {"tail_tol": None, "n_max": 3}, "--bins", "2",
                         "--align-half")
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "d.csv").read_text().splitlines()
    resolved = json.loads(lines[1].removeprefix("# config: "))
    assert resolved["tail_tol"] == 1e-10  # null leaves the flag's default
    assert "n_max" not in resolved
    assert lines[3:] == ["0.0,0.5,1.5", "0.5,1.0,0.5"]


@pytest.mark.parametrize("command", [
    ["density", "--method", "ulam", "--bins", "1024", "--output", "u.csv"],
    ["sweep", "--a-schedule", "3e-8", "--output", "s.csv"],
], ids=["density", "sweep"])
def test_case_i_row_sum_floor_exits_3(tmp_path, run_cli, command):
    # case I at a = 3e-8: bins too few float64 spacings wide to be row-stochastic
    family = ["--s1", "1.5", "--s2", "2", "--p", "1", "--q", "1", "--r", "1"]
    a = ["--a", "3e-8"] if command[0] == "density" else []
    result = run_cli([command[0], *family, *a, *command[1:]], tmp_path)
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    assert "not row-stochastic" in result.stderr and "float64 spacings" in result.stderr
