"""What each entry point imports: a CLI call loads only the layers its
subcommand computes with, and the package resolves its public names lazily."""

import json
import subprocess
import sys

import pytest

import acimlab
import acimlab.density

# Runs ``cli.main`` on the arguments (none: import only) and reports which of
# the heavy dependencies the process has loaded by then.
PROBE = """
import json, sys
import acimlab.cli as cli
code = cli.main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = {name.partition(".")[0] for name in sys.modules}
print(json.dumps({"code": code, "numpy": "numpy" in loaded, "scipy": "scipy" in loaded,
                  "sparse_linalg": "scipy.sparse.linalg" in sys.modules}))
"""

FIG = ["--s1", "1.5", "--s2", "3", "--p", "3", "--q", "2", "--r", "2"]
CASE_III = ["--s1", "3", "--s2", "3", "--p", "1", "--q", "1", "--r", "1"]


@pytest.fixture
def loaded_after(tmp_path, cli_env):
    def run(args):
        result = subprocess.run(
            [sys.executable, "-c", PROBE, *args],
            cwd=tmp_path,
            env=cli_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        report = json.loads(result.stdout.splitlines()[-1])
        assert report["code"] == 0, result.stderr
        return report

    return run


def test_cli_import_loads_neither_numpy_nor_scipy(loaded_after):
    report = loaded_after([])
    assert not report["numpy"]
    assert not report["scipy"]


@pytest.mark.parametrize(
    "args",
    [
        ["classify", "--s1", "1.5", "--s2", "3"],
        ["map-eval", *FIG, "--a", "0.01", "--x", "0.3", "--steps", "4"],
    ],
    ids=["classify", "map-eval"],
)
def test_classify_and_map_eval_leave_numpy_unloaded(loaded_after, args):
    report = loaded_after(args)
    assert not report["numpy"]
    assert not report["scipy"]


@pytest.mark.parametrize(
    "args",
    [
        ["density", *FIG, "--a", "0.01", "--output", "d.csv"],
        ["sweep", *CASE_III, "--a-schedule", "0.01,0.001", "--output", "s.csv"],
    ],
    ids=["series-density", "case-iii-sweep"],
)
def test_series_commands_leave_scipy_unloaded(loaded_after, args):
    report = loaded_after(args)
    assert report["numpy"]
    assert not report["scipy"]


@pytest.mark.parametrize(
    "params, bins",
    [
        ([*FIG, "--a", "0.01"], "64"),
        ([*FIG, "--a", "0.01"], "2048"),
        # slopes 1.05 and 30: rows of more than 16 entries, three or more in one column
        (["--s1", "1.05", "--s2", "30", "--a", "0.001"], "64"),
    ],
    ids=["64", "2048", "steep-64"],
)
@pytest.mark.parametrize("method", ["ulam", "both"])
def test_small_grid_ulam_density_leaves_scipy_unloaded(loaded_after, method, params, bins):
    # up to NUMPY_MAX_BINS bins numpy assembles and solves every Ulam matrix
    report = loaded_after(["density", *params, "--method", method,
                           "--bins", bins, "--output", "u.csv"])
    assert report["numpy"]
    assert not report["scipy"]


def test_ritz_restarts_leave_sparse_linalg_unloaded(loaded_after):
    # the probe's control: past NUMPY_MAX_BINS bins the Ulam route loads
    # scipy's CSR matrix.  A slowly mixing case-II chain reaches the Ritz
    # restarts, which use numpy only: scipy.sparse.linalg (ARPACK) costs
    # start-up time and memory
    report = loaded_after(["density", *FIG, "--a", "0.001", "--method", "ulam",
                           "--bins", "4096", "--output", "u.csv"])
    assert report["scipy"]
    assert not report["sparse_linalg"]


def test_public_names_resolve_to_their_home_objects():
    for name in acimlab.__all__:
        if name == "__version__":
            continue
        obj = getattr(acimlab, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert set(acimlab.__all__) <= set(dir(acimlab))


def test_public_names_are_not_cached(monkeypatch):
    def replacement(f):
        return f

    monkeypatch.setattr(acimlab.density, "normalize", replacement)
    assert acimlab.normalize is replacement


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        acimlab.no_such_name  # noqa: B018
    assert not hasattr(acimlab, "no_such_name")


def test_star_import():
    namespace = {}
    exec("from acimlab import *", namespace)
    assert set(acimlab.__all__) <= set(namespace)
    assert namespace["solve_series"] is acimlab.density.solve_series
