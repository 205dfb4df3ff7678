"""The Ulam route's two engines, and the order in which numpy's engine adds.

Grids of at most ``NUMPY_MAX_BINS`` bins are assembled and solved with numpy
alone, larger ones with scipy's CSR matrix.  numpy's assembly keeps its own
order: a stable sort by row and column, each run of duplicates added left to
right in input order.  The tests here check it against a plain-Python
reference on random matrices, long rows included, and against scipy's
COO-to-CSR conversion wherever scipy's row sort is stable too.  On the maps'
own grids the two engines give equal bytes: the CSR arrays, the row sums and
rescaling against scipy's ``sum(axis=1)``, the mat-vec ``m -> mP`` against
scipy's CSR mat-vec with the transpose, and the stationary densities of
whole chains, restarting and periodic ones included.  The engine is forced
either way by setting ``NUMPY_MAX_BINS``.
"""

import sys

import numpy as np
import pytest
import scipy.sparse as sp

import acimlab.ulam as ulam_module
from acimlab.errors import ComputationError
from acimlab.experiments import Family, sweep
from acimlab.ulam import _csr_arrays, _grid, _left_product, _segments, build_ulam, stationary_density
from acimlab.wmap import WParams, build_w_map, restricted_turning_map
from conftest import draw_case_i, draw_case_ii, draw_case_iii

ENGINES = {"numpy": 10**9, "scipy": 1}  # NUMPY_MAX_BINS that forces each engine
MAPS = {
    "case-I": restricted_turning_map(WParams(1.5, 2.0, 1.0, 1.0, 1.0, 5e-3)),
    "case-II": build_w_map(WParams(1.5, 3.0, 3.0, 2.0, 2.0, 1e-3)),
    "case-III": build_w_map(WParams(2.5, 4.0, 1.0, 1.0, 1.0, 1e-2)),
    "a=0": build_w_map(WParams(1.5, 3.0, 1.0, 1.0, 1.0, 0.0)),
}
PERIODIC_CASE_I = WParams(1.883, 1.214, 1.605, 1.036, 1.886, 0.0053)


def scipy_ulam(pl_map, n_bins, align_half=False):
    """build_ulam written with scipy's own assembly and row sums."""
    edges = _grid(*pl_map.domain, n_bins, align_half)
    rows, cols, vals = _segments(pl_map, edges)
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n_bins, n_bins)).tocsr()
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    matrix.data *= np.repeat(1.0 / row_sums, np.diff(matrix.indptr))
    return matrix


def engine_ulam(monkeypatch, engine, pl_map, n_bins, align_half=False):
    monkeypatch.setattr(ulam_module, "NUMPY_MAX_BINS", ENGINES[engine])
    return build_ulam(pl_map, n_bins, align_half=align_half)


def assert_same_arrays(got, want):
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def assert_engines_agree(monkeypatch, pl_map, n_bins, align_half=False, chain=True):
    reference = scipy_ulam(pl_map, n_bins, align_half)
    x = np.random.default_rng(n_bins).uniform(0.0, 1.0, n_bins)
    expected_product = (reference.T.tocsr() @ x).tobytes()
    densities = []
    for engine in ENGINES:
        ulam = engine_ulam(monkeypatch, engine, pl_map, n_bins, align_half)
        assert_same_arrays(ulam, reference)
        assert _left_product(ulam)(x).tobytes() == expected_product, engine
        if chain:
            dens = stationary_density(ulam)
            densities.append(dens.breakpoints.tobytes() + dens.values.tobytes())
    assert len(set(densities)) <= 1


@pytest.mark.parametrize("align_half", [False, True], ids=["uniform", "half-aligned"])
@pytest.mark.parametrize("n_bins", [2, 3, 7, 64, 1024, 2048, 2049])
@pytest.mark.parametrize("label", list(MAPS))
def test_engines_agree_on_grids(monkeypatch, label, n_bins, align_half):
    assert_engines_agree(monkeypatch, MAPS[label], n_bins, align_half)


@pytest.mark.parametrize("draw", [draw_case_i, draw_case_ii, draw_case_iii])
def test_engines_agree_on_seeded_draws(monkeypatch, draw):
    rng = np.random.default_rng(2049)
    for _ in range(70):
        params = draw(rng)
        pl_map = restricted_turning_map(params) if draw is draw_case_i else build_w_map(params)
        n_bins = int(rng.integers(2, 2050))
        assert_engines_agree(monkeypatch, pl_map, n_bins, bool(rng.integers(2)), chain=False)


@pytest.mark.parametrize(
    "pl_map, n_bins",
    [(MAPS["case-II"], 1025), (restricted_turning_map(PERIODIC_CASE_I), 4096)],
    ids=["restarting-101-steps", "periodic-case-I"],
)
def test_engines_agree_on_restarting_chains(monkeypatch, pl_map, n_bins):
    restarts = []
    ritz_vector = ulam_module._ritz_vector
    monkeypatch.setattr(
        ulam_module, "_ritz_vector", lambda *args: restarts.append(1) or ritz_vector(*args)
    )
    assert_engines_agree(monkeypatch, pl_map, n_bins)
    assert len(restarts) == 2  # one restart per engine


def reference_csr(rows, cols, vals, n):
    """CSR arrays with each (row, column)'s entries added left to right in
    input order, from its first: numpy's promised order, in plain Python."""
    sums = {}
    for key, value in zip(zip(rows.tolist(), cols.tolist()), vals.tolist()):
        sums[key] = sums[key] + value if key in sums else value
    keys = sorted(sums)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount([row for row, _ in keys], minlength=n), out=indptr[1:])
    indices = np.array([col for _, col in keys], dtype=np.int32)
    return sp.csr_matrix((np.array([sums[key] for key in keys]), indices, indptr), shape=(n, n))


def scipy_sorts_stably(rows, cols):
    """Whether every row has at most 16 entries, scipy's insertion-sort
    limit, or at most two entries in any one column, whose sum no order
    changes."""
    for row in np.unique(rows):
        in_row = cols[rows == row]
        if in_row.size > 16 and np.bincount(in_row).max() > 2:
            return False
    return True


def numpy_csr(rows, cols, vals, n):
    return sp.csr_matrix(_csr_arrays(rows, cols, vals, n), shape=(n, n))


def random_matrices():
    """300 seeded COO matrices with few columns and many entries per row:
    long runs of duplicates, many in rows past 16 entries."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        size = int(rng.integers(1, 300))
        rows = rng.integers(0, n, size).astype(np.int32)
        cols = rng.integers(0, min(n, int(rng.integers(1, 6))), size).astype(np.int32)
        vals = rng.uniform(0.0, 1.0, size) * 10.0 ** rng.integers(-8, 1, size)
        yield rows, cols, vals, n


def test_numpy_assembly_keeps_its_order_on_random_matrices():
    for rows, cols, vals, n in random_matrices():
        assert_same_arrays(numpy_csr(rows, cols, vals, n), reference_csr(rows, cols, vals, n))


def test_numpy_assembly_matches_scipy_on_random_matrices():
    stable = 0
    for rows, cols, vals, n in random_matrices():
        if scipy_sorts_stably(rows, cols):
            stable += 1
            want = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
            assert_same_arrays(numpy_csr(rows, cols, vals, n), want)
    assert 100 < stable < 300  # 202: scipy adds 67 of the other 98 in another order


@pytest.mark.parametrize("length", [16, 17, 40])
def test_long_rows_keep_numpys_order_without_scipy(monkeypatch, length):
    # one row of `length` entries in 4 columns, three or more in one: scipy's
    # row sort is stable up to 16 entries only, numpy's at any length, and
    # assembling such a row on a small grid needs no scipy
    rng = np.random.default_rng(length)
    for _ in range(50):
        cols = rng.integers(0, 4, length).astype(np.int32)
        rows = np.zeros(length, dtype=np.int32)
        vals = rng.uniform(0.0, 1.0, length) * 10.0 ** rng.integers(-8, 1, length)
        assert np.bincount(cols).max() >= 3
        want = reference_csr(rows, cols, vals, 4)
        if length <= 16:
            assert_same_arrays(want, sp.coo_matrix((vals, (rows, cols)), shape=(4, 4)).tocsr())
        with monkeypatch.context() as blocked:
            blocked.setitem(sys.modules, "scipy.sparse", None)  # importing it raises
            got = numpy_csr(rows, cols, vals, 4)
        assert_same_arrays(got, want)


def test_matrix_property_shares_the_arrays():
    ulam = build_ulam(MAPS["case-III"], 64)
    matrix = ulam.matrix
    assert matrix.shape == (64, 64)
    for name in ("data", "indices", "indptr"):
        assert np.shares_memory(getattr(matrix, name), getattr(ulam, name)), name


@pytest.mark.parametrize("n_bins", [1024, 4096])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_case_i_row_sum_floor_is_reported_on_both_engines(monkeypatch, engine, n_bins):
    # at a = 3e-8 the bins on [x_l, x_r] are 1e-10 wide or less, under 1e6
    # float64 spacings of the grid near 1/2, so the rounded edges spread the
    # bin widths by about 1e-6 relative: rows miss 1 by more than the guard's
    # 1e-9, and the point is rejected with the reason, not rescaled
    monkeypatch.setattr(ulam_module, "NUMPY_MAX_BINS", ENGINES[engine])
    family = Family(1.5, 2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ComputationError, match="float64 spacings") as info:
        build_ulam(restricted_turning_map(family.at(3e-8)), n_bins)
    assert 1e-9 < abs(info.value.worst_row_sum - 1.0) < 1e-4
    (record,) = sweep(family, [3e-8], bins=n_bins)
    assert record.error == str(info.value)
    assert record.d_to_limit is None
