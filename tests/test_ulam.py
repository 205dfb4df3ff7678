"""Ulam discretization, stationary vectors, Wasserstein distance, limits."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import acimlab.ulam as ulam_module
from acimlab.density import (
    PiecewiseConstantDensity,
    h0,
    l1_distance,
    normalize,
    refine_pair,
)
from acimlab.errors import ComputationError, ParameterError
from acimlab.ulam import (
    MeasureRepr,
    build_ulam,
    limit_measure,
    point_mass,
    stationary_density,
    wasserstein1,
)
from acimlab.wmap import PiecewiseLinearMap, WParams, build_w_map, restricted_turning_map
from conftest import draw_any_case, draw_case_i, draw_case_ii, draw_case_iii


def w0_map(s1, s2):
    return build_w_map(WParams(s1, s2, 1.0, 1.0, 1.0, 0.0))


def test_row_stochastic_two_bins():
    ulam = build_ulam(w0_map(2.0, 2.0), 2)
    sums = np.asarray(ulam.matrix.sum(axis=1)).ravel()
    assert sums == pytest.approx([1.0, 1.0], abs=1e-12)


def test_row_stochastic_random(rng):
    for _ in range(25):
        params = draw_any_case(rng)
        n = int(rng.integers(2, 600))
        ulam = build_ulam(build_w_map(params), n)
        sums = np.asarray(ulam.matrix.sum(axis=1)).ravel()
        assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_four_bin_entries_dyadic():
    # hand-computed transition fractions for the symmetric unperturbed map:
    # outer branches spread uniformly, inner branches fill the left half
    expected = np.array(
        [
            [0.25, 0.25, 0.25, 0.25],
            [0.50, 0.50, 0.00, 0.00],
            [0.50, 0.50, 0.00, 0.00],
            [0.25, 0.25, 0.25, 0.25],
        ]
    )
    ulam = build_ulam(w0_map(2.0, 2.0), 4)
    assert np.max(np.abs(ulam.matrix.toarray() - expected)) < 1e-15


@pytest.mark.parametrize("bins", [2, 2**10])
def test_markov_exactness(bins):
    for s1, s2 in ((2.0, 2.0), (1.5, 3.0)):
        ulam = build_ulam(w0_map(s1, s2), bins, align_half=True)
        dens = stationary_density(ulam)
        _, dv, hv = refine_pair(dens, h0(s1, s2))
        assert np.max(np.abs(dv - hv)) < 1e-10


def test_align_half_odd_bins():
    ulam = build_ulam(w0_map(2.0, 2.0), 5, align_half=True)
    assert 0.5 in ulam.edges


def test_tent_map_uniform_density():
    tent = PiecewiseLinearMap(
        breakpoints=(0.0, 0.5, 1.0), slopes=(2.0, -2.0), intercepts=(0.0, 2.0)
    )
    dens = stationary_density(build_ulam(tent, 2**8))
    assert np.max(np.abs(dens.values - 1.0)) < 1e-10


def test_build_ulam_requires_bins():
    with pytest.raises(ParameterError):
        build_ulam(w0_map(2.0, 2.0), 1)


@st.composite
def ulam_grids(draw):
    """Edges of build_ulam's grids: uniform or odd half-aligned, on [0, 1],
    off it, and on the case-I restricted domain."""
    n_bins = draw(st.integers(2, 5000))
    domain = draw(st.sampled_from([(0.0, 1.0), (-0.3, 1.7), restricted_turning_map(PERIODIC_CASE_I).domain]))
    if draw(st.booleans()):
        return ulam_module._grid(*domain, 2 * (n_bins // 2) + 1, align_half=True)
    return ulam_module._grid(*domain, n_bins, align_half=False)


@st.composite
def grid_points(draw, edges):
    """Points on edges, one ulp either side of an edge, inside and outside the grid."""
    lo, hi = edges[0], edges[-1]
    span = hi - lo
    points = []
    for _ in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(["edge", "below edge", "above edge", "inside", "outside"]))
        if kind == "inside":
            points.append(lo + span * draw(st.floats(0.0, 1.0)))
        elif kind == "outside":
            far = draw(st.sampled_from([lo - span, hi + span, -np.inf, np.inf]))
            points.append(far + draw(st.sampled_from([0.0, 1e-300, -1e-300])))
        else:
            edge = edges[draw(st.integers(0, edges.size - 1))]
            step = {"edge": None, "below edge": -np.inf, "above edge": np.inf}[kind]
            points.append(edge if step is None else np.nextafter(edge, step))
    return np.array(points)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_bin_lookup_matches_a_binary_search(data):
    edges = data.draw(ulam_grids())
    x = data.draw(grid_points(edges))
    n_bins = edges.size - 1
    expected = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, n_bins - 1)
    assert np.array_equal(ulam_module._bin_of(edges, x), expected)


@pytest.mark.parametrize(
    "family, a, bound",
    [
        ((1.5, 3.0, 3.0, 2.0, 2.0), 0.05, 0.01),
        ((1.5, 3.0, 3.0, 2.0, 2.0), 0.01, 0.01),
        ((2.0, 2.0, 1.0, 1.0, 1.0), 0.05, 0.01),
        # near-metastable point: the second Ulam eigenvalue sits close to 1,
        # so grid doubling at 2^12 is not yet in the asymptotic regime
        ((2.0, 2.0, 1.0, 1.0, 1.0), 0.01, 0.04),
        ((4.0, 4.0, 1.0, 1.0, 1.0), 0.05, 0.01),
        ((4.0, 4.0, 1.0, 1.0, 1.0), 0.01, 0.01),
    ],
)
def test_grid_refinement_consistency(family, a, bound):
    params = WParams(*family, a)
    w = build_w_map(params)
    coarse = stationary_density(build_ulam(w, 2**12))
    fine = stationary_density(build_ulam(w, 2**14))
    assert l1_distance(coarse, fine) < bound


# ---------------------------------------------------------------------------
# stationary vectors: power iteration with Ritz restarts

# a case-I restricted map whose Ulam chain is periodic: plain power iteration
# oscillates with a step stuck near 0.06 and never converges
PERIODIC_CASE_I = WParams(1.883, 1.214, 1.605, 1.036, 1.886, 0.0053)


def direct_stationary_mass(ulam):
    """Stationary mass vector by a sparse direct solve of m (P - I) = 0 with
    the first equation replaced by sum(m) = 1."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    system = (ulam.matrix.T - sp.identity(ulam.n_bins)).tolil()
    system[0, :] = 1.0
    rhs = np.zeros(ulam.n_bins)
    rhs[0] = 1.0
    return spsolve(system.tocsc(), rhs)


def on_unit_interval(ulam, mass):
    dens = PiecewiseConstantDensity(ulam.edges, mass / np.diff(ulam.edges))
    return dens.embedded()


def plain_power_iteration(ulam, tol=1e-12, max_iters=100_000):
    """The reference loop: left power iteration from uniform mass, no restarts."""
    transposed = ulam.matrix.T.tocsr()
    mass = np.full(ulam.n_bins, 1.0 / ulam.n_bins)
    for _ in range(max_iters):
        new = transposed @ mass
        new /= new.sum()
        residual = float(np.abs(new - mass).sum())
        mass = new
        if residual < tol:
            return mass / np.diff(ulam.edges)
    raise AssertionError("reference power iteration did not converge")


def test_periodic_case_i_chain_converges():
    ulam = build_ulam(restricted_turning_map(PERIODIC_CASE_I), 4096)
    start = time.perf_counter()
    dens = stationary_density(ulam)
    assert time.perf_counter() - start < 1.0
    reference = on_unit_interval(ulam, direct_stationary_mass(ulam))
    assert l1_distance(dens, reference) < 1e-10


def test_period_two_chain_with_transient_bin():
    # bin 0 -> bins 1, 2 evenly; bins 1, 2 and 3 -> bin 0: period two, and
    # bin 3 is transient, so the stationary mass is (1/2, 1/4, 1/4, 0)
    shuttle = PiecewiseLinearMap(
        breakpoints=(0.0, 0.25, 0.5, 0.75, 1.0),
        slopes=(2.0, 1.0, 1.0, 1.0),
        intercepts=(0.25, -0.25, -0.5, -0.75),
    )
    dens = stationary_density(build_ulam(shuttle, 4))
    assert np.max(np.abs(dens.values - [2.0, 1.0, 1.0, 0.0])) < 1e-12


@pytest.mark.parametrize(
    "proposal",
    [np.ones, lambda n: np.full(n, np.nan), np.zeros],
    ids=["uniform", "nan", "zero"],
)
def test_rejected_ritz_proposals_leave_plain_power_iteration(monkeypatch, proposal):
    # about 2100 plain steps, so some twenty restarts are proposed and refused
    ulam = build_ulam(build_w_map(WParams(1.5, 3.0, 3.0, 2.0, 2.0, 1e-3)), 1024)
    proposals = []

    def bad_ritz_vector(left_product, start):
        proposals.append(start.size)
        return proposal(start.size)

    monkeypatch.setattr(ulam_module, "_ritz_vector", bad_ritz_vector)
    dens = stationary_density(ulam)
    assert len(proposals) > 10
    assert np.array_equal(dens.breakpoints, ulam.edges)
    assert np.array_equal(dens.values, plain_power_iteration(ulam))


def test_ritz_vector_sign_is_immaterial(monkeypatch):
    # an eigenvector's sign is arbitrary; the restart orients it by its sum
    ulam = build_ulam(build_w_map(WParams(1.5, 3.0, 3.0, 2.0, 2.0, 1e-3)), 1024)
    expected = stationary_density(ulam)
    ritz_vector = ulam_module._ritz_vector
    monkeypatch.setattr(ulam_module, "_ritz_vector", lambda t, s: -ritz_vector(t, s))
    assert np.array_equal(stationary_density(ulam).values, expected.values)


def test_restarts_only_after_ritz_every_steps(monkeypatch):
    # a chain that converges within RITZ_EVERY steps never proposes a restart,
    # so it gets today's plain power iteration bit for bit
    ulam = build_ulam(w0_map(1.5, 3.0), 1023, align_half=True)
    def no_restart(left_product, start):
        pytest.fail("a restart was proposed before RITZ_EVERY steps")

    monkeypatch.setattr(ulam_module, "_ritz_vector", no_restart)
    dens = stationary_density(ulam)
    assert np.array_equal(dens.values, plain_power_iteration(ulam))


@settings(max_examples=40, deadline=None)
@given(
    draw=st.sampled_from([draw_case_i, draw_case_ii, draw_case_iii]),
    seed=st.integers(0, 2**32 - 1),
    log_bins=st.integers(6, 10),
)
def test_stationary_density_matches_direct_solve(draw, seed, log_bins):
    params = draw(np.random.default_rng(seed))
    ulam = build_ulam(build_w_map(params), 2**log_bins)
    dens = stationary_density(ulam)
    reference = on_unit_interval(ulam, direct_stationary_mass(ulam))
    assert l1_distance(dens, reference) < 1e-9
    mass = dens.values * np.diff(dens.breakpoints)
    step = ulam.matrix.T @ mass
    assert np.abs(step / step.sum() - mass).sum() < ulam_module.POWER_TOL


def test_stationary_density_reports_non_convergence(monkeypatch):
    # the slow case-II chain needs about 100 steps even with restarts
    ulam = build_ulam(build_w_map(WParams(1.5, 3.0, 3.0, 2.0, 2.0, 1e-3)), 1024)
    monkeypatch.setattr(ulam_module, "MAX_POWER_STEPS", 5)
    with pytest.raises(ComputationError, match="did not reach tol=1e-12 in 5 iterations"):
        stationary_density(ulam)


# ---------------------------------------------------------------------------
# Wasserstein distance


def uniform_measure():
    return MeasureRepr(
        density=PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([1.0]))
    )


def test_wasserstein_identity():
    mu = uniform_measure()
    assert wasserstein1(mu, mu) == 0.0
    assert wasserstein1(point_mass(0.3), point_mass(0.3)) == 0.0


def test_wasserstein_between_atoms():
    for t in (0.1, 0.25, 0.4):
        d = wasserstein1(point_mass(0.5), point_mass(0.5 + t))
        assert d == pytest.approx(t, abs=1e-15)


def test_wasserstein_uniform_vs_atom():
    assert wasserstein1(uniform_measure(), point_mass(0.5)) == pytest.approx(0.25)


def test_wasserstein_rejects_unnormalized():
    bad = MeasureRepr(
        density=PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([0.7]))
    )
    with pytest.raises(ParameterError, match="mass"):
        wasserstein1(bad, point_mass(0.5))


def test_wasserstein_rejects_nan_mass():
    nan = float("nan")
    nan_density = PiecewiseConstantDensity._trusted(np.array([0.0, 1.0]), np.array([nan]))
    for bad in (MeasureRepr(density=nan_density), MeasureRepr(atoms=((0.5, nan),))):
        with pytest.raises(ParameterError, match="mass nan"):
            wasserstein1(uniform_measure(), bad)


@pytest.mark.parametrize(
    "rates, fragment",
    [
        ((3.0, 2.0, -2.0), "r > 0"),
        ((3.0, 2.0, float("nan")), "finite r"),
        ((0.0, 2.0, 2.0), "p > 0"),
        ((3.0, float("inf"), 2.0), "finite q"),
        ((3.0, -1.0, 2.0), "q > 0"),
    ],
)
def test_limit_measure_rejects_invalid_rates(rates, fragment):
    # r = -2 used to give an atom of weight 2.84 and negative density values
    with pytest.raises(ParameterError, match=fragment):
        limit_measure(1.5, 3.0, *rates)


def test_wasserstein_rejects_measures_that_leave_the_unit_interval():
    # each has mass 1, so only the rules on atoms and densities reject it
    on_1_2 = PiecewiseConstantDensity(np.array([1.0, 2.0]), np.array([1.0]))
    signed = PiecewiseConstantDensity(np.array([0.0, 0.5, 1.0]), np.array([3.0, -1.0]))
    # mass 1, but an atom of weight above 1 and a negative density part
    limit = MeasureRepr(density=h0(1.5, 3.0).scale(-1.84), atoms=((0.5, 2.84),))
    assert limit.total_mass() == pytest.approx(1.0, abs=1e-12) and limit.atoms[0][1] > 1.0
    bad = [
        point_mass(1.5),
        point_mass(-3.0),
        point_mass(float("nan")),
        MeasureRepr(atoms=((0.2, 1.5), (0.4, -0.5))),
        MeasureRepr(density=on_1_2),
        MeasureRepr(density=signed),
        limit,
    ]
    for m in bad:
        for pair in ((m, point_mass(0.5)), (point_mass(0.5), m)):
            with pytest.raises(ParameterError, match="wasserstein1 requires"):
                wasserstein1(*pair)


def test_distances_treat_a_density_as_zero_outside_its_breakpoints():
    # the uniform density against 2 on [1/4, 3/4]: exact L1 1, exact W1 1/8
    uniform = PiecewiseConstantDensity(np.array([0.0, 1.0]), np.array([1.0]))
    bump = PiecewiseConstantDensity(np.array([0.25, 0.75]), np.array([2.0]))
    assert l1_distance(uniform, bump) == l1_distance(bump, uniform) == 1.0
    mu, nu = MeasureRepr(density=uniform), MeasureRepr(density=bump)
    assert wasserstein1(mu, nu) == wasserstein1(nu, mu) == 0.125


def random_measure(rng):
    kind = rng.integers(0, 3)
    if kind == 0:
        return point_mass(float(rng.uniform(0, 1)))
    edges = np.sort(rng.uniform(0, 1, 3))
    bp = np.unique(np.concatenate(([0.0], edges, [1.0])))
    vals = rng.uniform(0.1, 2.0, bp.size - 1)
    dens = PiecewiseConstantDensity(bp, vals)
    if kind == 1:
        return MeasureRepr(density=normalize(dens))
    atom_w = float(rng.uniform(0.1, 0.7))
    scaled = normalize(dens).scale(1.0 - atom_w)
    return MeasureRepr(density=scaled, atoms=((float(rng.uniform(0, 1)), atom_w),))


def test_wasserstein_metric_properties(rng):
    for _ in range(60):
        mu, nu, rho = (random_measure(rng) for _ in range(3))
        d_mn = wasserstein1(mu, nu)
        assert d_mn == pytest.approx(wasserstein1(nu, mu), abs=1e-12)
        assert d_mn >= 0
        assert d_mn <= wasserstein1(mu, rho) + wasserstein1(rho, nu) + 1e-12


# ---------------------------------------------------------------------------
# limit measures


def test_limit_measure_example_weights():
    for r in (1.0, 2.0, 5.0):
        lim = limit_measure(2.0, 2.0, 1.0, 1.0, r)
        assert lim.atoms == ((0.5, 2 * r / (1 + 2 * r)),)
        assert lim.density.integral() == pytest.approx(1 / (1 + 2 * r), abs=1e-15)
        assert abs(lim.total_mass() - 1.0) < 1e-15


def test_limit_measure_fig_family():
    lim = limit_measure(1.5, 3.0, 3.0, 2.0, 2.0)
    assert lim.atoms[0][1] == pytest.approx(54 / 89, abs=1e-15)
    assert lim.density.integral() == pytest.approx(35 / 89, abs=1e-14)


def test_limit_measure_case_i_and_iii():
    atom = limit_measure(4 / 3, 5 / 2, 3.0, 2.0, 2.0)
    assert atom.density is None and atom.atoms == ((0.5, 1.0),)
    ac = limit_measure(4.0, 4.0, 1.0, 1.0, 1.0)
    assert ac.atoms == () and ac.density.integral() == pytest.approx(1.0, abs=1e-12)
