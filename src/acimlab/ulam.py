"""Ulam discretization of the transfer operator, and measure utilities.

The Ulam matrix entry (i, j) is the fraction of bin i that lands in bin j
under one application of the map.  For a piecewise-linear map this is exact
interval algebra: each branch is cut at bin edges and at preimages of bin
edges, so every elementary segment maps into exactly one target bin.  No
sampling is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .density import PiecewiseConstantDensity, _case_ii_sums, _distinct, _dot, h0
from .errors import ComputationError, ParameterError
from .wmap import PiecewiseLinearMap, WParams, classify_case

if TYPE_CHECKING:
    import scipy.sparse as sp

MASS_TOL = 1e-12
POWER_TOL = 1e-12  # L1 step length at which power iteration has converged
MAX_POWER_STEPS = 1_000_000
RITZ_EVERY = 100  # unconverged power steps between Ritz restarts
KRYLOV_DIM = 10  # Arnoldi basis size of one restart
ARNOLDI_BREAKDOWN = 1e-14  # residual norm below which the Krylov space is invariant
# Grids up to this many bins are assembled and solved with numpy alone, larger
# ones with scipy's CSR matrix.  numpy's solve takes up to 1.5x scipy's there,
# far less than the 150-250 ms that importing scipy costs a CLI call; past
# 2048 bins the ratio keeps growing.
NUMPY_MAX_BINS = 2048


@dataclass(frozen=True)
class UlamMatrix:
    """Row-stochastic transition matrix over a bin grid, held as the arrays of
    a CSR matrix: row i has the entries data[indptr[i]:indptr[i + 1]] in the
    columns indices[indptr[i]:indptr[i + 1]], sorted and each once."""

    edges: np.ndarray
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.edges.size - 1

    @property
    def matrix(self) -> sp.csr_matrix:
        """The matrix as a scipy CSR matrix on the same arrays."""
        import scipy.sparse as sp

        n = self.n_bins
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(n, n))


def build_ulam(
    pl_map: PiecewiseLinearMap, n_bins: int, align_half: bool = False
) -> UlamMatrix:
    """Exact Ulam matrix of a piecewise-linear map on n_bins uniform bins.

    With align_half the grid is snapped so that 1/2 is a bin edge (a no-op
    for even n_bins); this makes the discretization exact for maps whose
    invariant density only jumps at 1/2.
    """
    if n_bins < 2:
        raise ParameterError("build_ulam requires n_bins >= 2")
    edges = _grid(*pl_map.domain, n_bins, align_half)
    data, indices, indptr = _csr_arrays(*_segments(pl_map, edges), n_bins)
    # scipy's sum(axis=1) of a CSR matrix, whose rows here are never empty
    row_sums = np.add.reduceat(data, indptr[:-1])
    worst = float(row_sums[np.argmax(np.abs(row_sums - 1.0))])
    if abs(worst - 1.0) > 1e-9:
        # bins only some float64 spacings wide: rounding the edges spreads their widths
        width = float(np.diff(edges).min())
        spacing = float(np.spacing(np.abs(edges).max()))
        raise ComputationError(
            f"Ulam matrix is not row-stochastic (a row sums to {worst!r}): its bins are "
            f"{width:.2e} wide, only {width / spacing:.2e} float64 spacings ({spacing:.1e}) "
            "at the grid",
            worst_row_sum=worst,
        )
    # the exact row sums are 1; rescaling removes the accumulated rounding
    data *= np.repeat(1.0 / row_sums, np.diff(indptr))
    return UlamMatrix(edges=edges, data=data, indices=indices, indptr=indptr)


def _segments(
    pl_map: PiecewiseLinearMap, edges: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The elementary segments of the map on the grid, branch by branch: the
    source bin, target bin and fraction of the source bin of each."""
    rows, cols, vals = [], [], []
    widths = np.diff(edges)
    ends = pl_map.breakpoints
    for d0, d1, slope, intercept in zip(ends[:-1], ends[1:], pl_map.slopes, pl_map.intercepts):
        y0, y1 = slope * d0 + intercept, slope * d1 + intercept
        # the edges strictly inside the branch's image and strictly inside its domain
        inner = edges[edges.searchsorted(min(y0, y1), side="right") : edges.searchsorted(max(y0, y1))]
        within = edges[edges.searchsorted(d0, side="right") : edges.searchsorted(d1)]
        preimages = (inner - intercept) / slope
        cuts = np.concatenate(([d0, d1], within, preimages))
        np.clip(cuts, d0, d1, out=cuts)
        cuts.sort(kind="stable")  # finds the sorted runs the pieces arrive in
        cuts = _distinct(cuts)
        seg_w = np.diff(cuts)
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        src = _bin_of(edges, mids)
        rows.append(src)
        cols.append(_bin_of(edges, slope * mids + intercept))
        vals.append(seg_w / widths[src])
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def _csr_arrays(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (data, indices, indptr) of the n x n matrix with the entries
    vals at (rows, cols), duplicates summed.

    Up to NUMPY_MAX_BINS bins numpy alone builds them: a stable sort by row
    and column, then each run of duplicates added left to right in input
    order.  Larger grids take scipy's COO-to-CSR conversion, which does the
    same but for its row sort, stable only up to 16 entries in a row.
    """
    if n <= NUMPY_MAX_BINS:
        flat = rows.astype(np.int64) * n + cols
        order = np.argsort(flat, kind="stable")
        flat, ordered = flat[order], vals[order]
        first = np.empty(flat.size, dtype=bool)
        first[0] = True
        np.not_equal(flat[1:], flat[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        row_of = flat[starts] // n
        data = ordered[starts]
        repeats = np.flatnonzero(~first)
        np.add.at(data, np.cumsum(first)[repeats] - 1, ordered[repeats])
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(row_of, minlength=n), out=indptr[1:])
        return data, (flat[starts] - row_of * n).astype(np.int32), indptr
    import scipy.sparse as sp

    # _bin_of's int32 indices: scipy's COO-to-CSR conversion is slower on intp ones
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return matrix.data, matrix.indices, matrix.indptr


def _grid(lo: float, hi: float, n_bins: int, align_half: bool) -> np.ndarray:
    """The n_bins + 1 uniform edges over [lo, hi], the edge nearest 1/2 moved
    onto it with align_half."""
    edges = np.linspace(lo, hi, n_bins + 1)
    if align_half and lo < 0.5 < hi:
        nearest = int(np.argmin(np.abs(edges[1:-1] - 0.5))) + 1
        edges[nearest] = 0.5
    return edges


def _bin_of(edges: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Bin of each x, as int32: clip(searchsorted(edges, x, "right") - 1, 0, n - 1).

    The grid is uniform but for at most one edge moved to 1/2, so the bin
    read off the uniform spacing is at most one off; one step against the
    edges either way corrects it.
    """
    n = edges.size - 1
    lo = edges[0]
    guess = (x - lo) * (n / (edges[-1] - lo))
    np.clip(guess, 0, n - 1, out=guess)
    idx = guess.astype(np.int32)
    idx -= edges[idx] > x
    idx += edges[idx + 1] <= x
    return np.clip(idx, 0, n - 1, out=idx)


def _left_product(ulam: UlamMatrix):
    """The map m -> mP of the Ulam matrix P, bit for bit as scipy's CSR
    mat-vec with the transpose of P.

    That mat-vec adds the terms of each output from 0 in source order.  P's
    own entries come source by source, so np.bincount over them adds in that
    order too; it serves up to NUMPY_MAX_BINS bins, and scipy past that.
    """
    n = ulam.n_bins
    if n > NUMPY_MAX_BINS:
        transposed = ulam.matrix.T.tocsr()
        return transposed.__matmul__
    sources = np.repeat(np.arange(n), np.diff(ulam.indptr))
    targets, data = ulam.indices.astype(np.intp), ulam.data
    return lambda m: np.bincount(targets, weights=data * m[sources], minlength=n)


def _power_step(left_product, mass: np.ndarray) -> tuple[np.ndarray, float]:
    """One normalised left power step and its L1 step length."""
    new = left_product(mass)
    new /= new.sum()
    return new, float(np.abs(new - mass).sum())


def _ritz_vector(left_product, start: np.ndarray) -> np.ndarray:
    """Ritz vector for the Ritz value nearest 1 in the Krylov space of start.

    Arnoldi with modified Gram-Schmidt builds an orthonormal basis of
    span{start, A start, ..., A^(m-1) start} for A = P^T, applied as
    left_product, and the eigenvector of the small Hessenberg matrix whose
    eigenvalue is nearest 1 is lifted back through the basis.  The sign and
    scale are arbitrary.  No step goes through BLAS, whose threaded kernels
    add long vectors in an order that depends on the thread count.
    """
    dim = min(KRYLOV_DIM, start.size)
    basis = np.empty((dim, start.size))
    hess = np.zeros((dim, dim))
    basis[0] = start / math.sqrt(_dot(start, start))
    for j in range(dim):
        w = left_product(basis[j])
        for i in range(j + 1):
            hess[i, j] = _dot(basis[i], w)
            w -= hess[i, j] * basis[i]
        if j + 1 == dim:
            break
        norm = math.sqrt(_dot(w, w))
        if norm <= ARNOLDI_BREAKDOWN:  # the space is invariant: its Ritz pairs are exact
            dim = j + 1
            break
        hess[j + 1, j] = norm
        basis[j + 1] = w / norm
    values, vectors = np.linalg.eig(hess[:dim, :dim])
    nearest = int(np.argmin(np.abs(values - 1.0)))
    return np.einsum("i,ij->j", vectors[:, nearest].real, basis[:dim])


def stationary_density(ulam: UlamMatrix) -> PiecewiseConstantDensity:
    """Stationary density of an Ulam matrix by left power iteration with
    Ritz restarts.

    Starts from the uniform mass vector and stops once successive mass
    vectors differ by less than POWER_TOL in L1.  After every RITZ_EVERY steps
    that have not converged, a short Arnoldi run from the current iterate
    proposes the Ritz vector for the Ritz value nearest 1, clipped to
    non-negative mass and normalised; the iteration restarts from it only if
    its own step is shorter than the current one.  Slowly mixing chains
    (case II as a -> 0) then converge in about a hundred steps instead of
    thousands, and periodic chains, where plain power iteration oscillates
    forever, converge too.  A chain that converges within RITZ_EVERY steps
    never reaches a restart and gets plain power iteration.

    The result is converted to a density (mass per bin width) and, if the
    grid covers only part of [0, 1], extended by zero so it always lives on
    the unit interval.
    """
    left_product = _left_product(ulam)
    n = ulam.n_bins
    mass = np.full(n, 1.0 / n)
    for iteration in range(1, MAX_POWER_STEPS + 1):
        new, residual = _power_step(left_product, mass)
        if residual >= POWER_TOL and iteration % RITZ_EVERY == 0:
            proposal = _ritz_vector(left_product, new)
            proposal = np.clip(proposal * np.sign(proposal.sum()), 0.0, None)
            total = proposal.sum()
            if np.isfinite(total) and total > 0:
                stepped, stepped_residual = _power_step(left_product, proposal / total)
                if stepped_residual < residual:
                    new, residual = stepped, stepped_residual
        mass = new
        if residual < POWER_TOL:
            break
    else:
        raise ComputationError(
            f"power iteration did not reach tol={POWER_TOL} in {MAX_POWER_STEPS} iterations",
            residual=residual,
        )
    return PiecewiseConstantDensity(ulam.edges.copy(), mass / np.diff(ulam.edges)).embedded()


# ---------------------------------------------------------------------------
# measures on [0, 1]: absolutely continuous part plus atoms


@dataclass(frozen=True)
class MeasureRepr:
    """A measure with piecewise-constant density part and finitely many atoms."""

    density: PiecewiseConstantDensity | None = None
    atoms: tuple[tuple[float, float], ...] = ()

    def total_mass(self) -> float:
        mass = self.density.integral() if self.density is not None else 0.0
        return mass + sum(w for _, w in self.atoms)

    def cumulative(self, points: np.ndarray) -> np.ndarray:
        """Right-continuous CDF values at the given sorted points."""
        out = np.zeros(points.size)
        if self.density is not None:
            bp, values = self.density.breakpoints, self.density.values
            prefix = np.zeros(bp.size)
            np.add.accumulate(values * (bp[1:] - bp[:-1]), out=prefix[1:])
            # the cell of each point, the outer cells extended to +-infinity
            idx = bp[1:-1].searchsorted(points, side="right")
            out += prefix[idx] + values[idx] * (points - bp[idx])
            # the points left of the density, and those at or right of its
            # last breakpoint, are runs at the two ends of the sorted points
            out[: points.searchsorted(bp[0])] = 0.0
            out[points.searchsorted(bp[-1]) :] = prefix[-1]
        for loc, weight in self.atoms:
            out[points.searchsorted(loc) :] += weight
        return out


def _density_on(m: MeasureRepr, grid: np.ndarray, mids: np.ndarray) -> np.ndarray | float:
    """The density part of m on each cell of a grid over [0, 1], read at the
    cells' midpoints; 0 on the cells outside the density's breakpoints."""
    if m.density is None:
        return 0.0
    values = m.density.value_at(mids)
    lo, hi = m.density.domain
    if lo > 0.0 or hi < 1.0:
        values[(grid[:-1] < lo) | (grid[1:] > hi)] = 0.0
    return values


def wasserstein1(mu: MeasureRepr, nu: MeasureRepr) -> float:
    """Exact Wasserstein-1 distance between two probability measures on [0, 1].

    Equals the integral of |CDF_mu - CDF_nu|; the CDF difference is linear
    between consecutive breakpoints and atom locations, so each segment
    integrates exactly (splitting at the root when the sign changes).  A
    measure with mass other than 1, an atom outside [0, 1] or of negative
    weight, or a density that leaves [0, 1] or takes negative values is
    rejected.
    """
    for name, m in (("mu", mu), ("nu", nu)):
        mass = m.total_mass()
        if not abs(mass - 1.0) <= MASS_TOL:
            raise ParameterError(
                f"wasserstein1 requires probability measures ({name} has mass {mass})"
            )
        if not all(0.0 <= loc <= 1.0 and w >= 0.0 for loc, w in m.atoms):
            raise ParameterError(f"wasserstein1 requires atoms in [0, 1] of weight >= 0 ({name})")
        f = m.density
        if f is not None and not (f.breakpoints[0] >= 0.0 and f.breakpoints[-1] <= 1.0):
            raise ParameterError(f"wasserstein1 requires a density on [0, 1] ({name})")
        if f is not None and not f.values.min() >= 0.0:
            raise ParameterError(f"wasserstein1 requires a density >= 0 ({name})")
    # the grid: 0, 1, every breakpoint and atom location in [0, 1], each once
    parts = [(0.0, 1.0)]
    for m in (mu, nu):
        if m.density is not None:
            parts.append(m.density.breakpoints)
        parts.append([loc for loc, _ in m.atoms])
    points = np.concatenate(parts)
    points.sort(kind="stable")
    points = points[points.searchsorted(0.0) : points.searchsorted(1.0, side="right")]
    grid = _distinct(points)
    mids = 0.5 * (grid[:-1] + grid[1:])
    seg_w = grid[1:] - grid[:-1]

    left = (mu.cumulative(grid) - nu.cumulative(grid))[:-1]  # just after each left end
    right = left + (_density_on(mu, grid, mids) - _density_on(nu, grid, mids)) * seg_w

    total = np.where(
        left * right >= 0,
        0.5 * (np.abs(left) + np.abs(right)) * seg_w,
        # linear crossing: two triangles on either side of the root
        0.5
        * (left * left + right * right)
        / np.maximum(np.abs(right - left), 1e-300)
        * seg_w,
    )
    return float(total.sum())


def point_mass(location: float) -> MeasureRepr:
    return MeasureRepr(density=None, atoms=((location, 1.0),))


def limit_measure(s1: float, s2: float, p: float, q: float, r: float) -> MeasureRepr:
    """The weak-* limit of the invariant measures as a -> 0.

    Case I gives the point mass at 1/2; case III the unperturbed density;
    case II mixes them with weights set by the perturbation rates.
    """
    if not (0 < p < math.inf and 0 < q < math.inf and 0 < r < math.inf):
        WParams(s1, s2, p, q, r, 0.0)  # raises, naming the rule the rates break
    case = classify_case(s1, s2)
    if case == "I":
        return point_mass(0.5)
    if case == "III":
        return MeasureRepr(density=h0(s1, s2), atoms=())
    _, num, atom, den = _case_ii_sums(s1, s2, p, q, r)
    return MeasureRepr(density=h0(s1, s2).scale(num / den), atoms=((0.5, atom / den),))
