"""Simplicial 1D/2D meshes with per-element gradients and lumped integration.

Grids are immutable after construction and safe to share between concurrent
solves. All discrete calculus used by the energy and path modules lives here:
piecewise-linear element gradients, lumped (node-mass) quadrature, and the
edge list used by the pointwise convexity checks.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _frozen_array(a, dtype=float):
    arr = np.ascontiguousarray(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Grid:
    """Simplicial mesh: segments in 1D, triangles in 2D.

    ``element_grad_coeffs[e, j]`` is the gradient of the hat function of local
    node ``j`` of element ``e``; the element gradient of a nodal field is the
    coefficient-weighted sum of its nodal values.
    """

    dimension: int
    nodes: np.ndarray             # (n_nodes, dim)
    elements: np.ndarray          # (n_elements, dim + 1), node indices
    element_volume: np.ndarray    # (n_elements,)
    element_grad_coeffs: np.ndarray  # (n_elements, dim + 1, dim)
    boundary_nodes: np.ndarray    # sorted node indices
    boundary_normals: np.ndarray  # (len(boundary_nodes), dim), unit vectors
    interior_nodes: np.ndarray    # sorted node indices

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @cached_property
    def measure(self) -> float:
        return float(self.element_volume.sum())

    @cached_property
    def node_mass(self) -> np.ndarray:
        """Lumped quadrature weights: each element spreads its volume evenly."""
        mass = np.zeros(self.n_nodes)
        share = self.element_volume / (self.dimension + 1)
        for local in range(self.dimension + 1):
            np.add.at(mass, self.elements[:, local], share)
        mass.setflags(write=False)
        return mass

    @cached_property
    def edges(self) -> np.ndarray:
        """Unique mesh edges as sorted (i, j) node-index pairs."""
        if self.dimension == 1:
            pairs = np.sort(self.elements, axis=1)
        else:
            tri = self.elements
            pairs = np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
            pairs = np.sort(pairs, axis=1)
        # i * n + j sorts as the pair (i, j) does, since j < n
        keys = np.unique(pairs[:, 0] * self.n_nodes + pairs[:, 1])
        pairs = np.column_stack(np.divmod(keys, self.n_nodes))
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def node_neighbors(self) -> list[np.ndarray]:
        """Edge-adjacent node indices, per node, in increasing order."""
        n = self.n_nodes
        i, j = self.edges[:, 0], self.edges[:, 1]
        keys = np.sort(np.concatenate([i * n + j, j * n + i]))
        counts = np.bincount(keys // n, minlength=n)
        return np.split(keys % n, np.cumsum(counts)[:-1])

    @cached_property
    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def assembly(self) -> "ElementAssembly":
        return ElementAssembly(self)


# Rectangle meshes from ``build_rectangle_grid``: (row, column) offsets, in the
# (ny + 1, nx + 1) node array, of the corners of a cell's two triangles, in
# local node order. Triangle A = (ll, lr, ur) is element 2k of cell k and
# B = (ll, ur, ul) is element 2k + 1.
_LL, _LR, _UL, _UR = (0, 0), (0, 1), (1, 0), (1, 1)
_CORNERS = ((_LL, _LR, _UR), (_LL, _UR, _UL))
# (component, triangle, local nodes): the two hat gradients whose component is
# nonzero, in local order; the third one's is exactly 0.0 on an axis-aligned cell
_GATHER = ((0, 0, (0, 1)), (0, 1, (1, 2)), (1, 0, (1, 2)), (1, 1, (0, 2)))


class ElementAssembly:
    """Element gradients of nodal fields and their scatter back to the nodes.

    There are three paths, chosen from the element table:

    * interval grids whose elements are the node pairs (i, i + 1) in order (a
      *chain*): gradients are ``u[:-1] * c0 + u[1:] * c1``, shape
      (n_elements,), and the scatter is two slice adds;
    * rectangle meshes whose element table is the one ``build_rectangle_grid``
      writes, with axis-aligned cells (checked: the hat-gradient components
      the stencil drops are exactly zero): each gradient component is the two
      nonzero terms of the ``einsum`` sum, multiplied from corner slices of
      the (ny + 1, nx + 1) node array;
    * any other mesh: gradients by ``einsum``.

    Off the chain, element gradients are planar, shape (dim, n_elements), in
    element order, so norms add whole component rows, and the scatter is one
    ``np.bincount`` over the column-major element table, which adds in the
    same order as an ``np.add.at`` pass per local node. (Six slice adds into
    the node array were slower than the bincount on 32^2 and 64^2 meshes.)

    Every path is bitwise equal to the ``einsum`` gather and the ``np.add.at``
    scatter: the dropped terms are exact zeros and the kept ones keep their
    order. The only difference is the sign of a zero element term, which
    squaring (norms) and the zero-started node sums (scatter) erase.

    Only read-only tables are kept, so one instance serves concurrent solves,
    and no reference to the grid, so a grid is freed as soon as its last user
    lets go of it.
    """

    def __init__(self, grid: Grid):
        n = grid.n_elements
        self.n_nodes = grid.n_nodes
        self.chain = grid.dimension == 1 and np.array_equal(
            grid.elements, np.column_stack([np.arange(n), np.arange(1, n + 1)])
        )
        self.cells = None if self.chain else _rectangle_cells(grid)  # (ny, nx)
        coeffs = grid.element_grad_coeffs
        # hat-function gradients (component, local node, element) and their squared norms
        self.planar = _frozen_array(coeffs.transpose(2, 1, 0))
        self.coeff_sq = _frozen_array(_sum_of_squares(self.planar))
        self.slopes = self.planar[0] if self.chain else None
        self.index = None if self.chain else _frozen_array(grid.elements.T.ravel(), dtype=int)
        generic = not self.chain and self.cells is None
        self.elements = grid.elements if generic else None
        self.grad_coeffs = coeffs if generic else None
        self.stencil = None
        if self.cells is not None:
            c = coeffs.reshape(*self.cells, 2, 3, 2)  # cell row, column, triangle, local, component
            self.stencil = _frozen_array(
                [[c[:, :, tri, j, d] for j in kept] for d, tri, kept in _GATHER]
            )

    def gradients(self, values: np.ndarray) -> np.ndarray:
        """Element gradients: shape (n_elements,) on a chain, else (dim, n_elements)."""
        if self.chain:
            return values[:-1] * self.slopes[0] + values[1:] * self.slopes[1]
        if self.cells is None:
            return np.einsum("ej,ejd->de", values[self.elements], self.grad_coeffs)
        ny, nx = self.cells
        nodes = values.reshape(ny + 1, nx + 1)
        corner = {(r, c): nodes[r:r + ny, c:c + nx] for r, c in (_LL, _LR, _UL, _UR)}
        grads = np.empty((2, ny, nx, 2))
        for (d, tri, (j, k)), coeffs in zip(_GATHER, self.stencil):
            out = grads[d, :, :, tri]
            np.multiply(corner[_CORNERS[tri][j]], coeffs[0], out=out)
            out += corner[_CORNERS[tri][k]] * coeffs[1]
        return grads.reshape(2, -1)

    def norms(self, grads: np.ndarray) -> np.ndarray:
        if self.chain:
            return np.sqrt(grads * grads)
        return np.sqrt(_sum_of_squares(grads))

    def scatter(self, scale: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Per node, the sum over its elements of scale * grads . grad(hat)."""
        if self.chain:
            return self._to_nodes(scale * grads * self.slopes)
        flux = scale * grads
        local = flux[0] * self.planar[0]
        for component, coeffs in zip(flux[1:], self.planar[1:]):
            local += component * coeffs
        return self._to_nodes(local)

    def scatter_diagonal(self, scale: np.ndarray) -> np.ndarray:
        """Per node, the sum over its elements of scale * |grad(hat)|^2."""
        return self._to_nodes(self.coeff_sq * scale)

    def _to_nodes(self, local: np.ndarray) -> np.ndarray:
        """Sum element contributions, shape (dim + 1, n_elements), into the nodes."""
        if self.chain:
            out = np.zeros(self.n_nodes)
            out[:-1] += local[0]
            out[1:] += local[1]
            return out
        return np.bincount(self.index, weights=local.ravel(), minlength=self.n_nodes)


def _sum_of_squares(planar: np.ndarray) -> np.ndarray:
    """Sum of squares over the first axis, added in index order as
    ``np.add.reduce`` over a short axis does."""
    total = planar[0] * planar[0]
    for row in planar[1:]:
        total += row * row
    return total


def _rectangle_elements(nx: int, ny: int) -> np.ndarray:
    """Two triangles per cell, cells in row-major order: (ll, lr, ur), (ll, ur, ul)."""
    ll = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    lr, ul, ur = ll + 1, ll + nx + 1, ll + nx + 2
    return np.column_stack([ll, lr, ur, ll, ur, ul]).reshape(-1, 3)


def _rectangle_cells(grid: Grid):
    """(ny, nx) when the element table is ``build_rectangle_grid``'s and every
    hat-gradient component the stencil drops is exactly zero, else None."""
    if grid.dimension != 2 or grid.n_elements == 0:
        return None
    nx = int(grid.elements[0, 2]) - 2  # element 0 is (0, 1, nx + 2)
    if nx < 1 or grid.n_elements % (2 * nx):
        return None
    ny = grid.n_elements // (2 * nx)
    if grid.n_nodes != (nx + 1) * (ny + 1) or not np.array_equal(
        grid.elements, _rectangle_elements(nx, ny)
    ):
        return None
    c = grid.element_grad_coeffs.reshape(ny, nx, 2, 3, 2)
    for d, tri, kept in _GATHER:
        (dropped,) = {0, 1, 2} - set(kept)
        if c[:, :, tri, dropped, d].any():
            return None
    return ny, nx


@dataclass(frozen=True)
class ScalarField:
    """Nodal function values on a grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(np.copy(self.values))  # never freeze the caller's array
        if values.shape != (self.grid.n_nodes,):
            raise ValueError(
                f"expected {self.grid.n_nodes} nodal values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("nodal values must be finite")
        object.__setattr__(self, "values", values)

    @staticmethod
    def constant(grid: Grid, value: float) -> "ScalarField":
        return ScalarField(grid, np.full(grid.n_nodes, float(value)))

    @staticmethod
    def from_function(grid: Grid, fn) -> "ScalarField":
        coords = [grid.nodes[:, k] for k in range(grid.dimension)]
        return ScalarField(grid, np.asarray(fn(*coords), dtype=float))

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)


@dataclass(frozen=True)
class ElementVectorField:
    """One constant vector per element (e.g. a piecewise-linear gradient)."""

    grid: Grid
    vectors: np.ndarray

    def __post_init__(self):
        vectors = _frozen_array(np.copy(self.vectors))
        expected = (self.grid.n_elements, self.grid.dimension)
        if vectors.shape != expected:
            raise ValueError(f"expected vectors of shape {expected}, got {vectors.shape}")
        if not np.all(np.isfinite(vectors)):
            raise ValueError("element vectors must be finite")
        object.__setattr__(self, "vectors", vectors)


def build_interval_grid(n: int, a: float, b: float) -> Grid:
    """Uniform grid with n elements (n + 1 nodes) on the interval [a, b]."""
    if n < 2:
        raise ValueError(f"need at least 2 elements, got n={n}")
    if not a < b:
        raise ValueError(f"empty interval: a={a} must be < b={b}")
    coords = np.linspace(a, b, n + 1)
    h = (b - a) / n
    nodes = coords.reshape(-1, 1)
    elements = np.column_stack([np.arange(n), np.arange(1, n + 1)])
    volume = np.full(n, h)
    # hat-function slopes: -1/h at the left node, +1/h at the right node
    coeffs = np.empty((n, 2, 1))
    coeffs[:, 0, 0] = -1.0 / h
    coeffs[:, 1, 0] = 1.0 / h
    boundary = np.array([0, n])
    normals = np.array([[-1.0], [1.0]])
    interior = np.arange(1, n)
    return Grid(
        dimension=1,
        nodes=_frozen_array(nodes),
        elements=_frozen_array(elements, dtype=int),
        element_volume=_frozen_array(volume),
        element_grad_coeffs=_frozen_array(coeffs),
        boundary_nodes=_frozen_array(boundary, dtype=int),
        boundary_normals=_frozen_array(normals),
        interior_nodes=_frozen_array(interior, dtype=int),
    )


def build_rectangle_grid(nx: int, ny: int, extents) -> Grid:
    """Structured triangulation of a rectangle: nx*ny cells, two triangles each.

    Every cell is split along the same (lower-left to upper-right) diagonal so
    meshes are deterministic. ``extents`` is (xmin, xmax, ymin, ymax). Corner
    normals are the normalized sum of the two adjacent face normals; they are
    reporting aids only and never enter assembly.
    """
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2 cells per direction, got nx={nx}, ny={ny}")
    xmin, xmax, ymin, ymax = (float(v) for v in extents)
    if not (xmin < xmax and ymin < ymax):
        raise ValueError(f"degenerate extents {extents!r}")

    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])  # node = iy * (nx + 1) + ix

    elements = _rectangle_elements(nx, ny)

    p0 = nodes[elements[:, 0]]
    p1 = nodes[elements[:, 1]]
    p2 = nodes[elements[:, 2]]
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    volume = 0.5 * np.abs(det)

    # P1 hat gradients: grad(phi_i) = rot90(edge opposite to i) / (2 * area)
    coeffs = np.empty((len(elements), 3, 2))
    for local, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        pj = nodes[elements[:, j]]
        pk = nodes[elements[:, k]]
        coeffs[:, local, 0] = (pj[:, 1] - pk[:, 1]) / det
        coeffs[:, local, 1] = (pk[:, 0] - pj[:, 0]) / det

    ix_all = np.arange((nx + 1) * (ny + 1)) % (nx + 1)
    iy_all = np.arange((nx + 1) * (ny + 1)) // (nx + 1)
    on_boundary = (ix_all == 0) | (ix_all == nx) | (iy_all == 0) | (iy_all == ny)
    boundary = np.flatnonzero(on_boundary)
    interior = np.flatnonzero(~on_boundary)

    ix_b, iy_b = ix_all[boundary], iy_all[boundary]
    outward = np.zeros((len(boundary), 2))
    outward[ix_b == 0, 0] = -1.0
    outward[ix_b == nx, 0] = 1.0
    outward[iy_b == 0, 1] = -1.0
    outward[iy_b == ny, 1] = 1.0
    normals = outward / np.sqrt(_sum_of_squares(outward.T))[:, None]

    return Grid(
        dimension=2,
        nodes=_frozen_array(nodes),
        elements=_frozen_array(elements, dtype=int),
        element_volume=_frozen_array(volume),
        element_grad_coeffs=_frozen_array(coeffs),
        boundary_nodes=_frozen_array(boundary, dtype=int),
        boundary_normals=_frozen_array(normals),
        interior_nodes=_frozen_array(interior, dtype=int),
    )


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-element gradient vectors of the piecewise-linear interpolant."""
    nodal = values[grid.elements]  # (n_elements, dim + 1)
    return np.einsum("ej,ejd->ed", nodal, grid.element_grad_coeffs)


def gradient(u: ScalarField) -> ElementVectorField:
    return ElementVectorField(u.grid, gradient_values(u.grid, u.values))


def integrate_nodal(u: ScalarField) -> float:
    """Lumped-quadrature integral of a nodal field (exact for P1 interpolants)."""
    return float(u.grid.node_mass @ u.values)


def integrate_elementwise(grid: Grid, element_values: np.ndarray) -> float:
    """Integral of a piecewise-constant per-element quantity."""
    w = np.asarray(element_values, dtype=float)
    if w.shape != (grid.n_elements,):
        raise ValueError(f"expected {grid.n_elements} element values, got {w.shape}")
    return float(grid.element_volume @ w)
