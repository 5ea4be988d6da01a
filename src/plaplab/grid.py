"""Simplicial 1D/2D meshes with per-element gradients and lumped integration.

Grids are immutable after construction and safe to share between concurrent
solves. All discrete calculus used by the energy and path modules lives here:
piecewise-linear element gradients, lumped (node-mass) quadrature, and the
edge list used by the pointwise convexity checks.
"""

import math
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
    def assembly(self) -> "ElementAssembly":
        return ElementAssembly(self)


# Structured meshes as the grid builders write them, per dimension: the corners
# of each element of a cell (offsets in the node array of shape cells + 1, in
# local node order), and per (component, element) the two local nodes whose
# hat-gradient component is nonzero; the other's is 0.0 on axis-aligned cells.
# In 2D, triangle A = (ll, lr, ur) is element 2k of cell k, B = (ll, ur, ul) 2k + 1.
_LL, _LR, _UL, _UR = (0, 0), (0, 1), (1, 0), (1, 1)
_CORNERS = {1: (((0,), (1,)),), 2: ((_LL, _LR, _UR), (_LL, _UR, _UL))}
_KEPT = {
    1: ((0, 0, (0, 1)),),
    2: ((0, 0, (0, 1)), (0, 1, (1, 2)), (1, 0, (1, 2)), (1, 1, (0, 2))),
}


class ElementAssembly:
    """Element gradients of nodal fields and their scatter back to the nodes.

    Two paths, chosen from the element table: on structured meshes (the
    element table ``build_interval_grid`` or ``build_rectangle_grid`` writes,
    with axis-aligned cells: the hat-gradient components the stencil drops
    are checked to be exactly zero) each gradient component is the kept
    terms of the ``einsum`` sum, multiplied from shifted slices of the node
    array of shape ``cells + 1``; on any other mesh, gradients are an
    ``einsum``. Either way they are planar, (dim, n_elements) in element
    order, so norms add whole component rows, and the scatter is one
    ``np.bincount`` over the column-major element table, which adds in the
    order of an ``np.add.at`` pass per local node. (Slice adds into the node
    array were slower on 129-node chains and on 32^2 and 64^2 meshes.)

    Both paths are bitwise equal to the ``einsum`` gather and the
    ``np.add.at`` scatter: dropped terms are exact zeros and kept ones keep
    their order. Only the sign of a zero element term may differ, which
    squaring (norms) and the zero-started node sums (scatter) erase.

    Only read-only tables are kept, so one instance serves concurrent solves,
    and no reference to the grid, so a grid is freed as soon as its last user
    lets go of it.
    """

    def __init__(self, grid: Grid):
        self.n_nodes = grid.n_nodes
        self.cells = _structured_cells(grid)  # (n,) or (ny, nx)
        coeffs = grid.element_grad_coeffs
        # hat-function gradients (component, local node, element) and their squared norms
        planar = _frozen_array(coeffs.transpose(2, 1, 0))
        self.hat_grads = tuple(planar)
        self.coeff_sq = _frozen_array(_sum_of_squares(planar))
        self.index = _frozen_array(grid.elements.T.ravel(), dtype=int)
        structured = self.cells is not None
        self.elements = None if structured else grid.elements
        self.grad_coeffs = None if structured else coeffs
        if structured:
            dim, cells = grid.dimension, self.cells
            corners = _CORNERS[dim]
            c = coeffs.reshape(*cells, len(corners), dim + 1, dim)
            self.node_shape = tuple(n + 1 for n in cells)
            self.grads_shape = (dim, *cells, len(corners))
            self.planar_shape = (dim, grid.n_elements)
            # per kept pair: where its sum goes in the gradients, then the node
            # slices and the coefficients of its two terms
            self.stencil = tuple(
                ((d, Ellipsis, e), _under(corners[e][j], cells), _under(corners[e][k], cells),
                 _frozen_array(c[..., e, j, d]), _frozen_array(c[..., e, k, d]))
                for d, e, (j, k) in _KEPT[dim]
            )

    def gradients(self, values: np.ndarray) -> np.ndarray:
        """Element gradients, shape (dim, n_elements)."""
        if self.cells is None:
            return np.einsum("ej,ejd->de", values[self.elements], self.grad_coeffs)
        nodes = values.reshape(self.node_shape)
        grads = np.empty(self.grads_shape)
        for target, first, second, c0, c1 in self.stencil:
            out = grads[target]
            np.multiply(nodes[first], c0, out)
            out += nodes[second] * c1
        return grads.reshape(self.planar_shape)

    def norms(self, grads: np.ndarray) -> np.ndarray:
        return np.sqrt(_sum_of_squares(grads))

    def scatter(self, scale: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Per node, the sum over its elements of scale * grads . grad(hat)."""
        flux = scale * grads
        hat = self.hat_grads
        local = flux[0] * hat[0]
        for d in range(1, len(flux)):
            local += flux[d] * hat[d]
        return self._to_nodes(local)

    def scatter_diagonal(self, scale: np.ndarray) -> np.ndarray:
        """Per node, the sum over its elements of scale * |grad(hat)|^2."""
        return self._to_nodes(self.coeff_sq * scale)

    def _to_nodes(self, local: np.ndarray) -> np.ndarray:
        """Sum element contributions, shape (dim + 1, n_elements), into the nodes."""
        return np.bincount(self.index, local.ravel(), self.n_nodes)


def _sum_of_squares(planar: np.ndarray) -> np.ndarray:
    """Sum of squares over the first axis, added in index order as
    ``np.add.reduce`` over a short axis does."""
    squares = planar * planar
    total = squares[0]
    for d in range(1, len(squares)):
        total += squares[d]
    return total


def _under(corner: tuple, cells: tuple) -> tuple:
    """Slices of the node array, of shape cells + 1, under one corner of every cell."""
    return tuple(slice(o, o + n) for o, n in zip(corner, cells))


def _structured_elements(cells: tuple) -> np.ndarray:
    """The grid builders' element table: cells in row-major order, one element
    per corner tuple of ``_CORNERS``, e.g. (ll, lr, ur), (ll, ur, ul) in 2D."""
    shape = tuple(n + 1 for n in cells)
    nodes = np.arange(math.prod(shape)).reshape(shape)
    # the node index of each corner of cell 0, whose lowest corner is node 0
    offsets = np.array([nodes[o] for element in _CORNERS[len(cells)] for o in element])
    return (nodes[_under((0,) * len(cells), cells)][..., None] + offsets).reshape(-1, len(cells) + 1)


def _structured_cells(grid: Grid):
    """(n,) or (ny, nx) when the element table is the grid builder's and every
    hat-gradient component the stencil drops is exactly zero, else None."""
    dim = grid.dimension
    if dim not in _CORNERS or grid.n_elements == 0:
        return None
    if dim == 1:
        cells = (grid.n_elements,)
    else:
        nx = int(grid.elements[0, 2]) - 2  # element 0 is (0, 1, nx + 2)
        if nx < 1 or grid.n_elements % (2 * nx):
            return None
        cells = (grid.n_elements // (2 * nx), nx)
    if grid.n_nodes != math.prod(n + 1 for n in cells) or not np.array_equal(
        grid.elements, _structured_elements(cells)
    ):
        return None
    c = grid.element_grad_coeffs.reshape(*cells, len(_CORNERS[dim]), dim + 1, dim)
    for d, e, kept in _KEPT[dim]:
        for dropped in set(range(dim + 1)) - set(kept):
            if c[..., e, dropped, d].any():
                return None
    return cells


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


def build_interval_grid(n: int, a: float, b: float) -> Grid:
    """Uniform grid with n elements (n + 1 nodes) on the interval [a, b]."""
    if n < 2:
        raise ValueError(f"need at least 2 elements, got n={n}")
    if not a < b:
        raise ValueError(f"empty interval: a={a} must be < b={b}")
    coords = np.linspace(a, b, n + 1)
    h = (b - a) / n
    nodes = coords.reshape(-1, 1)
    elements = _structured_elements((n,))
    volume = np.full(n, h)
    # hat-function slopes: -1/h at the left node, +1/h at the right node
    coeffs = np.empty((n, 2, 1))
    coeffs[:, 0, 0] = -1.0 / h
    coeffs[:, 1, 0] = 1.0 / h
    boundary = np.array([0, n])
    interior = np.arange(1, n)
    return Grid(
        dimension=1,
        nodes=_frozen_array(nodes),
        elements=_frozen_array(elements, dtype=int),
        element_volume=_frozen_array(volume),
        element_grad_coeffs=_frozen_array(coeffs),
        boundary_nodes=_frozen_array(boundary, dtype=int),
        interior_nodes=_frozen_array(interior, dtype=int),
    )


def build_rectangle_grid(nx: int, ny: int, extents) -> Grid:
    """Structured triangulation of a rectangle: nx*ny cells, two triangles each.

    Every cell is split along the same (lower-left to upper-right) diagonal so
    meshes are deterministic. ``extents`` is (xmin, xmax, ymin, ymax).
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

    elements = _structured_elements((ny, nx))

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

    iy_all, ix_all = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    on_boundary = (ix_all == 0) | (ix_all == nx) | (iy_all == 0) | (iy_all == ny)
    boundary = np.flatnonzero(on_boundary)
    interior = np.flatnonzero(~on_boundary)

    return Grid(
        dimension=2,
        nodes=_frozen_array(nodes),
        elements=_frozen_array(elements, dtype=int),
        element_volume=_frozen_array(volume),
        element_grad_coeffs=_frozen_array(coeffs),
        boundary_nodes=_frozen_array(boundary, dtype=int),
        interior_nodes=_frozen_array(interior, dtype=int),
    )


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-element gradient vectors of the piecewise-linear interpolant."""
    return grid.assembly.gradients(values).T


def integrate_nodal(u: ScalarField) -> float:
    """Lumped-quadrature integral of a nodal field (exact for P1 interpolants)."""
    return float(u.grid.node_mass @ u.values)

