"""Simplicial 1D/2D meshes with per-element gradients and lumped integration.

Grids are immutable after construction and safe to share between concurrent
solves. All discrete calculus used by the energy and path modules lives here:
piecewise-linear element gradients, the weighted stiffness on edges, lumped
(node-mass) quadrature, and the edge list that the pointwise convexity checks
and the dead-core regions read.
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
    def interior_nodes(self) -> np.ndarray:
        """The sorted node indices not in ``boundary_nodes``, read-only."""
        interior = np.ones(self.n_nodes, dtype=bool)
        interior[self.boundary_nodes] = False
        return _frozen_array(np.flatnonzero(interior), dtype=int)

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
        # local node pairs (j, j + o) as rows of the transposed element table,
        # each pair's ends ordered by np.minimum/np.maximum, not by a row sort
        t, n = np.ascontiguousarray(self.elements.T), self.n_nodes
        keys = [np.minimum(t[:-o], t[o:]) * n + np.maximum(t[:-o], t[o:]) for o in range(1, len(t))]
        # i * n + j sorts as the pair (i, j) does, since j < n; a sort and an
        # adjacent-difference mask give np.unique's array without its hashing
        keys = np.sort(np.concatenate(keys, axis=None))
        keys = keys[np.concatenate([[True], keys[1:] != keys[:-1]])]
        pairs = np.empty((len(keys), 2), dtype=keys.dtype)
        np.divmod(keys, n, out=(pairs[:, 0], pairs[:, 1]))
        pairs.setflags(write=False)
        return pairs

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
    """Element gradients of nodal fields, and the weighted stiffness on edges.

    Gradients take one of two paths, chosen from the element table: on
    structured meshes (the element table ``build_interval_grid`` or
    ``build_rectangle_grid`` writes, with axis-aligned cells: the
    hat-gradient components the stencil drops are checked to be exactly
    zero) each gradient component is the kept terms of the ``einsum`` sum,
    multiplied from shifted slices of the node array of shape ``cells + 1``;
    on any other mesh, gradients are an ``einsum``. Either way they are
    planar, (dim, n_elements) in element order, so norms add whole component
    rows, and bitwise equal to the ``einsum`` gather: dropped terms are exact
    zeros and kept ones keep their order. Only the sign of a zero element
    term may differ, which squaring (norms) erases.

    The weighted stiffness (K_c v)_i = sum_e c_e grad v . grad(hat_i) is a
    sum over edges on any P1 mesh: each element's local stiffness has zero
    row sums, so (K_c v)_i = sum_j w_ij (v_i - v_j), with edge weights
    w_ij = -sum_e c_e grad(hat_i) . grad(hat_j), negative across an obtuse
    angle. ``edge_bands(c)`` builds the weights, ``band_product`` applies
    K_c and ``band_diagonal`` is its diagonal. On structured meshes a
    hypotenuse's weight is 0: the bands are one flat array per node-array
    axis, entry i for the edge from node i to i + s (s the axis's stride: 1
    along x, nx + 1 along y), applied by the slices ``v[s:] - v[:-s]``; a
    row's last x entry is an exact zero, which adds +-0 and so changes no
    finite sum. On other meshes they are one flat array over ``grid.edges``,
    built and applied by ``np.bincount``.

    Only read-only tables are kept, so one instance serves concurrent solves,
    and no reference to the grid, so a grid is freed as soon as its last user
    lets go of it.
    """

    def __init__(self, grid: Grid):
        self.n_nodes = grid.n_nodes
        self.cells = _structured_cells(grid)  # (n,) or (ny, nx)
        coeffs = grid.element_grad_coeffs
        if self.cells is None:
            self.elements, self.grad_coeffs = grid.elements, coeffs
            # per (local pair j < k, element): the pair's index into grid.edges
            # and -grad(hat_j) . grad(hat_k); per edge, its low and high ends
            n, edges = grid.n_nodes, grid.edges
            pairs = [(j, k) for k in range(grid.dimension + 1) for j in range(k)]
            ends = np.sort(grid.elements[:, pairs], axis=2)  # (n_elements, pair, end)
            index = np.searchsorted(edges[:, 0] * n + edges[:, 1], ends[..., 0] * n + ends[..., 1])
            self.edge_index = _frozen_array(index.T.ravel(), dtype=int)
            self.edge_coeffs = _frozen_array([-(coeffs[:, j] * coeffs[:, k]).sum(1) for j, k in pairs])
            self.edge_nodes = _frozen_array(edges.T, dtype=int)
            return
        self.elements = self.grad_coeffs = None
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
        # per kept pair, its edge: its element per cell, its low ends in a stack
        # of node arrays, axis first (component d runs along axis dim - 1 - d),
        # and c^2; per axis, its stride and its band's flat prefix of the stack
        self.band_terms = tuple(
            (e, (dim - 1 - d, *_under(min(corners[e][j], corners[e][k]), cells)),
             _frozen_array(c[..., e, j, d] * c[..., e, j, d]))
            for d, e, (j, k) in _KEPT[dim]
        )
        self.band_stack = (dim, *self.node_shape)
        self.strides = tuple(math.prod(self.node_shape[axis + 1:]) for axis in range(dim))
        self.band_prefixes = tuple((k, slice(grid.n_nodes - s)) for k, s in enumerate(self.strides))

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

    def edge_bands(self, scale: np.ndarray) -> list:
        """The edge weights of K_scale: per node-array axis on structured meshes
        (scale * c^2 summed over each edge's elements), else one array over ``grid.edges``."""
        if self.cells is None:
            lo, _ = self.edge_nodes
            return [np.bincount(self.edge_index, (self.edge_coeffs * scale).ravel(), len(lo))]
        per_cell = scale.reshape(self.grads_shape[1:])
        stack = np.zeros(self.band_stack)
        for e, under, c_sq in self.band_terms:
            stack[under] += per_cell[..., e] * c_sq
        flat = stack.reshape(len(self.strides), self.n_nodes)
        return [flat[prefix] for prefix in self.band_prefixes]

    def band_product(self, bands: list, values: np.ndarray, out=None, work=None) -> np.ndarray:
        """K_scale values from ``edge_bands(scale)``: per edge, f = w (v_hi - v_lo),
        subtracted at its low end and added at its high end. ``out`` and ``work``
        are optional node-sized buffers (result, scratch); they change no bit."""
        n = self.n_nodes
        if self.cells is None:
            lo, hi = self.edge_nodes
            f = values[hi] - values[lo]
            f *= bands[0]
            return np.subtract(np.bincount(hi, f, n), np.bincount(lo, f, n), out=out)
        if out is None:
            out = np.zeros(n)
        else:
            out.fill(0.0)
        for band, s in zip(bands, self.strides):
            f = np.subtract(values[s:], values[:-s], out=None if work is None else work[:n - s])
            f *= band
            out[:-s] -= f
            out[s:] += f
        return out

    def band_diagonal(self, bands: list) -> np.ndarray:
        """The diagonal of K_scale from ``edge_bands(scale)``: per node, its edges' weights."""
        if self.cells is None:
            (lo, hi), n = self.edge_nodes, self.n_nodes
            return np.bincount(lo, bands[0], n) + np.bincount(hi, bands[0], n)
        out = np.zeros(self.n_nodes)
        for band, s in zip(bands, self.strides):
            out[:-s] += band
            out[s:] += band
        return out


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
    return Grid(
        dimension=1,
        nodes=_frozen_array(nodes),
        elements=_frozen_array(elements, dtype=int),
        element_volume=_frozen_array(volume),
        element_grad_coeffs=_frozen_array(coeffs),
        boundary_nodes=_frozen_array(boundary, dtype=int),
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

    gx, gy = np.meshgrid(np.linspace(xmin, xmax, nx + 1), np.linspace(ymin, ymax, ny + 1))
    nodes = np.column_stack([gx.ravel(), gy.ravel()])  # node = iy * (nx + 1) + ix

    elements = _structured_elements((ny, nx))

    # per local node, its x and y over the elements, element 2k + e from
    # corner _CORNERS[2][e] of cell k: slices of the node grids, not gathers
    under = [[_under(c, (ny, nx)) for c in local] for local in zip(*_CORNERS[2])]
    x, y = ([np.stack([g[c] for c in local], axis=-1).ravel() for local in under] for g in (gx, gy))
    det = (x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0])

    # P1 hat gradients: grad(phi_i) = rot90(edge opposite to i) / (2 * area)
    coeffs = np.empty((len(elements), 3, 2))
    for local, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        coeffs[:, local, 0] = (y[j] - y[k]) / det
        coeffs[:, local, 1] = (x[k] - x[j]) / det

    boundary = np.ones((ny + 1, nx + 1), dtype=bool)
    boundary[1:-1, 1:-1] = False

    return Grid(
        dimension=2,
        nodes=_frozen_array(nodes),
        elements=_frozen_array(elements, dtype=int),
        element_volume=_frozen_array(0.5 * np.abs(det)),
        element_grad_coeffs=_frozen_array(coeffs),
        boundary_nodes=_frozen_array(np.flatnonzero(boundary), dtype=int),
    )


def gradient_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Per-element gradient vectors of the piecewise-linear interpolant."""
    return grid.assembly.gradients(values).T


def integrate_nodal(u: ScalarField) -> float:
    """Lumped-quadrature integral of a nodal field (exact for P1 interpolants)."""
    return float(u.grid.node_mass @ u.values)

