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
        pairs = np.unique(pairs, axis=0)
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def node_neighbors(self) -> list[np.ndarray]:
        """Edge-adjacent node indices, per node."""
        adjacency: list[list[int]] = [[] for _ in range(self.n_nodes)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        return [np.array(sorted(nbrs), dtype=int) for nbrs in adjacency]

    @cached_property
    def is_boundary(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.boundary_nodes] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def assembly(self) -> "ElementAssembly":
        return ElementAssembly(self)


class ElementAssembly:
    """Element gradients of nodal fields and their scatter back to the nodes.

    Interval grids whose elements are the node pairs (i, i + 1) in order work
    on slices. Other grids gather with ``einsum`` and scatter with one
    ``np.bincount`` over the column-major element table, which adds in the
    same order as an ``np.add.at`` pass per local node. Only read-only tables
    are kept, so one instance serves concurrent solves, and no reference to
    the grid, so a grid is freed as soon as its last user lets go of it.
    """

    def __init__(self, grid: Grid):
        n = grid.n_elements
        self.n_nodes = grid.n_nodes
        self.elements = grid.elements
        self.chain = grid.dimension == 1 and np.array_equal(
            grid.elements, np.column_stack([np.arange(n), np.arange(1, n + 1)])
        )
        self.grad_coeffs = grid.element_grad_coeffs
        # hat-function gradients and their squared norms, local node first
        self.coeffs = _frozen_array(grid.element_grad_coeffs.transpose(1, 0, 2))
        self.coeff_sq = _frozen_array(np.einsum("led,led->le", self.coeffs, self.coeffs))
        self.slopes = self.coeffs[:, :, 0] if self.chain else None
        self.index = None if self.chain else _frozen_array(grid.elements.T.ravel(), dtype=int)

    def gradients(self, values: np.ndarray) -> np.ndarray:
        """Element gradients: shape (n_elements,) on a chain, else (n_elements, dim)."""
        if self.chain:
            return values[:-1] * self.slopes[0] + values[1:] * self.slopes[1]
        return np.einsum("ej,ejd->ed", values[self.elements], self.grad_coeffs)

    def norms(self, grads: np.ndarray) -> np.ndarray:
        if self.chain:
            return np.sqrt(grads * grads)
        return np.sqrt(np.add.reduce(grads * grads, axis=1))

    def scatter(self, scale: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Per node, the sum over its elements of scale * grads . grad(hat)."""
        if self.chain:
            return self._to_nodes(scale * grads * self.slopes)
        return self._to_nodes(np.einsum("ed,led->le", scale[:, None] * grads, self.coeffs))

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

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    triangles = []
    for iy in range(ny):
        for ix in range(nx):
            ll, lr = nid(ix, iy), nid(ix + 1, iy)
            ul, ur = nid(ix, iy + 1), nid(ix + 1, iy + 1)
            triangles.append((ll, lr, ur))
            triangles.append((ll, ur, ul))
    elements = np.array(triangles, dtype=int)

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

    normals = np.zeros((len(boundary), 2))
    for row, node in enumerate(boundary):
        ix, iy = ix_all[node], iy_all[node]
        outward = np.zeros(2)
        if ix == 0:
            outward += (-1.0, 0.0)
        if ix == nx:
            outward += (1.0, 0.0)
        if iy == 0:
            outward += (0.0, -1.0)
        if iy == ny:
            outward += (0.0, 1.0)
        normals[row] = outward / np.linalg.norm(outward)

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
