import dataclasses

import numpy as np
import pytest

from plaplab.grid import (
    Grid,
    ScalarField,
    build_interval_grid,
    build_rectangle_grid,
    gradient_values,
    integrate_nodal,
)


def test_interval_grid_basics():
    g = build_interval_grid(2, 0.0, 1.0)
    assert g.n_nodes == 3
    np.testing.assert_allclose(g.nodes.ravel(), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(g.element_volume, [0.5, 0.5])


@pytest.mark.parametrize("n", [2, 4, 17, 100])
def test_interval_grid_partitions_domain(n):
    g = build_interval_grid(n, 0.0, 1.0)
    assert abs(g.element_volume.sum() - 1.0) <= 1e-12


def test_interval_grid_boundary_orientation():
    g = build_interval_grid(100, -1.0, 1.0)
    assert g.n_nodes == 101
    assert g.boundary_nodes.tolist() == [0, 100]


def test_interval_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_interval_grid(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        build_interval_grid(10, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_interval_grid(10, 2.0, 1.0)


def test_rectangle_grid_counts_and_volume():
    g = build_rectangle_grid(2, 2, (0, 1, 0, 1))
    assert g.n_nodes == 9
    assert g.n_elements == 8
    assert abs(g.element_volume.sum() - 1.0) <= 1e-12
    np.testing.assert_allclose(g.element_volume, 0.125)


@pytest.mark.parametrize("nx,ny", [(2, 3), (5, 4), (7, 7)])
def test_rectangle_grid_interior_count(nx, ny):
    g = build_rectangle_grid(nx, ny, (0, 2, -1, 1))
    assert len(g.interior_nodes) == (nx - 1) * (ny - 1)
    joined = np.sort(np.concatenate([g.interior_nodes, g.boundary_nodes]))
    np.testing.assert_array_equal(joined, np.arange(g.n_nodes))


def test_rectangle_grid_rejects_degenerate_extents():
    with pytest.raises(ValueError):
        build_rectangle_grid(2, 2, (0, 0, 0, 1))
    with pytest.raises(ValueError):
        build_rectangle_grid(1, 2, (0, 1, 0, 1))


def test_gradient_exact_on_linear_1d():
    g = build_interval_grid(13, 0.0, 1.0)
    u = ScalarField.from_function(g, lambda x: x)
    np.testing.assert_allclose(gradient_values(g, u.values).ravel(), 1.0, atol=1e-12)


def test_gradient_of_constant_vanishes():
    g = build_rectangle_grid(4, 4, (0, 1, 0, 1))
    u = ScalarField.constant(g, 3.7)
    np.testing.assert_allclose(gradient_values(g, u.values), 0.0, atol=1e-12)


def test_gradient_exact_on_affine_2d():
    g = build_rectangle_grid(5, 3, (0, 2, -1, 1))
    u = ScalarField.from_function(g, lambda x, y: 2 * x + 3 * y)
    vectors = gradient_values(g, u.values)
    np.testing.assert_allclose(vectors[:, 0], 2.0, atol=1e-12)
    np.testing.assert_allclose(vectors[:, 1], 3.0, atol=1e-12)


def test_gradient_exact_on_random_affine():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c = rng.uniform(-5, 5, 3)
        g = build_rectangle_grid(4, 6, (0, 1, 0, 3))
        u = ScalarField.from_function(g, lambda x, y: a * x + b * y + c)
        vectors = gradient_values(g, u.values)
        np.testing.assert_allclose(vectors[:, 0], a, atol=1e-12)
        np.testing.assert_allclose(vectors[:, 1], b, atol=1e-12)


def test_integrate_constant_is_measure():
    for n in (2, 9, 31):
        g = build_interval_grid(n, 0.0, 1.0)
        assert abs(integrate_nodal(ScalarField.constant(g, 1.0)) - 1.0) <= 1e-12
    g2 = build_rectangle_grid(5, 5, (0, 1, 0, 1))
    assert abs(integrate_nodal(ScalarField.constant(g2, 1.0)) - 1.0) <= 1e-12


def test_integrate_linear_exact():
    g = build_interval_grid(100, 0.0, 1.0)
    u = ScalarField.from_function(g, lambda x: x)
    assert abs(integrate_nodal(u) - 0.5) <= 1e-12


def test_node_masses_sum_to_measure():
    g = build_rectangle_grid(6, 3, (0, 2, 0, 1))
    assert abs(g.node_mass.sum() - 2.0) <= 1e-12
    assert np.all(g.node_mass > 0)


def test_edges_unique_and_cover_elements():
    g = build_rectangle_grid(3, 3, (0, 1, 0, 1))
    edges = {tuple(e) for e in g.edges}
    assert len(edges) == len(g.edges)
    for tri in g.elements:
        for i, j in ((0, 1), (1, 2), (0, 2)):
            assert tuple(sorted((tri[i], tri[j]))) in edges


@pytest.mark.parametrize("n", [16, 64])
def test_discrete_integration_by_parts_1d(n):
    # gradient of a zero-boundary P1 field integrates to zero against affine
    # test gradients (the discrete counterpart has no boundary term)
    g = build_interval_grid(n, 0.0, 1.0)
    u = ScalarField.from_function(g, lambda x: np.sin(np.pi * x))
    w_slope = 2.5
    total = float(
        (gradient_values(g, u.values)[:, 0] * w_slope) @ g.element_volume
    )
    assert abs(total) <= 1e-12 * n


def test_discrete_integration_by_parts_2d():
    g = build_rectangle_grid(8, 8, (0, 1, 0, 1))
    rng = np.random.default_rng(3)
    vals = rng.uniform(0, 1, g.n_nodes)
    vals[g.boundary_nodes] = 0.0
    u = ScalarField(g, vals)
    slope = np.array([1.5, -0.5])
    total = float((gradient_values(g, u.values) @ slope) @ g.element_volume)
    assert abs(total) <= 1e-12 * g.n_elements


def test_fields_validate_shape_and_finiteness():
    g = build_interval_grid(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        ScalarField(g, np.ones(3))
    with pytest.raises(ValueError):
        ScalarField(g, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))


def test_grid_arrays_immutable():
    g = build_interval_grid(4, 0.0, 1.0)
    with pytest.raises(ValueError):
        g.nodes[0, 0] = 5.0


def test_field_copies_a_writable_input_and_leaves_it_writable():
    g = build_interval_grid(4, 0.0, 1.0)
    mine = np.zeros(5)
    field = ScalarField(g, mine)
    assert mine.flags.writeable
    mine[0] = 7.0
    assert field.values[0] == 0.0
    # a contiguous view of a writable array is no safer than the array itself
    base = np.zeros(5)
    for view in (base[:], base[:].view()):
        view.setflags(write=False)
        field = ScalarField(g, view)
        base[0] = 7.0
        assert field.values[0] == 0.0
        base[0] = 0.0


# ---- loop references for the vectorized mesh tables -----------------------


def triangle_tables(nodes, elements):
    """Twice the signed areas and the P1 hat gradients of a triangle table."""
    p0, p1, p2 = (nodes[elements[:, k]] for k in range(3))
    det = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    coeffs = np.empty((len(elements), 3, 2))
    for local, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        pj, pk = nodes[elements[:, j]], nodes[elements[:, k]]
        coeffs[:, local, 0] = (pj[:, 1] - pk[:, 1]) / det
        coeffs[:, local, 1] = (pk[:, 0] - pj[:, 0]) / det
    return det, coeffs


def loop_rectangle_grid(nx, ny, extents):
    """build_rectangle_grid as a loop over cells and boundary nodes."""
    xmin, xmax, ymin, ymax = (float(v) for v in extents)
    xs = np.linspace(xmin, xmax, nx + 1)
    ys = np.linspace(ymin, ymax, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([gx.ravel(), gy.ravel()])

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
    det, coeffs = triangle_tables(nodes, elements)
    boundary, interior = [], []
    for node in range(len(nodes)):
        ix, iy = node % (nx + 1), node // (nx + 1)
        if ix in (0, nx) or iy in (0, ny):
            boundary.append(node)
        else:
            interior.append(node)
    return Grid(2, nodes, elements, 0.5 * np.abs(det), coeffs, np.array(boundary),
                np.array(interior))


@pytest.mark.parametrize("nx,ny", [(2, 2), (7, 5), (3, 8), (64, 64)])
def test_rectangle_grid_equals_loop_reference(nx, ny):
    """The builder takes element corners from slices of the node grid; the
    reference gathers them by node index (``triangle_tables``), bit for bit."""
    for extents in ((-0.3, 1.1, 0.0, 0.7), (-7.25, -1.5, -0.2, 3.3), (0.0, 1.0, 0.0, 1.0)):
        built = build_rectangle_grid(nx, ny, extents)
        expected = loop_rectangle_grid(nx, ny, extents)
        for field in dataclasses.fields(Grid):
            mine, theirs = getattr(built, field.name), getattr(expected, field.name)
            if isinstance(mine, np.ndarray):
                assert mine.dtype == theirs.dtype and mine.shape == theirs.shape, field.name
                assert mine.tobytes() == theirs.tobytes(), field.name
            else:
                assert mine == theirs


@pytest.mark.parametrize(
    "grid", [build_interval_grid(9, 0.0, 1.0), build_rectangle_grid(5, 4, (0, 1, 0, 1))],
    ids=["interval", "rectangle"],
)
def test_edges_and_neighbors_equal_loop_formulas(grid):
    if grid.dimension == 1:
        pairs = np.sort(grid.elements, axis=1)
    else:
        tri = grid.elements
        pairs = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]), axis=1)
    expected = np.unique(pairs, axis=0)
    assert grid.edges.dtype == expected.dtype
    np.testing.assert_array_equal(grid.edges, expected)
    adjacency = [[] for _ in range(grid.n_nodes)]
    for i, j in expected:
        adjacency[i].append(j)
        adjacency[j].append(i)
    indptr, indices = grid.node_neighbors
    assert len(indptr) == grid.n_nodes + 1
    for node, nbrs in enumerate(adjacency):
        mine = indices[indptr[node]:indptr[node + 1]]
        expected_nbrs = np.array(sorted(nbrs), dtype=int)
        assert mine.dtype == expected_nbrs.dtype
        np.testing.assert_array_equal(mine, expected_nbrs)


# ---- the assembly path of each mesh ----------------------------------------


def with_elements(grid, order, grad_coeffs=None):
    """The same nodes and boundary with the elements taken in ``order``."""
    frozen = {
        "elements": grid.elements[order],
        "element_volume": grid.element_volume[order],
        "element_grad_coeffs": (grad_coeffs if grad_coeffs is not None
                                else grid.element_grad_coeffs)[order],
    }
    for arr in frozen.values():
        arr.setflags(write=False)
    return dataclasses.replace(grid, **frozen)


def test_rectangle_meshes_take_the_stencil_path():
    for nx, ny in ((2, 2), (7, 5), (3, 8)):
        assembly = build_rectangle_grid(nx, ny, (0.0, 1.0, 0.0, 0.5)).assembly
        assert assembly.cells == (ny, nx)
        assert assembly.elements is None and assembly.grad_coeffs is None
    for n in (2, 6, 128):
        assembly = build_interval_grid(n, 0.0, 1.0).assembly
        assert assembly.cells == (n,)
        assert assembly.elements is None and assembly.grad_coeffs is None


def test_rectangle_table_with_a_nonzero_dropped_coefficient_takes_the_generic_path():
    grid = build_rectangle_grid(4, 3, (0.0, 1.0, 0.0, 1.0))
    coeffs = np.array(grid.element_grad_coeffs)
    coeffs[5, 2, 0] = 1e-300  # triangle B of cell 2, local node 2, x: a kept term
    assert with_elements(grid, np.arange(grid.n_elements), coeffs).assembly.cells == (3, 4)
    coeffs[4, 2, 0] = 1e-300  # triangle A of cell 2, local node 2, x: a dropped term
    assert with_elements(grid, np.arange(grid.n_elements), coeffs).assembly.cells is None


def test_permuted_rectangle_takes_the_generic_path_and_agrees():
    def close(mine, theirs):
        np.testing.assert_allclose(mine, theirs, rtol=1e-13, atol=1e-13 * np.abs(theirs).max())

    for grid in (build_rectangle_grid(9, 6, (0.0, 1.5, -0.5, 0.5)), build_interval_grid(40, -0.5, 1.0)):
        order = np.random.default_rng(4).permutation(grid.n_elements)
        generic = with_elements(grid, order)
        assert generic.assembly.cells is None
        rng = np.random.default_rng(8)
        values, scale = rng.uniform(-1.0, 2.0, grid.n_nodes), rng.uniform(0.1, 3.0, grid.n_elements)
        stencil, fallback = grid.assembly, generic.assembly
        grads = stencil.gradients(values)
        assert grads.shape == (grid.dimension, grid.n_elements)
        close(grads[:, order], fallback.gradients(values))
        close(stencil.norms(grads)[order], fallback.norms(fallback.gradients(values)))
        bands, generic_bands = stencil.edge_bands(scale), fallback.edge_bands(scale[order])
        close(stencil.band_product(bands, values), fallback.band_product(generic_bands, values))
        close(stencil.band_diagonal(bands), fallback.band_diagonal(generic_bands))


@pytest.mark.parametrize(
    "nx, ny, extents", [(7, 5, (0.0, 1.0, 0.0, 1.0)), (20, 12, (0.0, 1.0, 0.0, 0.6))], ids=["7x5", "20x12"]
)
def test_flat_x_band_holds_zeros_where_a_row_ends(nx, ny, extents):
    def close(mine, theirs):
        np.testing.assert_allclose(mine, theirs, rtol=1e-13, atol=1e-13 * np.abs(theirs).max())

    grid = build_rectangle_grid(nx, ny, extents)
    stencil = grid.assembly
    assert stencil.strides == (nx + 1, 1)
    rng = np.random.default_rng(6)
    scale = rng.uniform(0.1, 3.0, grid.n_elements)
    bands = stencil.edge_bands(scale)
    assert [len(band) for band in bands] == [grid.n_nodes - nx - 1, grid.n_nodes - 1]
    row_ends = np.arange(nx, grid.n_nodes - 1, nx + 1)  # no x edge to the next row's first node
    assert len(row_ends) == ny
    assert np.all(bands[1][row_ends] == 0.0)
    assert np.all(np.delete(bands[1], row_ends) > 0.0) and np.all(bands[0] > 0.0)
    # a 1e6 jump from each row's last node to the next row's first, against bincount
    values = 1e6 * grid.nodes[:, 0] + rng.uniform(-1.0, 1.0, grid.n_nodes)
    order = np.random.default_rng(4).permutation(grid.n_elements)
    fallback = with_elements(grid, order).assembly
    assert fallback.cells is None
    generic_bands = fallback.edge_bands(scale[order])
    close(stencil.band_product(bands, values), fallback.band_product(generic_bands, values))
    close(stencil.band_diagonal(bands), fallback.band_diagonal(generic_bands))


def distorted_mesh(nx, ny, seed):
    """A builder rectangle with its interior nodes moved by up to 0.4 cell widths
    and its elements shuffled: obtuse triangles, off the stencil path."""
    grid = build_rectangle_grid(nx, ny, (0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(seed)
    nodes = np.array(grid.nodes)
    nodes[grid.interior_nodes] += rng.uniform(-0.4, 0.4, (len(grid.interior_nodes), 2)) / (nx, ny)
    elements = grid.elements[rng.permutation(grid.n_elements)]
    det, coeffs = triangle_tables(nodes, elements)
    assert np.all(det > 0.0)
    return Grid(2, nodes, elements, 0.5 * det, coeffs, grid.boundary_nodes, grid.interior_nodes)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edge_form_equals_a_dense_stiffness_on_obtuse_permuted_meshes(seed):
    grid = distorted_mesh(9, 7, seed)
    assembly = grid.assembly
    assert assembly.cells is None
    coeffs = grid.element_grad_coeffs
    local = np.einsum("eid,ejd->eij", coeffs, coeffs)
    assert (local[:, [0, 0, 1], [1, 2, 2]] > 0.0).any()  # an obtuse angle: a negative edge weight
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-8.0, 8.0, grid.n_elements)
    dense = np.zeros((grid.n_nodes, grid.n_nodes))
    for element, stiffness in zip(grid.elements, scale[:, None, None] * local):
        dense[np.ix_(element, element)] += stiffness
    bands = assembly.edge_bands(scale)
    assert (bands[0] < 0.0).any()
    np.testing.assert_allclose(assembly.band_diagonal(bands), np.diag(dense), rtol=1e-13, atol=0.0)
    u, v = rng.normal(size=(2, grid.n_nodes))
    expected = dense @ v
    assert np.abs(assembly.band_product(bands, v) - expected).max() <= 1e-13 * np.abs(expected).max()
    # symmetric to roundoff: u . K v = v . K u
    ku, kv = assembly.band_product(bands, u), assembly.band_product(bands, v)
    assert abs(u @ kv - v @ ku) <= 1e-13 * np.abs(u).sum() * np.abs(kv).max()


def edge_meshes():
    """Builder intervals and rectangles (nx != ny too), the same with shuffled
    elements, and obtuse distorted rectangles."""
    builders = [build_interval_grid(2, 0.0, 1.0), build_interval_grid(128, -0.5, 1.0),
                build_rectangle_grid(2, 2, (0.0, 1.0, 0.0, 1.0)),
                build_rectangle_grid(7, 5, (0.0, 1.0, 0.0, 0.6)),
                build_rectangle_grid(3, 8, (0.0, 1.0, 0.0, 1.0)),
                build_rectangle_grid(32, 32, (0.0, 1.0, 0.0, 1.0))]
    shuffled = [with_elements(g, np.random.default_rng(4).permutation(g.n_elements)) for g in builders]
    return builders + shuffled + [distorted_mesh(9, 7, seed) for seed in (0, 1, 2)]


def test_edges_equal_the_np_unique_table():
    for grid in edge_meshes():
        n = grid.n_nodes
        if grid.dimension == 1:
            pairs = np.sort(grid.elements, axis=1)
        else:
            tri = grid.elements
            pairs = np.sort(np.vstack([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]]), axis=1)
        expected = np.column_stack(np.divmod(np.unique(pairs[:, 0] * n + pairs[:, 1]), n))
        edges = grid.edges
        assert edges.dtype == expected.dtype and edges.shape == expected.shape
        assert edges.tobytes() == expected.tobytes()
        assert not edges.flags.writeable
