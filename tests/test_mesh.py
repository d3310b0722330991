import numpy as np
import pytest

from pointdamp.mesh import Mesh, build_mesh


def test_uniform_halves():
    mesh = build_mesh(0.5, 4, 4)
    assert mesh.nodes.size == 9
    np.testing.assert_allclose(mesh.nodes, np.arange(9) / 8.0, atol=1e-15)
    assert mesh.i_xi == 4
    assert mesh.h_left == pytest.approx(0.125)
    assert mesh.h_right == pytest.approx(0.125)


def test_interface_node_exact():
    mesh = build_mesh(0.3, 3, 7)
    assert mesh.nodes[mesh.i_xi] == 0.3
    assert mesh.h_left == pytest.approx(0.1)
    assert mesh.h_right == pytest.approx(0.1)
    assert mesh.nodes[0] == 0.0
    assert mesh.nodes[-1] == 1.0
    assert np.all(np.diff(mesh.nodes) > 0)


def test_side_views_share_interface():
    mesh = build_mesh(0.25, 5, 9)
    left, right = mesh.split(mesh.nodes)
    assert left[-1] == mesh.xi
    assert right[0] == mesh.xi
    assert left.size == mesh.n_left + 1
    assert right.size == mesh.n_right + 1
    np.testing.assert_array_equal(np.concatenate([left, right[1:]]), mesh.nodes)


def test_split_grid_function():
    mesh = build_mesh(0.25, 5, 9)
    values = np.sin(mesh.nodes)
    lo, hi = mesh.split(values)
    assert lo[-1] == hi[0]
    np.testing.assert_array_equal(np.concatenate([lo, hi[1:]]), values)
    with pytest.raises(ValueError):
        mesh.split(values[:-1])


def test_mesh_built_directly_splits_at_xi():
    # the xi node's index is n_left however the Mesh is built, so split and
    # the side views never fall back to node 0
    nodes = build_mesh(0.25, 5, 9).nodes
    mesh = Mesh(0.25, 5, 9, nodes)
    assert mesh.i_xi == 5
    assert mesh.nodes[mesh.i_xi] == 0.25
    lo, hi = mesh.split(nodes)
    assert lo.size == 6 and hi.size == 10


def test_irrational_interface_spacing():
    xi = (np.sqrt(5.0) - 1.0) / 2.0
    mesh = build_mesh(xi, 1000, 1000)
    assert mesh.h_left == pytest.approx(xi / 1000.0)
    assert mesh.h_right == pytest.approx((1.0 - xi) / 1000.0)
    assert mesh.nodes[mesh.i_xi] == pytest.approx(xi, abs=1e-15)


@pytest.mark.parametrize("xi", [0.0, 1.0, -0.2, 1.4])
def test_rejects_out_of_range_interface(xi):
    with pytest.raises(ValueError):
        build_mesh(xi, 10, 10)


@pytest.mark.parametrize("n1,n2", [(0, 10), (10, 0), (-3, 5)])
def test_rejects_bad_cell_counts(n1, n2):
    with pytest.raises(ValueError):
        build_mesh(0.5, n1, n2)
