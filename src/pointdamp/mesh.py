"""Two-sided meshes on [0,1] with a node pinned at the actuator position."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Mesh", "build_mesh"]


@dataclass(frozen=True)
class Mesh:
    """Uniform-per-side grid on [0,1] whose node set contains xi exactly once.

    nodes[0] == 0, nodes[i_xi] == xi, nodes[-1] == 1.  Spacing is uniform on
    each side but generally differs between sides.

    build_mesh fixes every node bit for bit from xi, n_left and n_right:
    nodes[j] == j * (xi / n_left) for j < n_left, nodes[n_left] == xi,
    nodes[n_left + j] == xi + j * ((1 - xi) / n_right) for 0 < j < n_right,
    and nodes[-1] == 1.0.  It caches no weights: simulator.energy forms its own.
    """

    xi: float
    n_left: int
    n_right: int
    nodes: np.ndarray = field(repr=False)

    @property
    def i_xi(self) -> int:
        """Index of the xi node: the n_left cells of [0, xi] precede it."""
        return self.n_left

    @property
    def h_left(self) -> float:
        return self.xi / self.n_left

    @property
    def h_right(self) -> float:
        return (1.0 - self.xi) / self.n_right

    @property
    def left(self) -> np.ndarray:
        """Nodes of [0, xi], endpoint included."""
        return self.nodes[: self.i_xi + 1]

    @property
    def right(self) -> np.ndarray:
        """Nodes of [xi, 1], endpoint included."""
        return self.nodes[self.i_xi :]

    def split(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Split a full-grid function into (left, right) halves sharing the xi node."""
        values = np.asarray(values)
        if values.shape[-1] != self.nodes.size:
            raise ValueError("grid function does not match mesh")
        return values[..., : self.i_xi + 1], values[..., self.i_xi :]


def build_mesh(xi: float, n_left: int, n_right: int) -> Mesh:
    """Build a mesh on [0,1] with n_left cells on [0,xi] and n_right on [xi,1]."""
    if not 0.0 < xi < 1.0:
        raise ValueError(f"actuator position must lie in (0,1), got {xi}")
    if n_left < 2 or n_right < 2:
        raise ValueError("need at least 2 cells per side")
    left = np.linspace(0.0, xi, n_left + 1)
    right = np.linspace(xi, 1.0, n_right + 1)
    nodes = np.concatenate([left, right[1:]])
    return Mesh(xi=float(xi), n_left=n_left, n_right=n_right, nodes=nodes)
