"""Deterministic uniform sampling on Euclidean balls and spheres."""

from __future__ import annotations

import numpy as np


def sample_sphere(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows uniform on the unit sphere in R^dim, shape (count, dim)."""
    g = rng.standard_normal((count, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return g / norms


def sample_ball(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """Rows uniform on the closed unit ball in R^dim, shape (count, dim).

    A normalized Gaussian direction is scaled by U^(1/dim) with U uniform on
    (0, 1), which is the exact radial law of the uniform ball distribution.
    """
    if dim == 0:
        return np.zeros((count, 0))
    directions = sample_sphere(rng, count, dim)
    radii = rng.random(count) ** (1.0 / dim)
    return directions * radii[:, None]
