"""Uniform grids.

Everything downstream works on two kinds of grids: a spatial grid (lattice
nodes of a box, endpoints included) carrying finite samples of potentials
and obstacles, and a moment grid (cell centers of the bounding box of a
convex body) carrying Legendre duals.  What lives on them is in
``duality``: ``SampledFunction`` on a spatial grid, ``DualPotential`` on a
moment grid.

A grid stores its axes once, when it is built, as read-only arrays, and
``axes()`` hands out those same arrays: every transform, quadrature and
evaluation on a grid reads its coordinates without recomputing them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Invalid grid, body or experiment configuration."""


def check_p(p: float) -> None:
    """The metric exponent must be finite and at least 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ConfigurationError(f"need a finite p >= 1, got {p}")


def _spacing(lo, hi, cells) -> tuple:
    return tuple((h - l) / c for l, h, c in zip(lo, hi, cells))


def _keep_axes(grid, axes) -> None:
    """Store ``axes`` on the frozen ``grid``, read-only, for ``axes()`` to return."""
    for a in axes:
        a.flags.writeable = False
    object.__setattr__(grid, "_axes", tuple(axes))


def tensor_nodes(axes: list[np.ndarray]) -> np.ndarray:
    """All points of the tensor grid of ``axes``, shape (N, ndim)."""
    if len(axes) == 1:
        return axes[0][:, None]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform lattice on a box; nodes include both endpoints per axis."""

    lo: tuple
    hi: tuple
    cells: tuple
    _axes: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        object.__setattr__(self, "cells", tuple(int(c) for c in self.cells))
        n = len(self.lo)
        if n not in (1, 2) or len(self.hi) != n or len(self.cells) != n:
            raise ConfigurationError("grid dimension must be 1 or 2 and consistent")
        for lo, hi, c in zip(self.lo, self.hi, self.cells):
            if not lo < hi:
                raise ConfigurationError(f"need lo < hi, got [{lo}, {hi}]")
            if c < 8:
                raise ConfigurationError(f"need at least 8 cells per axis, got {c}")
        _keep_axes(self, [np.linspace(l, h, c + 1)
                          for l, h, c in zip(self.lo, self.hi, self.cells)])

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def spacing(self) -> tuple:
        return _spacing(self.lo, self.hi, self.cells)

    @property
    def shape(self) -> tuple:
        return tuple(c + 1 for c in self.cells)

    def axes(self) -> list[np.ndarray]:
        """The node coordinates per axis, endpoints included; read-only, stored once."""
        return list(self._axes)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (N, ndim)."""
        return tensor_nodes(self.axes())


@dataclass(frozen=True)
class MomentGrid:
    """Cell-center grid over the bounding box of a convex body.

    Nodes whose center lies in the body get the full cell volume as weight,
    others get zero.  For intervals (n=1) the weights sum exactly to the
    body volume; for polygons the boundary error is O(h * perimeter).
    ``moment_grid`` builds it and keeps the cell centers it reads the mask
    from as the grid's axes.
    """

    lo: tuple
    hi: tuple
    cells: tuple
    mask: np.ndarray = field(compare=False)
    weights: np.ndarray = field(compare=False)
    _axes: tuple = field(init=False, compare=False, repr=False)

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def spacing(self) -> tuple:
        return _spacing(self.lo, self.hi, self.cells)

    @property
    def shape(self) -> tuple:
        return tuple(self.cells)

    def axes(self) -> list[np.ndarray]:
        """The cell centers per axis; read-only, stored once by ``moment_grid``."""
        return list(self._axes)

    def nodes(self) -> np.ndarray:
        return tensor_nodes(self.axes())


def moment_grid(body, cells) -> MomentGrid:
    """Build the cell-center grid over ``body``'s bounding box."""
    lo, hi = body.bounding_box()
    cells = (cells,) * body.ndim if np.isscalar(cells) else tuple(int(c) for c in cells)
    if any(c < 8 for c in cells):
        raise ConfigurationError("need at least 8 moment cells per axis")
    centers = [l + (np.arange(c) + 0.5) * s
               for l, c, s in zip(lo, cells, _spacing(lo, hi, cells))]
    mask = body.contains(tensor_nodes(centers)).reshape(cells)
    if not mask.any():
        raise ConfigurationError("body has no interior at this resolution")
    weights = np.where(mask, float(np.prod(_spacing(lo, hi, cells))), 0.0)
    grid = MomentGrid(tuple(lo), tuple(hi), cells, mask, weights)
    _keep_axes(grid, centers)
    return grid
