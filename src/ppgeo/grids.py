"""Uniform grids.

Everything downstream works on two kinds of grids: a spatial grid (lattice
nodes of a box, endpoints included) carrying finite samples of potentials
and obstacles, and a moment grid (cell centers of the bounding box of a
convex body) carrying Legendre duals.  What lives on them is in
``duality``: ``SampledFunction`` on a spatial grid, ``DualPotential`` on a
moment grid.

A moment grid keeps its body: it is built from the body and the cell
counts, compares by them, and every dual on it reads its body from it.
Both grids build their box with ``_box`` in ``__post_init__``, which
validates it and stores the axes once, as read-only arrays; ``_Grid`` reads
dimension, spacing, shape and nodes off them, and ``axes()`` hands out those
same arrays, so every transform, quadrature and evaluation on a grid reads
its coordinates without recomputing them.

Moment grids that one forward transform serves together form a
``GridStack`` (``grid_stack``): the grids, their query axes joined and
sorted, one flat gather (``take``) that reads the transform as each grid's
block, grid after grid, and the positive-weight cells, weights, block ends
and body volumes that the endpoint formula reads.  Every moment grid holds
its own one-grid stack and an ``EpsilonFamily`` holds the stack of its
grids; every multi-grid operation takes a stack, and none builds one.
Routes that pair duals check that they share a grid with ``common_grid``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np


class ConfigurationError(ValueError):
    """Invalid grid, body or experiment configuration."""


def check_p(p: float) -> None:
    """The metric exponent must be finite and at least 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ConfigurationError(f"need a finite p >= 1, got {p}")


def check_body(body, grid) -> None:
    """A dual's body is its moment grid's body."""
    if body != grid.body:
        raise ConfigurationError("the body is not the body of the moment grid")


def tensor_nodes(axes: list[np.ndarray]) -> np.ndarray:
    """All points of the tensor grid of ``axes``, shape (N, ndim)."""
    if len(axes) == 1:
        return axes[0][:, None]
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([a.ravel() for a in g], axis=1)


def _box(lo, hi, cells, centers: bool) -> dict:
    """The validated box of a grid and its read-only axes: cell centers or lattice nodes."""
    lo, hi = tuple(float(v) for v in lo), tuple(float(v) for v in hi)
    cells = tuple(int(c) for c in cells)
    n = len(lo)
    if n not in (1, 2) or len(hi) != n or len(cells) != n:
        raise ConfigurationError("grid dimension must be 1 or 2 and consistent")
    for l, h, c in zip(lo, hi, cells):
        if not l < h:
            raise ConfigurationError(f"need lo < hi, got [{l}, {h}]")
        if c < 8:
            raise ConfigurationError(f"need at least 8 cells per axis, got {c}")
    if centers:
        axes = [l + (np.arange(c) + 0.5) * ((h - l) / c) for l, h, c in zip(lo, hi, cells)]
    else:
        axes = [np.linspace(l, h, c + 1) for l, h, c in zip(lo, hi, cells)]
    for a in axes:
        a.flags.writeable = False
    return {"lo": lo, "hi": hi, "cells": cells, "_axes": tuple(axes)}


class _Grid:
    """What both grids read off their box: dimension, spacing, shape, axes and nodes."""

    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def spacing(self) -> tuple:
        return tuple((h - l) / c for l, h, c in zip(self.lo, self.hi, self.cells))

    @property
    def shape(self) -> tuple:
        return tuple(len(a) for a in self._axes)

    def axes(self) -> list[np.ndarray]:
        """The coordinates per axis; read-only, stored once when the grid is built."""
        return list(self._axes)

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape (N, ndim)."""
        return tensor_nodes(self.axes())


@dataclass(frozen=True)
class SpatialGrid(_Grid):
    """Uniform lattice on a box; nodes include both endpoints per axis."""

    lo: tuple
    hi: tuple
    cells: tuple
    _axes: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        for name, value in _box(self.lo, self.hi, self.cells, centers=False).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class MomentGrid(_Grid):
    """Cell-center grid over the bounding box of a convex body, compared by body and cells.

    ``cells`` is a count per axis, or one count for every axis.  Nodes whose
    center lies in the body get the full cell volume as weight, others get
    zero.  For intervals (n=1) the weights sum exactly to the body volume;
    for polygons the boundary error is O(h * perimeter).  ``stack`` is the
    grid's own ``GridStack``, which ``dp_endpoint`` and ``to_dual`` read.
    """

    body: object  # a ``bodies.Body``
    cells: tuple
    lo: tuple = field(init=False, compare=False)
    hi: tuple = field(init=False, compare=False)
    mask: np.ndarray = field(init=False, compare=False, repr=False)
    weights: np.ndarray = field(init=False, compare=False, repr=False)
    _axes: tuple = field(init=False, compare=False, repr=False)
    stack: GridStack = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        cells = (self.cells,) * self.body.ndim if np.isscalar(self.cells) else self.cells
        for name, value in _box(*self.body.bounding_box(), cells, centers=True).items():
            object.__setattr__(self, name, value)
        mask = self.body.contains(self.nodes()).reshape(self.shape)
        if not mask.any():
            raise ConfigurationError("body has no interior at this resolution")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "weights", np.where(mask, float(np.prod(self.spacing)), 0.0))
        object.__setattr__(self, "stack", grid_stack((self,)))


def moment_grid(body, cells) -> MomentGrid:
    """Build the cell-center grid over ``body``'s bounding box."""
    return MomentGrid(body, cells)


@dataclass(frozen=True, eq=False)
class GridStack:
    """Moment grids stacked grid after grid: the layout of one forward transform onto all of them.

    Per axis, ``queries`` holds every grid's coordinates in ascending order,
    so that each 1d pass of the transform can fill its hull pieces
    (``duality.conjugate_1d``).  ``take`` is the one gather that reads the
    ravelled transform on them as each grid's block, ravelled, grid after
    grid, in any dimension (in 2d a grid's block pairs its own two axes); it
    is None on a one-grid stack, whose transform is its block.  The
    positive-weight cells of the stacked blocks are ``pos`` (None when every
    cell is positive, as on an interval, whose box is the interval), with
    their ``weights``, the end of each grid's cells among them (``ends``)
    and each body's volume (``volumes``).
    """

    grids: tuple
    queries: tuple
    take: np.ndarray | None
    pos: np.ndarray | None
    weights: np.ndarray
    ends: tuple
    volumes: tuple


def grid_stack(grids) -> GridStack:
    """The layout of ``grids``, stacked grid after grid; grids and families build theirs once.

    Each axis's stacked coordinates are sorted here, once; an axis that
    already ascends (a grid's own) is stored as it stands, not copied.
    """
    if not grids:
        raise ConfigurationError("need at least one moment grid")
    if len({g.ndim for g in grids}) > 1:
        raise ConfigurationError("the moment grids differ in dimension")
    stacked = [_end_to_end(axes) for axes in zip(*(g.axes() for g in grids))]
    sorts = [None if (a[1:] >= a[:-1]).all() else np.argsort(a, kind="stable") for a in stacked]
    queries = tuple(a if s is None else a[s] for a, s in zip(stacked, sorts))
    take = None
    if len(grids) > 1:  # each grid's block of the ravelled transform, at its ranks per axis
        ranks = [np.arange(len(a)) if s is None else np.argsort(s) for a, s in zip(stacked, sorts)]
        cuts = np.cumsum([g.shape for g in grids[:-1]], axis=0).T
        take = np.concatenate([np.ravel_multi_index(np.ix_(*block), [len(q) for q in queries])
                               .ravel() for block in zip(*map(np.split, ranks, cuts))])
    mask = _end_to_end([g.mask.ravel() for g in grids])
    weights = _end_to_end([g.weights.ravel() for g in grids])
    pos = None if mask.all() else mask
    cells = itertools.accumulate(int(np.count_nonzero(g.mask)) for g in grids)
    return GridStack(tuple(grids), queries, take, pos, weights if pos is None else weights[pos],
                     tuple(cells), tuple(g.body.volume() for g in grids))


def common_grid(route: str, *duals) -> MomentGrid:
    """The moment grid that all ``duals`` share, or an error naming ``route``."""
    grid = duals[0].grid
    if any(d.grid != grid for d in duals[1:]):
        raise ConfigurationError(f"{route} needs a common moment grid")
    return grid


def _end_to_end(arrays: list) -> np.ndarray:
    """The arrays joined; one array as it stands, so a grid's own stack copies nothing."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
