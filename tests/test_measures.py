import math

import numpy as np
import pytest

from ppgeo import (
    SpatialGrid,
    default_class_body,
    dual_from_form,
    energy,
    i_p,
    ma_atomic,
    ma_density,
    ma_mixed_pair,
    moment_grid,
    pair_from_catalog,
    to_primal,
)
from ppgeo.corpus import random_dual_pairs
from ppgeo.measures import RequiresTruncationError

KLASS = default_class_body(1)
GRID = moment_grid(KLASS.p_body, 1024)
SPATIAL = SpatialGrid((-4.0,), (5.0,), (2048,))


def dual_energy_oracle(u):
    """Independent closed form: E(u) = -(1/vol) * integral of u* over P."""
    w = u.grid.weights
    return -float(np.sum(w * u.values)) / u.body.volume()


def test_mass_conservation_exact():
    for u, v in random_dual_pairs(42, 10, KLASS.p_body, GRID):
        for w in (u, v):
            assert ma_atomic(w).total_mass == pytest.approx(
                KLASS.volume, rel=1e-14
            )


def test_atoms_of_affine_dual_concentrate():
    u = dual_from_form("dual_ramp", GRID)
    atoms = ma_atomic(u)
    # dual u*(p) = p has gradient 1 everywhere: all mass at x = 1
    assert np.allclose(atoms.locations, 1.0, atol=1e-9)
    assert atoms.total_mass == pytest.approx(1.0)


def test_density_of_quadratic_dual():
    u = dual_from_form("dual_quadratic", GRID)
    field = ma_density(to_primal(u, SPATIAL))
    x = SPATIAL.axes()[0]
    inside = (x > 0.05) & (x < 0.95)
    # primal of p^2/2 restricted to [0,1] is x^2/2 there: density 1
    assert np.abs(field.density[inside] - 1.0).max() <= 0.05
    assert field.total == pytest.approx(1.0, abs=0.01)


def test_energy_of_reference_is_zero():
    v = dual_from_form("dual_zero", GRID)
    assert energy(v, SPATIAL) == pytest.approx(0.0, abs=1e-12)


def test_energy_of_ramp_dual():
    u = dual_from_form("dual_ramp", GRID)
    assert energy(u, SPATIAL) == pytest.approx(-0.5, abs=1e-3)


def test_energy_shift_rule():
    u = dual_from_form("dual_quadratic", GRID)
    c = 0.73
    assert energy(u.shift(c), SPATIAL) == pytest.approx(
        energy(u, SPATIAL) + c, abs=1e-9
    )


@pytest.mark.parametrize("form", ["dual_quadratic", "dual_vee", "dual_power_cusp"])
def test_energy_against_dual_oracle(form):
    u = dual_from_form(form, GRID)
    assert energy(u, SPATIAL) == pytest.approx(dual_energy_oracle(u), abs=2e-3)


def test_energy_rejects_singular_dual():
    from ppgeo.duality import DualPotential

    vals = dual_from_form("dual_log_barrier", GRID).values.copy()
    vals[-1] = np.inf
    u = DualPotential(KLASS.p_body, GRID, vals, provenance="singular")
    with pytest.raises(RequiresTruncationError):
        energy(u, SPATIAL)


def test_i1_crossing_pair_hand_value():
    u, v = pair_from_catalog("crossing_pair", GRID)
    # both measures are unit atoms (at x=1 and x=-1) where |u - v| = 1
    assert i_p(u, v, 1.0) == pytest.approx(2.0, rel=5e-3)


def test_ip_symmetry_and_zero():
    u, v = pair_from_catalog("quadratic_pair", GRID)
    assert i_p(u, v, 2.0) == pytest.approx(i_p(v, u, 2.0), rel=1e-12)
    assert i_p(u, u, 2.0) == 0.0


def test_ip_quasi_triangle():
    pairs = random_dual_pairs(7, 5, KLASS.p_body, GRID)
    (u, v), (w, _) = pairs[0], pairs[1]
    for p in (1.0, 2.0):
        lhs = i_p(u, v, p)
        rhs = i_p(u, w, p) + i_p(w, v, p)
        # quasi-triangle inequality with a dimensional constant
        assert lhs <= 2 ** (p + 1) * rhs + 1e-12


def test_2d_energy_affine_dual():
    klass = default_class_body(2)
    grid = moment_grid(klass.p_body, 64)
    sp = SpatialGrid((-3.0, -3.0), (4.0, 4.0), (128, 128))
    ax = grid.axes()
    P1, P2 = np.meshgrid(ax[0], ax[1], indexing="ij")
    from ppgeo import DualPotential

    u = DualPotential(klass.p_body, grid, P1 + 0.5 * P2, "affine")
    # dual oracle: -(1/vol) * integral of (p1 + p2/2) over the unit square
    assert energy(u, sp) == pytest.approx(-0.75, abs=5e-3)


def test_2d_energy_with_a_massless_mixed_measure():
    # on [1, 2]^2 the primal of dual_zero is affine, so the mixed measure has
    # no atoms and energy evaluates the primal at zero points
    klass = default_class_body(2)
    u = dual_from_form("dual_zero", moment_grid(klass.p_body, 16))
    sp = SpatialGrid((1.0, 1.0), (2.0, 2.0), (8, 8))
    assert ma_mixed_pair(u, u, sp).locations.shape == (0, 2)
    assert energy(u, sp) == 0.0
