"""Plane-wave spinor invariants and the dispersion relation."""

import numpy as np
import pytest

from fockbox.spinors import SpinorTable, embed_momentum, energy, u_spinor, v_spinor


def test_rest_energy():
    assert energy(1.0, 1.0, [0.0, 0.0, 0.0]) == pytest.approx(1.0)
    assert energy(2.0, 3.0, [0.0]) == pytest.approx(2.0 * 9.0)


def test_massless_linear_dispersion():
    # |p| = 5 in lattice units (2 pi hbar / L) with L = 2 pi, hbar = 1
    c = 1.0
    assert energy(0.0, c, [5.0, 0.0, 0.0]) == pytest.approx(5.0 * c)


def test_dispersion_symmetric():
    for p in ([1.0, -2.0, 0.5], [0.3]):
        assert energy(1.0, 1.0, p) == pytest.approx(energy(1.0, 1.0, [-x for x in p]))


def test_rest_frame_spinor_structure():
    m, c = 1.3, 1.0
    for s in (1, 2):
        u = u_spinor(m, c, [0.0, 0.0, 0.0], s)
        expected_upper = np.sqrt(2.0 * m * c * c)
        assert u[s - 1] == pytest.approx(expected_upper)
        assert np.abs(u[2:]).max() == 0.0


@pytest.mark.parametrize("m,c,hbar", [(1.0, 1.0, 1.0), (2.5, 0.7, 1.3)])
def test_normalization_2e(rng, m, c, hbar):
    for _ in range(10):
        p = rng.standard_normal(3) * 2.0
        e = energy(m, c, p)
        for s in (1, 2):
            u = u_spinor(m, c, p, s)
            v = v_spinor(m, c, p, s)
            assert np.vdot(u, u).real == pytest.approx(2.0 * e, rel=1e-12)
            assert np.vdot(v, v).real == pytest.approx(2.0 * e, rel=1e-12)


def test_spin_orthogonality(rng):
    for _ in range(10):
        p = rng.standard_normal(3)
        u1 = u_spinor(1.0, 1.0, p, 1)
        u2 = u_spinor(1.0, 1.0, p, 2)
        assert abs(np.vdot(u1, u2)) <= 1e-12


def test_u_v_cross_orthogonality(rng):
    # u+(p) v(-p) = 0, the relation that removes b-d cross terms from the
    # free charge and Hamiltonian mode sums
    for _ in range(10):
        p = rng.standard_normal(3) * 1.5
        for s1 in (1, 2):
            for s2 in (1, 2):
                u = u_spinor(1.0, 1.0, p, s1)
                v = v_spinor(1.0, 1.0, -p, s2)
                assert abs(np.vdot(u, v)) <= 1e-12


def test_embed_momentum_rejects_two_components():
    with pytest.raises(ValueError, match="momentum must have 1 or 3 components, got 2"):
        embed_momentum([1.0, 0.0])


def test_table_invariants():
    lattice = [(n,) for n in (-1, 0, 1)]
    table = SpinorTable(1.0, 1.0, 1.0, 2.0 * np.pi, lattice)
    for n in table.lattice():
        e = table.e[n]
        for s in (1, 2):
            u = table.u[(s, n)]
            v = table.v[(s, n)]
            assert np.vdot(u, u).real == pytest.approx(2.0 * e, rel=1e-12)
            assert np.vdot(v, v).real == pytest.approx(2.0 * e, rel=1e-12)
        minus = tuple(-c for c in n)
        for s1 in (1, 2):
            for s2 in (1, 2):
                assert abs(np.vdot(table.u[(s1, n)], table.v[(s2, minus)])) <= 1e-12
