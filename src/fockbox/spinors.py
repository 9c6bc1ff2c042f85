"""Free-particle Dirac spinors and the relativistic dispersion relation.

Standard (Dirac) representation with a fixed spin quantization axis (z):

    u^s(p) = ( sqrt(E + m c^2) xi_s,  c sigma.p / sqrt(E + m c^2) xi_s )
    v^s(p) = ( c sigma.p / sqrt(E + m c^2) xi_s,  sqrt(E + m c^2) xi_s )

with xi_1 = (1,0), xi_2 = (0,1) and E = sqrt(m^2 c^4 + |p|^2 c^2).  This
normalizes u+u = v+v = 2E and gives u+(p) v(-p) = 0 exactly, matching the
1/sqrt(2E) measure of the plane-wave expansion.  One-dimensional runs embed
the momentum along the z axis, so the same four-component spinors serve
every dimension.
"""

from __future__ import annotations

import numpy as np

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)
_XI = (np.array([1.0, 0.0], dtype=np.complex128), np.array([0.0, 1.0], dtype=np.complex128))


def embed_momentum(p) -> np.ndarray:
    """Map a d-dimensional momentum to a 3-vector (1D runs use the z axis)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if p.size == 3:
        return p
    if p.size == 1:
        return np.array([0.0, 0.0, p[0]])
    raise ValueError(f"momentum must have 1 or 3 components, got {p.size}")


def energy(m: float, c: float, p) -> float:
    """Relativistic dispersion E(p) = sqrt(m^2 c^4 + |p|^2 c^2)."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    return float(np.sqrt((m * c * c) ** 2 + float(p @ p) * c * c))


def u_spinor(m: float, c: float, p, spin: int) -> np.ndarray:
    p3 = embed_momentum(p)
    e = energy(m, c, p3)
    root = np.sqrt(e + m * c * c)
    sig_p = sum(pk * sk for pk, sk in zip(p3, _SIGMA))
    xi = _XI[spin - 1]
    return np.concatenate([root * xi, (c / root) * (sig_p @ xi)])


def v_spinor(m: float, c: float, p, spin: int) -> np.ndarray:
    p3 = embed_momentum(p)
    e = energy(m, c, p3)
    root = np.sqrt(e + m * c * c)
    sig_p = sum(pk * sk for pk, sk in zip(p3, _SIGMA))
    xi = _XI[spin - 1]
    return np.concatenate([(c / root) * (sig_p @ xi), root * xi])


class SpinorTable:
    """u/v spinors and energies tabulated over a momentum lattice.

    Keys are (spin, n) with n the integer lattice vector; physical momenta
    are p = (2 pi hbar / L) n.
    """

    def __init__(self, m: float, c: float, hbar: float, box_l: float, lattice):
        dp = 2.0 * np.pi * hbar / box_l
        self.u: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self.v: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self.e: dict[tuple[int, ...], float] = {}
        for n in lattice:
            p = dp * np.asarray(n, dtype=float)
            self.e[tuple(n)] = energy(m, c, p)
            for s in (1, 2):
                self.u[(s, tuple(n))] = u_spinor(m, c, p, s)
                self.v[(s, tuple(n))] = v_spinor(m, c, p, s)

    def lattice(self):
        return tuple(self.e.keys())
