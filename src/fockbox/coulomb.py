"""Periodic Coulomb interaction kernels in momentum space.

The 1/|x-y| interaction on a periodic box enters every energy formula only
through its Fourier coefficients

    3D:  V(k) = 4 pi / |k|^2        (k = 2 pi q / L, q integer vector)
    1D:  V(k) = 2 K0(|k| a)         (softened kernel 1 / sqrt(x^2+a^2))

in units of length^(d-1).  They carry no charge, which enters each energy
once: by the classical densities, or by the quantum term's e^2/2V.  The
k = 0 coefficient diverges; by default it is set to zero, the uniform
neutralizing background, which only shifts charge-sector constants.  The
1D softening length a is a model choice (default L/100); 3D has none.
"""

from __future__ import annotations

import numpy as np
import numpy.fft  # noqa: F401  loaded on first use otherwise, in the middle of a run


def bessel_k0(x) -> np.ndarray:
    """Modified Bessel function of the second kind K0, elementwise:

        K0(x) = e^-x int_0^inf exp(-2 x sinh(t/2)^2) dt        (x > 0)

    (the integrand is exp(-x cosh t) e^x, written so that it loses no
    digits at large x) by the trapezoid rule, which converges geometrically
    for this smooth, doubly exponentially decaying integrand.  Arguments in
    one band [4^k, 4^(k+1)) share the nodes: step 0.1, or 0.7/sqrt(4^(k+1))
    when smaller (the integrand narrows as 1/sqrt(x)), up to the t where
    4^k (cosh t - 1) = 40.  Both errors then stay below about e^-39
    relative, and each value depends on its argument alone.  Each distinct
    argument is integrated once.  K0(0) = inf, K0(inf) = 0, and x < 0 gives
    nan.
    """
    x = np.asarray(x, dtype=float)
    args, where = np.unique(x, return_inverse=True)
    out = np.select([args == 0, args == np.inf], [np.inf, 0.0], np.nan)
    pos = np.flatnonzero((args > 0) & (args < np.inf))
    band = (np.frexp(args[pos])[1] - 1) // 2  # args[pos] in [4^band, 4^(band+1))
    low = int(band.min(initial=0))
    for k in np.flatnonzero(np.bincount(band - low)) + low:
        lo = 4.0 ** int(k)
        h = min(0.1, 0.35 / np.sqrt(lo))
        t = np.arange(0.0, np.arccosh(1.0 + 40.0 / lo) + h, h)
        weights = np.full(t.size, h)
        weights[0] = h / 2
        rise = 2.0 * np.sinh(t / 2.0) ** 2  # cosh t - 1
        a = args[pos[band == k]]
        out[pos[band == k]] = (np.exp(-np.outer(a, rise)) * weights).sum(axis=1) * np.exp(-a)
    return out[where].reshape(x.shape)


class CoulombKernel:
    """Map from integer momentum-transfer vectors q to kernel values V(q)."""

    def __init__(self, dimension: int, box_l: float, q0_value: float = 0.0,
                 a: float | None = None):
        if dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        self.dimension = dimension
        self.box_l = float(box_l)
        if not (np.isfinite(self.box_l) and self.box_l > 0):
            raise ValueError(f"box length box_l must be finite and > 0, got {box_l!r}")
        self.q0_value = float(q0_value)
        if not np.isfinite(self.q0_value):
            raise ValueError(f"q0_value must be finite, got {q0_value!r}")
        self.a = float(a) if a is not None else self.box_l / 100.0
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError(f"softening length a must be finite and > 0, got {self.a!r}")

    def value(self, q) -> float:
        """V(q) for one integer transfer vector q."""
        q = np.atleast_1d(np.asarray(q, dtype=np.int64))
        if q.size != self.dimension:
            raise ValueError(f"transfer vector has {q.size} components, expected {self.dimension}")
        return float(self.values(q.reshape(1, -1))[0])

    def values(self, q) -> np.ndarray:
        """V(q) for an integer array of transfer vectors, shape (..., dimension)."""
        q = np.asarray(q, dtype=np.int64)
        return self._from_q2((q * q).sum(axis=-1))

    def grid_values(self, points_per_axis: int) -> np.ndarray:
        """Kernel on the FFT frequency grid of a G^d spatial grid.

        Entry order matches numpy.fft.fftn of a density array, so the
        periodic Coulomb energy is (1/2V) sum_k V(k) |rho_hat(k)|^2.  The
        integer |q|^2 is summed over open per-axis grids, so only G^d
        arrays are formed, and is then mapped as in :meth:`values`.
        """
        g = int(points_per_axis)
        freqs = np.fft.fftfreq(g, d=1.0 / g).astype(np.int64)  # integer q per axis
        q2 = 0
        for axis in np.meshgrid(*[freqs] * self.dimension, indexing="ij", sparse=True):
            q2 = q2 + axis * axis
        return self._from_q2(q2)

    def _from_q2(self, q2: np.ndarray) -> np.ndarray:
        """V(q) from the integer |q|^2 of each transfer vector, mapped in
        place in one float array of its shape (and K0's result in 1D)."""
        zero = q2 == 0
        v = np.where(zero, 1.0, q2)  # k^2 = (2 pi / L)^2 |q|^2, then V
        v *= (2.0 * np.pi / self.box_l) ** 2
        if self.dimension == 3:
            np.divide(4.0 * np.pi, v, out=v)
        else:
            np.sqrt(v, out=v)
            v *= self.a
            v[...] = bessel_k0(v)
            v *= 2.0
        v[zero] = self.q0_value
        return v
