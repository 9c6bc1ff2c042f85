"""Single-particle modes of the discretized Dirac field in a periodic box.

A mode is one discretized degree of freedom: species (electron or positron),
spin index s in {1, 2}, and an integer momentum lattice vector n, with
physical momentum p = (2*pi*hbar/L) * n.  Modes carry a strict total order
(electrons before positrons, then spin, then lexicographic momentum) so that
every fermionic sign in the package is deterministic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum


class Species(Enum):
    ELECTRON = "e"
    POSITRON = "p"

    @property
    def charge(self) -> int:
        """Charge in units of e (electron -1, positron +1)."""
        return -1 if self is Species.ELECTRON else +1


@dataclass(frozen=True, slots=True)
class Mode:
    species: Species
    spin: int
    momentum: tuple[int, ...]

    def __post_init__(self):
        if self.spin not in (1, 2):
            raise ValueError(f"spin index must be 1 or 2, got {self.spin}")
        object.__setattr__(self, "momentum", tuple(int(c) for c in self.momentum))

    @property
    def sort_key(self) -> tuple:
        return (0 if self.species is Species.ELECTRON else 1, self.spin, self.momentum)

    def __repr__(self):
        sp = self.species.value
        return f"Mode({sp},s={self.spin},n={self.momentum})"


def momentum_lattice(dimension: int, n_max: int, ball: bool = True) -> list[tuple[int, ...]]:
    """Integer momentum vectors with |n_i| <= n_max, lexicographically sorted.

    With ``ball=True`` the cube is additionally trimmed to |n|^2 <= n_max^2,
    which for n_max=1 in 3D keeps the origin plus the six face neighbours.
    """
    rng = range(-n_max, n_max + 1)
    pts = [n for n in itertools.product(rng, repeat=dimension)]
    if ball:
        cap = n_max * n_max
        pts = [n for n in pts if sum(c * c for c in n) <= cap]
    return sorted(pts)


class ModeSet:
    """Ordered set of modes; index 0..M-1 respects the canonical mode order.

    M <= 64 so that an occupation pattern packs into one 64-bit integer.
    Instances are immutable and shareable across threads.
    """

    def __init__(self, modes):
        modes = list(modes)
        if sorted(modes, key=lambda m: m.sort_key) != modes:
            raise ValueError("modes must be given in canonical order")
        if len(set(modes)) != len(modes):
            raise ValueError("duplicate modes")
        if len(modes) > 64:
            raise ValueError(f"at most 64 modes supported, got {len(modes)}")
        self._modes = tuple(modes)
        self._index = {m: i for i, m in enumerate(modes)}

    @classmethod
    def build(cls, dimension: int, n_max: int, ball: bool = True) -> "ModeSet":
        """Full electron+positron mode set over the momentum lattice."""
        lattice = momentum_lattice(dimension, n_max, ball)
        modes = [
            Mode(species, spin, n)
            for species in (Species.ELECTRON, Species.POSITRON)
            for spin in (1, 2)
            for n in lattice
        ]
        return cls(sorted(modes, key=lambda m: m.sort_key))

    def __len__(self):
        return len(self._modes)

    def __iter__(self):
        return iter(self._modes)

    def __getitem__(self, i: int) -> Mode:
        return self._modes[i]

    def index(self, mode: Mode) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise KeyError(f"{mode} not in mode set") from None

    def __eq__(self, other):
        return isinstance(other, ModeSet) and self._modes == other._modes

    def __hash__(self):
        return hash(self._modes)

    def __repr__(self):
        return f"ModeSet({len(self._modes)} modes)"
