"""Experiment runners wiring configurations to the numerical demonstrations.

Each runner consumes an :class:`ExperimentSpec` and produces a
:class:`ResultRecord` whose payload (verdicts, scalars, series) is a pure
function of config and seed: repeated runs write byte-identical payload and
CSV files.  Wall time lives in the separate meta file.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import numpy.random  # noqa: F401  loaded on first use otherwise, in the middle of a run

from . import classical, svg
from .fock import (
    Sector,
    basis_index,
    enumerate_basis,
    evolve,
    expectation,
    ground_state,
    sector_maps,
    state_vector,
    to_matrices,
    to_matrix,
)
from .model import (
    ModelConfig,
    bad_electron_term_packed,
    coulomb_full_packed,
    coulomb_partial_packed,
    coulomb_pieces_packed,
    free_hamiltonian,
    modes_for,
)
from .modes import ModeSet, Species

DEFAULT_TOLERANCES = {
    "immunity.evolution_deviation": 1e-9,
    "spread.full_vs_free": 1e-9,
    "spread.bad_vs_free_min": 1e-6,
    "signs.margin": 0.0,
    "vacuum.e0_negative": 0.0,
    "vacuum.dense_agreement": 1e-9,
    "classical.scaling": 1e-4,
    "classical.oracle_agreement": 1e-6,
    "classical.split_invariance": 1e-10,
    "classical.charge": 1e-10,
}


@dataclass
class ExperimentSpec:
    config: ModelConfig = field(default_factory=ModelConfig)
    seed: int = 0
    out_dir: str | Path = "results"
    emit_svg: bool = False
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for key, value in self.tolerances.items():
            if key not in DEFAULT_TOLERANCES:
                raise ValueError(
                    f"unknown tolerance {key!r}; valid keys: {', '.join(DEFAULT_TOLERANCES)}"
                )
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"tolerance {key} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"tolerance {key} must be finite, got {value!r}")
            # an upper bound on E0: a positive value would pass a non-negative E0
            if key == "vacuum.e0_negative" and value > 0:
                raise ValueError(f"tolerance {key} must be <= 0, got {value!r}")

    def tol(self, key: str) -> float:
        return float(self.tolerances.get(key, DEFAULT_TOLERANCES[key]))


@dataclass
class Verdict:
    check: str
    value: float
    tolerance: float
    mode: str  # "max" (value <= tol), "exact" (== tol), "gt" (value > tol), "lt"
    passed: bool

    @classmethod
    def at_most(cls, check, value, tol):
        return cls(check, float(value), float(tol), "max", bool(value <= tol))

    @classmethod
    def exactly(cls, check, value, target=0.0):
        return cls(check, float(value), float(target), "exact", bool(value == target))

    @classmethod
    def greater(cls, check, value, threshold):
        return cls(check, float(value), float(threshold), "gt", bool(value > threshold))

    @classmethod
    def less(cls, check, value, threshold):
        return cls(check, float(value), float(threshold), "lt", bool(value < threshold))


@dataclass
class ResultRecord:
    name: str
    config_hash: str
    seed: int
    verdicts: list = field(default_factory=list)
    scalars: dict = field(default_factory=dict)
    series_files: list = field(default_factory=list)
    truncation_drops: dict = field(default_factory=dict)
    wall_time_s: float = 0.0
    # run diagnostics for meta.json; not part of the payload
    meta: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def payload(self) -> dict:
        return {
            "name": self.name,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "verdicts": [asdict(v) for v in self.verdicts],
            "scalars": self.scalars,
            "series_files": self.series_files,
            "truncation_drops": self.truncation_drops,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir) / self.name
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "payload.json", "w", encoding="utf-8") as fh:
            json.dump(self.payload(), fh, sort_keys=True, indent=1)
            fh.write("\n")
        with open(out / "meta.json", "w", encoding="utf-8") as fh:
            json.dump({"wall_time_s": self.wall_time_s, "numpy": np.__version__, **self.meta},
                      fh, indent=1)
            fh.write("\n")
        return out


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(x)) for x in row])


def _series(record: ResultRecord, spec: ExperimentSpec, name, header, rows,
            chart=None) -> None:
    """Write ``rows`` under ``header`` to ``<name>.csv`` in the record's
    directory and list the file in its payload.  ``chart`` is (title,
    x label, y label, a label for each column after the first); with it,
    and with ``spec.emit_svg``, ``<name>.svg`` also draws each later column
    against the first."""
    out = Path(spec.out_dir) / record.name
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / f"{name}.csv", header, rows)
    record.series_files.append(f"{name}.csv")
    if chart and spec.emit_svg:
        title, xlabel, ylabel, labels = chart
        xs = [r[0] for r in rows]
        lines = {label: (xs, [r[i] for r in rows]) for i, label in enumerate(labels, 1)}
        svg.write_line_chart(out / f"{name}.svg", lines, title, xlabel, ylabel)


def _electron_sector(cfg):
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    return ms, basis


def _rest_period(cfg: ModelConfig) -> float:
    return 2.0 * np.pi * cfg.hbar / (cfg.mass * cfg.c**2)


# -- single-electron immunity ------------------------------------------


def run_single_electron_immunity(spec: ExperimentSpec) -> ResultRecord:
    """One-electron block of the fully normal-ordered Coulomb term is zero
    and one-electron evolution is identical to the free one; the partially
    normal-ordered term has a nonzero block."""
    t0 = time.perf_counter()
    cfg = spec.config
    rec = ResultRecord("immunity", cfg.config_hash(), spec.seed)
    ms, basis = _electron_sector(cfg)
    h_free, h_coul, h_part = to_matrices(
        [free_hamiltonian(cfg), coulomb_full_packed(cfg), coulomb_partial_packed(cfg)], basis, ms)
    rec.truncation_drops = {"free": h_free.dropped, "coulomb_full": h_coul.dropped,
                            "coulomb_partial": h_part.dropped}

    rec.verdicts.append(Verdict.exactly("coulomb_full_1e_block_max", h_coul.max_abs_entry()))
    rec.verdicts.append(
        Verdict.greater("coulomb_partial_1e_block_max", h_part.max_abs_entry(), 0.0)
    )

    rng = np.random.default_rng(spec.seed)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    v /= np.linalg.norm(v)

    period = _rest_period(cfg)
    n_periods, steps = 10, 200
    t_max = n_periods * period
    dt = t_max / steps
    h_int = h_free + h_coul
    step_dev = np.abs(evolve(h_free, v, t_max, dt, hbar=cfg.hbar)
                      - evolve(h_int, v, t_max, dt, hbar=cfg.hbar)).max(axis=1)
    dev = float(step_dev.max())
    rows = [((k + 1) * dt, float(d)) for k, d in enumerate(step_dev)]
    rec.meta["evolve"] = {"free": h_free.meta["evolve"], "free_plus_coulomb": h_int.meta["evolve"]}
    rec.verdicts.append(
        Verdict.at_most("evolution_deviation", dev, spec.tol("immunity.evolution_deviation"))
    )
    rec.scalars["periods"] = float(n_periods)
    _series(rec, spec, "deviation", ["t", "max_amplitude_deviation"], rows,
            ("One-electron evolution deviation", "t", "max |amp diff|",
             ["free vs free+coulomb"]))
    rec.wall_time_s = time.perf_counter() - t0
    return rec


# -- wavepacket spreading ----------------------------------------------


# the momentum-space width of the Gaussian wavepackets, in lattice units
PACKET_WIDTH = 0.75
# points per axis of the position grid the spread is measured on
SPREAD_GRID_POINTS = 8


def _spread_grid(basis, ms, cfg):
    """Position-grid data shared by every spread of one run, on
    g = ``SPREAD_GRID_POINTS`` points per axis: per axis, its lines of
    electron modes (one spin and one momentum across the axis), each a list
    of (basis index, plane wave along the axis) in mode order; the g grid
    angles theta and exp(1j*theta); and the box length.  The cross terms
    of two lines cancel in a marginal only when 2 n_max < g, so 3D must
    meet it (else a ``ValueError``); a mode whose state is not in
    ``basis`` is a ``SectorError``."""
    d, g = cfg.dimension, SPREAD_GRID_POINTS
    modes = [k for k, mode in enumerate(ms) if mode.species is Species.ELECTRON]  # spin 1 first
    n_max = max(abs(c) for k in modes for c in ms[k].momentum)
    if d > 1 and 2 * n_max >= g:
        raise ValueError(f"the spread's axis marginals need 2 * n_max < g, "
                         f"got n_max = {n_max} and g = {g}")
    index = basis_index(basis, [1 << k for k in modes])
    x = np.arange(g)
    axes = []
    for a in range(d):
        lines = {}
        for k, idx in zip(modes, index):
            n = ms[k].momentum
            wave = np.exp(1j * (2.0 * np.pi * n[a] * x / g))
            lines.setdefault((ms[k].spin, n[:a] + n[a + 1:]), []).append((int(idx), wave))
        axes.append(list(lines.values()))
    angles = 2.0 * np.pi * x / g
    return axes, angles, np.exp(1j * angles), cfg.box_l


def _axis_marginals(states, grid):
    """Per axis, the marginal of the position density of each 1-electron
    state (the rows of ``states``) on a grid from :func:`_spread_grid`: the
    density summed over the other axes, divided by g^(d-1).  It is the sum
    over the axis's lines of |sum_k a_k exp(2 pi i k x / g)|^2, built with
    elementwise operations only."""
    states = np.asarray(states, dtype=np.complex128)
    axes, angles = grid[:2]
    out = []
    for lines in axes:
        marginal = np.zeros((states.shape[0], angles.size))
        for line in lines:
            phi = np.zeros(marginal.shape, dtype=np.complex128)
            for idx, wave in line:
                phi += states[:, idx, None] * wave
            marginal += np.abs(phi) ** 2
        out.append(marginal)
    return out


def _position_spreads(states, grid):
    """Second moment of the periodic position density of each 1-electron
    state (the rows of ``states``), on a grid from :func:`_spread_grid`.

    The spread reads the density only through each axis's marginal
    (:func:`_axis_marginals`): it is the marginal-weighted squared
    minimum-image distance from the circular-mean center, summed over axes.
    Every row goes through the same elementwise operations and row sums,
    with no matrix product, so equal rows give equal bits wherever they
    stand.
    """
    _, angles, rotor, box = grid
    spread = np.zeros(np.shape(states)[0])
    for dens in _axis_marginals(states, grid):
        total = dens.sum(axis=1, keepdims=True)
        dens /= np.where(total == 0, 1.0, total)  # a zero state keeps a zero density: spread 0
        mean = np.angle((dens * rotor).sum(axis=1))
        delta = np.angle(np.exp(1j * (angles - mean[:, None])))  # minimum-image in (-pi, pi]
        spread += (dens * (delta * box / (2.0 * np.pi)) ** 2).sum(axis=1)
    return spread


def run_spreading_comparison(spec: ExperimentSpec) -> ResultRecord:
    """Wavepacket spread under free, free+full and free+bad one-electron
    dynamics: the full Coulomb term leaves the curve unchanged, the
    incorrectly ordered electron term does not."""
    t0 = time.perf_counter()
    cfg = spec.config
    rec = ResultRecord("spread", cfg.config_hash(), spec.seed)
    ms, basis = _electron_sector(cfg)
    h_free, h_coul, h_bad = to_matrices(
        [free_hamiltonian(cfg), coulomb_full_packed(cfg), bad_electron_term_packed(cfg)], basis, ms)
    rec.truncation_drops = {"free": h_free.dropped, "coulomb_full": h_coul.dropped,
                            "bad_electron_term": h_bad.dropped}
    h_full = h_free + h_coul
    h_with_bad = h_free + h_bad

    # a spin-1 electron packet at the origin
    packet = _packet(cfg, ms, Species.ELECTRON, 1, (0.0,) * cfg.dimension)
    v0 = state_vector({1 << k: amp for k, amp in packet.items()}, basis)
    v0 /= np.linalg.norm(v0)
    period = _rest_period(cfg)
    steps, t_max = 60, 3.0 * period
    dt = t_max / steps
    hams = {"free": h_free, "full": h_full, "bad": h_with_bad}
    curves = {key: np.vstack([v0, evolve(h, v0, t_max, dt, hbar=cfg.hbar)])
              for key, h in hams.items()}
    rec.meta["evolve"] = {key: h.meta["evolve"] for key, h in hams.items()}
    grid = _spread_grid(basis, ms, cfg)
    spreads = [_position_spreads(curves[key], grid) for key in ("free", "full", "bad")]
    rows = [(k * dt, *(s[k] for s in spreads)) for k in range(steps + 1)]
    arr = np.array(rows)
    dev_full = float(np.abs(arr[:, 2] - arr[:, 1]).max())
    dev_bad = float(np.abs(arr[:, 3] - arr[:, 1]).max())
    rec.verdicts.append(Verdict.at_most("spread_full_vs_free", dev_full,
                                        spec.tol("spread.full_vs_free")))
    rec.verdicts.append(Verdict.greater("spread_bad_vs_free", dev_bad,
                                        spec.tol("spread.bad_vs_free_min")))
    rec.verdicts.append(Verdict.exactly("t0_curves_identical",
                                        float(abs(arr[0, 2] - arr[0, 1]) + abs(arr[0, 3] - arr[0, 1])), 0.0))
    _series(rec, spec, "spread", ["t", "free", "free_plus_full", "free_plus_bad"], rows,
            ("Wavepacket spread", "t", "<dx^2>", ["free", "free+full", "free+bad"]))
    rec.wall_time_s = time.perf_counter() - t0
    return rec


# -- interaction signs --------------------------------------------------


def _packet(cfg, ms, species, spin, center):
    """A wavepacket localized at a box position: its amplitude on each mode
    of the species and spin, by mode index."""
    packet = {}
    for k, mode in enumerate(ms):
        if mode.species is not species or mode.spin != spin:
            continue
        n2 = sum(c * c for c in mode.momentum)
        phase = sum(2.0 * np.pi * c * x / cfg.box_l for c, x in zip(mode.momentum, center))
        amp = np.exp(-n2 / (2.0 * PACKET_WIDTH * PACKET_WIDTH)) * np.exp(-1j * phase)
        packet[k] = complex(amp)
    return packet


def _pair_state(cfg, ms, basis, spec1, spec2):
    """Normalized two-particle state of wavepackets an eighth of a box apart.

    The packets have spins 1 and 2.  Opposite spins keep the pair
    distinguishable, so the expectation of an interaction piece is the
    direct (density-density) Coulomb term.  A same-spin pair would add
    exchange, which flips the sign: each packet's amplitude is spread over
    L / (2 pi 0.75) ~ 0.21 L, more than the L/8 separation.  Neither sign
    is a truncation artifact; the 1D pair energies agree to 4 digits at
    ``n_max`` 3, 5 and 7.  The sign of a pair energy is not that of a force
    either: the q = 0 convention (``q0_value``) shifts every energy by a
    constant, and at the default the opposite-spin ee energy is negative
    from a separation of L/4 on, at every cutoff.

    The state is sum over a, b of x_a y_b c+_a c+_b |0>, for the packets'
    amplitudes x and y; c+_a c+_b |0> is the basis state {a, b}, negated
    when a > b.
    """
    d = cfg.dimension
    c1 = (cfg.box_l * 0.25,) + (cfg.box_l * 0.5,) * (d - 1)
    c2 = (cfg.box_l * 0.375,) + (cfg.box_l * 0.5,) * (d - 1)
    one = _packet(cfg, ms, spec1, 1, c1)
    two = _packet(cfg, ms, spec2, 2, c2)
    v = state_vector({(1 << a) | (1 << b): x * y * (-1 if a > b else 1)
                      for a, x in one.items() for b, y in two.items()}, basis)
    return v / np.linalg.norm(v)


def run_sign_of_forces(spec: ExperimentSpec) -> ResultRecord:
    """Expectation signs of the Coulomb pieces on localized pairs:
    ee > 0 (repulsion), ep < 0 (attraction), pp > 0 (repulsion), each
    beyond the ``signs.margin`` tolerance: ee, pp > margin and ep < -margin."""
    t0 = time.perf_counter()
    cfg = spec.config
    rec = ResultRecord("signs", cfg.config_hash(), spec.seed)
    ms = modes_for(cfg)
    pieces = coulomb_pieces_packed(cfg)
    e, p = Species.ELECTRON, Species.POSITRON
    margin = spec.tol("signs.margin")
    cases = [
        ("ee", pieces.ee, (e, e), -2, Verdict.greater, margin),
        ("ep", pieces.ep, (e, p), 0, Verdict.less, 0.0 - margin),  # not -margin: -0.0 at 0
        ("pp", pieces.pp, (p, p), +2, Verdict.greater, margin),
    ]
    for name, piece, (sp1, sp2), charge, verdict, threshold in cases:
        basis = enumerate_basis(ms, Sector(n=2, charge=charge))
        v = _pair_state(cfg, ms, basis, sp1, sp2)
        op = to_matrix(piece, basis, ms)
        rec.truncation_drops[name] = op.dropped
        val = expectation(op, v)
        rec.scalars[f"{name}_expectation"] = float(val.real)
        rec.scalars[f"{name}_expectation_imag"] = float(val.imag)
        rec.verdicts.append(verdict(f"{name}_sign", val.real, threshold))
    rec.wall_time_s = time.perf_counter() - t0
    return rec


# -- vacuum instability --------------------------------------------------


# the couplings f of the vacuum sweep, which runs at charge f * e
COUPLINGS = (1.0, 0.5, 0.25, 0.125)


def _charge_zero_dim(ms: ModeSet, cap: int) -> int:
    """The size of the charge-0 N <= ``cap`` sector of ``ms``, counted, not
    built: a state holds k electrons and k positrons, 2k <= cap."""
    n_e = sum(mode.species is Species.ELECTRON for mode in ms)
    return sum(math.comb(n_e, k) * math.comb(len(ms) - n_e, k) for k in range(cap // 2 + 1))


def run_vacuum_instability(spec: ExperimentSpec) -> ResultRecord:
    """The interacting Hamiltonian pushes the ground state below the free
    vacuum: <0|H|0> = 0 but E0 < 0 with pair content, and E0 -> 0 as the
    coupling is switched off.  All statements are per-truncation.

    The purely quartic Coulomb term connects the vacuum only to 4-particle
    states, so the truncation is raised to at least N <= 4 here or the
    instability would be invisible.

    The Hamiltonian conserves charge and total momentum and commutes with
    parity P and, in 1D, with charge conjugation C and the spin flip S, in
    3D with the pi rotations Rx (with a spin flip) and Rz
    (``fock.sector_maps``).  So the vacuum (fixed by each map, with sign
    +1) only mixes with the states of its block, charge 0 and total
    momentum 0, that the maps fix too: 80 of the 492 on the 3D default.
    H_free and H_C are assembled on that block and mapped onto this
    symmetric sector, and E0 is the lowest energy there; on blocks of at
    most 400 states dense ``eigvalsh`` checks it against the whole block.
    ``sector_dim`` is the size of the whole charge-0 N <= n truncation,
    ``block_dim`` of its P = 0 block, ``symmetric_dim`` of the block's
    symmetric sector; ``truncation_drops`` counts the images that leave the
    block.  The ``coulomb_moves_vacuum`` verdict reports ||H_C|vac>||,
    which no choice of the sector's basis changes.  ``meta.json`` names the
    maps under ``"sector_maps"``.

    The coupling sweep runs e = f * charge for f in ``COUPLINGS`` (1, 1/2,
    1/4, 1/8) from the weakest up: f = 1/8 starts its Davidson solve from
    the free vacuum (the ground state at f = 0), each stronger f from the
    ground state of the one before.  No random vector enters, so only the
    payload's ``seed`` field depends on the seed.  H_free and H_C share one
    pattern, so each H(fe) = H_free + f^2 H_C adds two value arrays.
    ``meta.json`` lists each solve's diagnostics, sector size and start
    (``"vacuum"`` or the charge it continued from) in the CSV's row order.
    """
    t0 = time.perf_counter()
    cfg = spec.config
    rec = ResultRecord("vacuum", cfg.config_hash(), spec.seed)
    ms = modes_for(cfg)
    cap = max(4, cfg.sector_n_max)
    rec.scalars["sector_dim"] = float(_charge_zero_dim(ms, cap))
    basis = enumerate_basis(ms, Sector(n_max=cap, charge=0, momentum=(0,) * cfg.dimension))
    rec.scalars["block_dim"] = float(basis.size)

    ops = [free_hamiltonian(cfg), coulomb_full_packed(cfg)]
    # one pattern for every H of the sweep: sums add value arrays, and the
    # Hermiticity checks share one transpose map
    h_free, h_coul = to_matrices(ops, basis, ms, symmetric=True)
    rec.scalars["symmetric_dim"] = float(h_free.dim)
    rec.meta["sector_maps"] = list(sector_maps(ms))
    vac = np.eye(1, h_free.dim)[0]  # the vacuum is the sector's first state
    energies, solves, v, start = {}, {}, vac, "vacuum"
    for f in COUPLINGS[::-1]:
        # equal to a rebuild at charge f * e: H_C is e^2 times a fixed operator,
        # and f is a power of two, so f^2 H_C rounds nothing
        h = h_free + h_coul * (f * f)
        energies[f], v = ground_state(h, v0=v)
        solves[f] = {"charge": cfg.charge * f, "dim": h.dim, "start": start,
                     **h.meta["ground_state"]}
        start = cfg.charge * f
    rec.meta["ground_state"] = [solves[f] for f in COUPLINGS]
    # the loop ends at f = 1: h and v are the full coupling's
    rec.truncation_drops = {"free": h_free.dropped, "coulomb_full": h_coul.dropped}

    # columns at the vacuum, exactly: every other term of the product is 0
    rec.verdicts.append(Verdict.exactly("vacuum_expectation", abs((h @ vac)[0]), 0.0))
    # ||H_C|vac>||, the same in any orthonormal basis of the sector
    kick = np.linalg.norm(h_coul @ vac)
    rec.verdicts.append(Verdict.greater("coulomb_moves_vacuum", float(kick), 0.0))

    e0 = energies[1.0]
    rec.scalars["ground_energy"] = e0
    pair_amp = float(np.linalg.norm(v[1:]))
    rec.scalars["pair_amplitude"] = pair_amp
    rec.verdicts.append(Verdict.less("ground_energy_negative", e0,
                                     spec.tol("vacuum.e0_negative")))
    rec.verdicts.append(Verdict.greater("ground_pair_content", pair_amp, 0.0))

    if basis.size <= 400:
        # the whole block, assembled without the maps
        b_free, b_coul = to_matrices(ops, basis, ms)
        dense = float(np.linalg.eigvalsh((b_free + b_coul).toarray())[0])
        rec.verdicts.append(
            Verdict.at_most("dense_oracle_agreement", abs(dense - e0),
                            spec.tol("vacuum.dense_agreement"))
        )

    rows = [(cfg.charge * f, energies[f]) for f in COUPLINGS]
    monotone = all(rows[i][1] < rows[i + 1][1] <= 0.0 for i in range(len(rows) - 1))
    rec.verdicts.append(Verdict.exactly("e0_monotone_to_zero", 1.0 if monotone else 0.0, 1.0))
    _series(rec, spec, "coupling_sweep", ["charge", "ground_energy"], rows,
            ("Truncated ground energy vs coupling", "e", "E0", ["E0(e)"]))
    rec.wall_time_s = time.perf_counter() - t0
    return rec


# -- classical suite ------------------------------------------------------


def run_classical_suite(spec: ExperimentSpec) -> ResultRecord:
    """Classical field checks: total charge, U(sigma) scaling against the
    real-space oracle, and the two-electron decomposition ambiguity."""
    t0 = time.perf_counter()
    cfg = spec.config
    if cfg.charge == 0.0:  # the relative checks divide by Coulomb energies, 0 here
        raise ValueError("the classical suite needs charge > 0; got charge 0")
    rec = ResultRecord("classical", cfg.config_hash(), spec.seed)

    # total charge of a normalized single-electron mode state
    st = classical.ClassicalModeState.zero(cfg)
    st.set_b(1, (0,) * cfg.dimension, 1.0)
    rho = classical.charge_density(classical.synthesize_field(st, cfg), cfg)
    q_tot = classical.total_charge(rho, cfg)
    rec.scalars["single_electron_charge"] = q_tot
    rec.verdicts.append(
        Verdict.at_most("total_charge_minus_e", abs(q_tot + cfg.charge),
                        spec.tol("classical.charge") * cfg.charge)
    )

    # U(sigma) * sigma across a self-similar sweep (box scales with sigma,
    # so the 1/sigma scaling forced by kernel homogeneity is isolated from
    # box-size corrections).  V(q=0) scales with the kernel: it has units of
    # length^(d-1), so it is scaled with the box to keep the sweep self-similar
    sigma0 = cfg.box_l / 8.0
    rows, products = [], []
    for factor in (1.0, 2.0, 4.0):
        cfg_s = replace(cfg, box_l=cfg.box_l * factor,
                        q0_value=cfg.q0_value * factor ** (cfg.dimension - 1))
        sigma = sigma0 * factor
        rho_s = classical.gaussian_cloud(cfg_s, sigma, -cfg.charge)
        u = classical.coulomb_energy(rho_s, cfg_s)
        products.append(u * sigma)
        rows.append((sigma, u, u * sigma))
    scaling_spread = (max(products) - min(products)) / abs(products[0])
    rec.verdicts.append(
        Verdict.at_most("u_sigma_constancy", scaling_spread, spec.tol("classical.scaling"))
    )
    _series(rec, spec, "scaling", ["sigma", "coulomb_energy", "product"], rows)

    # oracle agreement at a small grid
    cfg_o = replace(cfg, grid_points=16 if cfg.dimension == 3 else min(cfg.grid_points, 64))
    rho_o = classical.gaussian_cloud(cfg_o, sigma0, -cfg.charge)
    u_spec = classical.coulomb_energy(rho_o, cfg_o)
    u_direct = classical.coulomb_energy_direct(rho_o, cfg_o)
    rec.scalars["oracle_momentum_space"] = u_spec
    rec.scalars["oracle_real_space"] = u_direct
    rec.verdicts.append(
        Verdict.at_most("kernel_oracle_agreement", abs(u_spec - u_direct) / abs(u_direct),
                        spec.tol("classical.oracle_agreement"))
    )

    # decomposition ambiguity for a -2e cloud
    rho2 = classical.gaussian_cloud(cfg, sigma0, -2.0 * cfg.charge)
    halves = (rho2 / 2.0, rho2 / 2.0)
    mask = np.zeros(cfg.grid_points)  # broadcast along the last axis
    mask[: cfg.grid_points // 2] = 1.0
    topbot = (rho2 * mask, rho2 * (1.0 - mask))
    reports = classical.decomposition_report(rho2, [halves, topbot], cfg)
    rows = [
        (r.self1, r.self2, r.cross, r.total, r.self_sum) for r in reports
    ]
    _series(rec, spec, "decomposition",
            ["self1", "self2", "cross", "total", "self_sum"], rows)
    totals = [r.total for r in reports]
    rec.verdicts.append(
        Verdict.at_most("split_total_invariance",
                        abs(totals[0] - totals[1]) / abs(totals[0]),
                        spec.tol("classical.split_invariance"))
    )
    rec.verdicts.append(
        Verdict.greater("topbottom_self_energy_excess",
                        reports[1].self_sum - reports[0].self_sum, 0.0)
    )
    rec.wall_time_s = time.perf_counter() - t0
    return rec


RUNNERS = {
    "immunity": run_single_electron_immunity,
    "spread": run_spreading_comparison,
    "signs": run_sign_of_forces,
    "vacuum": run_vacuum_instability,
    "classical": run_classical_suite,
}
