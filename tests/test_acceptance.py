"""Acceptance criteria.

Every criterion runs at its stated tolerance and reports one pass/fail
line (printed in the terminal summary).  Default desk-scale configs:
3D, L = 2 pi, |n|^2 <= 1, hbar = c = m = e = 1.
"""

import time
from dataclasses import replace

import numpy as np

from conftest import as_scipy, random_expr, random_start

from fockbox.algebra import wick_reorder
from fockbox.classical import (
    coulomb_energy,
    coulomb_energy_direct,
    decomposition_report,
    gaussian_cloud,
)
from fockbox.experiments import (
    ExperimentSpec,
    run_sign_of_forces,
    run_single_electron_immunity,
    run_spreading_comparison,
)
from fockbox.fock import (
    Sector,
    basis_index,
    enumerate_basis,
    ground_state,
    to_matrices,
    to_matrix,
)
from fockbox.model import (
    ModelConfig,
    bad_electron_term,
    coulomb_full,
    coulomb_pieces,
    free_hamiltonian,
    modes_for,
)
from fockbox.modes import ModeSet

REPORT = []

CFG3 = ModelConfig()  # default desk-scale 3D configuration
CFG1 = ModelConfig(dimension=1, grid_points=64)


def _record(num, label, passed, elapsed, limit=None):
    status = "PASS" if passed else "FAIL"
    extra = f", limit {limit:.0f}s" if limit else ""
    REPORT.append(f"[{status}] criterion {num}: {label} ({elapsed:.1f}s{extra})")
    assert passed, f"criterion {num} failed: {label}"
    if limit is not None:
        assert elapsed <= limit, f"criterion {num} exceeded runtime limit"


def test_criterion_1_wick_equivalence_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    modes = ModeSet(list(modes_for(CFG1))[:8])
    basis = enumerate_basis(modes, Sector())
    worst = 0.0
    for _ in range(500):
        expr = random_expr(rng, modes, n_terms=1, max_factors=4)
        if expr.is_zero():
            continue
        a = as_scipy(to_matrix(expr, basis, modes))
        b = as_scipy(to_matrix(wick_reorder(expr), basis, modes))
        d = abs(a - b)
        worst = max(worst, float(d.max()) if d.nnz else 0.0)
    elapsed = time.perf_counter() - t0
    _record(1, f"wick reordering matrix-equivalent on 500 random products "
               f"(worst {worst:.2e} <= 1e-12)", worst <= 1e-12, elapsed, limit=60)


def test_criterion_2_single_electron_immunity(tmp_path):
    t0 = time.perf_counter()
    spec = ExperimentSpec(config=CFG3, out_dir=tmp_path)
    rec = run_single_electron_immunity(spec)
    by = {v.check: v for v in rec.verdicts}
    ms = modes_for(CFG3)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    block = to_matrix(coulomb_full(CFG3), basis, ms)
    structurally_zero = block.nnz == 0
    ok = (
        structurally_zero
        and by["coulomb_full_1e_block_max"].value == 0.0
        and by["evolution_deviation"].value <= 1e-9
    )
    elapsed = time.perf_counter() - t0
    _record(2, "one-electron block structurally zero; evolution matches free "
               f"to {by['evolution_deviation'].value:.2e} over 10 periods",
            ok, elapsed, limit=120)


def test_criterion_3_self_repulsion_artifact(tmp_path):
    t0 = time.perf_counter()
    ms = modes_for(CFG3)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    block = to_matrix(bad_electron_term(CFG3), basis, ms).toarray()
    diag = np.diag(block)
    block_ok = (
        np.abs(block).max() > 0
        and np.abs(diag.imag).max() <= 1e-14
        and (diag.real > 0).all()
    )
    rec = run_spreading_comparison(ExperimentSpec(config=CFG3, out_dir=tmp_path))
    by = {v.check: v for v in rec.verdicts}
    spread_ok = by["spread_bad_vs_free"].value > 1e-6 and by["spread_full_vs_free"].passed
    elapsed = time.perf_counter() - t0
    _record(3, "incorrectly ordered electron term acts on one electron "
               f"(block max {np.abs(block).max():.3f}, spread deviation "
               f"{by['spread_bad_vs_free'].value:.2e} > 1e-6)",
            block_ok and spread_ok, elapsed, limit=120)


DEFAULT_SECTORS = [
    Sector(n=1, charge=-1),
    Sector(n=2, charge=-2),
    Sector(n_max=2, charge=0),
    Sector(n_max=2),
    Sector(n_max=4, charge=0),
]


def test_criterion_4_decomposition_completeness():
    t0 = time.perf_counter()
    ms = modes_for(CFG3)
    pieces = coulomb_pieces(CFG3)
    full_expr = coulomb_full(CFG3)
    scale = full_expr.max_abs_coeff()
    worst = 0.0
    for sector in DEFAULT_SECTORS:
        basis = enumerate_basis(ms, sector)
        full = as_scipy(to_matrix(full_expr, basis, ms))
        total = sum(as_scipy(to_matrix(p, basis, ms)) for p in pieces)
        d = abs(total - full)
        worst = max(worst, float(d.max()) if d.nnz else 0.0)
    elapsed = time.perf_counter() - t0
    _record(4, f"coulomb term equals sum of its pieces on every default "
               f"sector (worst entry diff {worst:.2e})",
            worst <= 1e-13 * scale, elapsed)


def test_criterion_5_interaction_signs(tmp_path):
    t0 = time.perf_counter()
    rec = run_sign_of_forces(ExperimentSpec(config=CFG3, out_dir=tmp_path))
    ee = rec.scalars["ee_expectation"]
    ep = rec.scalars["ep_expectation"]
    pp = rec.scalars["pp_expectation"]
    ok = ee > 0 and ep < 0 and pp > 0
    elapsed = time.perf_counter() - t0
    _record(5, f"interaction signs ee={ee:+.4f} > 0, ep={ep:+.4f} < 0, "
               f"pp={pp:+.4f} > 0", ok, elapsed)


def test_criterion_6_vacuum_instability():
    t0 = time.perf_counter()
    ms = modes_for(CFG1)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=0))
    vi = int(basis_index(basis, 0))

    energies = []
    for f in (1.0, 0.5, 0.25, 0.125):
        cfg = replace(CFG1, charge=CFG1.charge * f)
        h_free, h_coul = to_matrices([free_hamiltonian(cfg), coulomb_full(cfg)], basis, ms)
        h = h_free + h_coul
        if f == 1.0:
            vac = complex(as_scipy(h)[vi, vi])
        e0, _ = ground_state(h, random_start(h, 2))
        energies.append(e0)
    vac_ok = vac == 0
    negative_ok = all(e < 0 for e in energies)
    monotone_ok = all(energies[i] < energies[i + 1] for i in range(3))

    # iterative/dense agreement on small sectors
    dense_ok = True
    for sector in (Sector(n_max=4, charge=0, momentum=(0,)), Sector(n=2, charge=-2)):
        b = enumerate_basis(ms, sector)
        assert b.size <= 200
        h_free, h_coul = to_matrices([free_hamiltonian(CFG1), coulomb_full(CFG1)], b, ms)
        h = h_free + h_coul
        e_iter, _ = ground_state(h, random_start(h, 3))
        e_dense = float(np.linalg.eigvalsh(h.toarray())[0])
        dense_ok = dense_ok and abs(e_iter - e_dense) <= 1e-9
    elapsed = time.perf_counter() - t0
    _record(6, f"<0|H|0> = 0, E0 = {energies[0]:.4f} < 0, monotone to 0 over "
               f"4 couplings, dense agreement on dim<=200 sectors",
            vac_ok and negative_ok and monotone_ok and dense_ok, elapsed)


def test_criterion_7_classical_scaling():
    t0 = time.perf_counter()
    sigma0 = CFG3.box_l / 8.0
    products = []
    for f in (1.0, 2.0, 4.0):
        cfg = replace(CFG3, box_l=CFG3.box_l * f)
        rho = gaussian_cloud(cfg, sigma0 * f, -cfg.charge)  # G = 32 per axis
        products.append(coulomb_energy(rho, cfg) * sigma0 * f)
    spread = (max(products) - min(products)) / abs(products[0])

    cfg16 = replace(CFG3, grid_points=16)
    rho = gaussian_cloud(cfg16, sigma0, -CFG3.charge)
    u_k = coulomb_energy(rho, cfg16)
    u_r = coulomb_energy_direct(rho, cfg16)
    oracle_rel = abs(u_k - u_r) / abs(u_r)
    elapsed = time.perf_counter() - t0
    _record(7, f"U(sigma)*sigma constant to {spread:.2e} <= 1e-4; momentum vs "
               f"real-space within {oracle_rel:.2e} <= 1e-6 at G <= 32",
            spread <= 1e-4 and oracle_rel <= 1e-6, elapsed, limit=60)


def test_criterion_8_figure2_reproduction():
    t0 = time.perf_counter()
    rho = gaussian_cloud(CFG3, CFG3.box_l / 8.0, -2.0 * CFG3.charge)
    halves = (rho / 2.0, rho / 2.0)
    mask = (np.indices(rho.shape)[-1] < CFG3.grid_points // 2).astype(float)
    topbot = (rho * mask, rho * (1.0 - mask))
    rows = decomposition_report(rho, [halves, topbot], CFG3)
    invariance = abs(rows[0].total - rows[1].total) / abs(rows[0].total)
    ordering = rows[1].self_sum > rows[0].self_sum
    elapsed = time.perf_counter() - t0
    _record(8, f"total split-invariant to {invariance:.2e} <= 1e-10; top/bottom "
               f"self-energy {rows[1].self_sum:.4f} > identical-halves "
               f"{rows[0].self_sum:.4f}", invariance <= 1e-10 and ordering, elapsed)


def test_criterion_9_determinism(tmp_path):
    t0 = time.perf_counter()
    identical = True
    for runner, name in ((run_single_electron_immunity, "immunity"),):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            runner(ExperimentSpec(config=CFG1, seed=42, out_dir=out)).write(out)
            outs.append(out / name)
        for f1 in sorted(outs[0].glob("*")):
            if f1.name == "meta.json":
                continue
            identical = identical and f1.read_bytes() == (outs[1] / f1.name).read_bytes()
    elapsed = time.perf_counter() - t0
    _record(9, "repeated runs with identical config and seed are byte-identical",
            identical, elapsed)
