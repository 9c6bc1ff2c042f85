#!/usr/bin/env python3
"""Benchmark: the sparse matrix assembly kernel.

First the ``build`` stage: each packed Coulomb builder (full, partial, bad,
pieces) with its term count (ee/ep/pp for the pieces), timed on one call
with the per-config quartic context cleared, so that the call also builds
the context, and then as the best of N calls with that context shared.
Then the assembly: the free Hamiltonian and the packed full and partial
Coulomb terms of a config are built and their assembly is timed on a few
sectors: one electron, charge 0 with N <= 2, charge 0 with N <= CAP, and
the total-momentum-0 block of the last, which is the block the vacuum
experiment solves.  For each it prints
the sector dimension, the best time of N repeats of ``enumerate_basis``,
then per operator the term count, nnz, truncation drops, the (term, state)
pairs within the particle cap (tested and sent to the image lookup), the
pairs over it (only counted as drops), and the best assembly time of N
repeats.  Last comes the solver layer on its own.  As the reference,
``ground_state`` of free + full on the whole P=0 block, cold from a seeded
vector, with the dtype of its arithmetic (float64 when every entry is
real, as in 1D), its best time, matrix-vector products and residual, the
best time of one product ``h @ v`` with a vector of that dtype, and the
min, median and max over seeds 1-10 of the cold solve's steps, restarts
and matrix-vector products.  Then the vacuum experiment's sweep: the
dimension and nnz of the block's parity-even sector, the best time of
``parity_images``, the best time of the four solves, and the products of
each solve in solve order (from the vacuum at the weakest coupling, each
later one warm-started from the coupling before) and in all.  Then
``evolve`` of free + full on the one-electron sector, one call the size of
the immunity experiment's (10 rest periods in 200 steps), with the sector
dimension, the step count and the best time of N repeats.

    python benchmarks/bench_assembly.py [--dimension {1,3}] [--repeat N]
    python benchmarks/bench_assembly.py --dimension 1 --n-max 2 --cap 6
"""

import argparse
import time

import numpy as np

from fockbox import assembly, model
from fockbox.experiments import COUPLINGS, sweep_operators
from fockbox.fock import (
    Sector,
    enumerate_basis,
    evolve,
    ground_state,
    pack,
    parity_images,
    to_matrices,
)
from fockbox.model import (
    ModelConfig,
    bad_electron_term_packed,
    coulomb_full_packed,
    coulomb_partial_packed,
    coulomb_pieces_packed,
    free_hamiltonian,
    modes_for,
)


def _best(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def bench_build(cfg: ModelConfig, repeat: int) -> None:
    """Term count, first call with the context cache cleared, then best of
    ``repeat`` with the context shared, for each packed Coulomb builder."""
    builders = {"full": coulomb_full_packed, "partial": coulomb_partial_packed,
                "bad": bad_electron_term_packed, "pieces": coulomb_pieces_packed}
    print(f"{'build':>19} {'terms':>17} {'first call':>11} {'shared':>10}")
    for name, build in builders.items():
        model._quartic_context.cache_clear()
        out, t_first = _best(lambda: build(cfg), 1)
        _, t_shared = _best(lambda: build(cfg), repeat)
        # pieces: the ee/ep/pp term counts
        terms = "/".join(map(str, map(len, out))) if name == "pieces" else str(len(out))
        print(f"{name:>19} {terms:>17} {t_first * 1e3:>9.2f}ms {t_shared * 1e3:>8.2f}ms")


def bench(dimension: int, repeat: int, n_max: int = 1, cap: int = 4) -> None:
    cfg = ModelConfig(dimension=dimension, n_max=n_max)
    ms = modes_for(cfg)
    print(f"dimension={dimension}  n_max={n_max}  modes={len(ms)}  "
          f"kernel={assembly.backend_name()}")
    bench_build(cfg, repeat)
    operators = {
        "free": pack(free_hamiltonian(cfg), ms),
        "full": coulomb_full_packed(cfg),
        "partial": coulomb_partial_packed(cfg),
    }
    sectors = [
        ("one-electron", Sector(n=1, charge=-1)),
        ("charge-0 N<=2", Sector(n_max=2, charge=0)),
        (f"charge-0 N<={cap}", Sector(n_max=cap, charge=0)),
        (f"charge-0 N<={cap} P=0", Sector(n_max=cap, charge=0, momentum=(0,) * dimension)),
    ]
    print(f"{'sector':>19} {'dim':>6} {'enumerate':>10} {'operator':>8} {'terms':>6} "
          f"{'nnz':>9} {'dropped':>9} {'in-cap':>9} {'over-cap':>9} {'assemble':>10}")
    for label, sector in sectors:
        basis, t_enum = _best(lambda: enumerate_basis(ms, sector), repeat)
        for name, op in operators.items():
            (rows, _, _, dropped), t_asm = _best(
                lambda: assembly.assemble(op.coeffs, op.opcodes, op.nops, basis), repeat)
            need1, need0, flip, _, _, live = assembly._reduce_terms(op.opcodes, op.nops)
            _, _, within, over = assembly._candidates(need1, need0, flip, live, basis)
            print(f"{label:>19} {basis.size:>6} {t_enum * 1e3:>8.2f}ms {name:>8} {len(op):>6} "
                  f"{rows.size:>9} {dropped:>9} {within.sum():>9} {over.sum():>9} "
                  f"{t_asm * 1e3:>8.2f}ms")

    # the reference: a cold solve of H = free + full on the whole last
    # (P=0) block, which the vacuum experiment no longer runs
    h_free, h_coul = to_matrices([operators["free"], operators["full"]], basis, ms)
    h = h_free + h_coul
    (_, vec), t_gs = _best(lambda: ground_state(h, seed=0), repeat)
    stats = h.meta["ground_state"]
    _, t_mv = _best(lambda: h @ vec, max(repeat, 20))
    print(f"ground_state on {label} (free + full): dim {basis.size}  nnz {h.nnz}  "
          f"dtype {stats['dtype']}  matvecs {stats['matvecs']}  "
          f"residual {stats['residual']:.1e}  best {t_gs * 1e3:.2f}ms  "
          f"h@v best {t_mv * 1e3:.3f}ms")
    # the cold counts depend on the start vector: over seeds 1-10, as
    # min/median/max
    cold = {key: [] for key in ("steps", "restarts", "matvecs")}
    for seed in range(1, 11):
        ground_state(h, seed=seed)
        for key, values in cold.items():
            values.append(h.meta["ground_state"][key])
    print("ground_state cold, seeds 1-10 (min/median/max): " + "  ".join(
        f"{key} {min(v)}/{np.median(v):g}/{max(v)}" for key, v in cold.items()))

    # the vacuum experiment's sweep: on the block's parity-even sector,
    # from the vacuum at the weakest coupling, each stronger coupling
    # warm-started from the ground state of the one before
    images, t_par = _best(lambda: parity_images(basis, ms), repeat)
    h_free, h_couls = sweep_operators(cfg, basis, ms, images)
    h_couls = list(h_couls)
    vac = np.zeros(h_free.dim)
    vac[0] = 1.0

    def sweep():
        v, products = vac, {}
        for f, h_coul in zip(COUPLINGS[::-1], h_couls):
            h = h_free + h_coul
            _, v = ground_state(h, v0=v)
            products[f"f={f:g}"] = h.meta["ground_state"]["matvecs"]
        return products

    products, t_sweep = _best(sweep, repeat)
    products["total"] = sum(products.values())
    print(f"parity-even sector of {label}: dim {h_free.dim}  nnz {h_free.nnz}  "
          f"parity map best {t_par * 1e3:.2f}ms  sweep best {t_sweep * 1e3:.2f}ms")
    print("ground_state sweep products, from the vacuum, in solve order: " + "  ".join(
        f"{key} {n}" for key, n in products.items()))

    # the one-electron runners' propagation: H = free + full over the
    # immunity experiment's trajectory (10 rest periods in 200 steps)
    basis = enumerate_basis(ms, sectors[0][1])
    h_free, h_coul = to_matrices([operators["free"], operators["full"]], basis, ms)
    h = h_free + h_coul
    t = 10 * 2.0 * np.pi * cfg.hbar / (cfg.mass * cfg.c**2)
    v = np.random.default_rng(0).standard_normal(basis.size) + 0j
    v /= np.linalg.norm(v)
    _, t_ev = _best(lambda: evolve(h, v, t, t / 200, hbar=cfg.hbar), repeat)
    print(f"evolve on one-electron (free + full): dim {h.meta['evolve']['dim']}  "
          f"steps {h.meta['evolve']['steps']}  best {t_ev * 1e3:.2f}ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dimension", type=int, choices=(1, 3), default=3)
    ap.add_argument("--n-max", type=int, default=1, help="momentum cutoff (default 1)")
    ap.add_argument("--cap", type=int, default=4,
                    help="particle cap of the charge-0 sector and its P=0 block (default 4)")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    bench(args.dimension, args.repeat, args.n_max, args.cap)


if __name__ == "__main__":
    main()
