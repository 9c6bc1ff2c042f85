#!/usr/bin/env python3
"""Benchmark: the sparse matrix assembly kernel.

Builds the free Hamiltonian and the packed full and partial Coulomb terms of
the default config and times their assembly on a few sectors, printing for
each the sector dimension, term count, nnz, truncation drops and the best
time of N repeats.

    python benchmarks/bench_assembly.py [--dimension {1,3}] [--repeat N]
"""

import argparse
import time

from fockbox import assembly
from fockbox.fock import Sector, enumerate_basis, pack
from fockbox.model import (
    ModelConfig,
    coulomb_full_packed,
    coulomb_partial_packed,
    free_hamiltonian,
    modes_for,
)


def bench(dimension: int, repeat: int) -> None:
    cfg = ModelConfig(dimension=dimension)
    ms = modes_for(cfg)
    operators = {
        "free": pack(free_hamiltonian(cfg), ms),
        "full": coulomb_full_packed(cfg),
        "partial": coulomb_partial_packed(cfg),
    }
    sectors = [
        ("one-electron", Sector(n=1, charge=-1)),
        ("charge-0 N<=2", Sector(n_max=2, charge=0)),
        ("charge-0 N<=4", Sector(n_max=4, charge=0)),
    ]
    print(f"dimension={dimension}  modes={len(ms)}  kernel={assembly.backend_name()}")
    print(f"{'sector':>15} {'operator':>8} {'dim':>6} {'terms':>6} {'nnz':>9} "
          f"{'dropped':>9} {'best':>10}")
    for label, sector in sectors:
        basis = enumerate_basis(ms, sector)
        for name, op in operators.items():
            best = float("inf")
            for _ in range(repeat):
                t0 = time.perf_counter()
                rows, _, _, dropped = assembly.assemble(op.coeffs, op.opcodes, op.nops, basis)
                best = min(best, time.perf_counter() - t0)
            print(f"{label:>15} {name:>8} {basis.size:>6} {len(op):>6} {rows.size:>9} "
                  f"{dropped:>9} {best * 1e3:>8.2f}ms")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dimension", type=int, choices=(1, 3), default=3)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    bench(args.dimension, args.repeat)


if __name__ == "__main__":
    main()
