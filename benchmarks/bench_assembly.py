#!/usr/bin/env python3
"""Benchmark: compiled vs pure-NumPy matrix assembly kernel.

Builds the default Coulomb Hamiltonian and times its sparse assembly on a
few sectors with each available backend.

    python benchmarks/bench_assembly.py [--dimension {1,3}] [--repeat N]
"""

import argparse
import time

import numpy as np

from fockbox import assembly
from fockbox.fock import Sector, enumerate_basis, pack
from fockbox.model import ModelConfig, coulomb_full, free_hamiltonian, modes_for


def bench(dimension: int, repeat: int) -> None:
    cfg = ModelConfig(dimension=dimension)
    ms = modes_for(cfg)
    expr = coulomb_full(cfg) + free_hamiltonian(cfg)
    packed = pack(expr, ms)
    sectors = [
        ("one-electron", Sector(n=1, charge=-1)),
        ("charge-0 N<=2", Sector(n_max=2, charge=0)),
        ("charge-0 N<=4", Sector(n_max=4, charge=0)),
    ]
    print(f"dimension={dimension}  modes={len(ms)}  terms={len(expr.terms)}")
    print(f"{'sector':>15} {'dim':>6} " + " ".join(f"{b:>12}" for b in assembly.available_backends())
          + "  speedup")
    for label, sector in sectors:
        basis = enumerate_basis(ms, sector)
        times = {}
        reference = None
        for backend in assembly.available_backends():
            best = float("inf")
            for _ in range(repeat):
                t0 = time.perf_counter()
                out = assembly.assemble_with(backend, packed.coeffs, packed.opcodes,
                                             packed.nops, basis)
                best = min(best, time.perf_counter() - t0)
            times[backend] = best
            if reference is None:
                reference = out
            else:
                assert np.array_equal(out[2], reference[2]), "backends disagree"
        cols = " ".join(f"{times[b] * 1e3:>10.2f}ms" for b in assembly.available_backends())
        if "compiled" in times:
            speedup = f"{times['python'] / times['compiled']:>7.1f}x"
        else:
            speedup = "    n/a"
        print(f"{label:>15} {basis.size:>6} {cols} {speedup}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dimension", type=int, choices=(1, 3), default=3)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    bench(args.dimension, args.repeat)


if __name__ == "__main__":
    main()
