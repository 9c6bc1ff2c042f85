"""Compiled and pure-Python assembly kernels agree entry for entry."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from conftest import random_expr

from fockbox import assembly
from fockbox.fock import Sector, enumerate_basis, pack
from fockbox.modes import ModeSet

needs_compiled = pytest.mark.skipif(
    "compiled" not in assembly.available_backends(),
    reason="compiled extension not built",
)


@needs_compiled
@pytest.mark.parametrize("sector", [Sector(), Sector(n_max=2), Sector(n=3), Sector(n_max=3, charge=-1)])
def test_backends_identical(rng, modes8, sector):
    basis = enumerate_basis(modes8, sector)
    for _ in range(10):
        expr = random_expr(rng, modes8, n_terms=5, max_factors=4)
        p = pack(expr, modes8)
        arrays = (p.coeffs, p.opcodes, p.nops)
        r1, c1, v1, d1 = assembly.assemble_with("python", *arrays, basis)
        r2, c2, v2, d2 = assembly.assemble_with("compiled", *arrays, basis)
        assert np.array_equal(r1, r2)
        assert np.array_equal(c1, c2)
        assert np.array_equal(v1, v2)
        assert d1 == d2


@needs_compiled
def test_backends_identical_on_model_build(rng):
    from fockbox.fock import to_matrix
    from fockbox.model import ModelConfig, coulomb_full, modes_for

    cfg = ModelConfig(dimension=1)
    ms = modes_for(cfg)
    expr = coulomb_full(cfg)
    basis = enumerate_basis(ms, Sector(n_max=3, charge=0))
    p = pack(expr, ms)
    arrays = (p.coeffs, p.opcodes, p.nops)
    r1, c1, v1, d1 = assembly.assemble_with("python", *arrays, basis)
    r2, c2, v2, d2 = assembly.assemble_with("compiled", *arrays, basis)
    assert np.array_equal(r1, r2) and np.array_equal(c1, c2)
    assert np.array_equal(v1, v2)
    assert d1 == d2


def test_identity_term(modes8):
    basis = enumerate_basis(modes8, Sector(n_max=1))
    coeffs = np.array([2.5 + 0.5j])
    opcodes = np.full((1, 1), -1, dtype=np.int32)
    nops = np.zeros(1, dtype=np.int32)
    rows, cols, vals, dropped = assembly.assemble(coeffs, opcodes, nops, basis)
    assert np.array_equal(rows, cols)
    assert np.all(vals == 2.5 + 0.5j)
    assert dropped == 0


def test_mode_64_boundary():
    # highest representable mode index toggles the top bit of the word
    basis = np.array([0, 1 << 63], dtype=np.uint64)
    coeffs = np.array([1.0 + 0j])
    opcodes = np.array([[2 * 63 + 1]], dtype=np.int32)  # create mode 63
    nops = np.array([1], dtype=np.int32)
    rows, cols, vals, dropped = assembly.assemble(coeffs, opcodes, nops, basis)
    assert list(rows) == [1] and list(cols) == [0]
    assert vals[0] == 1.0
    assert dropped == 0


def test_bench_assembly_smoke(capsys):
    # the benchmark script is the only caller of assembly.assemble_with
    # that runs without the compiled extension
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_assembly.py"
    spec = importlib.util.spec_from_file_location("bench_assembly", path)
    bench_assembly = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_assembly)
    bench_assembly.bench(1, 1)
    out = capsys.readouterr().out
    for label in ("one-electron", "charge-0 N<=2", "charge-0 N<=4"):
        assert label in out
