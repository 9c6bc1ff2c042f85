"""Experiment runners and the command-line harness."""

import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import random_start

from fockbox import experiments, svg
from fockbox.cli import main
from fockbox.experiments import (
    DEFAULT_TOLERANCES,
    RUNNERS,
    ExperimentSpec,
    run_classical_suite,
    run_sign_of_forces,
    run_single_electron_immunity,
    run_spreading_comparison,
    run_vacuum_instability,
    _packet,
    _pair_state,
    _axis_marginals,
    _position_spreads,
    _spread_grid,
)
from fockbox.algebra import Ladder, OperatorExpr, Term, multiply
from fockbox.fock import (
    Sector,
    SectorError,
    enumerate_basis,
    ground_state,
    to_matrices,
    to_matrix,
)
from fockbox.model import ModelConfig, coulomb_full_packed, free_hamiltonian, modes_for
from fockbox.modes import Species

CFG1 = ModelConfig(dimension=1, grid_points=64)


def _spec(tmp_path, cfg=CFG1, **kw):
    return ExperimentSpec(config=cfg, out_dir=tmp_path, **kw)


class TestRunners:
    def test_immunity(self, tmp_path):
        rec = run_single_electron_immunity(_spec(tmp_path))
        assert rec.all_passed
        by_name = {v.check: v for v in rec.verdicts}
        assert by_name["coulomb_full_1e_block_max"].value == 0.0
        assert by_name["coulomb_partial_1e_block_max"].value > 0.0
        assert by_name["evolution_deviation"].value <= 1e-9
        assert (tmp_path / "immunity" / "deviation.csv").exists()

    def test_immunity_free_limit(self, tmp_path):
        cfg = replace(CFG1, charge=0.0, q0_value=0.5)
        rec = run_single_electron_immunity(_spec(tmp_path, cfg))
        by_name = {v.check: v for v in rec.verdicts}
        assert by_name["coulomb_full_1e_block_max"].value == 0.0
        # with e = 0 the partial term vanishes too, its q = 0 part included,
        # so that verdict fails: both blocks are zero in the free theory
        assert by_name["coulomb_partial_1e_block_max"].value == 0.0

    def test_spread(self, tmp_path):
        rec = run_spreading_comparison(_spec(tmp_path))
        assert rec.all_passed
        rows = np.loadtxt(tmp_path / "spread" / "spread.csv", delimiter=",", skiprows=1)
        assert np.array_equal(rows[0, 1:], rows[0, 1] * np.ones(3))  # t=0 identical
        assert np.abs(rows[:, 2] - rows[:, 1]).max() <= 1e-9
        assert np.abs(rows[:, 3] - rows[:, 1]).max() > 1e-6

    def test_signs(self, tmp_path):
        rec = run_sign_of_forces(_spec(tmp_path))
        assert rec.all_passed
        assert rec.scalars["ee_expectation"] > 0
        assert rec.scalars["ep_expectation"] < 0
        assert rec.scalars["pp_expectation"] > 0

    def test_signs_margin_is_a_distance_from_zero(self, tmp_path):
        # ee and pp must lie above +margin and ep below -margin: a margin
        # short of every |value| passes all three, one past them fails all
        pieces = ("ee", "ep", "pp")
        scalars = run_sign_of_forces(_spec(tmp_path)).scalars
        sizes = [abs(scalars[f"{k}_expectation"]) for k in pieces]
        for margin, passed in ((0.5 * min(sizes), True), (2.0 * max(sizes), False)):
            rec = run_sign_of_forces(_spec(tmp_path, tolerances={"signs.margin": margin}))
            by_name = {v.check: v for v in rec.verdicts}
            assert [by_name[f"{k}_sign"].passed for k in pieces] == [passed] * 3
            assert by_name["ep_sign"].tolerance == -margin
        # at the default margin 0 the ep threshold is +0.0, not -0.0
        ep = {v.check: v for v in run_sign_of_forces(_spec(tmp_path)).verdicts}["ep_sign"]
        assert math.copysign(1.0, ep.tolerance) == 1.0

    def test_signs_free_limit(self, tmp_path):
        rec = run_sign_of_forces(_spec(tmp_path, replace(CFG1, charge=0.0, q0_value=0.5)))
        assert rec.scalars["ee_expectation"] == 0.0
        assert rec.scalars["ep_expectation"] == 0.0
        assert rec.scalars["pp_expectation"] == 0.0

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_classical_rejects_charge_zero(self, tmp_path, dimension):
        # U(sigma) sigma, the oracle agreement and the split invariance all
        # divide by Coulomb energies, which are 0 at charge 0
        cfg = ModelConfig(dimension=dimension, charge=0.0)
        with pytest.raises(ValueError, match="charge > 0; got charge 0"):
            run_classical_suite(_spec(tmp_path, cfg))

    def test_vacuum(self, tmp_path):
        rec = run_vacuum_instability(_spec(tmp_path))
        assert rec.all_passed
        assert rec.scalars["ground_energy"] < 0
        sweep = np.loadtxt(tmp_path / "vacuum" / "coupling_sweep.csv",
                           delimiter=",", skiprows=1)
        energies = sweep[:, 1]
        assert np.all(np.diff(energies) > 0)  # toward zero as e decreases
        assert np.all(energies < 0)

    def test_vacuum_free_theory_fails(self, tmp_path):
        # at charge 0 there are no pairs: the sweep stays at the free vacuum,
        # so E0 and the pair amplitude are exactly 0 and both checks fail
        rec = run_vacuum_instability(_spec(tmp_path, replace(CFG1, charge=0.0, q0_value=0.5)))
        by_name = {v.check: v for v in rec.verdicts}
        assert rec.scalars["ground_energy"] == 0.0
        assert rec.scalars["pair_amplitude"] == 0.0
        assert not by_name["ground_energy_negative"].passed
        assert not by_name["ground_pair_content"].passed
        assert not rec.all_passed

    def test_vacuum_meta_records_solver(self, tmp_path):
        rec = run_vacuum_instability(_spec(tmp_path))
        out = rec.write(tmp_path)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["wall_time_s"] == rec.wall_time_s
        assert meta["numpy"] == np.__version__
        assert meta["sector_maps"] == ["P", "C", "S"]  # the 1D maps
        solves = meta["ground_state"]
        couplings = (1.0, 0.5, 0.25, 0.125)
        # in the CSV's order; solved from the weakest coupling up, the first
        # from the free vacuum, each later one from the coupling before
        assert [s["charge"] for s in solves] == [CFG1.charge * f for f in couplings]
        assert [s["start"] for s in solves] == [CFG1.charge * f for f in couplings[1:]] + [
            "vacuum"]
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=(0,)))
        for s in solves:
            assert s["solver"] == "davidson"
            assert s["dtype"] == "float64"  # every 1D entry is real
            assert set(s) == {"charge", "dim", "start", "solver", "dtype", "steps", "restarts",
                              "matvecs", "residual"}
            assert s["dim"] == rec.scalars["symmetric_dim"] == 16
            assert s["residual"] <= 1e-10
            assert s["restarts"] >= 0 and s["matvecs"] == s["steps"] + 1
            # each continued solve needs fewer products than a cold, seeded
            # solve of the same sector operator
            h_free, h_coul = to_matrices(
                [free_hamiltonian(CFG1), coulomb_full_packed(replace(CFG1, charge=s["charge"]))],
                basis, ms, symmetric=True)
            cold = h_free + h_coul
            ground_state(cold, random_start(cold, 0))
            assert s["matvecs"] < cold.meta["ground_state"]["matvecs"]
        payload = json.loads((out / "payload.json").read_text())
        assert set(payload) == {"name", "config_hash", "seed", "verdicts", "scalars",
                                "series_files", "truncation_drops"}

    @pytest.mark.parametrize("runner,name,hams,steps", [
        (run_single_electron_immunity, "immunity", ("free", "free_plus_coulomb"), 200),
        (run_spreading_comparison, "spread", ("free", "full", "bad"), 60),
    ])
    def test_one_electron_meta_records_evolve(self, tmp_path, runner, name, hams, steps):
        dim = enumerate_basis(modes_for(CFG1), Sector(n=1, charge=-1)).size
        payloads = []
        for out in (tmp_path / "a", tmp_path / "b"):
            rec = runner(_spec(out, seed=3))
            assert rec.all_passed
            rec.write(out)
            meta = json.loads((out / name / "meta.json").read_text())
            assert meta["evolve"] == {h: {"dim": dim, "steps": steps} for h in hams}
            payloads.append((out / name / "payload.json").read_bytes())
        assert b"evolve" not in payloads[0]
        assert payloads[0] == payloads[1]

    def test_vacuum_dense_oracle_small_sector(self, tmp_path):
        rec = run_vacuum_instability(_spec(tmp_path))
        by_name = {v.check: v for v in rec.verdicts}
        # the P=0 block of the 1D charge-0 N<=4 sector has dim 72 <= 400:
        # the dense-oracle verdict must be present and pass at 1e-9
        assert "dense_oracle_agreement" in by_name
        assert by_name["dense_oracle_agreement"].passed

    def test_classical(self, tmp_path):
        rec = run_classical_suite(_spec(tmp_path))
        assert rec.all_passed

    def test_classical_3d(self, tmp_path):
        rec = run_classical_suite(_spec(tmp_path, ModelConfig(dimension=3, grid_points=16)))
        assert rec.all_passed

    @pytest.mark.parametrize("q0_value", [0.5, 7.0])
    def test_classical_3d_u_sigma_with_q0(self, tmp_path, q0_value):
        # V(q=0) scales with the box as length^2, so the sweep stays self-similar
        cfg = ModelConfig(dimension=3, grid_points=16, q0_value=q0_value)
        rec = run_classical_suite(_spec(tmp_path, cfg))
        by_name = {v.check: v for v in rec.verdicts}
        assert by_name["u_sigma_constancy"].value == 0.0
        assert rec.all_passed

    def test_truncation_drops_reported(self, tmp_path):
        rec = run_single_electron_immunity(_spec(tmp_path))
        assert "coulomb_full" in rec.truncation_drops
        assert rec.truncation_drops["coulomb_full"] > 0


class TestDeterminism:
    @pytest.mark.parametrize("runner,name", [
        (run_single_electron_immunity, "immunity"),
        (run_spreading_comparison, "spread"),
        (run_sign_of_forces, "signs"),
        (run_vacuum_instability, "vacuum"),
        (run_classical_suite, "classical"),
    ])
    def test_byte_identical_reruns(self, tmp_path, runner, name):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        runner(_spec(out1, seed=11)).write(out1)
        runner(_spec(out2, seed=11)).write(out2)
        for f1 in sorted((out1 / name).glob("*")):
            if f1.name == "meta.json":
                continue
            f2 = out2 / name / f1.name
            assert f1.read_bytes() == f2.read_bytes(), f1.name

    def test_seed_changes_payload_hash_fields_only_when_relevant(self, tmp_path):
        rec1 = run_single_electron_immunity(_spec(tmp_path / "x", seed=1))
        rec2 = run_single_electron_immunity(_spec(tmp_path / "y", seed=2))
        assert rec1.payload()["seed"] != rec2.payload()["seed"]


def _reference_position_spread(v, basis, ms, cfg, grid_points=8):
    """The spread as computed before the grid was shared: every plane wave
    and grid array rebuilt per call."""
    d, g, box = cfg.dimension, grid_points, cfg.box_l
    shape = (g,) * d
    dens = np.zeros(shape)
    for s in (1, 2):
        phi = np.zeros(shape, dtype=np.complex128)
        for mode in ms:
            if mode.species is not Species.ELECTRON or mode.spin != s:
                continue
            amp = v[np.searchsorted(basis, np.uint64(1 << ms.index(mode)))]
            if amp == 0:
                continue
            mesh = np.indices(shape)
            phase = np.zeros(shape)
            for comp, ax in zip(mode.momentum, mesh):
                phase = phase + 2.0 * np.pi * comp * ax / g
            phi += amp * np.exp(1j * phase)
        dens += np.abs(phi) ** 2
    total = dens.sum()
    if total == 0:
        return 0.0
    dens /= total
    spread = 0.0
    for ax in np.indices(shape):
        theta = 2.0 * np.pi * ax / g
        mean = np.angle(np.sum(dens * np.exp(1j * theta)))
        delta = np.angle(np.exp(1j * (theta - mean)))
        spread += float(np.sum(dens * (delta * box / (2.0 * np.pi)) ** 2))
    return spread


@pytest.mark.parametrize("dimension", [1, 3])
def test_position_spreads_match_reference(rng, dimension):
    cfg = ModelConfig(dimension=dimension)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    states = rng.standard_normal((6, basis.size)) + 1j * rng.standard_normal((6, basis.size))
    states[1, ::3] = 0  # modes with no amplitude
    states[2] *= 1e-3
    states[5] = 0  # no state at all: spread 0
    got = _position_spreads(states, _spread_grid(basis, ms, cfg))
    want = [_reference_position_spread(v, basis, ms, cfg) for v in states]
    assert got.shape == (6,) and got[5] == want[5] == 0.0
    assert np.abs(got - want).max() <= 1e-14 * max(want)


def _reference_grid_density(v, basis, ms, cfg, g=8):
    """The position density of one state on all g^d grid points, built as
    in :func:`_reference_position_spread`."""
    shape = (g,) * cfg.dimension
    mesh = np.indices(shape)
    dens = np.zeros(shape)
    for s in (1, 2):
        phi = np.zeros(shape, dtype=np.complex128)
        for mode in ms:
            if mode.species is Species.ELECTRON and mode.spin == s:
                amp = v[np.searchsorted(basis, np.uint64(1 << ms.index(mode)))]
                phase = sum(2.0 * np.pi * comp * ax / g for comp, ax in zip(mode.momentum, mesh))
                phi += amp * np.exp(1j * phase)
        dens += np.abs(phi) ** 2
    return dens


@pytest.mark.parametrize("dimension", [1, 3])
def test_axis_marginals_sum_the_grid_density(rng, dimension):
    # two lines of modes never interfere once the other axes are summed
    # over, so each marginal is a sum of 1D densities
    cfg = ModelConfig(dimension=dimension)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    states = rng.standard_normal((4, basis.size)) + 1j * rng.standard_normal((4, basis.size))
    states[1, ::3] = 0
    states[2] *= 1e-3
    grid = _spread_grid(basis, ms, cfg)
    marginals = _axis_marginals(states, grid)
    assert len(marginals) == dimension
    for row, v in enumerate(states):
        dens = _reference_grid_density(v, basis, ms, cfg)
        for axis, marginal in enumerate(marginals):
            others = tuple(a for a in range(dimension) if a != axis)
            want = dens.sum(axis=others) / 8 ** (dimension - 1)
            assert np.abs(marginal[row] - want).max() <= 1e-14 * want.max()


def test_spread_grid_rejects_interfering_lines(monkeypatch):
    # on 2 points per axis, momenta -1 and 1 across an axis alias
    monkeypatch.setattr(experiments, "SPREAD_GRID_POINTS", 2)
    cfg = ModelConfig(dimension=3)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    with pytest.raises(ValueError, match="n_max = 1 and g = 2"):
        _spread_grid(basis, ms, cfg)


@pytest.mark.parametrize("dimension", [1, 3])
def test_position_spreads_equal_rows_equal_bits(rng, dimension):
    # the t = 0 row of every spread curve is the same state, and the run
    # compares those spreads exactly
    cfg = ModelConfig(dimension=dimension)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    grid = _spread_grid(basis, ms, cfg)
    v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    others = rng.standard_normal((7, basis.size)) + 1j * rng.standard_normal((7, basis.size))
    states = np.insert(others, [0, 3, 7], v, axis=0)
    got = _position_spreads(states, grid)
    alone = _position_spreads(v[None, :], grid)[0]
    assert got[0] == got[4] == got[9] == alone


def test_spread_grid_rejects_a_mode_outside_the_basis():
    # one electron mode's state missing from the basis: its amplitude has
    # no index to be read from
    cfg = ModelConfig(dimension=1)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    with pytest.raises(SectorError, match=f"occupancy {int(basis[2]):#x} outside basis"):
        _spread_grid(np.delete(basis, 2), ms, cfg)


E, P = Species.ELECTRON, Species.POSITRON


def _creator(ms, packet):
    """The creation expression of a packet: sum over k of amp_k c+_k."""
    return OperatorExpr([Term(amp, (Ladder(ms[k], True),)) for k, amp in packet.items()])


@pytest.mark.parametrize("species, charge", [((E, E), -2), ((E, P), 0), ((P, P), 2)],
                         ids=["ee", "ep", "pp"])
@pytest.mark.parametrize("dimension", [1, 3])
def test_pair_state_is_the_product_of_the_creators(dimension, species, charge):
    # a_i b_j on the state {i, j}, with the sign of reordering b+_i b+_j |0>
    # to the basis order (smaller mode index leftmost)
    cfg = ModelConfig(dimension=dimension)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=2, charge=charge))
    rest = (cfg.box_l * 0.5,) * (dimension - 1)
    one = _creator(ms, _packet(cfg, ms, species[0], 1, (cfg.box_l * 0.25,) + rest))
    two = _creator(ms, _packet(cfg, ms, species[1], 2, (cfg.box_l * 0.375,) + rest))
    got = _pair_state(cfg, ms, basis, *species)
    # the symbolic construction: the vacuum column of the product of the
    # creators, assembled on the basis with the vacuum put in front
    pair = to_matrix(multiply(one, two), np.insert(basis, 0, 0), ms)
    unit = np.zeros(basis.size + 1)
    unit[0] = 1.0
    product = (pair @ unit)[1:]
    assert np.array_equal(got, product / np.linalg.norm(product))
    want = np.zeros(basis.size, dtype=np.complex128)
    for a in one.terms:
        for b in two.terms:
            i, j = ms.index(a.factors[0].mode), ms.index(b.factors[0].mode)
            k = int(np.searchsorted(basis, (1 << i) | (1 << j)))
            assert basis[k] == (1 << i) | (1 << j)
            want[k] += a.coeff * b.coeff * (-1 if i > j else 1)
    want /= np.linalg.norm(want)
    assert np.abs(got - want).max() <= 1e-15


class TestSpecTolerances:
    def test_unknown_key_named_with_the_valid_keys(self):
        with pytest.raises(ValueError, match="unknown tolerance 'signs.margn'") as err:
            ExperimentSpec(tolerances={"signs.margn": 5.0})
        assert all(key in str(err.value) for key in DEFAULT_TOLERANCES)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_rejected(self, value):
        with pytest.raises(ValueError, match="tolerance signs.margin must be finite"):
            ExperimentSpec(tolerances={"signs.margin": value})

    @pytest.mark.parametrize("value", [True, "1.0", None, 1j])
    def test_non_real_value_rejected(self, value):
        # True would pass as 1.0; a string raised a bare TypeError
        with pytest.raises(ValueError, match="tolerance signs.margin must be a real number"):
            ExperimentSpec(tolerances={"signs.margin": value})

    def test_negative_value_allowed(self):
        assert ExperimentSpec(tolerances={"signs.margin": -1.0}).tol("signs.margin") == -1.0

    def test_positive_e0_bound_rejected(self):
        # vacuum.e0_negative is an upper bound on E0: a positive value would
        # pass a non-negative E0
        with pytest.raises(ValueError, match="tolerance vacuum.e0_negative must be <= 0"):
            ExperimentSpec(tolerances={"vacuum.e0_negative": 0.01})
        for value in (0.0, -1e-3):
            spec = ExperimentSpec(tolerances={"vacuum.e0_negative": value})
            assert spec.tol("vacuum.e0_negative") == value


@pytest.mark.parametrize("seed", [-1, True, 1.0, "3"])
def test_spec_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        ExperimentSpec(seed=seed)


def _usage_error(result) -> str:
    """The one error line of a command that stopped with a usage error."""
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)  # not an uncaught exception
    assert "Traceback" not in result.output
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1, result.output
    return errors[0]


class TestCli:
    def test_print_config_default(self):
        result = CliRunner().invoke(main, ["print-config"])
        assert result.exit_code == 0
        assert json.loads(result.output)["dimension"] == 3

    def test_print_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(CFG1.to_json())
        result = CliRunner().invoke(main, ["print-config", "--config", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["dimension"] == 1

    def test_normal_order_prescription(self):
        result = CliRunner().invoke(main, ["normal-order", "b-(1,0) b+(1,0)"])
        assert result.exit_code == 0
        assert result.output.strip() == "(-1.0+0.0i)·b+(1,0) b-(1,0)"

    def test_normal_order_wick_keeps_identity(self):
        result = CliRunner().invoke(main, ["normal-order", "--mode", "wick", "b-(1,0) b+(1,0)"])
        assert result.exit_code == 0
        assert "(1.0+0.0i)" in result.output  # the contraction constant survives

    def test_normal_order_stdin_round_trip(self):
        text = "(0.5-1.5i)·b+(2,1) d+(1,-1)"
        result = CliRunner().invoke(main, ["normal-order"], input=text)
        assert result.exit_code == 0
        assert result.output.strip() == text  # already normal ordered and canonical

    def test_normal_order_rejects_garbage(self):
        result = CliRunner().invoke(main, ["normal-order", "x+(1,0)"])
        assert result.exit_code != 0

    def test_experiment_exit_code_and_files(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(CFG1.to_json())
        result = CliRunner().invoke(
            main,
            ["immunity", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
             "--seed", "5", "--svg"],
        )
        assert result.exit_code == 0, result.output
        assert "[PASS]" in result.output
        out = tmp_path / "out" / "immunity"
        assert (out / "payload.json").exists()
        assert (out / "meta.json").exists()
        assert (out / "deviation.svg").exists()

    def test_all_experiment_subcommands_registered(self):
        result = CliRunner().invoke(main, ["--help"])
        for sub in ("immunity", "spread", "signs", "vacuum", "classical",
                    "normal-order", "print-config"):
            assert sub in result.output

    def test_one_subcommand_per_runner(self):
        # each runner is a subcommand whose help is its docstring's first paragraph
        assert set(RUNNERS) <= set(main.commands)
        for name, runner in RUNNERS.items():
            assert main.commands[name].help == inspect.getdoc(runner).split("\n\n")[0]

    @pytest.mark.parametrize("name, charts", [
        ("immunity", {"deviation.svg"}),
        ("spread", {"spread.svg"}),
        ("signs", set()),
        ("vacuum", {"coupling_sweep.svg"}),
        ("classical", set()),
    ])
    def test_svg_charts(self, tmp_path, name, charts):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(CFG1.to_json())
        result = CliRunner().invoke(
            main, [name, "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--svg"])
        assert result.exit_code == 0, result.output
        out = tmp_path / "out" / name
        assert {p.name for p in out.glob("*.svg")} == charts
        for chart in charts:
            assert (out / chart).read_text().startswith("<svg ")

    @pytest.mark.parametrize("series", [{}, {"E0": ([], [])}], ids=["no-series", "empty-series"])
    def test_chart_without_points_has_unit_axes(self, tmp_path, series):
        path = tmp_path / "chart.svg"
        svg.write_line_chart(path, series, "title", "x", "y")
        text = path.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>")
        # the axes span [0, 1] on both sides when there is nothing to scale to
        for tick in ("0", "0.25", "0.5", "0.75", "1"):
            assert f'text-anchor="end" font-size="10">{tick}</text>' in text
            assert f'text-anchor="middle" font-size="10">{tick}</text>' in text
        assert text.count("<polyline") == len(series)

    def test_tolerance_override_can_fail_a_run(self, tmp_path):
        # an impossible tolerance flips the exit code: verdicts really are
        # computed against the configured values
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(CFG1.to_json())
        result = CliRunner().invoke(
            main,
            ["immunity", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
             "--tolerance", "immunity.evolution_deviation=-1"],
        )
        assert result.exit_code == 1
        assert "[FAIL]" in result.output

    def test_bad_tolerance_syntax_rejected(self):
        result = CliRunner().invoke(main, ["immunity", "--tolerance", "nonsense"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("override, message", [
        ("signs.margn=5", "unknown tolerance 'signs.margn'; valid keys: "),
        ("signs.margin=nan", "tolerance signs.margin must be finite, got nan"),
        ("immunity.block_max=1e-10", "unknown tolerance 'immunity.block_max'; valid keys: "),
        ("vacuum.e0_negative=0.01", "tolerance vacuum.e0_negative must be <= 0, got 0.01"),
        ("signs.margin=abc", "tolerance 'signs.margin=abc' is not a number"),
    ], ids=["misspelled", "nan", "exact-check", "positive-e0-bound", "not-a-number"])
    def test_bad_tolerance_is_a_usage_error(self, tmp_path, override, message):
        result = CliRunner().invoke(
            main, ["signs", "--out", str(tmp_path), "--tolerance", override])
        assert message in _usage_error(result)
        assert not (tmp_path / "signs").exists()  # nothing ran

    @pytest.mark.parametrize("text, message", [
        ('{"dimension": 1, "nmax": 2}', "unknown config keys: nmax"),
        ("[1, 2]", "a config must be a JSON object, got list"),
        ('{"dimension": 1,', "Expecting property name"),
        ('{"dimension": 2}', "dimension must be 1 or 3"),
    ], ids=["unknown-key", "list", "bad-json", "bad-value"])
    @pytest.mark.parametrize("command", ["signs", "print-config"])
    def test_bad_config_is_a_usage_error(self, tmp_path, command, text, message):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        args = [command, "--config", str(path)]
        if command == "signs":
            args += ["--out", str(tmp_path / "out")]
        line = _usage_error(CliRunner().invoke(main, args))
        assert "--config" in line and message in line
        assert not (tmp_path / "out").exists()

    def test_runner_config_error_is_a_usage_error(self, tmp_path):
        path = tmp_path / "c0.json"
        path.write_text('{"charge": 0.0, "dimension": 1}')
        result = CliRunner().invoke(
            main, ["classical", "--config", str(path), "--out", str(tmp_path / "out")])
        line = _usage_error(result)
        assert "--config" in line and "charge" in line
        assert not (tmp_path / "out").exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path):
        result = CliRunner().invoke(
            main, ["immunity", "--out", str(tmp_path), "--seed", "-1"])
        assert "--seed" in _usage_error(result)
        assert not (tmp_path / "immunity").exists()

    @pytest.mark.parametrize("command", ["signs", "print-config"])
    def test_config_directory_is_a_usage_error(self, tmp_path, command):
        args = [command, "--config", str(tmp_path)]
        if command == "signs":
            args += ["--out", str(tmp_path / "out")]
        line = _usage_error(CliRunner().invoke(main, args))
        assert "--config" in line and "is a directory" in line
        assert not (tmp_path / "out").exists()
