"""The benchmark's tracer (``perfbench/tracing.py``) patches fockbox from
outside and skips any name fockbox no longer has, so a rename or a deletion
would read 0 in a per-layer metric without a sound.  These tests pin every
name it patches, run the five runners under it, and run one traced worker
process, the command that reports layer numbers on any config."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fockbox import assembly, classical, coulomb, experiments, fock, model
from fockbox.experiments import RUNNERS, ExperimentSpec
from fockbox.model import ModelConfig

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists(tracing):
    names = [(experiments, name) for name in tracing.FOCK_CALLS]
    names += [(classical, name) for name in tracing.CLASSICAL_CALLS]
    names += [(model, name) for name in tracing.BUILDERS]
    names += [(model, "normal_order_prescription"), (model, "canonicalize"),
              (assembly, "assemble"), (fock.SparseOperator, "hermiticity_defect"),
              (coulomb.CoulombKernel, "value")]
    missing = [f"{owner.__name__}.{name}" for owner, name in names
               if not callable(getattr(owner, name, None))]
    assert missing == []


def test_traced_runs_match_untraced_payloads(tracing, tmp_path):
    cfg = ModelConfig(dimension=1)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    for runner in RUNNERS.values():
        runner(ExperimentSpec(config=cfg, out_dir=plain)).write(plain)
    originals = (experiments.to_matrix, assembly.assemble)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, runner in RUNNERS.items():
            span = tracer.begin(f"experiments.{name}")
            runner(ExperimentSpec(config=cfg, out_dir=traced)).write(traced)
            tracer.end(span)
    finally:
        tracer.restore()
    assert (experiments.to_matrix, assembly.assemble) == originals
    assert tracing.check_spans(tracer.spans) == []
    recorded = {span[0] for span in tracer.spans}
    assert {"fock.evolve", "assembly.assemble"} <= recorded
    assert tracer.counts["fock.evolve.steps"] > 0 and tracer.counts["assembly.nnz"] > 0
    # one evolve call per Hamiltonian: 2 in immunity (200 steps), 3 in spread (60)
    assert sum(span[0] == "fock.evolve" for span in tracer.spans) == 5
    assert tracer.counts["fock.evolve.steps"] == 2 * 200 + 3 * 60
    for name in RUNNERS:
        files = sorted(f for f in (plain / name).iterdir() if f.name != "meta.json")
        assert files
        for f in files:
            assert f.read_bytes() == (traced / name / f.name).read_bytes(), f"{name}/{f.name}"


def test_traced_worker_reports_layers_on_any_config(tmp_path):
    # 1D n_max=2 at cap 4, a config no benchmark workload runs
    config = json.dumps({"dimension": 1, "n_max": 2, "sector_n_max": 4})
    out = tmp_path / "result.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT), str(out),
                    "vacuum", config, "0", str(tmp_path / "results"), "1"],
                   check=True, timeout=120)
    result = json.loads(out.read_text())
    assert {"assembly.assemble", "fock.ground_state"} <= {span[0] for span in result["spans"]}
    assert result["counts"]["assembly.nnz"] > 0
    assert result["scalars"]["symmetric_dim"] == 58
    assert result["counts"]["fock.ground_state.dim"] == result["scalars"]["symmetric_dim"]
