"""One benchmark process: import fockbox cold, run one experiment as the CLI
does, and write a JSON result for ``run.py``.

    python3 perfbench/worker.py ROOT RESULT.json EXPERIMENT CONFIG_JSON SEED OUT_DIR TRACE

``EXPERIMENT`` may be ``-`` to time the set-up alone.  The fockbox imported
is the one under ``ROOT/src``; any other copy on the path is refused.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    root, result_path, experiment, config_json, seed, out_dir, trace = argv
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    t0 = time.perf_counter()
    import fockbox
    from fockbox.experiments import RUNNERS, ExperimentSpec
    from fockbox.model import ModelConfig, modes_for

    cfg = ModelConfig.from_dict(json.loads(config_json))
    modes_for(cfg)
    setup_s = time.perf_counter() - t0
    if os.path.commonpath([os.path.abspath(fockbox.__file__), src]) != src:
        raise ImportError(f"imported fockbox from {fockbox.__file__}, not from {src}")

    result = {"experiment": experiment, "setup_s": setup_s, "run_id": f"{os.getpid()}"}
    if experiment != "-":
        from tracing import Tracer

        spec = ExperimentSpec(config=cfg, seed=int(seed), out_dir=out_dir)
        tracer = Tracer()
        if trace == "1":
            tracer.install()
        try:
            start = time.perf_counter()
            root_span = tracer.begin(f"experiments.{experiment}")
            record = RUNNERS[experiment](spec)
            record.write(out_dir)
            tracer.end(root_span)
            result["run_s"] = time.perf_counter() - start
        finally:
            tracer.restore()
        result["verdicts"] = {v.check: v.passed for v in record.verdicts}
        result["scalars"] = record.scalars
        if trace == "1":
            result["spans"] = tracer.spans
            result["counts"] = dict(tracer.counts)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = _environment()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def _environment():
    import numpy
    import scipy

    from fockbox import assembly

    blas = {}
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    return {
        "backend": getattr(assembly, "backend_name", lambda: "unknown")(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version")},
    }


if __name__ == "__main__":
    main(sys.argv[1:])
