#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny 1D default config (seconds).

    python3 perfbench/selftest.py

Runs all five experiments once untraced and once traced, then checks that

- every metric named in BENCHMARK.json is reported, with the same unit, and
  printed with its unit;
- child spans lie inside their parents and no self time is negative;
- traced and untraced payloads are byte-identical;
- a deliberately wrong reference scalar is counted in failed_frac.

Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run
import tracing

SELFTEST = {"config": {"dimension": 1}, "experiments": list(run.EXPERIMENTS)}


def main() -> int:
    problems: list[str] = []
    work = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run.build()
    reference = run.load_reference()["selftest-1d"]
    bench = run.Run(SELFTEST, seed=0, seconds=0, trace=True, reference=reference, work=work)
    bench.execute()
    problems += [f"{k}: {'; '.join(v)}" for k, v in bench.failures.items()]
    if [p["traced"] for p in bench.passes] != [False, True]:
        problems.append(f"expected one untraced and one traced pass, got {len(bench.passes)}")

    untraced, traced = (p["results"] for p in bench.passes[:2])
    for name in SELFTEST["experiments"]:
        a, b = untraced.get(name), traced.get(name)
        if not (a and b):
            continue
        pa = (run.Path(a["out_dir"]) / name / "payload.json").read_bytes()
        pb = (run.Path(b["out_dir"]) / name / "payload.json").read_bytes()
        if pa != pb:
            problems.append(f"{name}: traced payload differs from untraced")
        problems += [f"{name}: {p}" for p in tracing.check_spans(b["spans"])]

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e, layers = bench.end_to_end(), bench.per_layer()
    for section, metrics, units in (("end_to_end", e2e, run.END_TO_END),
                                    ("per_layer", layers, run.per_layer_units())):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != {name: units[name] for name in metrics}:
            problems.append(f"{section}: reported metrics/units differ from BENCHMARK.json")
        table = run.format_table(metrics, units).splitlines()
        for (name, unit), line in zip(declared.items(), table):
            if line.split()[0] != name or line.split()[-1] != unit:
                problems.append(f"{section}: {name} not printed with unit {unit}")
    problems += [f"{name} = {v} < 0" for name, v in layers.items()
                 if name.endswith("self_s") and v < 0]
    if not layers["fock.evolve.calls"] or not layers["classical.calls"]:
        problems.append("traced pass recorded no evolve or classical calls")

    # the same outputs against a wrong reference must count as failures
    wrong = copy.deepcopy(reference)
    wrong["vacuum"]["ground_energy"] += 1e-6
    bench.failures.clear()
    for i, p in enumerate(bench.passes):
        for name, result in p["results"].items():
            if bench.check(name, result, wrong):
                bench.failures[f"pass {i} {name}"] = ["wrong reference"]
    failed_frac = bench.per_layer()["failed_frac"]
    if failed_frac != 2 / bench.attempted:
        problems.append(f"wrong reference gave failed_frac {failed_frac}, "
                        f"expected {2 / bench.attempted}")

    shutil.rmtree(work, ignore_errors=True)
    print(run.format_table(e2e, run.END_TO_END))
    print(run.format_table(layers, run.per_layer_units()))
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
