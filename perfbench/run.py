#!/usr/bin/env python3
"""fockbox pipeline benchmark: cold CLI experiments, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fockbox checkout.  Each experiment runs the way the
CLI runs it: in a fresh interpreter (``worker.py``) that imports fockbox
from ``src/``, calls ``fockbox.experiments.RUNNERS[name]`` and
``ResultRecord.write``.  The loop is closed with one client: one experiment
process at a time.  A run starts with an untimed warm-up process and a few
set-up probes; then whole passes over the workload's experiments repeat
until another pass would end after ``--seconds`` (at least two passes, so
every run can compare payloads between repeats).

Every experiment run is checked: all verdicts pass, the key scalars match
``reference.json`` (recorded at the seed commit) within 1e-9, and the
payload bytes equal those of the run's first pass.  A miss counts in
``failed``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
passes (see ``tracing.py``), per-experiment times and the tracing overhead.
The last line of stdout is the JSON result; the lines before it are a
table, and the environment.  Spans and per-pass data go to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "vacuum-3d": {"config": {}, "experiments": ["vacuum"]},
    "onebody-3d": {"config": {}, "experiments": ["immunity", "spread", "signs", "classical"]},
    "vacuum-1d-n6": {"config": {"dimension": 1, "n_max": 2, "sector_n_max": 6},
                     "experiments": ["vacuum"]},
}
EXPERIMENTS = ("vacuum", "immunity", "spread", "signs", "classical")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_EXPERIMENT = {f"{name}_s": "s" for name in EXPERIMENTS}
RUN_METRICS = {"trace_overhead_s": "s", "failed_frac": "ratio"}

SCALAR_TOL = 1e-9
SETUP_PROBES = 3  # set-up-only processes per run, on top of the experiment processes
# On a 2-core virtual machine the first BLAS-heavy process after an idle spell
# ran up to 1 s slow (1D vacuum: ground_state 0.8 s instead of 0.03 s), so each
# run starts with an untimed small experiment.
WARMUP = ("vacuum", {"dimension": 1})
HARD_LIMIT_S = 165.0  # a run ends well inside 180 s whatever --seconds says


def per_layer_units() -> dict[str, str]:
    units = {name: spec[0] for name, spec in tracing.LAYER_METRICS.items()}
    units.update(PER_EXPERIMENT)
    units.update(RUN_METRICS)
    return units


def environment() -> dict:
    def git_revision():
        try:
            # the ceiling keeps git from taking a repository above the checkout
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
        lines = out.stdout.split()
        if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
            return "unknown"
        return lines[1]

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = {k: v for k, v in os.environ.items()
               if re.search(r"THREAD|^OMP_|^GOTO", k) and not k.startswith("PYTHON")}
    return {
        "git_revision": git_revision(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_env": threads,
    }


def steal_seconds() -> float:
    """CPU time the hypervisor gave to others, summed over CPUs (0 if unknown)."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class Run:
    """One benchmark run: passes of worker processes, their checks and
    metrics."""

    def __init__(self, spec: dict, seed: int, seconds: float, trace: bool, reference: dict,
                 work: Path):
        self.spec, self.seed = spec, seed
        self.seconds, self.trace = seconds, trace
        self.reference = reference
        self.work = work
        self.t0 = time.perf_counter()
        self.passes: list[dict] = []
        self.probes: list[dict] = []
        self.first_payload: dict[str, bytes] = {}
        self.failures: dict[str, list[str]] = {}  # experiment run -> problems
        self.attempted = 0
        self.n_proc = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def spawn(self, experiment: str, traced: bool, config: dict | None = None) -> dict | None:
        self.n_proc += 1
        tag = f"{self.n_proc:03d}-{experiment.strip('-') or 'setup'}"
        out_dir = self.work / tag
        out_dir.mkdir(parents=True)
        result_path = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(result_path),
               experiment, json.dumps(self.spec["config"] if config is None else config),
               str(self.seed), str(out_dir), "1" if traced else "0"]
        with open(self.work / f"{tag}.log", "w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(1.0, HARD_LIMIT_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not result_path.exists():
            return None
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["out_dir"] = str(out_dir)
        return result

    def check(self, experiment: str, result: dict | None, reference: dict) -> list[str]:
        """Reasons this experiment run failed; empty if it passed."""
        if result is None:
            return ["worker raised, crashed or timed out"]
        problems = [f"verdict {k} failed" for k, ok in result["verdicts"].items() if not ok]
        for name, want in reference.get(experiment, {}).items():
            got = result["scalars"].get(name)
            if got is None or abs(got - want) > SCALAR_TOL * max(1.0, abs(want)):
                problems.append(f"scalar {name} = {got!r}, reference {want!r}")
        payload = (Path(result["out_dir"]) / experiment / "payload.json").read_bytes()
        first = self.first_payload.setdefault(experiment, payload)
        if payload != first:
            problems.append("payload bytes differ from the run's first pass")
        if "spans" in result:
            problems += tracing.check_spans(result["spans"])
        return problems

    def run_pass(self, traced: bool) -> None:
        results = {}
        for experiment in self.spec["experiments"]:
            result = self.spawn(experiment, traced)
            self.attempted += 1
            problems = self.check(experiment, result, self.reference)
            if problems:
                self.failures[f"pass {len(self.passes)} {experiment}"] = problems
            results[experiment] = result
        self.passes.append({"traced": traced, "results": results})

    def execute(self) -> None:
        if self.spawn(WARMUP[0], traced=False, config=WARMUP[1]) is None:
            raise SystemExit("the warm-up run failed; see its log under .perfbench/work")
        for _ in range(SETUP_PROBES):
            probe = self.spawn("-", traced=False)
            if probe is None:
                raise SystemExit("a set-up probe failed; see its log under .perfbench/work")
            self.probes.append(probe)
        durations = []
        while True:
            start = self.elapsed()
            self.run_pass(traced=self.trace and len(self.passes) % 2 == 1)
            durations.append(self.elapsed() - start)
            if any(r is None for r in self.passes[-1]["results"].values()):
                break
            next_end = self.elapsed() + statistics.median(durations)
            if next_end > HARD_LIMIT_S - 10 or (len(self.passes) >= 2 and next_end > self.seconds):
                break

    # -- metrics ---------------------------------------------------------

    def complete(self, traced: bool) -> list[dict]:
        return [p["results"] for p in self.passes
                if p["traced"] == traced and all(p["results"].values())]

    def experiment_times(self, traced: bool) -> dict[str, float]:
        """Median time to verdict of each experiment over complete passes."""
        passes = self.complete(traced)
        return {name: median([p[name]["run_s"] for p in passes if name in p])
                for name in EXPERIMENTS}

    def end_to_end(self) -> dict[str, float]:
        processes = [r for p in self.complete(traced=False) for r in p.values()] + self.probes
        setups = [r["setup_s"] for p in self.passes for r in p["results"].values() if r]
        setups += [r["setup_s"] for r in self.probes]
        return {
            "wall_s": sum(self.experiment_times(traced=False).values()),
            "setup_s": median(setups),
            "peak_rss_mb": max((r["rss_mb"] for r in processes), default=0.0),
        }

    def per_layer(self) -> dict[str, float]:
        layers = [tracing.layer_metrics(p.values()) for p in self.complete(traced=True)]
        out = {name: median([m[name] for m in layers]) for name in tracing.LAYER_METRICS}
        plain = self.experiment_times(traced=False)
        out.update({f"{name}_s": t for name, t in plain.items()})
        out["trace_overhead_s"] = (sum(self.experiment_times(traced=True).values())
                                   - sum(plain.values()))
        out["failed_frac"] = len(self.failures) / self.attempted
        return out


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


def build() -> None:
    """Build fockbox in place from source (its optional compiled kernel),
    unless the sources are unchanged since the last build in this checkout."""
    digest = hashlib.sha256()
    for path in sorted([ROOT / "setup.py", ROOT / "pyproject.toml", *(ROOT / "src").rglob("*")]):
        if path.is_file() and path.suffix not in (".so", ".pyc"):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    stamp = ROOT / ".perfbench" / "build.stamp"
    if stamp.exists() and stamp.read_text() == digest.hexdigest():
        return
    log = ROOT / ".perfbench" / "build.log"
    with open(log, "w", encoding="utf-8") as fh:
        proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                              cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"building fockbox failed; see {log}")
    stamp.write_text(digest.hexdigest())


def format_table(metrics: dict[str, float], units: dict[str, str]) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g} {units[name]}"
                     for name, value in metrics.items())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fockbox" / "__init__.py").is_file():
        print(f"error: no fockbox sources under {ROOT / 'src'}; run from a fockbox checkout",
              file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    work = state / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (state / "results").mkdir(exist_ok=True)
    build()

    env = environment()
    env["loadavg_start"] = os.getloadavg()
    steal_start = steal_seconds()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
              load_reference()[args.workload], work)
    run.execute()
    env["loadavg_end"] = os.getloadavg()
    env["steal_s"] = steal_seconds() - steal_start
    env.update(next((r["env"] for p in run.passes for r in p["results"].values() if r), {}))
    if not run.failures:  # a failed run keeps its worker logs
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics, units = run.per_layer(), per_layer_units()
    else:
        metrics, units = run.end_to_end(), END_TO_END

    stem = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "env": env,
                   "metrics": metrics, "failures": run.failures,
                   "passes": [{"traced": p["traced"],
                               "results": {k: r and {f: r[f] for f in r if f != "spans"}
                                           for k, r in p["results"].items()}}
                              for p in run.passes]}, fh, indent=1)
    if args.trace:
        with open(f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump([{"run_id": r["run_id"], "experiment": name, "spans": r["spans"]}
                       for p in run.complete(traced=True) for name, r in p.items()], fh)

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(run.passes)}  "
          f"experiment runs {run.attempted}  failed {failed}  "
          f"failed_frac {failed / run.attempted:.3g}")
    print(format_table(metrics, units))
    for key, problems in run.failures.items():
        print(f"  FAIL {key}: " + "; ".join(problems))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
