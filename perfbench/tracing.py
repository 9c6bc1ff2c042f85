"""Spans and counters around fockbox's layer entry points, and the per-layer
metrics derived from them.

The tracer patches module and class attributes of an imported fockbox from
outside (fockbox itself carries no instrumentation) and puts every original
back in :meth:`Tracer.restore`.  Wrappers sit outside any ``lru_cache``, so a
cache hit shows up as a near-zero span.  Names a later fockbox no longer has
are skipped; their metrics then read 0.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span in the same process (-1 for the root).  Spans stay in memory
and are written once, when the worker process finishes.
"""

from __future__ import annotations

import math
import time
from collections import Counter

# Builders whose calls form the model.build layer.
BUILDERS = ("free_hamiltonian", "coulomb_full", "coulomb_partial",
            "bad_electron_term", "coulomb_pieces")
# fockbox.fock entry points as the runners see them (names bound in experiments).
FOCK_CALLS = ("enumerate_basis", "to_matrix", "ground_state", "evolve")
# fockbox.classical functions the classical runner calls.
CLASSICAL_CALLS = ("synthesize_field", "charge_density", "total_charge",
                   "gaussian_cloud", "coulomb_energy", "coulomb_energy_direct",
                   "decomposition_report")


def _n_terms(expr) -> int:
    if hasattr(expr, "terms"):
        return len(expr.terms)
    return sum(_n_terms(e) for e in expr)  # CoulombPieces


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def _patch(self, owner, attr, make):
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a spanned call; ``after(args, kwargs, out)``
        records counts once the call has returned."""

        def make(orig):
            def traced(*args, **kwargs):
                idx = self.begin(name)
                try:
                    out = orig(*args, **kwargs)
                finally:
                    self.end(idx)
                if after is not None:
                    after(args, kwargs, out)
                return out

            return traced

        self._patch(owner, attr, make)

    def count_calls(self, owner, attr, key):
        """Replace ``owner.attr`` by a call that only increments a counter."""
        counts = self.counts

        def make(orig):
            def counted(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)

            return counted

        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- fockbox hooks ---------------------------------------------------

    def install(self) -> None:
        from fockbox import assembly, classical, coulomb, experiments, fock, model

        for fn in BUILDERS:
            orig = getattr(model, fn, None)
            if orig is None:
                continue
            # one miss counter per builder, shared by both of its bindings
            after = self._builder_after(fn, orig)
            for owner in (experiments, model):
                if getattr(owner, fn, None) is orig:
                    self.wrap(owner, fn, f"model.{fn}", after)
        self.wrap(model, "normal_order_prescription", "algebra.normal_order", self._algebra_after)
        self.wrap(model, "canonicalize", "algebra.canonicalize", self._algebra_after)
        self.count_calls(coulomb.CoulombKernel, "value", "coulomb.kernel_evals")

        after = {"enumerate_basis": self._enumerate_after, "ground_state": self._ground_after,
                 "evolve": self._evolve_after}
        for fn in FOCK_CALLS:
            self.wrap(experiments, fn, f"fock.{fn}", after.get(fn))
        self.wrap(assembly, "assemble", "assembly.assemble", self._assemble_after)
        self.wrap(fock.SparseOperator, "hermiticity_defect", "fock.hermiticity")
        for fn in CLASSICAL_CALLS:
            self.wrap(classical, fn, f"classical.{fn}")

    def _builder_after(self, fn, orig):
        # A build is an lru_cache miss; without a cache every call builds.
        cache_info = getattr(orig, "cache_info", None)
        state = {"misses": cache_info().misses if cache_info else 0}

        def after(args, kwargs, out):
            if cache_info is not None:
                misses = cache_info().misses
                built, state["misses"] = misses - state["misses"], misses
            else:
                built = 1
            if built:
                self.counts["model.build.terms"] += _n_terms(out)
                self.counts[f"model.{fn}.builds"] += built

        return after

    def _algebra_after(self, args, kwargs, out):
        self.counts["algebra.terms_in"] += len(args[0].terms)
        self.counts["algebra.terms_out"] += len(out.terms)

    def _enumerate_after(self, args, kwargs, out):
        modes, sector = args[0], args[1]
        m = len(modes)
        # the sizes enumerate_basis walks: n, 0..n_max, or every size
        if sector.n is not None:
            sizes = [sector.n] if sector.n <= m else []
        elif sector.n_max is not None:
            sizes = range(min(sector.n_max, m) + 1)
        else:
            sizes = range(m + 1)
        self.counts["fock.enumerate_basis.states"] += len(out)
        self.counts["fock.enumerate_basis.examined"] += sum(math.comb(m, k) for k in sizes)

    def _assemble_after(self, args, kwargs, out):
        coeffs, basis = args[0], args[3]
        self.counts["assembly.term_states"] += len(coeffs) * len(basis)
        self.counts["assembly.nnz"] += len(out[2])
        self.counts["assembly.dropped"] += int(out[3])

    def _ground_after(self, args, kwargs, out):
        key = "fock.ground_state.dim"
        self.counts[key] = max(self.counts[key], args[0].dim)

    def _evolve_after(self, args, kwargs, out):
        t, dt = args[2], args[3]
        self.counts["fock.evolve.steps"] += 0 if t == 0 else max(1, math.ceil(t / dt - 1e-12))


# -- per-layer metrics ----------------------------------------------------

# Which time to verdict a layer should move, and on which workloads; every
# entry also moves wall_s on those workloads.  Kept here so that later changes
# can cite the names.
_BUILD = (("immunity_s", "spread_s", "signs_s", "vacuum_s"), ("onebody-3d", "vacuum-3d"))
_ASSEMBLY = (("vacuum_s", "immunity_s", "spread_s", "signs_s"),
             ("vacuum-3d", "vacuum-1d-n6", "onebody-3d"))
_SECTOR = (("vacuum_s",), ("vacuum-1d-n6", "vacuum-3d"))
_EVOLVE = (("immunity_s", "spread_s"), ("onebody-3d",))
_CLASSICAL = (("classical_s",), ("onebody-3d",))
_RUNNER = (("vacuum_s", "immunity_s", "spread_s", "signs_s", "classical_s"),
           ("vacuum-3d", "onebody-3d", "vacuum-1d-n6"))

# per-layer metric: (unit, better, (times it moves, workloads))
LAYER_METRICS = {
    "model.build.calls": ("count", "lower", _BUILD),
    "model.build.time_s": ("s", "lower", _BUILD),
    "model.build.self_s": ("s", "lower", _BUILD),
    "model.build.terms": ("count", "lower", _BUILD),
    "model.coulomb_full.builds": ("count", "lower", _BUILD),
    "algebra.normal_order.time_s": ("s", "lower", _BUILD),
    "algebra.canonicalize.time_s": ("s", "lower", _BUILD),
    "algebra.terms_in": ("count", "lower", _BUILD),
    "algebra.terms_out": ("count", "lower", _BUILD),
    "algebra.kept_ratio": ("ratio", "higher", _BUILD),
    "coulomb.kernel_evals": ("count", "lower", _BUILD),
    "fock.enumerate_basis.time_s": ("s", "lower", _SECTOR),
    "fock.enumerate_basis.states": ("count", "lower", _SECTOR),
    "fock.enumerate_basis.examined": ("count", "lower", _SECTOR),
    "fock.enumerate_basis.kept_ratio": ("ratio", "higher", _SECTOR),
    "fock.to_matrix.calls": ("count", "lower", _SECTOR),
    "fock.to_matrix.time_s": ("s", "lower", _SECTOR),
    "fock.to_matrix.self_s": ("s", "lower", _SECTOR),
    "assembly.assemble.calls": ("count", "lower", _ASSEMBLY),
    "assembly.assemble.time_s": ("s", "lower", _ASSEMBLY),
    "assembly.term_states": ("count", "lower", _ASSEMBLY),
    "assembly.nnz": ("count", "lower", _ASSEMBLY),
    "assembly.dropped": ("count", "lower", _ASSEMBLY),
    "assembly.useful_ratio": ("ratio", "higher", _ASSEMBLY),
    "fock.ground_state.calls": ("count", "lower", _SECTOR),
    "fock.ground_state.time_s": ("s", "lower", _SECTOR),
    "fock.ground_state.dim": ("count", "lower", _SECTOR),
    "fock.evolve.calls": ("count", "lower", _EVOLVE),
    "fock.evolve.time_s": ("s", "lower", _EVOLVE),
    "fock.evolve.steps": ("count", "lower", _EVOLVE),
    "fock.hermiticity.calls": ("count", "lower", _EVOLVE),
    "fock.hermiticity.time_s": ("s", "lower", _EVOLVE),
    "classical.calls": ("count", "lower", _CLASSICAL),
    "classical.time_s": ("s", "lower", _CLASSICAL),
    "experiments.self_s": ("s", "lower", _RUNNER),
}


def layer_of(span_name: str) -> str:
    """Spans of model builders, classical functions and runners are named
    after the function; every other span is named after its layer."""
    grouped = {"model": "model.build", "classical": "classical", "experiments": "experiments"}
    return grouped.get(span_name.split(".")[0], span_name)


def check_spans(spans) -> list[str]:
    """Problems with a process's spans: unfinished spans, children outside
    their parents, or overlapping siblings (which would make self time
    negative)."""
    problems = []
    last_child_end: dict[int, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None or end < start:
            problems.append(f"span {i} {name} has no valid end")
            continue
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            if not (p_start <= start and p_end is not None and end <= p_end):
                problems.append(f"span {i} {name} lies outside its parent {spans[parent][0]}")
            if start < last_child_end.get(parent, start):
                problems.append(f"span {i} {name} overlaps a sibling")
            last_child_end[parent] = end
    return problems


def layer_metrics(processes) -> dict[str, float]:
    """Per-layer metrics summed over the traced processes of one pass.

    ``processes`` holds each worker's ``spans`` and ``counts``.  A layer's
    time counts only spans not nested in a span of the same layer; its self
    time subtracts the time of each span's direct children.
    """
    calls: Counter = Counter()
    time_s: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    ground_dim = 0
    for proc in processes:
        spans = proc["spans"]
        layers = [layer_of(s[0]) for s in spans]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            layer, dur = layers[i], end - start
            calls[layer] += 1
            self_s[layer] += dur - child_time[i]
            p = parent
            while p >= 0 and layers[p] != layer:
                p = spans[p][3]
            if p < 0:
                time_s[layer] += dur
        for key, value in proc["counts"].items():
            if key == "fock.ground_state.dim":
                ground_dim = max(ground_dim, value)
            else:
                counts[key] += value

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in LAYER_METRICS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = float(calls[layer])
        elif stat == "time_s":
            out[name] = time_s[layer]
        elif stat == "self_s":
            out[name] = self_s[layer]
        else:
            out[name] = float(counts[name])
    out["fock.ground_state.dim"] = float(ground_dim)
    out["algebra.kept_ratio"] = ratio(counts["algebra.terms_out"], counts["algebra.terms_in"])
    out["fock.enumerate_basis.kept_ratio"] = ratio(counts["fock.enumerate_basis.states"],
                                                   counts["fock.enumerate_basis.examined"])
    nnz, dropped = counts["assembly.nnz"], counts["assembly.dropped"]
    out["assembly.useful_ratio"] = ratio(nnz, nnz + dropped)
    return out
