"""Span tracer for the weaksym benchmark.

The tracer wraps the public functions of the ``weaksym`` modules from the
outside: every binding of such a function in a ``weaksym.*`` namespace
(module attributes and ``from``-imports alike) is replaced by a wrapper
that records one span per call, plus ``SymmetryOperator.from_matrix``.
``dag`` and ``frob`` stay unwrapped because they are called thousands of
times per op, and so do ``eval_scalar`` and ``eval_entry``, which the model
file parser calls once per matrix entry (about 800k times for one L=5
file).  Spans live in memory and are written out by the caller.

A span is (name, layer, start, end, parent, op).  Its self time is its
duration minus the time its child spans cover.  Per-layer metrics group
self time by layer and, inside a layer, by the nearest ancestor (or the
span itself) in the same layer whose function roots a named group, so
that helpers count towards the check or scan that called them.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

LAYERS = ("modelfile", "linalg", "lindblad", "sjed", "symmetry", "dilation",
          "trajectories", "cli")
SKIP = {"dag", "frob", "eval_scalar", "eval_entry"}

# function name -> group, per layer; functions outside a group inherit the
# group of their nearest same-layer ancestor
GROUPS = {
    "linalg": {
        "hermitian_eigendecomposition": "eig",
        "unitary_eigendecomposition": "eig",
        "matrix_exponential": "expm",
        "null_space": "basis",
        "orthonormal_columns": "basis",
        "orthonormal_complement": "basis",
        "matrix_rank": "basis",
        "singular_values": "basis",
    },
    "symmetry": {
        "SymmetryOperator.from_matrix": "operator",
        "check_condition_I": "condition_I",
        "check_condition_II": "condition_II",
        "check_condition_III": "condition_III",
        "general_unitary_completion": "completion",
        "blockwise_unitary_completion": "completion",
        "unitary_completion": "completion",
    },
    "dilation": {
        "stochastic_hamiltonian_step": "step",
        "rotating_frame_step": "step",
        "dephased_generator_step": "step",
        "partially_dephased_generator_step": "step",
        "coarse_grained_generator_step": "step",
        "minimum_symmetry_residual": "scan",
        "joint_symmetry_residual": "residual",
    },
    "trajectories": {
        "sample_ensemble": "sample",
        "sample_trajectory": "sample",
        "ensemble_symmetry_test": "test",
        "ensemble_average": "average",
        "export_records": "export",
        "export_count_histogram": "export",
    },
}

# name, unit of every per-layer metric, in report order
METRICS = (
    ("modelfile.load_s", "s"), ("modelfile.load_calls", "count"),
    ("linalg.eig_s", "s"), ("linalg.eig_calls", "count"),
    ("linalg.eig_max_n", "count"),
    ("linalg.expm_s", "s"), ("linalg.expm_calls", "count"),
    ("linalg.basis_s", "s"),
    ("lindblad.s", "s"),
    ("sjed.partition_s", "s"),
    ("symmetry.operator_s", "s"), ("symmetry.condition_I_s", "s"),
    ("symmetry.condition_II_s", "s"), ("symmetry.condition_III_s", "s"),
    ("symmetry.completion_s", "s"), ("symmetry.reports", "count"),
    ("symmetry.unique_report_ratio", "1"),
    ("dilation.step_s", "s"), ("dilation.scan_s", "s"),
    ("dilation.residual_calls", "count"), ("dilation.residual_s", "s"),
    ("dilation.residuals_per_scan", "count"),
    ("trajectories.sample_s", "s"), ("trajectories.ensembles", "count"),
    ("trajectories.unique_ensemble_ratio", "1"),
    ("trajectories.trajectories_per_s", "1/s"),
    ("trajectories.jumps_per_s", "1/s"),
    ("trajectories.jumps_per_trajectory", "count"),
    ("trajectories.test_s", "s"), ("trajectories.chi2_calls", "count"),
    ("trajectories.average_s", "s"), ("trajectories.export_s", "s"),
    ("trajectories.export_bytes", "bytes"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_ratio", "1"),
)


def _digest(array) -> str:
    import numpy as np

    return hashlib.sha256(np.ascontiguousarray(array, dtype=complex).tobytes()).hexdigest()[:16]


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


class Tracer:
    """Records spans around the public functions of the weaksym modules."""

    def __init__(self):
        self.spans = []          # [name, layer, start, end, parent, op]
        self.facts = {}          # span index -> counts taken at its boundary
        self.op = -1
        self._stack = []
        self._restore = []       # (namespace, attribute, original)

    # -- installation -------------------------------------------------
    def install(self):
        wrappers = {}
        for modname, module in sorted(sys.modules.items()):
            if module is None or not (modname == "weaksym"
                                      or modname.startswith("weaksym.")):
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS or value.__name__ in SKIP:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, value.__name__, layer)
                self._restore.append((module, attr, value))
                setattr(module, attr, wrappers[value])
        from weaksym.symmetry import SymmetryOperator

        original = SymmetryOperator.__dict__["from_matrix"]
        self._restore.append((SymmetryOperator, "from_matrix", original))
        SymmetryOperator.from_matrix = classmethod(self._wrap(
            original.__func__, "SymmetryOperator.from_matrix", "symmetry"))

    def uninstall(self):
        for namespace, attr, original in reversed(self._restore):
            setattr(namespace, attr, original)
        self._restore.clear()

    def _wrap(self, fn, name, layer):
        spans, stack, facts = self.spans, self._stack, self.facts
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(index)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                facts[index] = hook(args, kwargs, result)
            return result

        return wrapper

    # -- output -------------------------------------------------------
    def write(self, path):
        with open(path, "w") as fh:
            for index, (name, layer, t0, t1, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": index, "name": name, "layer": layer, "start": t0,
                    "end": t1, "parent": parent, "op": op,
                    **self.facts.get(index, {})}) + "\n")


# -- counts taken at span boundaries ------------------------------------
def _eig_facts(args, kwargs, result):
    return {"n": int(len(_arg(args, kwargs, 0, "a")))}


def _ensemble_facts(args, kwargs, result):
    rep = args[0]
    psi0 = _arg(args, kwargs, 1, "psi0")
    identity = (rep.fingerprint(), _digest(psi0),
                float(_arg(args, kwargs, 2, "horizon")),
                int(_arg(args, kwargs, 3, "n")),
                int(_arg(args, kwargs, 4, "seed", 0)),
                int(_arg(args, kwargs, 7, "first_index", 0)))
    return {"identity": "|".join(map(str, identity)),
            "trajectories": len(result.records),
            "jumps": sum(len(r) for r in result.records)}


def _report_facts(args, kwargs, result):
    rep, sym = args[0], args[1]
    tol = _arg(args, kwargs, 2, "tol", None)
    return {"identity": f"{rep.fingerprint()}|{_digest(sym.matrix)}|{tol}"}


def _export_facts(args, kwargs, result):
    # both export functions take the output path last
    return {"bytes": os.path.getsize(kwargs.get("path", args[-1]))}


_HOOKS = {
    "hermitian_eigendecomposition": _eig_facts,
    "unitary_eigendecomposition": _eig_facts,
    "sample_ensemble": _ensemble_facts,
    "build_symmetry_report": _report_facts,
    "export_records": _export_facts,
    "export_count_histogram": _export_facts,
}


# -- aggregation --------------------------------------------------------
def analyse(spans):
    """Self times and cover checks of a span list.

    Returns (self_time, group, cover_excess): per-span self time, per-span
    group label ("layer.group" or "layer.other") and the largest amount by
    which a span's children cover more time than the span itself.
    """
    n = len(spans)
    covered = [0.0] * n
    children_outside = 0.0
    for name, layer, t0, t1, parent, op in spans:
        if parent >= 0:
            covered[parent] += t1 - t0
            p = spans[parent]
            children_outside = max(children_outside, p[2] - t0, t1 - p[3])
    self_time = [s[3] - s[2] - covered[i] for i, s in enumerate(spans)]
    cover_excess = max([children_outside] + [-x for x in self_time])
    group = [None] * n
    for i, (name, layer, t0, t1, parent, op) in enumerate(spans):
        label = GROUPS.get(layer, {}).get(name)
        j = parent
        while label is None and j >= 0:
            if spans[j][1] == layer:
                label = GROUPS.get(layer, {}).get(spans[j][0])
            j = spans[j][4]
        group[i] = f"{layer}.{label or 'other'}"
    return self_time, group, cover_excess


def _unique_ratio(spans, facts, name):
    seen = defaultdict(set)
    total = 0
    for i, span in enumerate(spans):
        if span[0] == name:
            total += 1
            seen[span[5]].add(facts[i]["identity"])
    return (sum(len(s) for s in seen.values()) / total) if total else 0.0, total


def layer_metrics(spans, facts, passes):
    """Per-layer metrics of the traced passes, per pass.

    Unique-ratio identities are compared within one op: an ensemble is
    identified by (fingerprint, psi0, horizon, n, seed, first_index), a
    symmetry report by (fingerprint, symmetry matrix, tol).
    """
    self_time, group, cover_excess = analyse(spans)
    by_group = defaultdict(float)
    by_layer = defaultdict(float)
    calls = defaultdict(int)
    for i, span in enumerate(spans):
        by_group[group[i]] += self_time[i]
        by_layer[span[1]] += self_time[i]
        calls[span[0]] += 1

    eig_n = [facts[i]["n"] for i, s in enumerate(spans) if "n" in facts.get(i, {})]
    ensembles = [(i, s) for i, s in enumerate(spans) if s[0] == "sample_ensemble"]
    sample_wall = sum(s[3] - s[2] for _, s in ensembles)
    trajs = sum(facts[i]["trajectories"] for i, _ in ensembles)
    jumps = sum(facts[i]["jumps"] for i, _ in ensembles)
    ens_ratio, ens_total = _unique_ratio(spans, facts, "sample_ensemble")
    rep_ratio, rep_total = _unique_ratio(spans, facts, "build_symmetry_report")
    scans = calls["minimum_symmetry_residual"]
    in_scan = 0
    for s in spans:
        if s[0] == "joint_symmetry_residual":
            j = s[4]
            while j >= 0 and spans[j][0] != "minimum_symmetry_residual":
                j = spans[j][4]
            in_scan += j >= 0
    export_bytes = sum(f["bytes"] for i, f in facts.items()
                       if spans[i][0].startswith("export_"))

    per_pass = {
        "modelfile.load_s": by_layer["modelfile"],
        "modelfile.load_calls": calls["load_model"],
        "linalg.eig_s": by_group["linalg.eig"],
        "linalg.eig_calls": len(eig_n),
        "linalg.expm_s": by_group["linalg.expm"],
        "linalg.expm_calls": calls["matrix_exponential"],
        "linalg.basis_s": by_group["linalg.basis"],
        "lindblad.s": by_layer["lindblad"],
        "sjed.partition_s": by_layer["sjed"],
        "symmetry.operator_s": by_group["symmetry.operator"],
        "symmetry.condition_I_s": by_group["symmetry.condition_I"],
        "symmetry.condition_II_s": by_group["symmetry.condition_II"],
        "symmetry.condition_III_s": by_group["symmetry.condition_III"],
        "symmetry.completion_s": by_group["symmetry.completion"],
        "symmetry.reports": rep_total,
        "dilation.step_s": by_group["dilation.step"],
        "dilation.scan_s": by_group["dilation.scan"],
        "dilation.residual_calls": calls["joint_symmetry_residual"],
        "dilation.residual_s": by_group["dilation.residual"],
        "trajectories.sample_s": by_group["trajectories.sample"],
        "trajectories.ensembles": ens_total,
        "trajectories.test_s": by_group["trajectories.test"],
        "trajectories.chi2_calls": calls["two_sample_chi2"],
        "trajectories.average_s": by_group["trajectories.average"],
        "trajectories.export_s": by_group["trajectories.export"],
        "trajectories.export_bytes": export_bytes,
        "cli.self_s": by_layer["cli"],
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out.update({
        "linalg.eig_max_n": max(eig_n, default=0),
        "symmetry.unique_report_ratio": rep_ratio,
        "dilation.residuals_per_scan": in_scan / scans if scans else 0.0,
        "trajectories.unique_ensemble_ratio": ens_ratio,
        "trajectories.trajectories_per_s": trajs / sample_wall if sample_wall else 0.0,
        "trajectories.jumps_per_s": jumps / sample_wall if sample_wall else 0.0,
        "trajectories.jumps_per_trajectory": jumps / trajs if trajs else 0.0,
    })
    return out, cover_excess
