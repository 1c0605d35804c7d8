"""Outside-in layer tracing for the sqdci CLI.

Wrappers are installed on module attributes, at the sites where callers
look names up (``sqdci.solver.build_sparse_matrix`` is the name
``solve_subspace`` calls), so nothing inside ``src/sqdci`` changes. A
span is named ``<call-site module>><function>``; the same function
called from two modules gives two span names.

A wrapped name that no longer exists, or a result that no longer has the
shape an observer reads, makes the metrics built from it absent, with a
note. It never makes the traced run fail.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()
        self.broken: set[str] = set()  # counters whose observer failed
        self.notes: list[str] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def observe(self, name: str, observer, counters, result) -> None:
        if counters & self.broken:
            return
        try:
            for key, value in observer(result).items():
                self.counters[key] += float(value)
        except (AttributeError, TypeError, KeyError, ValueError, IndexError) as exc:
            self.broken |= counters
            self.notes.append(f"{name}: result not understood ({exc!r}); "
                              f"{', '.join(sorted(counters))} absent")

    def install(self, module_name: str, attr: str, observer=None,
                counters: frozenset = frozenset(), transform=None) -> None:
        """Wrap ``module_name.attr``; ``transform`` may rewrite the arguments."""
        name = f"{module_name.rsplit('.', 1)[-1]}>{attr}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.notes.append(f"{module_name}.{attr} not found; its metrics are absent")
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if transform is not None:
                args = transform(self, args)
            result = self.call(name, original, *args, **kwargs)
            if observer is not None:
                self.observe(name, observer, counters, result)
            return result

        setattr(module, attr, wrapper)
        self.installed.add(name)

    def as_dict(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters),
                "installed": sorted(self.installed),
                "broken": sorted(self.broken), "notes": self.notes}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh)


# -- what each wrapped call contributes to the counters ---------------------

def _shots(counts):
    return {"shots": counts.total_shots}


def _distinct(counts):
    return {"distinct_after_noise": len(counts.entries)}


def _partition(parts):
    valid, invalid = parts
    return {"valid_shots": valid.total_shots,
            "partitioned_shots": valid.total_shots + invalid.total_shots}


def _recovered(counts):
    return {"recovered_shots": counts.total_shots}


def _subspace(basis):
    return {"subspace_dim_sum": len(basis)}


def _excitations(entries):
    return {"excitations": len(entries)}


def _candidates(entries):
    return {"candidates": len(entries)}


def _matrix(matrix):
    diagonal = np.count_nonzero(matrix.diagonal())
    stored = matrix.nnz if hasattr(matrix, "nnz") else np.count_nonzero(matrix)
    return {"nnz": stored, "stored_offdiag": stored - diagonal}


def _davidson(spectrum):
    return {"davidson_calls": 1, "davidson_iters": spectrum.iterations_used,
            "davidson_converged": bool(spectrum.converged)}


def _hci(result):
    return {"hci_new": result.dimension - 1,
            "hci_sweeps": result.diagnostics["hci_sweeps"]}


def _extended(result):
    return {"extended_dim": result.dimension}


def _timed_matvec(tracer, args):
    if not args or not callable(args[0]):  # signature changed: time nothing
        return args
    matvec, *rest = args

    def matvec_span(v):
        tracer.counters["matvec_calls"] += 1
        return tracer.call("solver>davidson_lowest.matvec", matvec, v)

    return (matvec_span, *rest)


HOOKS = (
    # module, attribute, observer, counters the observer feeds
    ("sqdci.cli", "execute_run", None, ()),
    ("sqdci.cli", "read_fcidump", None, ()),
    ("sqdci.cli", "read_counts", _shots, ("shots",)),
    ("sqdci.cli", "lucj_params_from_ccsd", None, ()),
    ("sqdci.cli", "lucj_state", None, ()),
    ("sqdci.cli", "sample_counts", _shots, ("shots",)),
    ("sqdci.cli", "apply_readout_noise", _distinct, ("distinct_after_noise",)),
    ("sqdci.cli", "sqd_ground_state", None, ()),
    ("sqdci.cli", "hci_variational", _hci, ("hci_new", "hci_sweeps")),
    ("sqdci.cli", "ext_hci", _extended, ("extended_dim",)),
    ("sqdci.cli", "ext_sqd", _extended, ("extended_dim",)),
    ("sqdci.sqd", "partition_by_hamming", _partition,
     ("valid_shots", "partitioned_shots")),
    ("sqdci.sqd", "recover_configurations", _recovered, ("recovered_shots",)),
    ("sqdci.sqd", "build_subspace", _subspace, ("subspace_dim_sum",)),
    ("sqdci.sqd", "solve_subspace", None, ()),
    ("sqdci.sqd", "extend_subspace", None, ()),
    ("sqdci.baselines", "solve_subspace", None, ()),
    ("sqdci.baselines", "extend_subspace", None, ()),
    ("sqdci.baselines", "connected_determinants", _candidates, ("candidates",)),
    ("sqdci.solver", "build_dense_matrix", _matrix, ("nnz", "stored_offdiag")),
    ("sqdci.solver", "build_sparse_matrix", _matrix, ("nnz", "stored_offdiag")),
    ("sqdci.solver", "dense_eigensolve", None, ()),
    ("sqdci.hamiltonian", "connected_determinants", _excitations, ("excitations",)),
)


DAVIDSON_COUNTERS = ("davidson_calls", "davidson_iters", "davidson_converged",
                     "matvec_calls")


def install_hooks(tracer: Tracer) -> None:
    for module_name, attr, observer, counters in HOOKS:
        tracer.install(module_name, attr, observer, frozenset(counters))
    tracer.install("sqdci.solver", "davidson_lowest", _davidson,
                   frozenset(DAVIDSON_COUNTERS), transform=_timed_matvec)
    if "solver>davidson_lowest" in tracer.installed:
        tracer.installed.add("solver>davidson_lowest.matvec")


def _feeds() -> dict[str, set[str]]:
    """counter -> names of the spans whose results feed it"""
    feeds = defaultdict(set)
    for module_name, attr, _, counters in HOOKS:
        for counter in counters:
            feeds[counter].add(f"{module_name.rsplit('.', 1)[-1]}>{attr}")
    for counter in DAVIDSON_COUNTERS:
        feeds[counter].add("solver>davidson_lowest")
    return feeds


FEEDS = _feeds()


# -- per-layer metrics from one traced run -----------------------------------

# metric -> span names whose durations add up
SPAN_TIMES = {
    "fcidump.read_s": ("cli>read_fcidump",),
    "sampler.prepare_s": ("cli>lucj_params_from_ccsd", "cli>lucj_state"),
    "sampler.sample_s": ("cli>sample_counts",),
    "sampler.noise_s": ("cli>apply_readout_noise",),
    "sqd.partition_s": ("sqd>partition_by_hamming",),
    "sqd.recover_s": ("sqd>recover_configurations",),
    "sqd.closure_s": ("sqd>build_subspace",),
    "sqd.extend_s": ("sqd>extend_subspace", "baselines>extend_subspace"),
    "hamiltonian.build_s": ("solver>build_dense_matrix", "solver>build_sparse_matrix"),
    "solver.dense_s": ("solver>dense_eigensolve",),
    "solver.matvec_s": ("solver>davidson_lowest.matvec",),
    "baselines.select_s": ("baselines>connected_determinants",),
}
# metric -> span whose self time (duration minus its children's cover) it is
SELF_TIMES = {
    "sqd.loop_self_s": "cli>sqd_ground_state",
    "solver.davidson_self_s": "solver>davidson_lowest",
    "cli.self_s": "cli>execute_run",
}
# metric -> counter
COUNTS = {
    "sampler.shots": "shots",
    "sampler.distinct_after_noise": "distinct_after_noise",
    "sqd.recovered_shots": "recovered_shots",
    "sqd.subspace_dim_sum": "subspace_dim_sum",
    "sqd.extended_dim": "extended_dim",
    "hamiltonian.excitations": "excitations",
    "hamiltonian.nnz": "nnz",
    "solver.matvec_calls": "matvec_calls",
    "solver.davidson_iters": "davidson_iters",
    "baselines.candidates": "candidates",
    "baselines.sweeps": "hci_sweeps",
}
# metric -> (numerator counter, denominator counter); 0 when the layer was idle
RATIOS = {
    "sqd.valid_frac": ("valid_shots", "partitioned_shots"),
    "hamiltonian.hit_ratio": ("stored_offdiag", "excitations"),
    "solver.converged_frac": ("davidson_converged", "davidson_calls"),
    "baselines.accept_ratio": ("hci_new", "candidates"),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children[index]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(trace: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics and notes from a dumped trace."""
    spans = trace["spans"]
    installed = set(trace["installed"])
    counters = trace["counters"]
    broken = set(trace["broken"])
    notes = list(trace["notes"])
    totals, selfs = defaultdict(float), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += span[2] - span[1]
        selfs[span[0]] += own

    metrics = {}
    for metric, names in SPAN_TIMES.items():
        if any(n in installed for n in names):
            metrics[metric] = sum(totals[n] for n in names)
    for metric, name in SELF_TIMES.items():
        if name in installed:
            metrics[metric] = selfs[name]

    def available(counter):
        return counter not in broken and bool(FEEDS[counter] & installed)

    for metric, counter in COUNTS.items():
        if available(counter):
            metrics[metric] = counters.get(counter, 0.0)
    for metric, (num, den) in RATIOS.items():
        if available(num) and available(den):
            base = counters.get(den, 0.0)
            metrics[metric] = counters.get(num, 0.0) / base if base else 0.0
    return metrics, notes
