"""Every name the benchmark's tracer wraps must exist in ``sqdci``, and a
traced CLI run must end in a result with every layer metric present.

``bench/tracer.py`` drops the metrics of a wrapped name that no longer
exists, or whose result it no longer understands, with only a note, so a
refactor that removes, renames or reshapes one would otherwise go
unnoticed until a traced benchmark run.
"""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_hamiltonian
from sqdci.fcidump import write_fcidump_path
from sqdci.hamiltonian import sector_basis
from sqdci.sampler import BitstringCounts, write_counts

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
TRACED_CLI = ROOT / "bench" / "traced_cli.py"

# Hooked but gone from sqdci; ROADMAP item 0 drops the hook with the
# next change to the benchmark.
KNOWN_DEAD = {("sqdci.solver", "build_dense_matrix")}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("sqdci_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = _load_tracer()
    hooked = [(module, attr) for module, attr, *_ in tracer.HOOKS]
    hooked.append(("sqdci.solver", "davidson_lowest"))
    missing = [f"{module}.{attr}" for module, attr in hooked
               if (module, attr) not in KNOWN_DEAD
               and not callable(getattr(importlib.import_module(module), attr,
                                        None))]
    assert missing == []


@pytest.mark.parametrize("method, extra, reached", [
    # Dimension 1225: Davidson on the product operator.
    ("fci", [], set()),
    # HCI's first, one-row solve is dense and builds the CSR matrix; its
    # later bases and the extension run Davidson on the product operator,
    # row-masked where they are not a full product. Every sweep screens
    # its candidates, which the tracer counts by the rows it returns.
    ("ext-hci", ["--epsilon1", "1e-3"],
     {"solver>build_sparse_matrix", "baselines>connected_determinants"}),
    # LUCJ shots with readout noise: every sampler hook, and recovery in
    # the second iteration. All four batch closures have over 200 rows and
    # run Davidson.
    ("sqd", ["--sampler", "lucj", "--amplitudes", "amps.npz",
             "--flip-prob", "0.01", "--shots", "5000", "--iterations", "2",
             "--batches", "2", "--samples-per-batch", "200"],
     {"cli>lucj_params_from_ccsd", "cli>lucj_state", "cli>sample_counts",
      "cli>apply_readout_noise", "sqd>recover_configurations"}),
    # Shots from a counts file over the whole (7,3,3) sector: the parser
    # and the shot counter of its hook.
    ("sqd", ["--sampler", "counts-file", "--counts", "counts.txt",
             "--iterations", "1", "--batches", "2",
             "--samples-per-batch", "200"],
     {"cli>read_counts"}),
    # Shots of the FCI vector, few enough that each batch's extension adds
    # rows and is solved.
    ("ext-sqd", ["--sampler", "ci-vector", "--shots", "2000",
                 "--iterations", "1", "--batches", "2",
                 "--samples-per-batch", "30"],
     {"cli>ext_sqd", "sqd>extend_subspace"}),
], ids=["fci", "ext-hci", "sqd-lucj", "sqd-counts-file", "ext-sqd"])
def test_traced_run_ends_in_a_result(method, extra, reached, tmp_path):
    fcidump = tmp_path / "h7.fcidump"
    write_fcidump_path(random_hamiltonian(7, 3, 3, seed=24,
                                          diagonal_spread=1.0), fcidump)
    x = np.random.default_rng(28).normal(size=(3, 3, 4, 4)) * 0.1
    np.savez(tmp_path / "amps.npz", t2=x + x.transpose(1, 0, 3, 2))
    sector = sector_basis(7, 3, 3)
    write_counts(BitstringCounts(14, sector[:, 0], sector[:, 1],
                                 1 + np.arange(len(sector)) % 5),
                 tmp_path / "counts.txt")
    trace_path, record_path = tmp_path / "trace.json", tmp_path / "record.json"
    env = dict(os.environ, SQDCI_THREADS="1",
               PYTHONPATH=str(Path(importlib.import_module("sqdci").__file__)
                              .parents[1]))
    done = subprocess.run(
        [sys.executable, str(TRACED_CLI), str(trace_path), "run",
         "--hamiltonian", str(fcidump), "--method", method,
         "--out", str(record_path), *extra],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(record_path.read_text(),
                        parse_constant=lambda c: pytest.fail(f"{c} in record"))
    assert math.isfinite(record["energy"])

    trace = json.loads(trace_path.read_text())
    assert trace["broken"] == []
    dead = [f"{module}.{attr}" for module, attr in KNOWN_DEAD]
    assert [note for note in trace["notes"]
            if not any(name in note for name in dead)] == []
    assert trace["counters"]["davidson_iters"] > 0
    if method == "ext-hci":
        assert trace["counters"]["candidates"] > 0
    if method in ("sqd", "ext-sqd"):
        assert trace["counters"]["shots"] > 0
    if method.startswith("ext-"):
        assert trace["counters"]["extended_dim"] > 0
    spans = {span[0] for span in trace["spans"]}
    assert {"solver>davidson_lowest.matvec", *reached} <= spans
    metrics, _ = _load_tracer().layer_metrics(trace)
    assert metrics["solver.davidson_iters"] == trace["counters"]["davidson_iters"]
    assert metrics["solver.matvec_s"] > 0
