"""Self-tests of the benchmark: span arithmetic, input generation, gates,
and tracing of names that do not exist."""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, _matrix, layer_metrics, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ["cli>execute_run", 0.0, 10.0, -1],
        ["cli>sqd_ground_state", 1.0, 9.0, 0],
        ["sqd>recover_configurations", 2.0, 4.0, 1],
        ["solver>build_sparse_matrix", 5.0, 8.0, 1],
        ["hamiltonian>connected_determinants", 5.5, 6.0, 3],
        ["cli>read_fcidump", 0.5, 1.0, 0],
    ]
    assert self_times(spans) == pytest.approx([1.5, 3.0, 2.0, 2.5, 0.5, 0.5])
    trace = {"spans": spans, "counters": {}, "broken": [], "notes": [],
             "installed": sorted({s[0] for s in spans})}
    metrics, _ = layer_metrics(trace)
    assert metrics["cli.self_s"] == pytest.approx(1.5)
    assert metrics["sqd.loop_self_s"] == pytest.approx(3.0)
    assert metrics["sqd.recover_s"] == pytest.approx(2.0)
    assert metrics["fcidump.read_s"] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 4.0, 12.0, 0]]
    assert self_times(spans)[0] == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_byte_for_byte(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    first = workloads.write_inputs(wl, 3, tmp_path / "a")
    again = workloads.write_inputs(wl, 3, tmp_path / "b")
    other = workloads.write_inputs(wl, 4, tmp_path / "c")
    for flag in first:
        assert first[flag].read_bytes() == again[flag].read_bytes()
        assert first[flag].read_bytes() != other[flag].read_bytes()


def test_seeds_map_onto_stored_instances():
    refs = json.loads((run.BENCH / "references.json").read_text())["workloads"]
    for seed in (0, 7, workloads.INSTANCES, 12345):
        instance = str(workloads.instance_of(seed))
        assert all(instance in refs[name] for name in workloads.WORKLOADS)


SAMPLED_REF = {"inputs": {"--hamiltonian": "h"}, "e_fci": -2.0}
DETERMINISTIC_REF = {**SAMPLED_REF, "energy": -1.5}


@pytest.mark.parametrize("ref, energy", [
    (SAMPLED_REF, -2.0 - 1e-7),
    (SAMPLED_REF, float("nan")),
    (SAMPLED_REF, None),
    (DETERMINISTIC_REF, -1.5 + 1e-9),
    (DETERMINISTIC_REF, -1.5 - 1e-9),
])
def test_gate_rejects_perturbed_energy(ref, energy):
    assert run.gate(ref, ref["inputs"], energy) is not None


@pytest.mark.parametrize("ref, energy", [
    (SAMPLED_REF, -2.0), (SAMPLED_REF, -1.0), (DETERMINISTIC_REF, -1.5)])
def test_gate_accepts_reference_energy(ref, energy):
    assert run.gate(ref, ref["inputs"], energy) is None


def test_gate_rejects_other_inputs():
    assert run.gate(SAMPLED_REF, {"--hamiltonian": "x"}, -1.0) is not None


@pytest.fixture
def fake_solver(monkeypatch):
    module = types.ModuleType("benchfake.solver")
    module.build_sparse_matrix = lambda basis: len(basis)  # not a matrix
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_missing_or_changed_function_leaves_metric_absent(fake_solver):
    tracer = Tracer()
    tracer.install("benchfake.solver", "build_dense_matrix")
    tracer.install("benchfake.solver", "build_sparse_matrix", _matrix,
                   frozenset({"nnz", "stored_offdiag"}))
    tracer.install("benchfake.hamiltonian", "connected_determinants")
    assert fake_solver.build_sparse_matrix([1, 2, 3]) == 3
    metrics, notes = layer_metrics(tracer.as_dict())
    assert metrics["hamiltonian.build_s"] > 0
    assert "hamiltonian.nnz" not in metrics
    assert "hamiltonian.excitations" not in metrics
    assert "hamiltonian.hit_ratio" not in metrics
    assert len(notes) == 3
