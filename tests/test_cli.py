import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sqdci
import sqdci.sqd
from conftest import ONE_ORBITAL_FCIDUMP, counts_of, random_hamiltonian
from sqdci.cli import (EV_PER_HARTREE, RunConfig, build_parser, execute_run,
                       main, reaction_report, scan_table)
from sqdci.errors import ConfigError
from sqdci.fcidump import read_fcidump, write_fcidump_path
from sqdci.hamiltonian import product_operator_bytes, sector_basis
from sqdci.sampler import BitstringCounts, write_counts
from sqdci.solver import fci_ground_state, solver_bytes
from test_sampler import half_turn_t2, random_t2


@pytest.fixture
def fixture_2e2o(tmp_path):
    path = tmp_path / "h2e2o.fcidump"
    write_fcidump_path(random_hamiltonian(2, 1, 1, seed=11), path)
    return path


@pytest.fixture
def one_orbital(tmp_path):
    path = tmp_path / "one.fcidump"
    path.write_text(ONE_ORBITAL_FCIDUMP)
    return path


def test_run_fci_on_one_orbital_fixture(one_orbital):
    record = execute_run(RunConfig(hamiltonian_path=str(one_orbital),
                                   method="fci"))
    assert record["energy"] == pytest.approx(-1.25, abs=1e-12)
    assert record["dimension"] == 1


def test_run_sqd_ci_vector_matches_fci(fixture_2e2o):
    config = RunConfig(hamiltonian_path=str(fixture_2e2o), method="sqd",
                       sampler="ci-vector", shots=100_000, iterations=2,
                       batches=4, samples_per_batch=16)
    record = execute_run(config)
    exact = fci_ground_state(random_hamiltonian(2, 1, 1, seed=11))
    assert record["energy"] == pytest.approx(exact.energy, abs=1e-8)


def test_records_byte_identical_modulo_wall_time(fixture_2e2o):
    config = dict(hamiltonian_path=str(fixture_2e2o), method="sqd",
                  sampler="ci-vector", shots=5000, iterations=2, batches=3,
                  samples_per_batch=8, seed=1)
    records = []
    for _ in range(2):
        record = execute_run(RunConfig(**config))
        record.pop("wall_time")
        records.append(json.dumps(record, sort_keys=True))
    assert records[0] == records[1]


def test_noisy_records_byte_identical_modulo_wall_time(fixture_2e2o,
                                                       monkeypatch):
    recover = sqdci.sqd.recover_configurations
    recovered = []
    monkeypatch.setattr(sqdci.sqd, "recover_configurations",
                        lambda *args, **kw: recovered.append(
                            recover(*args, **kw)) or recovered[-1])
    config = dict(hamiltonian_path=str(fixture_2e2o), method="sqd",
                  sampler="ci-vector", shots=5000, flip_probability=0.05,
                  iterations=2, batches=3, samples_per_batch=8, seed=1)
    records = []
    for _ in range(2):
        record = execute_run(RunConfig(**config))
        record.pop("wall_time")
        records.append(json.dumps(record, sort_keys=True))
    assert records[0] == records[1]
    # The second iteration of each run repaired shots.
    assert len(recovered) == 2 and recovered[0].total_shots > 0
    assert recovered[0].entries == recovered[1].entries


def test_zero_count_lines_change_no_record(tmp_path):
    # More lines than a batch holds, but fewer with shots: the zero-count
    # rows are no sample, so they neither close into the subspace nor fail
    # the weighted batch draw.
    ham_path = tmp_path / "h4.fcidump"
    write_fcidump_path(random_hamiltonian(4, 2, 2, seed=7), ham_path)
    keys = [k for k in (format(i, "08b") for i in range(256))
            if k[:4].count("1") == 2 and k[4:].count("1") == 2]
    counts_path = tmp_path / "counts.txt"
    config = RunConfig(hamiltonian_path=str(ham_path), method="sqd",
                       sampler="counts-file", counts_path=str(counts_path),
                       samples_per_batch=10)
    records = []
    for zeros in (keys[3:], []):
        lines = [f"{k} 5" for k in keys[:3]] + [f"{k} 0" for k in zeros]
        counts_path.write_text("n_qubits=8\n" + "\n".join(lines) + "\n")
        record = execute_run(config)
        record.pop("wall_time")
        records.append(json.dumps(record, sort_keys=True))
    assert len(keys[3:]) == 33
    assert records[0] == records[1]


def test_run_counts_file_sampler(fixture_2e2o, tmp_path):
    counts_path = tmp_path / "counts.txt"
    write_counts(counts_of(4, {"1010": 50, "0101": 50, "1001": 10}),
                 counts_path)
    record = execute_run(RunConfig(hamiltonian_path=str(fixture_2e2o),
                                   method="ext-sqd", sampler="counts-file",
                                   counts_path=str(counts_path),
                                   iterations=1, batches=2))
    assert record["dimension_extended"] >= record["dimension"]
    assert record["energy"] <= record["energy_history"][0] + 1e-12


def test_run_lucj_sampler(fixture_2e2o, tmp_path):
    amp_path = tmp_path / "amps.npz"
    t2 = np.zeros((1, 1, 1, 1))
    t2[0, 0, 0, 0] = 0.08
    np.savez(amp_path, t1=np.zeros((1, 1)), t2=t2)
    record = execute_run(RunConfig(hamiltonian_path=str(fixture_2e2o),
                                   method="sqd", sampler="lucj",
                                   amplitudes_path=str(amp_path),
                                   shots=20_000, iterations=2, batches=2))
    assert np.isfinite(record["energy"])


def lucj_run(tmp_path, layers="1", **arrays):
    """``run`` argv of a small LUCJ SQD on (4,2,2) with ``arrays`` saved as
    its amplitudes file."""
    hamiltonian, amplitudes = tmp_path / "h4.fcidump", tmp_path / "amps.npz"
    write_fcidump_path(random_hamiltonian(4, 2, 2, seed=3), hamiltonian)
    np.savez(amplitudes, **arrays)
    return ["run", "--hamiltonian", str(hamiltonian), "--method", "sqd",
            "--sampler", "lucj", "--amplitudes", str(amplitudes),
            "--lucj-layers", layers, "--shots", "2000", "--iterations", "2",
            "--batches", "2", "--samples-per-batch", "20",
            "--out", str(tmp_path / "record.json")]


def test_main_lucj_half_turn_mode(tmp_path):
    assert main(lucj_run(tmp_path, t2=half_turn_t2(0.1))) == 0
    assert np.isfinite(json.loads((tmp_path / "record.json").read_text())
                       ["energy"])


@pytest.mark.parametrize("layers, arrays, message", [
    ("-1", {"t2": half_turn_t2(0.1)}, "nonnegative"),
    ("-3", {"t2": half_turn_t2(0.1)}, "nonnegative"),
    ("1", {"t2": np.zeros((2, 2))}, "t2 must have shape"),
    ("1", {"t2": np.full((2, 2, 2, 2), np.nan)}, "t2 holds a non-finite"),
    ("1", {"t1": np.full((2, 2), np.inf), "t2": half_turn_t2(0.1)},
     "t1 holds a non-finite"),
    ("1", {"t2": np.zeros((1, 1, 0, 0))}, "at least one occupied and one virtual"),
    ("1", {"t2": np.zeros((0, 0, 2, 2))}, "at least one occupied and one virtual"),
    ("1", {"t2": np.full((2, 2, 2, 2), "0.1")}, "must be real numbers"),
    ("1", {"t2": half_turn_t2(0.1) * 1j}, "must be real numbers"),
    ("1", {"t2": half_turn_t2(1e308)}, "t2 amplitudes overflow"),
    # A finite coupling whose phases over 4 electrons would overflow.
    ("1", {"t2": half_turn_t2(8e307)}, "t2 amplitudes overflow"),
    # Amplitudes whose orbitals add up to the sector's, for another count
    # of electrons; and zero doubles over too many orbitals, which give no
    # layer that could be checked against the sector.
    ("1", {"t2": random_t2(1, 3, seed=29)}, "1 occupied of 4 orbitals"),
    ("1", {"t2": random_t2(3, 1, seed=30)}, "3 occupied of 4 orbitals"),
    ("1", {"t2": np.zeros((2, 2, 3, 3))}, "2 occupied of 5 orbitals"),
], ids=["layers-1", "layers-3", "t2-2d", "t2-nan", "t1-inf", "t2-no-virtual",
        "t2-no-occupied", "t2-str", "t2-complex", "t2-overflow",
        "t2-phase-overflow",
        "one-occupied", "three-occupied", "zero-t2-five-orbitals"])
def test_main_bad_lucj_input_is_config_error(tmp_path, capsys, layers, arrays,
                                             message):
    assert main(lucj_run(tmp_path, layers, **arrays)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "record.json").exists()


@pytest.mark.parametrize("kind", ["text", "empty", "broken-zip", "directory",
                                  "npy", "no-t2"])
def test_main_unreadable_amplitudes_is_config_error(tmp_path, capsys, kind):
    argv = lucj_run(tmp_path, t1=np.zeros((2, 2)))
    amplitudes = tmp_path / "amps.npz"
    if kind != "no-t2":
        amplitudes.unlink()
    if kind == "text":
        amplitudes.write_text("t2 = 0.1\n")
    elif kind == "empty":
        amplitudes.write_bytes(b"")
    elif kind == "broken-zip":
        amplitudes.write_bytes(b"PK\x03\x04 and no more")
    elif kind == "directory":
        amplitudes.mkdir()
    elif kind == "npy":
        with open(amplitudes, "wb") as fh:
            np.save(fh, half_turn_t2(0.1))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "amplitudes file" in err


AMPLITUDE_VALUES = (0.0, 0.05, -0.3, np.nan, np.inf, -np.inf, 1e308, -1e308)


@st.composite
def amplitude_arrays(draw, shape):
    """An array of ``shape`` or of a shape near it, of one of five dtypes,
    filled with one value (so t2 keeps its index symmetry) or with a
    value per entry."""
    if draw(st.booleans()):
        shape = tuple(draw(st.integers(0, 2)) for _ in shape)
    size = int(np.prod(shape))
    values = st.sampled_from(AMPLITUDE_VALUES)
    flat = (draw(st.lists(values, min_size=size, max_size=size))
            if draw(st.booleans()) else [draw(values)] * size)
    flat = np.array(flat, dtype=float)
    kind = draw(st.sampled_from(["float", "int", "complex", "bool", "str"]))
    if kind == "int":
        flat = np.clip(np.nan_to_num(flat), -2**62, 2**62).astype(np.int64)
    elif kind == "complex":
        flat = flat * (1 + 1j)
    elif kind == "bool":
        flat = flat != 0
    elif kind == "str":
        flat = flat.astype(str)
    return flat.reshape(shape)


@settings(max_examples=100, deadline=10_000)
@given(t2=amplitude_arrays((1, 1, 1, 1)),
       t1=st.none() | amplitude_arrays((1, 1)), layers=st.integers(0, 2))
def test_amplitude_files_keep_the_exit_code_contract(tmp_path_factory, t2, t1,
                                                     layers):
    # Whatever an amplitudes file holds, a LUCJ run on (2,1,1) ends in an
    # exit code of the contract, and a success in a finite energy.
    tmp = tmp_path_factory.mktemp("amplitudes")
    hamiltonian, amplitudes = tmp / "h2.fcidump", tmp / "amps.npz"
    write_fcidump_path(random_hamiltonian(2, 1, 1, seed=11), hamiltonian)
    np.savez(amplitudes, t2=t2, **({} if t1 is None else {"t1": t1}))
    record = tmp / "record.json"
    with np.errstate(all="ignore"):
        code = main(["run", "--hamiltonian", str(hamiltonian), "--method",
                     "sqd", "--sampler", "lucj", "--amplitudes",
                     str(amplitudes), "--lucj-layers", str(layers),
                     "--shots", "300", "--iterations", "2", "--batches", "2",
                     "--samples-per-batch", "4", "--out", str(record)])
    assert code in (0, 2, 3, 4, 5)
    if code == 0:
        assert np.isfinite(json.loads(record.read_text())["energy"])


def test_run_hci_and_ext_hci(fixture_2e2o):
    hci = execute_run(RunConfig(hamiltonian_path=str(fixture_2e2o),
                                method="hci", epsilon1=1e-4))
    ext = execute_run(RunConfig(hamiltonian_path=str(fixture_2e2o),
                                method="ext-hci", epsilon1=1e-4))
    assert ext["energy"] <= hci["energy"] + 1e-12


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        execute_run(RunConfig(hamiltonian_path="", method="fci"))
    with pytest.raises(ConfigError):
        execute_run(RunConfig(hamiltonian_path=str(tmp_path / "x"), method="fci"))
    path = tmp_path / "ok.fcidump"
    path.write_text(ONE_ORBITAL_FCIDUMP)
    with pytest.raises(ConfigError):
        execute_run(RunConfig(hamiltonian_path=str(path), method="nope"))
    with pytest.raises(ConfigError):
        execute_run(RunConfig(hamiltonian_path=str(path), method="sqd",
                              sampler="counts-file"))


def test_reaction_arithmetic_and_antisymmetry():
    rec_a = {"method": "fci", "energy": -5.0}
    rec_b = {"method": "fci", "energy": -3.0}
    report = reaction_report(rec_a, rec_b)
    assert report["delta_e_hartree"] == -2.0
    assert report["delta_e_ev"] == -2.0 * EV_PER_HARTREE
    swapped = reaction_report(rec_b, rec_a)
    assert swapped["delta_e_hartree"] == -report["delta_e_hartree"]
    zero = reaction_report(rec_a, dict(rec_a))
    assert zero["delta_e_hartree"] == 0.0


def test_reaction_method_guard():
    rec_a = {"method": "ext-sqd", "energy": -5.0}
    rec_b = {"method": "hci", "energy": -3.0}
    with pytest.raises(ConfigError):
        reaction_report(rec_a, rec_b)
    report = reaction_report(rec_a, rec_b, allow_mismatch=True)
    assert report["delta_e_hartree"] == -2.0
    with pytest.raises(ConfigError):
        reaction_report({"method": "fci"}, rec_b)


def test_scan_rows_sorted_and_complete(tmp_path):
    for size in (2, 3):
        write_fcidump_path(random_hamiltonian(size, 1, 1, seed=size),
                           tmp_path / f"as{size}.fcidump")
    template = str(tmp_path / "as{size}.fcidump")
    rows = scan_table(RunConfig(), template, sizes=[3, 2], methods=["fci"])
    assert [r["size"] for r in rows] == [2, 3]
    assert all(r["method"] == "fci" for r in rows)


def test_scan_missing_member(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        scan_table(RunConfig(), str(tmp_path / "as{size}.fcidump"),
                   sizes=[2], methods=["fci"])
    with pytest.raises(ConfigError, match="template"):
        scan_table(RunConfig(), str(tmp_path / "as.fcidump"),
                   sizes=[2], methods=["fci"])


def test_main_run_and_exit_codes(one_orbital, tmp_path, capsys):
    out = tmp_path / "record.json"
    code = main(["run", "--hamiltonian", str(one_orbital),
                 "--method", "fci", "--out", str(out)])
    assert code == 0
    record = json.loads(out.read_text())
    assert record["energy"] == pytest.approx(-1.25, abs=1e-12)

    assert main(["run", "--hamiltonian", str(tmp_path / "missing"),
                 "--method", "fci"]) == 2

    # Counts with no sector-valid shot: exit code 5.
    counts_path = tmp_path / "bad_counts.txt"
    counts_path.write_text("n_qubits=2\n10 5\n")
    assert main(["run", "--hamiltonian", str(one_orbital), "--method", "sqd",
                 "--sampler", "counts-file", "--counts", str(counts_path)]) == 5


def test_main_non_finite_fcidump_is_config_error(tmp_path, capsys):
    path = tmp_path / "nan.fcidump"
    path.write_text(ONE_ORBITAL_FCIDUMP.replace("-1.0 1 1 0 0", "nan 1 1 0 0"))
    assert main(["run", "--hamiltonian", str(path), "--method", "fci"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_main_fcidump_over_64_orbitals_exit_code(tmp_path, capsys):
    path = tmp_path / "wide.fcidump"
    path.write_text("&FCI NORB=10000000000,NELEC=2,MS2=0\n&END\n")
    assert main(["run", "--hamiltonian", str(path), "--method", "fci"]) == 4
    assert "exceeds 64 orbitals" in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["hamiltonian", "counts", "config"])
@pytest.mark.parametrize("kind", ["non-utf8", "directory"])
def test_main_unreadable_input_is_config_error(one_orbital, tmp_path, capsys,
                                               broken, kind):
    counts = tmp_path / "counts.txt"
    counts.write_text("n_qubits=2\n11 5\n")
    config = tmp_path / "run.cfg"
    config.write_text("seed = 1\n")
    paths = {"hamiltonian": one_orbital, "counts": counts, "config": config}
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(paths[broken].read_bytes() + b"\xff\xfe 1\n")
    paths[broken] = bad
    assert main(["run", "--hamiltonian", str(paths["hamiltonian"]),
                 "--config", str(paths["config"]), "--method", "sqd",
                 "--sampler", "counts-file",
                 "--counts", str(paths["counts"])]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


@pytest.mark.parametrize("kind", ["non-utf8", "directory", "malformed", "deep"])
def test_main_unreadable_record_is_config_error(tmp_path, capsys, kind):
    good = tmp_path / "good.json"
    good.write_text('{"method": "fci", "energy": -1.0}\n')
    bad = tmp_path / "bad.json"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes({"non-utf8": good.read_bytes() + b"\xff\xfe\n",
                         "malformed": b'{"method": "fci", "energy": ',
                         "deep": b"[" * 10**5}[kind])
    assert main(["reaction", "--product", str(bad),
                 "--reactant", str(good)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read record")


@pytest.mark.parametrize("flip", ["-0.5", "nan", "1.5", "inf"])
def test_main_rejects_bad_flip_probability(one_orbital, capsys, flip):
    assert main(["run", "--hamiltonian", str(one_orbital), "--method", "sqd",
                 "--shots", "100", "--flip-prob", flip]) == 2
    assert "flip probability" in capsys.readouterr().err
    with pytest.raises(ConfigError, match="flip probability"):
        RunConfig(hamiltonian_path=str(one_orbital),
                  flip_probability=float(flip)).validate()


def test_main_rejects_nan_epsilon1(fixture_2e2o, tmp_path, capsys):
    out = tmp_path / "record.json"
    assert main(["run", "--hamiltonian", str(fixture_2e2o), "--method", "hci",
                 "--epsilon1", "nan", "--out", str(out)]) == 2
    assert "not nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--iterations", "--batches",
                                  "--samples-per-batch"])
def test_main_refuses_a_bad_loop_shape_before_sampling(fixture_2e2o, tmp_path,
                                                       monkeypatch, capsys,
                                                       flag):
    def not_sampled(*args):
        raise AssertionError("the loop shape must be checked first")

    monkeypatch.setattr("sqdci.cli.fci_ground_state", not_sampled)
    run = ["run", "--hamiltonian", str(fixture_2e2o), flag, "0"]
    assert main([*run, "--method", "sqd"]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    # Methods without the recovery loop ignore its shape.
    assert main([*run, "--method", "hci", "--out",
                 str(tmp_path / "hci.json")]) == 0


@pytest.mark.parametrize("name,value", [("closure", "0"), ("eta", "0.001")])
def test_removed_options_are_config_errors(fixture_2e2o, tmp_path, capsys,
                                           name, value):
    # Neither a flag (argparse exits 2) nor a config-file key (exit 2).
    run = ["run", "--hamiltonian", str(fixture_2e2o), "--method", "fci"]
    with pytest.raises(SystemExit) as exit_info:
        main([*run, f"--{name}", value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --{name}" in capsys.readouterr().err
    config = tmp_path / "run.cfg"
    config.write_text(f"{name} = {value}\n")
    assert main([*run, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: unknown config key {name!r}\n"


def test_main_hci_records_are_strict_json(fixture_2e2o, tmp_path):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    out = tmp_path / "record.json"
    assert main(["run", "--hamiltonian", str(fixture_2e2o),
                 "--method", "ext-hci", "--epsilon1", "0.01",
                 "--out", str(out)]) == 0
    record = json.loads(out.read_text(), parse_constant=reject)
    assert record["config"]["epsilon1"] == 0.01
    # An infinite threshold stays legal (epsilon1 inf keeps only the HF
    # determinant) and is echoed as a string.
    assert main(["run", "--hamiltonian", str(fixture_2e2o), "--method", "hci",
                 "--epsilon1", "inf", "--out", str(out)]) == 0
    record = json.loads(out.read_text(), parse_constant=reject)
    assert record["config"]["epsilon1"] == "inf"
    assert record["dimension"] == 1


@pytest.mark.parametrize("line", ["shots = many", "flip_probability = lots",
                                  "seed = 1.5"])
def test_main_unparsable_config_value_is_config_error(one_orbital, tmp_path,
                                                      capsys, line):
    config = tmp_path / "run.cfg"
    config.write_text(line + "\n")
    assert main(["run", "--hamiltonian", str(one_orbital), "--method", "fci",
                 "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: bad {'float' if 'flip' in line else 'int'} for ")


@pytest.mark.parametrize("shots", ["0", str(2**63), "100000000000000000000"])
def test_main_rejects_shots_out_of_range(one_orbital, capsys, shots):
    assert main(["run", "--hamiltonian", str(one_orbital), "--method", "sqd",
                 "--shots", shots]) == 2
    assert capsys.readouterr().err.startswith("error: shots must be in [1, ")


def test_main_counts_over_64_orbitals_per_spin_exit_code(one_orbital, tmp_path,
                                                         capsys):
    counts = tmp_path / "wide.txt"
    counts.write_text("n_qubits=130\n" + "0" * 130 + " 4\n")
    assert main(["run", "--hamiltonian", str(one_orbital), "--method", "sqd",
                 "--sampler", "counts-file", "--counts", str(counts)]) == 4
    assert "64 orbitals per spin" in capsys.readouterr().err


def test_main_numerical_fault_exit_code(one_orbital, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ArithmeticError("solver produced non-finite values")

    monkeypatch.setattr("sqdci.cli.fci_ground_state", fail)
    assert main(["run", "--hamiltonian", str(one_orbital),
                 "--method", "fci"]) == 3
    assert capsys.readouterr().err == "error: solver produced non-finite values\n"


def test_main_non_converged_solve_exit_code(tmp_path, monkeypatch, capsys):
    # FCI over 7 orbitals, 3+3 electrons (dimension 1225) takes the
    # Davidson path; one iteration cannot converge.
    path = tmp_path / "h7.fcidump"
    write_fcidump_path(random_hamiltonian(7, 3, 3, seed=24), path)
    monkeypatch.setattr("sqdci.solver.MAX_ITERATIONS", 1)
    assert main(["run", "--hamiltonian", str(path), "--method", "fci"]) == 3
    assert capsys.readouterr().err.startswith("error: Davidson did not converge")


def test_main_over_memory_budget_exit_code(tmp_path, monkeypatch, capsys):
    # ext-hci over (7,3,3): HCI's first, one-row solve builds a CSR matrix;
    # its 205-row basis on 31 x 31 strings runs masked.
    path = tmp_path / "h7.fcidump"
    write_fcidump_path(random_hamiltonian(7, 3, 3, seed=24,
                                          diagonal_spread=1.0), path)
    argv = ["run", "--hamiltonian", str(path), "--method", "ext-hci",
            "--epsilon1", "1e-3"]

    def not_built(*args):
        raise AssertionError("the cap must hold before the operator is built")

    # One row, and no move among its strings: a bound of 320 bytes.
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", 319)
    monkeypatch.setattr("sqdci.hamiltonian._expand", not_built)
    assert main(argv) == 4
    assert "sparse matrix over 1 determinants" in capsys.readouterr().err
    monkeypatch.undo()
    monkeypatch.setattr("sqdci.hamiltonian.product_operator_bytes",
                        lambda *args: (4 << 30) + 1)
    # The product operator's first step of its own after its check; CSR
    # builds string tables too.
    monkeypatch.setattr("sqdci.hamiltonian._string_matrix", not_built)
    assert main(argv) == 4
    assert "product space 31 x 31" in capsys.readouterr().err


def test_main_oversized_sqd_closure_exit_code(tmp_path, monkeypatch, capsys):
    # Shots on every determinant of (4,2,2): the batch closes to 6 x 6
    # strings, refused on its string counts before the product is built.
    hamiltonian, counts = tmp_path / "h4.fcidump", tmp_path / "counts.txt"
    write_fcidump_path(random_hamiltonian(4, 2, 2, seed=3), hamiltonian)
    sector = sector_basis(4, 2, 2)
    write_counts(BitstringCounts(8, sector[:, 0], sector[:, 1],
                                 np.ones(len(sector), dtype=np.int64)), counts)

    def not_built(*args):
        raise AssertionError("the cap must hold before the closure is built")

    need = solver_bytes(36) + product_operator_bytes(4, 6, 6)
    monkeypatch.setattr("sqdci.solver.MEMORY_BUDGET_BYTES", need - 1)
    monkeypatch.setattr("sqdci.sqd.product_basis", not_built)
    assert main(["run", "--hamiltonian", str(hamiltonian), "--method", "sqd",
                 "--sampler", "counts-file", "--counts", str(counts),
                 "--iterations", "1", "--batches", "1"]) == 4
    assert "product space 6 x 6" in capsys.readouterr().err


def test_sqdci_threads_applied_before_numpy_loads():
    env = dict(os.environ, SQDCI_THREADS="1", OMP_NUM_THREADS="4",
               PYTHONPATH=str(Path(sqdci.__file__).parents[1]))
    probe = ("import os, sys, sqdci; print('numpy' in sys.modules, *(os.environ[v]"
             " for v in ('OMP_NUM_THREADS', 'OPENBLAS_NUM_THREADS',"
             " 'MKL_NUM_THREADS')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.split() == ["False", "1", "1", "1"]


def test_cli_runs_load_no_scipy(tmp_path):
    # FCI at dimension 1225 takes the Davidson path; the LUCJ sampler with
    # readout noise takes the orbital-rotation exp/log and recovery paths;
    # ext-sqd takes the extension and the basis unions. ext-hci at 1e-3 on
    # the (7,3,3) file solves its 205- and 1 065-row HCI bases on the
    # row-masked product sigma (their operator was "masked" when checked
    # once). numpy.ma must stay unloaded too: np.unique imports it on
    # first call (about 15 ms), so the run path avoids it.
    large, small = tmp_path / "h7.fcidump", tmp_path / "h4.fcidump"
    write_fcidump_path(random_hamiltonian(7, 3, 3, seed=25), large)
    write_fcidump_path(random_hamiltonian(4, 2, 2, seed=26), small)
    x = np.random.default_rng(27).normal(size=(2, 2, 2, 2)) * 0.05
    amplitudes = tmp_path / "amps.npz"
    np.savez(amplitudes, t2=x + x.transpose(1, 0, 3, 2))
    runs = [
        ["--hamiltonian", str(large), "--method", "fci"],
        ["--hamiltonian", str(small), "--method", "sqd", "--sampler", "lucj",
         "--amplitudes", str(amplitudes), "--shots", "2000",
         "--flip-prob", "0.05", "--iterations", "2", "--batches", "2",
         "--samples-per-batch", "20"],
        ["--hamiltonian", str(small), "--method", "ext-hci",
         "--epsilon1", "0.01"],
        ["--hamiltonian", str(small), "--method", "ext-sqd", "--sampler",
         "ci-vector", "--shots", "2000", "--iterations", "2", "--batches",
         "2", "--samples-per-batch", "20"],
        ["--hamiltonian", str(large), "--method", "ext-hci",
         "--epsilon1", "1e-3"],
    ]
    runs = [["run", *argv, "--out", str(tmp_path / f"{i}.json")]
            for i, argv in enumerate(runs)]
    probe = ("import json, sys\n"
             "from sqdci.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, sorted(m for m in sys.modules"
             " if m.partition('.')[0] == 'scipy' or m == 'numpy.ma')]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sqdci.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert json.loads(out) == [[0] * 5, []]
    assert json.loads((tmp_path / "0.json").read_text())["dimension"] == 1225


def test_fci_and_hci_runs_leave_numpy_random_unloaded(tmp_path):
    # Davidson makes its random stream only when a correction collapses,
    # and nothing else on these paths draws: numpy.random (about 2 MB of
    # RSS) stays unimported, and so does OpenSSL (about 3 MB), which only
    # a hashed stream tag needs. FCI at dimension 400 takes the Davidson path.
    hamiltonian = tmp_path / "h6.fcidump"
    write_fcidump_path(random_hamiltonian(6, 3, 3, seed=25), hamiltonian)
    runs = [["run", "--hamiltonian", str(hamiltonian), "--method", method,
             *argv, "--out", str(tmp_path / f"{method}.json")]
            for method, argv in (("fci", []), ("hci", ["--epsilon1", "1e-3"]),
                                 ("ext-hci", ["--epsilon1", "1e-2"]))]
    probe = ("import json, sys\n"
             "from sqdci.cli import main\n"
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
             "print(json.dumps([codes, 'numpy.random' in sys.modules,\n"
             "                  '_hashlib' in sys.modules]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(sqdci.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)],
                         env=env, check=True, capture_output=True, text=True,
                         timeout=120).stdout
    assert json.loads(out) == [[0] * 3, False, False]
    assert json.loads((tmp_path / "fci.json").read_text())["dimension"] == 400


def test_sqd_records_count_subspace_solves(tmp_path):
    # Both final batches extend to the whole 36-row sector, solved once.
    hamiltonian = tmp_path / "h4.fcidump"
    write_fcidump_path(random_hamiltonian(4, 2, 2, seed=26), hamiltonian)
    solves = []
    for method in ("sqd", "ext-sqd"):
        record = execute_run(RunConfig(
            hamiltonian_path=str(hamiltonian), method=method,
            sampler="ci-vector", shots=2000, iterations=2, batches=2,
            samples_per_batch=20))
        solves.append(record["subspace_solves"])
    assert solves == [2, 3]
    record = execute_run(RunConfig(hamiltonian_path=str(hamiltonian),
                                   method="fci"))
    assert "subspace_solves" not in record


def test_main_reaction_subcommand(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"method": "fci", "energy": -5.0}))
    b.write_text(json.dumps({"method": "fci", "energy": -3.0}))
    out = tmp_path / "delta.json"
    assert main(["reaction", "--product", str(a), "--reactant", str(b),
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["delta_e_hartree"] == -2.0


def test_main_scan_subcommand(tmp_path):
    for size in (2, 3):
        write_fcidump_path(random_hamiltonian(size, 1, 1, seed=size),
                           tmp_path / f"as{size}.fcidump")
    out = tmp_path / "table.csv"
    code = main(["scan", "--template", str(tmp_path / "as{size}.fcidump"),
                 "--sizes", "3,2", "--methods", "fci", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("size,method,energy")
    assert len(lines) == 3


def test_scan_runs_each_size_and_method_once(tmp_path, monkeypatch):
    # Tables are joined on (size, method), so a repeated key would be
    # ambiguous: sizes ascending, methods in first-seen order, once each.
    for size in (2, 3):
        write_fcidump_path(random_hamiltonian(size, 1, 1, seed=size),
                           tmp_path / f"as{size}.fcidump")
    runs = []
    monkeypatch.setattr("sqdci.cli.execute_run",
                        lambda config, *ham: runs.append(config)
                        or execute_run(config, *ham))
    out = tmp_path / "table.csv"
    assert main(["scan", "--template", str(tmp_path / "as{size}.fcidump"),
                 "--sizes", "3,2,3,2", "--methods", "hci,fci,hci",
                 "--out", str(out)]) == 0
    keys = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    assert keys == [["2", "hci"], ["2", "fci"], ["3", "hci"], ["3", "fci"]]
    assert len(runs) == 4


def test_scan_reads_each_member_once(tmp_path, monkeypatch):
    # Three methods over two sizes read two files, and each row is the
    # record of a run that read its own file.
    for size in (2, 3):
        write_fcidump_path(random_hamiltonian(size, 1, 1, seed=size),
                           tmp_path / f"as{size}.fcidump")
    reads = []
    monkeypatch.setattr("sqdci.cli.read_fcidump",
                        lambda path: reads.append(path) or read_fcidump(path))
    out = tmp_path / "table.csv"
    assert main(["scan", "--template", str(tmp_path / "as{size}.fcidump"),
                 "--sizes", "2,3", "--methods", "fci,hci,ext-hci",
                 "--out", str(out)]) == 0
    assert reads == [str(tmp_path / f"as{size}.fcidump") for size in (2, 3)]
    monkeypatch.undo()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 6
    for size, method, energy, dimension, extended in rows:
        record = execute_run(RunConfig(
            hamiltonian_path=str(tmp_path / f"as{size}.fcidump"),
            method=method))
        assert energy == repr(record["energy"])
        assert dimension == str(record["dimension"])
        assert extended == str(record.get("dimension_extended", ""))


def test_config_file_and_flag_override(one_orbital, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = fci\nseed = 9\n")
    parser = build_parser()
    args = parser.parse_args(["run", "--hamiltonian", str(one_orbital),
                              "--config", str(cfg), "--seed", "4"])
    from sqdci.cli import _build_run_config
    config = _build_run_config(args)
    assert config.method == "fci"
    assert config.seed == 4  # flag wins over file

    cfg.write_text("not_a_field = 1\n")
    args = parser.parse_args(["run", "--hamiltonian", str(one_orbital),
                              "--config", str(cfg)])
    with pytest.raises(ConfigError):
        _build_run_config(args)


def test_default_protocol_values():
    config = RunConfig()
    assert config.shots == 6_000_000
    assert config.iterations == 10
    assert config.batches == 16
    assert config.discard_below == 1e-2
    assert config.doubles_above == 1e-1


@pytest.mark.parametrize("sizes", ["4,x", ","])
def test_scan_sizes_not_a_list_of_integers_exits_2(tmp_path, sizes, capsys):
    # argparse rejects the flag: SystemExit 2, before any run.
    out = tmp_path / "table.csv"
    with pytest.raises(SystemExit) as exit_info:
        main(["scan", "--template", str(tmp_path / "as{size}.fcidump"),
              "--sizes", sizes, "--methods", "fci", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--sizes" in capsys.readouterr().err
    assert not out.exists()


def test_scan_template_with_another_field_exits_2(tmp_path, capsys):
    write_fcidump_path(random_hamiltonian(2, 1, 1, seed=2),
                       tmp_path / "as_2_0.fcidump")
    assert main(["scan", "--template", str(tmp_path / "as_{size}_{0}.fcidump"),
                 "--sizes", "2", "--methods", "fci"]) == 2
    assert "template" in capsys.readouterr().err


def _fail_if_run(*args, **kwargs):
    raise AssertionError("computed before the output was checked")


def test_scan_with_no_method_exits_2(tmp_path, capsys, monkeypatch):
    # Like an empty --sizes: no table with only a header.
    monkeypatch.setattr("sqdci.cli.execute_run", _fail_if_run)
    out = tmp_path / "table.csv"
    (tmp_path / "one1.fcidump").write_text(ONE_ORBITAL_FCIDUMP)
    assert main(["scan", "--template", str(tmp_path / "one{size}.fcidump"),
                 "--sizes", "1", "--methods", " , ", "--out", str(out)]) == 2
    assert "--methods" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_out_exits_2_before_computing(tmp_path, capsys,
                                                 monkeypatch):
    (tmp_path / "one1.fcidump").write_text(ONE_ORBITAL_FCIDUMP)
    record = tmp_path / "record.json"
    record.write_text(json.dumps({"method": "fci", "energy": -1.0}))
    commands = [
        ["run", "--hamiltonian", str(tmp_path / "one1.fcidump"),
         "--method", "fci"],
        ["scan", "--template", str(tmp_path / "one{size}.fcidump"),
         "--sizes", "1", "--methods", "fci"],
        ["reaction", "--product", str(record), "--reactant", str(record)],
    ]
    with monkeypatch.context() as patch:
        patch.setattr("sqdci.cli.execute_run", _fail_if_run)
        patch.setattr("sqdci.cli.reaction_report", _fail_if_run)
        for argv in commands:
            assert main([*argv, "--out", str(tmp_path / "no" / "out")]) == 2
            assert "no directory" in capsys.readouterr().err
    # The directory exists but the path is one: the write fails after the
    # computation, still with exit 2.
    for argv in commands:
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert "cannot write" in capsys.readouterr().err


def test_config_file_output_path_is_written_and_checked(one_orbital,
                                                        tmp_path):
    cfg = tmp_path / "run.cfg"
    out = tmp_path / "record.json"
    cfg.write_text(f"method = fci\noutput_path = {out}\n")
    assert main(["run", "--hamiltonian", str(one_orbital),
                 "--config", str(cfg)]) == 0
    assert json.loads(out.read_text())["method"] == "fci"
    cfg.write_text(f"method = fci\noutput_path = {tmp_path / 'no' / 'r.json'}\n")
    assert main(["run", "--hamiltonian", str(one_orbital),
                 "--config", str(cfg)]) == 2


@pytest.mark.parametrize("record", [
    '{"method": "fci", "energy": "-1.0"}',
    '{"method": "fci", "energy": null}',
    '{"method": "fci", "energy": NaN}',
    '{"method": "fci", "energy": Infinity}',
    '{"method": "fci", "energy": true}',
    '{"method": "fci", "energy": 1e400}',
    '{"method": "fci", "energy": 1%s}' % ("0" * 400),
    '{"method": 1, "energy": -1.0}',
    '{"method": null, "energy": -1.0}',
    '5',
], ids=["string", "null", "nan", "inf", "bool", "overflow", "huge-int",
        "method-number", "method-null", "not-an-object"])
def test_reaction_rejects_record_values(tmp_path, record, capsys):
    # --allow-method-mismatch: a bad method is refused, not just compared.
    bad, good = tmp_path / "bad.json", tmp_path / "good.json"
    bad.write_text(record)
    good.write_text(json.dumps({"method": "fci", "energy": -1.0}))
    out = tmp_path / "delta.json"
    for pair in (["--product", str(bad), "--reactant", str(good)],
                 ["--product", str(good), "--reactant", str(bad)]):
        assert main(["reaction", *pair, "--allow-method-mismatch",
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_reaction_difference_past_float_range_exits_2(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"method": "fci", "energy": 1e308}))
    b.write_text(json.dumps({"method": "fci", "energy": -1e308}))
    assert main(["reaction", "--product", str(a), "--reactant", str(b)]) == 2
