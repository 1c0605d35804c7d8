"""Command-line pipeline: run / reaction / scan.

Emits one JSON record per run (deterministic field order; byte-identical
re-runs modulo wall_time) and CSV tables for scans.

Exit codes: 0 success, 2 configuration error, 3 numerical
non-convergence, 4 capacity cap exceeded, 5 no valid samples.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time
import zipfile
from dataclasses import asdict, dataclass

import numpy as np

from . import rng, __version__
from .baselines import ext_hci, hci_variational
from .errors import (CapacityError, ConfigError, ConvergenceError,
                     EmptyValidSampleError, SqdciError, reading)
from .fcidump import read_fcidump
from .sampler import (SectorState, apply_readout_noise, lucj_params_from_ccsd,
                      lucj_state, read_counts, sample_counts)
from .solver import fci_ground_state
from .sqd import ExtensionThresholds, RecoveryConfig, ext_sqd, sqd_ground_state

METHODS = ("fci", "hci", "ext-hci", "sqd", "ext-sqd")
SAMPLERS = ("lucj", "ci-vector", "counts-file")

# The exit code of each error kind; ArithmeticError is a non-finite result.
EXIT_CODES = ((ConfigError, 2), ((ConvergenceError, ArithmeticError), 3),
              (CapacityError, 4), (EmptyValidSampleError, 5))

# The multinomial draw takes the shot count as a C int64.
MAX_SHOTS = np.iinfo(np.int64).max

# CODATA value, eV per Hartree. Energies are Hartree everywhere else; eV
# appears only in the records and reports written here.
EV_PER_HARTREE = 27.211386245988


@dataclass
class RunConfig:
    """Pipeline parameters; defaults follow the reference protocol."""

    hamiltonian_path: str = ""
    method: str = "sqd"
    sampler: str = "ci-vector"
    shots: int = 6_000_000
    iterations: int = RecoveryConfig.iterations
    batches: int = RecoveryConfig.batches
    samples_per_batch: int = RecoveryConfig.samples_per_batch
    discard_below: float = ExtensionThresholds.discard_below
    doubles_above: float = ExtensionThresholds.doubles_above
    flip_probability: float = 0.0
    seed: int = 0
    epsilon1: float = 1e-4
    lucj_layers: int = 1
    amplitudes_path: str = ""
    counts_path: str = ""
    output_path: str = ""

    def validate(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.sampler not in SAMPLERS:
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        if not self.hamiltonian_path:
            raise ConfigError("a Hamiltonian file is required")
        if not 0 < self.shots <= MAX_SHOTS:
            raise ConfigError(f"shots must be in [1, {MAX_SHOTS}], "
                              f"got {self.shots}")
        if not 0.0 <= self.flip_probability <= 1.0:  # false for nan too
            raise ConfigError("flip probability must be a finite value in "
                              f"[0, 1], got {self.flip_probability}")
        if np.isnan(self.epsilon1):  # echoed in the record
            raise ConfigError("epsilon1 must be a number, not nan")
        if self.method in ("sqd", "ext-sqd"):
            if self.sampler == "counts-file" and not self.counts_path:
                raise ConfigError("sampler=counts-file needs --counts")
            if self.sampler == "lucj" and not self.amplitudes_path:
                raise ConfigError("sampler=lucj needs --amplitudes (npz with t2, optional t1)")


def _read_amplitudes(path: str):
    """(t1 or None, t2) of an npz amplitudes file."""
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile) or "t2" not in data:
            raise ConfigError("amplitudes file must be an npz with 't2'")
        with data:
            return (data["t1"] if "t1" in data else None), data["t2"]
    except (OSError, EOFError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read amplitudes file {path}: {exc}") from exc


def _acquire_counts(config: RunConfig, ham):
    if config.sampler == "counts-file":
        counts = read_counts(config.counts_path)
    else:
        if config.sampler == "ci-vector":
            reference = fci_ground_state(ham)
            state = SectorState(ham.n_orb, ham.n_alpha, ham.n_beta,
                                reference.vector)
        else:
            t1, t2 = _read_amplitudes(config.amplitudes_path)
            params = lucj_params_from_ccsd(t1, t2, config.lucj_layers)
            nocc, _, nvirt, _ = t2.shape  # checked by lucj_params_from_ccsd
            sector = ham.n_alpha, ham.n_beta, ham.n_orb
            if (nocc, nocc, nocc + nvirt) != sector:
                raise ConfigError(f"t2 has {nocc} occupied of {nocc + nvirt} "
                                  "orbitals per spin; the sector has (alpha, "
                                  f"beta, orbitals) = {sector}")
            state = lucj_state(params, ham.n_orb, ham.n_alpha, ham.n_beta)
        counts = sample_counts(state, config.shots,
                               seed=int(rng.stream(config.seed, "shots")
                                        .integers(2**63)))
    if config.flip_probability > 0:
        counts = apply_readout_noise(
            counts, config.flip_probability,
            seed=int(rng.stream(config.seed, "noise").integers(2**63)))
    return counts


def execute_run(config: RunConfig, ham=None) -> dict:
    """Run the configured pipeline and return the result record; ``ham``
    is the Hamiltonian of the config's file if the caller has read it."""
    config.validate()
    started = time.perf_counter()
    if ham is None:
        ham = read_fcidump(config.hamiltonian_path)
    thresholds = ExtensionThresholds(discard_below=config.discard_below,
                                     doubles_above=config.doubles_above)
    record = {
        "tool": "sqdci",
        "version": __version__,
        "method": config.method,
        # Infinite thresholds as "inf"/"-inf": the record stays strict JSON.
        "config": {key: str(value) if value in (np.inf, -np.inf) else value
                   for key, value in asdict(config).items()},
    }

    if config.method == "fci":
        result = fci_ground_state(ham)
        record.update(energy=result.energy, dimension=result.dimension,
                      iterations=1, energy_history=[result.energy])
    elif config.method in ("hci", "ext-hci"):
        hci = hci_variational(ham, config.epsilon1)
        record.update(energy=hci.energy, dimension=hci.dimension,
                      iterations=hci.diagnostics.get("hci_sweeps", 0),
                      energy_history=[hci.energy])
        if config.method == "ext-hci":
            extended = ext_hci(ham, hci, thresholds)
            record.update(energy=extended.energy,
                          dimension_extended=extended.dimension,
                          energy_history=[hci.energy, extended.energy])
    else:
        # A bad loop shape is refused before the shots are drawn.
        recovery = RecoveryConfig(iterations=config.iterations,
                                  batches=config.batches,
                                  samples_per_batch=config.samples_per_batch,
                                  seed=config.seed)
        counts = _acquire_counts(config, ham)
        sqd = sqd_ground_state(ham, counts, recovery)
        record.update(energy=sqd.energy, dimension=sqd.dimension,
                      dimension_raw=sqd.raw_dimension,
                      iterations=config.iterations,
                      energy_history=list(sqd.energy_history),
                      subspace_solves=sqd.solves)
        if config.method == "ext-sqd":
            extended = ext_sqd(ham, sqd, thresholds)
            record.update(energy=extended.energy,
                          dimension_extended=extended.dimension,
                          subspace_solves=sqd.solves + extended.solves)
            record["energy_history"] = list(sqd.energy_history) + [extended.energy]

    record["energy_ev"] = record["energy"] * EV_PER_HARTREE
    record["wall_time"] = time.perf_counter() - started
    return record


def _write_text(text: str, path: str | None):
    """Write ``text`` to ``path``, or to stdout; an unwritable path is a
    :class:`ConfigError`."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _dump_record(record: dict, path: str | None):
    _write_text(json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
                + "\n", path)


def reaction_report(product_record: dict, reactant_record: dict,
                    allow_mismatch: bool = False) -> dict:
    """Energy difference between product and reactant records.

    Negative values are exothermic. Each record needs a string ``method``
    and a finite number ``energy``.
    """
    for record in (product_record, reactant_record):
        energy = record.get("energy") if isinstance(record, dict) else None
        if (isinstance(energy, bool) or not isinstance(energy, (int, float))
                or not abs(energy) <= sys.float_info.max  # exact for ints
                or not isinstance(record.get("method"), str)):
            raise ConfigError("a record needs a string 'method' and a finite "
                              "number 'energy'")
    if product_record["method"] != reactant_record["method"]:
        if not allow_mismatch:
            raise ConfigError(
                "records use different methods "
                f"({product_record['method']} vs {reactant_record['method']}); "
                "pass --allow-method-mismatch to override")
        print("warning: comparing energies across methods", file=sys.stderr)
    delta = float(product_record["energy"]) - float(reactant_record["energy"])
    if not math.isfinite(delta * EV_PER_HARTREE):
        raise ConfigError("the energy difference overflows")
    return {
        "delta_e_hartree": delta,
        "delta_e_ev": delta * EV_PER_HARTREE,
        "product": {"method": product_record["method"],
                    "energy": product_record["energy"]},
        "reactant": {"method": reactant_record["method"],
                     "energy": reactant_record["energy"]},
    }


def _load_json(path):
    """The JSON of the record file ``path``; unreadable, malformed or too
    deeply nested JSON is a :class:`ConfigError` by :func:`reading`."""
    with reading(path, "record") as fh:
        return json.load(fh)


def scan_table(config: RunConfig, template: str, sizes: list[int],
               methods: list[str]) -> list[dict]:
    """Run each distinct (size, method) pair over a family of FCIDUMP
    files, sizes ascending and methods in first-seen order. Every member
    file must exist before the first run starts; each is read once, for
    all its methods.
    """
    if "{size}" not in template:
        raise ConfigError("scan template must contain '{size}'")
    try:
        members = [(size, template.format(size=size))
                   for size in sorted(set(sizes))]
    except (LookupError, ValueError, AttributeError, TypeError) as exc:
        raise ConfigError(f"bad scan template {template!r}: {exc!r}") from exc
    for _, path in members:
        if not os.path.exists(path):
            raise ConfigError(f"missing scan member: {path}")
    rows = []
    for size, path in members:
        ham = read_fcidump(path)
        for method in dict.fromkeys(methods):
            member = RunConfig(**{**asdict(config),
                                  "hamiltonian_path": path,
                                  "method": method})
            record = execute_run(member, ham)
            rows.append({"size": size, "method": method,
                         "energy": record["energy"],
                         "dimension": record.get("dimension", ""),
                         "dimension_extended": record.get("dimension_extended", "")})
    return rows


def _write_csv(rows, path: str | None):
    import csv
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=[
        "size", "method", "energy", "dimension", "dimension_extended"])
    writer.writeheader()
    writer.writerows(rows)
    _write_text(text.getvalue(), path)


def _sizes(text: str) -> list[int]:
    """``--sizes``: comma-separated integers, at least one (argparse exits
    2 on the ``ValueError`` otherwise)."""
    sizes = [int(s) for s in text.split(",") if s.strip()]
    if not sizes:
        raise ValueError("no size")
    return sizes


def _read_config_file(path) -> dict:
    """key = value lines, field names as in RunConfig; a file that cannot
    be read is a :class:`ConfigError` by :func:`reading`."""
    values = {}
    valid = set(RunConfig.__dataclass_fields__)
    with reading(path, "config file") as fh:
        lines = fh.readlines()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in valid:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _coerce(field_name: str, value):
    kind = RunConfig.__dataclass_fields__[field_name].type
    if isinstance(value, str) and kind in ("int", "float"):
        try:
            return int(value) if kind == "int" else float(value)
        except ValueError as exc:
            raise ConfigError(f"bad {kind} for {field_name}: {value!r}") from exc
    return value


def _build_run_config(args) -> RunConfig:
    """The config file's values, overridden by every flag given."""
    values = _read_config_file(args.config) if args.config else {}
    for key in RunConfig.__dataclass_fields__:
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    return RunConfig(**{key: _coerce(key, value)
                        for key, value in values.items()})


def _add_run_arguments(parser):
    """One flag per :class:`RunConfig` field, its dest the field name."""
    parser.add_argument("--hamiltonian", dest="hamiltonian_path",
                        help="FCIDUMP file")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--method", choices=METHODS)
    parser.add_argument("--sampler", choices=SAMPLERS)
    parser.add_argument("--shots", type=int)
    parser.add_argument("--iterations", type=int)
    parser.add_argument("--batches", type=int)
    parser.add_argument("--samples-per-batch", type=int)
    parser.add_argument("--discard-below", type=float)
    parser.add_argument("--doubles-above", type=float)
    parser.add_argument("--flip-prob", type=float, dest="flip_probability")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--epsilon1", type=float)
    parser.add_argument("--lucj-layers", type=int)
    parser.add_argument("--amplitudes", dest="amplitudes_path",
                        help="npz with t2 (and optional t1)")
    parser.add_argument("--counts", dest="counts_path",
                        help="counts file (sampler=counts-file)")
    parser.add_argument("--out", dest="output_path",
                        help="output path (default stdout)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sqdci",
        description="Sampled-subspace and selected-CI ground-state pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one method on one Hamiltonian")
    _add_run_arguments(run)

    reaction = sub.add_parser("reaction", help="energy difference of two records")
    reaction.add_argument("--product", required=True)
    reaction.add_argument("--reactant", required=True)
    reaction.add_argument("--allow-method-mismatch", action="store_true")
    reaction.add_argument("--out", dest="output_path")

    scan = sub.add_parser("scan", help="run methods over a sized FCIDUMP family")
    _add_run_arguments(scan)
    scan.add_argument("--template", required=True,
                      help="path template containing '{size}'")
    scan.add_argument("--sizes", required=True, type=_sizes,
                      help="comma-separated active-space sizes")
    scan.add_argument("--methods", required=True,
                      help="comma-separated methods")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The output file is checked before anything is computed.
        config = None if args.command == "reaction" else _build_run_config(args)
        out = config.output_path if config else args.output_path
        if out and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
            raise ConfigError(f"no directory for output file {out}")
        if args.command == "run":
            _dump_record(execute_run(config), out)
        elif args.command == "reaction":
            report = reaction_report(_load_json(args.product),
                                     _load_json(args.reactant),
                                     allow_mismatch=args.allow_method_mismatch)
            _dump_record(report, out)
        else:
            methods = [m.strip() for m in args.methods.split(",") if m.strip()]
            if not methods:
                raise ConfigError("--methods names no method")
            for method in methods:
                if method not in METHODS:
                    raise ConfigError(f"unknown method {method!r}")
            rows = scan_table(config, args.template, args.sizes, methods)
            _write_csv(rows, out)
    except (SqdciError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kinds, code in EXIT_CODES
                    if isinstance(exc, kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
