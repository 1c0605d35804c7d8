"""Recompute ``references.json`` with the sqdci in ``src/``.

Usage: python3 bench/make_references.py

For every workload and instance it stores the sha256 of each generated
input, E_FCI (``sqdci run --method fci``), and, for deterministic
workloads, the workload's own energy. Run it only at the commit whose
energies the gates should hold later commits to; the file records that
commit.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from run import BENCH, CLI_MAIN, ROOT, environment, spawn


def cli_energy(args: list[str], workdir: Path) -> float:
    record = workdir / "record.json"
    log = workdir / "stderr.log"
    code, *_ = spawn([sys.executable, "-c", CLI_MAIN, *args,
                        "--out", str(record)], log)
    if code != 0:
        raise RuntimeError(f"sqdci {' '.join(args)} exited {code}:\n{log.read_text()}")
    return json.loads(record.read_text())["energy"]


def main() -> int:
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="references-", dir=work_root))
    out = {"commit": environment()["commit"], "workloads": {}}
    try:
        for wl in workloads.WORKLOADS.values():
            table = out["workloads"][wl.name] = {}
            for instance in range(workloads.INSTANCES):
                files = workloads.write_inputs(wl, instance, workdir / "inputs")
                entry = {"inputs": {flag: workloads.sha256(path)
                                    for flag, path in files.items()}}
                entry["e_fci"] = cli_energy(
                    ["run", "--method", "fci",
                     "--hamiltonian", str(files["--hamiltonian"])], workdir)
                if wl.deterministic:
                    entry["energy"] = cli_energy(
                        workloads.cli_args(wl, files, instance), workdir)
                table[str(instance)] = entry
                print(wl.name, instance, entry, file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (BENCH / "references.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
