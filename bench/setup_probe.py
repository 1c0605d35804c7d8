"""The fixed cost of a run: a fresh interpreter imports ``sqdci.cli`` and
reads the workload's input files, then prints where ``sqdci`` came from.

Usage: python3 bench/setup_probe.py FLAG PATH [FLAG PATH ...]
with the flags of the CLI: --hamiltonian, --counts, --amplitudes.
"""

import sys

import numpy as np
import sqdci.cli as cli


def main() -> int:
    args = sys.argv[1:]
    for flag, path in zip(args[::2], args[1::2]):
        if flag == "--hamiltonian":
            cli.read_fcidump(path)
        elif flag == "--counts":
            cli.read_counts(path)
        elif flag == "--amplitudes":
            with np.load(path) as data:
                data["t2"], data["t1"]
    print(cli.__file__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
