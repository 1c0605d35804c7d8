"""Run ``sqdci`` with layer spans recorded from outside the package.

Usage: python3 bench/traced_cli.py TRACE_OUT.json run --hamiltonian ...

Installs the wrappers of ``tracer.HOOKS``, runs ``sqdci.cli.main`` on the
remaining arguments and writes the spans and counters to TRACE_OUT.json
when the run ends, whatever its exit code.
"""

import sys

from tracer import Tracer, install_hooks


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_hooks(tracer)
    from sqdci import cli
    try:
        return cli.main(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
