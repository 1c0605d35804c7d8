"""Every name the benchmark's tracer wraps must exist in ``sqdci``.

``bench/tracer.py`` drops the metrics of a wrapped name that no longer
exists with only a note, so a refactor that removes or renames one would
otherwise go unnoticed until a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# Hooked but gone from sqdci; ROADMAP item 0 drops the hook with the
# next change to the benchmark.
KNOWN_DEAD = {("sqdci.solver", "build_dense_matrix")}


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("sqdci_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    hooked = [(module, attr) for module, attr, *_ in tracer.HOOKS]
    hooked.append(("sqdci.solver", "davidson_lowest"))
    missing = [f"{module}.{attr}" for module, attr in hooked
               if (module, attr) not in KNOWN_DEAD
               and not callable(getattr(importlib.import_module(module), attr,
                                        None))]
    assert missing == []
