"""Selected-CI engine with sample-based quantum diagonalization.

Core objects live in submodules:

* :mod:`sqdci.hamiltonian` -- packed determinant bases, active-space
  Hamiltonians, Slater-Condon matrix elements and the projected-Hamiltonian
  builder and matrix-free operator.
* :mod:`sqdci.fcidump` -- FCIDUMP reader/writer.
* :mod:`sqdci.solver` -- Davidson and dense eigensolvers, FCI driver.
* :mod:`sqdci.sampler` -- LUCJ statevector simulation, multinomial shot
  sampling, readout noise, counts-file I/O.
* :mod:`sqdci.sqd` -- configuration recovery, batching, subspace
  diagonalization and the excitation extension (Ext-SQD).
* :mod:`sqdci.baselines` -- heat-bath CI and its excitation extension.
* :mod:`sqdci.activespace` -- orbital ranking and inside-out selection.
* :mod:`sqdci.cli` -- command-line pipeline.
"""

import os as _os

# SQDCI_THREADS sizes the BLAS/OpenMP pools. Those read their variables
# when numpy first loads, so this runs before any submodule imports it.
if _os.environ.get("SQDCI_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ[_var] = _os.environ["SQDCI_THREADS"]

__version__ = "0.1.0"
