"""Heat-bath CI and its excitation extension, used as classical benchmarks.

Only the variational stage is implemented (no perturbative correction);
the extension step shares :func:`sqdci.sqd.extend_subspace` with the
sampled-subspace pipeline so both methods densify identically. Both keep
their bases packed (see :mod:`sqdci.hamiltonian`) and take unions with
:func:`~sqdci.hamiltonian.merge_blocks`, refused by the solver's per-row
:func:`~sqdci.solver.check_rows`. ``epsilon1`` is the one setting; the
sweep limit ``MAX_SWEEPS`` and the energy tolerance ``ENERGY_TOL`` are
module constants.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import ConfigError
from .hamiltonian import (_BLOCK_CANDIDATES, ActiveSpaceHamiltonian,
                          connected_determinants, merge_blocks)
from .solver import SubspaceResult, check_rows, solve_subspace
from .sqd import ExtensionThresholds, extend_subspace, solve_distinct

MAX_SWEEPS = 50
ENERGY_TOL = 1e-9


def hci_variational(ham: ActiveSpaceHamiltonian,
                    epsilon1: float) -> SubspaceResult:
    """Variational heat-bath selection from the HF determinant, the
    lowest orbitals of each spin filled.

    Each sweep adds every determinant coupled to the current wavefunction
    with |H_{d'd} c_d| >= epsilon1, then re-diagonalizes; stops when the
    space is stable, the energy change drops below ``ENERGY_TOL``, or
    after ``MAX_SWEEPS`` sweeps. :func:`merge_blocks` folds the screen of
    each block of sources into the space as it comes, so a sweep holds
    about its result. ``epsilon1 = inf`` keeps only the HF determinant.
    """
    if not epsilon1 >= 0:  # written so that nan fails too
        raise ConfigError("epsilon1 must be nonnegative")
    dets = np.array([[(1 << ham.n_alpha) - 1, (1 << ham.n_beta) - 1]],
                    dtype=np.uint64)
    current = solve_subspace(ham, dets)
    # Sources per screen: one block of connected_determinants.
    step = max(1, _BLOCK_CANDIDATES // ham.n_orb**2)
    sweeps = 0
    for sweeps in range(1, MAX_SWEEPS + 1):
        amp = np.abs(current.vector)
        live = np.flatnonzero(amp >= 1e-14)
        screens = (connected_determinants(ham, dets[k], epsilon1 / amp[k])
                   for k in np.split(live, range(step, len(live), step)))
        merged = merge_blocks(itertools.chain([dets], screens), "HCI space",
                              check_rows)
        if len(merged) == len(dets):
            break
        dets = merged
        previous_energy = current.energy
        current = solve_subspace(ham, dets)
        if abs(previous_energy - current.energy) < ENERGY_TOL:
            break
    current.diagnostics["hci_sweeps"] = sweeps
    return current


def ext_hci(ham: ActiveSpaceHamiltonian, prior: SubspaceResult,
            thresholds: ExtensionThresholds | None = None) -> SubspaceResult:
    """Excitation extension of an HCI ground state, with the HCI basis
    itself (single re-diagonalization).

    When the extension adds nothing it is the HCI basis, whose solve is
    ``prior``, which is returned instead of solving again.
    """
    thresholds = thresholds or ExtensionThresholds()
    extended = extend_subspace(prior.vector, prior.basis, thresholds,
                               ham.n_orb, prior.basis)
    return solve_distinct(ham, [extended], [prior])[0][0]
