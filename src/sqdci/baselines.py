"""Heat-bath CI and its excitation extension, used as classical benchmarks.

Only the variational stage is implemented (no perturbative correction);
the extension step shares :func:`sqdci.sqd.extend_subspace` with the
sampled-subspace pipeline so both methods densify identically. Both keep
their bases packed (see :mod:`sqdci.hamiltonian`) and take unions with
:func:`~sqdci.hamiltonian.merge_bases`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ConfigError
from .hamiltonian import (ActiveSpaceHamiltonian, connected_determinants,
                          merge_bases)
from .solver import DavidsonOptions, SubspaceResult, solve_subspace
from .sqd import (EXTENSION_DIMENSION_CAP, ExtensionThresholds,
                  extend_subspace)

HCI_DIMENSION_CAP = 2_000_000


@dataclass
class HCIOptions:
    epsilon1: float = 1e-4
    max_iterations: int = 50
    energy_tol: float = 1e-9

    def __post_init__(self):
        # Written so that nan fails too; epsilon1 = inf keeps only HF.
        if not self.epsilon1 >= 0:
            raise ConfigError("epsilon1 must be nonnegative")
        if not self.energy_tol > 0:
            raise ConfigError("energy_tol must be positive")


def hci_variational(ham: ActiveSpaceHamiltonian,
                    opts: HCIOptions | None = None,
                    solver_opts: DavidsonOptions | None = None) -> SubspaceResult:
    """Variational heat-bath selection from the HF determinant.

    Each sweep adds every determinant coupled to the current wavefunction
    with |H_{d'd} c_d| >= epsilon1, then re-diagonalizes; stops when the
    space is stable or the energy change drops below energy_tol. One
    batched :func:`connected_determinants` call lists a sweep's
    candidates, and :func:`merge_bases` merges the new ones in.
    """
    opts = opts or HCIOptions()
    dets = np.array([ham.hf_determinant()], dtype=np.uint64)
    current = solve_subspace(ham, dets, solver_opts)
    sweeps = 0
    for sweeps in range(1, opts.max_iterations + 1):
        amp = np.abs(current.vector)
        live = amp >= 1e-14
        found = connected_determinants(ham, dets[live, 0], dets[live, 1],
                                       opts.epsilon1 / amp[live])
        merged = merge_bases(
            dets, np.column_stack([found["alpha"], found["beta"]]))
        if len(merged) == len(dets):
            break
        dets = merged
        if len(dets) > HCI_DIMENSION_CAP:
            raise CapacityError(f"HCI space grew past {HCI_DIMENSION_CAP}")
        previous_energy = current.energy
        current = solve_subspace(ham, dets, solver_opts)
        if abs(previous_energy - current.energy) < opts.energy_tol:
            break
    current.diagnostics["hci_sweeps"] = sweeps
    current.diagnostics["epsilon1"] = opts.epsilon1
    return current


def ext_hci(ham: ActiveSpaceHamiltonian, prior: SubspaceResult,
            thresholds: ExtensionThresholds | None = None,
            solver_opts: DavidsonOptions | None = None,
            dimension_cap: int = EXTENSION_DIMENSION_CAP) -> SubspaceResult:
    """Excitation extension of an HCI ground state (single re-diagonalization)."""
    thresholds = thresholds or ExtensionThresholds()
    extended = merge_bases(extend_subspace(prior.vector, prior.basis,
                                           thresholds, ham.n_orb,
                                           dimension_cap), prior.basis)
    if len(extended) > dimension_cap:
        raise CapacityError(
            f"extended dimension {len(extended)} exceeds cap {dimension_cap}")
    result = solve_subspace(ham, extended, solver_opts)
    result.diagnostics["extended_from"] = len(prior.basis)
    return result
