"""Eigensolvers for projected Hamiltonians.

``davidson_lowest`` is a one-root Davidson with diagonal preconditioning
and a GD+k thick restart; ``dense_eigensolve`` is the direct
oracle/fallback. Both return the lowest eigenpair only.
``solve_subspace`` picks between them by dimension (``DENSE_THRESHOLD``)
and is the single entry point used by the SQD and HCI drivers. Both paths
use numpy's LAPACK ``eigh``. Bases are packed rows as
:mod:`sqdci.hamiltonian` defines them, and vectors are in basis order.
Davidson multiplies by the matrix-free
:class:`~sqdci.hamiltonian.ProductHamiltonian` over the basis's alpha and
beta strings: unmasked when the basis is their full product (SQD
closures, the FCI sector), and row-masked when their grid holds at most
``MASKED_GRID_RATIO`` times the basis rows (most extensions and HCI
bases). On sparser grids it multiplies by the builder's numpy CSR matrix.
Davidson keeps :func:`solver_bytes` of ``MEMORY_BUDGET_BYTES`` (checked
by :func:`check_rows`, as HCI and extension unions are) and the operator
gets the rest, which it refuses before it is built when its own estimate
is larger. :func:`check_product_space` refuses a product space on its
string counts, before its basis exists.

The Davidson settings are the module constants ``RESIDUAL_TOL``,
``MAX_ITERATIONS`` and ``MAX_SUBSPACE``; the functions read them at call
time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import rng
from .errors import CapacityError, ConfigError, ConvergenceError, check_budget
from .hamiltonian import (ActiveSpaceHamiltonian, ProductHamiltonian,
                          basis_strings, build_sparse_matrix,
                          product_operator_bytes, sector_basis)

# Below this many rows a full eigh of the densified CSR matrix beats
# Davidson on the product sigma. Dense/Davidson per solve, one pinned
# core, product bases of random strings at n_orb 6, 8 and 10 with random
# integrals: 1.7-1.8/3.2-4.5 ms at dim 64, 3.8-4.6/5.9-9.0 ms at 144,
# 6.4-7.8/6.1-10.3 ms at 196, 9.1-9.6/9.0-10.9 ms at 225 and
# 11-13/6.7-12 ms at 256; 19-27/6.6-13 ms at 400. Easier spectra cross
# lower: 3.5/3.6 ms at 144 on other product bases at the same sizes.
DENSE_THRESHOLD = 200
# Davidson uses the row-masked product sigma while the string grid holds
# at most this many times the basis rows, and CSR above. Extensions of
# Hubbard-ring batches (U = 4), masked/CSR: 0.78/1.00 s at n_orb 10, grid
# ratio 4.9; 22.4/25.0 s at n_orb 12, ratio 4.4; 15.8/8.0 s at n_orb 12,
# ratio 11.9. A Hubbard (10,5,5) HCI basis at ratio 12.6 took 0.83/0.29 s,
# and the two broke even near ratio 9.7 at n_orb 12.
MASKED_GRID_RATIO = 8
# Davidson: residual norm at convergence, iteration limit, and the rows of
# its preallocated basis and sigma blocks. A block holds at least 2 rows
# (fewer only when the dimension is 1): a restart keeps the Ritz vector
# and must then append the new correction beside it.
RESIDUAL_TOL = 1e-8
MAX_ITERATIONS = 300
MAX_SUBSPACE = 20
# Memory a solve may plan for: solver_bytes plus its operator's estimate.
MEMORY_BUDGET_BYTES = 4 << 30


@dataclass
class SpectrumResult:
    """Lowest eigenpair of a symmetric operator."""

    energy: float
    vector: np.ndarray
    iterations_used: int
    converged: bool


@dataclass
class SubspaceResult:
    """Ground state of a projected Hamiltonian over an explicit basis."""

    energy: float
    vector: np.ndarray
    basis: np.ndarray
    dimension: int
    diagnostics: dict = field(default_factory=dict)


def _check_finite(arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise ArithmeticError("solver produced non-finite values")


def dense_eigensolve(matrix: np.ndarray) -> SpectrumResult:
    """Lowest eigenpair of a symmetric real matrix (direct method)."""
    matrix = np.asarray(matrix, dtype=float)
    dim = matrix.shape[0]
    if matrix.shape != (dim, dim):
        raise ConfigError("matrix must be square")
    if dim > 4096:
        raise CapacityError("dense eigensolver capped at dimension 4096")
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ConfigError("matrix is not symmetric")
    evals, evecs = np.linalg.eigh(matrix)
    _check_finite([evals, evecs])
    # A copy, so the result does not hold the whole eigenvector matrix.
    return SpectrumResult(energy=float(evals[0]), vector=evecs[:, 0].copy(),
                          iterations_used=1, converged=True)


def _orthonormalised(vector: np.ndarray, against: np.ndarray):
    """``vector`` orthonormalised against the orthonormal rows of
    ``against`` by two projections (CGS2), or None when its remainder has
    norm at most 1e-10."""
    for _ in range(2):
        vector = vector - (against @ vector) @ against
    norm = np.sqrt(vector @ vector)
    return vector / norm if norm > 1e-10 else None


def davidson_lowest(matvec, diagonal) -> SpectrumResult:
    """Lowest eigenpair of a symmetric operator given its matvec.

    Generalized Davidson with diagonal preconditioning and a GD+k thick
    restart (Stathopoulos, SIAM J. Sci. Comput. 29, 481 (2007)). The
    basis V and its image W = HV live in preallocated blocks of
    ``MAX_SUBSPACE`` rows. Each new vector is orthonormalised by CGS2,
    multiplied once, and adds one row and column to the Rayleigh matrix
    V W^T. When the blocks are full, the restart keeps the current Ritz
    vector and, room permitting, the previous iteration's, orthonormalised
    in the coefficient space of V; V, W and the Rayleigh matrix are rotated
    by that coefficient block, so no vector is multiplied twice.

    Deterministic: the initial guess is the unit vector on the lowest
    diagonal entry (ties by index), and random vectors, from a fixed
    stream, are used only to replace a numerically degenerate correction.
    Converged means the final Ritz pair's residual, recomputed with one
    more matvec, is below ``RESIDUAL_TOL``.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    dim = len(diagonal)
    gen = None  # the random stream, made when a correction first collapses
    cap = min(max(MAX_SUBSPACE, 2), dim)
    basis = np.empty((cap, dim))
    sigma = np.empty((cap, dim))
    rayleigh = np.empty((cap, cap))

    def append(vector, size):
        """Add the orthonormal ``vector`` as row ``size``; new size."""
        end = size + 1
        basis[size] = vector
        sigma[size] = matvec(basis[size])
        cross = 0.5 * (basis[:end] @ sigma[size] + sigma[:end] @ basis[size])
        rayleigh[:end, size] = rayleigh[size, :end] = cross
        return end

    # The Ritz vector and its residual are (1, dim) rows. The residual norm
    # is a row sum (axis=1); the norm of a 1-D vector is a dot product,
    # which rounds differently.
    ritz = np.zeros((1, dim))
    ritz[0, np.argmin(diagonal)] = 1.0
    size = append(ritz[0], 0)
    previous = np.zeros(0)  # last iteration's Ritz coefficients
    converged = False
    iterations = 0

    for iterations in range(1, MAX_ITERATIONS + 1):
        evals, evecs = np.linalg.eigh(rayleigh[:size, :size])
        theta, coef = evals[0], evecs[:, :1].T
        ritz = coef @ basis[:size]
        residual = coef @ sigma[:size] - theta * ritz
        norm = np.linalg.norm(residual, axis=1)
        _check_finite([theta, ritz, norm])
        if norm[0] < RESIDUAL_TOL:
            converged = True
            break

        denom = diagonal - theta
        denom = np.where(np.abs(denom) < 1e-8,
                         np.copysign(1e-8, denom + 1e-300), denom)
        correction = _orthonormalised(residual[0] / denom, basis[:size])
        if correction is None:
            # Correction space collapsed: expand with a seeded random vector.
            if gen is None:
                gen = rng.stream(0, "davidson")
            correction = _orthonormalised(gen.standard_normal(dim),
                                          basis[:size])
            if correction is None:
                break
        if size == cap:
            # GD+k restart: the Ritz vector, the previous one if there is
            # room beside the new correction, then the correction.
            padded = np.zeros(size)
            padded[:len(previous)] = previous
            extra = _orthonormalised(padded, coef)
            # vstack copies even a lone ``coef`` into a contiguous block;
            # products with the strided view of ``evecs`` round differently.
            keep = np.vstack([coef, extra] if extra is not None and cap > 2
                             else [coef])
            basis[:len(keep)] = keep @ basis[:size]
            sigma[:len(keep)] = keep @ sigma[:size]
            small = keep @ rayleigh[:size, :size] @ keep.T
            coef = coef @ keep.T
            size = len(keep)
            rayleigh[:size, :size] = 0.5 * (small + small.T)
        previous = coef[0]
        size = append(correction, size)

    # Post-hoc residual verification, independent of internal bookkeeping.
    vector = ritz[0] / np.linalg.norm(ritz[0])
    hv = matvec(vector)
    energy = float(vector @ hv)
    verified = np.linalg.norm(hv - energy * vector) < RESIDUAL_TOL
    _check_finite([vector])
    return SpectrumResult(energy=energy, vector=vector,
                          iterations_used=iterations,
                          converged=bool(converged and verified))


def solve_subspace(ham: ActiveSpaceHamiltonian,
                   basis: np.ndarray) -> SubspaceResult:
    """Ground state of H projected onto ``basis``.

    Below ``DENSE_THRESHOLD`` the CSR matrix is diagonalized directly.
    Above it, Davidson runs on the matrix-free :class:`ProductHamiltonian`
    over the basis's strings: unmasked when ``basis`` is their full
    product, row-masked when that grid holds at most ``MASKED_GRID_RATIO``
    times the basis rows. On a larger grid it runs on the CSR matrix.
    Raises :class:`ConfigError` for an empty, unsorted or repeated basis,
    :class:`CapacityError` by :func:`check_rows` or when the chosen
    operator's estimate exceeds what the solve leaves of the budget, and
    :class:`ConvergenceError` when Davidson does not reach ``RESIDUAL_TOL``.
    """
    if not len(basis):
        raise ConfigError("empty determinant basis")
    dim = len(basis)
    if dim < DENSE_THRESHOLD:
        spec = dense_eigensolve(build_sparse_matrix(
            ham, basis, MEMORY_BUDGET_BYTES).toarray())
        return SubspaceResult(energy=spec.energy, vector=spec.vector,
                              basis=basis, dimension=dim,
                              diagnostics={"method": "dense", "operator": "csr"})

    check_rows("subspace", dim)
    alphas, ia, betas, ib = basis_strings(basis)
    grid = len(alphas) * len(betas)
    left = MEMORY_BUDGET_BYTES - solver_bytes(dim)
    if grid > MASKED_GRID_RATIO * dim:
        op, operator = build_sparse_matrix(ham, basis, left), "csr"
    else:
        rows = None if grid == dim else ia * len(betas) + ib
        op = ProductHamiltonian(ham, alphas, betas, rows, left)
        operator = "product" if rows is None else "masked"
    del ia, ib  # not held through the solve
    spec = davidson_lowest(op.__matmul__, op.diagonal())
    if not spec.converged:
        raise ConvergenceError(
            f"Davidson did not converge in {spec.iterations_used} "
            f"iterations (dimension {dim})")
    return SubspaceResult(energy=spec.energy, vector=spec.vector,
                          basis=basis, dimension=dim, diagnostics={
                              "method": "davidson", "operator": operator,
                              "iterations": spec.iterations_used})


def solver_bytes(dim: int) -> int:
    """Bytes a Davidson solve over ``dim`` rows holds apart from its
    operator (estimate): the basis and sigma blocks (2 * ``MAX_SUBSPACE``
    rows), six work vectors (the diagonal, the Ritz vector, its residual,
    the correction and its denominators, and the grid keys of the basis),
    and 48 B for the packed basis and its string indices (41 B at their
    tracemalloc peak on (10,5,5) and (12,6,6) sectors; rounded up)."""
    return dim * (8 * (2 * max(MAX_SUBSPACE, 2) + 6) + 48)


def check_rows(what: str, rows: int) -> None:
    """Refuse ``what`` when no Davidson solve could hold its ``rows``."""
    check_budget(f"{what} of {rows} rows", solver_bytes(rows),
                 MEMORY_BUDGET_BYTES)


def check_product_space(n_orb: int, n_alpha_strings: int,
                        n_beta_strings: int) -> None:
    """Raise :class:`CapacityError` when a solve over the full product of
    the string sets would pass ``MEMORY_BUDGET_BYTES``; call it before the
    basis is built."""
    grid = n_alpha_strings * n_beta_strings
    check_budget(f"product space {n_alpha_strings} x {n_beta_strings}",
                 solver_bytes(grid) + product_operator_bytes(
                     n_orb, n_alpha_strings, n_beta_strings),
                 MEMORY_BUDGET_BYTES)


def fci_ground_state(ham: ActiveSpaceHamiltonian) -> SubspaceResult:
    """Exact ground state over the complete (n_alpha, n_beta) sector.

    Raises :class:`CapacityError`, by :func:`check_product_space` and so
    before the basis is built, when the solve would not fit the budget.
    """
    check_product_space(ham.n_orb, comb(ham.n_orb, ham.n_alpha),
                        comb(ham.n_orb, ham.n_beta))
    return solve_subspace(ham, sector_basis(ham.n_orb, ham.n_alpha,
                                            ham.n_beta))
