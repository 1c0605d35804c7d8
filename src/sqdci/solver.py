"""Eigensolvers for projected Hamiltonians.

``davidson_lowest`` is a block Davidson with diagonal preconditioning
and a GD+k thick restart; ``dense_eigensolve`` is the direct
oracle/fallback.
``solve_subspace`` picks between them by dimension and is the single
entry point used by the SQD and HCI drivers. Both paths use numpy's
LAPACK ``eigh``. Bases are packed rows as :mod:`sqdci.hamiltonian` defines
them, and vectors are in basis order. Davidson multiplies by the matrix-free
:class:`~sqdci.hamiltonian.ProductHamiltonian` when the basis is the full
product of its alpha and beta strings (SQD closures, the FCI sector),
and by the builder's numpy CSR matrix otherwise (HCI, the extension,
``closure=0``). A product solve's memory is estimated up front by
:func:`product_solve_bytes` and capped at ``MEMORY_BUDGET_BYTES``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb

import numpy as np

from . import rng
from .errors import CapacityError, ConfigError, ConvergenceError
from .hamiltonian import (ActiveSpaceHamiltonian, ProductHamiltonian,
                          basis_strings, build_sparse_matrix, sector_basis,
                          sigma_block_rows)

DENSE_THRESHOLD = 512
# Memory a product-space solve may plan for; see product_solve_bytes.
MEMORY_BUDGET_BYTES = 4 << 30
# The packed basis rows and the index arrays of the product check: 41 B
# at their tracemalloc peak on (10,5,5) and (12,6,6) sectors; rounded up.
BASIS_BYTES_PER_DETERMINANT = 48


@dataclass
class DavidsonOptions:
    n_roots: int = 1
    residual_tol: float = 1e-8
    max_iterations: int = 300
    max_subspace: int = 0  # 0 -> max(20, 4 * n_roots)
    seed: int = 0

    def __post_init__(self):
        if self.n_roots < 1:
            raise ConfigError("n_roots must be >= 1")
        if self.residual_tol <= 0:
            raise ConfigError("residual_tol must be positive")
        if self.max_subspace == 0:
            self.max_subspace = max(20, 4 * self.n_roots)
        if self.max_subspace < 2 * self.n_roots:
            raise ConfigError("max_subspace must be >= 2 * n_roots")


@dataclass
class SpectrumResult:
    energies: list[float]
    vectors: list[np.ndarray]
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
    """Full spectrum of a symmetric real matrix (direct method).

    The vectors are views into one eigenvector matrix; a caller that keeps
    one copies it.
    """
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
    return SpectrumResult(energies=evals.tolist(), vectors=list(evecs.T),
                          iterations_used=1, converged=True)


def _orthonormal_rows(block: np.ndarray, against: np.ndarray) -> np.ndarray:
    """Rows of ``block`` orthonormalised against the orthonormal rows of
    ``against`` and each other by two block projections (CGS2).

    A row whose remainder has norm at most 1e-10 is dropped.
    """
    out = np.empty_like(block)
    size = 0
    for v in block:
        for _ in range(2):
            v = v - (against @ v) @ against
            if size:
                v -= (out[:size] @ v) @ out[:size]
        norm = np.sqrt(v @ v)
        if norm > 1e-10:
            out[size] = v / norm
            size += 1
    return out[:size]


def davidson_lowest(matvec, diagonal, opts: DavidsonOptions) -> SpectrumResult:
    """Lowest eigenpairs of a symmetric operator given its matvec.

    Generalized Davidson with diagonal preconditioning and a GD+k thick
    restart (Stathopoulos, SIAM J. Sci. Comput. 29, 481 (2007)). The
    basis V and its image W = HV live in preallocated blocks of
    ``max_subspace`` rows. Each new vector is orthonormalised by CGS2,
    multiplied once, and adds one row and column to the Rayleigh matrix
    V W^T. When the blocks are full, the restart keeps the current Ritz
    vectors and, room permitting, the previous iteration's, orthonormalised
    in the coefficient space of V; V, W and the Rayleigh matrix are rotated
    by that coefficient block, so no vector is multiplied twice.

    Deterministic for a fixed seed: initial guesses are unit vectors on
    the lowest diagonal entries (ties by index), and random vectors are
    used only to replace numerically degenerate corrections.
    """
    diagonal = np.asarray(diagonal, dtype=float)
    dim = len(diagonal)
    k = opts.n_roots
    if dim < k:
        raise ConfigError("operator dimension smaller than n_roots")

    gen = rng.stream(opts.seed, "davidson")
    cap = min(opts.max_subspace, dim)
    basis = np.empty((cap, dim))
    sigma = np.empty((cap, dim))
    rayleigh = np.empty((cap, cap))

    def append(block, size):
        """Add orthonormal ``block`` rows after the first ``size``; new size."""
        end = size + len(block)
        basis[size:end] = block
        for j in range(size, end):
            sigma[j] = matvec(basis[j])
        cross = 0.5 * (basis[:end] @ sigma[size:end].T
                       + sigma[:end] @ basis[size:end].T)
        rayleigh[:end, size:end] = cross
        rayleigh[size:end, :end] = cross.T
        return end

    start = np.zeros((k, dim))
    start[np.arange(k), np.argsort(diagonal, kind="stable")[:k]] = 1.0
    size = append(start, 0)
    ritz = start
    previous = np.zeros((k, 0))  # last iteration's Ritz coefficients
    converged = False
    iterations = 0

    for iterations in range(1, opts.max_iterations + 1):
        evals, evecs = np.linalg.eigh(rayleigh[:size, :size])
        theta, coef = evals[:k], evecs[:, :k].T
        ritz = coef @ basis[:size]
        residuals = coef @ sigma[:size] - theta[:, None] * ritz
        norms = np.linalg.norm(residuals, axis=1)
        _check_finite([theta, ritz, norms])
        if np.all(norms < opts.residual_tol):
            converged = True
            break

        todo = norms >= opts.residual_tol
        denom = diagonal - theta[todo, None]
        denom = np.where(np.abs(denom) < 1e-8,
                         np.copysign(1e-8, denom + 1e-300), denom)
        block = _orthonormal_rows(residuals[todo] / denom, basis[:size])
        if len(block) == 0:
            # Correction space collapsed: expand with a seeded random vector.
            block = _orthonormal_rows(gen.standard_normal((1, dim)),
                                      basis[:size])
            if len(block) == 0:
                break
        if size + len(block) > cap:
            # GD+k restart; k + len(block) <= cap leaves room for the Ritz
            # vectors and the block.
            padded = np.zeros((k, size))
            padded[:, :previous.shape[1]] = previous
            keep = np.vstack([coef, _orthonormal_rows(padded, coef)
                              [:cap - k - len(block)]])
            basis[:len(keep)] = keep @ basis[:size]
            sigma[:len(keep)] = keep @ sigma[:size]
            small = keep @ rayleigh[:size, :size] @ keep.T
            coef = coef @ keep.T
            size = len(keep)
            rayleigh[:size, :size] = 0.5 * (small + small.T)
        previous = coef
        size = append(block, size)

    # Post-hoc residual verification, independent of internal bookkeeping.
    vectors = []
    energies = []
    verified = True
    for v in ritz:
        v = v / np.linalg.norm(v)
        hv = matvec(v)
        e = float(v @ hv)
        if np.linalg.norm(hv - e * v) >= opts.residual_tol:
            verified = False
        energies.append(e)
        vectors.append(v)
    order = np.argsort(energies, kind="stable")
    energies = [energies[i] for i in order]
    vectors = [vectors[i] for i in order]
    _check_finite(vectors)
    return SpectrumResult(energies=energies, vectors=vectors,
                          iterations_used=iterations,
                          converged=bool(converged and verified))


def _product_operator(ham: ActiveSpaceHamiltonian, basis: np.ndarray,
                      max_subspace: int) -> ProductHamiltonian | None:
    """Matrix-free operator when ``basis`` is the full product of its
    distinct alpha and beta strings, else ``None``."""
    alphas, _, betas, _ = basis_strings(basis)
    if len(basis) != len(alphas) * len(betas):
        return None
    _check_product_memory(ham.n_orb, len(alphas), len(betas), max_subspace)
    return ProductHamiltonian(ham, alphas, betas)


def solve_subspace(ham: ActiveSpaceHamiltonian, basis: np.ndarray,
                   opts: DavidsonOptions | None = None) -> SubspaceResult:
    """Ground state of H projected onto ``basis``.

    Below ``DENSE_THRESHOLD`` the CSR matrix is diagonalized directly.
    Above it, Davidson runs on the matrix-free :class:`ProductHamiltonian`
    when ``basis`` is the full product of its strings, and on the CSR
    matrix otherwise. Raises :class:`ConfigError` for an empty, unsorted
    or repeated basis and :class:`ConvergenceError` when Davidson does not
    reach ``opts.residual_tol``.
    """
    if not len(basis):
        raise ConfigError("empty determinant basis")
    opts = opts or DavidsonOptions()
    dim = len(basis)
    if dim < DENSE_THRESHOLD:
        spec = dense_eigensolve(build_sparse_matrix(ham, basis).toarray())
        # A copy, so the result does not hold the whole eigenvector matrix.
        return SubspaceResult(energy=spec.energies[0],
                              vector=spec.vectors[0].copy(),
                              basis=basis, dimension=dim,
                              diagnostics={"method": "dense", "operator": "csr"})

    op = (_product_operator(ham, basis, opts.max_subspace)
          or build_sparse_matrix(ham, basis))
    operator = "product" if isinstance(op, ProductHamiltonian) else "csr"
    spec = davidson_lowest(op.__matmul__, op.diagonal(), opts)
    if not spec.converged:
        raise ConvergenceError(
            f"Davidson did not converge in {spec.iterations_used} "
            f"iterations (dimension {dim})")
    return SubspaceResult(energy=spec.energies[0], vector=spec.vectors[0],
                          basis=basis, dimension=dim,
                          diagnostics={"method": "davidson",
                                       "iterations": spec.iterations_used,
                                       "converged": spec.converged,
                                       "operator": operator})


def product_solve_bytes(n_orb: int, n_alpha_strings: int, n_beta_strings: int,
                        max_subspace: int) -> int:
    """Bytes a Davidson solve on a product space holds at its peak (estimate).

    Per determinant: the preallocated Davidson basis and sigma blocks
    (2 * ``max_subspace`` vectors), eight work vectors (the diagonal, the
    Ritz vector, its residual, the correction and its denominators, the
    sigma output and its product temporary, the grid keys), and the
    packed basis. Per space: the dense string matrices, the
    pair-integral block, and the D, F and gather buffers of one block.
    """
    dim = n_alpha_strings * n_beta_strings
    n_pairs = n_orb * (n_orb + 1) // 2
    block = n_pairs * n_beta_strings * sigma_block_rows(
        n_orb, n_alpha_strings, n_beta_strings)
    floats = (dim * (2 * max_subspace + 8) + n_alpha_strings ** 2
              + n_beta_strings ** 2 + n_pairs ** 2 + 3 * block)
    return 8 * floats + BASIS_BYTES_PER_DETERMINANT * dim


def _check_product_memory(n_orb: int, n_alpha_strings: int,
                          n_beta_strings: int, max_subspace: int) -> None:
    """Raise :class:`CapacityError` when a product solve would not fit."""
    need = product_solve_bytes(n_orb, n_alpha_strings, n_beta_strings,
                               max_subspace)
    if need > MEMORY_BUDGET_BYTES:
        raise CapacityError(
            f"product space {n_alpha_strings} x {n_beta_strings} needs about "
            f"{need / 2**30:.1f} GiB, over the {MEMORY_BUDGET_BYTES / 2**30:.1f} "
            f"GiB budget")


def fci_ground_state(ham: ActiveSpaceHamiltonian,
                     opts: DavidsonOptions | None = None) -> SubspaceResult:
    """Exact ground state over the complete (n_alpha, n_beta) sector.

    Raises :class:`CapacityError`, before building the basis, when the
    product solve would exceed ``MEMORY_BUDGET_BYTES``.
    """
    opts = opts or DavidsonOptions()
    _check_product_memory(ham.n_orb, comb(ham.n_orb, ham.n_alpha),
                          comb(ham.n_orb, ham.n_beta), opts.max_subspace)
    basis = sector_basis(ham.n_orb, ham.n_alpha, ham.n_beta)
    result = solve_subspace(ham, basis, opts)
    result.diagnostics["fci"] = True
    return result
