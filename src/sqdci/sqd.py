"""Sample-based diagonalization: filtering, recovery, batching, extension.

The self-consistent loop: iteration 1 diagonalizes batches drawn from
the Hamming-valid shots only; later iterations first repair the invalid
shots toward the mean orbital occupations of the previous iteration's
batch eigenstates, then re-draw batches from the combined pool. Each
batch is diagonalized in the alpha x beta product of its distinct
strings. The excitation extension re-diagonalizes each final batch
eigenstate over its singles/doubles-augmented basis. Subspaces are the
packed ``uint64`` bases of :mod:`sqdci.hamiltonian`. A solve is a
deterministic function of its basis, so a batch or extension whose basis
equals one already solved, or the batch it extends, reuses that solution
(:func:`solve_distinct` is the one lookup and solve; ``ext_hci`` shares it).

Recovery works on the distinct packed rows: in each round, every row
still off target draws one multinomial over its candidate bits and
splits into one child per chosen bit. The extension folds its candidate
rows, and the bases the caller includes, into a running merge, so its
memory follows the result, not the candidate count, and the solver's
per-row check refuses the whole union, before every candidate is
expanded, once no solve could hold it. The loop's shape comes from
:class:`RecoveryConfig`; the solver settings are constants of
:mod:`sqdci.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .errors import ConfigError, EmptyValidSampleError
from .hamiltonian import (_BLOCK_CANDIDATES, ActiveSpaceHamiltonian,
                          basis_strings, distinct_strings, merge_blocks,
                          occupation_rows, product_basis)
from .sampler import BitstringCounts
from .solver import check_product_space, check_rows, solve_subspace

# Rows ``recover_configurations`` draws for at once; bounds its temporaries.
_RECOVERY_BLOCK_ROWS = 1 << 13


@dataclass
class RecoveryConfig:
    """Loop shape of the self-consistent recovery protocol."""

    iterations: int = 10
    batches: int = 16
    samples_per_batch: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.batches < 1 or self.samples_per_batch < 1:
            raise ConfigError("iterations, batches, samples_per_batch must be >= 1")


@dataclass
class ExtensionThresholds:
    """Amplitude thresholds for the excitation extension."""

    discard_below: float = 1e-2
    doubles_above: float = 1e-1

    def __post_init__(self):
        if not 0 <= self.discard_below <= self.doubles_above <= 1:
            raise ConfigError("need 0 <= discard_below <= doubles_above <= 1")


@dataclass
class BatchSolution:
    basis: np.ndarray
    vector: np.ndarray
    energy: float
    shot_weight: int
    raw_dimension: int = 0  # distinct sampled determinants, before the product


@dataclass
class SQDResult:
    energy: float
    energy_history: list[float]
    basis: np.ndarray
    dimension: int
    raw_dimension: int
    batches: list[BatchSolution] = field(default_factory=list)
    solves: int = 0  # solve_subspace calls made; the rest reused a solution


def partition_by_hamming(counts: BitstringCounts, n_alpha: int,
                         n_beta: int) -> tuple[BitstringCounts, BitstringCounts]:
    """Split shots into sector-valid and forbidden configurations."""
    if counts.n_qubits % 2:
        raise ConfigError("counts must have an even number of qubits")
    valid = ((np.bitwise_count(counts.alpha) == n_alpha)
             & (np.bitwise_count(counts.beta) == n_beta))
    return counts.take(valid), counts.take(~valid)


def recover_configurations(invalid: BitstringCounts, occupations: np.ndarray,
                           n_alpha: int, n_beta: int,
                           seed: int) -> BitstringCounts:
    """Repair forbidden shots toward the reference orbital occupations.

    Per spin half, alpha then beta: excess set bits are cleared with
    probability proportional to (1 - <n_p> + eps), missing ones are set
    with probability proportional to (<n_p> + eps), one bit after another
    without replacement. The shots of a distinct row draw together: in
    each round, each row off target draws ``Generator.multinomial(count,
    w / w.sum())`` over its candidate bits and splits into one child per
    chosen bit, after the rows on target. Output shots are sector-valid.
    """
    occupations = np.asarray(occupations, dtype=float)
    nq = invalid.n_qubits
    if occupations.shape != (nq,) or not np.all((occupations >= 0)
                                                 & (occupations <= 1)):
        raise ConfigError("occupations must lie in [0, 1], one per qubit")
    n = nq // 2
    if not (0 <= n_alpha <= n and 0 <= n_beta <= nq - n):
        raise ConfigError("electron numbers do not fit the orbitals")
    eps = 1e-6
    gen = rng.stream(seed, "recovery")
    rows = [invalid.alpha, invalid.beta, invalid.count]
    for spin, (occ, target) in enumerate(zip(np.split(occupations, [n]),
                                             (n_alpha, n_beta))):
        bit = np.arange(len(occ), dtype=np.uint64)
        while (off := np.bitwise_count(rows[spin]) != target).any():
            todo = [x[off] for x in rows]
            over = (np.bitwise_count(todo[spin]) > target)[:, None]
            children = []
            for lo in range(0, len(over), _RECOVERY_BLOCK_ROWS):
                block = slice(lo, lo + _RECOVERY_BLOCK_ROWS)
                candidate = (todo[spin][block, None] >> bit & 1) == over[block]
                # Candidates last, in bit order: the last column takes the
                # multinomial's rounding remainder, so it must be one.
                order = np.argsort(candidate, axis=1, kind="stable")
                w = np.take_along_axis(np.where(candidate, np.where(
                    over[block], 1.0 - occ, occ) + eps, 0.0), order, axis=1)
                drawn = gen.multinomial(todo[2][block],
                                        w / np.cumsum(w, axis=1)[:, -1:])
                row, col = np.nonzero(drawn)
                child = [x[block][row] for x in todo]
                child[spin] ^= np.uint64(1) << bit[order[row, col]]
                child[2] = drawn[row, col]
                children.append(child)
            rows = [np.concatenate([x[~off], *kids])
                    for x, kids in zip(rows, zip(*children))]
    return BitstringCounts(nq, *rows)


def build_subspace(samples: BitstringCounts, n_orb: int) -> np.ndarray:
    """Determinant basis of sector-valid samples: the Cartesian product of
    their distinct alpha and beta strings, checked by
    :func:`~sqdci.solver.check_product_space` before it is built."""
    if not len(samples):
        raise ConfigError("empty sample set")
    alphas, betas = distinct_strings(samples.alpha), distinct_strings(samples.beta)
    check_product_space(n_orb, len(alphas), len(betas))
    return product_basis(alphas, betas)


def _eigenvector_occupations(basis, vector, n_orb):
    """Alpha then beta orbital occupations of sum_d |c_d|^2 |d><d|."""
    weights = np.abs(np.asarray(vector)) ** 2
    alphas, ia, betas, ib = basis_strings(basis)
    return np.concatenate([
        np.bincount(index, weights, minlength=len(strings))
        @ occupation_rows(strings, n_orb)
        for strings, index in ((alphas, ia), (betas, ib))])


def _draw_batch(counts: BitstringCounts, size: int,
                gen: np.random.Generator) -> BitstringCounts:
    """Weighted draw without replacement of distinct configurations."""
    if len(counts) <= size:
        return counts
    weights = counts.count.astype(float)
    picks = gen.choice(len(counts), size=size, replace=False,
                       p=weights / weights.sum())
    return counts.take(np.sort(picks))


def solve_distinct(ham: ActiveSpaceHamiltonian, bases, known=()):
    """Solutions of ``bases``, taken one at a time, and the number of
    :func:`solve_subspace` calls: a basis equal row for row to an earlier
    one of the pass, or else to one of ``known``, reuses that solution."""
    solutions, solves = [], 0
    for basis in bases:
        solved = next((s for s in (*solutions, *known)
                       if np.array_equal(s.basis, basis)), None)
        if solved is None:
            solved = solve_subspace(ham, basis)
            solves += 1
        solutions.append(solved)
    return solutions, solves


def sqd_ground_state(ham: ActiveSpaceHamiltonian, counts: BitstringCounts,
                     cfg: RecoveryConfig) -> SQDResult:
    """Run the full recovery/batching/diagonalization loop."""
    if counts.total_shots == 0:
        raise ConfigError("counts are empty")
    if counts.n_qubits != 2 * ham.n_orb:
        raise ConfigError("counts qubit number does not match Hamiltonian")
    counts = counts.take(counts.count > 0)  # a row without shots is no sample
    valid, invalid = partition_by_hamming(counts, ham.n_alpha, ham.n_beta)
    if valid.total_shots == 0:
        raise EmptyValidSampleError(
            "no sampled configuration has the correct Hamming weights")

    history: list[float] = []
    best: BatchSolution | None = None
    solves = 0

    for iteration in range(1, cfg.iterations + 1):
        if iteration == 1 or invalid.total_shots == 0:
            pool = valid
        else:
            # Repair toward the shot-weighted mean occupations of the
            # previous iteration's batch eigenstates.
            total_weight = sum(s.shot_weight for s in batches)
            occupations = np.clip(sum(
                (s.shot_weight / total_weight)
                * _eigenvector_occupations(s.basis, s.vector, ham.n_orb)
                for s in batches), 0.0, 1.0)
            recovered = recover_configurations(
                invalid, occupations, ham.n_alpha, ham.n_beta,
                seed=rng.stream(cfg.seed, "recover-seed", iteration)
                .integers(2**63))
            pool = BitstringCounts(
                counts.n_qubits,
                np.concatenate([valid.alpha, recovered.alpha]),
                np.concatenate([valid.beta, recovered.beta]),
                np.concatenate([valid.count, recovered.count]))

        # Saturated samples close many batches to one space. Lookups see this
        # iteration's solutions and the running best; the previous iteration's
        # are dropped first (16 bases and vectors of 10^6 rows hold 384 MB).
        batches, drawn = [], []  # drawn: (shots, rows), one per basis taken

        def closures():
            for b in range(cfg.batches):
                batch = _draw_batch(pool, cfg.samples_per_batch,
                                    rng.stream(cfg.seed, "batch", iteration, b))
                drawn.append((batch.total_shots, len(batch)))
                yield build_subspace(batch, ham.n_orb)

        batches, count = solve_distinct(ham, closures(),
                                        () if best is None else (best,))
        solves += count
        batches = [BatchSolution(s.basis, s.vector, s.energy, *d)
                   for s, d in zip(batches, drawn)]
        best = min(batches, key=lambda s: s.energy)
        history.append(best.energy)

    return SQDResult(energy=best.energy, energy_history=history,
                     basis=best.basis, dimension=len(best.basis),
                     raw_dimension=best.raw_dimension, batches=batches,
                     solves=solves)


def extend_subspace(eigenvector: np.ndarray, basis: np.ndarray,
                    thresholds: ExtensionThresholds, n_orb: int,
                    *include: np.ndarray) -> np.ndarray:
    """Excitation extension of a subspace eigenstate, with the ``include``
    bases, as one basis.

    Keeps configurations with |amplitude| >= discard_below, adds all
    their single excitations, and all double excitations of those with
    |amplitude| > doubles_above; the result stays in the particle-number
    sector. A move XORs a string with a mask: a 2-bit mask is a single
    where the string holds one of its bits, a 4-bit mask a same-spin double
    where it holds two; alpha-beta doubles are the beta singles of the
    alpha singles. Rows are expanded in chunks of about
    ``_BLOCK_CANDIDATES`` mask tests, and the candidates, the ``include``
    bases among them, go through the running merge of :func:`merge_blocks`.
    Raises :class:`CapacityError`, by :func:`check_rows`, once the union
    passes the rows that any solve could hold.
    """
    eigenvector = np.abs(np.asarray(eigenvector))
    if len(eigenvector) != len(basis):
        raise ConfigError("eigenvector/basis dimension mismatch")
    bit = np.uint64(1) << np.arange(n_orb, dtype=np.uint64)
    low, high = np.triu_indices(n_orb, 1)
    pairs = bit[low] | bit[high]
    quads = (pairs[:, None] | pairs)[high[:, None] < low]

    def moves(rows, masks, electrons, spin):
        """Rows one move from ``rows`` in their ``spin`` string, one per
        mask that holds ``electrons`` of its bits; in chunks of rows."""
        step = max(1, _BLOCK_CANDIDATES // max(1, len(masks)))
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            row, col = np.nonzero(np.bitwise_count(
                block[:, spin, None] & masks) == electrons)
            moved = block[row]
            moved[:, spin] ^= masks[col]
            yield moved

    def candidates():
        yield from include
        yield kept
        for spin in (0, 1):
            yield from moves(kept, pairs, 1, spin)
            yield from moves(doubles, quads, 2, spin)
        # Alpha-beta doubles: the beta singles of the alpha singles.
        yield from moves(np.concatenate([kept[:0],
                                         *moves(doubles, pairs, 1, 0)]),
                         pairs, 1, 1)

    kept = basis[eigenvector >= thresholds.discard_below]
    doubles = basis[eigenvector > thresholds.doubles_above]
    return merge_blocks(candidates(), "extended space", check_rows)


def ext_sqd(ham: ActiveSpaceHamiltonian, prior: SQDResult,
            thresholds: ExtensionThresholds | None = None) -> SQDResult:
    """Excitation-extended re-diagonalization of the final SQD batches.

    Each batch eigenstate is extended independently (single iteration,
    no recovery); every extension includes the batch's and the prior
    winning basis, so the best extended energy cannot exceed the prior
    energy. An extension equal to one solved before in the pass, or to a
    batch of ``prior``, reuses that solution and holds no copy of it.
    """
    if not prior.batches:
        raise ConfigError("prior result carries no batch eigenstates")
    thresholds = thresholds or ExtensionThresholds()
    solved, solves = solve_distinct(ham, (
        extend_subspace(batch.vector, batch.basis, thresholds, ham.n_orb,
                        batch.basis, prior.basis)
        for batch in prior.batches), prior.batches)
    solutions = [BatchSolution(s.basis, s.vector, s.energy, batch.shot_weight)
                 for s, batch in zip(solved, prior.batches)]
    best = min(solutions, key=lambda s: s.energy)
    return SQDResult(energy=best.energy, energy_history=[best.energy],
                     basis=best.basis, dimension=len(best.basis),
                     raw_dimension=len(best.basis), batches=solutions,
                     solves=solves)
