"""Exact LUCJ-style state preparation and bitstring sampling.

The statevector is simulated in the fixed (n_alpha, n_beta) sector, as an
n_alpha_strings x n_beta_strings complex grid over the sorted alpha and
beta strings; flattened, the grid is in ``sector_basis`` row order. An
orbital-rotation layer is held as its orthogonal matrix U and acts on each
spin alone. U is decomposed into a diagonal of signs and adjacent
two-level Givens rotations: the signs multiply whole rows (alpha) or
columns (beta) by popcount parities, and a rotation in the plane
(p, p+1) pairs each string that has p+1 set and p clear with its
partner, found by ``searchsorted``, and rotates the two rows (columns)
at once. The density-density layer exp(iJ) is a phase grid, an outer sum
of per-spin terms plus one alpha-beta matrix product. Both conserve
particle number exactly, so the state never leaves the sector.
:func:`sample_counts` draws the multinomial over the flattened grid and
splits each hit into its (alpha, beta) string indices. Readout noise draws
only the flipped bits, by geometric gaps, and sorts only the moved shots.

Bitstring layout: bit 0 is leftmost; bits [0, n) hold the alpha orbital
occupations and bits [n, 2n) the beta occupations. Shots are held packed
as uint64 alpha and beta strings with int64 counts (``BitstringCounts``),
whose one constructor takes those arrays and merges repeated rows.
Bitstrings as text appear only at the counts-file boundary:
:func:`read_counts` is the one place that checks them, line by line, and
packs them all at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, solver
from .errors import CapacityError, ConfigError, check_budget
from .hamiltonian import (MAX_ORBITALS_PER_SPIN, occupation_rows,
                          sector_dimension, sector_strings)

# Bytes per sector determinant that lucj_state and sample_counts hold at
# their peak: the grid, the two spin-pass copies of apply_orbital_rotation
# and its row temporaries, or the phase grid, or the probabilities and
# draws of the multinomial. 49-55 B at the tracemalloc peak on (10,5,5),
# (10,5,4) and (12,6,6) sectors with one CCSD mode; rounded up.
STATE_BYTES_PER_DETERMINANT = 64

# Gaps ``_flips`` draws at once, so noise memory does not grow with shots.
_NOISE_GAP_CHUNK = 1 << 13


def _half_widths(n_qubits: int) -> tuple[int, int]:
    """Characters of a bitstring that hold the alpha and the beta string."""
    if n_qubits < 0:
        raise ConfigError(f"n_qubits must be nonnegative, got {n_qubits}")
    n_alpha_bits = n_qubits // 2
    if n_qubits - n_alpha_bits > MAX_ORBITALS_PER_SPIN:
        raise CapacityError(f"n_qubits={n_qubits} exceeds "
                            f"{MAX_ORBITALS_PER_SPIN} orbitals per spin")
    return n_alpha_bits, n_qubits - n_alpha_bits


def pack_bits(rows: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """uint64 alpha and beta strings of an (m, ``n_qubits``) 0/1 array.

    Bit i of a string is column i of its half of the row, the layout of a
    basis row (see :mod:`sqdci.hamiltonian`).
    """
    width, _ = _half_widths(n_qubits)
    rows = np.asarray(rows, dtype=bool)
    strings = []
    for half in (rows[:, :width], rows[:, width:]):
        packed = np.packbits(half, axis=1, bitorder="little")
        words = np.zeros((len(rows), 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        strings.append(words.view("<u8").ravel().astype(np.uint64))
    return strings[0], strings[1]


def unpack_bits(alpha: np.ndarray, beta: np.ndarray,
                n_qubits: int) -> np.ndarray:
    """0/1 uint8 rows of ``n_qubits`` columns; inverse of :func:`pack_bits`."""
    width, beta_width = _half_widths(n_qubits)
    halves = []
    for strings, cols in ((alpha, width), (beta, beta_width)):
        words = np.ascontiguousarray(strings, dtype="<u8").view(np.uint8)
        words = words.reshape(-1, 8)
        halves.append(np.unpackbits(words, axis=1, count=cols,
                                    bitorder="little"))
    return np.concatenate(halves, axis=1)


def _bit_reversed(strings: np.ndarray) -> np.ndarray:
    """Each uint64 with its 64 bits in reverse order."""
    x = strings
    for shift, mask in ((1, 0x5555555555555555), (2, 0x3333333333333333),
                        (4, 0x0F0F0F0F0F0F0F0F)):
        x = ((x >> shift) & mask) | ((x & mask) << shift)
    return x.byteswap()


class BitstringCounts:
    """Multiset of sampled bitstrings with shot counts, packed per spin.

    Row r is one distinct configuration: spin strings ``alpha[r]`` and
    ``beta[r]`` (uint64, laid out as by :func:`pack_bits`), seen
    ``count[r]`` times. The constructor sorts the rows into
    sorted-bitstring order, the order in which the readout noise and the
    batch draws visit them, and merges repeated rows by adding their
    counts. It checks no count: :func:`read_counts` does, and the shot
    layers make none below zero. ``entries`` is the same multiset as a
    ``{bitstring: count}`` dict.
    """

    def __init__(self, n_qubits: int, alpha: np.ndarray, beta: np.ndarray,
                 count: np.ndarray):
        _half_widths(n_qubits)
        alpha = np.asarray(alpha, dtype=np.uint64)
        beta = np.asarray(beta, dtype=np.uint64)
        count = np.asarray(count, dtype=np.int64)
        order = np.lexsort((_bit_reversed(beta), _bit_reversed(alpha)))
        alpha, beta, count = alpha[order], beta[order], count[order]
        first = np.ones(len(alpha), dtype=bool)
        first[1:] = (alpha[1:] != alpha[:-1]) | (beta[1:] != beta[:-1])
        starts = np.flatnonzero(first)
        self.n_qubits = n_qubits
        self.alpha, self.beta = alpha[starts], beta[starts]
        self.count = (np.add.reduceat(count, starts) if len(starts)
                      else count[:0])

    def __len__(self) -> int:
        return len(self.count)

    @property
    def entries(self) -> dict[str, int]:
        rows = unpack_bits(self.alpha, self.beta, self.n_qubits) + ord("0")
        text = rows.tobytes().decode("ascii")
        nq = self.n_qubits
        return {text[r * nq:(r + 1) * nq]: c
                for r, c in enumerate(self.count.tolist())}

    @property
    def total_shots(self) -> int:
        return int(self.count.sum())

    def take(self, rows) -> "BitstringCounts":
        """The counts of the selected rows (a mask or ascending row indices),
        which are still sorted and distinct, so they skip the constructor."""
        counts = BitstringCounts.__new__(BitstringCounts)
        counts.n_qubits = self.n_qubits
        counts.alpha, counts.beta = self.alpha[rows], self.beta[rows]
        counts.count = self.count[rows]
        return counts


def _orthogonal(rotation, what: str) -> np.ndarray:
    """``rotation`` as a float array; :class:`ConfigError` unless it is a
    square matrix U with max |U U^T - 1| <= 1e-10, which a nan fails."""
    U = np.asarray(rotation, dtype=float)
    if (U.ndim != 2 or U.shape[0] != U.shape[1]
            or not abs(U @ U.T - np.eye(len(U))).max(initial=0) <= 1e-10):
        raise ConfigError(f"{what} is not an orthogonal matrix")
    return U


@dataclass
class LUCJParams:
    """Layered cluster-Jastrow circuit parameters.

    Each layer is a pair (U, J): U is a real orthogonal n x n orbital
    rotation applied identically to both spins, J is a real symmetric
    2n x 2n density-density coupling over spin-orbitals (None means no
    phase layer, as in a trailing rotation alone). Rotations are held as
    matrices, not generators, as in ffsim's UCJ operators, so any
    orthogonal U is valid, half turns and reflections included.
    """

    layers: list

    def __post_init__(self):
        checked = []
        for U, J in self.layers:
            U = _orthogonal(U, "layer rotation")
            if J is not None:
                J = np.asarray(J, dtype=float)
                if J.shape != (2 * len(U),) * 2:
                    raise ConfigError("J must be 2n x 2n over spin-orbitals")
                if not abs(J - J.T).max(initial=0) <= 1e-12:  # so nan fails
                    raise ConfigError("J coupling is not symmetric")
            checked.append((U, J))
        self.layers = checked


@dataclass
class SectorState:
    """Amplitudes over the canonical sector determinant basis (sampling
    normalizes them)."""

    n_orb: int
    n_alpha: int
    n_beta: int
    amplitudes: np.ndarray


def _givens_decompose(unitary: np.ndarray):
    """QR-style elimination of an orthogonal U into adjacent-plane rotations.

    Returns (rotations, diagonal_signs) with G_m ... G_1 U = diag(signs),
    each rotation a tuple (upper_row, angle) acting in the plane
    (upper_row, upper_row + 1).
    """
    mat = np.array(unitary, dtype=float)
    n = mat.shape[0]
    rotations = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            if abs(mat[row, col]) < 1e-15:
                continue
            theta = np.arctan2(mat[row, col], mat[row - 1, col])
            c, s = np.cos(theta), np.sin(theta)
            upper = c * mat[row - 1] + s * mat[row]
            lower = -s * mat[row - 1] + c * mat[row]
            mat[row - 1], mat[row] = upper, lower
            rotations.append((row - 1, theta))
    signs = np.sign(np.diag(mat))
    return rotations, signs


def state_preparation_bytes(n_orb: int, n_alpha: int, n_beta: int) -> int:
    """Bytes :func:`lucj_state` and :func:`sample_counts` hold at their peak
    on the (n_alpha, n_beta) sector (estimate)."""
    return STATE_BYTES_PER_DETERMINANT * sector_dimension(n_orb, n_alpha,
                                                          n_beta)


def _rotate_spin(rows: np.ndarray, strings: np.ndarray, rotations,
                 negated: int) -> None:
    """Apply one spin's factor of U in place to ``rows``, one row per
    string of ``strings``: first the signs of the orbitals in the bitmask
    ``negated``, then the Givens rotations in reverse with negated angles."""
    if negated:
        odd = np.bitwise_count(strings & np.uint64(negated)) & 1
        rows[odd.astype(bool)] *= -1.0
    for orbital, theta in reversed(rotations):
        low, high = np.uint64(1 << orbital), np.uint64(2 << orbital)
        # Each pair is acted on once, from the string with the upper
        # orbital occupied and the lower one empty. Adjacent orbitals: no
        # occupied orbital lies strictly between, so the parity is +1.
        i = np.flatnonzero(((strings & high) != 0) & ((strings & low) == 0))
        j = np.searchsorted(strings, strings[i] ^ (low | high))
        c, s = np.cos(-theta), np.sin(-theta)
        upper, lower = rows[i], rows[j]
        rows[i] = c * upper - s * lower
        rows[j] = s * upper + c * lower


def apply_orbital_rotation(grid: np.ndarray, alphas: np.ndarray,
                           betas: np.ndarray,
                           rotation: np.ndarray) -> np.ndarray:
    """The orthogonal orbital rotation U (the same on both spins) applied
    to an amplitude grid over the sorted strings ``alphas`` (rows) and
    ``betas`` (columns).

    U = G_1^T ... G_m^T D factors as U_alpha (x) U_beta, so each spin is
    rotated alone: the beta pass on a transposed copy, whose rows are then
    contiguous, and the alpha pass on its transpose. Returns a new grid.
    """
    rotations, signs = _givens_decompose(_orthogonal(rotation, "rotation"))
    negated = sum(1 << p for p in np.flatnonzero(signs < 0).tolist())
    swapped = np.array(np.asarray(grid).T, dtype=complex, order="C")
    _rotate_spin(swapped, betas, rotations, negated)
    grid = np.array(swapped.T, order="C")
    del swapped  # before the alpha pass: state_preparation_bytes counts on it
    _rotate_spin(grid, alphas, rotations, negated)
    return grid


def _density_phases(J: np.ndarray, alphas: np.ndarray, betas: np.ndarray,
                    n_orb: int) -> np.ndarray:
    """Grid of sum_{p sigma, r tau} J[p sigma, r tau] n_{p sigma} n_{r tau}:
    oa Jaa oa + ob Jbb ob + oa (Jab + Jba^T) ob over the string occupations."""
    oa, ob = occupation_rows(alphas, n_orb), occupation_rows(betas, n_orb)
    same_alpha = np.einsum("ap,pq,aq->a", oa, J[:n_orb, :n_orb], oa)
    same_beta = np.einsum("bp,pq,bq->b", ob, J[n_orb:, n_orb:], ob)
    cross = oa @ (J[:n_orb, n_orb:] + J[n_orb:, :n_orb].T) @ ob.T
    cross += same_alpha[:, None]
    cross += same_beta
    return cross


def lucj_state(params: LUCJParams, n_orb: int, n_alpha: int,
               n_beta: int) -> SectorState:
    """Exact sector statevector of the layered cluster-Jastrow circuit.

    Starting from the RHF determinant, each layer in turn applies its
    orbital rotation U then, unless J is None, the diagonal phase
    exp(i sum_{p sigma, r tau} J n n). The result has unit norm; a norm
    that drifted, or is nan, raises ``ArithmeticError``.
    Raises :class:`CapacityError`, before allocating, when
    :func:`state_preparation_bytes` exceeds ``solver.MEMORY_BUDGET_BYTES``.
    """
    if any(U.shape != (n_orb, n_orb) for U, _ in params.layers):
        raise ConfigError("orbital rotation has wrong shape")
    check_budget(f"sector ({n_orb}, {n_alpha}, {n_beta}) state preparation",
                 state_preparation_bytes(n_orb, n_alpha, n_beta),
                 solver.MEMORY_BUDGET_BYTES)
    alphas, betas = sector_strings(n_orb, n_alpha), sector_strings(n_orb, n_beta)
    grid = np.zeros((len(alphas), len(betas)), dtype=complex)
    # The lowest filling is the smallest string of each spin.
    grid[0, 0] = 1.0
    for U, J in params.layers:
        grid = apply_orbital_rotation(grid, alphas, betas, U)
        if J is not None and np.any(J):
            grid *= np.exp(1j * _density_phases(J, alphas, betas, n_orb))
    amps = grid.ravel()
    norm = np.linalg.norm(amps)
    if not abs(norm - 1.0) <= 1e-10:
        raise ArithmeticError(f"state norm drifted to {norm}")
    return SectorState(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_beta,
                       amplitudes=amps)


def sample_counts(state: SectorState, shots: int, seed: int) -> BitstringCounts:
    """Multinomial sampling of |amplitude|^2 with a seeded Philox stream.

    Amplitude i is grid entry (i // n_beta_strings, i % n_beta_strings),
    so each hit reads its packed strings straight from the sorted strings.
    """
    if shots <= 0:
        raise ConfigError("shots must be positive")
    _half_widths(2 * state.n_orb)
    if len(state.amplitudes) != sector_dimension(state.n_orb, state.n_alpha,
                                                 state.n_beta):
        raise ConfigError("amplitudes have the wrong sector dimension")
    probs = np.abs(state.amplitudes) ** 2
    probs = probs / probs.sum()
    gen = rng.stream(seed, "sample")
    draws = gen.multinomial(shots, probs)
    hit = np.flatnonzero(draws)
    betas = sector_strings(state.n_orb, state.n_beta)
    ia, ib = np.divmod(hit, len(betas))
    return BitstringCounts(
        2 * state.n_orb, sector_strings(state.n_orb, state.n_alpha)[ia],
        betas[ib], draws[hit])


def apply_readout_noise(counts: BitstringCounts, flip_probability: float,
                        seed: int) -> BitstringCounts:
    """Flip each bit of each shot independently with ``flip_probability``.

    Only the flipped bits are drawn, by :func:`_flips`. A shot with a flip
    gets a mask per spin, the ``uint64`` sum of its distinct bit weights,
    and is sorted into the result; the others stay in their row's count.
    Rows left with no shots are dropped.
    """
    p = flip_probability
    if not 0.0 <= p <= 1.0:
        raise ConfigError("flip probability must be in [0, 1]")
    nq = counts.n_qubits
    if p == 0.0 or nq == 0:  # no bit can flip
        return counts
    width, _ = _half_widths(nq)
    column = np.arange(nq, dtype=np.uint64)
    alpha_weight = np.where(column < width, np.uint64(1) << column, 0)
    beta_weight = np.where(column < width, 0, np.uint64(1) << column - width)
    stayed = counts.count.copy()
    alphas, betas = [counts.alpha], [counts.beta]
    for moved, first, bits in _flips(counts.count, nq, p,
                                     rng.stream(seed, "readout-noise")):
        stayed -= np.bincount(moved, minlength=len(counts))
        alphas.append(counts.alpha[moved]
                      ^ np.add.reduceat(alpha_weight[bits], first))
        betas.append(counts.beta[moved]
                     ^ np.add.reduceat(beta_weight[bits], first))
    alpha = np.concatenate(alphas)
    noisy = BitstringCounts(
        nq, alpha, np.concatenate(betas),
        np.concatenate([stayed, np.ones(len(alpha) - len(counts),
                                        dtype=np.int64)]))
    return noisy.take(noisy.count > 0)


def _flips(count: np.ndarray, n_qubits: int, p: float, gen):
    """Walk the (shot, bit) cells of ``count`` in row, shot and bit order,
    each flip ``gen.geometric(p)`` cells after the last, and yield (row of
    each flipped shot, index of its first flip, flipped bits) per chunk of
    gaps, whole shots only; shots x ``n_qubits`` may pass 2^63."""
    total, ends = int(count.sum()), np.cumsum(count)
    shot, bit = 0, -1  # the last flip
    held = np.zeros((2, 0), np.int64)  # the flips of a shot left open
    walking = True
    while walking:
        whole, part = np.divmod(gen.geometric(p, _NOISE_GAP_CHUNK), n_qubits)
        carry, bits = np.divmod(bit + np.cumsum(part), n_qubits)
        # Exact in uint64 up to the first shot past the end: the shot
        # before it is below 2^63 and no gap adds 2^63 shots.
        shots = (shot + np.cumsum(whole.astype(np.uint64))
                 + carry.astype(np.uint64))
        inside = ~np.logical_or.accumulate(shots >= total)
        cells = np.concatenate(
            [held, [shots[inside].astype(np.int64), bits[inside]]], axis=1)
        walking, keep = inside[-1], cells.shape[1]
        if walking:
            shot, bit = cells[:, -1].tolist()
            keep = np.searchsorted(cells[0], shot)
        held, (shots, bits) = cells[:, keep:], cells[:, :keep]
        first = np.flatnonzero(np.diff(shots, prepend=-1))
        yield np.searchsorted(ends, shots[first], side="right"), first, bits


def lucj_params_from_ccsd(t1: np.ndarray | None, t2: np.ndarray,
                          n_layers: int) -> LUCJParams:
    """Derive layer parameters from coupled-cluster amplitudes.

    The doubles tensor is matricized as M[(i,a),(j,b)] = t2[i,j,a,b] and
    eigendecomposed; each of the ``n_layers`` largest-|eigenvalue| modes
    has its reshaped eigenvector completed to a symmetric n x n matrix,
    whose orthogonal eigenvector matrix V diagonalizes the mode, and a
    rank-one density-density coupling weighted by the eigenvalue. Singles
    give the last layer, exp(K) of the t1 generator K, with no phase.

    Each retained mode expands to a conjugated pair of layers
    (V^T then the phase, then V). With every mode kept, their first-order
    action on the reference is 2i T2|RHF>, T2 the doubles operator of t2:
    twice the amplitudes, times i (ROADMAP item 19). V is used as eigh
    returns it: a determinant of -1 or a half turn needs no special case.
    Zero doubles give no layer; otherwise more layers than modes are
    refused, as are amplitudes not finite and real, or big enough to
    overflow a phase.
    """
    if n_layers < 0:
        raise ConfigError(f"n_layers must be nonnegative, got {n_layers}")
    t2 = _real_amplitudes(t2, "t2")
    if t2.ndim != 4:
        raise ConfigError("t2 must have shape (occ, occ, virt, virt)")
    nocc, nocc2, nvirt, nvirt2 = t2.shape
    if nocc != nocc2 or nvirt != nvirt2:
        raise ConfigError("t2 must have shape (occ, occ, virt, virt)")
    if not (nocc and nvirt):
        raise ConfigError("t2 needs at least one occupied and one virtual orbital")
    with np.errstate(over="ignore"):  # an overflowing difference is inf
        if np.max(np.abs(t2 - t2.transpose(1, 0, 3, 2))) > 1e-10:
            raise ConfigError("t2 lacks the required index symmetry")
    n_orb = nocc + nvirt
    n_elec = 2 * nocc

    mat = t2.transpose(0, 2, 1, 3).reshape(nocc * nvirt, nocc * nvirt)
    evals, evecs = np.linalg.eigh(mat)
    order = np.argsort(-np.abs(evals), kind="stable")
    rank = int(np.sum(np.abs(evals) > 1e-14))
    if 0 < rank < n_layers:
        raise ConfigError(f"n_layers={n_layers} exceeds t2 rank {rank}")
    kept = order[:min(n_layers, rank)]
    # Every step of a coupling, and of the phases it gives n_elec
    # electrons, stays within 2 n_elec^2 |eigenvalue|, as |ss| <= 1.
    if not np.all(abs(evals[kept]) <= np.finfo(float).max / (2 * n_elec**2)):
        raise ConfigError("t2 amplitudes overflow a J coupling or its phases")

    layers = []
    for mode in kept:
        lam = evals[mode]
        block = evecs[:, mode].reshape(nocc, nvirt)
        sym = np.zeros((n_orb, n_orb))
        sym[:nocc, nocc:] = block
        sym[nocc:, :nocc] = block.T
        svals, svecs = np.linalg.eigh(sym)
        ss = np.concatenate([svals, svals])
        coupling = lam * np.outer(ss, ss)
        # Uniform shift: cancels the scalar (occupied-trace) phase the
        # squared mode operator picks up on the reference; a constant
        # added to J contributes phase c * N^2 within a fixed sector.
        coupling = coupling - 2.0 * lam / n_elec**2
        layers.append((svecs.T, coupling))
        layers.append((svecs, None))
    if t1 is not None:
        # Singles: exp(K), K[nocc + a, i] = t1[i, a] = -K[i, nocc + a].
        t1 = _real_amplitudes(t1, "t1")
        if t1.shape != (nocc, nvirt):
            raise ConfigError("t1 must have shape (occ, virt)")
        gen = np.zeros((n_orb, n_orb))
        gen[nocc:, :nocc] = t1.T
        gen[:nocc, nocc:] = -t1
        layers.append((_expm_antisymmetric(gen), None))
    return LUCJParams(layers=layers)


def _real_amplitudes(values, name: str) -> np.ndarray:
    """``values`` as a float array; :class:`ConfigError` unless they are
    integers or real floating point numbers, each finite as a float."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ConfigError(f"{name} amplitudes must be real numbers, "
                          f"not {values.dtype}")
    values = values.astype(float)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"{name} holds a non-finite amplitude")
    return values


def _expm_antisymmetric(generator: np.ndarray) -> np.ndarray:
    """exp(K) of a real antisymmetric K from the Hermitian eigh of iK."""
    evals, evecs = np.linalg.eigh(1j * generator)
    return ((evecs * np.exp(-1j * evals)) @ evecs.conj().T).real


def write_counts(counts: BitstringCounts, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n_qubits={counts.n_qubits}\n")
        fh.writelines(f"{key} {count}\n" for key, count in counts.entries.items())


def read_counts(path) -> BitstringCounts:
    """Counts of a counts file (the format is in the README).

    Each line is checked once and its bitstring and count collected; then
    come the width and total checks and one :func:`pack_bits` call, and
    the constructor adds up repeated bitstrings.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = next(fh, "").strip()
            if not header.startswith("n_qubits="):
                raise ConfigError("counts file must start with 'n_qubits=<int>'")
            try:
                nq = int(header.split("=", 1)[1])
            except ValueError as exc:
                raise ConfigError("bad n_qubits header") from exc
            keys, counts = [], []
            for raw in fh:
                parts = raw.split()
                if not parts:
                    continue
                if len(parts) != 2:
                    raise ConfigError(f"malformed counts line: {raw!r}")
                bits, count_str = parts
                if len(bits) != nq:
                    raise ConfigError(f"bitstring length mismatch: {raw!r}")
                if bits.strip("01"):
                    raise ConfigError("bitstring has a character other than "
                                      f"0 or 1: {raw!r}")
                try:
                    count = int(count_str)
                except ValueError as exc:
                    raise ConfigError(f"malformed count: {raw!r}") from exc
                if count < 0:
                    raise ConfigError(f"negative count: {raw!r}")
                keys.append(bits)
                counts.append(count)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read counts file {path}: {exc}") from exc
    _half_widths(nq)
    if sum(counts) >= 2**63:
        raise ConfigError("total shot count does not fit in 64 bits")
    text = np.frombuffer("".join(keys).encode("ascii"), dtype=np.uint8)
    alpha, beta = pack_bits(text.reshape(len(keys), nq) == ord("1"), nq)
    return BitstringCounts(nq, alpha, beta, counts)
