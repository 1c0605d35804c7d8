"""Active-space Hamiltonians and Slater-Condon matrix elements.

:func:`connected_determinants` lists the heat-bath screened singles and
doubles of a batch of determinants as packed rows (the HCI selection
generator), :func:`build_sparse_matrix` assembles the projected
Hamiltonian over an explicit basis, and :class:`ProductHamiltonian`
applies it matrix free on the Cartesian product of two string sets, or,
row-masked, on any basis inside that product.

Determinants are pairs of occupation bitmasks (alpha, beta) over spatial
orbitals, bit p for orbital p. A basis is a ``(dim, 2)`` ``uint64``
array of (alpha, beta) rows, distinct and in lexicographic order; row i
holds coefficient i of a state vector. :func:`product_basis` builds the
Cartesian product of two string sets in that form (an SQD batch, the FCI
sector), :func:`merge_bases` and :func:`merge_blocks` (a running merge
checked by its caller) put a union of bases in it, and :func:`basis_strings`
splits one into its sorted distinct strings and rejects repeated or
unsorted rows.

The builder is string driven (Knowles & Handy, CPL 111, 315 (1984)).
Each determinant becomes the index pair (ia, ib) of its strings. Per
spin, a table lists the single excitations (target string, hole,
particle, parity, same-spin part of the element) and the same-spin
doubles (target string, signed element) that stay inside that spin's
distinct strings. The tables are built in numpy from the strings as
``uint64`` bitmasks: two strings of one popcount are a single apart when
their XOR holds 2 bits and a double apart when it holds 4, so one
``np.bitwise_count`` scan over pairs of strings finds every entry, and
the moved bits give its orbitals and parity. The matrix is then
assembled in numpy, over fixed-size blocks of determinants: each block
expands the tables of its determinants' strings into candidate pairs
(singles of either spin with the other string fixed, same-spin doubles,
and alpha-beta doubles as the product of the two singles tables), looks
the targets up among the basis keys ``ia * n_beta_strings + ib``
(ascending, because the basis is sorted), and keeps the hits. Diagonals
come from the occupation rows of the strings through the Coulomb and
exchange matrices. Bases need not be Cartesian products of their
strings, nor lie in one sector. A single's element has one formula,
:func:`_single_elements`, over integral shares computed once per
Hamiltonian, so the screen judges, bit for bit, the element the matrix
stores.

The result is a :class:`CSRMatrix`, a plain numpy CSR triple. Every row
stores its diagonal, so the product with a vector is one gather and one
``np.add.reduceat`` over the row starts, with no empty-row special case.

Each operator refuses, before it is built, an estimate above the
caller's ``max_bytes``: the builder from its string tables, and
:class:`ProductHamiltonian` from the string counts alone.

On a product basis the same string tables give the factorised operator
of :class:`ProductHamiltonian`: dense same-spin string matrices, plus
one GEMM with the pair-integral block per sigma. It stores O(strings^2
+ pairs^2) numbers instead of the CSR matrix's O(dim x connections). A
basis that is only part of the product of its strings is applied as
P H P: the vector is scattered into the zeroed grid and sigma read back
on the basis rows, so each product costs a sigma over the whole grid.

The fermionic sign convention places all alpha spin-orbitals
(ascending orbital index) before all beta spin-orbitals; parities reduce
to per-spin counts of occupied orbitals between excitation endpoints.

Two-electron integrals are stored as a dense 4-index array in chemists'
notation (pq|rs) with 8-fold permutational symmetry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_budget

# Widest spin string a packed uint64 holds.
MAX_ORBITALS_PER_SPIN = 64


def sector_strings(n_orb: int, n_electrons: int) -> np.ndarray:
    """All ``n_electrons``-electron strings over ``n_orb`` orbitals, sorted."""
    return np.array(sorted(sum(1 << p for p in occ) for occ in
                           itertools.combinations(range(n_orb), n_electrons)),
                    dtype=np.uint64)


def product_basis(alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Every (alpha, beta) pair of two sorted distinct string sets, as a
    basis: row ``ia * len(betas) + ib`` is (alphas[ia], betas[ib])."""
    return np.column_stack([np.repeat(alphas, len(betas)),
                            np.tile(betas, len(alphas))])


def sector_basis(n_orb: int, n_alpha: int, n_beta: int) -> np.ndarray:
    """All determinants of the (n_alpha, n_beta) sector, as a basis."""
    return product_basis(sector_strings(n_orb, n_alpha),
                         sector_strings(n_orb, n_beta))


def merge_bases(*bases: np.ndarray) -> np.ndarray:
    """The union of ``bases`` as a basis: concatenated, put in order by a
    stable ``lexsort``, and the first row of each run of equal rows kept."""
    rows = np.concatenate(bases)
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[head]


def merge_blocks(blocks, what: str, check) -> np.ndarray:
    """The union of the bases that ``blocks`` yields, as one basis.

    Blocks are folded into a running :func:`merge_bases` once the pending
    rows outnumber both ``_BLOCK_CANDIDATES`` and the rows merged so far:
    a small union merges once, a large one holds a multiple of its result
    instead of every block, and the merges sort fewer than twice as many
    rows as the blocks hold. Every fold calls ``check(what, rows)`` with
    the union's row count; the caller's check may refuse it.
    """
    merged, pending, held = np.zeros((0, 2), dtype=np.uint64), [], 0

    def fold():
        union = merge_bases(merged, *pending)
        check(what, len(union))
        return union

    for block in blocks:
        pending.append(block)
        held += len(block)
        if held > max(_BLOCK_CANDIDATES, len(merged)):
            merged, pending, held = fold(), [], 0
    return fold()


def distinct_strings(strings: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``strings`` (``np.unique`` imports numpy.ma)."""
    strings = np.sort(strings)
    head = np.ones(len(strings), dtype=bool)
    head[1:] = strings[1:] != strings[:-1]
    return strings[head]


def basis_strings(basis: np.ndarray):
    """(alphas, ia, betas, ib): each spin's sorted distinct strings and the
    index of every row's string in them.

    Raises :class:`ConfigError` unless the keys ``ia * len(betas) + ib``
    strictly increase, that is unless the rows are distinct and sorted.
    """
    found = []
    for column in basis.T:
        strings = distinct_strings(column)
        found += [strings, np.searchsorted(strings, column)]
    keys = found[1] * len(found[2]) + found[3]
    if np.any(keys[1:] <= keys[:-1]):
        raise ConfigError("basis rows must be distinct and in (alpha, beta) order")
    return found


def sector_dimension(n_orb: int, n_alpha: int, n_beta: int) -> int:
    return comb(n_orb, n_alpha) * comb(n_orb, n_beta)


class _HeatBath(NamedTuple):
    """Doubles lists of :func:`connected_determinants` for one Hamiltonian,
    per kind (0: <h1 h2||p1 p2> over h1 < h2, p1 < p2; 1: (h1 p1|h2 p2)
    over alpha h1 and beta h2) and hole pair, nonzero and with particles
    apart from the holes: list (kind * n + h1) * n + h2 holds the entries
    ``[start[list], start[list + 1])``, by descending magnitude.
    """

    start: np.ndarray
    first: np.ndarray  # uint64 bits of particles p1 and p2 of each entry
    second: np.ndarray
    levels: np.ndarray  # every magnitude, ascending
    # The list times (entries + 1) plus the count of levels at or above the
    # entry's own: it ascends, so one searchsorted ends each list at a cutoff.
    key: np.ndarray


@dataclass(frozen=True)
class ActiveSpaceHamiltonian:
    """Second-quantized Hamiltonian restricted to an active space.

    Attributes
    ----------
    n_orb : number of spatial orbitals
    n_alpha, n_beta : electron counts of the target sector
    core_energy : constant shift (frozen core + nuclear repulsion)
    one_body : (n_orb, n_orb) symmetric matrix h[p, r]
    two_body : (n_orb,)*4 array, chemists' notation (pq|rs), 8-fold symmetric
    """

    n_orb: int
    n_alpha: int
    n_beta: int
    core_energy: float
    one_body: np.ndarray
    two_body: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.one_body, dtype=float)
        eri = np.asarray(self.two_body, dtype=float)
        if h.shape != (self.n_orb, self.n_orb):
            raise ConfigError("one_body has wrong shape")
        if eri.shape != (self.n_orb,) * 4:
            raise ConfigError("two_body has wrong shape")
        if not (0 < self.n_alpha <= self.n_orb and 0 < self.n_beta <= self.n_orb):
            raise ConfigError("electron counts out of range")
        if not (np.isfinite(self.core_energy) and np.all(np.isfinite(h))
                and np.all(np.isfinite(eri))):
            raise ConfigError("integrals must be finite")
        if np.max(np.abs(h - h.T)) > 1e-12:
            raise ConfigError("one_body not symmetric")
        gap = np.empty_like(eri)
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            np.abs(np.subtract(eri, eri.transpose(perm), out=gap), out=gap)
            if np.max(gap) > 1e-12:
                raise ConfigError("two_body lacks 8-fold symmetry")
        object.__setattr__(self, "one_body", h)
        object.__setattr__(self, "two_body", eri)
        # Read-only views: the Hamiltonian is immutable after construction.
        self.one_body.flags.writeable = False
        self.two_body.flags.writeable = False

    @cached_property
    def _shares(self) -> tuple[np.ndarray, np.ndarray]:
        """(coulomb, g), an occupied i's share of a single h -> p from the
        other spin, ``coulomb[h, p, i] = (hp|ii)``, and from the same spin,
        ``g[h, p, i] = (hp|ii) - (hi|ip)``; at [p, p, q] they are J and J - K."""
        coulomb = np.einsum("hpii->hpi", self.two_body)
        return coulomb, coulomb - np.einsum("hiip->hpi", self.two_body)

    @cached_property
    def _heat_bath(self) -> _HeatBath:
        """:class:`_HeatBath` tables, built on first use."""
        n, eri = self.n_orb, self.two_body
        h1, h2, p1, p2 = np.ix_(*[np.arange(n)] * 4)
        apart = (p1 != h1) & (p1 != h2) & (p2 != h1) & (p2 != h2)
        crossed = np.einsum("apbq->abpq", eri)
        values = np.stack([
            np.where((h1 < h2) & (p1 < p2) & apart,
                     crossed - np.einsum("aqbp->abpq", eri), 0.0),
            np.where((p1 != h1) & (p2 != h2), crossed, 0.0)])
        kind, hole1, hole2, part1, part2 = entries = np.nonzero(values)
        magnitude = np.abs(values[entries])
        levels = np.sort(magnitude)
        size = len(levels)
        key = (((kind * n + hole1) * n + hole2) * (size + 1) + size
               - np.searchsorted(levels, magnitude))
        order = np.argsort(key)
        key = key[order]
        bit = _bit_masks(n)[0]
        return _HeatBath(
            start=np.searchsorted(key, np.arange(2 * n * n + 1) * (size + 1)),
            first=bit[part1[order]], second=bit[part2[order]], levels=levels,
            key=key)


def occupation_rows(strings, n_orb: int) -> np.ndarray:
    """0/1 float matrix: row k marks the occupied orbitals of ``strings[k]``."""
    bits = np.asarray(strings, dtype=np.uint64)
    return (bits[:, None] >> np.arange(n_orb, dtype=np.uint64) & 1).astype(float)


@dataclass(frozen=True)
class CSRMatrix:
    """Square real matrix in compressed sparse rows.

    Row i stores its entries at ``[indptr[i], indptr[i + 1])`` of
    ``indices``/``data`` with columns ascending and none repeated. Every
    row must store its diagonal, even when it is 0.0: the product then
    needs no empty-row handling.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        dim = len(self.indptr) - 1
        return dim, dim

    @property
    def nnz(self) -> int:
        return len(self.data)

    def _rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def diagonal(self) -> np.ndarray:
        return self.data[self.indices == self._rows()]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows(), self.indices] = self.data
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Product with one vector."""
        return np.add.reduceat(self.data * x[self.indices], self.indptr[:-1])


# Candidate pairs expanded at once by the builder, (source, string) pairs
# scanned by the string tables, and rows merge_blocks holds before it
# folds: bounds their temporaries independently of the basis size.
_BLOCK_CANDIDATES = 1 << 16


class _SpinTables(NamedTuple):
    """Excitations among one spin's distinct strings, grouped by source.

    The entries of source string k occupy ``[start[k], start[k + 1])``
    of the arrays that follow their ``*_start``, by ascending target.
    """

    occ: np.ndarray
    single_start: np.ndarray
    single_target: np.ndarray
    single_hole: np.ndarray
    single_particle: np.ndarray
    single_sign: np.ndarray
    single_value: np.ndarray  # same-spin part of the element, sign included
    double_start: np.ndarray
    double_target: np.ndarray
    double_value: np.ndarray


def _bit_masks(n_orb: int):
    """``flip[p]``, the bit of orbital p, and ``between[p, q]``, the bits
    strictly between orbitals p and q, as ``uint64``."""
    one, orb = np.uint64(1), np.arange(n_orb, dtype=np.uint64)
    low, high = np.minimum.outer(orb, orb), np.maximum.outer(orb, orb)
    return (one << orb,
            ((one << high) - one) & ~((one << low) - one) & ~(one << low))


def _spin_tables(ham: ActiveSpaceHamiltonian, strings) -> _SpinTables:
    """Singles and same-spin doubles among ``strings`` (sorted, distinct).

    Two strings of one popcount are a single apart when their XOR holds
    2 bits, and a double apart when it holds 4. Each chunk of about
    ``_BLOCK_CANDIDATES`` (source, string) pairs is scanned for those
    distances, so the entries come out by source, targets ascending. The
    holes are the moved bits the source holds, the particles those the
    target holds, each pair ascending. A parity is that of the bits
    strictly between hole and particle. The double h1 h2 -> p1 p2 is the
    ordered product E_{p2 h2} E_{p1 h1}.
    """
    n, eri = ham.n_orb, ham.two_body
    bits = np.asarray(strings, dtype=np.uint64)
    occ = occupation_rows(bits, n)
    popcount = np.bitwise_count(bits)
    between = _bit_masks(n)[1]
    one = np.uint64(1)

    # A one-bit mask's orbital is the count of the bits below it.
    def orbital(bit):
        return np.bitwise_count(bit - one).astype(np.int64)

    # +1 or -1 by the parity of the bits of state between hole and part.
    def parity(state, hole, part):
        return 1.0 - 2.0 * (np.bitwise_count(state & between[hole, part]) & 1)

    singles, doubles = [], []
    step = max(1, _BLOCK_CANDIDATES // max(1, len(bits)))
    # One chunk even for no strings gives every field its dtype.
    for lo in range(0, max(1, len(bits)), step):
        apart = np.bitwise_count(bits[lo:lo + step, None] ^ bits)
        source, target = np.nonzero((apart == 2) | (apart == 4))
        keep = popcount[source + lo] == popcount[target]
        source, target = source[keep] + lo, target[keep]
        state = bits[source]
        moved = state ^ bits[target]
        holes, parts = state & moved, bits[target] & moved
        single = np.bitwise_count(moved) == 2

        src = source[single]
        hole, part = orbital(holes[single]), orbital(parts[single])
        sign = parity(state[single], hole, part)
        singles.append((src, target[single], hole, part, sign,
                        sign * _single_elements(ham, hole, part, occ[src])))

        double = ~single
        state, holes, parts = state[double], holes[double], parts[double]
        low_hole, low_part = holes & (~holes + one), parts & (~parts + one)
        h1, h2, p1, p2 = map(orbital, (low_hole, holes ^ low_hole,
                                       low_part, parts ^ low_part))
        sign = parity(state, h1, p1) * parity(state ^ low_hole ^ low_part, h2, p2)
        doubles.append((source[double], target[double],
                        sign * (eri[h1, p1, h2, p2] - eri[h1, p2, h2, p1])))

    def join(entries):
        """The chunks' fields joined, with the source made into starts."""
        source, *fields = (np.concatenate(f) for f in zip(*entries))
        return np.searchsorted(source, np.arange(len(bits) + 1)), *fields

    return _SpinTables(occ, *join(singles), *join(doubles))


def _single_elements(ham: ActiveSpaceHamiltonian, hole, part, occ,
                     other=None) -> np.ndarray:
    """Elements, parity aside, of singles ``hole -> part`` of strings with
    occupation rows ``occ``, plus the other spin's share given its rows ``other``."""
    coulomb, g = ham._shares
    element = (ham.one_body[hole, part] - g[hole, part, hole]
               + np.einsum("ij,ij->i", g[hole, part], occ))
    if other is not None:
        element += np.einsum("ij,ij->i", coulomb[hole, part], other)
    return element


def _string_energies(ham: ActiveSpaceHamiltonian,
                     tables: _SpinTables) -> np.ndarray:
    """One-spin diagonal terms: sum of h_pp, plus g's J - K over occupied pairs."""
    return (tables.occ @ np.diag(ham.one_body)
            + 0.5 * np.einsum("kp,pq,kq->k", tables.occ,
                              np.einsum("ppq->pq", ham._shares[1]), tables.occ))


def _expand(start: np.ndarray, sources: np.ndarray, counts=None):
    """(owner, position) of every table entry of each of ``sources``, or
    of the first ``counts[k]`` entries of ``sources[k]`` when given.

    ``owner`` indexes ``sources``; ``position`` indexes the table arrays.
    """
    counts = start[sources + 1] - start[sources] if counts is None else counts
    first = np.cumsum(counts) - counts
    owner = np.repeat(np.arange(len(sources)), counts)
    return owner, np.arange(counts.sum()) + np.repeat(start[sources] - first,
                                                      counts)


def connected_determinants(ham: ActiveSpaceHamiltonian, sources,
                           cutoffs) -> np.ndarray:
    """Heat-bath screened singles and doubles of a batch of determinants.

    Source k is the packed row ``sources[k]`` with cutoff ``cutoffs[k]``.
    Returns the kept targets as packed ``(m, 2)`` ``uint64`` rows, repeats
    included: per block of sources, alpha and beta singles, then
    alpha-alpha, beta-beta and alpha-beta doubles. A single is kept when
    its element, bit for bit the one :func:`build_sparse_matrix` stores, is
    nonzero and reaches the cutoff in magnitude; a double when its
    integral does (Holmes, Tubman & Umrigar, JCTC 12, 3674
    (2016)): each occupied pair walks its list, sorted by magnitude once
    per Hamiltonian, down to the cutoff, and moves onto occupied orbitals
    are dropped.
    """
    cutoffs = np.asarray(cutoffs, dtype=float)
    if not np.all(cutoffs >= 0):  # false for nan too
        raise ConfigError("cutoffs must be nonnegative")
    n, tables = ham.n_orb, ham._heat_bath
    size, flip = len(tables.levels), _bit_masks(n)[0]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    sources = np.asarray(sources, dtype=np.uint64)
    rows = [np.zeros((0, 2), dtype=np.uint64)]
    step = max(1, _BLOCK_CANDIDATES // (n * n))
    for lo in range(0, len(cutoffs), step):
        block, cut = sources[lo:lo + step], cutoffs[lo:lo + step]
        occ = [occupation_rows(b, n) for b in block.T]
        full = [o > 0 for o in occ]
        for spin in (0, 1):
            src, h, p = np.nonzero(full[spin][:, :, None] > full[spin][:, None, :])
            element = _single_elements(ham, h, p, occ[spin][src],
                                       occ[1 - spin][src])
            keep = (element != 0.0) & (np.abs(element) >= cut[src])
            new = block[src[keep]]
            new[:, spin] ^= flip[h[keep]] ^ flip[p[keep]]
            rows.append(new)
        for s1, s2, kind, pairs in ((0, 0, 0, upper), (1, 1, 0, upper),
                                    (0, 1, 1, True)):
            src, h1, h2 = np.nonzero(
                full[s1][:, :, None] & full[s2][:, None, :] & pairs)
            # Each (source, hole pair) walks its list down to the cutoff.
            pair = (kind * n + h1) * n + h2
            rank = np.searchsorted(tables.levels, cut[src])
            end = np.searchsorted(tables.key, pair * (size + 1) + size - rank,
                                  side="right")
            owner, pos = _expand(tables.start, pair, end - tables.start[pair])
            src, p1, p2 = src[owner], tables.first[pos], tables.second[pos]
            # A same-spin p2 is neither h1 nor p1, so both particles are
            # checked on the source strings.
            keep = (block[src, s1] & p1 | block[src, s2] & p2) == 0
            owner = owner[keep]
            new = block[src[keep]]
            new[:, s1] ^= flip[h1[owner]] ^ p1[keep]
            new[:, s2] ^= flip[h2[owner]] ^ p2[keep]
            rows.append(new)
    return np.concatenate(rows)


def build_sparse_matrix(ham: ActiveSpaceHamiltonian, basis: np.ndarray,
                        max_bytes: float = float("inf")) -> CSRMatrix:
    """Sparse CSR projected Hamiltonian over ``basis``.

    Exact-zero off-diagonal elements are not stored; every diagonal is.
    Raises :class:`CapacityError`, after the string tables are built and
    before the matrix is assembled, when the bytes the assembly may hold
    exceed ``max_bytes``.
    """
    dim = len(basis)
    alphas, ia, betas, ib = basis_strings(basis)
    stride = len(betas)
    keys = ia * stride + ib

    tables = ta, tb = _spin_tables(ham, alphas), _spin_tables(ham, betas)
    eri, coulomb = ham.two_body, ham._shares[0]
    string_energy = [_string_energies(ham, t) for t in tables]
    alpha_coulomb = ta.occ @ np.einsum("ppq->pq", coulomb)

    n_single = [np.diff(t.single_start) for t in tables]
    n_double = [np.diff(t.double_start) for t in tables]
    work = (1 + n_single[0][ia] + n_single[1][ib] + n_double[0][ia]
            + n_double[1][ib] + n_single[0][ia] * n_single[1][ib])
    work_end = np.cumsum(work)
    # Every candidate may be stored: a column and a value (16 B), held
    # twice while the blocks are joined, or once more by the gather of a
    # product. One block's temporaries take under 160 B per candidate
    # plus two n_orb-wide rows of a single's element.
    candidates = int(work.sum())
    block = min(candidates, max(_BLOCK_CANDIDATES, int(work.max(initial=0))))
    check_budget(f"sparse matrix over {dim} determinants",
                 32 * candidates + (160 + 16 * ham.n_orb) * block + 16 * dim,
                 max_bytes)

    # In a full product of its strings, a key is its own row.
    product = dim == len(alphas) * stride

    def find(targets):
        if product:
            return np.ones(len(targets), dtype=bool), targets
        pos = np.searchsorted(keys, targets)
        pos[pos == dim] = 0
        hit = keys[pos] == targets
        return hit, pos[hit]

    # Row j holds the elements reached from basis[j]; H is real symmetric,
    # so each block of source determinants fills a contiguous run of rows.
    indptr, indices, data = [np.zeros(1, dtype=np.int64)], [], []
    lo = 0
    while lo < dim:
        hi = max(lo + 1, int(np.searchsorted(
            work_end, work_end[lo] - work[lo] + _BLOCK_CANDIDATES, side="right")))
        block = (ia[lo:hi], ib[lo:hi])
        rows, cols, vals = [], [], []

        for spin, same in enumerate(tables):
            other = tables[1 - spin]
            mine, theirs = block[spin], block[1 - spin]
            scale = (stride, 1) if spin == 0 else (1, stride)

            owner, pos = _expand(same.single_start, mine)
            hit, col = find(same.single_target[pos] * scale[0]
                            + theirs[owner] * scale[1])
            owner, pos = owner[hit], pos[hit]
            rows.append(owner)
            cols.append(col)
            # Bitwise the sign times _single_elements with other.occ.
            vals.append(same.single_value[pos] + same.single_sign[pos]
                        * np.einsum("ij,ij->i",
                                    coulomb[same.single_hole[pos],
                                            same.single_particle[pos]],
                                    other.occ[theirs[owner]]))

            owner, pos = _expand(same.double_start, mine)
            hit, col = find(same.double_target[pos] * scale[0]
                            + theirs[owner] * scale[1])
            rows.append(owner[hit])
            cols.append(col)
            vals.append(same.double_value[pos[hit]])

        # Alpha-beta doubles: every alpha single times every beta single.
        owner, pos_a = _expand(ta.single_start, block[0])
        pair, pos_b = _expand(tb.single_start, block[1][owner])
        owner, pos_a = owner[pair], pos_a[pair]
        hit, col = find(ta.single_target[pos_a] * stride + tb.single_target[pos_b])
        pos_a, pos_b = pos_a[hit], pos_b[hit]
        rows.append(owner[hit])
        cols.append(col)
        vals.append(ta.single_sign[pos_a] * tb.single_sign[pos_b]
                    * eri[ta.single_hole[pos_a], ta.single_particle[pos_a],
                          tb.single_hole[pos_b], tb.single_particle[pos_b]])

        rows, cols, vals = (np.concatenate(x) for x in (rows, cols, vals))
        keep = vals != 0.0
        diagonal = (ham.core_energy + string_energy[0][block[0]]
                    + string_energy[1][block[1]]
                    + np.einsum("ij,ij->i", alpha_coulomb[block[0]],
                                tb.occ[block[1]]))
        rows = np.concatenate([np.arange(hi - lo), rows[keep]])
        cols = np.concatenate([np.arange(lo, hi), cols[keep]])
        vals = np.concatenate([diagonal, vals[keep]])
        perm = np.argsort(rows * dim + cols)
        indptr.append(indptr[-1][-1] + np.cumsum(np.bincount(rows,
                                                             minlength=hi - lo)))
        indices.append(cols[perm])
        data.append(vals[perm])
        lo = hi

    return CSRMatrix(indptr=np.concatenate(indptr),
                     indices=np.concatenate(indices or [np.zeros(0, dtype=np.int64)]),
                     data=np.concatenate(data or [np.zeros(0)]))


# Floats in each of the product sigma's buffers D and F (together about
# 2^24); the alpha rows of one block are chosen to fit.
_SIGMA_BLOCK_FLOATS = 1 << 23


def _pair_index(p, q):
    """Index of the orbital pair {p, q} among the n(n+1)/2 pairs p >= q."""
    hi, lo = np.maximum(p, q), np.minimum(p, q)
    return hi * (hi + 1) // 2 + lo


def _pair_entries(tables: _SpinTables):
    """(pair, target, source, sign) of each nonzero of the pair operators.

    The operator of pair {p, q} is E_pq + E_qp for p > q and the
    occupation n_p for p = q; restricted to one spin's strings, each maps
    a source string to at most one target, and no two sources of one pair
    share a target. Entries are sorted by target.
    """
    source = np.repeat(np.arange(len(tables.occ)), np.diff(tables.single_start))
    occupied, orbital = np.nonzero(tables.occ)
    pair = np.concatenate([_pair_index(tables.single_hole, tables.single_particle),
                           _pair_index(orbital, orbital)])
    target = np.concatenate([tables.single_target, occupied])
    source = np.concatenate([source, occupied])
    sign = np.concatenate([tables.single_sign, np.ones(len(occupied))])
    order = np.argsort(target, kind="stable")
    return pair[order], target[order], source[order], sign[order]


def _string_matrix(ham: ActiveSpaceHamiltonian,
                   tables: _SpinTables) -> np.ndarray:
    """Dense same-spin Hamiltonian among one spin's strings."""
    n = len(tables.occ)
    mat = np.zeros((n, n))
    mat[tables.single_target,
        np.repeat(np.arange(n), np.diff(tables.single_start))] = tables.single_value
    mat[tables.double_target,
        np.repeat(np.arange(n), np.diff(tables.double_start))] = tables.double_value
    mat[np.diag_indices(n)] = _string_energies(ham, tables)
    return mat


def _sigma_block_rows(n_orb: int, n_alpha_strings: int,
                      n_beta_strings: int) -> int:
    """Alpha rows per block of the product sigma's pair buffers."""
    n_pairs = n_orb * (n_orb + 1) // 2
    max_rows = max(1, _SIGMA_BLOCK_FLOATS // (n_pairs * n_beta_strings))
    blocks = -(-n_alpha_strings // max_rows)
    return -(-n_alpha_strings // blocks)


def product_operator_bytes(n_orb: int, n_alpha_strings: int,
                           n_beta_strings: int, dim: int | None = None) -> int:
    """Bytes a :class:`ProductHamiltonian` over ``dim`` basis rows (by
    default the whole grid) holds through a solve (estimate). Per grid
    row: the sigma output and its product temporary, and when masked
    (``dim`` below the grid) the scatter grid, with the gathered output
    and the row index per basis row. Per space: the string matrices, the
    pair-integral block, and the D, F and gather buffers of one block."""
    grid = n_alpha_strings * n_beta_strings
    dim = grid if dim is None else dim
    masked = dim < grid
    n_pairs = n_orb * (n_orb + 1) // 2
    block = n_pairs * n_beta_strings * _sigma_block_rows(
        n_orb, n_alpha_strings, n_beta_strings)
    return 8 * (grid * (2 + masked) + 2 * dim * masked + n_alpha_strings ** 2
                + n_beta_strings ** 2 + n_pairs ** 2 + 3 * block)


class ProductHamiltonian:
    """Projected Hamiltonian on the Cartesian product of two string sets.

    Matrix free (Knowles & Handy, CPL 111, 315 (1984)). A vector holds
    the coefficient of (alphas[ia], betas[ib]) at ``ia * len(betas) + ib``
    (the canonical order of a sorted product) and is read as an
    n_alpha x n_beta matrix C. Because the projector onto the product
    factorises, the projected Hamiltonian is exactly

        H_a (x) 1 + 1 (x) H_b + sum_{P,R} V[P, R] E^a_P (x) E^b_R,

    with H_a, H_b the dense same-spin string matrices (``core_energy``
    folded into H_a), E_P the pair operators of :func:`_pair_entries`
    and V the block of (pq|rs) over pairs p >= q, r >= s. The product
    ``op @ v`` is

        sigma = H_a C + C H_b + sum_P E^a_P F_P,  F = V D,  D_R = C (E^b_R)^T,

    over blocks of alpha rows of C: D is filled by one fancy assignment
    (targets are unique per pair), F is one GEMM, and the alpha pair
    entries are gathered from F and summed per target with
    ``np.add.reduceat``. The D and F buffers are allocated once; rows of
    a short last block keep stale values that no gather reads.

    With ``rows``, the grid index ``ia * len(betas) + ib`` of each row of
    a basis that is only part of the product, the operator is P H P on
    that basis: ``op @ v`` writes v into a preallocated grid that is zero
    off ``rows``, applies sigma and returns the basis rows, and
    :meth:`diagonal` is in basis space. Raises :class:`CapacityError`,
    before any table is built, when its estimate passes ``max_bytes``.
    """

    def __init__(self, ham: ActiveSpaceHamiltonian, alphas: np.ndarray,
                 betas: np.ndarray, rows: np.ndarray | None = None,
                 max_bytes: float = float("inf")):
        n_a, n_b = len(alphas), len(betas)
        check_budget(f"product space {n_a} x {n_b}", product_operator_bytes(
            ham.n_orb, n_a, n_b, None if rows is None else len(rows)), max_bytes)
        ta, tb = _spin_tables(ham, alphas), _spin_tables(ham, betas)
        self._grid = (n_a, n_b)
        self._rows = rows
        self._h_alpha = _string_matrix(ham, ta)
        self._h_alpha[np.diag_indices(n_a)] += ham.core_energy
        self._h_beta = _string_matrix(ham, tb)
        self._diagonal = (np.diag(self._h_alpha)[:, None]
                          + np.diag(self._h_beta)[None, :]
                          + (ta.occ @ np.einsum("ppq->pq", ham._shares[0]))
                          @ tb.occ.T).ravel()
        if rows is not None:
            self._diagonal = self._diagonal[rows]
            self._scatter = np.zeros(n_a * n_b)

        first, second = np.tril_indices(ham.n_orb)
        n_pairs = len(first)
        self._v = ham.two_body[first[:, None], second[:, None],
                               first[None, :], second[None, :]]
        self._beta = _pair_entries(tb)
        block_rows = _sigma_block_rows(ham.n_orb, n_a, n_b)
        self._d = np.zeros((n_pairs, block_rows, n_b))
        self._f = np.empty((n_pairs, block_rows * n_b))
        # Per block of source alpha rows: flat row of F, sign, run starts
        # and the distinct targets, with the entries sorted by target.
        pair, target, source, sign = _pair_entries(ta)
        self._blocks = []
        for lo in range(0, n_a, block_rows):
            hi = min(lo + block_rows, n_a)
            mine = (source >= lo) & (source < hi)
            block_target = target[mine]
            starts = np.flatnonzero(np.diff(block_target, prepend=-1))
            self._blocks.append((lo, hi,
                                 pair[mine] * block_rows + source[mine] - lo,
                                 sign[mine][:, None], starts,
                                 block_target[starts]))

    def diagonal(self) -> np.ndarray:
        return self._diagonal

    def __matmul__(self, x):
        if self._rows is None:
            c = np.asarray(x, dtype=float).reshape(self._grid)
        else:
            self._scatter[self._rows] = x
            c = self._scatter.reshape(self._grid)
        sigma = self._h_alpha @ c
        sigma += c @ self._h_beta
        pair_b, target_b, source_b, sign_b = self._beta
        d, f = self._d, self._f
        n_b = self._grid[1]
        for lo, hi, f_rows, sign, starts, targets in self._blocks:
            scattered = c[lo:hi, source_b]
            scattered *= sign_b
            d[pair_b, :hi - lo, target_b] = scattered.T
            del scattered  # not held through the gather below
            np.matmul(self._v, d.reshape(len(d), -1), out=f)
            gathered = f.reshape(-1, n_b)[f_rows]
            gathered *= sign
            sigma[targets] += np.add.reduceat(gathered, starts, axis=0)
        sigma = sigma.ravel()
        return sigma if self._rows is None else sigma[self._rows]
