"""Active-space Hamiltonians and Slater-Condon matrix elements.

One kernel serves every method: :func:`connected_determinants` yields
the valued singles and doubles of a determinant, :func:`excitations`
lists the same moves without values, and :func:`build_sparse_matrix`
assembles the projected Hamiltonian over an explicit basis.

Determinants are pairs of occupation bitmasks (alpha, beta) over spatial
orbitals. The fermionic sign convention places all alpha spin-orbitals
(ascending orbital index) before all beta spin-orbitals; parities reduce
to per-spin counts of occupied orbitals between excitation endpoints.

Two-electron integrals are stored as a dense 4-index array in chemists'
notation (pq|rs) with 8-fold permutational symmetry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import NamedTuple

import numpy as np
import scipy.sparse

from .errors import ConfigError


class Determinant(NamedTuple):
    """One electronic configuration: occupation bitmasks per spin."""

    alpha: int
    beta: int

    def n_alpha(self) -> int:
        return self.alpha.bit_count()

    def n_beta(self) -> int:
        return self.beta.bit_count()


def occupied_orbitals(bits: int) -> list[int]:
    """Indices of set bits, ascending."""
    orbs = []
    while bits:
        low = bits & -bits
        orbs.append(low.bit_length() - 1)
        bits ^= low
    return orbs


def hartree_fock_determinant(n_alpha: int, n_beta: int) -> Determinant:
    """Lowest-orbital filling: the restricted HF reference."""
    return Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)


def sector_basis(n_orb: int, n_alpha: int, n_beta: int) -> list[Determinant]:
    """All determinants of the (n_alpha, n_beta) sector.

    Ordering is canonical: alpha bitmask value ascending, then beta.
    """
    def strings(k):
        masks = [sum(1 << p for p in occ)
                 for occ in itertools.combinations(range(n_orb), k)]
        return sorted(masks)

    alphas = strings(n_alpha)
    betas = strings(n_beta)
    return [Determinant(a, b) for a in alphas for b in betas]


def sector_dimension(n_orb: int, n_alpha: int, n_beta: int) -> int:
    return comb(n_orb, n_alpha) * comb(n_orb, n_beta)


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
        for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
            if np.max(np.abs(eri - eri.transpose(perm))) > 1e-12:
                raise ConfigError("two_body lacks 8-fold symmetry")
        object.__setattr__(self, "one_body", h)
        object.__setattr__(self, "two_body", eri)
        # Read-only views: the Hamiltonian is immutable after construction.
        self.one_body.flags.writeable = False
        self.two_body.flags.writeable = False

    def hf_determinant(self) -> Determinant:
        return hartree_fock_determinant(self.n_alpha, self.n_beta)

    def sector_basis(self) -> list[Determinant]:
        return sector_basis(self.n_orb, self.n_alpha, self.n_beta)


def diagonal_element(ham: ActiveSpaceHamiltonian, det: Determinant) -> float:
    """<d|H|d> for any determinant (no sector check)."""
    h = ham.one_body
    eri = ham.two_body
    occ_a = occupied_orbitals(det.alpha)
    occ_b = occupied_orbitals(det.beta)
    energy = ham.core_energy
    for p in occ_a:
        energy += h[p, p]
    for p in occ_b:
        energy += h[p, p]
    for i, p in enumerate(occ_a):
        for q in occ_a[i + 1:]:
            energy += eri[p, p, q, q] - eri[p, q, q, p]
    for i, p in enumerate(occ_b):
        for q in occ_b[i + 1:]:
            energy += eri[p, p, q, q] - eri[p, q, q, p]
    for p in occ_a:
        for q in occ_b:
            energy += eri[p, p, q, q]
    return float(energy)


def _parity(bits: int, p: int, q: int) -> int:
    """(-1)**(number of set bits strictly between p and q)."""
    lo, hi = (p, q) if p < q else (q, p)
    mask = ((1 << hi) - 1) & ~((1 << (lo + 1)) - 1)
    return -1 if (bits & mask).bit_count() & 1 else 1


def _holes_and_particles(bits: int, n_orb: int) -> tuple[list[int], list[int]]:
    """Occupied and virtual orbitals of one spin string, ascending."""
    return occupied_orbitals(bits), [p for p in range(n_orb) if not bits >> p & 1]


def _with_string(det: Determinant, spin: int, bits: int) -> Determinant:
    """``det`` with its alpha (spin 0) or beta (spin 1) string replaced."""
    return Determinant(bits, det.beta) if spin == 0 else Determinant(det.alpha, bits)


def _single_element(ham, same, other, hole, particle):
    """Element of the move hole -> particle on the spin string ``same``.

    ``other`` is the opposite-spin string of the same determinant.
    """
    h = ham.one_body
    eri = ham.two_body
    val = h[hole, particle]
    for i in occupied_orbitals(same):
        if i == hole:
            continue
        val += eri[hole, particle, i, i] - eri[hole, i, i, particle]
    for i in occupied_orbitals(other):
        val += eri[hole, particle, i, i]
    return val * _parity(same, hole, particle)


def connected_determinants(ham: ActiveSpaceHamiltonian, det: Determinant,
                           magnitude_cutoff: float = 0.0):
    """(d', <d'|H|d>) over singles and doubles of ``det``.

    Singles are kept when the exact element magnitude reaches the cutoff.
    Doubles are screened on the integral magnitude before the parity
    sign (heat-bath criterion); the returned value is the exact signed
    element. Exact zeros are dropped. Order: alpha singles, beta singles,
    alpha-alpha, beta-beta, then alpha-beta doubles.
    """
    if magnitude_cutoff < 0:
        raise ConfigError("cutoff must be nonnegative")
    eri = ham.two_body
    strings = (det.alpha, det.beta)
    orbs = [_holes_and_particles(bits, ham.n_orb) for bits in strings]
    out = []

    for spin, (occ, vir) in enumerate(orbs):
        same, other = strings[spin], strings[1 - spin]
        for hole in occ:
            for part in vir:
                val = _single_element(ham, same, other, hole, part)
                if val != 0.0 and abs(val) >= magnitude_cutoff:
                    new = same ^ (1 << hole) ^ (1 << part)
                    out.append((_with_string(det, spin, new), float(val)))

    for spin, (occ, vir) in enumerate(orbs):
        bits = strings[spin]
        for h1, h2 in itertools.combinations(occ, 2):
            for p1, p2 in itertools.combinations(vir, 2):
                mag = eri[h1, p1, h2, p2] - eri[h1, p2, h2, p1]
                if mag == 0.0 or abs(mag) < magnitude_cutoff:
                    continue
                # Sign of the ordered product E_{p2 h2} E_{p1 h1}.
                moved = bits ^ (1 << h1) ^ (1 << p1)
                sign = _parity(bits, h1, p1) * _parity(moved, h2, p2)
                new = moved ^ (1 << h2) ^ (1 << p2)
                out.append((_with_string(det, spin, new), float(sign * mag)))

    (occ_a, vir_a), (occ_b, vir_b) = orbs
    for ha in occ_a:
        for pa in vir_a:
            sa = _parity(det.alpha, ha, pa)
            new_a = det.alpha ^ (1 << ha) ^ (1 << pa)
            for hb in occ_b:
                for pb in vir_b:
                    mag = eri[ha, pa, hb, pb]
                    if mag == 0.0 or abs(mag) < magnitude_cutoff:
                        continue
                    sb = _parity(det.beta, hb, pb)
                    out.append((Determinant(new_a,
                                            det.beta ^ (1 << hb) ^ (1 << pb)),
                                float(sa * sb * mag)))
    return out


def excitations(det: Determinant, n_orb: int,
                doubles: bool = True) -> list[Determinant]:
    """Determinants one spin-orbital move from ``det`` (and two, with ``doubles``).

    Purely combinatorial (no integral screening); stays in the sector of
    ``det`` by construction and lists each determinant once, never
    ``det`` itself.
    """
    strings = (det.alpha, det.beta)
    orbs = [_holes_and_particles(bits, n_orb) for bits in strings]
    singles = [[bits ^ (1 << h) ^ (1 << p) for h in occ for p in vir]
               for bits, (occ, vir) in zip(strings, orbs)]
    out = [_with_string(det, spin, bits)
           for spin in (0, 1) for bits in singles[spin]]
    if doubles:
        for spin, (occ, vir) in enumerate(orbs):
            out += [_with_string(det, spin, strings[spin] ^ (1 << h1)
                                 ^ (1 << h2) ^ (1 << p1) ^ (1 << p2))
                    for h1, h2 in itertools.combinations(occ, 2)
                    for p1, p2 in itertools.combinations(vir, 2)]
        out += [Determinant(a, b) for a in singles[0] for b in singles[1]]
    return out


def build_sparse_matrix(ham: ActiveSpaceHamiltonian,
                        basis: list[Determinant]) -> scipy.sparse.csr_matrix:
    """Sparse CSR projected Hamiltonian over ``basis`` (distinct determinants)."""
    index = {d: i for i, d in enumerate(basis)}
    if len(index) != len(basis):
        raise ConfigError("basis contains duplicates")
    rows, cols, vals = [], [], []
    for j, det in enumerate(basis):
        rows.append(j)
        cols.append(j)
        vals.append(diagonal_element(ham, det))
        for other, val in connected_determinants(ham, det):
            i = index.get(other)
            if i is not None:
                rows.append(i)
                cols.append(j)
                vals.append(val)
    dim = len(basis)
    return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
