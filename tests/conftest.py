import numpy as np
import pytest

from sqdci.hamiltonian import ActiveSpaceHamiltonian
from sqdci.sampler import BitstringCounts, pack_bits

ONE_ORBITAL_FCIDUMP = (
    "&FCI NORB=1,NELEC=2,MS2=0,\n"
    "&END\n"
    "0.5 1 1 1 1\n"
    "-1.0 1 1 0 0\n"
    "0.25 0 0 0 0\n"
)


def packed(dets) -> np.ndarray:
    """A basis array of (alpha, beta) pairs, rows in the given order."""
    return np.array(dets, dtype=np.uint64).reshape(-1, 2)


def counts_of(n_qubits: int, mapping: dict) -> BitstringCounts:
    """Counts of a ``{bitstring: count}`` dict of well-formed keys."""
    rows = [[c == "1" for c in key] for key in mapping]
    alpha, beta = pack_bits(
        np.array(rows, dtype=bool).reshape(len(mapping), n_qubits), n_qubits)
    return BitstringCounts(n_qubits, alpha, beta, list(mapping.values()))


def as_pairs(basis) -> list[tuple[int, int]]:
    """(alpha, beta) tuples of Python ints, one per row of ``basis``."""
    return [(int(a), int(b)) for a, b in basis]


def symmetrize_eri(eri: np.ndarray) -> np.ndarray:
    """Copy one representative value over each 8-fold orbit of (pq|rs),
    so the symmetry holds bitwise exactly."""
    n = eri.shape[0]
    out = np.empty_like(eri)
    for p in range(n):
        for q in range(n):
            for r in range(n):
                for s in range(n):
                    pq = (p, q) if p >= q else (q, p)
                    rs = (r, s) if r >= s else (s, r)
                    key = pq + rs if pq >= rs else rs + pq
                    out[p, q, r, s] = eri[key]
    return out


def random_hamiltonian(n_orb, n_alpha, n_beta, seed, one_scale=1.0,
                       two_scale=0.2, diagonal_spread=0.0):
    """Random symmetric integrals; larger diagonal_spread separates the
    determinant diagonal energies (makes states more single-reference)."""
    gen = np.random.default_rng(seed)
    h = gen.normal(size=(n_orb, n_orb))
    h = 0.5 * (h + h.T) * one_scale
    h += np.diag(np.arange(n_orb) * diagonal_spread)
    eri = symmetrize_eri(gen.normal(size=(n_orb,) * 4) * two_scale)
    return ActiveSpaceHamiltonian(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_beta,
                                  core_energy=float(gen.normal()),
                                  one_body=h, two_body=eri)


@pytest.fixture
def one_orbital_fcidump(tmp_path):
    path = tmp_path / "one_orbital.fcidump"
    path.write_text(ONE_ORBITAL_FCIDUMP)
    return path


@pytest.fixture
def ham_2e2o():
    return random_hamiltonian(2, 1, 1, seed=11)


@pytest.fixture
def ham_4e4o():
    return random_hamiltonian(4, 2, 2, seed=7, diagonal_spread=1.5)
