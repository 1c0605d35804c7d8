"""Benchmark workloads and their seeded input generators.

Every input file the program sees is written here with plain numpy, so
the parent commit and a change under test read byte-identical inputs.
Nothing in this module imports ``sqdci``.

Each workload is one fixed model system. A ``--seed`` selects one of
``INSTANCES`` instances (seed modulo ``INSTANCES``), and the instance
perturbs the model's integrals by ``JITTER``: every seed gets different
numbers but asks for about the same work, so the spread between seeds
measures the program and the machine, not the luck of the draw. The
finite set of instances keeps the stored seed-commit references in
``references.json`` complete for every seed.
"""

from __future__ import annotations

import hashlib
import itertools
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

INSTANCES = 16
ORBITAL_SPREAD = 1.0  # orbital-energy spread, as tests/conftest.random_hamiltonian
TWO_BODY_SCALE = 0.2
JITTER = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_orb: int
    n_alpha: int
    n_beta: int
    args: tuple[str, ...]  # CLI flags besides --hamiltonian/--counts/--amplitudes/--seed

    @property
    def deterministic(self) -> bool:
        """True when the energy does not depend on sampling."""
        return self.args[self.args.index("--method") + 1] in ("fci", "hci", "ext-hci")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sqd-product",
        why=("noise-free counts whose batches close to the same ~900-determinant "
             "alpha x beta product on the Davidson path: Hamiltonian build and "
             "solver dominate, shot layers idle"),
        n_orb=8, n_alpha=4, n_beta=4,
        args=("--method", "sqd", "--sampler", "counts-file",
              "--iterations", "2", "--batches", "2",
              "--samples-per-batch", "300")),
    Workload(
        name="sqd-shots",
        why=("LUCJ shots with 1% readout noise on a 400-determinant sector: "
             "noise and configuration recovery dominate, every subspace takes "
             "the dense path"),
        n_orb=6, n_alpha=3, n_beta=3,
        args=("--method", "sqd", "--sampler", "lucj", "--lucj-layers", "2",
              "--shots", "300000", "--flip-prob", "0.01",
              "--iterations", "3", "--batches", "2",
              "--samples-per-batch", "100")),
    Workload(
        name="ext-hci",
        why=("heat-bath CI plus excitation extension on an open-shell sector: "
             "the same Hamiltonian and solver layers on non-product bases, no "
             "shots"),
        n_orb=8, n_alpha=4, n_beta=3,
        args=("--method", "ext-hci", "--epsilon1", "0.3")),
)}


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def _generator(workload: str, instance: int, tag: str) -> np.random.Generator:
    return np.random.default_rng(
        [zlib.crc32(workload.encode()), instance, zlib.crc32(tag.encode())])


def canonical_pairs(n: int):
    """One (p, q, r, s) per 8-fold orbit, p >= q, r >= s, (p, q) >= (r, s)."""
    pairs = [(p, q) for p in range(n) for q in range(p + 1)]
    return [pq + rs for i, pq in enumerate(pairs) for rs in pairs[:i + 1]]


@dataclass
class Integrals:
    core: float
    one_body: np.ndarray
    two_body: np.ndarray  # (pq|rs), every orbit member holds one drawn value


def _draws(n: int, model: np.random.Generator, jitter: np.random.Generator,
           size: int) -> np.ndarray:
    return model.normal(size=size) + JITTER * jitter.normal(size=size)


def random_integrals(n: int, model: np.random.Generator,
                     jitter: np.random.Generator) -> Integrals:
    """Single-reference-like random integrals with 8-fold symmetry.

    ``model`` draws one fixed system per workload; ``jitter`` perturbs it
    per instance by ``JITTER`` of the draw scale, so every instance asks
    the program for about the same work (selected dimensions, sweeps,
    Davidson iterations) while the numbers differ.
    """
    h = _draws(n, model, jitter, n * n).reshape(n, n)
    h = 0.5 * (h + h.T) + np.diag(np.arange(n) * ORBITAL_SPREAD)
    pairs = canonical_pairs(n)
    eri = np.zeros((n,) * 4)
    for (p, q, r, s), value in zip(pairs, _draws(n, model, jitter, len(pairs))):
        for a, b, c, d in ((p, q, r, s), (q, p, r, s), (p, q, s, r),
                           (q, p, s, r), (r, s, p, q), (s, r, p, q),
                           (r, s, q, p), (s, r, q, p)):
            eri[a, b, c, d] = value * TWO_BODY_SCALE
    core = float(_draws(n, model, jitter, 1)[0])
    return Integrals(core=core, one_body=h, two_body=eri)


def fcidump_text(ints: Integrals, n_alpha: int, n_beta: int) -> str:
    n = ints.one_body.shape[0]
    lines = [f"&FCI NORB={n},NELEC={n_alpha + n_beta},MS2={n_alpha - n_beta},",
             "ORBSYM=" + ",".join("1" * n) + ",", "ISYM=1,", "&END"]
    for p, q, r, s in canonical_pairs(n):
        lines.append(f"{float(ints.two_body[p, q, r, s])!r} {p + 1} {q + 1} {r + 1} {s + 1}")
    for p in range(n):
        for q in range(p + 1):
            lines.append(f"{float(ints.one_body[p, q])!r} {p + 1} {q + 1} 0 0")
    lines.append(f"{ints.core!r} 0 0 0 0")
    return "\n".join(lines) + "\n"


def strings(n: int, k: int) -> np.ndarray:
    """Occupation rows (0/1) of every k-electron string over n orbitals."""
    combos = list(itertools.combinations(range(n), k))
    rows = np.zeros((len(combos), n), dtype=np.int8)
    for i, occ in enumerate(combos):
        rows[i, list(occ)] = 1
    return rows


def diagonal_energies(ints: Integrals, occ_a: np.ndarray,
                      occ_b: np.ndarray) -> np.ndarray:
    """<D|H|D> for every pair (alpha row i, beta row j), shape (na, nb)."""
    h = np.diag(ints.one_body)
    jmat = np.einsum("ppqq->pq", ints.two_body)
    kmat = np.einsum("pqqp->pq", ints.two_body)
    same = jmat - kmat

    def one_spin(occ):
        return occ @ h + 0.5 * np.einsum("ip,pq,iq->i", occ, same, occ)

    return (ints.core + one_spin(occ_a)[:, None] + one_spin(occ_b)[None, :]
            + occ_a @ jmat @ occ_b.T)


def bitstring(row_a: np.ndarray, row_b: np.ndarray) -> str:
    return "".join(map(str, row_a)) + "".join(map(str, row_b))


PRODUCT_STRINGS = 30      # alpha and beta strings kept for sqd-product
PRODUCT_TEMPERATURE = 1.0  # Boltzmann temperature of the counts, Hartree
PRODUCT_SHOTS = 20_000


def product_counts_text(ints: Integrals, wl: Workload,
                        gen: np.random.Generator) -> str:
    """Counts over the product of the alpha and beta strings lowest in
    orbital energy.

    Every determinant of the product appears at least once; the rest of
    the shots follow Boltzmann weights of the diagonal energies. Batches
    of a third of the pool then almost surely see every string, so each
    closure is the same product space.
    """
    occ_a, occ_b = strings(wl.n_orb, wl.n_alpha), strings(wl.n_orb, wl.n_beta)
    h = np.diag(ints.one_body)
    keep_a = np.argsort(occ_a @ h, kind="stable")[:PRODUCT_STRINGS]
    keep_b = np.argsort(occ_b @ h, kind="stable")[:PRODUCT_STRINGS]
    occ_a, occ_b = occ_a[keep_a], occ_b[keep_b]
    energies = diagonal_energies(ints, occ_a, occ_b).ravel()
    weights = np.exp(-(energies - energies.min()) / PRODUCT_TEMPERATURE)
    counts = 1 + gen.multinomial(PRODUCT_SHOTS, weights / weights.sum())
    lines = [f"n_qubits={2 * wl.n_orb}"]
    for (i, j), count in zip(itertools.product(range(len(occ_a)),
                                               range(len(occ_b))), counts):
        lines.append(f"{bitstring(occ_a[i], occ_b[j])} {count}")
    return "\n".join(lines) + "\n"


T1_SCALE = 0.1  # damps the singles so the doubles shape the LUCJ state


def write_amplitudes(path: Path, ints: Integrals, wl: Workload) -> None:
    """MP2-like t1/t2 over the closed-shell reference, saved as .npz."""
    nocc = wl.n_alpha
    eps = np.diag(ints.one_body)
    o, v = slice(0, nocc), slice(nocc, wl.n_orb)
    denom = (eps[o, None, None, None] + eps[None, o, None, None]
             - eps[None, None, v, None] - eps[None, None, None, v])
    ovov = ints.two_body[o, v, o, v].transpose(0, 2, 1, 3)  # (ia|jb) -> [i,j,a,b]
    t2 = ovov / denom
    t2 = 0.5 * (t2 + t2.transpose(1, 0, 3, 2))
    t1 = ints.one_body[o, v] / (eps[o, None] - eps[None, v]) * T1_SCALE
    # savez stamps every zip entry with the fixed 1980 date: bytes repeat
    with open(path, "wb") as fh:
        np.savez(fh, t1=t1, t2=t2)


def write_inputs(wl: Workload, instance: int, directory: Path) -> dict[str, Path]:
    """Write the workload's input files; returns CLI flag -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    ints = random_integrals(wl.n_orb, _generator(wl.name, 0, "model"),
                            _generator(wl.name, instance, "jitter"))
    files = {"--hamiltonian": directory / f"{wl.name}.fcidump"}
    files["--hamiltonian"].write_text(fcidump_text(ints, wl.n_alpha, wl.n_beta))
    if "counts-file" in wl.args:
        files["--counts"] = directory / f"{wl.name}.counts"
        files["--counts"].write_text(product_counts_text(
            ints, wl, _generator(wl.name, instance, "counts")))
    if "lucj" in wl.args:
        files["--amplitudes"] = directory / f"{wl.name}.npz"
        write_amplitudes(files["--amplitudes"], ints, wl)
    return files


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_args(wl: Workload, files: dict[str, Path], instance: int) -> list[str]:
    args = ["run", *wl.args, "--seed", str(instance)]
    for flag, path in files.items():
        args += [flag, str(path)]
    return args
