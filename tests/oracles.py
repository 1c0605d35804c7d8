"""Independent brute-force reference implementations used by the tests.

Everything here is written directly from the second-quantized operator
definitions, with no code shared with the package, so any sign or
ordering convention in the implementation is pinned against these.

Fock states are encoded as 2n-bit integers over spin-orbitals: bits
[0, n) are the alpha orbitals, bits [n, 2n) the beta orbitals, matching
the package's "all alpha ascending, then all beta" ordering.

The one exception is the per-determinant LUCJ reference, which takes the
package's Givens factorisation of an orbital rotation U: it pins how the
grid applies the factors, and the factorisation itself is pinned against
scipy's expm of the second-quantized generator.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np
from scipy.stats import binom

from sqdci.errors import CapacityError, ConfigError
from sqdci.sampler import _givens_decompose


class Determinant(NamedTuple):
    """One configuration as Python ints: the alpha and beta occupation
    bitmasks, bit p for orbital p (the layout of a basis row)."""

    alpha: int
    beta: int


def hartree_fock_determinant(n_alpha: int, n_beta: int) -> Determinant:
    """Lowest-orbital filling of each spin: the restricted HF reference."""
    return Determinant((1 << n_alpha) - 1, (1 << n_beta) - 1)


def det_to_state(det, n_orb: int) -> int:
    alpha, beta = map(int, det)
    return alpha | (beta << n_orb)


def determinant_to_bitstring(det, n_orb: int) -> str:
    """Counts-file bitstring of (alpha, beta): alpha bits 0..n-1, then beta."""
    alpha, beta = map(int, det)
    return ("".join("1" if alpha >> i & 1 else "0" for i in range(n_orb))
            + "".join("1" if beta >> i & 1 else "0" for i in range(n_orb)))


def bitstring_to_determinant(bits: str, n_orb: int) -> tuple[int, int]:
    if len(bits) != 2 * n_orb:
        raise ValueError("bitstring length does not match 2 * n_orb")
    return (sum(1 << i for i in range(n_orb) if bits[i] == "1"),
            sum(1 << i for i in range(n_orb) if bits[n_orb + i] == "1"))


def _parity_below(state: int, q: int) -> int:
    return -1 if (state & ((1 << q) - 1)).bit_count() & 1 else 1


def destroy(state: int, q: int):
    if not state >> q & 1:
        return None
    return state ^ (1 << q), _parity_below(state, q)


def create(state: int, q: int):
    if state >> q & 1:
        return None
    return state ^ (1 << q), _parity_below(state, q)


def apply_operator_string(state: int, ops):
    """Apply (kind, spin_orbital) pairs right-to-left; None if annihilated."""
    sign = 1
    for kind, q in reversed(ops):
        result = destroy(state, q) if kind == "-" else create(state, q)
        if result is None:
            return None
        state, s = result
        sign *= s
    return state, sign


def brute_force_matrix(ham, dets) -> np.ndarray:
    """Dense <i|H|j> over ``dets`` by explicit operator application.

    H = E0 + sum_{pq,s} h[p,q] a+_{ps} a_{qs}
        + 1/2 sum_{pqrs,st} (pq|rs) a+_{ps} a+_{rt} a_{st} a_{qs}
    """
    n = ham.n_orb
    states = [det_to_state(d, n) for d in dets]
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    h = ham.one_body
    eri = ham.two_body
    mat = np.zeros((dim, dim))
    for j, sj in enumerate(states):
        mat[index[sj], j] += ham.core_energy
        for sigma in (0, 1):
            off = sigma * n
            for p in range(n):
                for q in range(n):
                    if h[p, q] == 0.0:
                        continue
                    res = apply_operator_string(
                        sj, [("+", p + off), ("-", q + off)])
                    if res is None:
                        continue
                    out, sign = res
                    i = index.get(out)
                    if i is not None:
                        mat[i, j] += sign * h[p, q]
        for sigma in (0, 1):
            for tau in (0, 1):
                offs, offt = sigma * n, tau * n
                for p in range(n):
                    for q in range(n):
                        for r in range(n):
                            for s in range(n):
                                v = eri[p, q, r, s]
                                if v == 0.0:
                                    continue
                                res = apply_operator_string(
                                    sj, [("+", p + offs), ("+", r + offt),
                                         ("-", s + offt), ("-", q + offs)])
                                if res is None:
                                    continue
                                out, sign = res
                                i = index.get(out)
                                if i is not None:
                                    mat[i, j] += 0.5 * sign * v
    return mat


def one_rdm_alpha(vector, dets, n_orb: int) -> np.ndarray:
    """D[p,q] = <Psi| a+_{p alpha} a_{q alpha} |Psi> by brute force."""
    states = [det_to_state(d, n_orb) for d in dets]
    index = {s: i for i, s in enumerate(states)}
    vec = np.asarray(vector)
    dm = np.zeros((n_orb, n_orb), dtype=complex)
    for j, sj in enumerate(states):
        if vec[j] == 0:
            continue
        for p in range(n_orb):
            for q in range(n_orb):
                res = apply_operator_string(sj, [("+", p), ("-", q)])
                if res is None:
                    continue
                out, sign = res
                i = index.get(out)
                if i is not None:
                    dm[p, q] += np.conj(vec[i]) * sign * vec[j]
    return dm.real if np.allclose(dm.imag, 0, atol=1e-12) else dm


def excitation_degree(d1, d2) -> int:
    """Number of spin-orbital moves between two determinants."""
    (a1, b1), (a2, b2) = map(int, d1), map(int, d2)
    return ((a1 ^ a2).bit_count() + (b1 ^ b2).bit_count()) // 2


def exhaustive_connected(ham, det, dets, cutoff=0.0):
    """All (other, element) with degree 1-2 and |element| above cutoff,
    using the brute-force matrix for values."""
    mat = brute_force_matrix(ham, dets)
    j = dets.index(det)
    out = []
    for i, other in enumerate(dets):
        if other == det or not 1 <= excitation_degree(det, other) <= 2:
            continue
        if mat[i, j] != 0.0 and abs(mat[i, j]) >= cutoff:
            out.append((other, mat[i, j]))
    return out


def _between_sign(bits: int, p: int, q: int) -> int:
    lo, hi = min(p, q), max(p, q)
    return -1 if (bits >> (lo + 1) & ((1 << (hi - lo - 1)) - 1)).bit_count() & 1 else 1


def _orbitals(bits: int, n_orb: int) -> tuple[list[int], list[int]]:
    """Occupied and virtual orbitals of one spin string, ascending."""
    return ([p for p in range(n_orb) if bits >> p & 1],
            [p for p in range(n_orb) if not bits >> p & 1])


def _with_string(det, spin: int, bits: int) -> tuple[int, int]:
    """``det`` with its alpha (spin 0) or beta (spin 1) string replaced."""
    return (bits, det[1]) if spin == 0 else (det[0], bits)


def excitations(det, n_orb: int, doubles: bool = True) -> list[tuple[int, int]]:
    """Determinants one spin-orbital move from ``det`` (and two, with ``doubles``).

    Purely combinatorial (no integral screening); stays in the sector of
    ``det`` by construction and lists each determinant once, never
    ``det`` itself.
    """
    strings = tuple(map(int, det))
    orbs = [_orbitals(bits, n_orb) for bits in strings]
    singles = [[bits ^ (1 << h) ^ (1 << p) for h in occ for p in vir]
               for bits, (occ, vir) in zip(strings, orbs)]
    out = [_with_string(strings, spin, bits)
           for spin in (0, 1) for bits in singles[spin]]
    if doubles:
        for spin, (occ, vir) in enumerate(orbs):
            out += [_with_string(strings, spin, strings[spin] ^ (1 << h1)
                                 ^ (1 << h2) ^ (1 << p1) ^ (1 << p2))
                    for h1, h2 in itertools.combinations(occ, 2)
                    for p1, p2 in itertools.combinations(vir, 2)]
        out += [(a, b) for a in singles[0] for b in singles[1]]
    return out


def _double_move(bits: int, h1: int, h2: int, p1: int,
                 p2: int) -> tuple[int, int]:
    """String and sign after the ordered product E_{p2 h2} E_{p1 h1}."""
    moved = bits ^ (1 << h1) ^ (1 << p1)
    return (moved ^ (1 << h2) ^ (1 << p2),
            _between_sign(bits, h1, p1) * _between_sign(moved, h2, p2))


def _single_element(ham, same, other, hole, particle):
    """Element of the move hole -> particle on the spin string ``same``.

    ``other`` is the opposite-spin string of the same determinant.
    """
    h = ham.one_body
    eri = ham.two_body
    val = h[hole, particle]
    for i in _orbitals(same, ham.n_orb)[0]:
        if i == hole:
            continue
        val += eri[hole, particle, i, i] - eri[hole, i, i, particle]
    for i in _orbitals(other, ham.n_orb)[0]:
        val += eri[hole, particle, i, i]
    return val * _between_sign(same, hole, particle)


def reference_connected(ham, det, magnitude_cutoff: float = 0.0):
    """((alpha, beta), <d'|H|d>) over the singles and doubles of ``det``,
    one determinant at a time: the reference heat-bath generator.

    Singles are kept when the exact element magnitude reaches the cutoff.
    Doubles are screened on the integral magnitude before the parity
    sign (heat-bath criterion); the returned value is the exact signed
    element. Exact zeros are dropped. Order: alpha singles, beta singles,
    alpha-alpha, beta-beta, then alpha-beta doubles.
    """
    eri = ham.two_body
    strings = (det.alpha, det.beta)
    orbs = [_orbitals(bits, ham.n_orb) for bits in strings]
    out = []

    def with_string(spin, bits):
        return (bits, det.beta) if spin == 0 else (det.alpha, bits)

    for spin, (occ, vir) in enumerate(orbs):
        same, other = strings[spin], strings[1 - spin]
        for hole in occ:
            for part in vir:
                val = _single_element(ham, same, other, hole, part)
                if val != 0.0 and abs(val) >= magnitude_cutoff:
                    new = same ^ (1 << hole) ^ (1 << part)
                    out.append((with_string(spin, new), float(val)))

    for spin, (occ, vir) in enumerate(orbs):
        bits = strings[spin]
        for h1, h2 in itertools.combinations(occ, 2):
            for p1, p2 in itertools.combinations(vir, 2):
                mag = eri[h1, p1, h2, p2] - eri[h1, p2, h2, p1]
                if mag == 0.0 or abs(mag) < magnitude_cutoff:
                    continue
                new, sign = _double_move(bits, h1, h2, p1, p2)
                out.append((with_string(spin, new), float(sign * mag)))

    (occ_a, vir_a), (occ_b, vir_b) = orbs
    for ha in occ_a:
        for pa in vir_a:
            sa = _between_sign(det.alpha, ha, pa)
            new_a = det.alpha ^ (1 << ha) ^ (1 << pa)
            for hb in occ_b:
                for pb in vir_b:
                    mag = eri[ha, pa, hb, pb]
                    if mag == 0.0 or abs(mag) < magnitude_cutoff:
                        continue
                    sb = _between_sign(det.beta, hb, pb)
                    out.append(((new_a, det.beta ^ (1 << hb) ^ (1 << pb)),
                                float(sa * sb * mag)))
    return out


def spin_string_tables(ham, strings) -> dict:
    """Per-string loop over the singles and same-spin doubles of one
    spin's sorted distinct ``strings`` that land among them.

    Each source lists its singles and its doubles by ascending target;
    the double h1 h2 -> p1 p2 (h1 < h2, p1 < p2) is the ordered product
    E_{p2 h2} E_{p1 h1}. A single's value is its same-spin element, sign
    included, h[h,p] + sum over the other occupied i of (hp|ii) - (hi|ip).
    Returns the fields of the package's string tables.
    """
    n = ham.n_orb
    h, eri = ham.one_body, ham.two_body
    where = {bits: k for k, bits in enumerate(strings)}
    singles, doubles = [], []
    single_start, double_start = [0], [0]
    for bits in strings:
        first_single, first_double = len(singles), len(doubles)
        occ = [p for p in range(n) if bits >> p & 1]
        vir = [p for p in range(n) if not bits >> p & 1]
        for hole in occ:
            for part in vir:
                target = where.get(bits ^ (1 << hole) ^ (1 << part))
                if target is None:
                    continue
                val = h[hole, part]
                for i in occ:
                    if i != hole:
                        val += eri[hole, part, i, i] - eri[hole, i, i, part]
                sign = _between_sign(bits, hole, part)
                singles.append((target, hole, part, sign, sign * val))
        for a, h1 in enumerate(occ):
            for h2 in occ[a + 1:]:
                for b, p1 in enumerate(vir):
                    for p2 in vir[b + 1:]:
                        moved = bits ^ (1 << h1) ^ (1 << p1)
                        target = where.get(moved ^ (1 << h2) ^ (1 << p2))
                        if target is None:
                            continue
                        sign = (_between_sign(bits, h1, p1)
                                * _between_sign(moved, h2, p2))
                        doubles.append((target, sign * (eri[h1, p1, h2, p2]
                                                         - eri[h1, p2, h2, p1])))
        singles[first_single:] = sorted(singles[first_single:])
        doubles[first_double:] = sorted(doubles[first_double:])
        single_start.append(len(singles))
        double_start.append(len(doubles))
    single = np.array(singles, dtype=float).reshape(-1, 5).T
    double = np.array(doubles, dtype=float).reshape(-1, 2).T
    return {"single_start": np.array(single_start, dtype=np.int64),
            "single_target": single[0].astype(np.int64),
            "single_hole": single[1].astype(np.int64),
            "single_particle": single[2].astype(np.int64),
            "single_sign": single[3], "single_value": single[4],
            "double_start": np.array(double_start, dtype=np.int64),
            "double_target": double[0].astype(np.int64),
            "double_value": double[1]}


def valid_probability_after_flips(n_orb: int, n_alpha: int, n_beta: int,
                                  p: float) -> float:
    """P(a sector-valid bitstring stays sector-valid) under iid bit flips.

    Per spin half with k set bits out of n, the weight is preserved iff
    the number of 1->0 flips equals the number of 0->1 flips; the halves
    are independent.
    """
    def stay(k):
        j = np.arange(0, min(k, n_orb - k) + 1)
        return float(np.sum(binom.pmf(j, k, p) * binom.pmf(j, n_orb - k, p)))

    return stay(n_alpha) * stay(n_beta)


def total_variation(counts, probabilities, bitstrings) -> float:
    """TV distance between empirical counts and a model distribution."""
    total = sum(counts.entries.values())
    model = dict(zip(bitstrings, probabilities))
    keys = set(counts.entries) | set(model)
    return 0.5 * sum(abs(counts.entries.get(k, 0) / total - model.get(k, 0.0))
                     for k in keys)


def one_body_operator_matrix(coeff: np.ndarray, dets, n_orb: int) -> np.ndarray:
    """Matrix of sum_{pq,s} C[p,q] a+_{ps} a_{qs} over a determinant list."""
    states = [det_to_state(d, n_orb) for d in dets]
    index = {s: i for i, s in enumerate(states)}
    dim = len(states)
    mat = np.zeros((dim, dim))
    for j, sj in enumerate(states):
        for sigma in (0, 1):
            off = sigma * n_orb
            for p in range(n_orb):
                for q in range(n_orb):
                    if coeff[p, q] == 0.0:
                        continue
                    res = apply_operator_string(
                        sj, [("+", p + off), ("-", q + off)])
                    if res is None:
                        continue
                    out, sign = res
                    i = index.get(out)
                    if i is not None:
                        mat[i, j] += sign * coeff[p, q]
    return mat


def density_density_phases(J: np.ndarray, dets, n_orb: int) -> np.ndarray:
    """phi_d = sum_{p sigma, r tau} J[ps, rt] <d|n_ps n_rt|d> per determinant."""
    phases = np.zeros(len(dets))
    for i, det in enumerate(dets):
        alpha, beta = map(int, det)
        occ = np.zeros(2 * n_orb)
        for p in range(n_orb):
            if alpha >> p & 1:
                occ[p] = 1.0
            if beta >> p & 1:
                occ[n_orb + p] = 1.0
        phases[i] = occ @ J @ occ
    return phases


def read_counts_dict_merge(path):
    """Counts file as (n_qubits, alpha, beta, count) lists of Python ints,
    rows in sorted-bitstring order, read line by line into a
    ``{bitstring: count}`` dict: repeated lines add up and zero-count lines
    are kept. Refused files raise the error class ``read_counts`` does."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = list(fh)
    except UnicodeDecodeError as exc:
        raise ConfigError("not UTF-8") from exc
    header = lines[0].strip() if lines else ""
    if not header.startswith("n_qubits="):
        raise ConfigError("no header")
    try:
        n_qubits = int(header[len("n_qubits="):])
    except ValueError as exc:
        raise ConfigError("bad header") from exc
    merged: dict[str, int] = {}
    for line in lines[1:]:
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 2 or len(fields[0]) != n_qubits:
            raise ConfigError("bad line")
        bits, text = fields
        if any(c not in "01" for c in bits):
            raise ConfigError("bad bitstring")
        try:
            count = int(text)
        except ValueError as exc:
            raise ConfigError("bad count") from exc
        if count < 0:
            raise ConfigError("negative count")
        merged[bits] = merged.get(bits, 0) + count
    width = n_qubits // 2
    if n_qubits < 0:
        raise ConfigError("negative n_qubits")
    if n_qubits - width > 64:
        raise CapacityError("over 64 orbitals per spin")
    if sum(merged.values()) >= 2**63:
        raise ConfigError("total over 64 bits")
    keys = sorted(merged)
    alpha = [sum(1 << i for i, c in enumerate(k[:width]) if c == "1")
             for k in keys]
    beta = [sum(1 << i for i, c in enumerate(k[width:]) if c == "1")
            for k in keys]
    return n_qubits, alpha, beta, [merged[k] for k in keys]


def readout_noise_per_key(entries: dict, n_qubits: int, p: float,
                          gen: np.random.Generator) -> dict:
    """Per-key readout noise: keys in sorted order, each of its ``count``
    shots flips bit i when its i-th uniform of ``gen`` is below ``p``."""
    out: dict[str, int] = {}
    for key in sorted(entries):
        bits = np.frombuffer(key.encode(), dtype=np.uint8) - ord("0")
        flips = gen.random((entries[key], n_qubits)) < p
        rows = bits[None, :] ^ flips.astype(np.uint8)
        uniq, mult = np.unique(rows, axis=0, return_counts=True)
        for row, m in zip(uniq, mult):
            s = "".join("1" if b else "0" for b in row)
            out[s] = out.get(s, 0) + int(m)
    return out


def readout_noise_gap_walk(entries: dict, n_qubits: int, p: float,
                           gen: np.random.Generator) -> dict:
    """Readout noise as a walk over the (key, shot, bit) cells, keys in
    sorted order: the first flipped cell is cell ``gen.geometric(p)`` - 1
    and each next one lies ``gen.geometric(p)`` cells further, drawn one at
    a time. Positions are Python ints, so no sum wraps."""
    out: dict[str, int] = {}
    flip = int(gen.geometric(p)) - 1  # from the first cell of the key
    for key in sorted(entries):
        cells = entries[key] * n_qubits
        flipped: dict[int, list[int]] = {}
        while flip < cells:
            shot, bit = divmod(flip, n_qubits)
            flipped.setdefault(shot, []).append(bit)
            flip += int(gen.geometric(p))
        flip -= cells
        if entries[key] > len(flipped):
            out[key] = out.get(key, 0) + entries[key] - len(flipped)
        for bits in flipped.values():
            row = list(key)
            for bit in bits:
                row[bit] = "1" if row[bit] == "0" else "0"
            moved = "".join(row)
            out[moved] = out.get(moved, 0) + 1
    return out


def _repair_half(bits: list[int], target: int, occ: np.ndarray,
                 gen: np.random.Generator, eps: float = 1e-6) -> None:
    weight = sum(bits)
    while weight > target:
        candidates = [p for p in range(len(bits)) if bits[p]]
        weights = np.array([1.0 - occ[p] + eps for p in candidates])
        pick = candidates[gen.choice(len(candidates), p=weights / weights.sum())]
        bits[pick] = 0
        weight -= 1
    while weight < target:
        candidates = [p for p in range(len(bits)) if not bits[p]]
        weights = np.array([occ[p] + eps for p in candidates])
        pick = candidates[gen.choice(len(candidates), p=weights / weights.sum())]
        bits[pick] = 1
        weight += 1


def recovery_per_shot(entries: dict, occupations: np.ndarray, n_alpha: int,
                      n_beta: int, gen: np.random.Generator) -> dict:
    """Per-shot configuration recovery: each excess (missing) bit of a half
    is cleared (set) one at a time, drawn with probability proportional to
    1 - <n_p> + eps (<n_p> + eps) among the remaining candidates."""
    n = len(occupations) // 2
    out: dict[str, int] = {}
    for key in sorted(entries):
        for _ in range(entries[key]):
            alpha = [1 if key[p] == "1" else 0 for p in range(n)]
            beta = [1 if key[n + p] == "1" else 0 for p in range(n)]
            _repair_half(alpha, n_alpha, occupations[:n], gen)
            _repair_half(beta, n_beta, occupations[n:], gen)
            repaired = "".join(map(str, alpha + beta))
            out[repaired] = out.get(repaired, 0) + 1
    return out


def recovery_per_row(entries: dict, occupations: np.ndarray, n_alpha: int,
                     n_beta: int, gen: np.random.Generator) -> dict:
    """Per-row configuration recovery in rounds, from the keys in sorted
    order, the alpha half first, then the beta half. In a round, the rows
    whose half is on target stay, in order; after them, each other row in
    turn draws ``gen.multinomial(count, w / sum(w))`` over its candidate
    bits, ascending (set bits with w = 1 - <n_p> + eps when it has too
    many, clear ones with w = <n_p> + eps when too few; the sum runs left
    to right), and each chosen bit, flipped, makes a row with its drawn
    count."""
    eps = 1e-6
    n = len(occupations) // 2
    rows = [(list(key), count) for key, count in sorted(entries.items())]
    for half, target in ((range(n), n_alpha), (range(n, 2 * n), n_beta)):
        def excess(bits):
            return sum(bits[p] == "1" for p in half) - target
        while any(excess(bits) for bits, _ in rows):
            children = []
            for bits, count in rows:
                if not excess(bits):
                    continue
                candidates = [p for p in half
                              if (bits[p] == "1") == (excess(bits) > 0)]
                w = [1.0 - occupations[p] + eps if excess(bits) > 0
                     else occupations[p] + eps for p in candidates]
                total = 0.0
                for x in w:
                    total += x
                drawn = gen.multinomial(count, [x / total for x in w])
                for p, m in zip(candidates, drawn.tolist()):
                    if m:
                        child = bits.copy()
                        child[p] = "0" if bits[p] == "1" else "1"
                        children.append((child, m))
            rows = [row for row in rows if not excess(row[0])] + children
    out: dict[str, int] = {}
    for bits, count in rows:
        key = "".join(bits)
        out[key] = out.get(key, 0) + count
    return out


def sector_determinants(n_orb: int, n_alpha: int, n_beta: int) -> list:
    """(alpha, beta) pairs of the sector, alpha strings ascending, then beta."""
    def strings(k):
        return sorted(sum(1 << p for p in occ)
                      for occ in itertools.combinations(range(n_orb), k))
    return [(a, b) for a in strings(n_alpha) for b in strings(n_beta)]


def _givens_per_determinant(amps, dets, index, orbital, theta, spin):
    """Rotate amplitudes in the adjacent orbital plane (orbital, orbital+1)."""
    c, s = np.cos(theta), np.sin(theta)
    a_bit, b_bit = 1 << orbital, 1 << (orbital + 1)
    for i, det in enumerate(dets):
        bits = det[spin]
        # Act once per mixed pair: pick the representative with the upper
        # orbital occupied and the lower one empty.
        if not (bits & b_bit and not bits & a_bit):
            continue
        flipped = bits ^ a_bit ^ b_bit
        j = index[(flipped, det[1]) if spin == 0 else (det[0], flipped)]
        # Adjacent orbitals: no occupied orbital lies strictly between,
        # so the fermionic parity is +1.
        ci, cj = amps[i], amps[j]
        amps[i] = c * ci - s * cj
        amps[j] = s * ci + c * cj


def orbital_rotation_per_determinant(amps, dets, rotation) -> np.ndarray:
    """The orthogonal rotation U on both spins of amplitudes over ``dets``,
    one determinant and one Givens pair at a time through a dict index."""
    rotations, signs = _givens_decompose(np.asarray(rotation, dtype=float))
    amps = np.array(amps, dtype=complex)
    index = {d: i for i, d in enumerate(dets)}
    # U = G_1^T ... G_m^T D: apply D first, then rotations in reverse
    # with negated angles.
    flipped = [p for p, sign in enumerate(signs) if sign < 0]
    for i, (alpha, beta) in enumerate(dets):
        if sum((alpha >> p & 1) + (beta >> p & 1) for p in flipped) & 1:
            amps[i] = -amps[i]
    for orbital, theta in reversed(rotations):
        _givens_per_determinant(amps, dets, index, orbital, -theta, spin=0)
        _givens_per_determinant(amps, dets, index, orbital, -theta, spin=1)
    return amps


def lucj_amplitudes_per_determinant(params, n_orb: int, n_alpha: int,
                                    n_beta: int) -> np.ndarray:
    """The LUCJ statevector over :func:`sector_determinants`: from the RHF
    determinant, each layer's rotation U then exp(i J n n)."""
    dets = sector_determinants(n_orb, n_alpha, n_beta)
    amps = np.zeros(len(dets), dtype=complex)
    amps[dets.index(((1 << n_alpha) - 1, (1 << n_beta) - 1))] = 1.0
    for U, J in params.layers:
        amps = orbital_rotation_per_determinant(amps, dets, U)
        if J is not None:
            amps = amps * np.exp(1j * density_density_phases(J, dets, n_orb))
    return amps
