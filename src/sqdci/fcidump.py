"""FCIDUMP reader and writer.

Header: ``&FCI NORB=..,NELEC=..,MS2=..,`` (possibly spanning lines) up to
``&END`` or ``/``; the comma after the last field is optional. NORB above
the 64 orbitals a packed string holds is a :class:`CapacityError`, raised
before the n^4 two-body array is allocated. Body lines are
``value p q r s`` with 1-based indices;
``p q 0 0`` is a one-body entry, ``0 0 0 0`` the core energy, otherwise a
two-body integral (pq|rs) in chemists' notation. ORBSYM/ISYM are parsed
and ignored. Numbers are ASCII, with no ``D`` exponent or underscore. An
entry repeated as any member of its 8-fold orbit must match the previous
one to 1e-10; the last is kept.
"""

from __future__ import annotations

import re
from typing import TextIO

import numpy as np

from .errors import CapacityError, ConfigError, reading
from .hamiltonian import (MAX_ORBITALS_PER_SPIN, ActiveSpaceHamiltonian,
                          pair_index)

_HEADER_KV = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*([^,=]+?)(?=\s*(?:,|$))")
_HEADER_END = re.compile(r"&END|/$", re.IGNORECASE)
_BODY_DTYPE = np.dtype([("value", np.float64), ("index", np.int64, (4,))])
# The writer leaves out integrals of this magnitude or less.
WRITE_THRESHOLD = 1e-12


def parse_fcidump(text: str) -> ActiveSpaceHamiltonian:
    """Parse FCIDUMP text into an :class:`ActiveSpaceHamiltonian`."""
    lines = text.splitlines()
    header_parts = []
    body_start = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        end = _HEADER_END.search(stripped)
        if end:
            # Cut the terminator, so a last field with no comma parses.
            header_parts.append(stripped[:end.start()])
            body_start = i + 1
            break
        header_parts.append(stripped)
    if body_start is None:
        raise ConfigError("malformed FCIDUMP header: no &END terminator")
    header = " ".join(header_parts)
    if "&FCI" not in header.upper():
        raise ConfigError("malformed FCIDUMP header: missing &FCI")

    fields = {}
    for key, value in _HEADER_KV.findall(header):
        fields[key.upper()] = value.strip()
    try:
        n_orb = int(fields["NORB"])
        n_elec = int(fields["NELEC"])
        ms2 = int(fields.get("MS2", "0"))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed FCIDUMP header: {exc}") from exc
    if n_orb <= 0:
        raise ConfigError("NORB must be positive")
    if n_orb > MAX_ORBITALS_PER_SPIN:
        raise CapacityError(
            f"NORB={n_orb} exceeds {MAX_ORBITALS_PER_SPIN} orbitals")
    if (n_elec + ms2) % 2 != 0:
        raise ConfigError("inconsistent electron/spin count (NELEC+MS2 odd)")
    n_alpha = (n_elec + ms2) // 2
    n_beta = (n_elec - ms2) // 2

    body = [line for line in lines[body_start:] if line.strip()]
    try:
        rows = (np.loadtxt(body, dtype=_BODY_DTYPE, comments=None, ndmin=1)
                if body else np.zeros(0, _BODY_DTYPE))
    except ValueError as exc:
        # loadtxt counts rows from 0 for a bad field, from 1 for a bad count.
        at = re.search(r"at row (\d+)(, column)?", str(exc))
        where = body[int(at[1]) - (at[2] is None)] if at else str(exc)
        raise ConfigError(f"malformed FCIDUMP line: {where!r}") from exc
    # idx[0] is every line's p, and so on: numpy reduces a short axis slowly.
    value, idx = rows["value"], rows["index"].T.copy()
    # Which of p q r s are 0, as bits: 0b1111 core, 0b0011 one-body, 0 two-body.
    zeros = [8, 4, 2, 1] @ (idx == 0)
    # One key per 8-fold orbit, the pair number of (pq, rs). Index 0 enters
    # only as the pair (0, 0), so core, one-body and two-body keys differ.
    key = pair_index(pair_index(idx[0], idx[1]), pair_index(idx[2], idx[3]))
    order = np.argsort(key, kind="stable")
    earlier, later = order[:-1], order[1:]
    repeat = key[earlier] == key[later]
    with np.errstate(invalid="ignore"):  # inf - inf is nan: no disagreement
        clash = repeat & (np.abs(value[earlier] - value[later]) > 1e-10)
    # Each line's faults, in the order a line is checked.
    bad = np.stack([((idx < 0) | (idx > n_orb)).any(axis=0),
                    (zeros != 0) & (zeros != 0b0011) & (zeros != 0b1111),
                    np.bincount(later[clash], minlength=len(key)) > 0])
    if bad.any():
        row = bad.any(axis=0).argmax()
        fault = ("index out of range [1, NORB] in", "malformed FCIDUMP line:",
                 "inconsistent duplicate entry")[bad[:, row].argmax()]
        raise ConfigError(f"{fault} {body[row]!r}")
    # A key's last line holds its value, as if the lines were written in
    # turn: a fancy assignment with repeated indices leaves it undefined.
    keep = np.bincount(earlier[repeat], minlength=len(key)) == 0
    value, idx, zeros = value[keep], idx[:, keep], zeros[keep]
    core = float(next(iter(value[zeros == 0b1111]), 0.0))
    one = np.zeros((n_orb, n_orb))
    i, j = idx[:2, zeros == 0b0011] - 1
    one[i, j] = one[j, i] = value[zeros == 0b0011]
    two = np.zeros((n_orb,) * 4)
    i, j, k, l = idx[:, zeros == 0] - 1
    for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                       (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)):
        two[a, b, c, d] = value[zeros == 0]
    return ActiveSpaceHamiltonian(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_beta,
                                  core_energy=core, one_body=one, two_body=two)


def read_fcidump(path) -> ActiveSpaceHamiltonian:
    """Parse the FCIDUMP file ``path``; one that cannot be read is a
    :class:`ConfigError` by :func:`~sqdci.errors.reading`."""
    with reading(path, "FCIDUMP") as fh:
        text = fh.read()
    return parse_fcidump(text)


def write_fcidump(ham: ActiveSpaceHamiltonian, fh: TextIO) -> None:
    """Write canonical entries only: one representative per 8-fold orbit,
    magnitudes above ``WRITE_THRESHOLD``."""
    n = ham.n_orb
    ms2 = ham.n_alpha - ham.n_beta
    fh.write(f"&FCI NORB={n},NELEC={ham.n_alpha + ham.n_beta},MS2={ms2},\n")
    fh.write("ORBSYM=" + ",".join("1" * n) + ",\nISYM=1,\n&END\n")
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                # (pq|rs) with pair (r, s) at most (p, q): once per orbit.
                for s in range(q if r == p else 0, r + 1):
                    val = float(ham.two_body[p, q, r, s])
                    if abs(val) > WRITE_THRESHOLD:
                        fh.write(f"{val!r} {p + 1} {q + 1} {r + 1} {s + 1}\n")
    for p in range(n):
        for q in range(p + 1):
            val = float(ham.one_body[p, q])
            if abs(val) > WRITE_THRESHOLD:
                fh.write(f"{val!r} {p + 1} {q + 1} 0 0\n")
    if abs(ham.core_energy) > WRITE_THRESHOLD:
        fh.write(f"{float(ham.core_energy)!r} 0 0 0 0\n")


def write_fcidump_path(ham: ActiveSpaceHamiltonian, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_fcidump(ham, fh)
