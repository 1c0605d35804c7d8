"""FCIDUMP reader and writer.

Header: ``&FCI NORB=..,NELEC=..,MS2=..,`` (possibly spanning lines) up to
``&END`` or ``/``; the comma after the last field is optional. NORB above
the 64 orbitals a packed string holds is a :class:`CapacityError`, raised
before the n^4 two-body array is allocated. Body lines are
``value p q r s`` with 1-based indices;
``p q 0 0`` is a one-body entry, ``0 0 0 0`` the core energy, otherwise a
two-body integral (pq|rs) in chemists' notation. ORBSYM/ISYM are parsed
and ignored.
"""

from __future__ import annotations

import re
from typing import TextIO

import numpy as np

from .errors import CapacityError, ConfigError
from .hamiltonian import MAX_ORBITALS_PER_SPIN, ActiveSpaceHamiltonian

_HEADER_KV = re.compile(r"([A-Za-z][A-Za-z0-9]*)\s*=\s*([^,=]+?)(?=\s*(?:,|$))")
_HEADER_END = re.compile(r"&END|/$", re.IGNORECASE)
# The writer leaves out integrals of this magnitude or less.
WRITE_THRESHOLD = 1e-12


def _canonical_key(p, q, r, s):
    pq = (p, q) if p >= q else (q, p)
    rs = (r, s) if r >= s else (s, r)
    return (pq, rs) if pq >= rs else (rs, pq)


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

    core = 0.0
    one = np.zeros((n_orb, n_orb))
    two = np.zeros((n_orb,) * 4)
    seen = {}
    for raw in lines[body_start:]:
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 5:
            raise ConfigError(f"malformed FCIDUMP line: {raw!r}")
        try:
            value = float(parts[0])
            p, q, r, s = (int(x) for x in parts[1:])
        except ValueError as exc:
            raise ConfigError(f"malformed FCIDUMP line: {raw!r}") from exc
        for idx in (p, q, r, s):
            if idx < 0 or idx > n_orb:
                raise ConfigError(f"index out of range [1, NORB] in {raw!r}")
        if p == q == r == s == 0:
            key = ("core",)
            if key in seen and abs(seen[key] - value) > 1e-10:
                raise ConfigError("inconsistent duplicate core-energy entry")
            seen[key] = value
            core = value
        elif r == 0 and s == 0:
            if p == 0 or q == 0:
                raise ConfigError(f"malformed FCIDUMP line: {raw!r}")
            i, j = p - 1, q - 1
            key = ("h", max(i, j), min(i, j))
            if key in seen and abs(seen[key] - value) > 1e-10:
                raise ConfigError(f"inconsistent duplicate one-body entry {raw!r}")
            seen[key] = value
            one[i, j] = value
            one[j, i] = value
        else:
            if 0 in (p, q, r, s):
                raise ConfigError(f"malformed FCIDUMP line: {raw!r}")
            i, j, k, l = p - 1, q - 1, r - 1, s - 1
            key = ("eri",) + _canonical_key(i, j, k, l)
            if key in seen and abs(seen[key] - value) > 1e-10:
                raise ConfigError(f"inconsistent duplicate two-body entry {raw!r}")
            seen[key] = value
            for a, b, c, d in ((i, j, k, l), (j, i, k, l), (i, j, l, k),
                               (j, i, l, k), (k, l, i, j), (l, k, i, j),
                               (k, l, j, i), (l, k, j, i)):
                two[a, b, c, d] = value
    return ActiveSpaceHamiltonian(n_orb=n_orb, n_alpha=n_alpha, n_beta=n_beta,
                                  core_energy=core, one_body=one, two_body=two)


def read_fcidump(path) -> ActiveSpaceHamiltonian:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read FCIDUMP {path}: {exc}") from exc
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
