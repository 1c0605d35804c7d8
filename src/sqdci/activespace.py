"""Orbital ranking and inside-out active-space construction.

Consumes externally produced per-orbital data (density-difference
contribution scores and natural-orbital occupation numbers); computing
those quantities is upstream of this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, reading

DEFAULT_ETA = 1e-3
FRACTIONAL_BAND = (0.02, 1.98)


@dataclass
class OrbitalRanking:
    """Per-orbital scores and occupations, sorted by occupation."""

    contributions: np.ndarray
    occupations: np.ndarray
    order: np.ndarray = field(init=False)  # orbital indices, occupation desc
    hono_position: int = field(init=False)
    luno_position: int = field(init=False)

    def __post_init__(self):
        self.contributions = np.asarray(self.contributions, dtype=float)
        self.occupations = np.asarray(self.occupations, dtype=float)
        if np.any(self.contributions < 0):
            raise ConfigError("contribution scores must be nonnegative")
        if np.any(self.occupations < 0) or np.any(self.occupations > 2):
            raise ConfigError("occupations must lie in [0, 2]")
        # Stable sort: occupation descending, ties by orbital index.
        self.order = np.lexsort((np.arange(len(self.occupations)),
                                 -self.occupations))
        occ_sorted = self.occupations[self.order]
        above = np.nonzero(occ_sorted >= 1.0)[0]
        if len(above) == 0 or len(above) == len(occ_sorted):
            raise ConfigError("need at least one occupied and one unoccupied orbital")
        self.hono_position = int(above[-1])
        self.luno_position = self.hono_position + 1

    @property
    def hono_index(self) -> int:
        return int(self.order[self.hono_position])

    @property
    def luno_index(self) -> int:
        return int(self.order[self.luno_position])


def filter_contributions(scores, eta: float = DEFAULT_ETA) -> list[int]:
    """Indices with score >= eta, by descending score, ties by index."""
    scores = np.asarray(scores, dtype=float)
    if np.any(scores < 0):
        raise ConfigError("scores must be nonnegative")
    kept = [i for i in range(len(scores)) if scores[i] >= eta]
    return sorted(kept, key=lambda i: (-scores[i], i))


def select_inside_out(occupations, target_size: int,
                      fractional_band: tuple[float, float] = FRACTIONAL_BAND
                      ) -> list[int]:
    """Grow an active space outward from the HONO-LUNO pair.

    Selection alternates unoccupied side, occupied side; an odd
    remainder goes to the occupied side. Orbitals with fractional
    occupation (inside ``fractional_band``) are force-included first.
    When one side runs out, the remainder falls to the other side.
    Returns original orbital indices, sorted by occupation-descending
    position.
    """
    ranking = OrbitalRanking(contributions=np.zeros(len(occupations)),
                             occupations=occupations)
    n = len(ranking.occupations)
    if not 2 <= target_size <= n:
        raise ConfigError("target size must be in [2, n_orbitals]")
    occ_sorted = ranking.occupations[ranking.order]

    lo_band, hi_band = fractional_band
    fractional = [pos for pos in range(n)
                  if lo_band <= occ_sorted[pos] <= hi_band]
    selected = set(fractional[:target_size])

    hono, luno = ranking.hono_position, ranking.luno_position
    if len(selected) < target_size and hono not in selected:
        selected.add(hono)
    if len(selected) < target_size and luno not in selected:
        selected.add(luno)

    take_unoccupied = True
    occ_cursor = max((p for p in range(hono + 1) if p not in selected),
                     default=-1)
    vir_cursor = min((p for p in range(luno, n) if p not in selected),
                     default=n)
    remaining = target_size - len(selected)
    if remaining % 2 == 1 and occ_cursor >= 0:
        selected.add(occ_cursor)
        occ_cursor -= 1
        remaining -= 1
    while remaining > 0:
        if take_unoccupied and vir_cursor < n:
            selected.add(vir_cursor)
            vir_cursor += 1
        elif not take_unoccupied and occ_cursor >= 0:
            selected.add(occ_cursor)
            occ_cursor -= 1
        elif vir_cursor < n:
            selected.add(vir_cursor)
            vir_cursor += 1
        elif occ_cursor >= 0:
            selected.add(occ_cursor)
            occ_cursor -= 1
        else:
            break
        remaining = target_size - len(selected)
        take_unoccupied = not take_unoccupied
    return [int(ranking.order[pos]) for pos in sorted(selected)]


def read_orbital_data(path) -> OrbitalRanking:
    """Read `index contribution occupation` lines into a ranking; a file
    that cannot be read is a :class:`ConfigError` by
    :func:`~sqdci.errors.reading`."""
    contributions = {}
    occupations = {}
    with reading(path, "orbital data") as fh:
        lines = fh.readlines()
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ConfigError(f"malformed orbital-data line: {raw!r}")
        try:
            idx = int(parts[0])
            contributions[idx] = float(parts[1])
            occupations[idx] = float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"malformed orbital-data line: {raw!r}") from exc
    if not contributions:
        raise ConfigError("empty orbital-data file")
    n = max(contributions) + 1
    if sorted(contributions) != list(range(n)):
        raise ConfigError("orbital indices must cover 0..n-1")
    return OrbitalRanking(
        contributions=np.array([contributions[i] for i in range(n)]),
        occupations=np.array([occupations[i] for i in range(n)]))
