"""Exception types shared across the package.

Each maps to a distinct CLI exit code (see :mod:`sqdci.cli`). Every text
input is opened by :func:`reading`, the one place where a file that
cannot be read becomes a :class:`ConfigError` (exit 2).
"""

from contextlib import contextmanager


class SqdciError(Exception):
    """Base class for package errors."""


class ConfigError(SqdciError):
    """Invalid configuration, file format, or inconsistent input."""


class ConvergenceError(SqdciError):
    """An iterative solver failed to converge within its budget."""


class CapacityError(SqdciError):
    """A basis or subspace exceeds a configured size cap."""


def check_budget(what: str, need: float, budget: float) -> None:
    """Raise :class:`CapacityError` when ``need`` bytes pass ``budget``."""
    if need > budget:
        raise CapacityError(f"{what} needs about {need / 2**30:.1f} GiB, over "
                            f"the {budget / 2**30:.1f} GiB budget")


class EmptyValidSampleError(SqdciError):
    """No sampled configuration has the correct Hamming weights."""


@contextmanager
def reading(path, what: str):
    """The open UTF-8 text handle of the ``what`` file ``path``. An
    ``OSError`` (missing file, directory), ``ValueError`` (not UTF-8, or
    refused by a parser such as ``json.load``) or ``RecursionError``
    (nested too deep) raised while the ``with`` body reads becomes a
    :class:`ConfigError` naming the file; a :class:`SqdciError` passes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
