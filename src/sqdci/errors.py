"""Exception types shared across the package.

Each maps to a distinct CLI exit code (see :mod:`sqdci.cli`).
"""


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
