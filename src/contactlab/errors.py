"""Exception types shared across the package."""


class ContactLabError(Exception):
    """Base class for all package errors."""


class SpaceError(ContactLabError, ValueError):
    """Malformed state-space description (bad weights, duplicates, empty)."""


class ModelError(ContactLabError, ValueError):
    """Malformed rate model (shape mismatch, negative rates, unknown form)."""


class ConvergenceError(ContactLabError, RuntimeError):
    """An iterative solver failed to reach its tolerance."""


class ReducibleKernelError(ConvergenceError):
    """Power iteration produced an eigenvector with entries at the positivity floor."""


class DivergenceError(ContactLabError, RuntimeError):
    """A time integral failed to converge (recurrent / non-transient model).

    Carries growth diagnostics in ``.diagnostics``.
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class ConfigError(ContactLabError, ValueError):
    """Invalid experiment or model configuration file."""


def _check_entries(what: str, entries: int, cap: int, name: str) -> None:
    """Raise ModelError when ``what`` needs more than ``cap`` entries: the
    size check before an allocation that a config sets."""
    if entries > cap:
        raise ModelError(f"{what} need {entries} entries, over {name} = {cap}")


def _check_tensors(what: str, times: int, size: int, orders, cap: int, name: str) -> None:
    """``_check_entries`` on ``times`` tensors over ``size`` points, one of
    each order n of the ascending ``orders`` (a list or a range): ``times *
    sum(size ** n)`` entries.  On two points or more an order past the
    cap's bit length is over the cap alone, and its power is never formed."""
    if size > 1 and orders[-1] > cap.bit_length():
        raise ModelError(f"{what} need over {size}^{orders[-1]} entries, over {name} = {cap}")
    entries = len(orders) if size == 1 else sum(size ** n for n in orders)
    _check_entries(what, times * entries, cap, name)
