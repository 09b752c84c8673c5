"""The input contract of every public entry point, in one place.

Each check returns the value in the form the caller computes with, or raises
an error that names the argument and the value.  A value of the wrong kind is
an error like a value out of range: a bool, complex number, string, ``None``,
list or array where one real number is wanted raises ``DomainError``.
"""

from __future__ import annotations

import math
import numbers
from reprlib import repr as _shown  # cut short: a message may quote a long list

import numpy as np

from .errors import DomainError

# The smallest positive float: ``lo=POSITIVE`` admits exactly the floats > 0.
POSITIVE = math.ulp(0.0)
_FLOAT = np.dtype(float)


def real(name: str, v, lo: float | None = None, hi: float | None = None) -> float:
    """v as a float, finite and within [lo, hi] where given."""
    if type(v) is not float:  # a NumPy float64 is a float: no ABC check
        if not isinstance(v, float) and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
            raise DomainError(f"{name} must be a real number, got {_shown(v)}")
        try:
            v = float(v)
        except OverflowError:  # an int past the float range
            raise DomainError(f"{name} = {_shown(v)} lies beyond the float range") from None
    if not math.isfinite(v):
        raise DomainError(f"{name} must be finite, got {_shown(v)}")
    if lo is not None and v < lo:
        raise DomainError(f"{name} must be positive, got {v!r}" if lo == POSITIVE
                          else f"{name} = {v!r} is below {lo:g}")
    if hi is not None and v > hi:
        raise DomainError(f"{name} = {v!r} exceeds {hi:g}")
    return v


def number(name: str, v) -> complex:
    """v as a complex number, finite; a real number is a complex one too."""
    if isinstance(v, bool) or not isinstance(v, numbers.Number):
        raise DomainError(f"{name} must be a number, got {_shown(v)}")
    z = complex(v)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"{name} must be finite, got {_shown(v)}")
    return z


def count(name: str, v, lo: int | None = 1, error: type = DomainError) -> int:
    """v as an int: a Python or NumPy integer, not a bool, at least lo where given."""
    if type(v) is int and (lo is None or v >= lo):  # per-point callers: skip the ABC check
        return v
    if isinstance(v, bool) or not isinstance(v, numbers.Integral) or (lo is not None and v < lo):
        raise error(f"{name} must be an integer{'' if lo is None else f' >= {lo}'}, got {_shown(v)}")
    return int(v)


def points(name: str, xs, flat: bool = False) -> np.ndarray | list[float]:
    """xs (a real number, or a list or array of them of any shape) as a float array, all finite;
    or, if ``flat``, as a flat list of Python floats, checked one by one (faster for a few)."""
    try:
        arr = np.asarray(xs)
    except ValueError:  # a ragged list
        arr = None
    if arr is None or arr.dtype is not _FLOAT:
        if arr is None or arr.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be real numbers, got {_shown(xs)}")
        arr = arr.astype(float)
    if flat:
        arr = arr.ravel().tolist()
    if not (all(map(math.isfinite, arr)) if flat else np.isfinite(arr).all()):
        raise DomainError(f"{name} must be finite, got {_shown(xs)}")
    return arr


def interval(name: str, v) -> tuple[float, float] | None:
    """v, None or a pair of finite reals lo < hi, as floats."""
    if v is None:
        return None
    pair = points(name, v)
    if pair.shape != (2,) or not pair[0] < pair[1]:
        raise DomainError(f"{name} must be finite with lo < hi, got {_shown(v)}")
    return tuple(pair.tolist())


def matrix(name: str, a, square: bool = False) -> np.ndarray:
    """a as a 2-D array of real or complex numbers (not checked for finiteness), square if asked."""
    arr = np.asarray(a)
    if arr.ndim != 2 or arr.dtype.kind not in "iufc" or (square and arr.shape[0] != arr.shape[1]):
        raise DomainError(f"{name} must be a {'square ' * square}matrix of numbers, "
                          f"got shape {arr.shape}")
    return arr


def instance(name: str, v, cls: type):
    """v itself, if it is a ``cls``."""
    if not isinstance(v, cls):
        raise DomainError(f"{name} must be a {cls.__name__}, got {_shown(v)}")
    return v
