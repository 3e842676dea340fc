"""Exact verification engine for cut-and-join Hurwitz series, intersection
numbers extracted from them, and the associated KP tau functions."""

from gjvtau.exactalg import (
    FamilyError,
    Monomial,
    PackCapacityError,
    TruncatedSeries,
    TruncationError,
    UBandError,
    UPoly,
    mono,
    mono_var,
    substitute_linear,
)

__all__ = [
    "FamilyError",
    "Monomial",
    "PackCapacityError",
    "TruncatedSeries",
    "TruncationError",
    "UBandError",
    "UPoly",
    "mono",
    "mono_var",
    "substitute_linear",
]

__version__ = "0.1.0"
