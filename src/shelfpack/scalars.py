"""Numeric backends for all geometry.

Every quantity in this package is a ``Scalar``: either an exact rational
(:class:`fractions.Fraction`) or a 64-bit binary float.  The two backends
are never mixed inside one computation; entry points tag their data with a
:class:`Backend` and :func:`unified_backend` rejects mixtures up front.
Plain ``int`` values are accepted wherever a scalar is expected and are
promoted to the exact backend.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import attrgetter, floordiv, mul
from typing import Iterable, Sequence, Union

from .errors import BackendMismatchError, DomainError, ParseError

Scalar = Union[Fraction, float]

# the literal grammar of every file and of ``--tolerance``, matched whole
_RATIONAL_RE = re.compile(r"[+-]?\d+/\d+")
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
# Over these characters ``float`` accepts exactly the strings that
# _DECIMAL_RE matches whole: no spaces, underscores, "inf" or "nan" can be
# spelled, and its grammar of sign, digits, point and exponent is the
# regex's.  A decimal column over them needs no match per literal.
_DECIMAL_CHARS = b"0123456789+-.eE"

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")


class Backend(enum.Enum):
    EXACT = "exact"
    FLOAT = "float"


def coerce(value: Scalar | int) -> Scalar:
    """Normalize a raw number: ints become exact rationals, floats must be finite."""
    # float first: it is the common case and, unlike the Fraction ABC,
    # cheap to test; the two types are disjoint and bool is not a float
    if isinstance(value, float):
        if not math.isfinite(value):
            raise DomainError(f"float scalar must be finite, got {value!r}")
        return value
    if isinstance(value, bool):
        raise DomainError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise DomainError(f"unsupported scalar type {type(value).__name__}")


def backend_of(value: Scalar) -> Backend:
    if isinstance(value, float):
        return Backend.FLOAT
    if isinstance(value, Fraction):
        return Backend.EXACT
    raise DomainError(f"unsupported scalar type {type(value).__name__}")


def unified_backend(values: Iterable[Scalar]) -> Backend:
    """Return the common backend of ``values``, rejecting mixtures."""
    values = list(values)
    backend: Backend | None = None
    # one value per type, in order of first occurrence: the same errors as
    # a check of every value, without a call per value; a set of the types
    # is the cheaper pass and settles the common column of one type
    if len(set(map(type, values))) == 1:
        values = values[:1]
    for value in dict(zip(map(type, values), values)).values():
        b = backend_of(value)
        if backend is None:
            backend = b
        elif b is not backend:
            raise BackendMismatchError(
                "exact and float scalars mixed in one computation"
            )
    if backend is None:
        raise DomainError("no scalars given")
    return backend


def lift(sizes: Sequence[Scalar], feet: Sequence[Scalar] = ()) -> tuple:
    """Sizes and footpoints of one backend as ``(sizes, feet, c, back)``.

    Floats pass through as they are, with ``c = 1`` and ``back = float``.
    Exact sizes become integers S over their common denominator D, which
    order as the sizes do; sums and products of them are exact and, unlike
    ``Fraction`` arithmetic, never reduce by a gcd.  Footpoints become
    integers X over Q = lcm(D**2, footpoint denominators), with
    c = Q / D**2.  A radius is then c*S**2 over Q and a tangency distance
    2*c*S_j*S_k, so geometry runs on integers; ``back(v) = Fraction(v, Q)``
    maps a result back.

    Footpoints with many unrelated denominators would make Q, and with it
    every lifted footpoint, grow with each one.  So Q may have at most the
    bits of D**2 times the square of the largest footpoint denominator:
    ``Fraction`` arithmetic on two footpoints and a tangency distance
    forms numbers of that size, and lifted ones are then no larger.  Past
    that bound the columns come back as they are, ``Fraction``s with
    ``c = 1`` and ``back = Fraction``.

    A :class:`~shelfpack.geometry.Placement` calls this once, when it is
    built, and keeps the result; the solvers lift sizes alone.
    Numerators and denominators are read one column at a time.
    """
    if not isinstance(sizes[0], Fraction):
        return sizes, feet, 1, float
    size_dens = list(map(_denominator, sizes))
    scale = math.lcm(*set(size_dens))
    ints = list(map(mul, map(_numerator, sizes), map(floordiv, repeat(scale), size_dens)))
    square = scale * scale
    foot_dens = list(map(_denominator, feet))
    dens = set(foot_dens)
    bound = square.bit_length() + 2 * max(dens, default=1).bit_length()
    q = square
    for den in dens:
        q = math.lcm(q, den)
        if q.bit_length() > bound:
            return sizes, feet, 1, Fraction
    lifted = list(map(mul, map(_numerator, feet), map(floordiv, repeat(q), foot_dens)))
    return ints, lifted, q // square, partial(Fraction, denominator=q)


def scalars(literals: Sequence[str]) -> tuple[list[Scalar], Backend]:
    """Parse a non-empty column of literals of one backend.

    ``p/q`` literals are exact and decimal literals are float; the first
    literal decides which, every literal must then match that grammar
    whole, and the column is converted in one pass, with one ``Fraction``
    per distinct exact literal.  Only a column that fails is searched
    again, for the message: a mix of rational and decimal literals, else
    the first literal that is neither, else the first zero denominator.
    """
    exact = _RATIONAL_RE.fullmatch(literals[0]) is not None
    if not exact:
        joined = "".join(literals)
        if joined.isascii() and not joined.encode().translate(None, _DECIMAL_CHARS):
            try:
                return list(map(float, literals)), Backend.FLOAT
            except ValueError:
                pass  # the match below names the literal
    grammar = _RATIONAL_RE if exact else _DECIMAL_RE
    if not all(map(grammar.fullmatch, literals)):
        if any(map(_RATIONAL_RE.fullmatch, literals)):
            raise ParseError("file mixes rational and decimal literals")
        bad = next(text for text in literals if not grammar.fullmatch(text))
        raise ParseError(f"not a rational or decimal literal: {bad!r}")
    if not exact:
        return list(map(float, literals)), Backend.FLOAT
    try:
        # sizes repeat, so each distinct literal becomes one Fraction
        distinct = dict.fromkeys(literals)
        pairs = map(str.split, distinct, repeat("/"))
        value = dict(zip(distinct, [Fraction(int(p), int(q)) for p, q in pairs]))
        return list(map(value.__getitem__, literals)), Backend.EXACT
    except ZeroDivisionError:
        bad = next(text for text in literals if int(text.split("/")[1]) == 0)
        raise ParseError(f"zero denominator in rational literal {bad!r}") from None


def parse_scalar(text: str) -> Scalar:
    """Parse one literal: ``p/q`` is exact, a decimal is float."""
    return scalars([text])[0][0]


def _format_column(values: Sequence[Scalar]) -> list[str]:
    """The file form of each value of a column of one backend, in one pass:
    ``numerator/denominator`` for an exact column, whose values always
    keep the slash, and ``repr`` for any other.  The first value decides
    which."""
    if values and not isinstance(values[0], float) and isinstance(values[0], Fraction):
        return [f"{v.numerator}/{v.denominator}" for v in values]
    return list(map(repr, values))


def format_scalar(value: Scalar) -> str:
    """Round-trippable file form: exact values always keep the slash."""
    return _format_column((value,))[0]


def display_scalar(value: Scalar) -> str:
    """Human form for summaries: integral rationals print without the slash."""
    return format_scalar(value).removesuffix("/1")
