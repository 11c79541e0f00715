"""Numeric backends for all geometry.

Every quantity in this package is a ``Scalar``: either an exact rational
(:class:`fractions.Fraction`) or a 64-bit binary float.  The two backends
are never mixed inside one computation; entry points tag their data with a
:class:`Backend` and :func:`unified_backend` rejects mixtures up front.
Plain ``int`` values are accepted wherever a scalar is expected and are
promoted to the exact backend.

Exact values cross into and out of ``Fraction`` through its two slots,
``_numerator`` and ``_denominator``, a column at a time: the lifts, the
column checks and the writers read the slots, not the public properties,
and :func:`_fractions` sets them in new values from int pairs in lowest
terms, with no ``Fraction.__new__``.  The instance reader builds one
value per distinct literal that way.  ``test_fraction_slot_layout`` in
``tests/test_scalars.py`` fails loudly on a Python whose ``Fraction``
stores its value otherwise.
"""

from __future__ import annotations

import enum
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import floordiv, mul, truediv
from typing import Collection, Iterable, Sequence, Union

from .errors import BackendMismatchError, DomainError, ParseError

Scalar = Union[Fraction, float]

# the literal grammar of every file and of ``--tolerance``, matched whole;
# digits are ASCII digits only
_RATIONAL_RE = re.compile(r"[+-]?\d+/\d+", re.ASCII)
_DECIMAL_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
# Over these characters ``float`` accepts exactly the strings that
# _DECIMAL_RE matches whole: no spaces, underscores, "inf" or "nan" can be
# spelled, and its grammar of sign, digits, point and exponent is the
# regex's.  A decimal column over them needs no match per literal.
_DECIMAL_CHARS = b"0123456789+-.eE"
# byte maps for _plain_rationals: each folds the byte pairs one of its checks
# forbids into one pair, so that the check is one search
_MINUS_TO_PLUS = bytes.maketrans(b"-", b"+")
_SIGNS_TO_SPACE = bytes.maketrans(b"+-", b"  ")
_ZERO_TO_SPACE = bytes.maketrans(b"0", b" ")

# Fraction keeps its value in the slots ``_numerator`` and ``_denominator``,
# in lowest terms with a positive denominator.  A comprehension reads or
# sets them with no call per value: on Python 3.11 (x86-64) it reads a
# column of 4,000 values twice as fast as an ``attrgetter`` of the slot
# and five times as fast as the public property.


def _fractions(nums: list[int], dens: list[int]) -> list[Fraction]:
    """``list(map(Fraction, nums, dens))`` for ints with every ``q > 0``:
    brought to lowest terms by :func:`_reduced` and set in the two slots,
    with no ``Fraction.__new__``."""
    nums, dens = _reduced(nums, dens)
    values = list(map(object.__new__, repeat(Fraction, len(nums))))
    for value, p, q in zip(values, nums, dens):
        value._numerator = p
        value._denominator = q
    return values


def _numerators(values: Iterable[Fraction]) -> list[int]:
    return [v._numerator for v in values]


def _denominators(values: Iterable[Fraction]) -> list[int]:
    return [v._denominator for v in values]


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


# the columns of one backend as lift gives them
Lift = namedtuple("Lift", "sizes feet c back")


def lift(sizes: Sequence, feet: Sequence = (), dens: tuple | None = None) -> Lift:
    """Sizes and footpoints of one backend as ``Lift(sizes, feet, c, back)``.

    Floats pass through as they are, with ``c = 1`` and ``back = float``.
    Exact sizes become integers S over their common denominator D, which
    order as the sizes do; sums and products of them are exact and, unlike
    ``Fraction`` arithmetic, never reduce by a gcd.  Footpoints become
    integers X over Q = lcm(D**2, footpoint denominators), with
    c = Q / D**2.  A radius is then c*S**2 over Q and a tangency distance
    2*c*S_j*S_k, so geometry runs on integers; ``back(v) = Fraction(v, Q)``
    maps a result back.  Exact columns come as ``Fraction``s or, with
    ``dens = (size denominators, footpoint denominators)``, as the int
    numerators ``sizes`` and ``feet`` over the int denominators that a
    file spells: the sizes in lowest terms, and the footpoints brought to
    lowest terms here, so D and Q are the ones their ``Fraction``s give.

    Footpoints with many unrelated denominators would make Q, and with it
    every lifted footpoint, grow with each one.  So Q may have at most the
    bits of D**2 times the square of the largest footpoint denominator:
    ``Fraction`` arithmetic on two footpoints and a tangency distance
    forms numbers of that size, and lifted ones are then no larger.  Past
    that bound the columns come back unlifted, as ``Fraction``s, with
    ``c = 1`` and ``back = Fraction``.

    A :class:`~shelfpack.geometry.Placement` keeps one ``Lift`` for its
    lifetime: the solvers lift sizes alone (Q = D**2, c = 1) and hand over
    their footpoints over D**2, and the file reader lifts the int columns
    it reads.  Numerators and denominators are read one column at a time,
    a ``Fraction``'s from its two slots; the columns that come back
    unlifted are built by :func:`_fractions`.
    """
    ratios = dens is not None
    if ratios:
        (size_nums, size_dens), (nums, dens) = (sizes, dens[0]), _reduced(feet, dens[1])
    elif isinstance(sizes[0], Fraction):
        size_nums, size_dens = _numerators(sizes), _denominators(sizes)
        nums, dens = _numerators(feet), _denominators(feet)
    else:
        return Lift(sizes, feet, 1, float)
    scale = math.lcm(*set(size_dens))
    ints = list(map(mul, size_nums, map(floordiv, repeat(scale), size_dens)))
    square = scale * scale
    distinct = set(dens)
    bound = square.bit_length() + 2 * max(distinct, default=1).bit_length()
    q = square
    for den in distinct:
        q = math.lcm(q, den)
        if q.bit_length() > bound:
            if ratios:
                sizes, feet = _fractions(size_nums, size_dens), _fractions(nums, dens)
            return Lift(sizes, feet, 1, Fraction)
    lifted = list(map(mul, nums, map(floordiv, repeat(q), dens)))
    return Lift(ints, lifted, q // square, partial(Fraction, denominator=q))


def _over(back) -> int | None:
    """Q, when ``back`` comes from a lift whose columns became integers over
    Q (see :func:`lift`); else None: the values are floats or ``Fraction``s
    as they are."""
    return back.keywords["denominator"] if isinstance(back, partial) else None


def _lifted_floats(values: Sequence, back) -> list[float]:
    """``float(back(v))`` of each value of a lift's column: for an integer X
    over Q the int true division X / Q, which rounds correctly, as
    ``float(Fraction)`` does.  OverflowError past the float range."""
    q = _over(back)
    if q is None:
        return list(map(float, values))
    return list(map(truediv, values, repeat(q)))


def _read_column(literals: Sequence[str]) -> tuple[list[float] | None, Backend]:
    """Check a non-empty column of literals of one backend; read it too if
    it is a decimal column.  An exact column comes back as None: its
    literals are read by :func:`_distinct` or :func:`_ints`.

    The first literal decides the backend, and every literal must then
    match that grammar whole.  A column is checked whole in C: decimals by
    ``float`` alone over their characters, rationals by
    :func:`_plain_rationals`.  Only a column that fails is searched again,
    literal by literal: for the message, a mix of rational and decimal
    literals, else the first literal that is neither, else the first zero
    denominator.
    """
    exact = _RATIONAL_RE.fullmatch(literals[0]) is not None
    if exact:
        if _plain_rationals(literals):
            return None, Backend.EXACT
    else:
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
    bad = next((text for text in literals if not text.split("/")[1].strip("0")), None)
    if bad is not None:
        raise ParseError(f"zero denominator in rational literal {bad!r}")
    return None, Backend.EXACT  # some denominator has a leading zero


def _plain_rationals(literals: Sequence[str]) -> bool:
    """Whether every literal matches ``[+-]?[0-9]+/[1-9][0-9]*``, as the
    writer spells them, checked by a few C-level scans of the joined column
    and nothing per literal."""
    joined = " ".join(literals)
    if not joined.isascii():
        return False
    text = joined.encode()
    # without digits and signs the column reads "/ / ... /": one slash in
    # each literal, and no other character
    if text.translate(None, b"0123456789+-") != b"/ " * (len(literals) - 1) + b"/":
        return False
    text = b" " + text + b" "
    signs = text.translate(_MINUS_TO_PLUS)
    return (
        signs.count(b"+") == signs.count(b" +")  # a sign only opens a literal
        and b" /" not in text.translate(_SIGNS_TO_SPACE)  # p is not empty
        # q is not empty and does not start with 0
        and b"/ " not in text.translate(_ZERO_TO_SPACE)
    )


def _digit_limit() -> int:
    """The most decimal digits ``int`` and ``str`` convert, 0 for no limit
    (Python 3.10 before 3.10.7 has none)."""
    return getattr(sys, "get_int_max_str_digits", int)()


def _too_many_digits(texts: Iterable[str]) -> ParseError:
    """A ParseError naming the first of ``texts`` that spells a number of
    more digits than ``int`` reads (``sys.get_int_max_str_digits()``),
    the one fault that makes ``int`` fail on checked literals."""
    limit = _digit_limit()
    text = next(t for t in texts if any(sum(map(str.isdecimal, p)) > limit for p in t.split("/")))
    return ParseError(
        f"literal {text[:20]}... ({len(text)} characters) has a number of "
        f"more than {limit} digits, the most that int() reads "
        "(sys.set_int_max_str_digits)"
    )


def _too_many_digits_to_write() -> DomainError:
    return DomainError(
        f"a value has a numerator or denominator of more than {_digit_limit()} digits, "
        "the most that str() writes (sys.set_int_max_str_digits)"
    )


def _ints(literals: Collection[str]) -> list[int]:
    """``[p0, q0, p1, q1, ...]`` of checked ``p/q`` literals, by one ``int``
    map over the joined column split at its spaces and slashes."""
    try:
        return list(map(int, " ".join(literals).replace("/", " ").split(" ")))
    except ValueError:  # a checked literal fails only past the digit limit
        raise _too_many_digits(literals) from None


def _distinct(literals: Sequence[str], make) -> list:
    """The values ``make(numerators, denominators)`` gives the distinct
    ones of checked ``p/q`` literals, mapped back to every literal: sizes
    repeat (footpoints mostly do not, and are read by :func:`_ints`)."""
    distinct = dict.fromkeys(literals)
    parts = _ints(distinct)
    value = dict(zip(distinct, make(parts[0::2], parts[1::2])))
    return list(map(value.__getitem__, literals))


def _reduced(nums: list[int], dens: list[int]) -> tuple[list[int], list[int]]:
    """Each ``nums[i]/dens[i]`` in lowest terms, by one ``gcd`` map."""
    gcds = list(map(math.gcd, nums, dens))
    if gcds.count(1) < len(gcds):
        return list(map(floordiv, nums, gcds)), list(map(floordiv, dens, gcds))
    return nums, dens


def scalars(literals: Sequence[str]) -> tuple[list[Scalar], Backend]:
    """Parse a non-empty column of literals of one backend: ``p/q`` literals
    are exact and decimal literals are float (see :func:`_read_column`).
    Exact columns hold one ``Fraction`` per distinct literal, built by
    :func:`_fractions`."""
    values, backend = _read_column(literals)
    return _distinct(literals, _fractions) if values is None else values, backend


def parse_scalar(text: str) -> Scalar:
    """Parse one literal: ``p/q`` is exact, a decimal is float."""
    return scalars([text])[0][0]


def _format_column(values: Sequence[Scalar]) -> list[str]:
    """The file form of each value of a column of one backend, in one pass:
    ``numerator/denominator`` for an exact column, whose values always
    keep the slash, and ``repr`` for any other.  The first value decides
    which."""
    if values and not isinstance(values[0], float) and isinstance(values[0], Fraction):
        try:
            return [f"{v._numerator}/{v._denominator}" for v in values]
        except ValueError:  # an int past the digit limit
            raise _too_many_digits_to_write() from None
    return list(map(repr, values))


def _format_lifted(lifted: Lift) -> tuple[list[str], list[str]]:
    """The file forms of the size and footpoint columns of ``lifted`` (see
    :func:`lift`).  Integers S over D and X over Q = c*D**2 are written
    ``p/q`` in lowest terms, as ``Fraction`` would write them: one literal
    per distinct size, and one denominator per distinct gcd of a
    footpoint with Q.  Floats and ``Fraction``s are written as
    :func:`_format_column` writes them."""
    sizes, feet, c, back = lifted
    q = _over(back)
    if q is None:
        return _format_column(sizes), _format_column(feet)
    d = math.isqrt(q // c)
    distinct = set(sizes)
    gcds = list(map(math.gcd, feet, repeat(q)))
    try:
        literal = {s: f"{s // g}/{d // g}" for s, g in zip(distinct, map(math.gcd, distinct, repeat(d)))}
        dens = {g: f"/{q // g}" for g in set(gcds)}
        return (
            list(map(literal.__getitem__, sizes)),
            [f"{x // g}{dens[g]}" for x, g in zip(feet, gcds)],
        )
    except ValueError:  # an int past the digit limit
        raise _too_many_digits_to_write() from None


def format_scalar(value: Scalar) -> str:
    """Round-trippable file form: exact values always keep the slash."""
    return _format_column((value,))[0]


def display_scalar(value: Scalar) -> str:
    """Human form for summaries: integral rationals print without the slash."""
    return format_scalar(value).removesuffix("/1")
