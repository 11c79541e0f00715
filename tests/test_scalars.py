import itertools
import math
import re
from fractions import Fraction

import pytest

from shelfpack.errors import BackendMismatchError, DomainError, ParseError
from shelfpack.scalars import (
    Backend,
    _format_column,
    backend_of,
    coerce,
    display_scalar,
    format_scalar,
    lift,
    parse_scalar,
    scalars,
    unified_backend,
)


def test_parse_rational_and_decimal():
    assert parse_scalar("33/133") == Fraction(33, 133)
    assert parse_scalar("-3/4") == Fraction(-3, 4)
    assert parse_scalar("0.33") == 0.33
    assert parse_scalar("1e-3") == 0.001
    assert parse_scalar("7") == 7.0
    assert isinstance(parse_scalar("7"), float)


@pytest.mark.parametrize("text", ["', '", "1/0", "nan", "inf", "0x10", "1/2/3", ""])
def test_parse_rejects_garbage(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


def test_literal_classification():
    assert scalars(["4/1"]) == ([Fraction(4)], Backend.EXACT)
    assert scalars(["4.0"]) == ([4.0], Backend.FLOAT)
    assert scalars(["4"]) == ([4.0], Backend.FLOAT)


def test_column_faults_name_the_first_offender():
    assert scalars(["+1/2", "-3/6", "07/1"]) == (
        [Fraction(1, 2), Fraction(-1, 2), Fraction(7)],
        Backend.EXACT,
    )
    assert scalars([".5", "5.", "+1e3", "-2.5E-1"]) == ([0.5, 5.0, 1e3, -0.25], Backend.FLOAT)
    # a rational literal anywhere makes any other fault a mix
    for column in (["1/2", "0.5"], ["0.5", "1/2"], ["x", "1/2"], ["1/2", "1//2"]):
        with pytest.raises(ParseError, match="^file mixes rational and decimal literals$"):
            scalars(column)
    with pytest.raises(ParseError, match="^not a rational or decimal literal: 'x'$"):
        scalars(["0.5", "x", "1.5", "y"])
    with pytest.raises(ParseError, match="^zero denominator in rational literal '2/00'$"):
        scalars(["1/2", "2/00", "3/0"])


def test_float_reads_the_decimal_grammar_over_its_characters():
    # a decimal column over "0123456789+-.eE" is checked by float alone;
    # every string of up to five of these characters (one digit stands for
    # all) is read by float exactly when the grammar matches it whole
    grammar = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
    for length in range(1, 6):
        for chars in itertools.product("1+-.eE", repeat=length):
            text = "".join(chars)
            try:
                float(text)
            except ValueError:
                with pytest.raises(ParseError, match="not a rational or decimal literal"):
                    scalars(["1.5", text])
                assert grammar.fullmatch(text) is None, text
            else:
                assert scalars(["1.5", text]) == ([1.5, float(text)], Backend.FLOAT)
                assert grammar.fullmatch(text), text
    # outside those characters the regex decides, and its digits are ASCII
    for text in (" 1", "1_0", "inf", "1.5\n", "\u0663.5", "\uff11.5"):
        with pytest.raises(ParseError, match="not a rational or decimal literal"):
            scalars(["1.5", text])


def test_rational_columns_read_as_the_grammar_says():
    # an exact column is checked by scans of the joined column; every
    # string of up to five of "01+-/ " (one nonzero digit stands for all)
    # must read, next to a valid literal or alone, as the per-literal
    # grammar says
    grammar = re.compile(r"[+-]?[0-9]+/[0-9]+")
    for length in range(1, 6):
        for chars in itertools.product("01+-/ ", repeat=length):
            text = "".join(chars)
            for column in (["1/2", text], [text, "1/2", "3/4"], ["-5/1", text]):
                if grammar.fullmatch(text) is None:
                    with pytest.raises(ParseError, match="mixes rational and decimal"):
                        scalars(column)
                elif int(text.split("/")[1]) == 0:
                    message = f"zero denominator in rational literal '{text}'"
                    with pytest.raises(ParseError, match=re.escape(message)):
                        scalars(column)
                else:
                    want = [Fraction(*map(int, lit.split("/"))) for lit in column]
                    assert scalars(column) == (want, Backend.EXACT), column
            if grammar.fullmatch(text) is None and text.strip("01+-"):
                with pytest.raises(ParseError, match="not a rational or decimal literal"):
                    scalars([text])


def test_format_round_trip():
    for value in [Fraction(33, 133), Fraction(571), Fraction(-5, 7)]:
        assert parse_scalar(format_scalar(value)) == value
        assert isinstance(parse_scalar(format_scalar(value)), Fraction)
    for value in [0.33, 1.0, 2.0000000000000004, 8.0089]:
        assert parse_scalar(format_scalar(value)) == value


class FloatSize(float):
    def __repr__(self):  # repr decides a float's file form, a subclass's too
        return f"FloatSize({float(self)!r})"


def test_format_column_matches_format_scalar_value_by_value():
    exact = [Fraction(571), Fraction(-3), Fraction(0), Fraction(-5, 7), Fraction(33, 133),
             Fraction(10**30 + 1, 10**20), Fraction(-(2**70), 3)]
    floats = [0.33, 1.0, -0.0, 0.0, -2.5, 5e-324, 2.2250738585072014e-308 / 3,
              1.7976931348623157e308, 2.0000000000000004, FloatSize(1.5), FloatSize(-0.0)]
    for column in (exact, floats, exact[:1], floats[:1], floats[::-1]):
        assert _format_column(column) == [format_scalar(v) for v in column]
        assert _format_column(tuple(column)) == _format_column(column)
    assert _format_column(exact) == [f"{v.numerator}/{v.denominator}" for v in exact]
    assert _format_column(floats) == list(map(repr, floats))
    assert format_scalar(Fraction(-3)) == "-3/1" and format_scalar(-0.0) == "-0.0"
    assert format_scalar(FloatSize(1.5)) == "FloatSize(1.5)"
    assert _format_column([]) == []


def test_display_scalar():
    assert display_scalar(Fraction(571)) == "571"
    assert display_scalar(Fraction(33, 133)) == "33/133"
    assert display_scalar(1.1875) == "1.1875"
    # only a denominator of 1 leaves the slash off
    assert display_scalar(Fraction(-3)) == "-3"
    assert display_scalar(Fraction(0)) == "0"
    assert display_scalar(Fraction(1, 11)) == "1/11"
    assert display_scalar(Fraction(21, 101)) == "21/101"


def test_coerce_and_backends():
    assert coerce(3) == Fraction(3)
    assert backend_of(coerce(3)) is Backend.EXACT
    assert backend_of(0.5) is Backend.FLOAT
    with pytest.raises(DomainError):
        coerce(math.nan)
    with pytest.raises(DomainError):
        coerce(math.inf)
    with pytest.raises(DomainError):
        coerce(True)
    assert unified_backend([Fraction(1), Fraction(2)]) is Backend.EXACT
    with pytest.raises(BackendMismatchError):
        unified_backend([Fraction(1), 0.5])
    with pytest.raises(DomainError):
        unified_backend([])


def test_backend_of_refuses_other_types():
    with pytest.raises(DomainError, match="unsupported scalar type str"):
        backend_of("x")


def test_unified_backend_of_one_type_and_of_others():
    assert unified_backend(iter([0.5, 2.0])) is Backend.FLOAT

    class Size(float):
        pass

    assert unified_backend([Size(1.5), Size(2.5)]) is Backend.FLOAT
    assert unified_backend([0.5, Size(1.5)]) is Backend.FLOAT
    with pytest.raises(DomainError):
        unified_backend([1, 2])  # plain ints are coerced, never passed in
    # the first offending value decides which error is raised
    with pytest.raises(BackendMismatchError):
        unified_backend([0.5, 0.5, Fraction(1), 1])
    with pytest.raises(DomainError):
        unified_backend([0.5, 1, Fraction(1)])


def test_lift_scales_sizes_to_integers():
    values = [Fraction(1, 7), Fraction(5, 13), Fraction(3), Fraction(7, 990)]
    ints, feet, c, back = lift(values)
    scale = math.lcm(7, 13, 990)
    assert all(isinstance(k, int) for k in ints)
    assert [Fraction(k, scale) for k in ints] == values
    # with no footpoints the map back works over D**2, with c = 1
    assert (feet, c) == ([], 1)
    assert back(scale * scale) == 1 and back(1) == Fraction(1, scale * scale)
    floats = [0.5, 3.0]
    assert lift(floats) == (floats, (), 1, float)


def test_lift_of_footpoints_over_their_common_denominator():
    sizes = [Fraction(1, 3), Fraction(2, 3)]
    feet = [Fraction(1, 7), Fraction(-5, 2), Fraction(4)]
    ints, lifted, c, back = lift(sizes, feet)
    q = math.lcm(9, 7, 2)
    assert (ints, c) == ([1, 2], q // 9)
    assert lifted == [x * q for x in feet] and all(type(x) is int for x in lifted)
    assert list(map(back, lifted)) == feet


def test_one_fraction_per_distinct_exact_literal():
    column = ["1/2", "3/4", "1/2", "2/4", "-1/2", "3/4"]
    values, backend = scalars(column)
    assert backend is Backend.EXACT
    assert values == [Fraction(text) for text in column]
    assert values[0] is values[2] and values[1] is values[5]
    assert values[3] == values[0] and values[3] is not values[0]
    with pytest.raises(ParseError, match="zero denominator in rational literal '3/0'"):
        scalars(["1/2", "1/2", "3/0", "1/2", "4/0"])
