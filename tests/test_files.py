import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from helpers import make_disks, reference_parse_instance, reference_parse_placement
from shelfpack.errors import DomainError, ParseError
from shelfpack.files import (
    format_instance,
    format_placement,
    format_sidecar,
    parse_3partition,
    parse_groups,
    parse_instance,
    parse_placement,
)
from shelfpack.geometry import Disk, compact
from shelfpack.hardness import ThreePartitionInstance, build_instance
from shelfpack.scalars import Backend, format_scalar


class TestInstanceFormat:
    def test_exact_round_trip(self):
        disks = make_disks([F(1), F(33, 133), F(571)])
        text = format_instance(disks)
        parsed, backend = parse_instance(text)
        assert backend is Backend.EXACT
        assert parsed == disks
        assert text.startswith("shelfpack-instance v1\n")

    def test_float_round_trip(self):
        disks = make_disks([0.33, 1.5, 2.0000000000000004])
        parsed, backend = parse_instance(format_instance(disks))
        assert backend is Backend.FLOAT
        assert parsed == disks

    def test_comments_and_blanks_ignored(self):
        text = "shelfpack-instance v1\n# a comment\n\nd0 1/2\n  # indented comment\nd1 3/4\n"
        parsed, backend = parse_instance(text)
        assert [d.size for d in parsed] == [F(1, 2), F(3, 4)]

    def test_mixed_literals_rejected(self):
        with pytest.raises(ParseError, match="mixes"):
            parse_instance("shelfpack-instance v1\nd0 1/2\nd1 0.5\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_instance("shelfpack v1\nd0 1/2\n")

    def test_duplicate_id_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_instance("shelfpack-instance v1\nd0 1/2\nd0 3/4\n")

    def test_non_positive_size_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("shelfpack-instance v1\nd0 0/2\n")
        with pytest.raises(ParseError):
            parse_instance("shelfpack-instance v1\nd0 -1/2\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError, match="expected"):
            parse_instance("shelfpack-instance v1\nd0\n")

    def test_empty_body_rejected(self):
        with pytest.raises(ParseError, match="no disks"):
            parse_instance("shelfpack-instance v1\n")


class TestPlacementFormat:
    def test_exact_round_trip(self):
        placement = compact(make_disks([F(8), F(10), F(7), F(9)]))
        parsed = parse_placement(format_placement(placement))
        assert parsed == placement

    def test_float_round_trip_full_precision(self):
        placement = compact(make_disks([0.8, 2.0, 1.2345678901234567]))
        parsed = parse_placement(format_placement(placement))
        assert parsed == placement

    def test_negative_footpoints_round_trip(self):
        text = "shelfpack-placement v1\na 2/1 0/1\nb 41/50 -82/25\n"
        placement = parse_placement(text)
        assert placement.footpoints[0] == F(-82, 25)

    def test_ids_with_a_hash_round_trip_or_are_refused(self):
        # a line starting with '#' is a comment, so no disk id may start
        # with one; elsewhere in an id it is an ordinary character
        disks = [Disk("a#", F(1)), Disk("b#c", F(2)), Disk("c", F(3))]
        placement = compact(disks)
        assert parse_placement(format_placement(placement)) == placement
        assert parse_instance(format_instance(disks)) == (disks, Backend.EXACT)
        with pytest.raises(DomainError, match="must not start with '#', got '#a'"):
            Disk("#a", F(3))

    def test_coincident_footpoints_rejected(self):
        with pytest.raises(ParseError, match="not a valid placement"):
            parse_placement("shelfpack-placement v1\na 1/1 0/1\nb 1/1 0/1\n")

    def test_mixed_literals_rejected(self):
        with pytest.raises(ParseError, match="mixes"):
            parse_placement("shelfpack-placement v1\na 1/1 0.5\n")


    @pytest.mark.parametrize("exact", [True, False])
    def test_columns_written_as_rows_of_format_scalar(self, exact):
        # the columns are formatted whole; each row must read as its values
        # formatted one at a time
        rng = random.Random(67)
        sizes = [F(rng.randint(1, 10**6), rng.choice((1, 3, 10**6))) for _ in range(200)]
        disks = make_disks(sizes if exact else [float(s) for s in sizes])
        placement = compact(disks)
        want = "".join(
            f"{d.id} {format_scalar(d.size)} {format_scalar(x)}\n" for d, x in placement
        )
        assert format_placement(placement) == "shelfpack-placement v1\n" + want
        want = "".join(f"{d.id} {format_scalar(d.size)}\n" for d in disks)
        assert format_instance(disks) == "shelfpack-instance v1\n" + want
        assert format_instance([]) == "shelfpack-instance v1\n"


DATA = Path(__file__).parent / "data"
HEADER = "shelfpack-placement v1\n"


class TestExactFootpointColumn:
    """Exact footpoints are read as ints, checked as integers and written
    from them; the values, the errors and the bytes are those of the
    ``Fraction`` footpoints they stand for."""

    @pytest.mark.parametrize("rows", [("a", "b"), ("b", "a")])
    def test_one_value_spelled_twice_coincides(self, rows):
        first, second = rows
        text = HEADER + f"{first} 1/1 1/2\n{second} 1/1 2/4\n"
        message = f"not a valid placement: footpoints of '{first}' and '{second}' coincide"
        with pytest.raises(ParseError, match=message):
            parse_placement(text)
        with pytest.raises(ParseError, match=message):
            reference_parse_placement(text)

    def test_signed_and_zero_footpoints_are_read(self):
        text = HEADER + "c 1/1 +3/4\na 1/1 -1/2\nb 1/1 0/7\n"
        placement = parse_placement(text)
        assert [d.id for d in placement.disks] == ["a", "b", "c"]
        assert placement.footpoints == (F(-1, 2), F(0), F(3, 4))
        assert placement == reference_parse_placement(text)
        assert format_placement(placement) == HEADER + "a 1/1 -1/2\nb 1/1 0/1\nc 1/1 3/4\n"

    @pytest.mark.parametrize("bad", ["3/", "/4", "3/+4", "+-3/4", "1/2/3", "1/0"])
    def test_malformed_footpoints_keep_their_messages(self, bad):
        mixes = "file mixes rational and decimal literals"
        if bad == "1/0":
            in_rationals, in_decimals = "zero denominator in rational literal '1/0'", mixes
        else:
            in_rationals, in_decimals = mixes, f"not a rational or decimal literal: {bad!r}"
        rational = HEADER + f"a 1/1 0/1\n# a comment\nb 1/1 {bad}\nc 0/1 2/1\n"
        decimal = HEADER + f"a 1.0 {bad}\nb 0 2.0\n"
        for text, message in ((rational, in_rationals), (decimal, in_decimals)):
            assert _outcome(parse_placement, text) == ("error", message)
            assert _outcome(reference_parse_placement, text) == ("error", message)
        # well-formed, the same rows fail on the size of line 5, by number
        good = rational.replace(bad, "5/4")
        message = "line 5: disk 'c' has non-positive size 0"
        assert _outcome(parse_placement, good) == ("error", message)
        assert _outcome(reference_parse_placement, good) == ("error", message)

    def test_non_reduced_literals_are_written_in_lowest_terms(self):
        placement = parse_placement(HEADER + "a 1/1 2/4\nb 2/4 -6/3\nc 3/1 010/0015\n")
        assert placement.footpoints == (F(-2), F(1, 2), F(2, 3))
        text = format_placement(placement)
        assert text == HEADER + "b 1/2 -2/1\na 1/1 1/2\nc 3/1 2/3\n"
        assert parse_placement(text) == placement

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.placement")), ids=lambda p: p.name)
    def test_data_files_round_trip_byte_identically(self, path):
        text = path.read_text(encoding="utf-8")
        placement = parse_placement(text)
        assert format_placement(placement) == text
        assert placement == reference_parse_placement(text)


class TestAuxiliaryFormats:
    def test_parse_3partition(self):
        inst = parse_3partition("# comment\n2 100\n30 33 37\n26 35 39\n")
        assert inst == ThreePartitionInstance((30, 33, 37, 26, 35, 39), 100)

    def test_parse_3partition_wrong_count(self):
        with pytest.raises(ParseError, match="expected 6 elements"):
            parse_3partition("2 100\n30 33 37\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 100\n30 33 37\n26 35 39.5\n", "non-integer token in 3-Partition input"),
            ("0 100\n", "m must be at least 1, got 0"),
            ("-1 100\n", "m must be at least 1, got -1"),
        ],
    )
    def test_parse_3partition_refusals(self, text, message):
        with pytest.raises(ParseError, match=message):
            parse_3partition(text)

    def test_parse_groups(self):
        sol = parse_groups("1 2 3\n4 5 6\n")
        assert sol.groups == ((1, 2, 3), (4, 5, 6))

    def test_parse_groups_bad_count(self):
        with pytest.raises(ParseError):
            parse_groups("1 2 3 4\n")

    def test_comments_and_blank_lines_skipped_alike(self):
        text = "  # m and B\n\n2 100 \t\n#30\n30 33 37\n  \n26 35 39\n"
        assert parse_3partition(text).elements == (30, 33, 37, 26, 35, 39)
        assert parse_groups(" # groups\n\n1 2 3\n#7 8 9\n4 5 6\n").groups == (
            (1, 2, 3),
            (4, 5, 6),
        )
        with pytest.raises(ParseError, match="non-integer token in groups input"):
            parse_groups("1 2 x # not a comment\n")
        with pytest.raises(ParseError, match="expected 'm B'"):
            parse_3partition("# only a comment\n\n7\n")

    def test_sidecar_is_deterministic_json(self):
        hi = build_instance(ThreePartitionInstance((30, 33, 37, 26, 35, 39), 100))
        text = format_sidecar(hi)
        assert text == format_sidecar(hi)
        import json

        payload = json.loads(text)
        assert payload["budget"] == "6/1"
        assert payload["m"] == 2
        assert payload["roles"]["outer-0"] == "outer_frame"
        assert payload["element_index"]["part-1"] == 1


    @pytest.mark.parametrize("m", [1, 4, 40, 320])
    def test_sidecar_is_indented_json(self, m):
        import json

        rng = random.Random(m)
        elements = []
        for _ in range(m):  # triples summing to B, each element in (B/4, B/2)
            a = rng.randint(2501, 3749)
            b = rng.randint(2501, 3749)
            elements += [a, b, 10000 - a - b]
        hi = build_instance(ThreePartitionInstance(tuple(elements), 10000))
        text = format_sidecar(hi)
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["elements"] == elements
        assert len(payload["roles"]) == len(hi.disks)


# Differential tests against the per-row reference readers in helpers.py.
# Files are written with the forms a hand-written file may use: comments,
# blank lines, tabs, signs, exponents, leading zeros, `.5` and `5.`.
FILLERS = ["", "   ", "\t", "# a comment", "  # indented comment", "#"]
# digits are ASCII only: Arabic-Indic and fullwidth digits are no literal
BAD_LITERALS = ["x", "1..2", "1/2/3", "0x10", "nan", "inf", "1_0", "--1", "1e", "/2", ".",
                "1e+", "e5", "+", "-.e1", "\u0663\u0660.5", "\u0661/\u0662", "\uff11/\uff12"]
# decimal forms at the edge of the grammar
EDGE_DECIMALS = ["5.e2", "+.5E-3"]


def _decimal(rng, negative_ok):
    if rng.random() < 0.02:
        return rng.choice(EDGE_DECIMALS)
    whole = str(rng.randint(0, 999)).zfill(rng.choice([1, 1, 3]))
    frac = str(rng.randint(0, 9999))
    text = rng.choice([whole, whole + ".", f"{whole}.{frac}", f".{frac}"])
    if rng.random() < 0.3:
        text += f"{rng.choice('eE')}{rng.choice(['', '+', '-'])}{rng.randint(0, 3)}"
    sign = rng.choice(["", "+", "-"] if negative_ok else ["", "+"])
    return sign + text


def _rational(rng, negative_ok):
    num = str(rng.randint(0, 10**6)).zfill(rng.choice([1, 1, 8]))
    sign = rng.choice(["", "+", "-"] if negative_ok else ["", "+"])
    return f"{sign}{num}/{rng.randint(1, 1000)}"


def _value(literal):
    return F(*map(int, literal.split("/"))) if "/" in literal else float(literal)


def _random_rows(rng, n, exact, placement):
    """Rows of a valid file: unique ids, positive sizes, distinct footpoints."""
    literal = _rational if exact else _decimal
    ids = [f"{rng.choice(['d', 'disk-', 'x_', 'Ω'])}{i}" for i in range(n)]
    rng.shuffle(ids)
    rows, seen = [], set()
    for disk_id in ids:
        size = literal(rng, False)
        while _value(size) <= 0:
            size = literal(rng, False)
        row = [disk_id, size]
        if placement:
            foot = literal(rng, True)
            while _value(foot) in seen:
                foot = literal(rng, True)
            seen.add(_value(foot))
            row.append(foot)
        rows.append(row)
    return rows


def _render(rng, rows, placement):
    kind = "placement" if placement else "instance"
    lines = [f"shelfpack-{kind} v1"]
    fill = rng.choice([0.0, 0.1])  # files this program writes have no fillers
    for row in rows:
        while rng.random() < fill:
            lines.append(rng.choice(FILLERS))
        lines.append(rng.choice(["", " ", "\t"]) + rng.choice([" ", "  ", "\t"]).join(row))
    return "\n".join(lines) + rng.choice(["\n", "", "\n\n# end\n"])


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", str(exc)


@pytest.mark.parametrize("placement", [False, True], ids=["instance", "placement"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_random_valid_files_parse_as_the_reference_does(exact, placement):
    rng = random.Random(4004 + 2 * exact + placement)
    parse = parse_placement if placement else parse_instance
    reference = reference_parse_placement if placement else reference_parse_instance
    for n in [1, 2, 3, 7, 50, 300, 2000]:
        rows = _random_rows(rng, n, exact, placement)
        # by hand, and in the writers' layout, which the whole-body split reads
        for text in (_render(rng, rows, placement), _canonical(rows, placement)):
            got, want = parse(text), reference(text)
            assert got == want
            if placement:
                assert got.backend is (Backend.EXACT if exact else Backend.FLOAT)
            else:
                assert got[1] is (Backend.EXACT if exact else Backend.FLOAT)


def _canonical(rows, placement):
    """The file as the writers lay it out: the header, then one line of
    single-spaced tokens per row, each ending in a newline."""
    kind = "placement" if placement else "instance"
    return "".join(f"{line}\n" for line in [f"shelfpack-{kind} v1", *map(" ".join, rows)])


# One edit each to a file in the writers' layout, as a function of its
# lines (header first, no newlines).  Each takes the file off the
# whole-body split and onto the per-line walk, which must give the result,
# or the error and line number, that the reference gives.
def _row(k, change):
    return lambda lines: [*lines[:k], change(lines[k]), *lines[k + 1 :]]


def _insert(k, line):
    return lambda lines: [*lines[:k], line, *lines[k:]]


def _move_token(source, target):
    """Move the last token of line ``source`` to the end of line
    ``target``: the file keeps a multiple of arity tokens."""

    def edit(lines):
        lines = list(lines)
        lines[source], _, last = lines[source].rpartition(" ")
        lines[target] += " " + last
        return lines

    return edit


def _comment_of_arity_tokens(lines):
    """'#' and the first row's tokens but its last, as a line of its own."""
    return _insert(2, "# " + lines[1].rpartition(" ")[0])(lines)


NEAR_CANONICAL = {
    "comment with arity tokens": _comment_of_arity_tokens,
    "blank line": _insert(2, ""),
    "line of spaces": _insert(3, "   "),
    "tab": _row(2, lambda line: line.replace(" ", "\t", 1)),
    "double space": _row(1, lambda line: line.replace(" ", "  ", 1)),
    "form feed": _row(2, lambda line: line.replace(" ", "\f", 1)),
    "no-break space": _row(2, lambda line: line.replace(" ", "\xa0", 1)),
    "leading space": _row(3, lambda line: " " + line),
    "trailing space": _row(2, lambda line: line + " "),
    "CRLF": lambda lines: [line + "\r" for line in lines],
    "one CR": _row(2, lambda line: line + "\r"),
    "header with trailing spaces": _row(0, lambda line: line + "  "),
    "header with a leading space": _row(0, lambda line: " " + line),
    "long row then short row": _move_token(2, 3),
    "short row then long row": _move_token(3, 2),
    "header only": lambda lines: lines[:1],
    "header and a blank line": lambda lines: [lines[0], ""],
}


def _edited(text, edit):
    if edit == "missing final newline":
        return text[:-1]
    if edit == "extra final newline":
        return text + "\n"
    return "".join(line + "\n" for line in NEAR_CANONICAL[edit](text.splitlines()))


@pytest.mark.parametrize("edit", [*NEAR_CANONICAL, "missing final newline", "extra final newline"])
@pytest.mark.parametrize("placement", [False, True], ids=["instance", "placement"])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_nearly_canonical_files_parse_as_the_reference_does(exact, placement, edit):
    rng = random.Random(6006)
    parse = parse_placement if placement else parse_instance
    reference = reference_parse_placement if placement else reference_parse_instance
    rows = _random_rows(rng, 6, exact, placement)
    bad = [*rows[:-1], [rows[-1][0], "0/1" if exact else "0", *rows[-1][2:]]]
    outcomes = []
    # a valid file, and one whose last size is zero, named by its line
    for base in (rows, bad):
        text = _edited(_canonical(base, placement), edit)
        got, want = _outcome(parse, text), _outcome(reference, text)
        assert got == want, text
        outcomes.append(got[0])
    assert outcomes[1] == "error"


def _inject(rng, rows, kind, exact, placement):
    """Put one fault of ``kind`` into row k of a valid file; None if the
    kind does not apply to this file type and backend."""
    k = rng.randrange(len(rows))
    other = rng.choice([j for j in range(len(rows)) if j != k])
    column = rng.choice([1, 2]) if placement else 1
    row = rows[k]
    if kind == "bad literal":
        row[column] = rng.choice(BAD_LITERALS)
    elif kind == "zero denominator":
        if not exact:
            return None
        row[column] = f"{rng.randint(0, 99)}/{'0' * rng.randint(1, 2)}"
    elif kind == "1e999":
        if exact:
            return None
        row[column] = rng.choice(["1e999", "+1E999"] + (["-1e999"] if column == 2 else []))
    elif kind == "non-positive size":
        row[1] = rng.choice(["0/1", "-1/2", "-0/7"] if exact else ["0", "-0.0", "-2.5", "0e5", ".0"])
    elif kind == "duplicate id":
        row[0] = rows[other][0]
    elif kind == "wrong arity":
        if rng.random() < 0.5:
            del row[rng.randrange(len(row))]
        else:
            row.insert(rng.randrange(len(row) + 1), rng.choice(["1/2", "0.5", "extra"]))
    elif kind == "mixed literals":
        row[column] = "0.5" if exact else "1/2"
    elif kind == "coinciding footpoints":
        if not placement:
            return None
        row[2] = rows[other][2]
        if exact and rng.random() < 0.5:  # the same value, spelled otherwise
            num, den = row[2].split("/")
            row[2] = f"{3 * int(num)}/{3 * int(den)}"
    return rows


FAULTS = [
    "bad literal",
    "zero denominator",
    "1e999",
    "non-positive size",
    "duplicate id",
    "wrong arity",
    "mixed literals",
    "coinciding footpoints",
]


@pytest.mark.parametrize("kind", FAULTS)
def test_single_fault_files_fail_as_the_reference_does(kind):
    rng = random.Random(5005 + FAULTS.index(kind))
    tried = 0
    for case in range(40):
        exact, placement = case % 2 == 0, case % 4 >= 2
        rows = _inject(rng, _random_rows(rng, rng.randint(2, 120), exact, placement),
                       kind, exact, placement)
        if rows is None:
            continue
        text = _render(rng, rows, placement)
        parse = parse_placement if placement else parse_instance
        reference = reference_parse_placement if placement else reference_parse_instance
        got, want = _outcome(parse, text), _outcome(reference, text)
        assert want[0] == "error", text
        assert got == want
        tried += 1
    assert tried >= 10
