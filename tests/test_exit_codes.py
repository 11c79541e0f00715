"""The exit-code contract under mutation: instance and placement files in
the writers' layout, edited by a seeded ``random.Random`` and run through
``main`` in-process, exit with 0, 1, 2 or 3 and print no traceback.

A token swap keeps the writers' layout, so the whole-body split reads the
file; an inserted, duplicated or dropped line or space sends it to the
per-line walk.  The same seed edits the same files on every run.

A command line that argparse refuses exits 2 with its usage on standard
error, ``-h`` exits 0, both in-process and through ``python -m shelfpack``.
"""

import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from helpers import make_disks, module_env
from shelfpack.cli import main
from shelfpack.files import format_instance, format_placement
from shelfpack.geometry import Placement, compact

EDGE_LITERALS = [
    "1e308", "5e-324", "1e154", "-1e308", "1/0", "#", "1_0", "0/1", "-0.0",
    "\u0661\u0662", "\u0661/\u0662", "\u0663.5", "1" * 400 + "/1", "1/" + "7" * 400,
]
EXITS = {0, 1, 2, 3}
FILES = 600


def _seed_files():
    """(kind, text, statuses of its commands) of small valid files as the
    writers lay them out; the last placement overlaps."""
    exact = make_disks([F(9, 2), F(3), F(7, 3), F(1), F(5, 4)])
    floats = make_disks([4.5, 3.0, 2.25, 1.0, 1.125])
    overlapping = Placement(exact, [F(k, 3) for k in range(5)])
    return [
        ("instance", format_instance(exact), [0, 0, 0]),
        ("instance", format_instance(floats), [0, 0, 0]),
        ("placement", format_placement(compact(exact)), [0, 0]),
        ("placement", format_placement(compact(floats)), [0, 0]),
        ("placement", format_placement(overlapping), [1, 0]),
    ]


def _mutate(rng, text):
    lines = text.split("\n")
    how = rng.choice(["swap", "swap", "insert line", "duplicate line", "drop line",
                      "insert space", "drop space"])
    k = rng.randrange(len(lines))
    if how == "swap":
        tokens = lines[k].split(" ")
        tokens[rng.randrange(len(tokens))] = rng.choice(EDGE_LITERALS)
        lines[k] = " ".join(tokens)
    elif how == "insert line":
        lines.insert(k, rng.choice(["", "#", " ".join(rng.choices(EDGE_LITERALS, k=3))]))
    elif how == "duplicate line":
        lines.insert(k, lines[k])
    elif how == "drop line":
        del lines[k]
    text = "\n".join(lines)
    if how == "insert space":
        at = rng.randrange(len(text) + 1)
        text = text[:at] + " " + text[at:]
    elif how == "drop space" and " " in text:
        at = rng.choice([i for i, c in enumerate(text) if c == " "])
        text = text[:at] + text[at + 1 :]
    return text


def _commands(kind, path, tmp_path):
    out, svg = str(tmp_path / "out.placement"), str(tmp_path / "out.svg")
    if kind == "instance":
        return [
            ["solve", path, "--out", out],
            ["solve", path, "--backend", "float"],
            ["solve", path, "--mode", "exact", "--max-n", "5"],
        ]
    return [["verify", path], ["render", path, "--out", svg]]


def test_mutated_files_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(1717)
    seeds = _seed_files()
    statuses = set()
    verified = [0, 0]  # float outputs, exact outputs
    for case in range(FILES):
        kind, text, _ = seeds[case % len(seeds)]
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        path = tmp_path / f"mutated.{kind}"
        path.write_text(text, encoding="utf-8")
        for args in _commands(kind, str(path), tmp_path):
            status = main(args)
            out, err = capsys.readouterr()
            assert status in EXITS, (args, text)
            assert "Traceback" not in err, (args, text, err)
            statuses.add(status)
            # a solve's output must pass the verifier, on either backend
            if status == 0 and args[0] == "solve" and "--out" in args:
                written = args[args.index("--out") + 1]
                assert main(["verify", written]) == 0, text
                capsys.readouterr()
                verified[" (exact)\n" in out] += 1
    assert statuses == EXITS
    assert min(verified) > 0


@pytest.mark.parametrize(
    "kind, text, want", _seed_files(), ids=["exact-i", "float-i", "exact-p", "float-p", "overlap-p"]
)
def test_seed_files_exit_as_expected(tmp_path, capsys, kind, text, want):
    path = tmp_path / f"seed.{kind}"
    path.write_text(text, encoding="utf-8")
    assert [main(args) for args in _commands(kind, str(path), tmp_path)] == want


INSTANCE = object()  # stands for a valid instance file's path
ARGV = {
    "unknown subcommand": (["bogus", INSTANCE], 2),
    "unknown flag": (["solve", INSTANCE, "--bogus"], 2),
    "bad mode": (["solve", INSTANCE, "--mode", "bogus"], 2),
    "non-integer max-n": (["solve", INSTANCE, "--max-n", "7.5"], 2),
    "missing input": (["verify"], 2),
    "no subcommand": ([], 2),
    "help": (["-h"], 0),
    "subcommand help": (["solve", "-h"], 0),
}


@pytest.mark.parametrize("argv, want", ARGV.values(), ids=ARGV)
def test_command_lines_keep_the_exit_code_contract(tmp_path, capsys, argv, want):
    path = tmp_path / "seed.instance"
    path.write_text(format_instance(make_disks([F(2), F(1)])), encoding="utf-8")
    argv = [str(path) if arg is INSTANCE else arg for arg in argv]
    status = main(argv)
    out, err = capsys.readouterr()
    module = subprocess.run(
        [sys.executable, "-m", "shelfpack", *argv],
        capture_output=True, text=True, env=module_env(), timeout=60,
    )
    for got, out, err in [(status, out, err), (module.returncode, module.stdout, module.stderr)]:
        assert got == want, argv
        assert "Traceback" not in err, err
        if want == 2:
            assert out == "" and err.startswith("usage: shelfpack"), err
        else:
            assert err == "" and out.startswith("usage: shelfpack"), out
