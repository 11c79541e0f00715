import argparse
import gc
import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import make_disks, module_env
from shelfpack import cli, files, geometry
from shelfpack.cli import main
from shelfpack.files import read_placement
from shelfpack.geometry import Disk, span, verify
from shelfpack.errors import PreconditionError
from shelfpack.greedy import greedy_solve
from shelfpack.linear import is_linear_case, solve_linear
from shelfpack.oracle import exact_solve, hidden_in_linear_prefix
from shelfpack.scalars import display_scalar, lift


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def linear_instance(tmp_path):
    return write(
        tmp_path / "lin.instance",
        "shelfpack-instance v1\nd1 10/1\nd2 9/1\nd3 8/1\nd4 7/1\n",
    )


# two disks of size 2, nine of 19/10 and one of 49/50, which fits the gap
# of two touching 2s: not the linear case.  The eleven large disks are the
# longest linear-case prefix, and 49/50 fits none of their chain's gaps, so
# --mode exact runs the subset DP, and 12 disks pass its default cap of 10
NONLINEAR_12 = (
    "shelfpack-instance v1\na 2/1\nb 2/1\n"
    + "".join(f"d{i} 19/10\n" for i in range(9))
    + "s 49/50\n"
)
# eleven unit disks and a tenth, which hides in a gap of their chain
HIDDEN_12 = "shelfpack-instance v1\n" + "".join(f"d{i} 1/1\n" for i in range(11)) + "s 1/10\n"


@pytest.fixture
def nonlinear_instance(tmp_path):
    return write(
        tmp_path / "nonlin.instance",
        "shelfpack-instance v1\nd1 5.0\nd2 4.0\nd3 3.0\nd4 2.0\n",
    )


class TestSolve:
    def test_auto_uses_linear_solver(self, tmp_path, linear_instance, capsys):
        out = tmp_path / "lin.placement"
        assert main(["solve", linear_instance, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "exact (linear case)" in captured
        assert "span: 571 (exact)" in captured
        placement = read_placement(out)
        assert span(placement).span == 571
        assert verify(placement, 0).ok

    def test_auto_falls_back_to_greedy(self, tmp_path, nonlinear_instance, capsys):
        out = tmp_path / "nl.placement"
        assert main(["solve", nonlinear_instance, "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "greedy (4/3 approximation)" in captured
        assert "ratio:" in captured
        placement = read_placement(out)
        report = span(placement)
        assert verify(placement, 1e-9 * report.span).ok

    def test_exact_mode_over_cap(self, tmp_path, capsys):
        inst = write(
            tmp_path / "big.instance",
            "shelfpack-instance v1\n" + "".join(f"d{i} 1.5\n" for i in range(11)) + "s 0.15\n",
        )
        assert main(["solve", inst, "--mode", "exact", "--out", str(tmp_path / "x")]) == 3
        assert "raise the cap with --max-n" in capsys.readouterr().err

    def test_exact_mode_with_raised_cap(self, tmp_path, capsys):
        inst = write(tmp_path / "big.instance", NONLINEAR_12)
        out = tmp_path / "x.placement"
        rc = main(["solve", inst, "--mode", "exact", "--max-n", "12", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "method: exact (subset DP)" in captured
        assert "span: 2024/25 (exact)" in captured
        assert verify(read_placement(out), 0).ok

    def test_exact_mode_proves_a_hidden_disk_past_the_cap(self, tmp_path, capsys):
        # the bound of the linear prefix needs no search, so no cap applies
        inst = write(tmp_path / "hidden.instance", HIDDEN_12)
        out = tmp_path / "x.placement"
        assert main(["solve", inst, "--mode", "exact", "--out", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "method: exact (hidden in linear prefix)" in captured
        assert "span: 22 (exact)" in captured
        assert verify(read_placement(out), 0).ok

    def test_exact_mode_solves_the_linear_case_past_the_cap(self, tmp_path, capsys):
        # the cap bounds the subset DP only; the linear-case solver is exact
        inst = write(
            tmp_path / "units.instance",
            "shelfpack-instance v1\n" + "".join(f"d{i} 1/1\n" for i in range(12)),
        )
        assert main(["solve", inst, "--mode", "exact", "--out", str(tmp_path / "x")]) == 0
        captured = capsys.readouterr().out
        assert "method: exact (linear case)" in captured
        assert "span: 24 (exact)" in captured

    def test_max_n_is_checked_on_every_exact_call(self, tmp_path, linear_instance, capsys):
        nonlinear = write(tmp_path / "big.instance", NONLINEAR_12)
        for inst in (linear_instance, nonlinear):
            args = ["solve", inst, "--mode", "exact", "--max-n", "0", "--out", str(tmp_path / "x")]
            assert main(args) == 3
            assert capsys.readouterr().err == "error: max_n must be at least 1\n"
        assert not (tmp_path / "x").exists()

    def test_exact_backend_on_decimal_file_fails_fast(self, nonlinear_instance, tmp_path):
        rc = main(
            ["solve", nonlinear_instance, "--backend", "exact", "--out", str(tmp_path / "x")]
        )
        assert rc == 3

    def test_float_backend_on_rational_file_converts(self, linear_instance, tmp_path, capsys):
        out = tmp_path / "f.placement"
        rc = main(["solve", linear_instance, "--backend", "float", "--out", str(out)])
        assert rc == 0
        assert "span: 571.0 (float)" in capsys.readouterr().out

    def test_float_backend_beyond_the_float_range_exits_3(self, tmp_path, capsys):
        path = write(
            tmp_path / "huge.instance",
            f"shelfpack-instance v1\nd1 1/1\nd2 {10**400}/1\n",
        )
        out = tmp_path / "f.placement"
        assert main(["solve", path, "--backend", "float", "--out", str(out)]) == 3
        assert "disk 'd2' has a size beyond the float range" in capsys.readouterr().err
        assert not out.exists()

    def test_float_backend_below_the_float_range_exits_3(self, tmp_path, capsys):
        # the float of a positive size rounds to 0.0: not a non-positive size
        path = write(
            tmp_path / "tiny.instance",
            f"shelfpack-instance v1\nd1 1/1\nd2 1/{10**400}\n",
        )
        out = tmp_path / "f.placement"
        assert main(["solve", path, "--backend", "float", "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: disk 'd2' has a size below the float range\n"
        assert not out.exists()

    @pytest.mark.parametrize("body, line, size", [
        ("a 1e-200\nb 1e-200\nc 3e-200\n", 2, "1e-200"),
        ("a 1e-200\n", 2, "1e-200"),
        ("z 1.0\na 1e200\n", 3, "1e+200"),
    ])
    def test_float_radius_beyond_the_float_range_exits_2(self, tmp_path, capsys, body, line, size):
        # the first two used to divide by a lower bound of 0.0 (exit 1)
        path = write(tmp_path / "far.instance", f"shelfpack-instance v1\n{body}")
        out = tmp_path / "far.placement"
        assert main(["solve", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {line}: disk 'a' has size {size}, whose radius leaves the float range\n"
        )
        assert not out.exists()

    def test_float_backend_radius_below_the_float_range_exits_3(self, tmp_path, capsys):
        path = write(tmp_path / "small.instance", f"shelfpack-instance v1\nd1 1/{10**200}\n")
        assert main(["solve", path, "--backend", "float"]) == 3
        assert capsys.readouterr().err == (
            "error: disk 'd1' has size 1e-200, whose radius leaves the float range\n"
        )

    def test_linear_mode_rejects_nonlinear(self, nonlinear_instance, tmp_path, capsys):
        exact = write(
            tmp_path / "nonlin-exact.instance",
            "shelfpack-instance v1\nd1 5/1\nd2 4/1\nd3 3/1\nd4 2/1\n",
        )
        out = tmp_path / "x"
        for inst in (nonlinear_instance, exact):
            assert main(["solve", inst, "--mode", "linear", "--out", str(out)]) == 3
            assert capsys.readouterr().err == "error: not a linear-case instance\n"
        assert not out.exists()

    def test_paper_boundary_is_linear(self, tmp_path, capsys):
        # the size-1 disk fits the gap of the two size-2 disks exactly
        path = write(tmp_path / "edge.instance", "shelfpack-instance v1\na 2/1\nb 2/1\nc 1/1\n")
        assert main(["solve", path]) == 0
        assert "method: exact (linear case)" in capsys.readouterr().err
        out = tmp_path / "edge.placement"
        assert main(["solve", path, "--mode", "linear", "--out", str(out)]) == 0
        assert "span: 16 (exact)" in capsys.readouterr().out
        assert main(["verify", str(out)]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_single_disk_is_linear(self, tmp_path, capsys):
        path = write(tmp_path / "one.instance", "shelfpack-instance v1\nd1 3/1\n")
        assert main(["solve", path]) == 0
        err = capsys.readouterr().err
        assert "method: exact (linear case)" in err and "span: 18 (exact)" in err

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent"), "--out", str(tmp_path / "x")]) == 2

    def test_unreadable_input_exits_2(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.instance"
        latin1.write_bytes("shelfpack-instance v1\nd\xe9 1/1\n".encode("latin-1"))
        assert main(["solve", str(latin1)]) == 2
        assert main(["verify", str(tmp_path)]) == 2  # a directory
        err = capsys.readouterr().err
        assert err.count("error: ") == 2

    def test_placement_to_stdout_without_out(self, linear_instance, capsys):
        assert main(["solve", linear_instance]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("shelfpack-placement v1\n")
        assert "span: 571 (exact)" in captured.err

    def test_deterministic_output_bytes(self, tmp_path, linear_instance):
        out1, out2 = tmp_path / "a.placement", tmp_path / "b.placement"
        main(["solve", linear_instance, "--out", str(out1)])
        main(["solve", linear_instance, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestExactModeDispatch:
    """``solve --mode exact`` answers a linear-case instance with the
    linear-case solver, whose span is exact; the subset DP is the
    independent reference."""

    @staticmethod
    def linear_case_sizes(rng, n, boundary):
        """n sizes k/100, 100 <= k < 200, about 30% repeated; with
        ``boundary`` the smallest becomes z = ab/(a + b) of the two
        largest, which exactly fits their gap."""
        while True:
            sizes = []
            for _ in range(n):
                if sizes and rng.random() < 0.3:
                    sizes.append(rng.choice(sizes))
                else:
                    sizes.append(Fraction(rng.randint(100, 199), 100))
            if boundary:
                a, b = sorted(sizes)[-2:]
                sizes[sizes.index(min(sizes))] = a * b / (a + b)
            if is_linear_case(make_disks(sizes)):
                return sizes

    def test_spans_match_the_subset_dp(self, tmp_path, capsys):
        rng = random.Random(83)
        ulps = []
        for k in range(96):
            sizes = self.linear_case_sizes(rng, 3 + k % 6, boundary=k % 4 >= 2)
            for floats in (False, True):
                if floats:
                    sizes = [float(v) for v in sizes]
                    if not is_linear_case(make_disks(sizes)):
                        continue  # a rounded boundary size may hide
                    rows = "".join(f"d{i} {v!r}\n" for i, v in enumerate(sizes))
                else:
                    rows = "".join(f"d{i} {v.numerator}/{v.denominator}\n"
                                   for i, v in enumerate(sizes))
                inst = write(tmp_path / "lin.instance", "shelfpack-instance v1\n" + rows)
                assert main(["solve", inst, "--mode", "exact", "--out", str(tmp_path / "x")]) == 0
                lines = capsys.readouterr().out.splitlines()
                assert lines[0] == "method: exact (linear case)"
                printed = lines[2].removeprefix("span: ")
                _, reference = exact_solve(make_disks(sizes))
                if not floats:
                    assert printed == f"{display_scalar(reference.span)} (exact)"
                    continue
                value = float(printed.removesuffix(" (float)"))
                # the DP returns the smallest compacted span, so the one
                # order the linear-case solver compacts is never below it
                assert value >= reference.span
                ulps.append(round((value - reference.span) / math.ulp(reference.span)))
        # at seed 83, 9 of the 48 boundary instances leave the linear case
        # once rounded to floats; of the 87 float spans left, 70 match the
        # DP's bit for bit, 14 lie 1 ulp above it and 3 lie 2 ulps above
        assert len(ulps) == 87 and max(ulps) <= 2


class TestOneLiftPerSolve:
    """A ``solve`` sorts and lifts its sizes once for the dispatch and the
    solver it picks; the printed lower bound lifts them once more."""

    CASES = {
        "linear": ("shelfpack-instance v1\nd1 10/1\nd2 9/1\nd3 8/1\nd4 7/1\n", []),
        "greedy": ("shelfpack-instance v1\na 5/1\nb 4/1\nc 3/1\nd 2/1\n", []),
        "hidden": (HIDDEN_12, ["--mode", "exact", "--max-n", "12"]),
        "subset DP": (NONLINEAR_12, ["--mode", "exact", "--max-n", "12"]),
    }

    @pytest.mark.parametrize("backend", ["exact", "float"])
    @pytest.mark.parametrize("path", list(CASES))
    def test_two_lifts_per_solve(self, tmp_path, monkeypatch, capsys, path, backend):
        text, args = self.CASES[path]
        inst = write(tmp_path / "x.instance", text)
        lifts = []

        def counted_lift(*args):
            lifts.append(len(args[0]))
            return lift(*args)

        monkeypatch.setattr(geometry, "lift", counted_lift)
        out = tmp_path / "x.placement"
        assert main(["solve", inst, *args, "--backend", backend, "--out", str(out)]) == 0
        method = capsys.readouterr().out.splitlines()[0]
        # on floats no optimum is proved by the prefix: the subset DP runs
        expected = "subset DP" if path == "hidden" and backend == "float" else path
        assert expected in method
        n = len(text.splitlines()) - 1
        assert lifts == [n, n]


class TestSolveMatchesLibrary:
    """``solve`` writes the placement of the public solver its mode picks,
    byte for byte as ``format_placement`` writes it, and prints that
    solver's span, ``best_support_lower_bound`` and their ratio."""

    @staticmethod
    def library(disks, mode):
        """The method, placement and span the public solvers give; raises
        where the command must exit 3."""
        linear = is_linear_case(disks)
        if mode == "linear" and not linear:
            raise PreconditionError("not a linear-case instance")
        if mode != "greedy" and linear:
            placement, report = solve_linear(disks)
            return "exact (linear case)", placement, report.span
        if mode == "exact":
            hidden = hidden_in_linear_prefix(disks)
            if hidden:
                return "exact (hidden in linear prefix)", hidden[0], hidden[1].span
            placement, report = exact_solve(disks)
            return "exact (subset DP)", placement, report.span
        result = greedy_solve(disks)
        return "greedy (4/3 approximation)", result.placement, result.certificate.span

    def test_seeded_instances_under_every_mode(self, tmp_path, capsys):
        rng = random.Random(2701)
        paths = {}
        for _ in range(80):
            n = rng.choice([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 20, 40, 60])
            ratio = rng.choice([1.5, 1.9, 3, 6, 20, 50])
            units = []
            for _ in range(n):  # sizes k/1000 log-uniform on [1, ratio], some tied
                if units and rng.random() < 0.25:
                    units.append(rng.choice(units))
                else:
                    units.append(max(1000, round(1000 * ratio ** rng.random())))
            for floats in (False, True):
                if floats:
                    rows = "".join(f"d{i} {u / 1000!r}\n" for i, u in enumerate(units))
                else:
                    rows = "".join(f"d{i} {u}/1000\n" for i, u in enumerate(units))
                text = "shelfpack-instance v1\n" + rows
                disks, backend = files.parse_instance(text)
                inst = write(tmp_path / "x.instance", text)
                for mode in ("auto", "linear", "greedy", "exact"):
                    rc = main(["solve", inst, "--mode", mode])
                    captured = capsys.readouterr()
                    try:
                        method, placement, span_ = self.library(disks, mode)
                    except PreconditionError as exc:
                        assert rc == 3
                        assert captured.err == f"error: {exc}\n"
                        paths["refused"] = paths.get("refused", 0) + 1
                        continue
                    assert rc == 0
                    assert captured.out == files.format_placement(placement)
                    lower = geometry.best_support_lower_bound(disks)
                    suffix = backend.value
                    assert captured.err.splitlines() == [
                        f"method: {method}",
                        f"disks: {n}",
                        f"span: {display_scalar(span_)} ({suffix})",
                        f"lower bound: {display_scalar(lower)} ({suffix})",
                        f"ratio: {display_scalar(span_ / lower)} ({suffix})",
                    ]
                    paths[method] = paths.get(method, 0) + 1
        # every path ran, and every refusal too
        assert len(paths) == 5, paths


class TestGoldenSolve:
    """``solve`` on checked-in instances, compared byte for byte with the
    summary and placement recorded in tests/data."""

    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize("name", ["greedy_float", "greedy_exact"])
    def test_matches_golden_files(self, name, tmp_path, capsys):
        instance = str(self.DATA / f"{name}.instance")
        summary = (self.DATA / f"{name}.summary").read_bytes()
        placement = (self.DATA / f"{name}.placement").read_bytes()
        assert main(["solve", instance]) == 0
        captured = capsys.readouterr()
        assert captured.err.encode() == summary
        assert captured.out.encode() == placement
        out = tmp_path / "out.placement"
        assert main(["solve", instance, "--out", str(out)]) == 0
        assert out.read_bytes() == placement


class TestVerify:
    def test_accepts_valid_placement(self, tmp_path, capsys):
        path = write(
            tmp_path / "ok.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 3/1\n",
        )
        assert main(["verify", path]) == 0
        captured = capsys.readouterr().out
        assert "span: 4 (exact)" in captured
        assert "accepted" in captured

    def test_rejects_overlap_with_pair_ids(self, tmp_path, capsys):
        path = write(
            tmp_path / "bad.placement",
            "shelfpack-placement v1\nu1 1/1 0/1\nu2 1/1 19/10\n",
        )
        assert main(["verify", path]) == 1
        captured = capsys.readouterr().out
        assert "rejected: disks u1 and u2 overlap by 1/10" in captured

    def test_float_tolerance(self, tmp_path):
        path = write(
            tmp_path / "close.placement",
            "shelfpack-placement v1\nu1 1.0 0.0\nu2 1.0 1.9999999\n",
        )
        assert main(["verify", path]) == 1
        for tolerance in ("1e-6", "1", "1.0", "1/1"):
            assert main(["verify", path, "--tolerance", tolerance]) == 0
        assert main(["verify", path, "--tolerance", "9" * 400]) == 3  # no float

    def test_float_solve_output_accepted_at_default_tolerance(self, tmp_path):
        sizes = "".join(f"d{i} {k}/100\n" for i, k in enumerate(range(101, 150, 9)))
        inst = write(tmp_path / "f.instance", "shelfpack-instance v1\n" + sizes)
        # c hides left of a at 0 - 2 * 37.62 * 11.05, which rounds up past
        # c's tangency with a unless the greedy steps it down
        hiding = write(tmp_path / "h.instance", "shelfpack-instance v1\na 37.62\nb 10.93\nc 11.05\n")
        for mode, path in (("linear", inst), ("exact", inst), ("greedy", hiding)):
            out = str(tmp_path / f"{mode}.placement")
            args = ["solve", path, "--backend", "float", "--mode", mode, "--out", out]
            assert main(args) == 0
            assert main(["verify", out]) == 0

    def test_seeded_float_round_trips_at_tolerance_zero(self, tmp_path, capsys):
        # decimal sizes log-uniform on [1, 50], solved and verified at the
        # CLI defaults
        rng = random.Random(2017)
        for n, count in ((10, 30), (100, 10), (1000, 3), (10_000, 1)):
            for _ in range(count):
                rows = "".join(f"d{i} {50 ** rng.random():.6f}\n" for i in range(n))
                inst = write(tmp_path / "r.instance", "shelfpack-instance v1\n" + rows)
                out = str(tmp_path / "r.placement")
                assert main(["solve", inst, "--out", out]) == 0
                assert main(["verify", out]) == 0, (n, rows)
                assert capsys.readouterr().out.endswith("accepted\n")

    def test_tolerance_uses_the_file_grammar(self, tmp_path):
        # spaces and underscores are no literal of a file, so no tolerance
        floats = write(
            tmp_path / "f.placement",
            "shelfpack-placement v1\nu1 1.0 0.0\nu2 1.0 2.0\n",
        )
        exact = write(
            tmp_path / "e.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 3/1\n",
        )
        for tolerance in (" 1", "1 ", "1_0", "0_0"):
            assert main(["verify", floats, "--tolerance", tolerance]) == 2
        assert main(["verify", exact, "--tolerance", "0_0"]) == 2
        # an integer literal is exact; a decimal one is refused
        for tolerance in ("0", "-0", "+0", "0/7"):
            assert main(["verify", exact, "--tolerance", tolerance]) == 0
        assert main(["verify", exact, "--tolerance", "0.0"]) == 3

    def test_exact_mode_decimal_output_accepted(self, tmp_path, capsys):
        # the oracle used to return this greedy placement as it was, and
        # verify found d4 and d2 overlapping by 2.27e-13
        sizes = (
            "33.03772003267411 39.17464336993064 11.581501458750513 "
            "2.728701968107273 9.76350626456952 1.8517185650551333 "
            "1.2785622367672385"
        ).split()
        rows = "".join(f"d{i} {s}\n" for i, s in enumerate(sizes))
        inst = write(tmp_path / "d7.instance", "shelfpack-instance v1\n" + rows)
        out = str(tmp_path / "d7.placement")
        assert main(["solve", inst, "--mode", "exact", "--out", out]) == 0
        assert main(["verify", out]) == 0

    def test_exact_rejects_nonzero_tolerance(self, tmp_path):
        path = write(
            tmp_path / "ok.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 3/1\n",
        )
        assert main(["verify", path, "--tolerance", "1/10"]) == 3

    def test_float_radius_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # used to verify as "span: inf" and reject with "overlap by inf"
        path = write(tmp_path / "far.placement",
                     "shelfpack-placement v1\na 1e200 0\nb 1e200 1e308\n")
        assert main(["verify", path]) == 2
        assert capsys.readouterr() == ("", (
            "error: line 2: disk 'a' has size 1e+200, whose radius leaves the float range\n"
        ))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path / "empty.placement", "")
        assert main(["verify", path]) == 2


class TestGenhard:
    def test_generates_instance_sidecar_and_certificate(self, tmp_path, capsys):
        src = write(tmp_path / "3p.txt", "2 100\n30 33 37 26 35 39\n")
        groups = write(tmp_path / "groups.txt", "1 2 3\n4 5 6\n")
        out = tmp_path / "hard.instance"
        rc = main(["genhard", src, "--out", str(out), "--certificate", groups])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "disks: 35" in captured and "budget: 6" in captured

        from shelfpack.files import read_instance

        disks, backend = read_instance(out)
        assert len(disks) == 35

        sidecar = (tmp_path / "hard.instance.json").read_text()
        assert '"budget": "6/1"' in sidecar

        certificate = read_placement(tmp_path / "hard.instance.certificate")
        result = verify(certificate, 0)
        assert result.ok and result.report.span == 6

    def test_matches_golden_certificate_files(self, tmp_path, capsys):
        # m = 4, twelve distinct elements, groups listed out of index order
        data = Path(__file__).parent / "data"
        out = tmp_path / "h.instance"
        rc = main([
            "genhard", str(data / "certificate_m4.3p"), "--out", str(out),
            "--certificate", str(data / "certificate_m4.groups"),
        ])
        assert rc == 0
        assert capsys.readouterr().out.startswith("disks: 59\nbudget: 10\n")
        for written, golden in (
            (out, "certificate_m4.instance"),
            (tmp_path / "h.instance.json", "certificate_m4.json"),
            (tmp_path / "h.instance.certificate", "certificate_m4.placement"),
        ):
            assert written.read_bytes() == (data / golden).read_bytes(), golden

    def test_bad_certificate_writes_nothing(self, tmp_path, capsys):
        src = write(tmp_path / "3p.txt", "2 100\n30 33 37 26 35 39\n")
        groups = write(tmp_path / "groups.txt", "1 2 4\n3 5 6\n")
        out = tmp_path / "h.instance"
        rc = main(["genhard", src, "--out", str(out), "--certificate", groups])
        assert rc == 3
        assert "sums to 111" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "h.instance.json").exists()

    def test_m3_counts(self, tmp_path, capsys):
        src = write(tmp_path / "3p.txt", "3 100\n30 33 37 26 35 39 31 32 37\n")
        rc = main(["genhard", src, "--out", str(tmp_path / "h.instance")])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "disks: 47" in captured and "budget: 8" in captured

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 100\n30 33 37 26 35 x\n", "non-integer token in 3-Partition input"),
            ("0 100\n", "m must be at least 1, got 0"),
        ],
    )
    def test_unparsable_source_exits_2(self, tmp_path, capsys, text, message):
        src = write(tmp_path / "3p.txt", text)
        out = tmp_path / "h.instance"
        assert main(["genhard", src, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_element_exits_3_with_constraint(self, tmp_path, capsys):
        src = write(tmp_path / "3p.txt", "2 100\n50 33 37 26 35 39\n")
        rc = main(["genhard", src, "--out", str(tmp_path / "h.instance")])
        assert rc == 3
        assert "a_i < B/2 violated" in capsys.readouterr().err


class TestRender:
    def test_two_unit_disks(self, tmp_path):
        path = write(
            tmp_path / "two.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 3/1\n",
        )
        out = tmp_path / "two.svg"
        assert main(["render", path, "--out", str(out)]) == 0
        svg = out.read_text()
        assert svg.count("<circle") == 2
        assert "span = 4</text>" in svg
        assert 'stroke-dasharray' in svg

    def test_byte_identical_across_runs(self, tmp_path):
        src = write(tmp_path / "3p.txt", "2 100\n30 33 37 26 35 39\n")
        groups = write(tmp_path / "groups.txt", "1 2 3\n4 5 6\n")
        main(["genhard", src, "--out", str(tmp_path / "h.instance"), "--certificate", groups])
        cert = str(tmp_path / "h.instance.certificate")
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", cert, "--out", str(out1)]) == 0
        assert main(["render", cert, "--out", str(out2), "--scale", "40.0"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().count("<circle") == 35

    def test_scale_zero_exits_3(self, tmp_path):
        path = write(
            tmp_path / "two.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 3/1\n",
        )
        for scale in ("0", "nan", "inf"):
            out = tmp_path / "x.svg"
            assert main(["render", path, "--out", str(out), "--scale", scale]) == 3
            assert not out.exists()

    def test_beyond_the_float_range_exits_3(self, tmp_path, capsys):
        # an exact size whose float overflows, and a float radius that is
        # finite but whose drawing overflows (a radius beyond the float
        # range is refused when the file is read)
        for size in (f"{10**200}/1 0/1", "1e154 0.0"):
            path = write(tmp_path / "huge.placement", f"shelfpack-placement v1\na {size}\n")
            out = tmp_path / "x.svg"
            assert main(["render", path, "--out", str(out)]) == 3
            assert "float range" in capsys.readouterr().err
            assert not out.exists()

    def test_matches_golden_certificate_rendering(self, tmp_path):
        import pathlib

        src = write(tmp_path / "3p.txt", "2 100\n30 33 37 26 35 39\n")
        groups = write(tmp_path / "groups.txt", "1 2 3\n4 5 6\n")
        main(["genhard", src, "--out", str(tmp_path / "h.instance"), "--certificate", groups])
        out = tmp_path / "cert.svg"
        main(["render", str(tmp_path / "h.instance.certificate"), "--out", str(out)])
        golden = pathlib.Path(__file__).parent / "data" / "certificate_m2.svg"
        assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")


class TestModuleEntry:
    # the ``shelfpack`` script runs shelfpack.cli:entry ([project.scripts])
    SCRIPT = ["-c", "from shelfpack.cli import entry; entry()"]

    def run(self, prefix, args):
        return subprocess.run(
            [sys.executable, *prefix, *args],
            capture_output=True, text=True, env=module_env(), timeout=60,
        )

    def test_exit_codes_match_the_script(self, tmp_path, linear_instance):
        overlap = write(
            tmp_path / "bad.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 2/1\n",
        )
        big = write(tmp_path / "big.instance", NONLINEAR_12)
        huge = write(
            tmp_path / "huge.instance",
            f"shelfpack-instance v1\na 1/1\nb {10**400}/1\n",
        )
        tiny = write(
            tmp_path / "tiny.instance",
            f"shelfpack-instance v1\na 1/{10**400}\nb 1/1\n",
        )
        exact_far = write(
            tmp_path / "far.placement", f"shelfpack-placement v1\na {10**200}/1 0/1\n"
        )
        float_far = write(
            tmp_path / "far_float.placement", "shelfpack-placement v1\na 1e154 0.0\n"
        )
        float_radius = write(
            tmp_path / "radius.placement", "shelfpack-placement v1\na 1e200 0.0\n"
        )
        exact_tiny = write(tmp_path / "small.instance", f"shelfpack-instance v1\na 1/{10**200}\n")
        svg = str(tmp_path / "x.svg")
        cases = [
            (["solve", linear_instance], 0),
            (["verify", overlap], 1),
            (["solve", str(tmp_path / "missing.instance")], 2),
            ([], 2),
            (["solve", big, "--mode", "exact"], 3),
            (["solve", huge, "--backend", "float"], 3),
            (["solve", tiny, "--backend", "float"], 3),
            (["render", exact_far, "--out", svg], 3),
            (["render", float_far, "--out", svg], 3),
            (["render", float_radius, "--out", svg], 2),
            (["solve", exact_tiny, "--backend", "float"], 3),
        ]
        for args, code in cases:
            module = self.run(["-m", "shelfpack"], args)
            script = self.run(self.SCRIPT, args)
            assert module.returncode == script.returncode == code, args
            assert (module.stdout, module.stderr) == (script.stdout, script.stderr)

    def test_closed_pipe_exits_quietly(self, tmp_path):
        # about 130 kB of placement overflow the pipe buffer, so the solver
        # is still writing when the reader goes away, as with ``| head -1``.
        # Standard output is buffered, as in a shell: unbuffered text output
        # drops what a partial write leaves over instead of raising.
        env = module_env()
        env.pop("PYTHONUNBUFFERED", None)
        big = write(
            tmp_path / "big.instance",
            "shelfpack-instance v1\n"
            + "".join(f"d{i:05d} {1 + i % 97 / 16}\n" for i in range(5000)),
        )
        for prefix in (["-m", "shelfpack"], self.SCRIPT):
            proc = subprocess.Popen(
                [sys.executable, *prefix, "solve", big],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
            )
            assert proc.stdout.readline() == b"shelfpack-placement v1\n"
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            proc.stderr.close()
            assert proc.wait(timeout=60) == 0
            assert stderr.startswith("method: greedy"), stderr
            assert "Traceback" not in stderr and "Exception ignored" not in stderr


class TestCollector:
    """``main`` runs its command with the cyclic collector paused and
    leaves it as the caller set it, whatever the exit."""

    class ClosedPipe(io.StringIO):
        """Standard output whose reader has gone away."""

        def __init__(self, fd):
            super().__init__()
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError

        def fileno(self):
            return self.fd

    @pytest.mark.parametrize("collecting", [True, False], ids=["on", "off"])
    def test_main_restores_the_callers_setting(
        self, tmp_path, linear_instance, monkeypatch, capsys, collecting
    ):
        overlap = write(
            tmp_path / "bad.placement", "shelfpack-placement v1\na 1/1 1/1\nb 1/1 2/1\n"
        )
        big = write(tmp_path / "big.instance", NONLINEAR_12)
        during = []  # the collector's state as each command reads its file

        def spy(read):
            return lambda path: during.append(gc.isenabled()) or read(path)

        monkeypatch.setattr(files, "read_instance", spy(files.read_instance))
        monkeypatch.setattr(files, "read_placement", spy(files.read_placement))
        cases = [
            (["solve", linear_instance], 0),
            (["verify", overlap], 1),
            (["verify", str(tmp_path / "missing.placement")], 2),
            (["solve", big, "--mode", "exact"], 3),
        ]
        was = gc.isenabled()
        fd = os.open(os.devnull, os.O_WRONLY)  # the closed pipe's stand-in
        try:
            (gc.enable if collecting else gc.disable)()
            for args, code in cases:
                assert main(args) == code, args
                assert gc.isenabled() is collecting, args
            with monkeypatch.context() as m:
                m.setattr(sys, "stdout", self.ClosedPipe(fd))
                assert main(["solve", linear_instance]) == 0
            assert gc.isenabled() is collecting
        finally:
            os.close(fd)
            (gc.enable if was else gc.disable)()
        assert during == [False] * 5
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd to count descriptors")
    def test_closed_pipe_leaves_no_descriptor_open(self, linear_instance, monkeypatch):
        fd = os.open(os.devnull, os.O_WRONLY)  # the closed pipe's stand-in
        try:
            before = len(os.listdir("/dev/fd"))
            with monkeypatch.context() as m:
                m.setattr(sys, "stdout", self.ClosedPipe(fd))
                for _ in range(5):
                    assert main(["solve", linear_instance]) == 0
            assert len(os.listdir("/dev/fd")) == before
        finally:
            os.close(fd)


class TestParserReuse:
    """``main`` builds its parser once per process, and a call's options
    do not reach a later call."""

    def test_later_calls_build_no_parser(self, tmp_path, linear_instance, monkeypatch, capsys):
        out = str(tmp_path / "lin.placement")
        assert main(["solve", linear_instance, "--out", out]) == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cases = [
            (["solve", linear_instance, "--out", out], 0),
            (["verify", out], 0),
            (["render", out, "--out", str(tmp_path / "lin.svg")], 0),
            (["solve", linear_instance, "--mode", "bogus"], 2),
            (["--help"], 0),
        ]
        assert [main(args) for args, _ in cases] == [code for _, code in cases]
        assert built == []
        first = cli.build_parser()  # a factory still: a new parser per call
        assert built and cli.build_parser() is not first

    def test_no_option_carries_over(self, tmp_path, linear_instance, capsys):
        placement, svg = tmp_path / "d.placement", tmp_path / "d.svg"
        defaults = [
            ["solve", linear_instance, "--out", str(placement)],
            ["verify", str(placement)],
            ["render", str(placement), "--out", str(svg)],
        ]

        def run_defaults():
            statuses = [main(args) for args in defaults]
            return statuses, capsys.readouterr(), placement.read_bytes(), svg.read_bytes()

        cli._parser.cache_clear()  # the next call is a process's first
        first = run_defaults()
        assert first[0] == [0, 0, 0] and "span: 571 (exact)" in first[1].out
        floats = str(tmp_path / "o.placement")
        solve = ["--mode", "exact", "--backend", "float", "--max-n", "7", "--out", floats]
        assert main(["solve", linear_instance, *solve]) == 0
        assert main(["verify", floats, "--tolerance", "1e-3"]) == 0
        assert main(["render", floats, "--out", str(tmp_path / "o.svg"), "--scale", "10"]) == 0
        capsys.readouterr()
        placement.unlink()
        svg.unlink()
        assert run_defaults() == first
        fresh = vars(cli.build_parser().parse_args(["solve", "x"]))
        assert vars(cli._parser().parse_args(["solve", "x"])) == fresh


class TestExactPlacementsStayIntegers:
    """An exact placement goes from file to file as integers: ``Fraction``s
    are built for the distinct sizes and a few results, never one per
    footpoint, and a read placement is lifted once."""

    N = 1000

    @staticmethod
    def count_fractions(monkeypatch):
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        return made

    def instance(self, tmp_path):
        rng = random.Random(16)
        sizes = [Fraction(rng.randint(1, 60), rng.choice((7, 11, 13, 20))) for _ in range(self.N)]
        disks = [Disk(f"d{i}", size) for i, size in enumerate(sizes)]
        path = tmp_path / "n1000.instance"
        files.write_instance(path, disks)
        return path, len(set(sizes))

    def test_verify_builds_fractions_for_distinct_sizes_and_lifts_once(
        self, tmp_path, monkeypatch, capsys
    ):
        path, distinct = self.instance(tmp_path)
        placement = greedy_solve(files.read_instance(path)[0]).placement
        out = tmp_path / "n1000.placement"
        files.write_placement(out, placement)
        lifts = []

        def counted_lift(*args):
            lifts.append(len(args[0]))
            return lift(*args)

        monkeypatch.setattr(geometry, "lift", counted_lift)
        monkeypatch.setattr(files, "lift", counted_lift)  # the reader's lift
        made = self.count_fractions(monkeypatch)
        assert main(["verify", str(out)]) == 0
        assert "accepted" in capsys.readouterr().out
        assert lifts == [self.N]
        assert distinct < len(made) <= distinct + 10, len(made)

    def test_solve_builds_no_fraction_per_footpoint(self, tmp_path, monkeypatch, capsys):
        path, distinct = self.instance(tmp_path)
        out = tmp_path / "n1000.placement"
        made = self.count_fractions(monkeypatch)
        assert main(["solve", str(path), "--out", str(out)]) == 0
        assert "method: greedy" in capsys.readouterr().out
        assert distinct < len(made) <= distinct + 20, len(made)
        monkeypatch.undo()
        assert files.read_placement(out) == greedy_solve(files.read_instance(path)[0]).placement
