import os
import subprocess
import sys
from pathlib import Path

import pytest

import shelfpack
from shelfpack.cli import main
from shelfpack.files import read_placement
from shelfpack.geometry import span, verify


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def linear_instance(tmp_path):
    return write(
        tmp_path / "lin.instance",
        "shelfpack-instance v1\nd1 10/1\nd2 9/1\nd3 8/1\nd4 7/1\n",
    )


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
            "shelfpack-instance v1\n" + "".join(f"d{i} 1.5\n" for i in range(12)),
        )
        assert main(["solve", inst, "--mode", "exact", "--out", str(tmp_path / "x")]) == 3

    def test_exact_mode_with_raised_cap(self, tmp_path, capsys):
        inst = write(
            tmp_path / "big.instance",
            "shelfpack-instance v1\n" + "".join(f"d{i} 1/1\n" for i in range(12)),
        )
        out = tmp_path / "x.placement"
        rc = main(["solve", inst, "--mode", "exact", "--max-n", "12", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "method: exact (subset DP)" in captured
        assert "span: 24 (exact)" in captured

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

    def test_linear_mode_rejects_nonlinear(self, nonlinear_instance, tmp_path):
        rc = main(
            ["solve", nonlinear_instance, "--mode", "linear", "--out", str(tmp_path / "x")]
        )
        assert rc == 3

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "absent"), "--out", str(tmp_path / "x")]) == 2

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
        assert main(["verify", path, "--tolerance", "1e-6"]) == 0

    def test_exact_rejects_nonzero_tolerance(self, tmp_path):
        path = write(
            tmp_path / "ok.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 3/1\n",
        )
        assert main(["verify", path, "--tolerance", "1/10"]) == 3

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

    def test_m3_counts(self, tmp_path, capsys):
        src = write(tmp_path / "3p.txt", "3 100\n30 33 37 26 35 39 31 32 37\n")
        rc = main(["genhard", src, "--out", str(tmp_path / "h.instance")])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "disks: 47" in captured and "budget: 8" in captured

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
        rc = main(["render", path, "--out", str(tmp_path / "x.svg"), "--scale", "0"])
        assert rc == 3

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

    @staticmethod
    def env():
        env = dict(os.environ)
        src = str(Path(shelfpack.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return env

    def run(self, prefix, args):
        return subprocess.run(
            [sys.executable, *prefix, *args],
            capture_output=True, text=True, env=self.env(), timeout=60,
        )

    def test_exit_codes_match_the_script(self, tmp_path, linear_instance):
        overlap = write(
            tmp_path / "bad.placement",
            "shelfpack-placement v1\na 1/1 1/1\nb 1/1 2/1\n",
        )
        big = write(
            tmp_path / "big.instance",
            "shelfpack-instance v1\n" + "".join(f"d{i} 1/1\n" for i in range(12)),
        )
        cases = [
            (["solve", linear_instance], 0),
            (["verify", overlap], 1),
            (["solve", str(tmp_path / "missing.instance")], 2),
            ([], 2),
            (["solve", big, "--mode", "exact"], 3),
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
        env = self.env()
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
