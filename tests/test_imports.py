"""What each command loads: ``shelfpack`` resolves its public names at
first access, and ``shelfpack.cli`` imports a solver, ``hardness`` or
``svg`` only in the command that runs it.  The names the benchmark's
traced mode wraps on ``shelfpack.cli`` stay bound there."""

import importlib
import subprocess
import sys
from fractions import Fraction as F

import pytest

import shelfpack
from helpers import make_disks, module_env
from shelfpack import cli
from shelfpack.files import write_instance, write_placement
from shelfpack.geometry import compact

BASE = {"shelfpack", "shelfpack.cli", "shelfpack.errors", "shelfpack.files",
        "shelfpack.geometry", "shelfpack.scalars"}


def fresh(code: str) -> str:
    """Standard output of ``code`` in a fresh interpreter that imports the
    package under test."""
    return subprocess.run(
        [sys.executable, "-c", code], env=module_env(), capture_output=True,
        text=True, check=True,
    ).stdout


def loaded_by(argv: list[str]) -> set[str]:
    """The ``shelfpack`` modules loaded after ``main(argv)`` in a fresh
    interpreter."""
    code = (
        "import sys\n"
        "from shelfpack.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('\\n' + ' '.join(m for m in sys.modules if m.split('.')[0] == 'shelfpack'))\n"
    )
    return set(fresh(code).splitlines()[-1].split())


@pytest.fixture
def inputs(tmp_path):
    """Paths of a linear-case instance, a greedy one, an exact placement,
    a 3-Partition input and its groups."""
    linear, greedy = tmp_path / "lin.instance", tmp_path / "greedy.instance"
    write_instance(linear, make_disks([F(10), F(9), F(8), F(7)]))
    write_instance(greedy, make_disks([F(5), F(4), F(3), F(2)]))
    placement = tmp_path / "p.placement"
    write_placement(placement, compact(make_disks([F(3, 2), F(1)])))
    source, groups = tmp_path / "in.3p", tmp_path / "in.groups"
    source.write_text("1 12\n4 4 4\n")
    groups.write_text("1 2 3\n")
    return {k: str(v) for k, v in dict(
        linear=linear, greedy=greedy, placement=placement, source=source, groups=groups,
        out=tmp_path / "out",
    ).items()}


def test_cli_import_loads_no_solver_hardness_or_svg():
    code = (
        "import sys\n"
        "import shelfpack.cli\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'shelfpack'))\n"
    )
    assert set(fresh(code).split()) == BASE


@pytest.mark.parametrize("command, extra", [
    (["verify", "{placement}"], set()),
    (["solve", "{linear}"], {"linear"}),
    (["solve", "{greedy}"], {"linear", "greedy"}),
    (["solve", "{greedy}", "--mode", "greedy"], {"greedy"}),
    (["solve", "{greedy}", "--mode", "exact"], {"linear", "greedy", "oracle"}),
    (["render", "{placement}", "--out", "{out}"], {"svg"}),
    (["genhard", "{source}", "--out", "{out}", "--certificate", "{groups}"], {"hardness"}),
])
def test_each_command_loads_only_the_modules_it_runs(inputs, command, extra):
    argv = [arg.format(**inputs) for arg in command]
    assert loaded_by(argv) == BASE | {f"shelfpack.{name}" for name in extra}


class TestLazyNamespace:
    def test_each_name_is_its_home_modules_object(self):
        for module, names in shelfpack._HOMES.items():
            home = importlib.import_module(f"shelfpack.{module}")
            for name in names:
                value = shelfpack.__getattr__(name)  # the first-access path
                assert value is getattr(home, name) is getattr(shelfpack, name)
                # defined there, not re-exported from another module
                assert getattr(value, "__module__", home.__name__) in (home.__name__, "typing")
        assert sorted(shelfpack._HOME) == shelfpack.__all__

    def test_names_resolve_at_first_access_in_a_fresh_interpreter(self):
        code = (
            "import sys, shelfpack\n"
            "print(len([m for m in sys.modules if m.startswith('shelfpack.')]))\n"
            "from shelfpack import geometry, greedy_solve\n"
            "print(greedy_solve is sys.modules['shelfpack.greedy'].greedy_solve,"
            " geometry is sys.modules['shelfpack.geometry'])\n"
        )
        assert fresh(code).split() == ["0", "True", "True"]

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from shelfpack import *", namespace)
        for name in shelfpack.__all__:
            assert namespace[name] is getattr(shelfpack, name)

    def test_dir_lists_every_public_name(self):
        assert set(shelfpack.__all__) <= set(dir(shelfpack))
        assert dir(shelfpack) == sorted(dir(shelfpack))

    def test_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError) as info:
            shelfpack.no_such_name
        assert str(info.value) == "module 'shelfpack' has no attribute 'no_such_name'"
        with pytest.raises(ImportError):
            from shelfpack import no_such_name  # noqa: F401


class TestTracedBindings:
    """The benchmark's traced mode replaces these names on ``cli`` with
    timing wrappers; the commands must call through them."""

    WRAPPED = {
        "best_support_lower_bound": ["solve", "{linear}"],
        "verify": ["verify", "{placement}"],
        "render_svg": ["render", "{placement}", "--out", "{out}"],
        "build_instance": ["genhard", "{source}", "--out", "{out}",
                           "--certificate", "{groups}"],
        "build_certificate": ["genhard", "{source}", "--out", "{out}",
                              "--certificate", "{groups}"],
    }

    def test_each_wrapper_is_called_once_by_its_command(self, inputs, monkeypatch, capsys):
        calls = {}
        for name in self.WRAPPED:
            def counted(*args, _name=name, _real=getattr(cli, name), **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        for name, command in self.WRAPPED.items():
            calls.clear()
            assert cli.main([arg.format(**inputs) for arg in command]) == 0
            assert calls[name] == 1
        capsys.readouterr()

    def test_untraced_solver_names_resolve_on_cli(self):
        code = (
            "import shelfpack, shelfpack.cli as cli\n"
            "names = ['is_linear_case', 'greedy_solve', 'solve_linear', 'exact_solve']\n"
            "print(all(getattr(cli, n) is getattr(shelfpack, n) for n in names))\n"
            "try:\n"
            "    cli.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert fresh(code).splitlines() == [
            "True", "module 'shelfpack.cli' has no attribute 'no_such_name'"
        ]
