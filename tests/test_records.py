"""The package's records: the slotted ``Disk`` and ``Placement``, the named
tuple results and ``OracleConfig``, and the import that builds them."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

from helpers import module_env
from shelfpack import (
    Disk,
    DomainError,
    HardnessInstance,
    OracleConfig,
    PartitionSolution,
    Placement,
    ThreePartitionInstance,
    build_instance,
    compact,
    greedy_solve,
    span,
    verify,
)
from shelfpack.scalars import Lift

M1 = ThreePartitionInstance((26, 33, 41), 100)


def test_cli_imports_without_dataclasses():
    # a fresh interpreter: what the import loads is what every CLI process
    # pays for; modules loaded before it (by site, say) are not counted
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import shelfpack.cli\n"
        "print(' '.join(sorted({'dataclasses', 'inspect'} & set(sys.modules) - before)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=module_env(), capture_output=True,
        text=True, check=True,
    ).stdout
    assert out.strip() == ""


def exact_placement():
    return compact([Disk("a", F(3, 2)), Disk("b", F(1))])


def records():
    """One of each record that pickles, with a float and an exact backend
    where it has one."""
    p = exact_placement()
    return [
        Disk("a", F(3, 2)),
        Disk("b", 1.5),
        p,
        compact([Disk("a", 1.5), Disk("b", 1.0)]),
        greedy_solve([Disk("a", F(3, 2)), Disk("b", F(1)), Disk("c", F(1, 2))]),
        verify(p, 0),
        verify(Placement([Disk("a", F(1)), Disk("b", F(1))], [0, 1]), 0),
        build_instance(M1),
        OracleConfig(),
        OracleConfig(max_n=3),
    ]


class TestImmutable:
    @pytest.mark.parametrize("name", ["id", "size", "radius", "other"])
    def test_disk_rejects_assignment_and_deletion(self, name):
        d = Disk("a", F(1))
        with pytest.raises(AttributeError):
            setattr(d, name, F(2))
        with pytest.raises(AttributeError):
            delattr(d, name)
        assert (d.id, d.size) == ("a", F(1))

    @pytest.mark.parametrize("name", ["disks", "footpoints", "_lift", "backend", "other"])
    def test_placement_rejects_assignment_and_deletion(self, name):
        p = exact_placement()  # its footpoints not yet read
        with pytest.raises(AttributeError):
            setattr(p, name, ())
        with pytest.raises(AttributeError):
            delattr(p, name)
        assert p == exact_placement() and p.footpoints == (F(9, 4), F(21, 4))

    def test_messages_name_the_field(self):
        d = Disk("a", F(1))
        with pytest.raises(AttributeError, match="cannot assign to field 'size'"):
            d.size = F(2)
        with pytest.raises(AttributeError, match="cannot delete field 'disks'"):
            del exact_placement().disks

    def test_unknown_attribute_of_a_placement(self):
        with pytest.raises(AttributeError, match="'Placement' object has no attribute 'feet'"):
            exact_placement().feet


class TestRepr:
    def test_slotted_records(self):
        assert repr(Disk("a", F(3, 2))) == "Disk(id='a', size=Fraction(3, 2))"
        assert repr(Disk("b", 1.5)) == "Disk(id='b', size=1.5)"
        assert repr(exact_placement()) == (
            "Placement(disks=(Disk(id='a', size=Fraction(3, 2)), "
            "Disk(id='b', size=Fraction(1, 1))), "
            "footpoints=(Fraction(9, 4), Fraction(21, 4)))"
        )
        assert repr(compact([Disk("a", 1.5), Disk("b", 1.0)])) == (
            "Placement(disks=(Disk(id='a', size=1.5), Disk(id='b', size=1.0)), "
            "footpoints=(2.25, 5.25))"
        )

    def test_results(self):
        q = Placement([Disk("a", F(1)), Disk("b", F(1))], [0, 1])
        assert repr(verify(q, 0)) == (
            "VerificationResult(ok=False, report=SpanReport(left_wall=Fraction(-1, 1), "
            "right_wall=Fraction(2, 1), span=Fraction(3, 1), left_disk_id='a', "
            "right_disk_id='b'), violation=Violation(left_disk_id='a', "
            "right_disk_id='b', deficit=Fraction(1, 1)))"
        )
        assert repr(greedy_solve([Disk("a", F(3, 2)), Disk("b", F(1))])) == (
            "GreedyResult(placement=Placement(disks=(Disk(id='a', size=Fraction(3, 2)), "
            "Disk(id='b', size=Fraction(1, 1))), footpoints=(Fraction(0, 1), "
            "Fraction(3, 1))), certificate=Certificate(span=Fraction(25, 4), "
            "lower_bound=Fraction(6, 1), ratio=Fraction(25, 24)), queue_ops=1)"
        )

    def test_configs_and_reduction_records(self):
        assert repr(OracleConfig()) == "OracleConfig(max_n=10)"
        assert repr(OracleConfig(max_n=7)) == "OracleConfig(max_n=7)"
        assert repr(M1) == "ThreePartitionInstance(elements=(26, 33, 41), bound=100)"
        assert repr(PartitionSolution(((1, 2, 3),))) == "PartitionSolution(groups=((1, 2, 3),))"
        assert repr(build_instance(M1)).startswith(
            "HardnessInstance(source=ThreePartitionInstance(elements=(26, 33, 41), "
            "bound=100), disks=(Disk(id='outer-0', size=Fraction(1, 1)), "
        )


class TestRoundTrips:
    @pytest.mark.parametrize(
        "clone",
        [
            lambda x: pickle.loads(pickle.dumps(x)),
            lambda x: pickle.loads(pickle.dumps(x, protocol=0)),
            copy.copy,
            copy.deepcopy,
        ],
        ids=["pickle", "pickle-0", "copy", "deepcopy"],
    )
    def test_records_come_back_equal(self, clone):
        for record in records():
            back = clone(record)
            assert type(back) is type(record)
            assert back == record and repr(back) == repr(record)

    def test_a_placement_keeps_its_lift(self):
        p = greedy_solve([Disk("a", F(3, 2)), Disk("b", F(1)), Disk("c", F(1, 2))]).placement
        for back in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            sizes, feet, c, to_scalar = back._lift
            assert type(back._lift) is Lift
            assert (sizes, feet, c) == p._lift[:3] and to_scalar(7) == p._lift.back(7)
            assert span(back) == span(p) and verify(back, 0) == verify(p, 0)


class TestHashAndEquality:
    def test_hardness_instance_hash_leaves_out_the_maps(self):
        hi = build_instance(M1)
        assert hash(hi) == hash(build_instance(M1))
        relabelled = HardnessInstance(hi.source, hi.disks, hi.budget, {}, {})
        assert hash(relabelled) == hash(hi) and relabelled != hi
        assert len({hi, build_instance(M1), relabelled}) == 2

    def test_results_are_tuples(self):
        report = span(exact_placement())
        left, right, extent, left_id, right_id = report
        assert report == (left, right, extent, left_id, right_id)
        assert hash(report) == hash(tuple(report))
        ok, _, violation = verify(exact_placement(), 0)
        assert ok and violation is None

    def test_slotted_records_compare_by_value(self):
        assert Disk("a", 1) == Disk("a", F(1)) and hash(Disk("a", 1)) == hash(Disk("a", F(1)))
        assert Disk("a", F(1)) != ("a", F(1)) and Disk("a", F(1)) != Disk("b", F(1))
        p = exact_placement()
        assert p == Placement(p.disks[::-1], p.footpoints[::-1]) and hash(p) == hash(exact_placement())
        assert p != (p.disks, p.footpoints)
        assert not hasattr(Disk("a", F(1)), "__dict__") and not hasattr(p, "__dict__")


class TestOracleConfig:
    @pytest.mark.parametrize("max_n", [0, -3])
    def test_cap_below_one_is_refused_at_construction(self, max_n):
        with pytest.raises(DomainError, match="max_n must be at least 1"):
            OracleConfig(max_n=max_n)
        with pytest.raises(DomainError, match="max_n must be at least 1"):
            OracleConfig(max_n)
        with pytest.raises(DomainError, match="max_n must be at least 1"):
            OracleConfig()._replace(max_n=max_n)

    def test_default_and_keyword(self):
        assert OracleConfig().max_n == 10 and OracleConfig(max_n=7).max_n == 7
        assert OracleConfig(max_n=7) == OracleConfig(7)
