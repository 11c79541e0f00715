"""The four workloads: inputs, timed operation sequence and output checks.

A workload writes its inputs in ``prepare``; a run then repeats whole
rounds, each round running ``run_item`` on every item.
``check`` runs the independent checks on an item's outputs the first time
the item runs and returns the item's span over the benchmark's own lower
bound; later runs of the same item must write byte-identical outputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import checks
import gen
from checks import require

# Seed of the greedy-float instance whose outputs also go through a strict
# (tolerance 0) verify.  It does not depend on --seed: that verify fails on
# every float greedy output today (overlaps near 1e-12 relative), and a
# failing operation is only comparable between runs on a fixed input.
STRICT_SEED = 20170705


class Item:
    def __init__(self, name: str, directory: Path, **data) -> None:
        self.name = name
        self.base = directory / name
        self.instance = Path(f"{self.base}.instance")
        self.placement = Path(f"{self.base}.placement")
        self.svg = Path(f"{self.base}.svg")
        self.__dict__.update(data)


class Workload:
    name = ""

    def outputs(self, item: Item) -> list[Path]:
        return [p for p in (item.placement, item.svg) if p.exists()]

    def final_check(self, sess, directory: Path, seed: int) -> None:
        pass


class GreedyFloat(Workload):
    """Decimal files, n = 16,000, size ratio up to 50: greedy, float sweep."""

    name = "greedy-float"

    def prepare(self, rng: random.Random, d: Path) -> list[Item]:
        items = [Item("seeded", d, strict=False), Item("fixed", d, strict=True)]
        gen.write_instance(items[0].instance, gen.float_sizes(rng, 16000))
        gen.write_instance(items[1].instance,
                           gen.float_sizes(random.Random(STRICT_SEED), 10000))
        return items

    def run_item(self, sess, item: Item) -> dict:
        out = sess.op("solve", ["solve", str(item.instance), "--out", str(item.placement)])
        slack = repr(1e-9 * float(checks.reported_span(out)))
        verified = sess.op("verify", ["verify", str(item.placement), "--tolerance", slack])
        sess.op("render", ["render", str(item.placement), "--out", str(item.svg)])
        if item.strict:
            # Counted, never timed: it stops at the first overlap, a few
            # disks in, so timing it would turn a fix into a slowdown.
            sess.op("strict_verify", ["verify", str(item.placement)], timed=False)
        return {"solve": out, "verify": verified}

    def check(self, sess, item: Item, out: dict) -> float:
        require("method: greedy" in out["solve"], "solve did not dispatch to greedy")
        require("accepted" in out["verify"], "verify rejected the output at 1e-9*span")
        instance = checks.read_instance(item.instance)
        rows = checks.read_placement(item.placement)
        span = checks.reported_span(out["solve"])
        checks.check_placement(instance, rows, span, 1e-9 * span)
        bound = checks.prefix_bound(instance.values())
        require(span <= 4 / 3 * bound, f"greedy span {span} above 4/3 of {bound}")
        checks.check_svg(item.svg.read_text(encoding="utf-8"), len(rows))
        return span / bound


class LinearExact(Workload):
    """Rational files with size ratio below 2: the exact linear-case solver."""

    name = "linear-exact"
    SIZES = (360, 281)  # even n compacts once, odd n three times
    SEARCH_SIZES = (5, 6, 7, 8)
    VERIFY_REPS = 16

    def prepare(self, rng: random.Random, d: Path) -> list[Item]:
        items = []
        for n in self.SIZES:
            item = Item(f"linear{n}", d)
            gen.write_instance(item.instance, gen.linear_sizes(rng, n))
            items.append(item)
        return items

    def run_item(self, sess, item: Item) -> dict:
        out = sess.op("solve", ["solve", str(item.instance), "--out", str(item.placement)])
        verified = sess.op("verify", ["verify", str(item.placement)], reps=self.VERIFY_REPS)
        sess.op("render", ["render", str(item.placement), "--out", str(item.svg)],
                reps=self.VERIFY_REPS)
        return {"solve": out, "verify": verified}

    def check(self, sess, item: Item, out: dict) -> float:
        require("method: exact (linear case)" in out["solve"], "solve missed the linear case")
        require("accepted" in out["verify"], "verify rejected a linear-case output")
        instance = checks.read_instance(item.instance)
        rows = checks.read_placement(item.placement)
        checks.check_placement(instance, rows, checks.reported_span(out["solve"]), 0)
        checks.check_touching_chain(rows)
        checks.check_svg(item.svg.read_text(encoding="utf-8"), len(rows))
        return float(checks.span_of(rows) / checks.prefix_bound(instance.values()))

    def final_check(self, sess, d: Path, seed: int) -> None:
        """Optimality on small instances from the same size distribution."""
        rng = random.Random(f"linear-search-{seed}")
        for n in self.SEARCH_SIZES:
            item = Item(f"search{n}", d)
            gen.write_instance(item.instance, gen.linear_sizes(rng, n))
            rc, out = sess.run(["solve", str(item.instance), "--out", str(item.placement)])
            require(rc == 0 and "linear case" in out, f"n={n}: linear solve failed")
            best = checks.min_span_by_search(list(checks.read_instance(item.instance).values()))
            require(checks.reported_span(out) == best, f"n={n}: span is not optimal")


class HardnessExact(Workload):
    """3-Partition reductions with a known partition: exact greedy, decoding."""

    name = "hardness-exact"
    SIZES = (240, 320)  # m; the family has 12m + 11 disks
    BOUND = 10000
    GENHARD_REPS = 4

    def prepare(self, rng: random.Random, d: Path) -> list[Item]:
        from shelfpack import files, hardness

        items = []
        for m in self.SIZES:
            elements, groups = gen.three_partition(rng, m, self.BOUND)
            item = Item(f"hard{m}", d, m=m, elements=elements, groups=groups)
            item.source = Path(f"{item.base}.3p")
            item.groups_file = Path(f"{item.base}.groups")
            item.certificate = Path(f"{item.instance}.certificate")
            gen.write_three_partition(item.source, elements, self.BOUND)
            gen.write_groups(item.groups_file, groups)
            # The decoder needs the instance object; build it once, untimed.
            item.hardness = hardness.build_instance(
                files.parse_3partition(item.source.read_text(encoding="utf-8")))
            items.append(item)
        return items

    def run_item(self, sess, item: Item) -> dict:
        from shelfpack import files, hardness

        sess.op("genhard", ["genhard", str(item.source), "--out", str(item.instance),
                            "--certificate", str(item.groups_file)], reps=self.GENHARD_REPS)
        cert = sess.op("verify_certificate", ["verify", str(item.certificate)])
        out = sess.op("solve", ["solve", str(item.instance), "--out", str(item.placement)])
        verified = sess.op("verify", ["verify", str(item.placement)])
        placement = files.read_placement(item.certificate)
        decoded = sess.call("decode", lambda: hardness.decode_partition(item.hardness, placement))
        return {"certificate": cert, "solve": out, "verify": verified, "decoded": decoded}

    def check(self, sess, item: Item, out: dict) -> float:
        budget = 2 * (item.m + 1)
        instance = checks.read_instance(item.instance)
        require("accepted" in out["certificate"], "verify rejected the certificate")
        cert = checks.read_placement(item.certificate)
        checks.check_placement(instance, cert, checks.reported_span(out["certificate"]), 0)
        require(checks.span_of(cert) == budget, "certificate span differs from 2(m+1)")
        require("accepted" in out["verify"], "verify rejected the greedy output")
        rows = checks.read_placement(item.placement)
        span = checks.reported_span(out["solve"])
        checks.check_placement(instance, rows, span, 0)
        bound = checks.prefix_bound(instance.values())
        require(budget <= span <= Fraction(4, 3) * bound, f"greedy span {span} out of range")
        require(out["decoded"] is not None, "decode_partition rejected the certificate")
        decoded = sorted(tuple(sorted(g)) for g in out["decoded"].groups)
        require(decoded == sorted(item.groups), "decoded partition differs from the source")
        for group in decoded:
            require(sum(item.elements[i - 1] for i in group) == self.BOUND, "group sum != B")
        return float(span / bound)

    def outputs(self, item: Item) -> list[Path]:
        return super().outputs(item) + [item.certificate]


class OracleExact(Workload):
    """Seven-disk rational instances through the exact oracle."""

    name = "oracle-exact"
    N = 7  # 0.15-0.4 s a search here; n = 8 takes 1.5-3 s, too few repeats per run
    PAIRS = 6
    VERIFY_REPS = 100

    def prepare(self, rng: random.Random, d: Path) -> list[Item]:
        items = []
        for k in range(self.PAIRS):
            for kind, ratio in (("linear", 1.9), ("spread", 6.0)):
                item = Item(f"{kind}{k}", d)
                gen.write_instance(item.instance, gen.stratified_sizes(rng, self.N, ratio))
                items.append(item)
        return items

    def run_item(self, sess, item: Item) -> dict:
        out = sess.op("solve", ["solve", str(item.instance), "--mode", "exact",
                                "--max-n", str(self.N), "--out", str(item.placement)])
        verified = sess.op("verify", ["verify", str(item.placement)], reps=self.VERIFY_REPS)
        return {"solve": out, "verify": verified}

    def check(self, sess, item: Item, out: dict) -> float:
        require("accepted" in out["verify"], "verify rejected the oracle output")
        instance = checks.read_instance(item.instance)
        rows = checks.read_placement(item.placement)
        span = checks.reported_span(out["solve"])
        checks.check_placement(instance, rows, span, 0)
        require(span == checks.min_span_by_search(list(instance.values())),
                "oracle span differs from the exhaustive search")
        greedy_out = Path(f"{item.base}.greedy")
        rc, greedy = sess.run(["solve", str(item.instance), "--mode", "greedy",
                               "--out", str(greedy_out)])
        require(rc == 0 and span <= checks.reported_span(greedy), "oracle above greedy")
        bound = checks.prefix_bound(instance.values())
        require(span >= bound, "oracle span below the lower bound")
        return float(span / bound)


WORKLOADS = {w.name: w for w in (GreedyFloat(), LinearExact(), HardnessExact(), OracleExact())}
