"""End-to-end benchmark of the shelfpack CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory and driven through ``shelfpack.cli.main`` on files the
benchmark generates from ``--seed``.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  A summary of both goes to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5


class Round:
    def __init__(self) -> None:
        # kind -> item -> seconds, scaled by the reference (see reference.py)
        self.times: dict[str, dict[str, float]] = {}
        self.raw: dict[str, dict[str, float]] = {}  # the same, as measured
        self.item_totals: dict[str, float] = {}
        self.log: list[dict] = []  # one record per timed operation
        self.attempted = 0
        self.failed = 0


class Session:
    """Runs CLI calls in this process and books them into the current round."""

    def __init__(self, main, tracer=None) -> None:
        self.main = main
        self.tracer = tracer
        self.round = Round()
        self.item = ""
        self._item_total = 0.0

    def _call(self, fn, traced_name=None):
        tracer = self.tracer if traced_name else None
        if tracer:
            tracer.active = True
        try:
            start = time.perf_counter()
            if tracer:
                with tracer.span(traced_name):
                    result = fn()
            else:
                result = fn()
            return time.perf_counter() - start, result
        finally:
            if tracer:
                tracer.active = False

    def run(self, argv: list[str]) -> tuple[int, str]:
        """One CLI call, outside the books: exit code and standard output."""
        return self._cli(argv, traced=False)[1:]

    def _cli(self, argv: list[str], traced: bool) -> tuple[float, int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                seconds, rc = self._call(lambda: self.main(argv),
                                         "cli." + argv[0] if traced else None)
            except Exception as exc:  # a traceback is a failed operation
                print(f"{argv[0]} raised {exc!r}", file=sys.__stderr__)
                seconds, rc = 0.0, -1
        return seconds, rc, out.getvalue()

    def op(self, kind: str, argv: list[str], reps: int = 1, timed: bool = True) -> str:
        """``reps`` identical CLI calls, each counted; a timed op books its
        mean time per call.  Untimed ops are neither timed nor traced."""
        gc.collect()
        first_span = len(self.tracer.spans) if self.tracer else 0
        before = reference.before() if timed else 0.0
        total = 0.0
        for _ in range(reps):
            seconds, rc, out = self._cli(argv, traced=timed)
            total += seconds
            self.round.attempted += 1
            self.round.failed += rc != 0
        if timed:
            self._book(kind, total / reps, before, first_span)
        return out

    def call(self, kind: str, fn):
        """One timed library call, counted; an exception is a failure."""
        gc.collect()
        first_span = len(self.tracer.spans) if self.tracer else 0
        before = reference.before()
        self.round.attempted += 1
        try:
            seconds, result = self._call(fn, "bench." + kind)
        except Exception as exc:
            print(f"{kind} raised {exc!r}", file=sys.stderr)
            self.round.failed += 1
            return None
        self._book(kind, seconds, before, first_span)
        return result

    def _book(self, kind: str, seconds: float, before: float, first_span: int) -> None:
        """Books ``seconds`` scaled by the reference runs just before and
        after the operation, and hands the scale to its root spans."""
        after = reference.seconds()
        scale = reference.scale(before, after)
        self.round.log.append({"kind": kind, "item": self.item, "seconds": seconds,
                               "ref_before": before, "ref_after": after})
        if self.tracer:
            for rec in self.tracer.spans[first_span:]:
                if rec["parent"] < 0:
                    rec["scale"] = scale
        self.round.times.setdefault(kind, {})[self.item] = seconds * scale
        self.round.raw.setdefault(kind, {})[self.item] = seconds
        self._item_total += seconds * scale

    def start_item(self, name: str) -> None:
        self.item = name
        self._item_total = 0.0

    def end_item(self) -> None:
        self.round.item_totals[self.item] = self._item_total


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def run_workload(workload, seed: int, seconds: float, trace: bool, work: Path):
    import checks
    from shelfpack import cli, files, hardness, linear

    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "files": files, "hardness": hardness, "linear": linear})
    sess = Session(cli.main, tracer)

    setups = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        before = reference.seconds()
        start = time.perf_counter()
        items = workload.prepare(random.Random(seed), work)
        for item in items:  # warm the parser on the run's own files
            if item.instance.exists():
                files.read_instance(item.instance)
        took = time.perf_counter() - start
        setups.append(took * reference.scale(before, reference.seconds()))

    # Warm-up: the first item's operations, run once and discarded.
    sess.start_item(items[0].name)
    workload.run_item(sess, items[0])
    sess.end_item()
    if tracer:
        tracer.spans.clear()

    # Every item is checked the first time a measured round runs it, outside
    # the measured time.  span_over_lb comes from round 0's items, so it
    # never depends on how many rounds fit in the run.
    ratios: list[float] = []
    digests: dict[str, str] = {}
    rounds: list[Round] = []
    measured = 0.0
    for r in itertools.count():
        sess.round = Round()
        if tracer:
            tracer.round = r
        start = time.perf_counter()
        outputs = []
        for item in items:
            sess.start_item(item.name)
            outputs.append((item, workload.run_item(sess, item)))
            sess.end_item()
        measured += time.perf_counter() - start
        rounds.append(sess.round)
        for item, out in outputs:
            produced = digest(workload.outputs(item))
            if item.name not in digests:
                ratio = workload.check(sess, item, out)
                if r == 0:
                    ratios.append(ratio)
                digests[item.name] = produced
            elif digests[item.name] != produced:
                raise checks.CheckError(f"{item.name}: outputs changed between rounds")
        if r == 0:
            workload.final_check(sess, work, seed)
        if measured >= seconds:
            break
    return setups, rounds, ratios, tracer


def typical(per_item: list[dict[str, float]]) -> float:
    """Each item's median time over the rounds, averaged over the items."""
    return statistics.fmean(statistics.median(times[name] for times in per_item)
                            for name in per_item[0])


def e2e_metrics(import_s, setups, rounds, ratios) -> dict[str, float]:
    return {
        "setup_s": import_s + statistics.median(setups),
        "solve_s": typical([r.times["solve"] for r in rounds]),
        "verify_s": typical([r.times["verify"] for r in rounds]),
        "roundtrip_s": typical([r.item_totals for r in rounds]),
        "span_over_lb": math.exp(statistics.fmean(math.log(x) for x in ratios)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def write_log(rounds: list[Round], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as out:
        for r, measured in enumerate(rounds):
            for record in measured.log:
                out.write(json.dumps({"round": r, **record}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "shelfpack" / "cli.py").is_file():
        print(f"error: no shelfpack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    before = reference.seconds()
    start = time.perf_counter()
    import shelfpack.cli  # noqa: F401  (first import: counted in setup_s)

    import_s = time.perf_counter() - start
    import_s *= reference.scale(before, reference.seconds())
    import checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    work = BENCH / "work" / f"{workload.name}-{args.seed}"
    try:
        setups, rounds, ratios, tracer = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), work)
    except checks.CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = e2e_metrics(import_s, setups, rounds, ratios)
    write_log(rounds, BENCH / "out" / f"ops-{workload.name}-{args.seed}.jsonl")
    metrics = e2e
    if tracer:
        from probes import probe

        metrics = tracer.layer_metrics()
        metrics.update(probe(workload.name, metrics, args.seed))
        tracer.write(BENCH / "out" / f"spans-{workload.name}-{args.seed}.jsonl")
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = manifest["per_layer" if tracer else "end_to_end"]
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"] + manifest["per_layer"]}
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"{workload.name} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    for name, value in {**e2e, **metrics}.items():
        print(f"  {name:40s} {value:12.6g} {units[name]}", file=sys.stderr)
    for kind in ("solve", "verify"):
        raw = typical([r.raw[kind] for r in rounds])
        print(f"  {kind + ' as measured, unscaled':40s} {raw:12.6g} s", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
