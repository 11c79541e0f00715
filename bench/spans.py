"""Spans around calls into the program's layers, recorded from outside.

``install`` replaces the module attributes through which ``shelfpack.cli``
(and ``solve_linear``, for ``compact``) reach each layer with wrappers that
record a span per call while the tracer is active.  Spans are kept in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

# (metric prefix, module name, attribute): the bindings the CLI calls through.
LAYERS = [
    ("files.read_instance", "files", "read_instance"),
    ("linear.is_linear_case", "cli", "is_linear_case"),
    ("greedy.greedy_solve", "cli", "greedy_solve"),
    ("linear.solve_linear", "cli", "solve_linear"),
    ("geometry.compact", "linear", "compact"),
    ("oracle.exact_solve", "cli", "exact_solve"),
    ("geometry.best_support_lower_bound", "cli", "best_support_lower_bound"),
    ("files.write_placement", "files", "write_placement"),
    ("files.read_placement", "files", "read_placement"),
    ("geometry.verify", "cli", "verify"),
    ("svg.render_svg", "cli", "render_svg"),
    ("hardness.build_instance", "cli", "build_instance"),
    ("hardness.build_certificate", "cli", "build_certificate"),
    ("hardness.decode_partition", "hardness", "decode_partition"),
]

# CLI subcommands whose own time (outside the layer calls) is reported.
SELF_TIMED = ("cli.solve", "cli.verify")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.active = False
        self.round = 0

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "round": self.round,
                  "parent": self._stack[-1] if self._stack else -1}
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if name == "greedy.greedy_solve":
                    record["queue_ops_per_disk"] = result.queue_ops / len(result.placement)
                return result
        return traced

    def install(self, modules: dict) -> None:
        for name, module, attr in LAYERS:
            target = modules[module]
            setattr(target, attr, self.wrap(name, getattr(target, attr)))

    def layer_metrics(self) -> dict[str, float]:
        """Per layer: mean seconds per call within each round, median over
        rounds.  ``cli.<cmd>.self_s`` is a subcommand's span minus the
        spans of the layers it called directly.  Every duration is scaled
        by the reference runs around its operation (``scale`` on the root
        span, see reference.py)."""
        child_time = [0.0] * len(self.spans)
        scale = [1.0] * len(self.spans)
        for index, rec in enumerate(self.spans):
            if rec["parent"] >= 0:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
                scale[index] = scale[rec["parent"]]  # parents come first
            else:
                scale[index] = rec.get("scale", 1.0)  # unset if the call raised
        per_round: dict[str, dict[int, list[float]]] = {}
        for index, rec in enumerate(self.spans):
            duration = (rec["end"] - rec["start"]) * scale[index]
            if rec["name"] in SELF_TIMED:
                key = rec["name"] + ".self_s"
                value = duration - child_time[index] * scale[index]
            elif rec["name"].startswith(("cli.", "bench.")):
                continue  # roots: an operation, not a layer
            else:
                key, value = rec["name"] + "_s", duration
            per_round.setdefault(key, {}).setdefault(rec["round"], []).append(value)
            if "queue_ops_per_disk" in rec:
                per_round.setdefault("greedy.queue_ops_per_disk", {}).setdefault(
                    rec["round"], []).append(rec["queue_ops_per_disk"])
        return {
            key: statistics.median(statistics.fmean(v) for v in rounds.values())
            for key, rounds in per_round.items()
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")
