"""Direct calls into single layers at size n and 2n, for the traced run.

A ``.doubling`` metric is the time at 2n over the time at n.  It is taken
on the traced workload's own input distribution when the workload's
operations call the layer, and on the layer's home workload otherwise.
A layer the workload's operations never call is reported with its time at
n on its home workload, so every traced run reports every metric.
"""

from __future__ import annotations

import gc
import random
import time

import gen
import reference
from shelfpack import geometry, greedy, hardness, linear, oracle, svg
from shelfpack.scalars import Backend, parse_scalar

PROBE_SECONDS = 0.3  # per size: repeat a call until this much time is spent
HOME = {
    "greedy.greedy_solve": "greedy-float",
    "geometry.verify": "greedy-float",
    "linear.is_linear_case": "greedy-float",
    "svg.render_svg": "greedy-float",
    "linear.solve_linear": "linear-exact",
    "geometry.compact": "linear-exact",
    "oracle.exact_solve": "oracle-exact",
    "hardness.build_instance": "hardness-exact",
    "hardness.build_certificate": "hardness-exact",
    "hardness.decode_partition": "hardness-exact",
}
DOUBLING = ("greedy.greedy_solve", "geometry.verify", "geometry.compact",
            "hardness.decode_partition")
# Base size n of each distribution: disks, or m for hardness instances.
BASE_N = {"greedy-float": 5000, "linear-exact": 200, "hardness-exact": 80, "oracle-exact": 7}


def _disks(literals: list[str]) -> list:
    return [geometry.Disk(f"d{i}", parse_scalar(lit)) for i, lit in enumerate(literals)]


def _hardness(rng: random.Random, m: int):
    elements, groups = gen.three_partition(rng, m)
    hi = hardness.build_instance(hardness.ThreePartitionInstance(tuple(elements), 10000))
    return hi, hardness.PartitionSolution(tuple(groups))


def make_input(distribution: str, n: int, rng: random.Random):
    """Disks of one workload's distribution; a (instance, partition) pair
    for hardness-exact, where n is m."""
    if distribution == "greedy-float":
        return _disks(gen.float_sizes(rng, n))
    if distribution == "linear-exact":
        return _disks(gen.linear_sizes(rng, n))
    if distribution == "oracle-exact":
        return _disks(gen.stratified_sizes(rng, n, 6.0))
    return _hardness(rng, n)


def _placement(distribution: str, data):
    if distribution == "hardness-exact":
        return greedy.greedy_solve(data[0].disks).placement
    if distribution == "linear-exact":
        return linear.solve_linear(data)[0]
    return greedy.greedy_solve(data).placement


def layer_call(layer: str, distribution: str, data):
    """A zero-argument call of ``layer`` on ``data``, with its inputs
    prepared outside the call."""
    disks = data[0].disks if distribution == "hardness-exact" else data
    if layer == "greedy.greedy_solve":
        return lambda: greedy.greedy_solve(disks)
    if layer == "geometry.verify":
        placement = _placement(distribution, data)
        slack = 0 if placement.backend is Backend.EXACT else 1e-9 * geometry.span(placement).span
        return lambda: geometry.verify(placement, slack)
    if layer == "geometry.compact":
        return lambda: geometry.compact(disks)
    if layer == "linear.is_linear_case":
        return lambda: linear.is_linear_case(disks)
    if layer == "svg.render_svg":
        placement = _placement(distribution, data)
        return lambda: svg.render_svg(placement)
    if layer == "linear.solve_linear":
        return lambda: linear.solve_linear(disks)
    if layer == "oracle.exact_solve":
        return lambda: oracle.exact_solve(disks, oracle.OracleConfig(max_n=len(disks)))
    hi, groups = data
    if layer == "hardness.build_instance":
        return lambda: hardness.build_instance(hi.source)
    certificate = hardness.build_certificate(hi, groups)
    if layer == "hardness.build_certificate":
        return lambda: hardness.build_certificate(hi, groups)
    return lambda: hardness.decode_partition(hi, certificate)


def time_call(fn) -> float:
    """Lowest seconds per call over at least three calls and PROBE_SECONDS,
    scaled by reference runs before and after the calls."""
    gc.collect()
    before = reference.seconds()
    times: list[float] = []
    while len(times) < 3 or sum(times) < PROBE_SECONDS:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * reference.scale(before, reference.seconds())


def probe(workload: str, flow: dict[str, float], seed: int) -> dict[str, float]:
    """Fill in what the traced operations left out: every ``.doubling``
    metric, and the time (and queue ops) of layers the workload never called."""
    metrics: dict[str, float] = {}
    for layer, home in HOME.items():
        in_flow = layer + "_s" in flow
        if in_flow and layer not in DOUBLING:
            continue
        distribution = workload if in_flow else home
        n = BASE_N[distribution]
        rng = random.Random(f"{layer}-{seed}")
        small = make_input(distribution, n, rng)
        at_n = time_call(layer_call(layer, distribution, small))
        if not in_flow:
            metrics[layer + "_s"] = at_n
            if layer == "greedy.greedy_solve":
                result = greedy.greedy_solve(small)
                metrics["greedy.queue_ops_per_disk"] = result.queue_ops / len(small)
        if layer in DOUBLING:
            large = make_input(distribution, 2 * n, rng)
            metrics[layer + ".doubling"] = time_call(layer_call(layer, distribution, large)) / at_n
    return metrics
