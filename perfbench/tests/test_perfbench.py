"""Small-size checks of the benchmark's own machinery.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path

import pytest

import gen
import run
from execute import HostProbe, run_round
from tracer import Target, Tracer, layer_targets

SMALL = {
    "onboard": lambda seed: gen.onboard(seed, identities=40),
    "lifecycle": lambda seed: gen.lifecycle(seed, customers=6),
    # past gen.LENDING_LONG, so the pool has a cold tail of one-account customers
    "lending": lambda seed: gen.lending(seed, customers=gen.LENDING_LONG + 6, ops=80),
}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic_in_the_seed(workload):
    make = SMALL[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_seeds_change_names_and_order_but_not_the_mix():
    def kinds(plan):
        return Counter((op.kind, op.expect if isinstance(op.expect, str) else None)
                       for op in plan.setup + plan.loop)

    assert kinds(gen.onboard(1, identities=40)) == kinds(gen.onboard(2, identities=40))
    a, b = gen.lending(1, customers=12, ops=100), gen.lending(2, customers=12, ops=100)
    entries = lambda plan: sum(len(op.expect.entries) for op in plan.loop if op.kind == "disclose")  # noqa: E731
    assert len(a.setup) == len(b.setup) and len(a.loop) == len(b.loop)
    assert abs(entries(a) - entries(b)) <= 0.1 * entries(a)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_round_matches_every_expectation_and_repeats_its_fingerprint(workload):
    plan = SMALL[workload](3)
    first, second = run_round(plan), run_round(plan)
    assert first.failures == []
    assert first.fingerprint == second.fingerprint
    assert len(first.rss_quarters) == 4
    outcomes = first.fingerprint["outcomes"]
    assert outcomes["report"] == sum(op.kind == "disclose" for op in plan.loop)
    refusals = {op.expect for op in plan.setup + plan.loop if isinstance(op.expect, str)}
    assert refusals <= set(outcomes)


class _Owner:
    def method(self, x):
        return self.helper(x) + 1

    def helper(self, x):
        return x * 2

    @staticmethod
    def static(x):
        if x < 0:
            raise ValueError("negative")
        return x

    @classmethod
    def klass(cls, x):
        return cls.static(x)


def test_tracer_restores_every_wrapped_attribute():
    originals = {name: vars(_Owner)[name] for name in ("method", "helper", "static", "klass")}
    tracer = Tracer([Target(f"owner.{name}", _Owner, name) for name in originals])
    with pytest.raises(RuntimeError):
        with tracer:
            owner = _Owner()
            assert owner.method(3) == 7
            assert _Owner.klass(0) == 0
            with pytest.raises(ValueError):
                _Owner.static(-1)
            raise RuntimeError("leave the block by an exception")
    for name, raw in originals.items():
        assert vars(_Owner)[name] is raw
    assert tracer.stats["owner.method"].calls == 1
    assert tracer.stats["owner.helper"].calls == 1
    assert tracer.stats["owner.static"].calls == 2  # one returned, one raised
    method, helper = tracer.stats["owner.method"], tracer.stats["owner.helper"]
    assert method.self_time == pytest.approx(method.total - helper.total)


def test_tracer_restores_creditchain_layers_and_keeps_the_export():
    plan = SMALL["lifecycle"](4)
    targets = layer_targets()
    originals = [(t.owner, t.attr, vars(t.owner)[t.attr]) for t in targets]
    plain = run_round(plan)
    tracer = Tracer(targets)
    with tracer:
        traced = run_round(plan, tracer=tracer)
    for owner, attr, raw in originals:
        assert vars(owner)[attr] is raw
    assert traced.failures == []
    assert traced.fingerprint == plain.fingerprint
    assert tracer.stats["ledger.submit"].calls == 3 * plain.tx  # run, replay, audit replay
    assert 3 * len(traced.apply_times) == tracer.stats["identity.apply"].calls


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    plan = SMALL["lifecycle"](5)
    _, layer = run.traced_run(plan, seconds=0)
    rounds = [run_round(plan) for _ in range(run.MIN_ROUNDS)]
    assert all(r.probe_s for r in rounds)
    e2e = run.end_to_end(rounds)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_probe_scales_by_the_reference_over_its_recent_window():
    probe = HostProbe()
    assert probe.scale() > 0  # an empty window fills itself first
    for _ in range(3 * HostProbe.WINDOW):
        probe.sample()
    recent = probe.samples[-HostProbe.WINDOW:]
    assert probe.scale() == pytest.approx(HostProbe.REFERENCE_S / statistics.fmean(recent))
    assert probe.scale(whole=True) == pytest.approx(
        HostProbe.REFERENCE_S / statistics.fmean(probe.samples))
