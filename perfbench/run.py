"""creditchain benchmark: one command, three workloads, an optional traced run.

    python3 perfbench/run.py --workload onboard --seed 1 --seconds 10 --trace 0

Run from the root of a creditchain checkout; the program is imported from
its ``src/`` directory.  A run repeats rounds until ``--seconds`` have passed
and at least ``MIN_ROUNDS`` are done.  A round builds a fresh world from the
seed's plan (set-up), runs the timed loop of operations one at a time in a
closed loop with a single client, then exports, replays and audits the
ledger.  Every operation's outcome is checked against the plan, and every
round must reproduce the same fingerprint.  Timed spans read the process's
CPU time, and a ``HostProbe`` timed between operations scales them to the
speed of a reference host.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` untraced and traced rounds
alternate and the metrics are the per-layer ones.  The line before it holds
the run's fingerprint.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import gen

Metrics = dict[str, tuple[float, str]]  # name -> (value, unit)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Fewest rounds a run makes, so that set-up, replay and the audits are
# each a median of several.
MIN_ROUNDS = 3


def _import_program() -> None:
    if not (SRC / "creditchain" / "__init__.py").is_file():
        sys.exit(f"perfbench: no creditchain sources under {SRC}; "
                 "run from the root of a creditchain checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))


def _p99(samples: list[float]) -> float:
    ordered = sorted(samples)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


class GcWatch:
    """Collector pauses and generation-2 collections, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._start
            self.gen2 += info["generation"] == 2

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        gc.callbacks.remove(self)


UNITS = {"setup_s": "s", "tx_per_s": "1/s", "call_p50_ms": "ms", "call_p99_ms": "ms",
         "report_p50_ms": "ms", "report_p99_ms": "ms", "reports_per_s": "1/s",
         "replay_tx_per_s": "1/s", "audit_s": "s", "peak_rss_mb": "MB"}


def end_to_end(rounds: list) -> Metrics:
    """Percentiles and rates over every operation of the run, and medians
    over its rounds for set-up, replay and the audits.  Timings come from
    ``run_round`` already scaled to the reference host's speed."""
    from execute import peak_rss_mb

    calls = [s for r in rounds for s in r.calls]
    reports = [s for r in rounds for s in r.reports]
    figures = {
        "setup_s": statistics.median(sum(r.setup) for r in rounds),
        "tx_per_s": 1 / statistics.fmean(calls),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p99_ms": 1e3 * _p99(calls),
        "report_p50_ms": 1e3 * statistics.median(reports),
        "report_p99_ms": 1e3 * _p99(reports),
        "reports_per_s": 1 / statistics.fmean(reports),
        "replay_tx_per_s": rounds[0].tx / statistics.median(r.replay_s for r in rounds),
        "audit_s": statistics.median(sum(r.audits) for r in rounds),
    }
    metrics = {name: (value, UNITS[name]) for name, value in figures.items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return metrics


def _quarter_means(series: list[float]) -> tuple[float, float]:
    """Mean microseconds of the first and of the last quarter of a series."""
    if not series:
        return 0.0, 0.0
    k = max(1, len(series) // 4)
    return 1e6 * statistics.fmean(series[:k]), 1e6 * statistics.fmean(series[-k:])


def traced_run(plan, seconds: float) -> tuple[list, Metrics]:
    """Alternate traced and untraced rounds; return all rounds and the
    per-layer metrics.  Spans come from traced rounds; collector, memory and
    the tracing overhead's baseline come from untraced ones."""
    from execute import run_round
    from tracer import AUDITS, SpanStats, Tracer, audit_metric, layer_targets

    tracer = Tracer(layer_targets())
    untraced, traced, watches, quarters = [], [], [], []

    def untraced_round() -> None:
        with GcWatch() as watch:
            untraced.append(run_round(plan))
        watches.append(watch)

    begin = time.perf_counter()
    untraced_round()  # on a cold heap, so it stays out of the overhead baseline
    while not traced or time.perf_counter() - begin < seconds:
        with tracer:
            traced.append(run_round(plan, tracer=tracer))
        quarters.append(_quarter_means(traced[-1].apply_times))
        untraced_round()

    n = len(traced)

    def stats(name: str) -> SpanStats:
        return tracer.stats.get(name, SpanStats())

    def calls(name: str) -> tuple[float, str]:
        return stats(name).calls / n, "count"

    def mean(name: str, attr: str = "total", scale: float = 1e6, unit: str = "us") -> tuple[float, str]:
        s = stats(name)
        return (scale * getattr(s, attr) / s.calls if s.calls else 0.0), unit

    reports = sum(len(r.reports) for r in traced)
    entries = n * sum(len(op.expect.entries) for op in plan.loop if op.kind == "disclose")
    json_s = stats("reader.bundle_to_json").total + stats("reader.bundle_from_json").total
    out: Metrics = {"codec.pack.calls": calls("codec.pack"),
                    "codec.pack.self_us": mean("codec.pack", "self_time")}
    for f in ("sign", "verify", "encrypt", "decrypt", "generate_keypair"):
        out[f"crypto.{f}.calls"] = calls(f"crypto.{f}")
        out[f"crypto.{f}.us"] = mean(f"crypto.{f}")
    out["ledger.submit.calls"] = calls("ledger.submit")
    out["ledger.submit.self_us"] = mean("ledger.submit", "self_time")
    # every outcome but these is a refusal the ledger logged; replay and the
    # audits re-apply the run's transactions, refusals included
    refused = sum(count for outcome, count in traced[0].fingerprint["outcomes"].items()
                  if outcome not in ("accept", "report", "error"))
    out["ledger.submit.rejected_ratio"] = (refused / traced[0].tx, "ratio")
    for name in ("ledger.export", "ledger.replay", "ledger.state_digests"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = mean(name, scale=1.0, unit="s")
    out["ledger.export.bytes"] = (traced[0].export_bytes, "bytes")
    for name in ("identity.apply", "credit_account.apply", "credit_account.key_ceremony",
                 "public_records.factory_apply", "public_records.record_apply",
                 "public_records.enforce_append_checks", "harness.build_bundle"):
        out[f"{name}.us"] = mean(name)
    out["identity.apply.q1_us"] = (statistics.median(q[0] for q in quarters), "us")
    out["identity.apply.q4_us"] = (statistics.median(q[1] for q in quarters), "us")
    out["reader.assemble_report.self_us"] = mean("reader.assemble_report", "self_time")
    out["reader.us_per_entry"] = (
        1e6 * stats("reader.assemble_report").total / entries if entries else 0.0, "us")
    out["reader.entries_per_report"] = (entries / reports, "count")
    out["reader.bundle_json_us"] = (1e6 * json_s / reports, "us")
    for name in AUDITS:
        out[f"{audit_metric(name)}.s"] = mean(audit_metric(name), scale=1.0, unit="s")
    out["python.gc.pause_ms"] = (statistics.median(1e3 * w.pause_s for w in watches), "ms")
    out["python.gc.gen2_collections"] = (statistics.median(w.gen2 for w in watches), "count")
    for q, mb in enumerate(untraced[0].rss_quarters, start=1):
        out[f"process.rss_mb.q{q}"] = (mb, "MB")
    out["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                               - statistics.median(r.wall_s for r in untraced[1:]), "s")
    return untraced + traced, out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()

    from execute import run_round

    plan = gen.WORKLOADS[args.workload](args.seed)
    if args.trace:
        rounds, metrics = traced_run(plan, args.seconds)
    else:
        rounds = []
        begin = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - begin < args.seconds:
            rounds.append(run_round(plan))
        metrics = end_to_end(rounds)

    failures = [f for r in rounds for f in r.failures]
    fingerprints = {json.dumps(r.fingerprint, sort_keys=True) for r in rounds}
    if len(fingerprints) != 1:
        failures.append(f"{len(fingerprints)} distinct round fingerprints; rounds must agree")
    attempted = sum(r.attempted for r in rounds)
    probe = [s for r in rounds for s in r.probe_s]
    print(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                      "samples": {"calls": sum(len(r.calls) for r in rounds),
                                  "reports": sum(len(r.reports) for r in rounds)},
                      "fingerprint": rounds[0].fingerprint,
                      "probe": {"samples": len(probe), "mean_us": 1e6 * statistics.fmean(probe)},
                      "error_rate": len(failures) / attempted,
                      "failures": failures[:20]}, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
