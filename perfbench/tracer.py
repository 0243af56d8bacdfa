"""Span tracer that wraps layer functions from outside the program.

``Tracer`` replaces named attributes (module functions, methods, static and
class methods) with wrappers that time each call.  Spans nest through a
stack: when a span ends, its duration is charged to its parent as child
time, so each span's self time is its duration minus the time covered by
the spans it caused.  Spans are folded into per-name totals as they end,
which keeps memory flat however long the run; only ``SERIES`` durations are
kept one by one, and the caller clears them between rounds.  ``remove`` (or leaving the
``with`` block) puts every original attribute back.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class SpanStats:
    calls: int = 0
    total: float = 0.0  # seconds, inclusive of child spans
    self_time: float = 0.0  # seconds, exclusive of child spans


@dataclass(frozen=True)
class Target:
    """``owner.attr`` is traced under ``name``."""

    name: str
    owner: Any
    attr: str


# The one span whose every duration is kept, in ``Tracer.series``: onboard's
# registry writes, whose cost grows with the registry.
SERIES = "identity.apply"


@dataclass
class Tracer:
    targets: list[Target]
    stats: dict[str, SpanStats] = field(default_factory=dict)
    series: list[float] = field(default_factory=list)  # durations of SERIES spans
    _stack: list[list[float]] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                raw = vars(target.owner)[target.attr]
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(self._wrap(target.name, raw.__func__))
                else:
                    wrapped = self._wrap(target.name, raw)
                setattr(target.owner, target.attr, wrapped)
                self._saved.append((target.owner, target.attr, raw))
        except BaseException:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.remove()

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack, clock, series = self._stack, time.perf_counter, self.series
        keep = name == SERIES

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0]  # child time accumulated by nested spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                stats = self.stats.get(name)
                if stats is None:
                    stats = self.stats[name] = SpanStats()
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[0]
                if keep:
                    series.append(duration)

        return traced


# The six audit sweeps, in the order ``harness.run_all_audits`` runs them.
AUDITS = ("audit_replay", "audit_write_once", "audit_chain_validity",
          "audit_true_identity_absence", "audit_attribution", "observer_link_scan")


def layer_targets() -> list[Target]:
    """The public functions of each creditchain layer, by metric name."""
    from creditchain import codec, crypto, harness, public_records, reader
    from creditchain import credit_account as accounts
    from creditchain.identity import IdentityContract
    from creditchain.ledger import Ledger

    targets = [
        Target("codec.pack", codec, "pack"),
        *(Target(f"crypto.{f}", crypto, f)
          for f in ("sign", "verify", "encrypt", "decrypt", "generate_keypair")),
        Target("ledger.submit", Ledger, "submit"),
        Target("ledger.export", Ledger, "export"),
        Target("ledger.replay", Ledger, "replay"),
        Target("ledger.state_digests", Ledger, "state_digests"),
        Target("identity.apply", IdentityContract, "apply"),
        Target("credit_account.apply", accounts.CreditAccountContract, "apply"),
        Target("credit_account.key_ceremony", accounts, "key_ceremony"),
        Target("public_records.factory_apply", public_records.RecordFactoryContract, "apply"),
        Target("public_records.record_apply", public_records.PublicRecordContract, "apply"),
        Target("public_records.enforce_append_checks", public_records, "enforce_append_checks"),
        Target("reader.assemble_report", reader, "assemble_report"),
        Target("reader.bundle_to_json", reader, "bundle_to_json"),
        Target("reader.bundle_from_json", reader, "bundle_from_json"),
        Target("harness.build_bundle", harness.SimWorld, "build_bundle"),
    ]
    targets += [Target(audit_metric(name), harness, name) for name in AUDITS]
    return targets


def audit_metric(name: str) -> str:
    return "harness.audit." + name.removeprefix("audit_")
