"""Execute plan operations through creditchain's public API and check them.

``World`` wraps one ``SimWorld`` and applies plan operations in order.  It
keeps the off-chain bookkeeping a party would keep (account addresses, link
nonces, latest payloads, record handles) on the world's own handles, so
``SimWorld.build_bundle`` and the audit sweeps see a consistent picture.
Each operation is timed around the API call alone, in CPU time; the
bookkeeping and the outcome check fall outside the timed span.
``run_round`` runs one round on a fresh world: set-up, the timed loop, then
export, replay and the audits.
``HostProbe`` times a fixed slice of work between operations, so that a run
can tell how fast the host was while it ran.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from creditchain import crypto, harness, identity, public_records, reader
from creditchain import credit_account as accounts
from creditchain.ledger import ConstructorRejected, ContractRejected, Ledger, ReplayMismatch

from gen import CALL_KINDS, ExpectedReport, Op, Plan
from tracer import AUDITS, Tracer

# Timed spans read the process's CPU time.  The program neither sleeps nor
# waits on I/O or other threads, so this is its latency without the spells
# in which a shared host runs something else on its CPU.  Waiting that a
# future version adds would not show here; see perfbench/README.md.
cpu_clock = time.process_time
_ACCEPTED = "accept"


class World:
    def __init__(self, plan: Plan) -> None:
        self.sim = harness.SimWorld(plan.world_seed)
        self.ledger = self.sim.ledger
        self._institutions = plan.institutions
        self._trust: Optional[set[crypto.PublicKey]] = None
        self.elapsed = 0.0  # seconds spent in the last operation's API call

    # -- applying operations ----------------------------------------------

    def apply(self, op: Op) -> tuple[str, Optional[str]]:
        """Run one operation.  Returns (outcome, failure): the outcome is
        "accept", a rejection reason, or "report"; failure describes how
        the outcome differs from ``op.expect`` (None when it matches)."""
        if op.kind == "disclose":
            return "report", self._disclose(op)
        outcome = getattr(self, "_" + op.kind)(*op.args)
        if op.kind in CALL_KINDS:
            want = _ACCEPTED if op.expect is None else op.expect
            if outcome != want:
                return outcome, f"{op.kind}{op.args[:2]}: expected {want}, got {outcome}"
        return outcome, None

    def _timed(self, fn: Callable[[], object]) -> object:
        start = cpu_clock()
        try:
            return fn()
        finally:
            self.elapsed = cpu_clock() - start

    def _call(self, fn: Callable[[], object]) -> str:
        """Time a protocol call and name its outcome."""
        try:
            receipt = self._timed(fn)
        except (ContractRejected, ConstructorRejected) as exc:
            return exc.reason
        return _ACCEPTED if receipt.accepted else receipt.reason

    # -- identities -------------------------------------------------------

    def _genkey(self, name: str) -> str:
        self._timed(lambda: self.sim.add_actor(name))
        return _ACCEPTED

    def _register(self, name: str, fingerprint_text: str) -> str:
        pair = self.sim.actor(name)
        fingerprint = identity.fingerprint_from_text(fingerprint_text)
        return self._call(lambda: identity.register(self.ledger, self.sim.registry, pair, fingerprint))

    def _certify(self, institution: str, subject: str) -> str:
        certifier, subject_key = self.sim.actor(institution), self.sim.actor(subject).public
        return self._call(lambda: identity.certify(self.ledger, self.sim.registry, certifier, subject_key))

    def _decertify(self, institution: str, subject: str) -> str:
        certifier, subject_key = self.sim.actor(institution), self.sim.actor(subject).public
        return self._call(lambda: identity.decertify(self.ledger, self.sim.registry, certifier, subject_key))

    # -- credit accounts --------------------------------------------------

    def _ceremony(self, customer: str, institution: str, account: str) -> str:
        self._timed(lambda: self.sim.ceremony(customer, institution, account))
        return _ACCEPTED

    def _open(self, account: str, expiration: int) -> str:
        handle = self.sim.account(account)
        inst = handle.institution_view.institution
        customer_public = handle.customer_view.customer.public
        try:
            handle.address = self._timed(lambda: accounts.create_account(
                self.ledger, inst, customer_public, inst.public, expiration))
        except ConstructorRejected as exc:
            return exc.reason
        return _ACCEPTED

    def _commit(self, account: str) -> str:
        handle = self.sim.account(account)
        return self._call(lambda: accounts.commit_account(
            self.ledger, handle.institution_view.institution, self.sim.actor(handle.institution),
            handle.address, self.sim.actor(handle.customer).public))

    def _append(self, customer: str, predecessor: Optional[str], account: str) -> str:
        handle = self.sim.account(account)
        if predecessor is None:
            caller, pred_address = self.sim.actor(customer), None
        else:
            pred = self.sim.account(predecessor)
            caller, pred_address = pred.customer_view.customer, pred.address
        nonce = self.sim.link_nonce(account)
        outcome = self._call(lambda: accounts.append_to_chain(
            self.ledger, caller, pred_address, handle.address,
            handle.customer_view.shared_pointer.public, nonce, registry=self.sim.registry))
        if outcome == _ACCEPTED:
            handle.link_nonce = nonce
            if predecessor is None:
                self.sim.head_of[customer] = account
            else:
                self.sim.accounts[predecessor].next_name = account
        return outcome

    def _update(self, account: str, mode: str, text: str, by: str) -> str:
        handle = self.sim.account(account)
        caller = self._party(handle, by)
        plaintext = text.encode("utf-8")
        nonce = self.sim.data_nonce(account, handle.update_count)
        outcome = self._call(lambda: accounts.update_account_data(
            self.ledger, caller, handle.address, plaintext, mode,
            handle.institution_view.shared_data.public, nonce, blob_store=self.sim.blobs))
        if outcome == _ACCEPTED:
            handle.update_count += 1
            handle.latest_payload = accounts.encode_data_payload(mode, plaintext, self.sim.blobs)
            handle.latest_plaintext = plaintext
            handle.latest_mode = mode
        return outcome

    def _propose_exp(self, account: str, party: str, value: int) -> str:
        handle = self.sim.account(account)
        caller = self._party(handle, party)
        return self._call(lambda: accounts.propose_expiration(self.ledger, caller, handle.address, value))

    def _accept_exp(self, account: str, party: str, value: int) -> str:
        handle = self.sim.account(account)
        caller = self._party(handle, party)
        return self._call(lambda: accounts.accept_expiration(self.ledger, caller, handle.address, value))

    @staticmethod
    def _party(handle: harness.AccountHandle, party: str) -> crypto.KeyPair:
        if party == "institution":
            return handle.institution_view.institution
        return handle.customer_view.customer

    # -- public records ---------------------------------------------------

    def _mint(self, author: str, record: str) -> str:
        pair = self.sim.actor(author)
        # minting is open to anyone and never refused
        address = self._timed(lambda: public_records.mint_record(self.ledger, self.sim.factory, pair))
        self.sim.records[record] = harness.RecordHandle(name=record, author=author, address=address)
        return _ACCEPTED

    def _fill(self, record: str, mode: str, subject: Optional[str], text: str) -> str:
        handle = self.sim.records[record]
        author = self.sim.actor(handle.author)
        plaintext = text.encode("utf-8")
        nonce = self.sim.record_nonce(record) if subject else None
        owner = self.sim.actor(subject).public if subject else None
        outcome = self._call(lambda: public_records.fill_record(
            self.ledger, author, handle.address, plaintext, mode, owner_key=owner, nonce=nonce))
        if outcome == _ACCEPTED:
            handle.mode, handle.plaintext, handle.nonce, handle.subject = mode, plaintext, nonce, subject
        return outcome

    def _link_head(self, record: str, subject: str) -> str:
        address, caller = self.sim.records[record].address, self.sim.actor(subject)
        return self._call(lambda: identity.set_first_public_record(
            self.ledger, self.sim.registry, caller, address))

    def _link_after(self, record: str, anchor: str) -> str:
        handle = self.sim.records[record]
        caller, tail = self.sim.actor(handle.author), self.sim.records[anchor].address
        return self._call(lambda: public_records.append_record(self.ledger, caller, tail, handle.address))

    # -- disclosure and report --------------------------------------------

    def _lender_trust(self) -> set[crypto.PublicKey]:
        """The lender's trust set: the institutions' identity keys."""
        if self._trust is None:
            self._trust = {self.sim.actor(name).public for name in self._institutions}
        return self._trust

    def _disclose(self, op: Op) -> Optional[str]:
        """Customer builds the bundle, it crosses the wire as JSON, and the
        lender assembles the report, which must match ``op.expect``."""
        customer, variant, window, withhold = op.args
        trust = self._lender_trust()

        def disclose() -> reader.VerifiedReport:
            bundle = self.sim.build_bundle(customer, variant, window=window, withhold=withhold)
            received = reader.bundle_from_json(reader.bundle_to_json(bundle))
            return reader.assemble_report(self.ledger, self.sim.registry, received, trust,
                                          blob_store=self.sim.blobs)

        try:
            report = self._timed(disclose)
        except (reader.ChainMismatch, reader.CommitmentInvalid,
                reader.IncompleteDisclosure) as exc:
            return f"disclose {customer}: {type(exc).__name__}: {exc}"
        return self._check_report(report, op.expect)

    def _check_report(self, report: reader.VerifiedReport, want: ExpectedReport) -> Optional[str]:
        name = report.identity.short_id()
        if not report.complete:
            return f"report {name}: incomplete"
        if len(report.entries) != len(want.entries):
            return f"report {name}: {len(report.entries)} entries, expected {len(want.entries)}"
        for entry, (account, text) in zip(report.entries, want.entries):
            if entry.address != self.sim.account(account).address:
                return f"report {name}: entry for {account} points elsewhere"
            if text is None:
                if entry.disclosed:
                    return f"report {name}: withheld {account} came back disclosed"
            elif not entry.disclosed or entry.data != text.encode("utf-8"):
                return f"report {name}: {account} shows {entry.data!r}, latest write was {text!r}"
            if not entry.commitment_ok or not entry.institution_trusted:
                return f"report {name}: {account} commitment or institution not verified"
        if report.window_satisfied != want.window_satisfied:
            return f"report {name}: window_satisfied={report.window_satisfied}"
        return None


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


class HostProbe:
    """A fixed slice of work timed between operations, to scale each timing
    to the speed of a reference host.

    A shared host's speed swings by half within a fraction of a second, as
    neighbours come and go, and drifts over minutes; CPU time moves with it.
    So each timing is multiplied by ``scale()``: the reference host's slice
    time over the mean of the last ``WINDOW`` slices, taken around it, or
    for a span of a sizeable part of a round, of every slice in the round
    so far.  The slice mixes interpreter work with the
    native primitives the program leans on (SHA-256, Ed25519,
    ChaCha20-Poly1305), taken straight from ``hashlib`` and ``cryptography``
    so that no change to the program changes the probe.  A slice takes
    about 0.6 ms and runs once ``EVERY_S`` has passed since the last,
    outside every timed span.
    """

    # mean slice time on the reference host: a 2-vCPU Xeon VM, CPython 3.11
    REFERENCE_S = 600e-6
    EVERY_S = 0.01
    WINDOW = 8

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per slice
        self._recent: deque[float] = deque(maxlen=self.WINDOW)
        self._key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self._public = self._key.public_key()
        self._aead = ChaCha20Poly1305(bytes(32))
        self._last = cpu_clock()

    def _work(self) -> None:
        table = {}
        for i in range(200):
            table[f"k{i}"] = hashlib.sha256(i.to_bytes(4, "big")).digest()
        message = b"".join(sorted(table.values())[:16])
        self._public.verify(self._key.sign(message), message)
        self._aead.encrypt(bytes(12), message, None)

    def sample(self) -> None:
        start = cpu_clock()
        self._work()
        self._last = cpu_clock()
        self.samples.append(self._last - start)
        self._recent.append(self._last - start)

    def tick(self) -> None:
        """Take a sample if ``EVERY_S`` has passed since the last one."""
        if cpu_clock() - self._last >= self.EVERY_S:
            self.sample()

    def burst(self) -> None:
        """Half a window of samples at once, around a long timed span."""
        for _ in range(self.WINDOW // 2):
            self.sample()

    def scale(self, whole: bool = False) -> float:
        """Reference-host seconds per second: below 1 while the host runs
        slower than the reference.  Measured over the recent window, or with
        ``whole`` over every sample so far."""
        if not self._recent:
            self.burst()
        return self.REFERENCE_S / statistics.fmean(self.samples if whole else self._recent)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


@dataclass
class Round:
    """Timings in seconds at the reference host's speed (``HostProbe``),
    except ``wall_s``, which is as measured."""

    setup: list[float] = field(default_factory=list)  # world construction, then each set-up op
    wall_s: float = 0.0
    calls: list[float] = field(default_factory=list)
    reports: list[float] = field(default_factory=list)
    tx: int = 0
    replay_s: float = 0.0
    audits: list[float] = field(default_factory=list)  # seconds per sweep, in AUDITS order
    export_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    fingerprint: dict = field(default_factory=dict)
    rss_quarters: list[float] = field(default_factory=list)
    apply_times: list[float] = field(default_factory=list)  # traced rounds: set-up and loop
    probe_s: list[float] = field(default_factory=list)  # HostProbe slices, as measured


def run_round(plan: Plan, tracer: Optional[Tracer] = None) -> Round:
    """Set-up, timed loop, then export, replay and the six audits, on a
    fresh world.  Peak RSS is sampled at each quarter of the loop; it tracks
    current RSS only while the process has not shrunk before, so only the
    first round's samples mean growth.  A ``HostProbe`` samples between
    operations and in bursts around replay and each audit, and scales each
    operation by the samples around it and replay and the audits by the
    round's samples."""
    gc.collect()
    probe = HostProbe()
    result = Round(probe_s=probe.samples)
    outcomes: Counter[str] = Counter()

    def apply(op) -> None:
        try:
            outcome, failure = world.apply(op)
        except Exception as exc:  # an operation that blows up is a failed operation
            outcome, failure = "error", f"{op.kind}{op.args[:2]}: {type(exc).__name__}: {exc}"
        outcomes[outcome] += 1
        if failure is not None:
            result.failures.append(failure)
        probe.tick()

    if tracer is not None:
        tracer.series.clear()
    start, cpu_start = time.perf_counter(), cpu_clock()
    world = World(plan)
    result.setup.append((cpu_clock() - cpu_start) * probe.scale())
    for op in plan.setup:
        apply(op)
        result.setup.append(world.elapsed * probe.scale())

    marks = {len(plan.loop) * q // 4 for q in range(1, 5)}
    for i, op in enumerate(plan.loop, start=1):
        apply(op)
        if op.kind in CALL_KINDS:
            result.calls.append(world.elapsed * probe.scale())
        elif op.kind == "disclose":
            result.reports.append(world.elapsed * probe.scale())
        if i in marks:
            result.rss_quarters.append(peak_rss_mb())
    if tracer is not None:  # replay and the audits apply the same calls again
        result.apply_times = tracer.series[:]

    ledger = world.ledger
    result.tx = ledger.height  # one transaction per block, no empty blocks
    data = ledger.export()
    result.export_bytes = len(data)
    probe.burst()
    replay_start = cpu_clock()
    try:
        replayed: Optional[Ledger] = Ledger.replay(data)
    except ReplayMismatch as exc:
        replayed = None
        result.failures.append(f"replay: {exc}")
    result.replay_s = cpu_clock() - replay_start
    probe.burst()
    result.replay_s *= probe.scale(whole=True)
    if replayed is not None and replayed.export() != data:
        result.failures.append("replay: re-exported ledger differs from the export")
    del replayed
    for name in AUDITS:  # each burst closes one sweep's window and opens the next's
        audit_start = cpu_clock()
        try:
            getattr(harness, name)(world.sim)
        except harness.AuditFailure as exc:
            result.failures.append(f"{name}: {exc}")
        audit_s = cpu_clock() - audit_start
        probe.burst()
        result.audits.append(audit_s * probe.scale(whole=True))
    result.wall_s = time.perf_counter() - start
    result.attempted = len(plan.setup) + len(plan.loop) + 1 + len(AUDITS)
    result.fingerprint = {
        "operations": len(plan.setup) + len(plan.loop),
        "transactions": result.tx,
        "outcomes": dict(sorted(outcomes.items())),
        "export_sha256": hashlib.sha256(data).hexdigest(),
    }
    return result
