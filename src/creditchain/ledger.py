"""Append-only simulated ledger executing registered contract kinds.

The ledger keeps a log of signed transactions, one per block, and the
current state of each contract; nothing else.  Blocks are implicit: the
height is a counter, each log entry records the block its transaction landed
in, and ``advance_block`` skips empty blocks in O(1) so tests can position
height-sensitive operations (expirations) precisely.  A contract's state
history is rebuilt by re-executing the log.

A transaction either deploys a new contract or calls a function on an
existing one.  Contract logic lives in transition functions registered per
kind; a transition computes the target's next state and may read, stage or
deploy other contracts through the call context.  The transaction commits
atomically: a refusal, of a deployment too, leaves all state as it was and
lands in the log with its reason (only ``deploy``, having no address to
return, raises ``ConstructorRejected``).  A refused constructor that its
deployer catches takes back its contract, those it deployed, all it staged.

Transitions must do a bounded amount of work per call: table lookups and a
fixed number of cross-contract reads, never iteration over a whole chain or
registry.  Anything that walks linked structures belongs to the off-chain
reader helpers, not in here.

Who verifies what.  Every transaction enters through ``submit``.  A
transaction someone else signed has its signature checked against the caller
key before anything runs, and ``replay`` re-executes an export through
``submit``, checking every logged signature again.  ``call`` and ``deploy``
sign with the caller's own ``crypto.KeyPair`` and hand ``submit`` that very
object, which it admits without the check: a key pair's halves match by
construction, and an Ed25519 signature made with a private key always
verifies under its own public key, so the check could never fail there.
Every logged transaction therefore carries a valid signature.  A lender
replays with ``Ledger.replay(data)``, which verifies every signature.  The
audit of a live ledger's own export passes ``admitted_by=`` that ledger and
takes as given what it admitted: a record whose bytes spell the transaction
at the same position in that ledger's log decodes to that very object, which
is admitted without the check, and every other record is decoded and
checked.  The one thing this audit no longer catches is a log entry written
behind the ledger's back (``_log`` edited directly) with a bad signature
whose re-execution still reproduces the live states; every lender replay
refuses it.  The attribution audit checks the signatures inside contract
state, commitments and record fills, by signing again with the world's own
keys and comparing bytes, which relies on Ed25519 signing being
deterministic (RFC 8032) as ``call`` does.

Determinism is the load-bearing property.  Contract addresses hash the
deployer key, the global transaction sequence number and a creation index
(0 for a deployment's own contract, then 1, 2, ... in the order
``CallContext.deploy``, which builds every contract, starts), signatures
are deterministic, and no transition may consult anything outside (state,
transaction, height).  Re-executing an exported log therefore reproduces
every contract state byte for byte, which ``replay`` verifies.

Export and replay in bounded extra memory.  A reader trusts nothing but the
export, so it replays the whole log before reading anything, and these two
calls set the memory ceiling.  ``export`` writes every field straight into
one buffer, a blob's length and then the bytes object the transaction
already holds, so it builds no per-field copies.  Decoding an export reads
it in one pass by offset and shares repeated values: equal caller keys,
target addresses and function names become one object each, which every
replayed ``Transaction`` holds.  The audit's replay shares more: each record
its admitting ledger already holds is that ledger's own ``Transaction``, so
the replayed log adds no copy of it.  The footer's state digests are kept on
each contract's record beside the state they were computed from, so an
export encodes only the states that changed since the last digest, and a
replayed ledger re-exports without encoding any.
"""

from __future__ import annotations

import io
import struct
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache
from typing import Any, ClassVar, NamedTuple, Optional, Protocol

from . import codec, crypto

EXPORT_MAGIC = b"CCLG"
EXPORT_VERSION = 1
# Heights and block numbers are exported as u64.
LAST_HEIGHT = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class LedgerError(Exception):
    """Base class for ledger-level failures."""


class UnknownAddress(LedgerError):
    """The transaction targets an address with no contract behind it."""


class BadSignature(LedgerError):
    """The transaction signature does not verify against its caller key."""


class ContractRejected(LedgerError):
    """A transition refused the call; carries a stable reason string."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ConstructorRejected(ContractRejected):
    """A contract constructor refused the deployment."""


class ChainFull(LedgerError):
    """The open block is the last one a u64 height can seal."""


class ReplayMismatch(LedgerError):
    """Re-executing an exported log did not reproduce the recorded outcome."""


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Address:
    """32-byte contract address, hashable and usable as a mapping key."""

    digest: bytes

    def __post_init__(self) -> None:
        if len(self.digest) != crypto.DIGEST_SIZE:
            raise ValueError("address must be 32 bytes")

    def __hash__(self) -> int:  # equal exactly when the digests are
        return hash(self.digest)

    @property
    def hex(self) -> str:
        return self.digest.hex()

    def short(self) -> str:
        return self.digest.hex()[:12]

    def __repr__(self) -> str:  # keeps transcripts and asserts readable
        return f"Address({self.short()}…)"


def derive_address(deployer: bytes, seq: int, index: int) -> Address:
    """Hash of (deployer key, global transaction sequence, creation index).

    ``index`` separates the contracts one transaction creates: 0 for a
    deployment's own, then 1, 2, ... in the order ``CallContext.deploy`` starts.
    """
    return Address(crypto.digest(codec.pack(b"address", deployer, codec.u64(seq), codec.u16(index))))


@dataclass(frozen=True, slots=True)
class Transaction:
    """A signed call or deployment.  ``target`` is None for deployments,
    in which case ``function`` names the contract kind to construct."""

    caller: bytes
    target: Optional[Address]
    function: str
    args: bytes
    signature: bytes

    def is_deploy(self) -> bool:
        return self.target is None


def signing_payload(caller: bytes, target: Optional[Address], function: str, args: bytes) -> bytes:
    """Canonical byte string covered by a transaction signature.

    Field order: marker, caller key, target address (empty for deploy),
    function name, argument bytes.
    """
    target_bytes = b"" if target is None else target.digest
    return codec.pack(b"transaction", caller, target_bytes, codec.text(function), args)


def make_transaction(caller: crypto.KeyPair, target: Optional[Address], function: str, args: bytes) -> Transaction:
    """Sign a transaction with ``caller``'s private key.  It names no block:
    the log entry records where ``submit`` lands it."""
    caller_key = caller.public.to_bytes()
    return Transaction(
        caller=caller_key,
        target=target,
        function=function,
        args=args,
        signature=crypto.sign(caller.private, signing_payload(caller_key, target, function, args)),
    )


class CallReceipt(NamedTuple):
    """What ``submit`` returns.  A named tuple rather than a frozen
    dataclass: every transaction builds one, and a named tuple of this size
    builds in under a third of the time."""

    accepted: bool
    reason: Optional[str]
    block: int
    seq: int
    # every address the transaction created, in the order their deploys
    # started: a deployment's own contract first
    created: tuple[Address, ...] = ()
    # every address the transaction committed: those it created, then its
    # target if the transition returned a state, then the others it staged
    committed: tuple[Address, ...] = ()


@dataclass(frozen=True)
class HistoryEntry:
    block: int
    tx: Transaction
    state: Any


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One logged transaction and the block it landed in; its sequence
    number is its index in the log."""

    block: int
    tx: Transaction
    accepted: bool
    reason: Optional[str]


# ---------------------------------------------------------------------------
# Contract kind registry
# ---------------------------------------------------------------------------


class ContractKind(Protocol):
    """A contract kind: ``construct`` builds a deployment's first state,
    ``apply`` runs one function call and returns the next state, and
    ``encode_state`` gives a state's canonical bytes.

    States are frozen, slotted snapshots.  A transition returns
    ``evolve(state, ...)``, naming only the fields it writes; returns None
    to leave its target unchanged (a call that only stages other contracts);
    or raises ``ContractRejected(reason)``.
    """

    KIND: ClassVar[str]

    @staticmethod
    def construct(ctx: "CallContext", args: bytes) -> Any: ...

    @staticmethod
    def apply(state: Any, ctx: "CallContext", function: str, args: bytes) -> Any: ...

    @staticmethod
    def encode_state(state: Any) -> bytes: ...


CONTRACT_KINDS: dict[str, ContractKind] = {}


def evolve(state: Any, **changes: Any) -> Any:
    """``state`` with only the named fields changed, built by the state
    class's own constructor, so frozen and ``__post_init__`` behaviour hold.
    An unknown name raises ``TypeError``, as in ``dataclasses.replace``,
    which unlike this walks ``fields()`` on every call."""
    for name in _init_field_names(type(state)):
        if name not in changes:
            changes[name] = getattr(state, name)
    return type(state)(**changes)


@cache
def _init_field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls) if f.init)


def register_contract(cls: Any) -> Any:
    """Class decorator adding a contract kind to the global registry."""
    kind = cls.KIND
    if kind in CONTRACT_KINDS and CONTRACT_KINDS[kind] is not cls:
        raise ValueError(f"contract kind {kind!r} registered twice")
    CONTRACT_KINDS[kind] = cls
    return cls


@dataclass(slots=True)
class _ContractRecord:
    cls: Any  # the contract kind's class; ``cls.KIND`` names it
    state: Any  # None until the transaction that creates it commits
    created: int  # block of the deploying transaction
    # (state, its digest) as ``state_digest`` last computed them: valid only
    # while ``state`` is still that very object.  Until the next digest it
    # may keep one superseded state alive, and with it the versioned-map
    # diffs of every write after it
    digested: Optional[tuple[Any, bytes]] = None


class CallContext:
    """Restricted view of the ledger handed to a transition function.

    Exposes the caller key, the executing contract's address, the current
    block height, ``resolve``, ``stage`` and ``deploy``.  A transition
    writes its target by its return value, other contracts by ``stage``
    and new ones by ``deploy``.  ``staged`` maps every contract but the
    target that the transaction writes, each new one's first state too.
    Reads see what it created and staged; nothing is visible outside
    until it commits.
    """

    __slots__ = ("_ledger", "_tx", "_seq", "caller", "self_address", "height",
                 "staged", "created")

    def __init__(self, ledger: "Ledger", tx: Transaction, seq: int, self_address: Optional[Address]) -> None:
        self._ledger = ledger
        self._tx = tx
        self._seq = seq
        self.caller: bytes = tx.caller
        self.self_address = self_address
        self.height: int = ledger.height
        self.staged: dict[Address, Any] = {}
        self.created: dict[Address, _ContractRecord] = {}

    def resolve(self, pointer: bytes, cls: Any) -> Any:
        """The state of the ``cls`` contract at the raw ``pointer``, as this
        transaction sees it; None, never an exception, for a pointer that is
        not 32 bytes, an address with no contract, or a contract of another kind."""
        if len(pointer) != crypto.DIGEST_SIZE:
            return None
        address = Address(pointer)
        record = self.created.get(address) or self._ledger._contracts.get(address)
        if record is None or record.cls is not cls:
            return None
        return self.staged.get(address, record.state)

    def stage(self, address: Address, new_state: Any) -> None:
        """Queue a state change for a contract other than the call's target,
        which only the transition's return value writes; staging the target
        is refused with ``StagedTarget``, also from a constructor the call runs."""
        if address == self.self_address:
            raise ContractRejected("StagedTarget")
        if address not in self.created and address not in self._ledger._contracts:
            raise ContractRejected("UnknownAddress")
        self.staged[address] = new_state

    def deploy(self, kind: str, args: bytes) -> Address:
        """Build a ``kind`` contract in this transaction, as every contract is
        built; its index (``derive_address``) is taken before its constructor runs."""
        cls = CONTRACT_KINDS.get(kind)
        if cls is None:
            raise ContractRejected(f"UnknownKind({kind})")
        slot = len(self.created)
        address = derive_address(self.caller, self._seq, slot if self._tx.is_deploy() else slot + 1)
        saved = dict(self.created), dict(self.staged)
        self.created[address] = _ContractRecord(cls, None, self.height)
        try:
            self.staged[address] = cls.construct(self, args)
        except ContractRejected:  # take back everything the refused constructor did
            self.created, self.staged = saved
            raise
        return address


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


class Ledger:
    """Single-writer ledger: submit transactions, read state, export, replay."""

    def __init__(self) -> None:
        self._contracts: dict[Address, _ContractRecord] = {}
        self._log: list[LogEntry] = []
        self._height = 0
        # The transaction ``call``/``deploy`` are submitting, if any.
        self._own: Optional[Transaction] = None

    # -- block machinery ----------------------------------------------------

    @property
    def height(self) -> int:
        return self._height

    def advance_block(self, count: int = 1) -> int:
        """Append ``count`` empty blocks; returns the new height.

        A count that is negative or would take the height past
        ``LAST_HEIGHT`` raises ValueError and leaves the height as it was.
        """
        if not 0 <= count <= LAST_HEIGHT - self._height:
            raise ValueError(f"cannot advance {count} blocks from height {self._height}")
        self._height += count
        return self._height

    @property
    def log(self) -> list[LogEntry]:
        return list(self._log)

    # -- submission ---------------------------------------------------------

    def deploy(self, caller: crypto.KeyPair, kind: str, init_args: bytes) -> Address:
        """Sign a deployment with ``caller``, submit it as ``call`` does, and return
        its address; a refusal, logged as any other, raises ConstructorRejected."""
        receipt = self._submit_own(make_transaction(caller, None, kind, init_args))
        if not receipt.accepted:
            raise ConstructorRejected(receipt.reason)
        return receipt.created[0]

    def call(self, caller: crypto.KeyPair, target: Address, function: str, args: bytes) -> CallReceipt:
        """Sign a call with ``caller`` in the open block and submit it.

        The signature is not verified again: ``caller``'s halves match by
        construction, so a signature its private half makes always verifies
        under its public half.  Raises UnknownAddress like ``submit``.
        """
        return self._submit_own(make_transaction(caller, target, function, args))

    def _submit_own(self, tx: Transaction) -> CallReceipt:
        """Submit ``tx`` without its signature check: ``call``/``deploy`` just
        signed it with a KeyPair, or ``replay`` found it in the log of the
        ledger that admitted it.

        ``submit`` stays the one entry point every admitted transaction
        passes; it recognises this object and skips the check that cannot fail.
        """
        self._own = tx
        try:
            return self.submit(tx)
        finally:
            self._own = None

    def submit(self, tx: Transaction) -> CallReceipt:
        """Verify, execute, and log a transaction.

        A transaction signed elsewhere must verify under ``tx.caller``, since
        nothing else vouches for it; only the object ``call``/``deploy`` are
        submitting right now, or ``replay`` has matched in an admitting
        ledger's log, skips that check.  Raises BadSignature /
        UnknownAddress / ChainFull without touching the chain (the last
        height has no block left to seal).  A refused call or deployment (its
        constructor refused or its kind is unknown) is logged and returned as
        a receipt with ``accepted=False`` and its reason.
        """
        if tx is not self._own:
            self._check_signature(tx)
        record = self._contracts.get(tx.target)  # None for a deployment
        if record is None and tx.target is not None:
            raise UnknownAddress(tx.target.hex)
        if self._height == LAST_HEIGHT:
            raise ChainFull(f"no block after height {LAST_HEIGHT}")
        return self._execute(tx, len(self._log), record)

    @staticmethod
    def _check_signature(tx: Transaction) -> None:
        try:
            caller_key = crypto.PublicKey.from_bytes(tx.caller)
        except crypto.CryptoError as exc:
            raise BadSignature(str(exc)) from exc
        payload = signing_payload(tx.caller, tx.target, tx.function, tx.args)
        if not crypto.verify(caller_key, payload, tx.signature):
            raise BadSignature("transaction signature does not verify")

    def _execute(self, tx: Transaction, seq: int, record: Optional[_ContractRecord]) -> CallReceipt:
        """Apply an admitted transaction in the open block, log it, seal the
        block, and if accepted commit what it created, its target, then what
        it staged.  ``record`` is the target's, or None for a deployment.
        This is the one place that writes the log or a contract's state."""
        ctx = CallContext(self, tx, seq, tx.target)
        block = self._height
        try:
            if tx.is_deploy():
                ctx.deploy(tx.function, tx.args)
                new_target_state = None
            else:
                new_target_state = record.cls.apply(record.state, ctx, tx.function, tx.args)
        except ContractRejected as exc:
            self._log.append(LogEntry(block, tx, False, exc.reason))
            self._height += 1  # one transaction per block: seal immediately
            return CallReceipt(False, exc.reason, block, seq)

        self._log.append(LogEntry(block, tx, True, None))
        self._height += 1
        self._contracts.update(ctx.created)
        committed = created = tuple(ctx.created)
        if new_target_state is not None:
            record.state = new_target_state
            committed = (*committed, tx.target)
        if ctx.staged:
            for address, state in ctx.staged.items():
                self._contracts[address].state = state
            committed += tuple(a for a in ctx.staged if a not in ctx.created)
        return CallReceipt(True, None, block, seq, created, committed)

    # -- reading ------------------------------------------------------------

    def exists(self, address: Address) -> bool:
        return address in self._contracts

    def read_contract(self, address: Address, cls: Any) -> Optional[tuple[Any, int]]:
        """(state, creation block) of the ``cls`` contract at ``address``,
        found with one lookup; None if no contract or one of another kind
        lives there.  The state is a snapshot, as ``read_state`` describes."""
        record = self._contracts.get(address)
        return None if record is None or record.cls is not cls else (record.state, record.created)

    def contract_kind(self, address: Address) -> str:
        return self._record(address).cls.KIND

    def read_state(self, address: Address) -> Any:
        """Current state of a contract; no key material required.

        The state is an immutable snapshot: it reads the same however many
        transactions change the contract afterwards, so never mutate it.  A
        map that grows with the population (the registry's records, a
        factory's minted and added sets) is a ``versioned.VersionedMap``:
        only the newest snapshot holds the map's dict, and each older one
        keeps the one entry that the next write changed, so keeping a
        snapshot copies nothing.  Reading an older snapshot costs one step
        per later write.  Writing from a snapshot that is no longer the
        newest, as a transition applied to a saved state does, copies its
        map first."""
        return self._record(address).state

    def history(self, address: Address) -> list[HistoryEntry]:
        """Chronological state changes; the first entry is the deployment.

        After it comes one entry per accepted transaction that committed the
        address, as its target or as a staged cross-contract change — even
        when the committed state equals the previous one.  Nothing stores
        this: it is rebuilt by re-executing the log on a scratch ledger and
        reading each receipt's ``committed`` addresses, which costs O(log
        length) per call, so it is meant for audits and tests, not for the
        transaction path.  Signatures are not checked again (every logged
        transaction carries a valid one), and rejected transactions are
        skipped, since a rejection commits nothing.
        """
        self._record(address)  # UnknownAddress for a stranger
        scratch = Ledger()
        entries: list[HistoryEntry] = []
        for seq, entry in enumerate(self._log):
            if not entry.accepted:
                continue
            scratch.advance_block(entry.block - scratch.height)
            receipt = scratch._execute(entry.tx, seq, scratch._contracts.get(entry.tx.target))
            if address in receipt.committed:
                entries.append(HistoryEntry(receipt.block, entry.tx, scratch.read_state(address)))
        return entries

    def creation_block(self, address: Address) -> int:
        return self._record(address).created

    def addresses(self) -> list[Address]:
        return list(self._contracts)

    def contracts_by_kind(self, kind: str) -> list[Address]:
        return [a for a, rec in self._contracts.items() if rec.cls.KIND == kind]

    def _record(self, address: Address) -> _ContractRecord:
        record = self._contracts.get(address)
        if record is None:
            raise UnknownAddress(address.hex)
        return record

    def state_digest(self, address: Address) -> bytes:
        """Digest of the contract's kind and encoded state.  It is kept on
        the contract's record with the state it was computed from and
        reused while the record still holds that very object, so an
        unchanged state is encoded once however often the ledger exports."""
        record = self._record(address)
        if record.digested is not None and record.digested[0] is record.state:
            return record.digested[1]
        digest = crypto.digest(codec.pack(b"state", codec.text(record.cls.KIND),
                                          record.cls.encode_state(record.state)))
        record.digested = (record.state, digest)
        return digest

    def state_digests(self) -> dict[Address, bytes]:
        return {address: self.state_digest(address) for address in self._contracts}

    # -- export / replay ----------------------------------------------------

    def export(self) -> bytes:
        """Canonical byte-stable serialization of the full transaction log.

        Layout: magic, version, final height, transaction count, one record
        per transaction (block, status, deploy flag, caller, target,
        function, args, signature), then a footer of per-contract state
        digests for replay verification.  Fields go straight into one
        buffer, a record's fixed-width head in one ``struct`` pack and its
        blobs through ``codec.write_blob``, so the only large allocation is
        the export itself.
        """
        out = io.BytesIO()
        write = out.write
        write(EXPORT_MAGIC)
        write(codec.u16(EXPORT_VERSION))
        write(codec.u64(self._height))
        write(codec.u32(len(self._log)))
        pack_head = _RECORD_HEAD.pack
        for entry in self._log:
            tx = entry.tx
            write(pack_head(entry.block, not entry.accepted, tx.target is None))
            codec.write_blob(write, tx.caller)
            codec.write_blob(write, b"" if tx.target is None else tx.target.digest)
            codec.write_blob(write, codec.text(tx.function))
            codec.write_blob(write, tx.args)
            codec.write_blob(write, tx.signature)
        digests = self.state_digests()
        write(codec.u32(len(digests)))
        for address, d in digests.items():
            codec.write_blob(write, address.digest)
            codec.write_blob(write, d)
        return out.getvalue()

    @classmethod
    def replay(cls, data: bytes, admitted_by: Optional["Ledger"] = None) -> "Ledger":
        """Re-execute an exported log from genesis and verify the outcome.

        Every transaction must reproduce its recorded accept/reject status
        and every contract its recorded state digest, else ReplayMismatch.
        Bytes that do not decode as an export raise ReplayMismatch too, so a
        ledger this returns re-exports to exactly ``data``.  The whole export
        is decoded before anything executes, and every signature is checked
        again on ``submit``.  Transactions with equal caller keys, targets or
        function names share one object for each, so the replayed log holds
        each distinct value once.

        A lender passes no ``admitted_by`` and so verifies every signature.
        ``admitted_by`` is for a ledger auditing its own export: a record
        whose bytes spell the transaction at the same position in
        ``admitted_by``'s log decodes to that very object (``_decode_export``)
        and goes to ``submit`` without the signature check, as
        ``call``/``deploy`` do; any other record, one past the end of that
        log too, is decoded and checked as in a lender's replay.  It takes
        that ledger's log as admitted, so a bad signature written into
        ``_log`` behind its back is not noticed here when re-execution still
        reproduces the states.
        """
        admitted = [] if admitted_by is None else admitted_by._log
        try:
            final_height, records, footer = _decode_export(data, admitted)
        except ValueError as exc:  # codec.DecodeError or a bad address
            raise ReplayMismatch(f"malformed export: {exc}") from exc

        ledger = cls()
        for i, (block, rejected, tx) in enumerate(records):
            if block != ledger.height:
                if block < ledger.height:
                    raise ReplayMismatch(f"transaction {i} block number out of order")
                ledger.advance_block(block - ledger.height)
            try:
                own = i < len(admitted) and admitted[i].tx is tx
                accepted = (ledger._submit_own if own else ledger.submit)(tx).accepted
            except LedgerError as exc:
                raise ReplayMismatch(f"transaction {i} failed to re-execute: {exc}") from exc
            if accepted == rejected:
                raise ReplayMismatch(f"transaction {i} outcome diverged on replay")

        if final_height < ledger.height:
            raise ReplayMismatch("recorded final height below replayed height")
        ledger.advance_block(final_height - ledger.height)

        replayed = [(address.digest, d) for address, d in ledger.state_digests().items()]
        if len(footer) != len(replayed):
            raise ReplayMismatch("contract count diverged on replay")
        for recorded, expected in zip(footer, replayed):
            if recorded != expected:
                raise ReplayMismatch(f"state digest diverged at {recorded[0].hex()}")
        return ledger


_RECORD_HEAD = struct.Struct(">QBB")  # block, status, deploy flag
_U32_AT = struct.Struct(">I").unpack_from


def _spelled_at(data: bytes, pos: int, tx: Transaction) -> int:
    """The offset just past the record whose head is at ``pos`` if its flags
    and five blobs spell ``tx`` as ``export`` writes it, else -1; the head
    must be in bounds.  Each blob and its length prefix are compared in
    place, so nothing is sliced; the blob goes first, since ``startswith``
    is False for bytes past the end, and once it matched the prefix before
    it is in bounds."""
    if data[pos + 8] > 1 or data[pos + 9] != (tx.target is None):
        return -1
    pos += 10
    target = b"" if tx.target is None else tx.target.digest
    for field in (tx.caller, target, codec.text(tx.function), tx.args, tx.signature):
        if not data.startswith(field, pos + 4) or _U32_AT(data, pos)[0] != len(field):
            return -1
        pos += 4 + len(field)
    return pos


def _decode_export(data: bytes, admitted: Sequence[LogEntry] = ()) -> tuple[
        int, list[tuple[int, bool, Transaction]], list[tuple[bytes, bytes]]]:
    """Split an export into (final height, [(block, rejected, tx)], [(address, digest)]).

    Accepts only the canonical encoding ``Ledger.export`` writes: flags are
    0 or 1 and a deployment has an empty target.  Layout errors raise
    ValueError (codec.DecodeError, including bad UTF-8, or a bad address),
    naming the absolute offset at which the input ran out.  Equal caller
    keys, target addresses and function names decode to one shared object
    each, found through tables that live only for this call; each distinct
    function name's UTF-8 is decoded once.

    ``admitted`` is the log of a ledger that admitted these records, for an
    audit of that ledger's own export: a record whose flags and five blobs
    spell the transaction at the same position in it is returned as
    that very ``Transaction`` object, and nothing is decoded for it.  Every
    other record is decoded as without ``admitted``, so the records returned
    are equal either way and so is any error raised.

    Past the header, one pass by offset: a record is one ``struct`` read of
    its head, then five blobs (``codec.blob_at``) in the order ``export``
    wrote them.
    """
    header = codec.ByteReader(data)
    if header.take(4) != EXPORT_MAGIC:
        raise ReplayMismatch("not a ledger export")
    version = header.u16()
    if version != EXPORT_VERSION:
        raise ReplayMismatch(f"unsupported export version {version}")
    final_height = header.u64()
    count = header.u32()
    end = len(data)
    pos = end - header.remaining()
    blob_at = codec.blob_at
    read_head = _RECORD_HEAD.unpack_from
    callers: dict[bytes, bytes] = {}
    targets: dict[bytes, Address] = {}
    functions: dict[bytes, str] = {}
    records = []
    for i in range(count):
        if end - pos < 10:  # the u64 block, then two u8 flags
            raise codec.exhausted(8, pos) if end - pos < 8 else codec.exhausted(1, end)
        block, rejected, is_deploy = read_head(data, pos)
        if i < len(admitted) and (stop := _spelled_at(data, pos, tx := admitted[i].tx)) >= 0:
            records.append((block, bool(rejected), tx))
            pos = stop
            continue
        caller, pos = blob_at(data, pos + 10, end)
        target_raw, pos = blob_at(data, pos, end)
        function_raw, pos = blob_at(data, pos, end)
        if (function := functions.get(function_raw)) is None:
            function = functions[function_raw] = codec.decode_text(function_raw)
        args, pos = blob_at(data, pos, end)
        signature, pos = blob_at(data, pos, end)
        if rejected > 1 or is_deploy > 1 or (is_deploy and target_raw):
            raise codec.DecodeError(f"transaction {i} has non-canonical flags")
        if is_deploy:
            target = None
        elif (target := targets.get(target_raw)) is None:
            target = targets[target_raw] = Address(target_raw)
        tx = Transaction(caller=callers.setdefault(caller, caller), target=target,
                         function=function, args=args, signature=signature)
        records.append((block, bool(rejected), tx))
    if end - pos < 4:
        raise codec.exhausted(4, pos)
    contracts, pos = _U32_AT(data, pos)[0], pos + 4
    footer = []
    for _ in range(contracts):
        address, pos = blob_at(data, pos, end)
        state_digest, pos = blob_at(data, pos, end)
        footer.append((address, state_digest))
    if pos != end:
        raise codec.DecodeError(f"{end - pos} trailing bytes after expected end")
    return final_height, records, footer
