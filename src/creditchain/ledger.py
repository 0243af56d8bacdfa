"""Append-only simulated ledger executing registered contract kinds.

The ledger keeps a log of signed transactions, one per block, and the
current state of each contract; nothing else.  Blocks are implicit: the
height is a counter, each transaction records the block it landed in, and
``advance_block`` skips empty blocks in O(1) so tests can position
height-sensitive operations (expirations) precisely.  The block list is
rebuilt from the log and a contract's state history by re-executing it.

A transaction either deploys a new contract or calls a function on an
existing one.  Contract logic lives in transition functions registered per
kind; a transition computes the target's next state and may read or stage
other contracts through the call context, but the whole transaction commits
atomically — a rejection discards every staged change and leaves all state
exactly as it was, while the transaction itself still lands in the log with
its rejection reason.

Transitions must do a bounded amount of work per call: table lookups and a
fixed number of cross-contract reads, never iteration over a whole chain or
registry.  Anything that walks linked structures belongs to the off-chain
reader helpers, not in here.

Who stamps the block.  ``call`` and ``deploy`` sign each transaction with
the open block already in it, so ``submit`` logs that very object.  The
block is not part of the signed payload (``signing_payload``): signatures,
exports and transcripts do not depend on when a transaction was signed.  A
transaction that arrives with another block, such as a foreign one made with
``make_transaction``'s default ``block=-1``, is logged with the open block.

Who verifies what.  Every transaction enters through ``submit``.  A
transaction someone else signed has its signature checked against the caller
key before anything runs, and ``replay`` re-executes an export through
``submit``, checking every logged signature again.  ``call`` and ``deploy``
sign with the caller's own ``crypto.KeyPair`` and hand ``submit`` that very
object, which it admits without the check: a key pair's halves match by
construction, and an Ed25519 signature made with a private key always
verifies under its own public key, so the check could never fail there.
Every logged transaction therefore carries a valid signature.

Determinism is the load-bearing property.  Contract addresses hash the
deployer key and the global transaction sequence number, signatures are
deterministic, and no transition may consult anything outside (state,
transaction, height).  Re-executing an exported log therefore reproduces
every contract state byte for byte, which ``replay`` verifies.

Export and replay in bounded extra memory.  A reader trusts nothing but the
export, so it replays the whole log before reading anything, and these two
calls set the memory ceiling.  ``export`` writes every field straight into
one buffer, a blob's length and then the bytes object the transaction
already holds, so it builds no per-field copies.  Decoding an export shares
repeated values: equal caller keys, target addresses and function names
become one object each, which every replayed ``Transaction`` holds.  The
footer's state digests are kept on each contract's record beside the state
they were computed from, so an export encodes only the states that changed
since the last digest, and a replayed ledger re-exports without encoding
any.
"""

from __future__ import annotations

import io
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import cache
from typing import Any, ClassVar, Optional, Protocol

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


class ConstructorRejected(LedgerError):
    """A contract constructor refused the deployment."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


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


def derive_address(deployer: bytes, seq: int, index: int = 0) -> Address:
    """Hash of (deployer key, global transaction sequence, creation index).

    ``index`` separates multiple contracts created inside one transaction,
    e.g. a factory minting on behalf of a caller.
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
    block: int = -1

    def is_deploy(self) -> bool:
        return self.target is None


def signing_payload(caller: bytes, target: Optional[Address], function: str, args: bytes) -> bytes:
    """Canonical byte string covered by a transaction signature.

    Field order: marker, caller key, target address (empty for deploy),
    function name, argument bytes.
    """
    target_bytes = b"" if target is None else target.digest
    return codec.pack(b"transaction", caller, target_bytes, codec.text(function), args)


def make_transaction(
    caller: crypto.KeyPair,
    target: Optional[Address],
    function: str,
    args: bytes,
    block: int = -1,
) -> Transaction:
    """Sign a transaction with ``caller``'s private key.

    ``block`` is where the transaction is meant to land; ``Ledger.call`` and
    ``deploy`` pass the open block.  It is not signed, so the signature is
    the same for any block, and ``submit`` logs a transaction whose block is
    not the open one (the default ``-1``, say) with the open block.
    """
    caller_key = caller.public.to_bytes()
    return Transaction(
        caller=caller_key,
        target=target,
        function=function,
        args=args,
        signature=crypto.sign(caller.private, signing_payload(caller_key, target, function, args)),
        block=block,
    )


@dataclass(frozen=True, slots=True)
class CallReceipt:
    accepted: bool
    reason: Optional[str]
    block: int
    seq: int
    result: Optional[bytes] = None
    created: tuple[Address, ...] = ()


@dataclass(frozen=True)
class HistoryEntry:
    block: int
    tx: Transaction
    state: Any


@dataclass(frozen=True, slots=True)
class LogEntry:
    """One logged transaction; its sequence number is its index in the log."""

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
    ``evolve(state, ...)``, naming only the fields it writes, or raises
    ``ContractRejected(reason)``.
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
    state: Any
    created: int  # block of the deploying transaction
    # (state, its digest) as ``state_digest`` last computed them: valid only
    # while ``state`` is still that very object
    digested: Optional[tuple[Any, bytes]] = None


class CallContext:
    """Restricted view of the ledger handed to a transition function.

    Exposes the caller key, the executing contract's address, the current
    block height, and staged cross-contract access.  All reads observe
    changes staged earlier in the same transaction; nothing becomes visible
    outside until the transaction commits.
    """

    __slots__ = ("_ledger", "_tx", "_seq", "caller", "self_address", "height",
                 "staged", "created", "result")

    def __init__(self, ledger: "Ledger", tx: Transaction, seq: int, self_address: Optional[Address]) -> None:
        self._ledger = ledger
        self._tx = tx
        self._seq = seq
        self.caller: bytes = tx.caller
        self.self_address = self_address
        self.height: int = ledger.height
        self.staged: dict[Address, Any] = {}
        self.created: dict[Address, tuple[Any, Any]] = {}  # addr -> (cls, state)
        self.result: Optional[bytes] = None

    def try_read(self, address: Address) -> Optional[tuple[str, Any]]:
        """(kind, state) for an address, or None if nothing lives there."""
        if address in self.created:
            cls, state = self.created[address]
            return cls.KIND, state
        record = self._ledger._contracts.get(address)
        if record is None:
            return None
        state = self.staged.get(address, record.state)
        return record.cls.KIND, state

    def stage(self, address: Address, new_state: Any) -> None:
        """Queue a state change for another contract touched by this call."""
        if address in self.created:
            cls, _ = self.created[address]
            self.created[address] = (cls, new_state)
        else:
            if address not in self._ledger._contracts:
                raise ContractRejected("UnknownAddress")
            self.staged[address] = new_state

    def deploy(self, kind: str, args: bytes) -> Address:
        """Create a child contract within the current transaction."""
        cls = CONTRACT_KINDS.get(kind)
        if cls is None:
            raise ContractRejected(f"UnknownKind({kind})")
        address = derive_address(self._tx.caller, self._seq, 1 + len(self.created))
        state = cls.construct(self, args)
        self.created[address] = (cls, state)
        return address

    def set_result(self, value: bytes) -> None:
        self.result = value


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


def _block_of(entry: LogEntry) -> int:
    return entry.tx.block


class _Blocks(Sequence):
    """Read-only view of blocks 0..height as lists of log entries.

    A block is built only when indexed, by bisecting the block-ordered log,
    so the view costs nothing however many empty blocks the height spans.
    It sees the first ``count`` log entries: later submissions do not show.
    """

    def __init__(self, log: list[LogEntry], count: int, height: int) -> None:
        self._log, self._count, self._len = log, count, height + 1

    def __len__(self) -> int:
        if self._len > sys.maxsize:  # ``len`` cannot return more
            raise OverflowError(f"height {self._len - 1} has more blocks than len() can "
                                f"return; count them as Ledger.height + 1")
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._block(i) for i in range(*index.indices(self._len))]
        number = range(self._len)[index]  # normalises negatives, raises IndexError
        return self._block(number)

    def _block(self, number: int) -> list[LogEntry]:
        lo = bisect_left(self._log, number, 0, self._count, key=_block_of)
        hi = bisect_right(self._log, number, lo, self._count, key=_block_of)
        return self._log[lo:hi]


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
    def blocks(self) -> Sequence[list[LogEntry]]:
        """Every block up to and including the open one, rebuilt from the log.

        Indexing and slicing work at any height.  ``len`` (and so
        ``reversed``) raises OverflowError once the height reaches
        ``sys.maxsize``, since Python's ``len`` cannot return more; the
        block count is always ``Ledger.height + 1``.
        """
        return _Blocks(self._log, len(self._log), self._height)

    @property
    def log(self) -> list[LogEntry]:
        return list(self._log)

    def transaction_count(self, caller: crypto.PublicKey | bytes) -> int:
        """How many transactions a key has landed on the chain (the stand-in
        for fees: rejected calls count too), counted off the log."""
        raw = caller.to_bytes() if isinstance(caller, crypto.PublicKey) else caller
        return sum(entry.tx.caller == raw for entry in self._log)

    # -- submission ---------------------------------------------------------

    def deploy(self, caller: crypto.KeyPair, kind: str, init_args: bytes) -> Address:
        """Sign a deployment with ``caller`` and submit it, as ``call`` does."""
        receipt = self._submit_own(make_transaction(caller, None, kind, init_args, self._height))
        return receipt.created[0]

    def call(self, caller: crypto.KeyPair, target: Address, function: str, args: bytes) -> CallReceipt:
        """Sign a call with ``caller`` in the open block and submit it.

        The signature is not verified again: ``caller``'s halves match by
        construction, so a signature its private half makes always verifies
        under its public half.  Raises UnknownAddress like ``submit``.
        """
        return self._submit_own(make_transaction(caller, target, function, args, self._height))

    def _submit_own(self, tx: Transaction) -> CallReceipt:
        """Submit ``tx``, just signed with a KeyPair by ``call``/``deploy``.

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
        submitting right now skips that check.  Raises BadSignature /
        UnknownAddress / ChainFull without touching the chain (the last
        height has no block left to seal); contract-level rejections
        are logged and reported in the receipt (or raised as
        ConstructorRejected for deployments, after logging).
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
        """Apply an admitted transaction in the open block, log it, and
        commit its changes if the transition accepted it.  ``record`` is the
        target's, or None for a deployment."""
        if tx.block != self._height:  # own, logged and decoded ones already carry it
            tx = replace(tx, block=self._height)
        ctx = CallContext(self, tx, seq, tx.target)
        try:
            if tx.is_deploy():
                cls = CONTRACT_KINDS.get(tx.function)
                if cls is None:
                    raise ConstructorRejected(f"UnknownKind({tx.function})")
                address = derive_address(tx.caller, seq, 0)
                state = cls.construct(ctx, tx.args)
                ctx.created[address] = (cls, state)
                new_target_state = None
            else:
                new_target_state = record.cls.apply(record.state, ctx, tx.function, tx.args)
        except (ContractRejected, ConstructorRejected) as exc:
            receipt = self._include(tx, seq, accepted=False, reason=exc.reason)
            if tx.is_deploy():
                raise
            return receipt

        created, staged = ctx.created, ctx.staged
        receipt = self._include(tx, seq, accepted=True, reason=None,
                                result=ctx.result, created=tuple(created))
        block = receipt.block
        if created:
            for address, (contract_cls, state) in created.items():
                self._contracts[address] = _ContractRecord(contract_cls, state, block)
        if new_target_state is not None:
            self._commit(tx.target, new_target_state, tx, block)
        if staged:
            for address, state in staged.items():
                self._commit(address, state, tx, block)
        return receipt

    def _commit(self, address: Address, state: Any, tx: Transaction, block: int) -> None:
        """Install one contract's new state; every commit but a creation
        passes here, which is what ``_HistoryRecorder`` hooks."""
        self._contracts[address].state = state

    def _include(self, tx: Transaction, seq: int, *, accepted: bool, reason: Optional[str],
                 result: Optional[bytes] = None, created: tuple[Address, ...] = ()) -> CallReceipt:
        self._log.append(LogEntry(tx, accepted, reason))
        block = self._height
        # one transaction per block: seal immediately
        self._height += 1
        return CallReceipt(accepted, reason, block, seq, result, created)

    # -- reading ------------------------------------------------------------

    def exists(self, address: Address) -> bool:
        return address in self._contracts

    def read_contract(self, address: Address) -> Optional[tuple[str, Any, int]]:
        """(kind, state, creation block) of the contract at ``address``, or
        None if nothing lives there: what ``contract_kind``, ``read_state``
        and ``creation_block`` return, found with one lookup.  The state is
        a snapshot, as ``read_state`` describes."""
        record = self._contracts.get(address)
        return None if record is None else (record.cls.KIND, record.state, record.created)

    def contract_kind(self, address: Address) -> str:
        return self._record(address).cls.KIND

    def read_state(self, address: Address) -> Any:
        """Current state of a contract; no key material required.

        The state is an immutable snapshot: it reads the same however many
        transactions change the contract afterwards, so never mutate it.  A
        map that grows with the population (the registry's records, a
        factory's minted and added sets) is a ``versioned.VersionedMap``:
        every snapshot of it shares one log, which holds one entry per
        accepted write like the ledger's own log, so keeping a snapshot
        copies nothing.  Writing from a snapshot that is no longer the
        newest, as a transition applied to a saved state does, copies its
        map into a fresh log first."""
        return self._record(address).state

    def history(self, address: Address) -> list[HistoryEntry]:
        """Chronological state changes; the first entry is the deployment.

        After it comes one entry per accepted transaction that committed the
        address, as its target or as a staged cross-contract change — even
        when the committed state equals the previous one.  Nothing stores
        this: it is rebuilt by re-executing the log on a scratch ledger,
        which costs O(log length) per call, so it is meant for audits and
        tests, not for the transaction path.  Signatures are not checked
        again (every logged transaction carries a valid one), and
        rejected transactions are skipped, since a rejection commits nothing.
        """
        self._record(address)  # UnknownAddress for a stranger
        scratch = _HistoryRecorder(address)
        for seq, entry in enumerate(self._log):
            if not entry.accepted:
                continue
            scratch.advance_block(entry.tx.block - scratch.height)
            receipt = scratch._execute(entry.tx, seq, scratch._contracts.get(entry.tx.target))
            if address in receipt.created:
                scratch.entries.append(HistoryEntry(receipt.block, entry.tx,
                                                    scratch.read_state(address)))
        return scratch.entries

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
        buffer, blobs through ``codec.write_blob``, so the only large
        allocation is the export itself.
        """
        out = io.BytesIO()
        write = out.write
        write(EXPORT_MAGIC)
        write(codec.u16(EXPORT_VERSION))
        write(codec.u64(self._height))
        write(codec.u32(len(self._log)))
        for entry in self._log:
            tx = entry.tx
            write(codec.u64(tx.block))
            write(codec.u8(0 if entry.accepted else 1))
            write(codec.u8(1 if tx.is_deploy() else 0))
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
    def replay(cls, data: bytes) -> "Ledger":
        """Re-execute an exported log from genesis and verify the outcome.

        Every transaction must reproduce its recorded accept/reject status
        and every contract its recorded state digest, else ReplayMismatch.
        Bytes that do not decode as an export raise ReplayMismatch too, so a
        ledger this returns re-exports to exactly ``data``.  The whole export
        is decoded before anything executes, and every signature is checked
        again on ``submit``.  Transactions with equal caller keys, targets or
        function names share one object for each, so the replayed log holds
        each distinct value once.
        """
        try:
            final_height, records, footer = _decode_export(data)
        except ValueError as exc:  # codec.DecodeError or a bad address
            raise ReplayMismatch(f"malformed export: {exc}") from exc

        ledger = cls()
        for i, (rejected, tx) in enumerate(records):
            if tx.block < ledger.height:
                raise ReplayMismatch(f"transaction {i} block number out of order")
            ledger.advance_block(tx.block - ledger.height)
            try:
                receipt = ledger.submit(tx)
                accepted = receipt.accepted
            except ConstructorRejected:
                accepted = False
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


class _HistoryRecorder(Ledger):
    """Scratch ledger for ``Ledger.history``: re-executes a log and keeps
    every commit to one address."""

    def __init__(self, address: Address) -> None:
        super().__init__()
        self.address = address
        self.entries: list[HistoryEntry] = []

    def _commit(self, address: Address, state: Any, tx: Transaction, block: int) -> None:
        super()._commit(address, state, tx, block)
        if address == self.address:
            self.entries.append(HistoryEntry(block, tx, state))


def _decode_export(data: bytes) -> tuple[int, list[tuple[bool, Transaction]], list[tuple[bytes, bytes]]]:
    """Split an export into (final height, [(rejected, tx)], [(address, digest)]).

    Accepts only the canonical encoding ``Ledger.export`` writes: flags are
    0 or 1 and a deployment has an empty target.  Layout errors raise
    ValueError (codec.DecodeError, including bad UTF-8, or a bad address).
    Equal caller keys, target addresses and function names decode to one
    shared object each, found through tables that live only for this call.
    """
    reader = codec.ByteReader(data)
    if reader.take(4) != EXPORT_MAGIC:
        raise ReplayMismatch("not a ledger export")
    version = reader.u16()
    if version != EXPORT_VERSION:
        raise ReplayMismatch(f"unsupported export version {version}")
    final_height = reader.u64()
    callers: dict[bytes, bytes] = {}
    targets: dict[bytes, Address] = {}
    functions: dict[str, str] = {}
    records = []
    for i in range(reader.u32()):
        block = reader.u64()
        rejected = reader.u8()
        is_deploy = reader.u8()
        caller = reader.blob()
        target_raw = reader.blob()
        function = reader.text()
        args = reader.blob()
        signature = reader.blob()
        if rejected > 1 or is_deploy > 1 or (is_deploy and target_raw):
            raise codec.DecodeError(f"transaction {i} has non-canonical flags")
        if is_deploy:
            target = None
        elif (target := targets.get(target_raw)) is None:
            target = targets[target_raw] = Address(target_raw)
        tx = Transaction(caller=callers.setdefault(caller, caller), target=target,
                         function=functions.setdefault(function, function),
                         args=args, signature=signature, block=block)
        records.append((bool(rejected), tx))
    footer = [(reader.blob(), reader.blob()) for _ in range(reader.u32())]
    reader.expect_end()
    return final_height, records, footer
