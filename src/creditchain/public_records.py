"""Public-record contracts, the factory that vouches for them, and traversal.

Public records (bankruptcies, liens, court judgments) hang off an identity
as a singly linked list readable by anyone.  The integrity problem is that
the list lives in many small contracts and anyone can call anything, so
every link insertion — whether at an identity's head pointer or at a list
tail — must pass the same four checks against the record being linked:

1. it was minted by the factory the list belongs to;
2. the caller authored it;
3. it is not already in some list — checked and marked in one atomic step
   against the factory's ``added`` set, so the same record can never be
   reached from two heads;
4. its own next pointer is still empty, so nobody can smuggle a pre-built
   tail of records past the checks.

Rejections carry the check number: ``InvalidRecord(1)`` … ``InvalidRecord(4)``.
Check 1 reads the record and its factory with ``CallContext.resolve``, which
answers None alike for a pointer that is not 32 bytes, an empty address and
a contract of another kind, so each of those fails check 1.

The factory mints records on request for any caller and keeps two
append-only sets: everything it minted, and the subset that has been linked
into a list.  Minting is open on purpose — spam is not prevented, it is
ignored, because readers classify every traversed record by whether they
trust its author.

Both factory sets grow with every record ever minted, so each is a
``versioned.VersionedMap`` (to None): a mint or a link writes one entry into
the newest state's set, in O(1), instead of copying the set.  Each state
stays an immutable snapshot.  The append checks all run before the
``added`` set is written, so a refused link writes nothing; a write from a
state that is no longer the newest copies the set first.

Off-chain, ``walk_public_records`` follows a list with one ledger read per
record and yields each record's address, state and creation block;
``traverse_public_records`` finds the list head with ``identity.get_record``
and classifies what the walk yields.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from typing import Optional

from . import codec, crypto
from .identity import get_record
from .ledger import (
    Address,
    CallContext,
    CallReceipt,
    ContractRejected,
    Ledger,
    evolve,
    register_contract,
)
from .versioned import VersionedMap, put

RECORD_PLAINTEXT = "plaintext"
RECORD_ENCRYPTED = "encrypted"
RECORD_MODES = (RECORD_PLAINTEXT, RECORD_ENCRYPTED)

CLASS_SPAM = "spam"
CLASS_TRUSTED_PLAINTEXT = "trusted-plaintext"
CLASS_TRUSTED_ENCRYPTED_VERIFIED = "trusted-encrypted-verified"
CLASS_TRUSTED_ENCRYPTED_UNDISCLOSED = "trusted-encrypted-undisclosed"


class BrokenChain(Exception):
    """A next pointer led somewhere impossible.  The append checks make this
    unreachable; traversal asserts it anyway."""


# ---------------------------------------------------------------------------
# Contract states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FactoryState:
    """Two insertion-ordered sets of record addresses, each a ``VersionedMap``
    to None, so a mint or a link writes one entry, not a copy; added ⊆ minted."""

    minted: Mapping[bytes, None]
    added: Mapping[bytes, None]


@dataclass(frozen=True, slots=True)
class PublicRecordState:
    author_key: bytes
    parent_factory: bytes
    data_mode: Optional[str] = None
    data: Optional[bytes] = None
    signature: Optional[bytes] = None
    next_record: Optional[bytes] = None


@register_contract
class RecordFactoryContract:
    KIND = "record_factory"

    @staticmethod
    def construct(ctx: CallContext, args: bytes) -> FactoryState:
        return FactoryState(minted=VersionedMap(), added=VersionedMap())

    @staticmethod
    def apply(state: FactoryState, ctx: CallContext, function: str, args: bytes) -> FactoryState:
        if function == "mint":
            record = ctx.deploy(PublicRecordContract.KIND,
                                codec.pack(ctx.caller, ctx.self_address.digest))
            return evolve(state, minted=put(state.minted, record.digest, None))
        raise ContractRejected("UnknownFunction")

    @staticmethod
    def encode_state(state: FactoryState) -> bytes:
        return codec.pack(
            codec.u32(len(state.minted)) + b"".join(state.minted),
            codec.u32(len(state.added)) + b"".join(state.added),
        )


@register_contract
class PublicRecordContract:
    KIND = "public_record"

    @staticmethod
    def construct(ctx: CallContext, args: bytes) -> PublicRecordState:
        # Nothing stops a direct deployment that never went through a
        # factory; such a record simply fails check 1 at every append.
        try:
            author, factory = codec.unpack(args, 2)
        except codec.DecodeError as exc:
            raise ContractRejected("BadArguments") from exc
        if len(author) != crypto.PUBLIC_KEY_SIZE or len(factory) != crypto.DIGEST_SIZE:
            raise ContractRejected("BadArguments")
        return PublicRecordState(author_key=author, parent_factory=factory)

    @staticmethod
    def apply(state: PublicRecordState, ctx: CallContext, function: str, args: bytes) -> PublicRecordState:
        if function == "fill":
            return _fill(state, ctx, args)
        if function == "append":
            if state.next_record is not None:
                raise ContractRejected("PointerAlreadySet")
            enforce_append_checks(ctx, args, required_factory=state.parent_factory)
            return evolve(state, next_record=args)
        raise ContractRejected("UnknownFunction")

    @staticmethod
    def encode_state(state: PublicRecordState) -> bytes:
        return codec.pack(
            state.author_key,
            state.parent_factory,
            codec.opt(None if state.data_mode is None else codec.text(state.data_mode)),
            codec.opt(state.data),
            codec.opt(state.signature),
            codec.opt(state.next_record),
        )


def _fill(state: PublicRecordState, ctx: CallContext, args: bytes) -> PublicRecordState:
    if ctx.caller != state.author_key:
        raise ContractRejected("NotAuthor")
    # Authors may rewrite their record while it is still loose; once it sits
    # in somebody's list its content is frozen.
    factory = ctx.resolve(state.parent_factory, RecordFactoryContract)
    if factory is not None and ctx.self_address.digest in factory.added:
        raise ContractRejected("RecordFrozen")
    try:
        mode_raw, data, signature = codec.unpack(args, 3)
    except codec.DecodeError as exc:
        raise ContractRejected("BadArguments") from exc
    mode = mode_raw.decode("utf-8", errors="replace")
    if mode not in RECORD_MODES:
        raise ContractRejected("BadArguments")
    return evolve(state, data_mode=mode, data=data, signature=signature if signature else None)


def enforce_append_checks(ctx: CallContext, new_record: bytes,
                          required_factory: Optional[bytes]) -> None:
    """The four link-insertion checks, shared by tail appends and head sets.

    ``required_factory`` pins the factory the surrounding list belongs to;
    None means "the record's own claimed parent", which is the head-set case
    where there is no surrounding list yet.  Raises ContractRejected with
    the number of the first failing check.  On success the factory's
    ``added`` set has been staged to include the record — the caller's
    transaction either commits that mark together with the link or discards
    both.
    """
    # 1 — must resolve to a record vouched for by the right factory
    record_state = ctx.resolve(new_record, PublicRecordContract)
    if record_state is None:
        raise ContractRejected("InvalidRecord(1)")
    factory_digest = required_factory if required_factory is not None else record_state.parent_factory
    factory_state = ctx.resolve(factory_digest, RecordFactoryContract)
    if factory_state is None or new_record not in factory_state.minted:
        raise ContractRejected("InvalidRecord(1)")
    # 2 — only the author may place their record
    if ctx.caller != record_state.author_key:
        raise ContractRejected("InvalidRecord(2)")
    # 3 — never twice in any list
    if new_record in factory_state.added:
        raise ContractRejected("InvalidRecord(3)")
    # 4 — no pre-built tail may ride in behind it
    if record_state.next_record is not None:
        raise ContractRejected("InvalidRecord(4)")
    # all four hold: mark the record in the same transaction as its link
    ctx.stage(Address(factory_digest),
              evolve(factory_state, added=put(factory_state.added, new_record, None)))


# ---------------------------------------------------------------------------
# Ledger-facing wrappers
# ---------------------------------------------------------------------------


def deploy_factory(led: Ledger, deployer: crypto.KeyPair) -> Address:
    return led.deploy(deployer, RecordFactoryContract.KIND, b"")


def mint_record(led: Ledger, factory: Address, author: crypto.KeyPair) -> Address:
    return led.call(author, factory, "mint", b"").created[0]


def fill_record(led: Ledger, author: crypto.KeyPair, record: Address, data: bytes,
                mode: str = RECORD_PLAINTEXT, owner_key: Optional[crypto.PublicKey] = None,
                nonce: Optional[bytes] = None) -> CallReceipt:
    """Write a record's content.

    Plaintext mode stores the data as given.  Encrypted mode encrypts it to
    the subject's identity key so only the subject (or whoever they brief)
    can read it; the author's signature over the *unencrypted* data rides
    along so a disclosed plaintext can be checked later.
    """
    if mode == RECORD_ENCRYPTED:
        if owner_key is None or nonce is None:
            raise ValueError("encrypted records need the owner key and a nonce")
        stored = crypto.encrypt(owner_key, nonce, data)
    elif mode == RECORD_PLAINTEXT:
        stored = data
    else:
        raise ValueError(f"unknown record mode {mode!r}")
    signature = crypto.sign(author.private, data)
    return led.call(author, record, "fill",
                    codec.pack(codec.text(mode), stored, signature))


def append_record(led: Ledger, caller: crypto.KeyPair, tail: Address,
                  new_record: Address) -> CallReceipt:
    return led.call(caller, tail, "append", new_record.digest)


def walk_public_records(led: Ledger, first: Optional[bytes]
                        ) -> Iterator[tuple[Address, PublicRecordState, int]]:
    """Yield (address, state, creation block) along a list from the record
    whose address digest is ``first`` (None: an empty list), following next
    pointers off-chain, with one ledger read per record.  Raises BrokenChain
    on a cycle or a dangling pointer, which includes one that is not an
    address."""
    seen: set[bytes] = set()
    cursor = first
    while cursor is not None:
        if cursor in seen:
            raise BrokenChain(f"cycle through {cursor.hex()}")
        seen.add(cursor)
        address = Address(cursor) if len(cursor) == crypto.DIGEST_SIZE else None
        contract = None if address is None else led.read_contract(address, PublicRecordContract)
        if contract is None:
            raise BrokenChain(f"dangling pointer to {cursor.hex()}")
        state, created = contract
        yield address, state, created
        cursor = state.next_record


def find_list_tail(led: Ledger, head: Address) -> Address:
    """The current end of the list that starts at ``head``."""
    tail = head
    for tail, _, _ in walk_public_records(led, head.digest):
        pass
    return tail


# ---------------------------------------------------------------------------
# Traversal and classification (reader side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RecordDisclosure:
    """Owner-provided plaintext for one encrypted record.  With the nonce the
    reader additionally recomputes the stored ciphertext; without it only the
    author's signature binds the plaintext."""

    plaintext: bytes
    nonce: Optional[bytes] = None


@dataclass(frozen=True)
class TraversedRecord:
    address: Address
    creation_block: int
    author: crypto.PublicKey
    classification: str
    plaintext: Optional[bytes]
    signature_ok: Optional[bool]


def traverse_public_records(
    led: Ledger,
    registry: Address,
    subject: crypto.PublicKey,
    trust_set: set[crypto.PublicKey],
    disclosures: Optional[dict[Address, RecordDisclosure]] = None,
    expected_factory: Optional[Address] = None,
) -> list[TraversedRecord]:
    """Walk a subject's public-record list and classify every entry.

    Untrusted authors (and, when ``expected_factory`` is pinned, records from
    foreign factories) come back as spam rather than aborting the walk —
    ignoring junk is the reader's spam defence.  Encrypted records become
    ``verified`` only when a disclosure passes the author-signature check
    (and the re-encryption check when a nonce is supplied); a disclosure
    that fails comes back ``undisclosed`` with ``signature_ok=False``.
    """
    disclosures = disclosures or {}
    first = get_record(led.read_state(registry), subject).first_public_record
    return [_classify(address, state, created, subject, trust_set, disclosures, expected_factory)
            for address, state, created in walk_public_records(led, first)]


def _classify(address: Address, state: PublicRecordState, creation: int,
              subject: crypto.PublicKey, trust_set: set[crypto.PublicKey],
              disclosures: dict[Address, RecordDisclosure],
              expected_factory: Optional[Address]) -> TraversedRecord:
    author = crypto.PublicKey.from_bytes(state.author_key)
    trusted = author in trust_set
    if expected_factory is not None and state.parent_factory != expected_factory.digest:
        trusted = False

    if not trusted:
        visible = state.data if state.data_mode in (None, RECORD_PLAINTEXT) else None
        return TraversedRecord(address, creation, author, CLASS_SPAM, visible, None)

    if state.data_mode in (None, RECORD_PLAINTEXT):
        signature_ok = None
        if state.signature is not None and state.data is not None:
            signature_ok = crypto.verify(author, state.data, state.signature)
        return TraversedRecord(address, creation, author, CLASS_TRUSTED_PLAINTEXT,
                               state.data, signature_ok)

    disclosure = disclosures.get(address)
    if disclosure is None:
        return TraversedRecord(address, creation, author,
                               CLASS_TRUSTED_ENCRYPTED_UNDISCLOSED, None, None)
    ok = state.signature is not None and crypto.verify(author, disclosure.plaintext,
                                                       state.signature)
    if ok and disclosure.nonce is not None:
        ok = crypto.encrypt(subject, disclosure.nonce, disclosure.plaintext) == state.data
    if not ok:
        return TraversedRecord(address, creation, author,
                               CLASS_TRUSTED_ENCRYPTED_UNDISCLOSED, None, False)
    return TraversedRecord(address, creation, author,
                           CLASS_TRUSTED_ENCRYPTED_VERIFIED, disclosure.plaintext, True)


def append_for_fingerprint(led: Ledger, registry: Address, factory: Address,
                           authority: crypto.KeyPair, fingerprint: bytes, data: bytes,
                           mode: str = RECORD_PLAINTEXT, nonce: Optional[bytes] = None,
                           ) -> list[tuple[crypto.PublicKey, Optional[Address]]]:
    """Authority-side convenience: file the same record against every
    identity registered under a fingerprint.

    For each matching identity with an initialized list, mints a fresh
    record, fills it (encrypting to that identity's key in encrypted mode),
    and appends at the current tail.  Identities whose list head is unset are
    skipped — only the owner can initialize a head — and reported with None.
    """
    registry_state = led.read_state(registry)
    results: list[tuple[crypto.PublicKey, Optional[Address]]] = []
    for key_raw in registry_state.fingerprint_index.get(fingerprint, ()):
        subject = crypto.PublicKey.from_bytes(key_raw)
        head = registry_state.records[key_raw].first_public_record
        if head is None:
            results.append((subject, None))
            continue
        tail = find_list_tail(led, Address(head))
        record = mint_record(led, factory, authority)
        fill_record(led, authority, record, data, mode,
                    owner_key=subject if mode == RECORD_ENCRYPTED else None,
                    nonce=nonce)
        append_record(led, authority, tail, record)
        results.append((subject, record))
    return results
