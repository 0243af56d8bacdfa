"""Report assembly from customer disclosures.

Nothing in this module runs on-chain.  A reader (a prospective lender) holds
the customer's registered identity key and a disclosure bundle the customer
prepared, and walks the credit-account chain from the identity registry's
head pointer, verifying every step against ledger bytes.  Two disclosure
variants exist per account, and a bundle may mix them:

* ``KeyDisclosure`` hands over the account's shared private keys.  The
  reader decrypts the on-chain pointer and data fields directly.
* ``PlaintextDisclosure`` keeps the keys and hands over plaintexts together
  with the nonces used at encryption time.  The reader *re-encrypts* each
  disclosed value and compares against the ciphertext sitting on-chain;
  byte equality proves the disclosure honest without revealing any key.

Either way the reader ends up with the same facts, which is checked by the
test suite as variant equivalence.  A verified entry also gets its
commitment checked: the signature stored in the account must bind (account
address, disclosed institution identity, customer identity).  Failures are
loud — ChainMismatch for anything that contradicts chain bytes,
CommitmentInvalid for a commitment that does not verify, and
IncompleteDisclosure (carrying the partial report) when the chain keeps
going past the last disclosed account.  A customer can withhold *data* for
out-of-window accounts while still proving chain completeness; the window
check then only passes if every in-window account has its data open.

A reader meets the same chain facts again and again: commitments and links
are write-once, and a data field changes only when it is rewritten.  Three
pure checks are therefore memoized, each in its own LRU of ``MEMO_ENTRIES``
entries keyed on its exact input bytes: the commitment check (account
address, institution key, customer key, signature: the inputs the signed
message is built from, so the message is built only on a miss), the
``KeyDisclosure`` opens (the key's 32-byte master secret, ciphertext) and
the ``PlaintextDisclosure`` re-encryptions (public key, nonce, plaintext).
A rewritten data field, a different key or a tampered bundle changes the
key and takes the full check; a failed check, an exception or a signature
that does not verify, is never stored, and inputs longer than
``MEMO_MAX_INPUT`` bytes are never stored, which keeps the memos under
``MEMO_CEILING_BYTES``.  The memos live in the process and are never
persisted.  Ledger submit and replay and the harness audits call ``crypto``
directly and never consult them.

Bundles and trust sets travel as JSON files, written on one line with
sorted keys: the bytes ``json.dumps(doc, sort_keys=True)`` gives.
``trust_to_json`` calls the standard library.  ``bundle_to_json`` writes
the text itself from the bundle field table below, without building a
dict tree or calling the encoder: each format's key order and writers are
settled into a template once, at import.  ``bundle_from_json`` and
``trust_from_json`` parse with ``json.loads``, so they accept any JSON
layout of the same document, including the indented files earlier versions
wrote, and check its schema whatever the layout.  ``bundle_from_json``
decodes each public key through one intern table, an LRU of
``MEMO_ENTRIES`` entries that lives as long as the process: a key met in an
earlier bundle comes back as the same immutable object, and a string that
does not decode is never stored.  It stays below
``KEY_TABLE_CEILING_BYTES``.  Private keys and addresses are decoded afresh
each time, so no secret key object outlives its bundle.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from . import codec, crypto
from .credit_account import (
    CreditAccountContract,
    CreditAccountState,
    decode_data_payload,
    verify_commitment,
    BlobStore,
)
from .identity import UnknownIdentity
from .ledger import Address, Ledger


class ChainMismatch(Exception):
    """A disclosed value does not match what the chain actually stores."""


class CommitmentInvalid(Exception):
    """The stored commitment does not verify under the disclosed identity."""

    def __init__(self, address: Address) -> None:
        super().__init__(address.hex)
        self.address = address


class IncompleteDisclosure(Exception):
    """The chain continues past the last disclosed account."""

    def __init__(self, report: "VerifiedReport") -> None:
        super().__init__(f"chain continues after {len(report.entries)} disclosed entries")
        self.report = report


class MalformedInput(ValueError):
    """Bundle or trust JSON that does not decode into keys and addresses."""


# ---------------------------------------------------------------------------
# Bundle structures
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KeyDisclosure:
    """Share the account's shared private keys.  ``data_key`` may be withheld
    to keep the data field closed while still proving the chain link."""

    address: Address
    institution_identity: crypto.PublicKey
    pointer_key: crypto.PrivateKey
    data_key: Optional[crypto.PrivateKey] = None


@dataclass(frozen=True, slots=True)
class PlaintextDisclosure:
    """Share plaintexts and nonces instead of keys.

    ``next_address``/``next_nonce`` describe this account's own next-pointer
    field (None at the chain terminal).  ``pointer_public_key`` is the shared
    pointer key of *this* account — the key under which the link pointing at
    this account was encrypted.  The nonce for that incoming link travels in
    the previous entry's ``next_nonce`` (or in the bundle's ``head_nonce``
    for the first account).
    """

    address: Address
    institution_identity: crypto.PublicKey
    pointer_public_key: crypto.PublicKey
    next_address: Optional[Address] = None
    next_nonce: Optional[bytes] = None
    data_plaintext: Optional[bytes] = None
    data_nonce: Optional[bytes] = None
    data_public_key: Optional[crypto.PublicKey] = None


DisclosureEntry = Union[KeyDisclosure, PlaintextDisclosure]


@dataclass(frozen=True, slots=True)
class DisclosureBundle:
    identity: crypto.PublicKey
    entries: tuple[DisclosureEntry, ...]
    head_nonce: Optional[bytes] = None
    window: Optional[tuple[int, int]] = None


@dataclass(frozen=True, slots=True)
class ReportEntry:
    address: Address
    creation_block: int
    expiration: int
    institution: crypto.PublicKey
    institution_trusted: bool
    commitment_ok: bool
    disclosed: bool
    data_mode: Optional[str] = None
    data: Optional[bytes] = None
    external_id: Optional[str] = None
    external_digest: Optional[bytes] = None


@dataclass(frozen=True, slots=True)
class VerifiedReport:
    identity: crypto.PublicKey
    entries: tuple[ReportEntry, ...]
    complete: bool
    window: Optional[tuple[int, int]] = None
    window_satisfied: bool = True


# ---------------------------------------------------------------------------
# Memoized checks
# ---------------------------------------------------------------------------

# Entries per memo, and the longest input, in bytes, a memo stores: a data
# field has no size limit on-chain, so a longer input is checked every time
# and never stored.  An entry then takes at most about 1.3 KiB (tracemalloc,
# CPython 3.11), so the three memos together stay below MEMO_CEILING_BYTES,
# 18,874,368 bytes (18 MiB).  The common entries are smaller: 513 bytes for a
# commitment check, 383 for a link open and 488 for a link re-encryption.
MEMO_ENTRIES = 4096
MEMO_MAX_INPUT = 512
MEMO_CEILING_BYTES = 3 * MEMO_ENTRIES * 1536
# The bundle reader's identity-key intern table also holds MEMO_ENTRIES
# entries: a 128-character hex string, the key and its halves, plus its
# joined form once asked for, about 0.6 KiB (tracemalloc, CPython 3.11), so
# the full table stays below KEY_TABLE_CEILING_BYTES, 4 MiB.
KEY_TABLE_CEILING_BYTES = MEMO_ENTRIES * 1024


class _Memo:
    """Bounded LRU map from the exact input bytes of one pure crypto call to
    its result.

    The key must hold every byte the call reads, so equal keys give equal
    results.  Keys and results are ``bytes`` and ``bool`` only: the memo
    keeps no key object alive.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[bytes, ...], Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def call(self, key: tuple[bytes, ...], check: Callable[..., Any], *args: Any) -> Any:
        """``check(*args)``, answered from the memo if ``key`` is stored.

        Only a passed check is stored: an exception passes through, and a
        result of False is returned but checked again next time.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is not None:
                self._entries.move_to_end(key)
                return result
        result = check(*args)
        if result is not False and sum(map(len, key)) <= MEMO_MAX_INPUT:
            with self._lock:
                self._entries[key] = result
                if len(self._entries) > MEMO_ENTRIES:
                    self._entries.popitem(last=False)
        return result


_commitments = _Memo()  # verify_commitment(state, account, institution, customer)
_openings = _Memo()     # crypto.decrypt(key, ciphertext)
_sealings = _Memo()     # crypto.encrypt(public, nonce, message)


def _verify_commitment(state: CreditAccountState, account: Address,
                       institution: crypto.PublicKey, customer: crypto.PublicKey) -> bool:
    """Whether ``state.commitment`` signs (account, institution, customer).
    The memo key is those inputs themselves, so the signed message is built
    only when the memo does not hold the answer."""
    return _commitments.call(
        (account.digest, institution.to_bytes(), customer.to_bytes(), state.commitment),
        verify_commitment, state, account, institution, customer)


def _decrypt(private: crypto.PrivateKey, ciphertext: bytes) -> bytes:
    return _openings.call((private.master, ciphertext), crypto.decrypt, private, ciphertext)


def _encrypt(public: crypto.PublicKey, nonce: bytes, message: bytes) -> bytes:
    return _sealings.call((public.to_bytes(), nonce, message),
                          crypto.encrypt, public, nonce, message)


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


def assemble_report(led: Ledger, registry: Address, bundle: DisclosureBundle,
                    trust_set: set[crypto.PublicKey],
                    blob_store: Optional[BlobStore] = None) -> VerifiedReport:
    """Walk the customer's chain, verify every disclosed fact, and report.

    The walk starts at the identity registry's encrypted head pointer and
    dereferences one verified link at a time; an undecryptable pointer is
    never followed, so a reader holding an empty bundle learns nothing but
    the head's existence.
    """
    registry_state = led.read_state(registry)
    identity_record = registry_state.records.get(bundle.identity.to_bytes())
    if identity_record is None:
        raise UnknownIdentity(bundle.identity.short_id())

    entries: list[ReportEntry] = []
    pending_ciphertext = identity_record.first_credit_account
    pending_nonce = bundle.head_nonce
    claimed_next: Optional[bytes] = None  # plaintext-variant claim to cross-check

    for index, entry in enumerate(bundle.entries):
        if pending_ciphertext is None:
            raise ChainMismatch(f"entry {index} lies beyond the chain terminal")
        address = entry.address
        if claimed_next is not None and claimed_next != address.digest:
            raise ChainMismatch(f"entry {index} does not match the previously claimed link")

        _verify_link(entry, index, pending_ciphertext, pending_nonce)

        contract = led.read_contract(address)
        if contract is None or contract[0] != CreditAccountContract.KIND:
            raise ChainMismatch(f"entry {index} does not point at a credit account")
        _, state, created = contract

        commitment_ok = False
        if state.commitment is not None:
            if not _verify_commitment(state, address, entry.institution_identity,
                                      bundle.identity):
                raise CommitmentInvalid(address)
            commitment_ok = True

        disclosed, payload = _recover_payload(entry, index, state)
        entries.append(_build_entry(address, created, state, entry, commitment_ok,
                                    disclosed, payload, trust_set, blob_store))

        pending_ciphertext = state.next_account
        if isinstance(entry, PlaintextDisclosure):
            if entry.next_address is not None and pending_ciphertext is None:
                raise ChainMismatch(f"entry {index} claims a link the chain does not have")
            claimed_next = None if entry.next_address is None else entry.next_address.digest
            pending_nonce = entry.next_nonce
        else:
            claimed_next = None
            pending_nonce = None

    if pending_ciphertext is not None:
        partial = VerifiedReport(identity=bundle.identity, entries=tuple(entries),
                                 complete=False, window=bundle.window,
                                 window_satisfied=bundle.window is None)
        raise IncompleteDisclosure(partial)

    window = bundle.window
    return VerifiedReport(identity=bundle.identity, entries=tuple(entries), complete=True,
                          window=window,
                          window_satisfied=window is None or _window_disclosed(entries, *window))


def _verify_link(entry: DisclosureEntry, index: int, ciphertext: bytes,
                 nonce: Optional[bytes]) -> None:
    """Prove that the pending encrypted pointer designates entry.address."""
    if isinstance(entry, KeyDisclosure):
        try:
            revealed = _decrypt(entry.pointer_key, ciphertext)
        except crypto.WrongKey as exc:
            raise ChainMismatch(f"entry {index}: pointer key does not open the link") from exc
        if revealed != entry.address.digest:
            raise ChainMismatch(f"entry {index}: link points elsewhere")
        return
    if nonce is None:
        raise ChainMismatch(f"entry {index}: no nonce available to check the link")
    try:
        expected = _encrypt(entry.pointer_public_key, nonce, entry.address.digest)
    except Exception as exc:  # malformed disclosed key material
        raise ChainMismatch(f"entry {index}: link re-encryption failed") from exc
    if expected != ciphertext:
        raise ChainMismatch(f"entry {index}: link re-encryption does not match the chain")


def _recover_payload(entry: DisclosureEntry, index: int,
                     state: CreditAccountState) -> tuple[bool, Optional[bytes]]:
    """(disclosed, payload bytes) for the account's data field.

    An account whose data field was never written counts as disclosed in
    every variant: the reader sees the absence directly, so there is nothing
    a withholding customer could be hiding.
    """
    if state.data is None:
        if isinstance(entry, PlaintextDisclosure) and entry.data_plaintext is not None:
            raise ChainMismatch(f"entry {index}: data disclosed but the account holds none")
        return True, None
    if isinstance(entry, KeyDisclosure):
        if entry.data_key is None:
            return False, None
        try:
            return True, _decrypt(entry.data_key, state.data)
        except crypto.WrongKey as exc:
            raise ChainMismatch(f"entry {index}: data key does not open the data field") from exc
    if entry.data_plaintext is None:
        return False, None
    if entry.data_nonce is None or entry.data_public_key is None:
        raise ChainMismatch(f"entry {index}: data disclosure missing nonce or key")
    try:
        expected = _encrypt(entry.data_public_key, entry.data_nonce, entry.data_plaintext)
    except Exception as exc:
        raise ChainMismatch(f"entry {index}: data re-encryption failed") from exc
    if expected != state.data:
        raise ChainMismatch(f"entry {index}: data re-encryption does not match the chain")
    return True, entry.data_plaintext


def _build_entry(address: Address, created: int, state: CreditAccountState,
                 entry: DisclosureEntry, commitment_ok: bool, disclosed: bool,
                 payload: Optional[bytes], trust_set: set[crypto.PublicKey],
                 blob_store: Optional[BlobStore]) -> ReportEntry:
    data: Optional[bytes] = None
    data_mode: Optional[str] = None
    external_id: Optional[str] = None
    external_digest: Optional[bytes] = None
    if payload is not None:
        try:
            decoded = decode_data_payload(payload)
        except codec.DecodeError as exc:
            raise ChainMismatch(f"disclosed data for {address.short()} is not a protocol payload") from exc
        if state.data_mode != decoded.mode:
            raise ChainMismatch(f"data mode flag mismatch at {address.short()}")
        data_mode = decoded.mode
        if decoded.inline is not None:
            data = decoded.inline
        else:
            external_id = decoded.blob_id
            external_digest = decoded.content_digest
            if blob_store is not None and decoded.blob_id in blob_store:
                document = blob_store.get(decoded.blob_id)
                if crypto.digest(document) != decoded.content_digest:
                    raise ChainMismatch(f"external document digest mismatch at {address.short()}")
                data = document
    # positional, in field order: binding eleven keywords costs more than
    # the rest of a warm entry's bookkeeping
    return ReportEntry(address, created, state.expiration, entry.institution_identity,
                       entry.institution_identity in trust_set, commitment_ok, disclosed,
                       data_mode, data, external_id, external_digest)


def check_window(report: VerifiedReport, lo: int, hi: int) -> bool:
    """True iff every account created within [lo, hi] has open data.

    Vacuously true for an empty window.  An incomplete report can never
    certify a window — undisclosed chain suffix might hide in-window
    accounts.
    """
    if lo > hi:
        return True
    return report.complete and _window_disclosed(report.entries, lo, hi)


def _window_disclosed(entries: Sequence[ReportEntry], lo: int, hi: int) -> bool:
    """Every entry created within [lo, hi] has open data."""
    return all(e.disclosed for e in entries if lo <= e.creation_block <= hi)


def _printable(text: str) -> str:
    """``text`` with each non-printable character (newlines and other
    control characters, line and paragraph separators) written as its
    Python escape, so data cannot start a line of its own."""
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
                   for c in text)


def render_report(report: VerifiedReport) -> list[str]:
    """One line per entry plus a summary: the CLI output format.

    Inline data and external blob ids are whatever an institution wrote, so
    their non-printable characters are escaped; printable text is shown as
    it is.
    """
    lines = []
    for e in report.entries:
        if not e.disclosed:
            shown = "undisclosed"
        elif e.data is not None:
            shown = e.data.decode("utf-8", errors="backslashreplace")
        elif e.external_digest is not None:
            shown = f"external:{e.external_id} digest={e.external_digest.hex()[:16]}"
        else:
            shown = "(empty)"
        lines.append(
            f"account={e.address.short()} created={e.creation_block} "
            f"expires={e.expiration} institution={e.institution.short_id()} "
            f"trusted={'yes' if e.institution_trusted else 'no'} "
            f"commitment={'ok' if e.commitment_ok else 'MISSING'} data={_printable(shown)}"
        )
    window = "-" if report.window is None else f"[{report.window[0]},{report.window[1]}]"
    lines.append(
        f"complete={'yes' if report.complete else 'no'} entries={len(report.entries)} "
        f"window={window} window_satisfied={'yes' if report.window_satisfied else 'no'}"
    )
    return lines


# ---------------------------------------------------------------------------
# File round-trip (CLI bundle and trust files)
# ---------------------------------------------------------------------------


def _read_window(value: Any) -> tuple[int, int]:
    # type() and not isinstance(): a JSON true is a bool, which is an int
    if isinstance(value, list) and len(value) == 2 and all(type(b) is int for b in value):
        return tuple(value)
    raise ValueError("window must be null or two integers")


@functools.lru_cache(maxsize=MEMO_ENTRIES)
def _public_from_hex(text: str) -> crypto.PublicKey:
    """The key a hex string decodes to, interned: a key decoded before comes
    back as the same immutable object.  A lender meets the same institution
    and account keys in bundle after bundle; in the first round of a fresh
    lending run (seed 1) 27029 of 28942 decodes are hits.  A string that
    does not decode raises and is never stored."""
    return crypto.PublicKey.from_bytes(bytes.fromhex(text))


# The bundle file format, one row per field: (JSON key and attribute name,
# (write, read) for its kind of value, required).  ``write`` gives the
# value's JSON text and ``read`` takes the value json.loads gives back.  A
# required key must be present and not null; any other may be absent or
# null, read as None, and None is written as null.  An entry's rows follow
# its class's field order, since a read entry is built from the values
# positionally.  Hex needs no JSON escape, so a quoted hex string is the
# text json writes for it.
_BYTES = (lambda b: f'"{b.hex()}"', bytes.fromhex)
_ADDRESS = (lambda a: f'"{a.digest.hex()}"', lambda h: Address(bytes.fromhex(h)))
_PUBLIC = (lambda k: f'"{k.to_bytes().hex()}"', _public_from_hex)
_PRIVATE = (lambda k: f'"{k.master.hex()}"', lambda h: crypto.PrivateKey(bytes.fromhex(h)))
_BUNDLE_FIELDS = (
    ("identity", _PUBLIC, True),
    ("head_nonce", _BYTES, False),
    ("window", (lambda w: json.dumps(list(w)), _read_window), False),
)
_ENTRY_FORMATS = {
    "keys": (KeyDisclosure, (
        ("address", _ADDRESS, True),
        ("institution_identity", _PUBLIC, True),
        ("pointer_key", _PRIVATE, True),
        ("data_key", _PRIVATE, False),
    )),
    "plaintext": (PlaintextDisclosure, (
        ("address", _ADDRESS, True),
        ("institution_identity", _PUBLIC, True),
        ("pointer_public_key", _PUBLIC, True),
        ("next_address", _ADDRESS, False),
        ("next_nonce", _BYTES, False),
        ("data_plaintext", _BYTES, False),
        ("data_nonce", _BYTES, False),
        ("data_public_key", _PUBLIC, False),
    )),
}


def _object_writer(fields: tuple, fixed: dict[str, str]) -> Callable[[Any], str]:
    """A function giving an object's JSON text from its rows, plus the
    ``fixed`` keys, whose JSON text is the same for every object: the text
    ``json.dumps(tree, sort_keys=True)`` gives, one line with ", " and ": "
    separators.  Key order and writers are settled here, once, into a
    %-template with one slot per row."""
    rows = sorted((key, write) for key, (write, _), _ in fields)
    items = [(key, "%s") for key, _ in rows]
    items += [(key, text.replace("%", "%%")) for key, text in fixed.items()]
    template = "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in sorted(items)) + "}"

    # Plain loops, not a comprehension or zip: each of those adds a live
    # container that the garbage collector counts, and the more a report
    # holds at once, the more often a collection falls inside it.
    def write_object(obj: Any) -> str:
        texts = []
        for key, write in rows:
            value = getattr(obj, key)
            texts.append("null" if value is None else write(value))
        return template % tuple(texts)

    return write_object


_WRITE_ENTRY = {cls: _object_writer(fields, {"variant": json.dumps(variant)})
                for variant, (cls, fields) in _ENTRY_FORMATS.items()}


def _write_entries(entries: Sequence[DisclosureEntry]) -> str:
    texts = []
    for entry in entries:
        texts.append(_WRITE_ENTRY[type(entry)](entry))
    return "[" + ", ".join(texts) + "]"


_write_bundle = _object_writer((*_BUNDLE_FIELDS, ("entries", (_write_entries, None), True)), {})


def bundle_to_json(bundle: DisclosureBundle) -> str:
    """The bundle file's text: one line, keys sorted."""
    return _write_bundle(bundle)


def _read_fields(fields: tuple, doc: dict[str, Any]) -> list[Any]:
    """The value of each row's key, in row order."""
    values = []
    for key, (_, read), required in fields:
        value = doc[key] if required else doc.get(key)
        values.append(read(value) if required or value is not None else None)
    return values


# What decoding an untrusted document can raise: bad JSON, hex or variant
# (ValueError), a missing key (KeyError), a value of the wrong JSON type
# (TypeError, AttributeError, IndexError), a key of the wrong length
# (CryptoError) and nesting too deep for the JSON parser (RecursionError).
_DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, IndexError,
                  crypto.CryptoError, RecursionError)


def bundle_from_json(text: str) -> DisclosureBundle:
    """Decode a bundle file; raises MalformedInput if it does not decode."""
    try:
        return _bundle_from_doc(json.loads(text))
    except _DECODE_ERRORS as exc:
        raise MalformedInput(f"bundle does not decode: {type(exc).__name__} {exc}") from exc


def _bundle_from_doc(doc: Any) -> DisclosureBundle:
    if not isinstance(doc, dict):
        raise ValueError("a bundle must be a JSON object")
    if not isinstance(doc["entries"], list):
        raise ValueError("entries must be a list of objects")
    entries: list[DisclosureEntry] = []
    for raw in doc["entries"]:
        if not isinstance(raw, dict):
            raise ValueError("entries must be a list of objects")
        form = _ENTRY_FORMATS.get(raw["variant"])
        if form is None:
            raise ValueError(f"unknown disclosure variant {raw['variant']!r}")
        cls, fields = form
        entries.append(cls(*_read_fields(fields, raw)))
    identity, head_nonce, window = _read_fields(_BUNDLE_FIELDS, doc)
    return DisclosureBundle(identity, tuple(entries), head_nonce, window)


def trust_to_json(trust_set: set[crypto.PublicKey]) -> str:
    return json.dumps(sorted(k.to_bytes().hex() for k in trust_set))


def trust_from_json(text: str) -> set[crypto.PublicKey]:
    """Decode a trust file; raises MalformedInput if it does not decode."""
    try:
        doc = json.loads(text)
        if not isinstance(doc, list) or not all(isinstance(h, str) for h in doc):
            raise ValueError("a trust file must be a JSON list of hex strings")
        return {crypto.PublicKey.from_bytes(bytes.fromhex(h)) for h in doc}
    except _DECODE_ERRORS as exc:
        raise MalformedInput(f"trust list does not decode: {type(exc).__name__} {exc}") from exc
