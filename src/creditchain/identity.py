"""Identity registry contract: keys, fingerprints, certificates, head pointers.

One registry instance is deployed per ledger.  Anyone can register any public
key under any fingerprint — the registry never judges truthfulness.  What it
does guarantee:

* one record per key (a key registers once, ever);
* an inverse fingerprint index, so several keys claiming the same person are
  all visible in registration order;
* certificates are attributable — a key lands in a record's certificate list
  only through an accepted ``certify`` call signed by that key;
* the two outgoing list heads (first public record, first credit account) are
  write-once and only the record's owner can set them.

Whether a registration is *believed* is a question for readers: they pick a
set of institutions they trust and intersect it with the certificate list
(`trusted_view`).  Certifying institutions are expected to run
`approve_certification` off-chain first, which is what keeps one person from
accumulating multiple trusted keys.  Every reader lookup of a key goes
through `get_record`, which raises `UnknownIdentity` for a key that never
registered; on-chain, a call naming such a key is rejected `UnknownSubject`.

The registry holds a record for every customer and institution, so its
``records`` map is a ``versioned.VersionedMap``: a registration or a record
change writes one entry into the newest state's dict, in O(1), instead of
copying the map, and the state it was written from keeps only that entry's
old value.  Each state stays an immutable snapshot that reads as it did when
committed.  A transition applied to a state that is no longer the newest
copies the map first.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Optional

from . import codec, crypto
from .ledger import Address, CallContext, CallReceipt, ContractRejected, Ledger, evolve, register_contract
from .versioned import VersionedMap, put


class UnknownIdentity(Exception):
    """A reader looked up an identity key that never registered."""


@dataclass(frozen=True, slots=True)
class IdentityRecord:
    fingerprint: bytes
    first_public_record: Optional[bytes] = None  # plaintext contract address
    first_credit_account: Optional[bytes] = None  # opaque ciphertext
    certificates: tuple[bytes, ...] = ()


@dataclass(frozen=True, slots=True)
class IdentityState:
    """records: key -> record, in registration order; a ``VersionedMap``,
    so registering or changing a record writes one entry, not a copy."""

    records: Mapping[bytes, IdentityRecord]

    @property
    def fingerprint_index(self) -> dict[bytes, tuple[bytes, ...]]:
        """Fingerprint -> keys registered under it, each in registration order."""
        index: dict[bytes, list[bytes]] = {}
        for key, record in self.records.items():
            index.setdefault(record.fingerprint, []).append(key)
        return {fingerprint: tuple(keys) for fingerprint, keys in index.items()}


@register_contract
class IdentityContract:
    KIND = "identity"

    @staticmethod
    def construct(ctx: CallContext, args: bytes) -> IdentityState:
        return IdentityState(records=VersionedMap())

    @staticmethod
    def apply(state: IdentityState, ctx: CallContext, function: str, args: bytes) -> IdentityState:
        if function == "register":
            return _register(state, ctx, args)
        if function == "certify":
            return _certify(state, ctx, args)
        if function == "decertify":
            return _decertify(state, ctx, args)
        if function == "set_first_credit_account":
            return _set_credit_head(state, ctx, args)
        if function == "set_first_public_record":
            return _set_record_head(state, ctx, args)
        raise ContractRejected("UnknownFunction")

    @staticmethod
    def encode_state(state: IdentityState) -> bytes:
        # Field order per record: its ``records`` key, fingerprint, optional
        # record head, optional account head, certificate list.  Records in
        # registration order.  The fingerprint index is derivable and not serialized.
        parts = [codec.u32(len(state.records))]
        for key, record in state.records.items():
            parts.append(codec.pack(
                key,
                record.fingerprint,
                codec.opt(record.first_public_record),
                codec.opt(record.first_credit_account),
                codec.u32(len(record.certificates)) + b"".join(record.certificates),
            ))
        return b"".join(parts)


def _register(state: IdentityState, ctx: CallContext, fingerprint: bytes) -> IdentityState:
    if not fingerprint:
        raise ContractRejected("BadArguments")
    if ctx.caller in state.records:
        raise ContractRejected("KeyAlreadyRegistered")
    return IdentityState(records=put(state.records, ctx.caller, IdentityRecord(fingerprint=fingerprint)))


def _registered(state: IdentityState, key: bytes, reason: str) -> IdentityRecord:
    record = state.records.get(key)
    if record is None:
        raise ContractRejected(reason)
    return record


def _replace_record(state: IdentityState, key: bytes, record: IdentityRecord) -> IdentityState:
    return IdentityState(records=put(state.records, key, record))


def _certify(state: IdentityState, ctx: CallContext, args: bytes) -> IdentityState:
    record = _registered(state, args, "UnknownSubject")
    if ctx.caller in record.certificates:  # idempotent
        return state
    return _replace_record(state, args, evolve(record, certificates=record.certificates + (ctx.caller,)))


def _decertify(state: IdentityState, ctx: CallContext, args: bytes) -> IdentityState:
    record = _registered(state, args, "UnknownSubject")
    if ctx.caller not in record.certificates:
        raise ContractRejected("NotACertifier")
    remaining = tuple(k for k in record.certificates if k != ctx.caller)
    return _replace_record(state, args, evolve(record, certificates=remaining))


def _set_credit_head(state: IdentityState, ctx: CallContext, ciphertext: bytes) -> IdentityState:
    record = _registered(state, ctx.caller, "UnknownCaller")
    if record.first_credit_account is not None:
        raise ContractRejected("PointerAlreadySet")
    # The ciphertext is stored as handed in; nothing on-chain can check what
    # it decrypts to, and nothing tries.
    return _replace_record(state, ctx.caller, evolve(record, first_credit_account=ciphertext))


def _set_record_head(state: IdentityState, ctx: CallContext, args: bytes) -> IdentityState:
    record = _registered(state, ctx.caller, "UnknownCaller")
    if record.first_public_record is not None:
        raise ContractRejected("PointerAlreadySet")
    from . import public_records  # runtime import; the two modules share the append checks

    public_records.enforce_append_checks(ctx, args, required_factory=None)
    return _replace_record(state, ctx.caller, evolve(record, first_public_record=args))


# ---------------------------------------------------------------------------
# Ledger-facing wrappers
# ---------------------------------------------------------------------------


def deploy_registry(led: Ledger, deployer: crypto.KeyPair) -> Address:
    return led.deploy(deployer, IdentityContract.KIND, b"")


def register(led: Ledger, registry: Address, caller: crypto.KeyPair, fingerprint: bytes) -> CallReceipt:
    """Register the caller's key.  Possession is proven by the transaction
    signature itself, so the key being registered is always the caller."""
    return led.call(caller, registry, "register", fingerprint)


def certify(led: Ledger, registry: Address, certifier: crypto.KeyPair,
            subject: crypto.PublicKey) -> CallReceipt:
    return led.call(certifier, registry, "certify", subject.to_bytes())


def decertify(led: Ledger, registry: Address, certifier: crypto.KeyPair,
              subject: crypto.PublicKey) -> CallReceipt:
    return led.call(certifier, registry, "decertify", subject.to_bytes())


def set_first_credit_account(led: Ledger, registry: Address, owner: crypto.KeyPair,
                             ciphertext: bytes) -> CallReceipt:
    return led.call(owner, registry, "set_first_credit_account", ciphertext)


def set_first_public_record(led: Ledger, registry: Address, owner: crypto.KeyPair,
                            record_address: Address) -> CallReceipt:
    return led.call(owner, registry, "set_first_public_record", record_address.digest)


# ---------------------------------------------------------------------------
# Off-chain reader helpers
# ---------------------------------------------------------------------------


def fingerprint_from_text(value: str) -> bytes:
    """Hash a human-readable identifier (e.g. ``\"US:123-45-6789\"``) into the
    opaque fingerprint form stored on-chain."""
    return crypto.digest(value.encode("utf-8"))


def get_record(state: IdentityState, key: crypto.PublicKey) -> IdentityRecord:
    """The registry record of ``key``: the one lookup every reader makes.
    Raises UnknownIdentity for a key that never registered."""
    record = state.records.get(key.to_bytes())
    if record is None:
        raise UnknownIdentity(key.short_id())
    return record


def lookup_by_fingerprint(state: IdentityState, fingerprint: bytes) -> tuple[crypto.PublicKey, ...]:
    """All keys registered under a fingerprint, oldest first."""
    keys = state.fingerprint_index.get(fingerprint, ())
    return tuple(crypto.PublicKey.from_bytes(k) for k in keys)


def trusted_view(state: IdentityState, subject: crypto.PublicKey,
                 trust_set: set[crypto.PublicKey]) -> bool:
    """Does any key the reader trusts vouch for this subject?"""
    return _has_trusted_certificate(get_record(state, subject), trust_set)


def _has_trusted_certificate(record: IdentityRecord, trust_set: set[crypto.PublicKey]) -> bool:
    """Does some certificate on ``record`` come from a key in ``trust_set``?"""
    return not {k.to_bytes() for k in trust_set}.isdisjoint(record.certificates)


def identity_challenge(subject: crypto.KeyPair, challenge: bytes) -> bytes:
    """Prove key possession by signing a verifier-chosen challenge."""
    return crypto.sign(subject.private, challenge)


def approve_certification(state: IdentityState, subject: crypto.PublicKey, fingerprint: bytes,
                          challenge: bytes, response: bytes,
                          trust_set: set[crypto.PublicKey]) -> bool:
    """The vetting a careful institution performs before certifying.

    Approves only when (1) the subject answers the possession challenge,
    (2) the subject is registered under the fingerprint the institution
    verified in the real world, and (3) no *other* key with the same
    fingerprint already holds a certificate from a trusted institution.
    Condition (3) is what stops one person from collecting several trusted
    identities, and equally stops a thief from registering a second key
    against a victim's fingerprint.
    """
    if not crypto.verify(subject, challenge, response):
        return False
    record = state.records.get(subject.to_bytes())
    if record is None or record.fingerprint != fingerprint:
        return False
    return not any(_has_trusted_certificate(state.records[other], trust_set)
                   for other in state.fingerprint_index.get(fingerprint, ())
                   if other != subject.to_bytes())
