"""Pairwise credit-account contracts and the key ceremony behind them.

Every account between a customer and an institution is its own contract,
deployed under fresh account-specific keys so nothing on-chain ties it to
either party's registered identity.  Before deployment the two parties run
``key_ceremony``: each keeps the private half of their own account key,
learns only the public half of the other's, and both end up holding two
fully shared pairs — one encrypting the data field, one encrypting the
next-account pointer.  What each side can and cannot see afterwards is
captured by the two view dataclasses.

The link to real identities is the commitment: the institution signs
(contract address, institution identity key, customer identity key) with its
registered identity and parks the signature in the contract, write-once.
The contract itself cannot check the signature — it never learns the true
keys — but anyone the customer later briefs can.

Field rules enforced on-chain: the two account keys are fixed at creation;
the commitment is write-once by the institution's account key;
data is rewritable by the institution until the expiration block passes;
the next-account pointer is write-once by the customer; expiration moves
only when one party proposes a value and the other accepts that same value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from . import codec, crypto, identity
from .ledger import (
    Address,
    CallContext,
    CallReceipt,
    ContractRejected,
    Ledger,
    evolve,
    register_contract,
)

DATA_MODE_INLINE = "inline"
DATA_MODE_EXTERNAL = "external-hash"
DATA_MODES = (DATA_MODE_INLINE, DATA_MODE_EXTERNAL)
# Each mode's name as a data payload's first field holds it.
_INLINE_TAG = codec.text(DATA_MODE_INLINE)
_EXTERNAL_TAG = codec.text(DATA_MODE_EXTERNAL)


class NoCommitment(Exception):
    """verify_commitment was called on an account nobody has committed to."""


@dataclass(frozen=True, slots=True)
class CreditAccountState:
    customer_key: bytes
    institution_key: bytes
    expiration: int
    commitment: Optional[bytes] = None
    data_mode: Optional[str] = None
    data: Optional[bytes] = None
    next_account: Optional[bytes] = None
    pending_expiration: Optional[tuple[int, bytes]] = None  # (value, proposer)


@register_contract
class CreditAccountContract:
    KIND = "credit_account"

    @staticmethod
    def construct(ctx: CallContext, args: bytes) -> CreditAccountState:
        try:
            customer, institution, exp_raw = codec.unpack(args, 3)
            expiration = _decode_u64(exp_raw)
        except codec.DecodeError as exc:
            raise ContractRejected("BadArguments") from exc
        if len(customer) != crypto.PUBLIC_KEY_SIZE or len(institution) != crypto.PUBLIC_KEY_SIZE:
            raise ContractRejected("BadArguments")
        if expiration < ctx.height:
            raise ContractRejected("ExpirationInPast")
        return CreditAccountState(customer_key=customer, institution_key=institution,
                                  expiration=expiration)

    @staticmethod
    def apply(state: CreditAccountState, ctx: CallContext, function: str, args: bytes) -> CreditAccountState:
        if function == "commit":
            if ctx.caller != state.institution_key:
                raise ContractRejected("NotInstitution")
            if state.commitment is not None:
                raise ContractRejected("AlreadyCommitted")
            # Stored opaquely: validity is judged off-chain by whoever is
            # shown the identity keys it is supposed to bind.
            return evolve(state, commitment=args)

        if function == "set_next":
            if ctx.caller != state.customer_key:
                raise ContractRejected("NotChainOwner")
            if state.next_account is not None:
                raise ContractRejected("PointerAlreadySet")
            return evolve(state, next_account=args)

        if function == "update_data":
            if ctx.caller != state.institution_key:
                raise ContractRejected("NotInstitution")
            if ctx.height > state.expiration:
                raise ContractRejected("Expired")
            try:
                mode_raw, ciphertext = codec.unpack(args, 2)
            except codec.DecodeError as exc:
                raise ContractRejected("BadArguments") from exc
            mode = mode_raw.decode("utf-8", errors="replace")
            if mode not in DATA_MODES:
                raise ContractRejected("BadArguments")
            return evolve(state, data_mode=mode, data=ciphertext)

        if function == "propose_expiration":
            if ctx.caller not in (state.customer_key, state.institution_key):
                raise ContractRejected("NotParty")
            value = _u64_arg(args)
            # A counter-proposal simply replaces whatever was pending.
            return evolve(state, pending_expiration=(value, ctx.caller))

        if function == "accept_expiration":
            if ctx.caller not in (state.customer_key, state.institution_key):
                raise ContractRejected("NotParty")
            if state.pending_expiration is None:
                raise ContractRejected("NoPendingProposal")
            value, proposer = state.pending_expiration
            if ctx.caller == proposer:
                raise ContractRejected("SelfAccept")
            if _u64_arg(args) != value:
                # the proposal being accepted no longer exists
                raise ContractRejected("NoPendingProposal")
            return evolve(state, expiration=value, pending_expiration=None)

        raise ContractRejected("UnknownFunction")

    @staticmethod
    def encode_state(state: CreditAccountState) -> bytes:
        # Field order: customer key, institution key, expiration, commitment,
        # data mode, data, next pointer, pending proposal.
        pending = b""
        if state.pending_expiration is not None:
            value, proposer = state.pending_expiration
            pending = codec.u64(value) + proposer
        return codec.pack(
            state.customer_key,
            state.institution_key,
            codec.u64(state.expiration),
            codec.opt(state.commitment),
            codec.opt(None if state.data_mode is None else codec.text(state.data_mode)),
            codec.opt(state.data),
            codec.opt(state.next_account),
            codec.opt(pending if state.pending_expiration is not None else None),
        )


def _decode_u64(raw: bytes) -> int:
    """The u64 that is the whole of ``raw``; any other length raises DecodeError."""
    reader = codec.ByteReader(raw)
    value = reader.u64()
    reader.expect_end()
    return value


def _u64_arg(args: bytes) -> int:
    try:
        return _decode_u64(args)
    except codec.DecodeError as exc:
        raise ContractRejected("BadArguments") from exc


# ---------------------------------------------------------------------------
# Key ceremony
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CustomerAccountView:
    """What the customer walks away with: her own full pair, the public half
    of the institution's, and both shared pairs in full."""

    customer: crypto.KeyPair
    institution_public: crypto.PublicKey
    shared_data: crypto.KeyPair
    shared_pointer: crypto.KeyPair


@dataclass(frozen=True)
class InstitutionAccountView:
    institution: crypto.KeyPair
    customer_public: crypto.PublicKey
    shared_data: crypto.KeyPair
    shared_pointer: crypto.KeyPair


def key_ceremony(customer_seed: bytes, institution_seed: bytes,
                 ) -> tuple[CustomerAccountView, InstitutionAccountView]:
    """Derive the four key pairs for one account and split the knowledge.

    Deterministic in the seed pair.  The shared pairs are derived from both
    seeds together, mirroring a joint generation-and-exchange step.
    """
    if not customer_seed or not institution_seed:
        raise crypto.EmptySeed("both ceremony seeds must be non-empty")
    customer = crypto.generate_keypair(customer_seed, crypto.ROLE_ACCOUNT_CUSTOMER)
    institution = crypto.generate_keypair(institution_seed, crypto.ROLE_ACCOUNT_INSTITUTION)
    joint = codec.pack(b"ceremony", customer_seed, institution_seed)
    shared_data = crypto.generate_keypair(joint, crypto.ROLE_SHARED_DATA)
    shared_pointer = crypto.generate_keypair(joint, crypto.ROLE_SHARED_POINTER)
    return (
        CustomerAccountView(customer=customer, institution_public=institution.public,
                            shared_data=shared_data, shared_pointer=shared_pointer),
        InstitutionAccountView(institution=institution, customer_public=customer.public,
                               shared_data=shared_data, shared_pointer=shared_pointer),
    )


# ---------------------------------------------------------------------------
# Protocol steps (ledger-facing)
# ---------------------------------------------------------------------------


def create_account(led: Ledger, caller: crypto.KeyPair, customer_public: crypto.PublicKey,
                   institution_public: crypto.PublicKey, expiration: int) -> Address:
    """Deploy a fresh account contract.  Called with an account-specific key
    so the deployment itself reveals no registered identity."""
    args = codec.pack(customer_public.to_bytes(), institution_public.to_bytes(),
                      codec.u64(expiration))
    return led.deploy(caller, CreditAccountContract.KIND, args)


def commitment_message(account: Address, institution_identity: crypto.PublicKey,
                       customer_identity: crypto.PublicKey) -> bytes:
    """Canonical bytes the commitment signature covers: contract address,
    institution identity key, customer identity key — in that order."""
    return codec.pack(b"commitment", account.digest, institution_identity.to_bytes(),
                      customer_identity.to_bytes())


def commit_account(led: Ledger, caller: crypto.KeyPair, institution_identity: crypto.KeyPair,
                   account: Address, customer_identity: crypto.PublicKey) -> CallReceipt:
    """Sign the commitment binding and store it in the account contract.

    ``caller`` must be the institution's account key (keeping the
    transaction unlinkable; the contract refuses any other caller with
    ``NotInstitution``); the signature inside is by the institution's
    registered identity, which is the whole point.
    """
    signature = sign_commitment(institution_identity, account, customer_identity)
    return led.call(caller, account, "commit", signature)


def sign_commitment(institution_identity: crypto.KeyPair, account: Address,
                    customer_identity: crypto.PublicKey) -> bytes:
    """The commitment signature an institution makes for ``account``.

    Ed25519 signing is deterministic (RFC 8032 section 5.1.6), so this is
    also the only signature ``commit_account`` could have stored: whoever
    holds the institution's private key checks a commitment by signing again
    and comparing bytes, as ``harness.audit_attribution`` does."""
    message = commitment_message(account, institution_identity.public, customer_identity)
    return crypto.sign(institution_identity.private, message)


def verify_commitment(state: CreditAccountState, account: Address,
                      institution_identity: crypto.PublicKey,
                      customer_identity: crypto.PublicKey) -> bool:
    if state.commitment is None:
        raise NoCommitment(account.hex)
    message = commitment_message(account, institution_identity, customer_identity)
    return crypto.verify(institution_identity, message, state.commitment)


def append_to_chain(led: Ledger, owner: crypto.KeyPair, predecessor: Optional[Address],
                    new_account: Address, pointer_key: crypto.PublicKey, nonce: bytes,
                    registry: Optional[Address] = None) -> CallReceipt:
    """Link a new account into the owner's chain.

    ``predecessor=None`` writes the identity-registry head pointer (``owner``
    must then be the registered identity key and ``registry`` given);
    otherwise ``owner`` must hold the predecessor's customer account key.
    ``pointer_key`` is the *new* account's shared pointer key — the party who
    should be able to follow the link is whoever holds that pair.
    """
    ciphertext = crypto.encrypt(pointer_key, nonce, new_account.digest)
    if predecessor is None:
        if registry is None:
            raise ValueError("linking at the head requires the registry address")
        return identity.set_first_credit_account(led, registry, owner, ciphertext)
    return led.call(owner, predecessor, "set_next", ciphertext)


def update_account_data(led: Ledger, caller: crypto.KeyPair, account: Address,
                        plaintext: bytes, mode: str, data_key: crypto.PublicKey,
                        nonce: bytes, blob_store: Optional["BlobStore"] = None) -> CallReceipt:
    """Encode the account's data payload and store it (institution side).
    Inline mode carries the document itself; external-hash mode parks it in
    ``blob_store`` and carries only its digest plus locator."""
    payload = encode_data_payload(mode, plaintext, blob_store)
    return store_account_payload(led, caller, account, payload, mode, data_key, nonce)


def store_account_payload(led: Ledger, caller: crypto.KeyPair, account: Address,
                          payload: bytes, mode: str, data_key: crypto.PublicKey,
                          nonce: bytes) -> CallReceipt:
    """Write an encoded payload to the account's data field, encrypted under
    the shared data key and tagged with ``mode``."""
    return led.call(caller, account, "update_data",
                    codec.pack(codec.text(mode), crypto.encrypt(data_key, nonce, payload)))


def propose_expiration(led: Ledger, caller: crypto.KeyPair, account: Address,
                       value: int) -> CallReceipt:
    return led.call(caller, account, "propose_expiration", codec.u64(value))


def accept_expiration(led: Ledger, caller: crypto.KeyPair, account: Address,
                      value: int) -> CallReceipt:
    return led.call(caller, account, "accept_expiration", codec.u64(value))


# ---------------------------------------------------------------------------
# Data payloads and the stand-in blob store
# ---------------------------------------------------------------------------


class DecodedPayload(NamedTuple):
    """A decoded data payload.  A named tuple rather than a frozen
    dataclass: the reader decodes one per disclosed entry, and a named tuple
    is built in about half the time."""

    mode: str
    inline: Optional[bytes] = None
    content_digest: Optional[bytes] = None
    blob_id: Optional[str] = None


def encode_data_payload(mode: str, plaintext: bytes,
                        blob_store: Optional["BlobStore"] = None) -> bytes:
    if mode == DATA_MODE_INLINE:
        return codec.pack(_INLINE_TAG, plaintext)
    if mode == DATA_MODE_EXTERNAL:
        if blob_store is None:
            raise ValueError("external-hash mode needs a blob store")
        blob_id = blob_store.put(plaintext)
        return codec.pack(_EXTERNAL_TAG, crypto.digest(plaintext), codec.text(blob_id))
    raise ValueError(f"unknown data mode {mode!r}")


def decode_data_payload(payload: bytes) -> DecodedPayload:
    """Inverse of ``encode_data_payload``, in one pass over ``payload``.

    Raises codec.DecodeError for an unknown mode, a mode or blob id that is
    not UTF-8, input that ends inside a field, and fields beyond the mode's.
    A mode is told by its encoded bytes, which name it exactly since UTF-8
    encodes each text one way.
    """
    fields = codec.split(payload)
    if len(fields) == 2 and fields[0] == _INLINE_TAG:
        return DecodedPayload(DATA_MODE_INLINE, fields[1])
    if len(fields) == 3 and fields[0] == _EXTERNAL_TAG:
        return DecodedPayload(DATA_MODE_EXTERNAL, None, fields[1], codec.decode_text(fields[2]))
    mode = codec.decode_text(fields[0]) if fields else ""
    if mode in DATA_MODES:
        raise codec.DecodeError(f"{mode} payload has {len(fields)} fields")
    raise codec.DecodeError(f"unknown payload mode {mode!r}")


class BlobStore:
    """Content-addressed local stand-in for an external document store."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}

    def put(self, data: bytes) -> str:
        blob_id = crypto.digest(data).hex()
        self._blobs[blob_id] = data
        return blob_id

    def get(self, blob_id: str) -> bytes:
        return self._blobs[blob_id]

    def __contains__(self, blob_id: str) -> bool:
        return blob_id in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)
