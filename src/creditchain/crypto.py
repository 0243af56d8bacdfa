"""Key generation, authenticated public-key encryption, signatures, hashing.

Keys are deterministic: a (seed, role) pair always yields the same key
material, so scenario actors named in a script get reproducible identities.
Every key pair carries both a signing half (Ed25519) and an encryption half
(X25519), derived from one 32-byte master secret.

Encryption is deliberately nonce-deterministic: ``encrypt(public, nonce,
message)`` is a pure function of its inputs.  The party who encrypted a
value can later hand a verifier the plaintext and nonce, and the verifier
recomputes the exact ciphertext sitting in contract storage — equality is
the proof.  The nonce is chosen and retained by the encryptor; it is never
stored on the ledger.  Internally this is a hybrid scheme (static-ephemeral
X25519 agreement feeding ChaCha20-Poly1305) but nothing outside this module
depends on that.

Both key classes are slotted, so a key object carries no instance dict.
Each ``PrivateKey`` derives and loads its Ed25519 and X25519 key objects,
and the ``PublicKey`` they give, once, on first use, and keeps them in
slots for its own lifetime; those slots are left out of equality, hashing
and ``repr``, which see only the secret.  A ``PublicKey`` likewise joins its
two halves into the 64-byte form ``to_bytes`` returns once, on first use.

A ``KeyPair``'s two halves always match: constructing one (directly or
through ``dataclasses.replace``) whose public half is not the one its
private half derives raises ``MismatchedKeyPair``.  Ed25519 signing is
deterministic and a signature always verifies under the signer's own public
key, so a signature made with ``pair.private`` verifies under
``pair.public`` by construction; the ledger relies on this to skip
re-verifying the transactions it signs itself.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import ChaCha20Poly1305

from . import codec

# Role tags recorded on generated key pairs.  Purely descriptive, but they
# namespace the derivation so one seed used in two roles gives two keys.
ROLE_TRUE_IDENTITY = "true-identity"
ROLE_ACCOUNT_CUSTOMER = "account-customer"
ROLE_ACCOUNT_INSTITUTION = "account-institution"
ROLE_SHARED_DATA = "shared-1"
ROLE_SHARED_POINTER = "shared-2"

DIGEST_SIZE = 32
PUBLIC_KEY_SIZE = 64  # signing half || encryption half
SIGNATURE_SIZE = 64
# Ciphertext layout: 32-byte ephemeral public part, then AEAD output
# (plaintext length + 16-byte tag).
CIPHERTEXT_OVERHEAD = 32 + 16


class CryptoError(Exception):
    """Base class for failures raised by this module."""


class EmptySeed(CryptoError):
    """Key generation was asked to work from an empty seed."""


class WrongKey(CryptoError):
    """Decryption failed: wrong private key or damaged ciphertext."""


class MismatchedKeyPair(CryptoError):
    """A key pair's public half is not the one its private half derives."""


def digest(data: bytes) -> bytes:
    """256-bit content hash (SHA-256) used everywhere a digest is needed."""
    return hashlib.sha256(data).digest()


def _derive(tag: bytes, *parts: bytes) -> bytes:
    return digest(codec.pack(tag, *parts))


@dataclass(frozen=True)
class PublicKey:
    """Public half of a key pair: verification key plus encryption key."""

    # ``_raw`` holds None, then from the first ``to_bytes`` on the joined
    # halves: registry lookups, memo keys and bundle files ask for them again
    # and again.  A slot but not a field, so equality, hashing, repr and
    # dataclasses.replace ignore it.
    __slots__ = ("signing", "encryption", "_raw")
    signing: bytes
    encryption: bytes

    def __post_init__(self) -> None:
        if len(self.signing) != 32 or len(self.encryption) != 32:
            raise CryptoError("public key halves must be 32 bytes each")
        object.__setattr__(self, "_raw", None)

    def to_bytes(self) -> bytes:
        raw = self._raw
        if raw is None:
            raw = self.signing + self.encryption
            object.__setattr__(self, "_raw", raw)
        return raw

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild the key from its fields: the default for a
        # slotted object sets each slot, which a frozen dataclass refuses
        return PublicKey, (self.signing, self.encryption)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        if len(raw) != PUBLIC_KEY_SIZE:
            raise CryptoError(f"public key must be {PUBLIC_KEY_SIZE} bytes, got {len(raw)}")
        return cls(raw[:32], raw[32:])

    def short_id(self) -> str:
        """ 12-hex-character handle for transcripts and report rendering."""
        return digest(self.to_bytes()).hex()[:12]


@dataclass(frozen=True)
class PrivateKey:
    """Private half: one master secret from which both halves derive."""

    # The loaded key objects and the public key they give, each held in a
    # slot, not a field, from its first use on; they die with the key object.
    # The slots stay unset until then, not None: a key read from a bundle is
    # built for its master secret alone, and setting three more slots would
    # double the cost of building it.
    __slots__ = ("master", "_ed25519", "_x25519", "_public")
    master: bytes

    def __post_init__(self) -> None:
        if len(self.master) != 32:
            raise CryptoError("private key master secret must be 32 bytes")

    def to_bytes(self) -> bytes:
        return self.master

    def __reduce__(self) -> tuple:
        # as PublicKey's; the copy loads its own key objects when first used
        return PrivateKey, (self.master,)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrivateKey":
        if len(raw) != 32:
            raise CryptoError("private key must be 32 bytes")
        return cls(raw)

    def _signing_key(self) -> Ed25519PrivateKey:
        key = getattr(self, "_ed25519", None)
        if key is None:
            key = Ed25519PrivateKey.from_private_bytes(_derive(b"signing-half", self.master))
            object.__setattr__(self, "_ed25519", key)
        return key

    def _encryption_key(self) -> X25519PrivateKey:
        key = getattr(self, "_x25519", None)
        if key is None:
            key = X25519PrivateKey.from_private_bytes(_derive(b"encryption-half", self.master))
            object.__setattr__(self, "_x25519", key)
        return key

    def public_key(self) -> PublicKey:
        public = getattr(self, "_public", None)
        if public is None:
            public = PublicKey(self._signing_key().public_key().public_bytes_raw(),
                               self._encryption_key().public_key().public_bytes_raw())
            object.__setattr__(self, "_public", public)
        return public


@dataclass(frozen=True)
class KeyPair:
    """A private key and the public key it derives; they cannot disagree."""

    public: PublicKey
    private: PrivateKey
    role: str = field(default=ROLE_TRUE_IDENTITY)

    def __post_init__(self) -> None:
        if self.private.public_key() != self.public:
            raise MismatchedKeyPair("public half does not belong to the private half")


def generate_keypair(seed: bytes, role: str = ROLE_TRUE_IDENTITY) -> KeyPair:
    """Deterministically derive a key pair from a seed and role tag.

    Raises EmptySeed for a zero-length seed; everything else is accepted.
    """
    if not seed:
        raise EmptySeed("seed must be non-empty")
    private = PrivateKey(_derive(b"keygen", codec.text(role), seed))
    return KeyPair(private.public_key(), private, role)


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def sign(private: PrivateKey, message: bytes) -> bytes:
    return private._signing_key().sign(message)


def verify(public: PublicKey, message: bytes, signature: bytes) -> bool:
    """True iff signature is valid.  Malformed input is just False."""
    try:
        Ed25519PublicKey.from_public_bytes(public.signing).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, TypeError):
        return False


# ---------------------------------------------------------------------------
# Authenticated encryption
# ---------------------------------------------------------------------------


def _symmetric_parts(shared: bytes, ephemeral_public: bytes) -> tuple[bytes, bytes]:
    key = _derive(b"aead-key", shared, ephemeral_public)
    nonce12 = _derive(b"aead-nonce", ephemeral_public)[:12]
    return key, nonce12


def encrypt(public: PublicKey, nonce: bytes, message: bytes) -> bytes:
    """Encrypt to a public key; pure in (public, nonce, message).

    The ephemeral agreement key is derived from all three inputs, so
    re-running with identical arguments reproduces the ciphertext byte for
    byte — the property the disclosure re-encryption checks rely on.  Both
    halves of the recipient key feed the derivation: a re-encryption check
    must notice corruption anywhere in a disclosed key, including the
    signing half the key agreement itself never touches.
    """
    eph_seed = _derive(b"ephemeral", public.signing, public.encryption, nonce, message)
    eph = X25519PrivateKey.from_private_bytes(eph_seed)
    eph_public = eph.public_key().public_bytes_raw()
    shared = eph.exchange(X25519PublicKey.from_public_bytes(public.encryption))
    key, nonce12 = _symmetric_parts(shared, eph_public)
    sealed = ChaCha20Poly1305(key).encrypt(nonce12, message, eph_public)
    return eph_public + sealed


def decrypt(private: PrivateKey, ciphertext: bytes) -> bytes:
    """Recover the plaintext, or raise WrongKey.

    Truncated ciphertext, a flipped byte anywhere, or a key that does not
    match all surface as WrongKey — the AEAD tag makes them
    indistinguishable, which is the point.
    """
    if len(ciphertext) < CIPHERTEXT_OVERHEAD:
        raise WrongKey("ciphertext too short")
    eph_public, sealed = ciphertext[:32], ciphertext[32:]
    try:
        shared = private._encryption_key().exchange(
            X25519PublicKey.from_public_bytes(eph_public)
        )
        key, nonce12 = _symmetric_parts(shared, eph_public)
        return ChaCha20Poly1305(key).decrypt(nonce12, sealed, eph_public)
    except (InvalidTag, ValueError) as exc:
        raise WrongKey("decryption failed") from exc
