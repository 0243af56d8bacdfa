"""Key derivation, signatures, and the deterministic hybrid cipher.

The digest oracle is hashlib itself; everything else is checked through
round trips, cross-key negatives, and bit-flip sweeps.
"""

import dataclasses
import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditchain import codec, crypto

seeds = st.binary(min_size=1, max_size=48)
messages = st.binary(max_size=256)
nonces = st.binary(min_size=1, max_size=32)


# -- digest -----------------------------------------------------------------


@given(messages)
def test_digest_matches_sha256(data):
    assert crypto.digest(data) == hashlib.sha256(data).digest()


# -- key generation ----------------------------------------------------------


@given(seeds)
def test_keypair_deterministic_in_seed(seed):
    a = crypto.generate_keypair(seed)
    b = crypto.generate_keypair(seed)
    assert a.public.to_bytes() == b.public.to_bytes()
    assert a.private.to_bytes() == b.private.to_bytes()


def test_distinct_seeds_distinct_keys():
    seen = set()
    for i in range(10_000):
        pair = crypto.generate_keypair(codec.u64(i))
        seen.add(pair.public.to_bytes())
    assert len(seen) == 10_000


def test_roles_separate_keyspace():
    seed = b"one seed, many hats"
    publics = {role: crypto.generate_keypair(seed, role).public.to_bytes()
               for role in (crypto.ROLE_TRUE_IDENTITY, crypto.ROLE_ACCOUNT_CUSTOMER,
                            crypto.ROLE_ACCOUNT_INSTITUTION, crypto.ROLE_SHARED_DATA,
                            crypto.ROLE_SHARED_POINTER)}
    assert len(set(publics.values())) == len(publics)


def test_empty_seed_rejected():
    with pytest.raises(crypto.EmptySeed):
        crypto.generate_keypair(b"")


@given(seeds)
def test_key_serialization_round_trip(seed):
    pair = crypto.generate_keypair(seed)
    assert crypto.PublicKey.from_bytes(pair.public.to_bytes()) == pair.public
    restored = crypto.PrivateKey.from_bytes(pair.private.to_bytes())
    assert restored.to_bytes() == pair.private.to_bytes()


def test_malformed_key_bytes_rejected():
    with pytest.raises(crypto.CryptoError):
        crypto.PublicKey.from_bytes(b"\x00" * 63)
    with pytest.raises(crypto.CryptoError):
        crypto.PrivateKey.from_bytes(b"\x00" * 31)


def test_short_id_is_stable_prefix():
    pair = crypto.generate_keypair(b"short-id")
    assert pair.public.short_id() == pair.public.short_id()
    assert len(pair.public.short_id()) < 20


# -- signatures ---------------------------------------------------------------


@given(seeds, messages)
def test_sign_verify_round_trip(seed, message):
    pair = crypto.generate_keypair(seed)
    signature = crypto.sign(pair.private, message)
    assert len(signature) == crypto.SIGNATURE_SIZE
    assert crypto.verify(pair.public, message, signature)


def test_signature_rejects_every_single_bit_flip():
    pair = crypto.generate_keypair(b"bit flips")
    message = b"the quick brown fox"
    signature = crypto.sign(pair.private, message)
    for i in range(len(signature) * 8):
        bad = bytearray(signature)
        bad[i // 8] ^= 1 << (i % 8)
        assert not crypto.verify(pair.public, message, bytes(bad))


def test_signature_bound_to_message_and_key():
    alice = crypto.generate_keypair(b"alice")
    bob = crypto.generate_keypair(b"bob")
    signature = crypto.sign(alice.private, b"pay alice")
    assert not crypto.verify(alice.public, b"pay bob", signature)
    assert not crypto.verify(bob.public, b"pay alice", signature)


# -- encryption ----------------------------------------------------------------


@given(seeds, nonces, messages)
@settings(max_examples=60)
def test_encrypt_decrypt_round_trip(seed, nonce, message):
    pair = crypto.generate_keypair(seed)
    ciphertext = crypto.encrypt(pair.public, nonce, message)
    assert len(ciphertext) == len(message) + crypto.CIPHERTEXT_OVERHEAD
    assert crypto.decrypt(pair.private, ciphertext) == message


@given(seeds, nonces, messages)
@settings(max_examples=40)
def test_encrypt_is_deterministic(seed, nonce, message):
    """Same recipient, nonce, and plaintext give identical ciphertext — the
    property that lets a verifier re-encrypt a disclosed plaintext and
    compare bytes."""
    pair = crypto.generate_keypair(seed)
    assert crypto.encrypt(pair.public, nonce, message) == \
        crypto.encrypt(pair.public, nonce, message)


def test_nonce_changes_ciphertext():
    pair = crypto.generate_keypair(b"nonce matters")
    a = crypto.encrypt(pair.public, b"n1", b"same plaintext")
    b = crypto.encrypt(pair.public, b"n2", b"same plaintext")
    assert a != b


def test_wrong_key_cannot_decrypt():
    alice = crypto.generate_keypair(b"alice enc")
    eve = crypto.generate_keypair(b"eve enc")
    ciphertext = crypto.encrypt(alice.public, b"n", b"secret")
    with pytest.raises(crypto.WrongKey):
        crypto.decrypt(eve.private, ciphertext)


def test_tampered_ciphertext_rejected_everywhere():
    pair = crypto.generate_keypair(b"tamper enc")
    ciphertext = crypto.encrypt(pair.public, b"n", b"payload bytes")
    for i in range(len(ciphertext)):
        bad = bytearray(ciphertext)
        bad[i] ^= 0x01
        with pytest.raises(crypto.WrongKey):
            crypto.decrypt(pair.private, bytes(bad))


def test_truncated_ciphertext_rejected():
    pair = crypto.generate_keypair(b"short enc")
    with pytest.raises(crypto.WrongKey):
        crypto.decrypt(pair.private, b"\x00" * (crypto.CIPHERTEXT_OVERHEAD - 1))


# -- loaded-key cache --------------------------------------------------------


def _count_signing_key_loads(monkeypatch):
    loads = []
    real = crypto.Ed25519PrivateKey

    class Counting:
        @staticmethod
        def from_private_bytes(raw):
            loads.append(raw)
            return real.from_private_bytes(raw)

    monkeypatch.setattr(crypto, "Ed25519PrivateKey", Counting)
    return loads


def test_signing_twice_loads_the_key_once(monkeypatch):
    loads = _count_signing_key_loads(monkeypatch)
    key = crypto.PrivateKey(bytes(range(32)))
    first = crypto.sign(key, b"one")
    crypto.sign(key, b"two")
    assert len(loads) == 1
    assert crypto.verify(key.public_key(), b"one", first)
    assert len(loads) == 1


def test_generated_key_signs_without_loading_again(monkeypatch):
    pair = crypto.generate_keypair(b"kept keys")
    loads = _count_signing_key_loads(monkeypatch)
    crypto.sign(pair.private, b"first call")
    assert loads == []


def test_warm_and_fresh_keys_agree():
    pair = crypto.generate_keypair(b"warm")
    ciphertext = crypto.encrypt(pair.public, b"n", b"payload")
    warm = pair.private
    crypto.sign(warm, b"warm-up")
    crypto.decrypt(warm, ciphertext)
    fresh = crypto.PrivateKey(warm.master)
    assert crypto.sign(fresh, b"message") == crypto.sign(warm, b"message")
    assert crypto.decrypt(fresh, ciphertext) == crypto.decrypt(warm, ciphertext) == b"payload"
    assert fresh.public_key() == warm.public_key() == pair.public


def test_warm_key_still_refuses_tampered_ciphertext():
    pair = crypto.generate_keypair(b"warm tamper")
    ciphertext = crypto.encrypt(pair.public, b"n", b"payload")
    assert crypto.decrypt(pair.private, ciphertext) == b"payload"
    for index in (0, 40, len(ciphertext) - 1):
        bad = bytearray(ciphertext)
        bad[index] ^= 0x01
        with pytest.raises(crypto.WrongKey):
            crypto.decrypt(pair.private, bytes(bad))


def test_cache_is_invisible_to_eq_hash_repr():
    warm = crypto.generate_keypair(b"invisible").private
    cold = crypto.PrivateKey(warm.master)
    assert {"_signing_key", "_encryption_key"} <= vars(warm).keys()
    assert vars(cold) == {"master": warm.master}
    assert warm == cold
    assert hash(warm) == hash(cold)
    assert repr(warm) == repr(cold)
    assert [f.name for f in dataclasses.fields(warm)] == ["master"]
    replaced = dataclasses.replace(warm)
    assert replaced == warm
    assert vars(replaced) == {"master": warm.master}


def test_key_rebuilt_from_bytes_has_its_own_cache():
    warm = crypto.generate_keypair(b"rebuilt").private
    rebuilt = crypto.PrivateKey.from_bytes(warm.to_bytes())
    assert vars(rebuilt) == {"master": warm.master}
    assert crypto.sign(rebuilt, b"m") == crypto.sign(warm, b"m")
    assert rebuilt._signing_key is not warm._signing_key
    assert rebuilt._encryption_key is not warm._encryption_key


# -- the key pair invariant ---------------------------------------------------


def test_mismatched_key_pair_cannot_be_built():
    victim = crypto.generate_keypair(b"victim")
    thief = crypto.generate_keypair(b"thief")
    with pytest.raises(crypto.MismatchedKeyPair):
        crypto.KeyPair(victim.public, thief.private)
    with pytest.raises(crypto.MismatchedKeyPair):
        dataclasses.replace(thief, public=victim.public)
    assert issubclass(crypto.MismatchedKeyPair, crypto.CryptoError)


def test_matching_halves_build_a_pair():
    pair = crypto.generate_keypair(b"halves")
    rebuilt = crypto.KeyPair(crypto.PublicKey.from_bytes(pair.public.to_bytes()),
                             crypto.PrivateKey(pair.private.master), pair.role)
    assert rebuilt == pair
    assert dataclasses.replace(pair, role=crypto.ROLE_SHARED_DATA).public == pair.public


def test_generate_keypair_derives_the_public_key_once(monkeypatch):
    built = []

    class Counting(crypto.PublicKey):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(crypto, "PublicKey", Counting)
    pair = crypto.generate_keypair(b"derived once")
    assert built == [pair.public]
    assert pair.private.public_key() is pair.public  # one object, held by both


def test_public_key_bytes_are_joined_once_and_invisible():
    warm = crypto.generate_keypair(b"joined once").public
    cold = crypto.PublicKey(warm.signing, warm.encryption)
    raw = warm.to_bytes()
    assert raw == warm.signing + warm.encryption
    assert warm.to_bytes() is raw
    assert "_raw" not in vars(cold)
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
    assert [f.name for f in dataclasses.fields(warm)] == ["signing", "encryption"]
    assert crypto.PublicKey.from_bytes(raw) == warm
    replaced = dataclasses.replace(warm, encryption=bytes(32))
    assert replaced.to_bytes() == warm.signing + bytes(32)
