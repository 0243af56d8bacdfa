import gc
import hashlib
import time

import pytest

from creditchain import crypto, identity, public_records, reader
from creditchain.identity import IdentityContract, IdentityRecord, IdentityState
from creditchain.ledger import CallContext, Ledger, make_transaction


@pytest.fixture
def world():
    led = Ledger()
    root = crypto.generate_keypair(b"registry-root")
    registry = identity.deploy_registry(led, root)
    return led, registry


def pair(tag):
    return crypto.generate_keypair(tag.encode())


FP_ALICE = identity.fingerprint_from_text("US:111-22-3333")
FP_BOB = identity.fingerprint_from_text("US:444-55-6666")


# -- registration ----------------------------------------------------------------


def test_register_creates_record(world):
    led, registry = world
    alice = pair("alice")
    receipt = identity.register(led, registry, alice, FP_ALICE)
    assert receipt.accepted
    record = identity.get_record(led.read_state(registry), alice.public)
    assert record.fingerprint == FP_ALICE
    assert record.certificates == ()
    assert record.first_public_record is None
    assert record.first_credit_account is None


def test_register_twice_rejected(world):
    led, registry = world
    alice = pair("alice")
    identity.register(led, registry, alice, FP_ALICE)
    receipt = identity.register(led, registry, alice, FP_BOB)
    assert not receipt.accepted
    assert receipt.reason == "KeyAlreadyRegistered"
    # original fingerprint untouched
    record = identity.get_record(led.read_state(registry), alice.public)
    assert record.fingerprint == FP_ALICE


def test_register_empty_fingerprint_rejected(world):
    led, registry = world
    receipt = identity.register(led, registry, pair("x"), b"")
    assert receipt.reason == "BadArguments"


def test_fingerprint_index_keeps_registration_order(world):
    led, registry = world
    first, second = pair("thief-a"), pair("thief-b")
    identity.register(led, registry, first, FP_ALICE)
    identity.register(led, registry, second, FP_ALICE)
    keys = identity.lookup_by_fingerprint(led.read_state(registry), FP_ALICE)
    assert keys == (first.public, second.public)


def test_fingerprint_index_is_linear_in_keys_sharing_a_fingerprint():
    """Registration is permissionless, so anyone can put many keys under a
    victim's fingerprint; indexing them must not cost their square."""
    keys = [i.to_bytes(32, "big") for i in range(40_000)]
    state = IdentityState(records={key: IdentityRecord(fingerprint=FP_ALICE) for key in keys})
    started = time.process_time()
    index = state.fingerprint_index
    assert time.process_time() - started < 1.0
    assert index == {FP_ALICE: tuple(keys)}


def test_registry_keeps_only_the_records_a_live_state_reads(world):
    """Certifying replaces a record; once no held state reads the old one,
    it is gone, so the registry holds one record per identity."""
    led, registry = world
    fingerprint = identity.fingerprint_from_text("retention")
    customers = [pair(f"retained {i}") for i in range(50)]
    for customer in customers:
        assert identity.register(led, registry, customer, fingerprint).accepted
    for certifier in (pair("court"), pair("bank")):
        for customer in customers:
            assert identity.certify(led, registry, certifier, customer.public).accepted
    gc.collect()
    live = [o for o in gc.get_objects()
            if type(o) is IdentityRecord and o.fingerprint == fingerprint]
    assert len(live) == len(customers)


def test_fingerprint_from_text_is_sha256():
    assert identity.fingerprint_from_text("abc") == hashlib.sha256(b"abc").digest()


# -- certificates -----------------------------------------------------------------


def test_certify_and_trusted_view(world):
    led, registry = world
    alice, bank = pair("alice"), pair("bank")
    identity.register(led, registry, alice, FP_ALICE)
    state = led.read_state(registry)
    assert not identity.trusted_view(state, alice.public, {bank.public})

    assert identity.certify(led, registry, bank, alice.public).accepted
    state = led.read_state(registry)
    assert identity.trusted_view(state, alice.public, {bank.public})
    assert not identity.trusted_view(state, alice.public, {pair("other").public})


def test_certify_unknown_subject_rejected(world):
    led, registry = world
    receipt = identity.certify(led, registry, pair("bank"), pair("ghost").public)
    assert receipt.reason == "UnknownSubject"


def test_certify_is_idempotent(world):
    led, registry = world
    alice, bank = pair("alice"), pair("bank")
    identity.register(led, registry, alice, FP_ALICE)
    identity.certify(led, registry, bank, alice.public)
    receipt = identity.certify(led, registry, bank, alice.public)
    assert receipt.accepted
    record = identity.get_record(led.read_state(registry), alice.public)
    assert record.certificates.count(bank.public.to_bytes()) == 1


def test_decertify_requires_existing_certificate(world):
    led, registry = world
    alice, bank = pair("alice"), pair("bank")
    identity.register(led, registry, alice, FP_ALICE)
    assert identity.decertify(led, registry, bank, alice.public).reason == "NotACertifier"

    identity.certify(led, registry, bank, alice.public)
    assert identity.decertify(led, registry, bank, alice.public).accepted
    assert not identity.trusted_view(led.read_state(registry), alice.public, {bank.public})


# Every reader path that starts from an identity key, each given a key that
# never registered.
UNREGISTERED_LOOKUPS = {
    "assemble_report": lambda led, registry, ghost: reader.assemble_report(
        led, registry, reader.DisclosureBundle(identity=ghost, entries=()), set()),
    "traverse_public_records": lambda led, registry, ghost:
        public_records.traverse_public_records(led, registry, ghost, set()),
    "trusted_view": lambda led, registry, ghost:
        identity.trusted_view(led.read_state(registry), ghost, set()),
}


@pytest.mark.parametrize("lookup", UNREGISTERED_LOOKUPS.values(), ids=UNREGISTERED_LOOKUPS)
def test_unregistered_key_raises_unknown_identity(world, lookup):
    led, registry = world
    with pytest.raises(identity.UnknownIdentity):
        lookup(led, registry, pair("ghost").public)


# -- head pointers ------------------------------------------------------------------


def test_credit_head_is_opaque_and_write_once(world):
    led, registry = world
    alice = pair("alice")
    identity.register(led, registry, alice, FP_ALICE)
    opaque = b"\x99" * 120  # the registry must not interpret this
    assert identity.set_first_credit_account(led, registry, alice, opaque).accepted
    record = identity.get_record(led.read_state(registry), alice.public)
    assert record.first_credit_account == opaque

    second = identity.set_first_credit_account(led, registry, alice, b"\x01")
    assert second.reason == "PointerAlreadySet"
    record = identity.get_record(led.read_state(registry), alice.public)
    assert record.first_credit_account == opaque


def test_credit_head_requires_registration(world):
    led, registry = world
    receipt = identity.set_first_credit_account(led, registry, pair("ghost"), b"x")
    assert receipt.reason == "UnknownCaller"


def test_record_head_accepts_own_fresh_record(world):
    led, registry = world
    alice = pair("alice")
    identity.register(led, registry, alice, FP_ALICE)
    factory = public_records.deploy_factory(led, pair("court"))
    record = public_records.mint_record(led, factory, alice)
    public_records.fill_record(led, alice, record, b"statement")

    assert identity.set_first_public_record(led, registry, alice, record).accepted
    stored = identity.get_record(led.read_state(registry), alice.public)
    assert stored.first_public_record == record.digest


def test_record_head_rejects_foreign_record(world):
    led, registry = world
    alice, stranger = pair("alice"), pair("stranger")
    identity.register(led, registry, alice, FP_ALICE)
    factory = public_records.deploy_factory(led, pair("court"))
    record = public_records.mint_record(led, factory, stranger)
    public_records.fill_record(led, stranger, record, b"not alice's")

    receipt = identity.set_first_public_record(led, registry, alice, record)
    assert receipt.reason == "InvalidRecord(2)"
    assert identity.get_record(led.read_state(registry), alice.public).first_public_record is None


def test_record_head_write_once(world):
    led, registry = world
    alice = pair("alice")
    identity.register(led, registry, alice, FP_ALICE)
    factory = public_records.deploy_factory(led, pair("court"))
    first = public_records.mint_record(led, factory, alice)
    public_records.fill_record(led, alice, first, b"one")
    second = public_records.mint_record(led, factory, alice)
    public_records.fill_record(led, alice, second, b"two")

    identity.set_first_public_record(led, registry, alice, first)
    receipt = identity.set_first_public_record(led, registry, alice, second)
    assert receipt.reason == "PointerAlreadySet"


# -- transitions leave their input state alone -------------------------------------


def test_every_transition_leaves_its_input_state_unchanged(world):
    """``read_state`` and ``history`` hand out states as snapshots, so a
    transition must build its next state and never edit the one it got."""
    led, registry = world
    alice, court, bank, carol = pair("alice"), pair("court"), pair("bank"), pair("carol")
    identity.register(led, registry, alice, FP_ALICE)
    identity.certify(led, registry, court, alice.public)
    factory = public_records.deploy_factory(led, court)
    record = public_records.mint_record(led, factory, alice)
    public_records.fill_record(led, alice, record, b"statement")
    state = led.read_state(registry)
    records, index = dict(state.records), dict(state.fingerprint_index)
    encoded = IdentityContract.encode_state(state)

    for caller, function, args in [
        (carol, "register", FP_ALICE),
        (bank, "certify", alice.public.to_bytes()),
        (court, "decertify", alice.public.to_bytes()),
        (alice, "set_first_credit_account", b"ciphertext"),
        (alice, "set_first_public_record", record.digest),
    ]:
        tx = make_transaction(caller, registry, function, args)
        ctx = CallContext(led, tx, len(led.log), registry)
        assert IdentityContract.apply(state, ctx, function, args) != state
        assert state.records == records and state.fingerprint_index == index
        assert all(state.records[key] is value for key, value in records.items())
        assert IdentityContract.encode_state(state) == encoded


# -- certification vetting -----------------------------------------------------------


def test_approve_certification_happy_path(world):
    led, registry = world
    alice, bank = pair("alice"), pair("bank")
    identity.register(led, registry, alice, FP_ALICE)
    challenge = b"prove it, 2024-06-01T12:00"
    response = identity.identity_challenge(alice, challenge)
    state = led.read_state(registry)
    assert identity.approve_certification(state, alice.public, FP_ALICE,
                                          challenge, response, {bank.public})


def test_approve_certification_rejects_bad_response(world):
    led, registry = world
    alice, mallory = pair("alice"), pair("mallory")
    identity.register(led, registry, alice, FP_ALICE)
    challenge = b"prove it"
    forged = identity.identity_challenge(mallory, challenge)
    state = led.read_state(registry)
    assert not identity.approve_certification(state, alice.public, FP_ALICE,
                                              challenge, forged, set())


def test_approve_certification_rejects_wrong_fingerprint(world):
    led, registry = world
    alice = pair("alice")
    identity.register(led, registry, alice, FP_ALICE)
    challenge = b"prove it"
    response = identity.identity_challenge(alice, challenge)
    state = led.read_state(registry)
    assert not identity.approve_certification(state, alice.public, FP_BOB,
                                              challenge, response, set())


def test_approve_certification_blocks_second_trusted_key(world):
    """A second key under an already-vouched-for fingerprint must not get
    approved — this is the brake on both duplicate identities and theft."""
    led, registry = world
    victim, thief, bank = pair("victim"), pair("thief"), pair("bank")
    identity.register(led, registry, victim, FP_ALICE)
    identity.certify(led, registry, bank, victim.public)
    identity.register(led, registry, thief, FP_ALICE)

    challenge = b"prove it"
    response = identity.identity_challenge(thief, challenge)
    state = led.read_state(registry)
    assert not identity.approve_certification(state, thief.public, FP_ALICE,
                                              challenge, response, {bank.public})


def test_approve_certification_ignores_untrusted_certificates(world):
    led, registry = world
    victim, thief, bank, shady = pair("victim"), pair("thief"), pair("bank"), pair("shady")
    identity.register(led, registry, victim, FP_ALICE)
    identity.certify(led, registry, shady, victim.public)  # nobody trusts shady
    identity.register(led, registry, thief, FP_ALICE)

    challenge = b"prove it"
    response = identity.identity_challenge(thief, challenge)
    state = led.read_state(registry)
    assert identity.approve_certification(state, thief.public, FP_ALICE,
                                          challenge, response, {bank.public})
