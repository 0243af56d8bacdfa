"""Factory-vouched record lists: the four link-insertion checks, content
freezing, traversal, and classification."""

import pytest

from creditchain import crypto, identity, public_records as records
from creditchain.ledger import Address, Ledger


@pytest.fixture
def world():
    led = Ledger()
    root = crypto.generate_keypair(b"records-root")
    registry = identity.deploy_registry(led, root)
    factory = records.deploy_factory(led, root)
    return led, registry, factory


def pair(tag):
    return crypto.generate_keypair(tag.encode())


def make_record(led, factory, author, data=b"record data"):
    address = records.mint_record(led, factory, author)
    records.fill_record(led, author, address, data)
    return address


def start_list(led, registry, factory, owner, data=b"head record"):
    """Register the owner and hang a first record off their identity."""
    identity.register(led, registry, owner,
                      identity.fingerprint_from_text("T:" + data.decode()))
    head = make_record(led, factory, owner, data)
    receipt = identity.set_first_public_record(led, registry, owner, head)
    assert receipt.accepted
    return head


# -- minting and filling ---------------------------------------------------------


def test_mint_tracks_record_in_factory(world):
    led, _, factory = world
    author = pair("author")
    address = records.mint_record(led, factory, author)
    state = led.read_state(factory)
    assert address.digest in state.minted
    assert address.digest not in state.added
    record = led.read_state(address)
    assert record.author_key == author.public.to_bytes()
    assert record.parent_factory == factory.digest
    assert record.data is None


def test_fill_requires_author(world):
    led, _, factory = world
    author, stranger = pair("author"), pair("stranger")
    address = records.mint_record(led, factory, author)
    receipt = records.fill_record(led, stranger, address, b"forged")
    assert receipt.reason == "NotAuthor"
    assert records.fill_record(led, author, address, b"genuine").accepted
    assert led.read_state(address).data == b"genuine"


def test_fill_rewritable_until_linked(world):
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author, b"v1")
    # loose record: rewrite allowed
    loose = make_record(led, factory, author, b"draft")
    assert records.fill_record(led, author, loose, b"final").accepted
    # linked record: frozen
    receipt = records.fill_record(led, author, head, b"revision")
    assert receipt.reason == "RecordFrozen"
    assert led.read_state(head).data == b"v1"


def test_fill_signature_verifies_against_author(world):
    led, _, factory = world
    author = pair("author")
    address = make_record(led, factory, author, b"signed content")
    state = led.read_state(address)
    assert crypto.verify(author.public, b"signed content", state.signature)


def test_encrypted_fill_round_trip(world):
    led, _, factory = world
    author, subject = pair("authority"), pair("subject")
    address = records.mint_record(led, factory, author)
    receipt = records.fill_record(led, author, address, b"sealed judgment",
                                  mode=records.RECORD_ENCRYPTED,
                                  owner_key=subject.public, nonce=b"rn-1")
    assert receipt.accepted
    state = led.read_state(address)
    assert state.data != b"sealed judgment"
    assert crypto.decrypt(subject.private, state.data) == b"sealed judgment"
    # signature covers the plaintext, not the ciphertext
    assert crypto.verify(author.public, b"sealed judgment", state.signature)


def test_encrypted_fill_needs_key_and_nonce(world):
    led, _, factory = world
    author = pair("author")
    address = records.mint_record(led, factory, author)
    with pytest.raises(ValueError):
        records.fill_record(led, author, address, b"x", mode=records.RECORD_ENCRYPTED)


# -- the four append checks ---------------------------------------------------------


def test_append_honest_record_accepted(world):
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    new = make_record(led, factory, author, b"second entry")
    receipt = records.append_record(led, author, head, new)
    assert receipt.accepted
    assert led.read_state(head).next_record == new.digest
    assert new.digest in led.read_state(factory).added


def test_check1_rejects_record_from_other_factory(world):
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    rogue_factory = records.deploy_factory(led, pair("rogue"))
    imposter = make_record(led, rogue_factory, author, b"wrong provenance")
    receipt = records.append_record(led, author, head, imposter)
    assert receipt.reason == "InvalidRecord(1)"


def test_check1_rejects_directly_deployed_record(world):
    """A record contract deployed by hand, never minted, fails provenance."""
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    from creditchain import codec
    fake = led.deploy(author, records.PublicRecordContract.KIND,
                      codec.pack(author.public.to_bytes(), factory.digest))
    receipt = records.append_record(led, author, head, fake)
    assert receipt.reason == "InvalidRecord(1)"


def test_check1_rejects_non_record_target(world):
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    receipt = led.call(author, head, "append", factory.digest)  # a factory, not a record
    assert receipt.reason == "InvalidRecord(1)"
    # not even an address, or an address with nothing behind it
    for pointer in (b"\x00" * 7, b"", b"\x00" * 31, b"\x00" * 33, b"\x00" * 32):
        receipt = led.call(author, head, "append", pointer)
        assert receipt.reason == "InvalidRecord(1)"


def test_check2_rejects_non_author(world):
    led, registry, factory = world
    author, meddler = pair("author"), pair("meddler")
    head = start_list(led, registry, factory, author)
    new = make_record(led, factory, author, b"authored")
    receipt = records.append_record(led, meddler, head, new)
    assert receipt.reason == "InvalidRecord(2)"


def test_check3_rejects_already_listed_record(world):
    led, registry, factory = world
    alice, bob = pair("alice"), pair("bob")
    head_a = start_list(led, registry, factory, alice, b"alice head")
    head_b = start_list(led, registry, factory, bob, b"bob head")
    shared = make_record(led, factory, alice, b"two places at once")
    assert records.append_record(led, alice, head_a, shared).accepted
    # same record, other list — and also a duplicate into its own list
    receipt = records.append_record(led, alice, head_b, shared)
    assert receipt.reason == "InvalidRecord(3)"
    tail = records.find_list_tail(led, head_a)
    receipt = records.append_record(led, alice, tail, shared)
    assert receipt.reason == "InvalidRecord(3)"


def test_check4_rejects_smuggled_sublist(world):
    """B is appended onto loose A; linking A would sneak B past the checks,
    so the append of A must die on check 4 — and the check-3 mark staged
    for A inside the failed transaction must be rolled back."""
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    a = make_record(led, factory, author, b"carrier")
    b = make_record(led, factory, author, b"stowaway")
    assert records.append_record(led, author, a, b).accepted  # A loose, gets a tail

    receipt = records.append_record(led, author, head, a)
    assert receipt.reason == "InvalidRecord(4)"
    factory_state = led.read_state(factory)
    assert a.digest not in factory_state.added  # staged mark discarded
    assert led.read_state(head).next_record is None


def test_append_only_first_failing_check_reported(world):
    """A record failing several checks reports the lowest number."""
    led, registry, factory = world
    author, meddler = pair("author"), pair("meddler")
    head = start_list(led, registry, factory, author)
    rogue_factory = records.deploy_factory(led, pair("rogue"))
    worst = make_record(led, rogue_factory, author, b"bad everything")
    # also give it a tail and try to append as non-author: checks 1,2,4 all fail
    extra = make_record(led, rogue_factory, author, b"tail")
    records.append_record(led, author, worst, extra)
    receipt = records.append_record(led, meddler, head, worst)
    assert receipt.reason == "InvalidRecord(1)"


def test_append_to_occupied_tail_rejected(world):
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    first = make_record(led, factory, author, b"first")
    second = make_record(led, factory, author, b"second")
    records.append_record(led, author, head, first)
    receipt = records.append_record(led, author, head, second)
    assert receipt.reason == "PointerAlreadySet"
    assert records.append_record(led, author, first, second).accepted


def test_find_list_tail_walks_to_end(world):
    led, registry, factory = world
    author = pair("author")
    head = start_list(led, registry, factory, author)
    tail = head
    for i in range(4):
        new = make_record(led, factory, author, b"entry %d" % i)
        records.append_record(led, author, tail, new)
        tail = new
    assert records.find_list_tail(led, head) == tail


# -- traversal and classification ------------------------------------------------------


def test_traverse_classifies_by_trust(world):
    led, registry, factory = world
    owner, court, spammer = pair("owner"), pair("court"), pair("spammer")
    head = start_list(led, registry, factory, owner, b"self statement")
    tail = head
    lien = make_record(led, factory, court, b"lien: 950")
    # court appends its own record at the owner's tail
    assert records.append_record(led, court, tail, lien).accepted
    junk = make_record(led, factory, spammer, b"buy gold")
    assert records.append_record(led, spammer, lien, junk).accepted

    walked = records.traverse_public_records(led, registry, owner.public,
                                             trust_set={court.public})
    assert [t.classification for t in walked] == \
        [records.CLASS_SPAM, records.CLASS_TRUSTED_PLAINTEXT, records.CLASS_SPAM]
    assert walked[1].plaintext == b"lien: 950"
    assert walked[1].signature_ok is True
    # spam content remains visible when it was plaintext
    assert walked[2].plaintext == b"buy gold"


def test_traverse_encrypted_disclosure_states(world):
    led, registry, factory = world
    owner, agency = pair("owner"), pair("agency")
    head = start_list(led, registry, factory, owner)
    sealed = records.mint_record(led, factory, agency)
    records.fill_record(led, agency, sealed, b"sealed: 7200",
                        mode=records.RECORD_ENCRYPTED, owner_key=owner.public,
                        nonce=b"seal-nonce")
    records.append_record(led, agency, head, sealed)
    trust = {agency.public}

    undisclosed = records.traverse_public_records(led, registry, owner.public, trust)
    assert undisclosed[1].classification == records.CLASS_TRUSTED_ENCRYPTED_UNDISCLOSED
    assert undisclosed[1].plaintext is None

    good = records.traverse_public_records(
        led, registry, owner.public, trust,
        disclosures={sealed: records.RecordDisclosure(b"sealed: 7200", b"seal-nonce")})
    assert good[1].classification == records.CLASS_TRUSTED_ENCRYPTED_VERIFIED
    assert good[1].plaintext == b"sealed: 7200"
    assert good[1].signature_ok is True

    # signature check alone (no nonce) also verifies
    sig_only = records.traverse_public_records(
        led, registry, owner.public, trust,
        disclosures={sealed: records.RecordDisclosure(b"sealed: 7200")})
    assert sig_only[1].classification == records.CLASS_TRUSTED_ENCRYPTED_VERIFIED

    lies = records.traverse_public_records(
        led, registry, owner.public, trust,
        disclosures={sealed: records.RecordDisclosure(b"sealed: 1", b"seal-nonce")})
    assert lies[1].classification == records.CLASS_TRUSTED_ENCRYPTED_UNDISCLOSED
    assert lies[1].signature_ok is False

    wrong_nonce = records.traverse_public_records(
        led, registry, owner.public, trust,
        disclosures={sealed: records.RecordDisclosure(b"sealed: 7200", b"other")})
    assert wrong_nonce[1].classification == records.CLASS_TRUSTED_ENCRYPTED_UNDISCLOSED


def test_traverse_pinned_factory_downgrades_foreigners(world):
    led, registry, factory = world
    owner = pair("owner")
    start_list(led, registry, factory, owner, b"mine")
    walked = records.traverse_public_records(led, registry, owner.public,
                                             {owner.public},
                                             expected_factory=factory)
    assert walked[0].classification == records.CLASS_TRUSTED_PLAINTEXT
    other = records.deploy_factory(led, pair("other"))
    walked = records.traverse_public_records(led, registry, owner.public,
                                             {owner.public},
                                             expected_factory=other)
    assert walked[0].classification == records.CLASS_SPAM


def test_traverse_unknown_identity_raises(world):
    led, registry, _ = world
    with pytest.raises(identity.UnknownIdentity):
        records.traverse_public_records(led, registry, pair("ghost").public, set())


def test_traverse_empty_list(world):
    led, registry, _ = world
    owner = pair("owner")
    identity.register(led, registry, owner, identity.fingerprint_from_text("T:empty"))
    assert records.traverse_public_records(led, registry, owner.public, set()) == []


# -- fingerprint-wide filing -----------------------------------------------------------


def test_append_for_fingerprint_hits_every_listed_key(world):
    led, registry, factory = world
    fp = identity.fingerprint_from_text("US:999-88-7777")
    first, second, third = pair("key-one"), pair("key-two"), pair("key-three")
    for key in (first, second):
        identity.register(led, registry, key, fp)
        head = make_record(led, factory, key, b"opening statement")
        identity.set_first_public_record(led, registry, key, head)
    identity.register(led, registry, third, fp)  # head never initialized

    court = pair("court")
    results = records.append_for_fingerprint(led, registry, factory, court, fp,
                                             b"judgment: 3100")
    assert [key for key, _ in results] == [first.public, second.public, third.public]
    assert results[0][1] is not None and results[1][1] is not None
    assert results[2][1] is None  # no list to append to

    for key in (first, second):
        walked = records.traverse_public_records(led, registry, key.public,
                                                 {court.public})
        assert walked[-1].classification == records.CLASS_TRUSTED_PLAINTEXT
        assert walked[-1].plaintext == b"judgment: 3100"
