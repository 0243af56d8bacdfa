import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from creditchain import codec, crypto, identity
from creditchain import credit_account as accounts
from creditchain.ledger import ConstructorRejected, Ledger


@pytest.fixture
def led():
    return Ledger()


@pytest.fixture
def views():
    return accounts.key_ceremony(b"customer seed", b"institution seed")


@pytest.fixture
def account(led, views):
    cust, inst = views
    return accounts.create_account(led, inst.institution, cust.customer.public,
                                   inst.institution.public, expiration=100)


# -- ceremony ------------------------------------------------------------------


def test_ceremony_gives_both_sides_the_shared_pairs(views):
    cust, inst = views
    assert cust.shared_data == inst.shared_data
    assert cust.shared_pointer == inst.shared_pointer
    assert cust.institution_public == inst.institution.public
    assert inst.customer_public == cust.customer.public


def test_ceremony_keys_are_all_distinct(views):
    cust, inst = views
    publics = {cust.customer.public.to_bytes(), inst.institution.public.to_bytes(),
               cust.shared_data.public.to_bytes(), cust.shared_pointer.public.to_bytes()}
    assert len(publics) == 4


def test_ceremony_is_deterministic():
    a = accounts.key_ceremony(b"cs", b"is")
    b = accounts.key_ceremony(b"cs", b"is")
    assert a[0].customer.public == b[0].customer.public
    assert a[0].shared_pointer.private.to_bytes() == b[0].shared_pointer.private.to_bytes()


def test_ceremony_depends_on_both_seeds():
    base = accounts.key_ceremony(b"cs", b"is")
    other_cust = accounts.key_ceremony(b"cs2", b"is")
    other_inst = accounts.key_ceremony(b"cs", b"is2")
    assert base[0].shared_data.public != other_cust[0].shared_data.public
    assert base[0].shared_data.public != other_inst[0].shared_data.public


def test_ceremony_rejects_empty_seed():
    with pytest.raises(crypto.EmptySeed):
        accounts.key_ceremony(b"", b"is")
    with pytest.raises(crypto.EmptySeed):
        accounts.key_ceremony(b"cs", b"")


# -- creation --------------------------------------------------------------------


def test_create_account_state(led, views, account):
    cust, inst = views
    state = led.read_state(account)
    assert state.customer_key == cust.customer.public.to_bytes()
    assert state.institution_key == inst.institution.public.to_bytes()
    assert state.expiration == 100
    assert state.commitment is None
    assert state.data is None
    assert state.next_account is None


def test_create_account_rejects_past_expiration(led, views):
    cust, inst = views
    led.advance_block(10)
    with pytest.raises(ConstructorRejected) as err:
        accounts.create_account(led, inst.institution, cust.customer.public,
                                inst.institution.public, expiration=5)
    assert err.value.reason == "ExpirationInPast"


def test_create_account_rejects_malformed_keys(led, views):
    cust, inst = views
    with pytest.raises(ConstructorRejected) as err:
        led.deploy(inst.institution, "credit_account",
                   codec.pack(b"short", inst.institution.public.to_bytes(), codec.u64(50)))
    assert err.value.reason == "BadArguments"


@pytest.mark.parametrize("expiration", [codec.u64(500) + b"\x07", codec.u64(500)[:7]],
                         ids=["nine-bytes", "seven-bytes"])
def test_create_account_rejects_expiration_not_eight_bytes(led, views, expiration):
    cust, inst = views
    with pytest.raises(ConstructorRejected) as err:
        led.deploy(inst.institution, "credit_account",
                   codec.pack(cust.customer.public.to_bytes(), inst.institution.public.to_bytes(),
                              expiration))
    assert err.value.reason == "BadArguments"
    [entry] = led.log
    assert (entry.accepted, entry.reason) == (False, "BadArguments")
    assert led.addresses() == []


# -- commitment --------------------------------------------------------------------


def test_commit_and_verify(led, views, account):
    cust, inst = views
    inst_id = crypto.generate_keypair(b"inst true identity")
    cust_id = crypto.generate_keypair(b"cust true identity")
    receipt = accounts.commit_account(led, inst.institution, inst_id, account,
                                      cust_id.public)
    assert receipt.accepted
    state = led.read_state(account)
    assert accounts.verify_commitment(state, account, inst_id.public, cust_id.public)
    # bound to the claimed parties
    other = crypto.generate_keypair(b"other identity")
    assert not accounts.verify_commitment(state, account, inst_id.public, other.public)
    assert not accounts.verify_commitment(state, account, other.public, cust_id.public)


def test_commit_is_write_once(led, views, account):
    cust, inst = views
    inst_id = crypto.generate_keypair(b"inst true identity")
    accounts.commit_account(led, inst.institution, inst_id, account,
                            crypto.generate_keypair(b"c1").public)
    second = accounts.commit_account(led, inst.institution, inst_id, account,
                                     crypto.generate_keypair(b"c2").public)
    assert second.reason == "AlreadyCommitted"


def test_commitment_signature_rejects_every_bit_flip(led, views, account):
    cust, inst = views
    inst_id = crypto.generate_keypair(b"inst true identity")
    cust_id = crypto.generate_keypair(b"cust true identity")
    accounts.commit_account(led, inst.institution, inst_id, account, cust_id.public)
    state = led.read_state(account)
    for i in range(len(state.commitment) * 8):
        bad = bytearray(state.commitment)
        bad[i // 8] ^= 1 << (i % 8)
        forged = dataclasses.replace(state, commitment=bytes(bad))
        assert not accounts.verify_commitment(forged, account, inst_id.public,
                                              cust_id.public)


def test_garbage_commitment_is_stored_but_never_verifies(led, views, account):
    """The contract cannot check the signature — it stores whatever arrives.
    The check happens off-chain, where it reliably fails."""
    cust, inst = views
    receipt = led.call(cust.customer, account, "commit", b"not a signature")
    assert receipt.accepted
    state = led.read_state(account)
    inst_id = crypto.generate_keypair(b"inst true identity")
    assert not accounts.verify_commitment(state, account, inst_id.public,
                                          crypto.generate_keypair(b"c").public)


def test_verify_commitment_raises_when_absent(led, views, account):
    state = led.read_state(account)
    with pytest.raises(accounts.NoCommitment):
        accounts.verify_commitment(state, account,
                                   crypto.generate_keypair(b"i").public,
                                   crypto.generate_keypair(b"c").public)


# -- next pointer --------------------------------------------------------------------


def second_account(led):
    cust2, inst2 = accounts.key_ceremony(b"customer seed 2", b"institution seed 2")
    address = accounts.create_account(led, inst2.institution, cust2.customer.public,
                                      inst2.institution.public, expiration=200)
    return cust2, inst2, address


def test_set_next_by_customer_round_trips(led, views, account):
    cust, inst = views
    cust2, _, successor = second_account(led)
    receipt = accounts.append_to_chain(led, cust.customer, account, successor,
                                       cust2.shared_pointer.public, b"nonce-1")
    assert receipt.accepted
    state = led.read_state(account)
    assert state.next_account is not None
    assert state.next_account != successor.digest  # encrypted, not plaintext
    plain = crypto.decrypt(cust2.shared_pointer.private, state.next_account)
    assert plain == successor.digest


def test_set_next_rejects_non_owner(led, views, account):
    cust, inst = views
    cust2, _, successor = second_account(led)
    for wrong in (inst.institution, crypto.generate_keypair(b"stranger")):
        receipt = accounts.append_to_chain(led, wrong, account, successor,
                                           cust2.shared_pointer.public, b"n")
        assert receipt.reason == "NotChainOwner"
    assert led.read_state(account).next_account is None


def test_set_next_write_once(led, views, account):
    cust, _ = views
    cust2, _, successor = second_account(led)
    accounts.append_to_chain(led, cust.customer, account, successor,
                             cust2.shared_pointer.public, b"n1")
    receipt = accounts.append_to_chain(led, cust.customer, account, successor,
                                       cust2.shared_pointer.public, b"n2")
    assert receipt.reason == "PointerAlreadySet"


def test_pointer_unreadable_with_other_shared_key(led, views, account):
    cust, _ = views
    cust2, _, successor = second_account(led)
    accounts.append_to_chain(led, cust.customer, account, successor,
                             cust2.shared_pointer.public, b"n")
    state = led.read_state(account)
    with pytest.raises(crypto.WrongKey):
        crypto.decrypt(cust2.shared_data.private, state.next_account)


def test_head_link_goes_through_registry(led, views):
    cust, _ = views
    root = crypto.generate_keypair(b"root")
    registry = identity.deploy_registry(led, root)
    owner = crypto.generate_keypair(b"owner identity")
    identity.register(led, registry, owner, identity.fingerprint_from_text("X:1"))
    cust2, _, target = second_account(led)

    receipt = accounts.append_to_chain(led, owner, None, target,
                                       cust2.shared_pointer.public, b"head-nonce",
                                       registry=registry)
    assert receipt.accepted
    record = identity.get_record(led.read_state(registry), owner.public)
    assert crypto.decrypt(cust2.shared_pointer.private,
                          record.first_credit_account) == target.digest


def test_head_link_requires_registry_argument(led, views):
    cust, _ = views
    cust2, _, target = second_account(led)
    with pytest.raises(ValueError):
        accounts.append_to_chain(led, cust.customer, None, target,
                                 cust2.shared_pointer.public, b"n")


# -- data updates ----------------------------------------------------------------------


def test_update_data_inline_round_trip(led, views, account):
    cust, inst = views
    receipt = accounts.update_account_data(led, inst.institution, account,
                                           b"balance: 120.50", accounts.DATA_MODE_INLINE,
                                           inst.shared_data.public, b"nonce-d1")
    assert receipt.accepted
    state = led.read_state(account)
    assert state.data_mode == accounts.DATA_MODE_INLINE
    assert b"balance" not in state.data  # ciphertext only on-chain
    payload = crypto.decrypt(cust.shared_data.private, state.data)
    decoded = accounts.decode_data_payload(payload)
    assert decoded.inline == b"balance: 120.50"


def test_update_data_is_rewritable(led, views, account):
    cust, inst = views
    for doc in (b"v1", b"v2", b"v3"):
        accounts.update_account_data(led, inst.institution, account, doc,
                                     accounts.DATA_MODE_INLINE,
                                     inst.shared_data.public, b"n-" + doc)
    payload = crypto.decrypt(cust.shared_data.private, led.read_state(account).data)
    assert accounts.decode_data_payload(payload).inline == b"v3"


def test_update_data_external_mode(led, views, account):
    cust, inst = views
    store = accounts.BlobStore()
    doc = b"a very large statement" * 100
    receipt = accounts.update_account_data(led, inst.institution, account, doc,
                                           accounts.DATA_MODE_EXTERNAL,
                                           inst.shared_data.public, b"n", blob_store=store)
    assert receipt.accepted
    payload = crypto.decrypt(cust.shared_data.private, led.read_state(account).data)
    decoded = accounts.decode_data_payload(payload)
    assert decoded.content_digest == crypto.digest(doc)
    assert store.get(decoded.blob_id) == doc
    # the chain never carries the document itself
    assert len(led.read_state(account).data) < len(doc)


def test_update_data_external_requires_store(led, views, account):
    _, inst = views
    with pytest.raises(ValueError):
        accounts.update_account_data(led, inst.institution, account, b"doc",
                                     accounts.DATA_MODE_EXTERNAL,
                                     inst.shared_data.public, b"n")


def test_update_data_customer_rejected(led, views, account):
    cust, inst = views
    receipt = accounts.update_account_data(led, cust.customer, account, b"fake",
                                           accounts.DATA_MODE_INLINE,
                                           inst.shared_data.public, b"n")
    assert receipt.reason == "NotInstitution"


def test_update_data_expiration_boundary(led, views):
    cust, inst = views
    account = accounts.create_account(led, inst.institution, cust.customer.public,
                                      inst.institution.public,
                                      expiration=led.height + 3)
    expiration = led.read_state(account).expiration

    led.advance_block(expiration - led.height)  # exactly at the boundary
    at_boundary = accounts.update_account_data(led, inst.institution, account, b"last",
                                               accounts.DATA_MODE_INLINE,
                                               inst.shared_data.public, b"n1")
    assert at_boundary.accepted

    past = accounts.update_account_data(led, inst.institution, account, b"late",
                                        accounts.DATA_MODE_INLINE,
                                        inst.shared_data.public, b"n2")
    assert past.reason == "Expired"


def test_update_data_malformed_args(led, views, account):
    _, inst = views
    receipt = led.call(inst.institution, account, "update_data", b"\xff\xff")
    assert receipt.reason == "BadArguments"
    receipt = led.call(inst.institution, account, "update_data",
                       codec.pack(codec.text("no-such-mode"), b"x"))
    assert receipt.reason == "BadArguments"


# -- expiration negotiation ---------------------------------------------------------------


def test_negotiation_happy_path(led, views, account):
    cust, inst = views
    assert accounts.propose_expiration(led, cust.customer, account, 160).accepted
    assert led.read_state(account).pending_expiration is not None
    assert accounts.accept_expiration(led, inst.institution, account, 160).accepted
    state = led.read_state(account)
    assert state.expiration == 160
    assert state.pending_expiration is None


def test_negotiation_can_shorten(led, views, account):
    cust, inst = views
    accounts.propose_expiration(led, inst.institution, account, 40)
    accounts.accept_expiration(led, cust.customer, account, 40)
    assert led.read_state(account).expiration == 40


def test_negotiation_self_accept_rejected(led, views, account):
    cust, _ = views
    accounts.propose_expiration(led, cust.customer, account, 160)
    receipt = accounts.accept_expiration(led, cust.customer, account, 160)
    assert receipt.reason == "SelfAccept"
    assert led.read_state(account).expiration == 100


def test_negotiation_requires_pending(led, views, account):
    _, inst = views
    receipt = accounts.accept_expiration(led, inst.institution, account, 160)
    assert receipt.reason == "NoPendingProposal"


def test_negotiation_value_must_match(led, views, account):
    cust, inst = views
    accounts.propose_expiration(led, cust.customer, account, 160)
    receipt = accounts.accept_expiration(led, inst.institution, account, 170)
    assert receipt.reason == "NoPendingProposal"
    assert led.read_state(account).expiration == 100


def test_counter_proposal_replaces_pending(led, views, account):
    cust, inst = views
    accounts.propose_expiration(led, cust.customer, account, 160)
    accounts.propose_expiration(led, inst.institution, account, 140)
    # the institution's counter displaced the original, and it is now the proposer
    assert accounts.accept_expiration(led, inst.institution, account, 160).reason \
        == "SelfAccept"
    receipt = accounts.accept_expiration(led, cust.customer, account, 140)
    assert receipt.accepted
    assert led.read_state(account).expiration == 140


def test_negotiation_strangers_rejected(led, views, account):
    stranger = crypto.generate_keypair(b"stranger")
    assert accounts.propose_expiration(led, stranger, account, 10).reason == "NotParty"
    assert accounts.accept_expiration(led, stranger, account, 10).reason == "NotParty"


# -- payload codec and blob store ---------------------------------------------------------


@given(st.binary(max_size=300))
def test_inline_payload_round_trip(doc):
    payload = accounts.encode_data_payload(accounts.DATA_MODE_INLINE, doc)
    decoded = accounts.decode_data_payload(payload)
    assert decoded.mode == accounts.DATA_MODE_INLINE
    assert decoded.inline == doc


@given(st.binary(max_size=300))
def test_external_payload_round_trip(doc):
    store = accounts.BlobStore()
    payload = accounts.encode_data_payload(accounts.DATA_MODE_EXTERNAL, doc, store)
    decoded = accounts.decode_data_payload(payload)
    assert decoded.mode == accounts.DATA_MODE_EXTERNAL
    assert decoded.content_digest == crypto.digest(doc)
    assert store.get(decoded.blob_id) == doc


def test_blob_store_is_content_addressed():
    store = accounts.BlobStore()
    a = store.put(b"same")
    b = store.put(b"same")
    assert a == b
    assert len(store) == 1
    assert a in store


# -- payload decoding ----------------------------------------------------------------


def _decode_field_by_field(payload):
    """A sequential decoder of the payload layout, field by field, that
    ``decode_data_payload``'s one pass must agree with."""
    reader = codec.ByteReader(payload)
    mode = reader.text()
    if mode == accounts.DATA_MODE_INLINE:
        decoded = accounts.DecodedPayload(mode=mode, inline=reader.blob())
    elif mode == accounts.DATA_MODE_EXTERNAL:
        decoded = accounts.DecodedPayload(mode=mode, content_digest=reader.blob(),
                                          blob_id=reader.text())
    else:
        raise codec.DecodeError(f"unknown payload mode {mode!r}")
    reader.expect_end()
    return decoded


INLINE = codec.pack(codec.text(accounts.DATA_MODE_INLINE), b"doc")
EXTERNAL = codec.pack(codec.text(accounts.DATA_MODE_EXTERNAL), crypto.digest(b"doc"),
                      codec.text(crypto.digest(b"doc").hex()))
BAD_PAYLOADS = {
    "empty": b"",
    "unknown-mode": codec.pack(b"telepathy", b"doc"),
    "mode-not-utf8": codec.pack(b"\xff\xfe", b"doc"),
    "blob-id-not-utf8": codec.pack(codec.text(accounts.DATA_MODE_EXTERNAL), b"d", b"\xff"),
    "inline-missing-document": codec.pack(codec.text(accounts.DATA_MODE_INLINE)),
    "external-missing-blob-id": codec.pack(codec.text(accounts.DATA_MODE_EXTERNAL), b"d"),
    "short-prefix": INLINE[:2],
    "short-field": INLINE[:-1],
    "trailing-byte": INLINE + b"\x00",
    "trailing-field": INLINE + codec.pack(b"more"),
    "external-trailing-field": EXTERNAL + codec.pack(b""),
}


@pytest.mark.parametrize("case", sorted(BAD_PAYLOADS))
def test_decode_data_payload_refuses(case):
    with pytest.raises(codec.DecodeError):
        accounts.decode_data_payload(BAD_PAYLOADS[case])


@pytest.mark.parametrize("payload", [INLINE, EXTERNAL], ids=["inline", "external"])
def test_decode_data_payload_reads_each_mode(payload):
    assert accounts.decode_data_payload(payload) == _decode_field_by_field(payload)


PAYLOAD_FIELDS = st.sampled_from([codec.text(m) for m in accounts.DATA_MODES]
                                 + [b"", b"\xff", b"inline "]) | st.binary(max_size=6)


@given(fields=st.lists(PAYLOAD_FIELDS, max_size=4), cut=st.integers(0, 3),
       extra=st.binary(max_size=5))
def test_decode_data_payload_agrees_with_field_by_field_reading(fields, cut, extra):
    """Packed fields, cut short or with bytes after them: the one-pass
    decoder gives what the sequential one gives, or both refuse."""
    payload = codec.pack(*fields)
    payload = payload[:len(payload) - cut] + extra
    try:
        expected = _decode_field_by_field(payload)
    except codec.DecodeError:
        with pytest.raises(codec.DecodeError):
            accounts.decode_data_payload(payload)
    else:
        assert accounts.decode_data_payload(payload) == expected
