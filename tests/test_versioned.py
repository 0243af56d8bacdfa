"""Versioned maps: every saved version reads like the dict it stood for,
writes from the newest version never copy, and the registry and factory
encode a versioned map exactly as they encode the plain dict."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditchain import crypto, identity, public_records, versioned
from creditchain.identity import IdentityContract, IdentityRecord, IdentityState
from creditchain.ledger import CallContext, Ledger, make_transaction
from creditchain.public_records import FactoryState, RecordFactoryContract
from creditchain.versioned import VersionedMap, put

KEYS = [bytes([i]) * 32 for i in range(6)]
ABSENT = b"\xff" * 32


def _record(tag: int) -> IdentityRecord:
    return IdentityRecord(fingerprint=bytes([tag]) * 32,
                          certificates=tuple(bytes([c]) * 32 for c in range(tag % 3)))


# one write: (how many saved versions back from the newest to write from,
# key, value tag, whether to write from a plain-dict copy of that version);
# 0 is the newest, which Hypothesis tries most and shrinks towards
_writes = st.lists(st.tuples(st.integers(0, 30), st.sampled_from(KEYS),
                             st.integers(0, 255), st.booleans()),
                   max_size=25)


def _assert_reads_as(version, model: dict) -> None:
    assert list(version.items()) == list(model.items())
    assert list(version) == list(model)
    assert len(version) == len(model)
    assert version == model
    for key in KEYS + [ABSENT]:
        assert (key in version) == (key in model)
        assert version.get(key, "none") == model.get(key, "none")
        if key in model:
            assert version[key] == model[key]
        else:
            with pytest.raises(KeyError):
                version[key]


@settings(max_examples=150, deadline=None)
@given(_writes)
def test_every_saved_version_matches_its_dict(writes):
    # (records version, its model, set version, its model), oldest first
    saved = [(VersionedMap(), {}, VersionedMap(), {})]
    for back, key, tag, from_dict in writes:
        records, records_model, members, members_model = saved[-1 - back % len(saved)]
        if from_dict:
            records, members = dict(records_model), dict(members_model)
        value = _record(tag)
        saved.append((put(records, key, value), {**records_model, key: value},
                      put(members, key, None), {**members_model, key: None}))
        for records, records_model, members, members_model in saved:
            _assert_reads_as(records, records_model)
            _assert_reads_as(members, members_model)
    for records, records_model, members, members_model in saved:
        assert (IdentityContract.encode_state(IdentityState(records=records))
                == IdentityContract.encode_state(IdentityState(records=records_model)))
        assert (RecordFactoryContract.encode_state(FactoryState(minted=members, added=members))
                == RecordFactoryContract.encode_state(FactoryState(minted=members_model,
                                                                   added=members_model)))


def test_put_leaves_a_plain_dict_alone():
    plain = {KEYS[0]: 1}
    written = put(plain, KEYS[1], 2)
    assert plain == {KEYS[0]: 1}
    assert dict(written) == {KEYS[0]: 1, KEYS[1]: 2}


def test_views_read_their_version_after_later_puts():
    """A values() or items() view taken from the newest version, and an
    iteration begun over one, still read that version once later puts
    replace a value and add a key."""
    newest = put(put(VersionedMap(), KEYS[0], "a"), KEYS[1], "b")
    values, items = newest.values(), newest.items()
    started_values, started_items = iter(newest.values()), iter(newest.items())
    assert next(started_values) == "a" and next(started_items) == (KEYS[0], "a")
    later = put(put(newest, KEYS[1], "B"), KEYS[2], "c")
    assert list(values) == ["a", "b"]
    assert list(items) == [(KEYS[0], "a"), (KEYS[1], "b")]
    assert list(started_values) == ["b"]
    assert list(started_items) == [(KEYS[1], "b")]
    assert "b" in values and (KEYS[1], "b") in items and (KEYS[1], "B") not in items
    assert list(later.values()) == ["a", "B", "c"]
    assert list(later.items()) == [(KEYS[0], "a"), (KEYS[1], "B"), (KEYS[2], "c")]


@pytest.fixture
def copies(monkeypatch):
    """The length of every map the copy path copies, in order."""
    seen = []
    copied = versioned._copied

    def counted(mapping):
        seen.append(len(mapping))
        return copied(mapping)

    monkeypatch.setattr(versioned, "_copied", counted)
    return seen


def test_registry_writes_do_not_copy(copies):
    led = Ledger()
    registry = identity.deploy_registry(led, crypto.generate_keypair(b"registry-root"))
    customers = [crypto.generate_keypair(b"customer %d" % i) for i in range(2000)]
    for i, customer in enumerate(customers):
        assert identity.register(led, registry, customer, b"fp %d" % i).accepted
    certifier = crypto.generate_keypair(b"certifier")
    assert identity.certify(led, registry, certifier, customers[0].public).accepted
    assert copies == []

    saved = led.read_state(registry)
    assert identity.certify(led, registry, certifier, customers[1].public).accepted
    assert copies == []
    late = crypto.generate_keypair(b"late")
    tx = make_transaction(late, registry, "register", b"fp late")
    after = IdentityContract.apply(saved, CallContext(led, tx, len(led.log), registry),
                                   "register", b"fp late")
    assert copies == [2000]
    assert len(after.records) == 2001 and len(saved.records) == 2000
    assert saved.records[customers[1].public.to_bytes()].certificates == ()


def test_factory_mints_and_links_do_not_copy(copies):
    led = Ledger()
    root = crypto.generate_keypair(b"records-root")
    registry = identity.deploy_registry(led, root)
    factory = public_records.deploy_factory(led, root)
    author = crypto.generate_keypair(b"author")
    identity.register(led, registry, author, b"fp author")
    addresses = [public_records.mint_record(led, factory, author) for _ in range(200)]
    assert identity.set_first_public_record(led, registry, author, addresses[0]).accepted
    for tail, record in zip(addresses, addresses[1:]):
        assert public_records.append_record(led, author, tail, record).accepted
    # a refused link writes nothing, so the next link still writes the
    # newest version: check 3 (already linked), check 4 (a pre-built tail)
    loose, behind, last = (public_records.mint_record(led, factory, author) for _ in range(3))
    assert public_records.append_record(led, author, loose, behind).accepted
    tail = addresses[-1]
    assert public_records.append_record(led, author, tail, addresses[5]).reason == "InvalidRecord(3)"
    assert public_records.append_record(led, author, tail, loose).reason == "InvalidRecord(4)"
    assert public_records.append_record(led, author, tail, last).accepted
    assert copies == []
    state = led.read_state(factory)
    assert list(state.minted) == [a.digest for a in addresses + [loose, behind, last]]
    assert list(state.added) == [a.digest for a in addresses + [behind, last]]
