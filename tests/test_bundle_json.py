"""The bundle file writer and reader, and the reader's identity-key intern
table.

``bundle_to_json`` fills one hand-written template per object; the
reference here builds the dict tree and encodes it with the standard
library, and both must give the same bytes.  ``bundle_from_json`` reads each
key as README's key table says: a required key must be present and not
null, and an optional one may be absent.  Decoded public keys go through one
bounded intern table, which stores only keys that decode."""

import dataclasses
import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditchain import crypto, reader
from creditchain.ledger import Address

# -- the writer against a dict-tree reference ------------------------------------

_VARIANTS = {reader.KeyDisclosure: "keys", reader.PlaintextDisclosure: "plaintext"}


def _tree_value(value):
    if value is None:
        return None
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, Address):
        return value.digest.hex()
    if isinstance(value, crypto.PublicKey):
        return value.to_bytes().hex()
    if isinstance(value, crypto.PrivateKey):
        return value.master.hex()
    if isinstance(value, tuple):
        return list(value)
    raise TypeError(type(value))


def _tree(bundle):
    """The bundle as one dict per object, every field written, None as null."""
    entries = [{"variant": _VARIANTS[type(entry)],
                **{f.name: _tree_value(getattr(entry, f.name))
                   for f in dataclasses.fields(entry)}}
               for entry in bundle.entries]
    return {"entries": entries, "identity": _tree_value(bundle.identity),
            "window": _tree_value(bundle.window)}


_reference = json.JSONEncoder(sort_keys=True).encode

_bytes32 = st.binary(min_size=32, max_size=32)
_public = st.builds(crypto.PublicKey, _bytes32, _bytes32)
_private = st.builds(crypto.PrivateKey, _bytes32)
_address = st.builds(Address, _bytes32)
_blob = st.binary(max_size=40)

_key_entries = st.builds(reader.KeyDisclosure, _address, _public, _private,
                         st.none() | _private)
_plaintext_entries = st.builds(reader.PlaintextDisclosure, _address, _public, _public, _blob,
                               st.none() | _blob, st.none() | _blob, st.none() | _public)
_bundles = st.builds(reader.DisclosureBundle, _public,
                     st.lists(_key_entries | _plaintext_entries, max_size=4).map(tuple),
                     st.none() | st.tuples(st.integers(), st.integers()))


@settings(max_examples=300, deadline=None)
@given(_bundles)
def test_writer_gives_the_dict_tree_bytes(bundle):
    text = reader.bundle_to_json(bundle)
    assert text == _reference(_tree(bundle))
    assert reader.bundle_from_json(text) == bundle


def test_writer_gives_json_text_for_any_window():
    """A window that does not read back (a bool, a float, three values) is
    still written as json writes it."""
    bundle = reader.DisclosureBundle(crypto.PublicKey(bytes(32), bytes(32)), ())
    for window in [(True, 3), (1.5, 2), (1, 2, 3), [4, 5]]:
        odd = dataclasses.replace(bundle, window=window)
        assert reader.bundle_to_json(odd) == _reference(_tree(bundle) | {"window": list(window)})


# -- the reader against README's key table --------------------------------------

_REQUIRED = {
    "bundle": ("identity", "entries"),
    "keys": ("variant", "address", "institution_identity", "pointer_key"),
    "plaintext": ("variant", "address", "institution_identity", "pointer_public_key",
                  "link_nonce"),
}
_OPTIONAL = {
    "bundle": ("window",),
    "keys": ("data_key",),
    "plaintext": ("data_plaintext", "data_nonce", "data_public_key"),
}


def _filled(n):
    return bytes([n]) * 32


def _public_key(n):
    return crypto.PublicKey(_filled(n), _filled(n + 1))


# every optional value set, so that each one can be taken away
_FULL = reader.DisclosureBundle(_public_key(1), (
    reader.KeyDisclosure(Address(_filled(3)), _public_key(4), crypto.PrivateKey(_filled(6)),
                         crypto.PrivateKey(_filled(7))),
    reader.PlaintextDisclosure(Address(_filled(8)), _public_key(9), _public_key(11),
                               b"link nonce", b"data", b"data nonce", _public_key(13)),
), (3, 9))


_ENTRY_AT = {"keys": 0, "plaintext": 1}  # where _FULL holds each variant's entry


def _object(tree, name):
    """The bundle's dict, or the dict of its entry of variant ``name``."""
    return tree if name == "bundle" else tree["entries"][_ENTRY_AT[name]]


@pytest.mark.parametrize("name, key", [(name, key) for name, keys in _REQUIRED.items()
                                       for key in keys])
@pytest.mark.parametrize("absent", [True, False], ids=["absent", "null"])
def test_a_required_key_absent_or_null_does_not_decode(name, key, absent):
    tree = _tree(_FULL)
    if absent:
        del _object(tree, name)[key]
    else:
        _object(tree, name)[key] = None
    with pytest.raises(reader.MalformedInput):
        reader.bundle_from_json(json.dumps(tree))


@pytest.mark.parametrize("name, key", [(name, key) for name, keys in _OPTIONAL.items()
                                       for key in keys])
def test_an_optional_key_absent_reads_as_null(name, key):
    absent, null = _tree(_FULL), _tree(_FULL)
    del _object(absent, name)[key]
    _object(null, name)[key] = None
    read = reader.bundle_from_json(json.dumps(absent))
    assert read == reader.bundle_from_json(json.dumps(null))
    assert getattr(read if name == "bundle" else read.entries[_ENTRY_AT[name]], key) is None


def _shuffled(value, rng):
    """``value`` with the keys of every object in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {key: _shuffled(item, rng) for key, item in items}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


def test_an_indented_document_with_keys_in_any_order_reads_the_same():
    rng = random.Random(7)
    for _ in range(5):
        text = json.dumps(_shuffled(_tree(_FULL), rng), indent=2)
        assert reader.bundle_from_json(text) == _FULL


# -- the identity-key intern table ----------------------------------------------


@pytest.fixture
def cold_key_table():
    reader._public_from_hex.cache_clear()
    yield reader._public_from_hex
    reader._public_from_hex.cache_clear()


def _identity_bundle(hex_text):
    return json.dumps({"entries": [], "identity": hex_text})


def _distinct_key_hex(i):
    return (i.to_bytes(8, "big") + bytes(56)).hex()


def test_key_table_holds_memo_entries_under_its_ceiling(cold_key_table):
    tracemalloc.start()
    try:
        for i in range(reader.MEMO_ENTRIES + 10):
            reader.bundle_from_json(_identity_bundle(_distinct_key_hex(i)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cold_key_table.cache_info().currsize == reader.MEMO_ENTRIES
    assert held < reader.KEY_TABLE_CEILING_BYTES, f"key table holds {held} bytes"


def test_a_key_decoded_again_is_the_same_object(cold_key_table):
    first = reader.bundle_from_json(_identity_bundle(_distinct_key_hex(1))).identity
    again = reader.bundle_from_json(_identity_bundle(_distinct_key_hex(1))).identity
    assert again is first and again.to_bytes() == bytes.fromhex(_distinct_key_hex(1))


@pytest.mark.parametrize("hex_text", ["zz" * 64, "00" * 63, "00" * 65, 64, ["00"]],
                         ids=["bad-hex", "short", "long", "number", "list"])
def test_a_key_that_does_not_decode_is_not_stored(cold_key_table, hex_text):
    with pytest.raises(reader.MalformedInput):
        reader.bundle_from_json(_identity_bundle(hex_text))
    assert cold_key_table.cache_info().currsize == 0


def test_private_keys_and_addresses_are_not_interned(cold_key_table):
    entry = reader.KeyDisclosure(Address(bytes(32)), crypto.PublicKey(bytes(32), bytes(32)),
                                 crypto.PrivateKey(bytes(32)))
    text = reader.bundle_to_json(reader.DisclosureBundle(entry.institution_identity, (entry,)))
    first, again = (reader.bundle_from_json(text).entries[0] for _ in range(2))
    assert again.institution_identity is first.institution_identity
    assert again.pointer_key == first.pointer_key and again.pointer_key is not first.pointer_key
    assert again.address == first.address and again.address is not first.address
