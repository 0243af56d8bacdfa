"""Each off-chain format and walk has one implementation: one payload encode
per account update, one public-record list walker (which the chain-validity
audit uses), and one bundle writer per object, whose output bytes are
pinned.  And each contract state is encoded once for as long as it stays
unchanged."""

import dataclasses
import hashlib
from pathlib import Path

import pytest

from creditchain import credit_account as accounts
from creditchain import harness, public_records, reader
from creditchain.harness import AuditFailure, run_scenario, run_scenario_file
from creditchain.ledger import CONTRACT_KINDS, Ledger

LIFECYCLE = Path(__file__).parent.parent / "scenarios" / "lifecycle.scn"

# sha256 of bundle_to_json on the chain5 bundle with window (3, 9) and acct1
# withheld; a key renamed in both writer and reader would still round-trip
BUNDLE_JSON_SHA256 = {
    "keys": "b96701777b7c030113f9ffe291e51e9264ead60a1314959fded5efcc9b6dff6e",
    "plaintext": "81c2cd64286ddc8868c230d0760e5d4382287a568e5ca204dea2cd112b5e982f",
}


@pytest.fixture
def lifecycle_world():
    return run_scenario_file(LIFECYCLE).world


def _doctor(world, address, **changes):
    """Overwrite one contract's current state, bypassing every contract check."""
    record = world.ledger._contracts[address]
    record.state = dataclasses.replace(record.state, **changes)


@pytest.mark.parametrize("changes", [
    lambda world: {"next_record": world.account("a-acct1").address.digest},
    lambda world: {"next_record": b"\x01" * 32},
    lambda world: {"next_record": b"\x01" * 5},
    lambda world: {"parent_factory": world.account("a-acct1").address.digest},
], ids=["next-is-credit-account", "next-is-unknown-address", "next-is-5-bytes",
        "parent-is-not-a-factory"])
def test_audit_refuses_doctored_record_list(lifecycle_world, changes):
    world = lifecycle_world
    _doctor(world, world.records["a-lien"].address, **changes(world))
    with pytest.raises(AuditFailure):
        harness.audit_chain_validity(world, strict=False)


@pytest.mark.parametrize("pointer", [b"\x01" * 5, b"\x01" * 33], ids=["short", "long"])
def test_walker_refuses_pointer_of_wrong_length(lifecycle_world, pointer):
    world = lifecycle_world
    with pytest.raises(public_records.BrokenChain):
        list(public_records.walk_public_records(world.ledger, pointer))
    _doctor(world, world.records["a-lien"].address, next_record=pointer)
    with pytest.raises(public_records.BrokenChain):
        list(public_records.walk_public_records(world.ledger,
                                                world.records["a-marker"].address.digest))


def test_audit_refuses_record_in_two_lists(lifecycle_world):
    world = lifecycle_world
    harness.audit_chain_validity(world)
    registry = world.ledger.read_state(world.registry)
    bob = world.actor("bob").public.to_bytes()
    shared = world.records["a-marker"].address.digest
    _doctor(world, world.registry, records={
        **registry.records,
        bob: dataclasses.replace(registry.records[bob], first_public_record=shared)})
    with pytest.raises(AuditFailure, match="two list positions"):
        harness.audit_chain_validity(world, strict=False)


def test_one_payload_encode_per_accepted_update(monkeypatch):
    encodes, puts = [], []
    encode, put = accounts.encode_data_payload, accounts.BlobStore.put

    def counted_encode(*args, **kwargs):
        encodes.append(args)
        return encode(*args, **kwargs)

    def counted_put(self, data):
        puts.append(data)
        return put(self, data)

    monkeypatch.setattr(accounts, "encode_data_payload", counted_encode)
    monkeypatch.setattr(accounts.BlobStore, "put", counted_put)
    world = run_scenario_file(LIFECYCLE).world
    updates = [e for e in world.ledger.log if e.accepted and e.tx.function == "update_data"]
    assert len(updates) == 5
    assert len(encodes) == len(updates)
    external = [args for args in encodes if args[0] == accounts.DATA_MODE_EXTERNAL]
    assert len(external) == 1
    assert puts == [external[0][1]]
    assert len(world.blobs) == 1


@pytest.mark.parametrize("variant", ["keys", "plaintext"])
def test_bundle_json_bytes_are_pinned(chain5_world, variant):
    world = chain5_world
    bundle = world.build_bundle("cust", variant=variant, window=(3, 9),
                                withhold=frozenset({world.chain_names("cust")[1]}))
    text = reader.bundle_to_json(bundle)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BUNDLE_JSON_SHA256[variant]
    assert reader.bundle_from_json(text) == bundle


def _count_state_encodes(monkeypatch):
    """Route every contract kind's encode_state through a counter."""
    encoded = []
    for cls in CONTRACT_KINDS.values():
        def counted(state, _real=cls.encode_state):
            encoded.append(state)
            return _real(state)
        monkeypatch.setattr(cls, "encode_state", staticmethod(counted))
    return encoded


def test_unchanged_ledger_encodes_each_state_once(lifecycle_world, monkeypatch):
    led = lifecycle_world.ledger
    encoded = _count_state_encodes(monkeypatch)
    first = led.export()
    assert len(encoded) == len(led.addresses())
    assert led.export() == first
    assert len(encoded) == len(led.addresses())


def test_export_after_a_call_encodes_only_the_changed_state(monkeypatch):
    world = run_scenario_file(LIFECYCLE).world
    led = world.ledger
    led.export()
    encoded = _count_state_encodes(monkeypatch)
    run_scenario('UPDATE a-acct1 inline "a new balance"\n', world=world)
    again = led.export()
    assert encoded == [led.read_state(world.account("a-acct1").address)]
    assert Ledger.replay(again).export() == again
