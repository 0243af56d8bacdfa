"""Every contract transition keeps the fields it does not write.

Each accepted commit in ``Ledger.history`` is compared with the state before
it, and the fields that differ must lie within what the committing function
may write.  A transition that rebuilt its state and dropped a field back to
its default would show here as a change its function may not make.
"""

import dataclasses
from pathlib import Path

import helpers

from creditchain import identity
from creditchain.harness import SimWorld, run_scenario

LIFECYCLE = Path(__file__).parent.parent / "scenarios" / "lifecycle.scn"

# a commit to an address that was not the transaction's target
STAGED = "<staged>"
# a registry commit that adds a record
NEW_RECORD = "<new record>"

WRITES = {
    ("credit_account", "commit"): {"commitment"},
    ("credit_account", "set_next"): {"next_account"},
    ("credit_account", "update_data"): {"data_mode", "data"},
    ("credit_account", "propose_expiration"): {"pending_expiration"},
    ("credit_account", "accept_expiration"): {"expiration", "pending_expiration"},
    ("public_record", "fill"): {"data_mode", "data", "signature"},
    ("public_record", "append"): {"next_record"},
    ("record_factory", "mint"): {"minted"},
    ("record_factory", STAGED): {"added"},
    ("identity", "register"): {NEW_RECORD},
    ("identity", "certify"): {"certificates"},
    ("identity", "decertify"): {"certificates"},
    ("identity", "set_first_credit_account"): {"first_credit_account"},
    ("identity", "set_first_public_record"): {"first_public_record"},
}


def _changed(before, after):
    """Names of the fields that differ.  For the registry: the fields of the
    one record that changed, or NEW_RECORD when a record was added."""
    if isinstance(before, identity.IdentityState):
        added = after.records.keys() - before.records.keys()
        edited = [key for key in before.records if before.records[key] != after.records[key]]
        assert len(added) + len(edited) <= 1, "one registry commit changed several records"
        if added:
            return {NEW_RECORD}
        return _changed(before.records[edited[0]], after.records[edited[0]]) if edited else set()
    return {f.name for f in dataclasses.fields(before)
            if getattr(before, f.name) != getattr(after, f.name)}


def _check_every_commit(led):
    """Check each accepted commit against WRITES; return the table rows
    whose function was seen to change something."""
    seen = set()
    for address in led.addresses():
        kind = led.contract_kind(address)
        history = led.history(address)
        for previous, entry in zip(history, history[1:]):
            function = entry.tx.function if entry.tx.target == address else STAGED
            row = (kind, function)
            assert row in WRITES, f"commit {row} is missing from the table"
            changed = _changed(previous.state, entry.state)
            assert changed <= WRITES[row], \
                f"{row} at block {entry.block} changed {sorted(changed - WRITES[row])}"
            if changed:
                seen.add(row)
    return seen


def test_transitions_keep_unwritten_fields():
    lifecycle = run_scenario(LIFECYCLE.read_text()).world.ledger
    fuzzed = helpers.ProtocolFuzzer(0).run(min_calls=300)
    seen = _check_every_commit(lifecycle) | _check_every_commit(fuzzed)
    # the scenario accepts an expiration, the fuzzer decertifies: between
    # them every row of the table changes something at least once
    assert seen == WRITES.keys(), sorted(WRITES.keys() - seen)


PENDING_PROPOSAL = """
GENKEY cust
GENKEY bank
REGISTER cust US:CUST-1
REGISTER bank US:BANK-1
CEREMONY cust bank a1
OPEN a1 500
CEREMONY cust bank a2
OPEN a2 500
APPEND cust HEAD a1
PROPOSE-EXP a1 institution 900
APPEND cust a1 a2
ACCEPT-EXP a1 customer 900
"""


def test_linking_keeps_a_pending_proposal():
    """``a2`` is linked after ``a1`` while ``a1`` has a proposal pending, so
    a ``set_next`` that dropped the proposal shows as a field it may not
    write, checked even when the accept that follows is then refused."""
    world = SimWorld()
    try:
        run_scenario(PENDING_PROPOSAL, world=world)
    finally:
        seen = _check_every_commit(world.ledger)
    assert {("credit_account", "set_next"), ("credit_account", "accept_expiration")} <= seen
