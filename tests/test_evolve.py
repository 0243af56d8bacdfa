"""``ledger.evolve``: a state with only the named fields changed."""

from dataclasses import astuple, dataclass, replace

import pytest

from creditchain.credit_account import CreditAccountState
from creditchain.identity import IdentityRecord
from creditchain.ledger import evolve
from creditchain.public_records import PublicRecordState

ACCOUNT = CreditAccountState(customer_key=b"c" * 64, institution_key=b"i" * 64, expiration=9,
                             commitment=b"sig", data_mode="inline", data=b"x",
                             next_account=b"n", pending_expiration=(12, b"c" * 64))
RECORD = PublicRecordState(author_key=b"a" * 64, parent_factory=b"f" * 32,
                           data_mode="plaintext", data=b"lien", signature=b"s")
IDENTITY = IdentityRecord(fingerprint=b"p" * 32, first_credit_account=b"head",
                          certificates=(b"cert",))


@pytest.mark.parametrize("state, changes", [
    (ACCOUNT, {"data_mode": "external-hash", "data": b"y"}),
    (ACCOUNT, {"expiration": 12, "pending_expiration": None}),
    (ACCOUNT, {}),
    (RECORD, {"next_record": b"r" * 32}),
    (IDENTITY, {"certificates": ()}),
])
def test_evolve_equals_replace_and_keeps_its_input(state, changes):
    before = astuple(state)
    assert evolve(state, **changes) == replace(state, **changes)
    assert astuple(state) == before


def test_evolve_refuses_an_unknown_field():
    with pytest.raises(TypeError):
        evolve(ACCOUNT, next_record=b"r" * 32)


def test_evolve_runs_the_constructor():
    @dataclass(frozen=True, slots=True)
    class Positive:
        value: int

        def __post_init__(self):
            if self.value <= 0:
                raise ValueError(self.value)

    assert evolve(Positive(1), value=2) == Positive(2)
    with pytest.raises(ValueError):
        evolve(Positive(1), value=0)
