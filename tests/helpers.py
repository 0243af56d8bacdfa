"""Shared test machinery: a protocol fuzzer and canned world builders."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from creditchain import codec, crypto, identity, public_records
from creditchain import credit_account as accounts
from creditchain.harness import SimWorld, run_scenario
from creditchain.ledger import (
    Address,
    CallReceipt,
    ConstructorRejected,
    Ledger,
    UnknownAddress,
)


@dataclass
class FuzzAccount:
    address: Address
    customer: accounts.CustomerAccountView
    institution: accounts.InstitutionAccountView


class ProtocolFuzzer:
    """Random but plausibly-shaped traffic against one ledger.

    Every step submits one properly signed transaction (possibly doomed —
    wrong callers, repeated one-shot writes, expired accounts and malformed
    appends are all on the menu) so rejected and accepted paths interleave
    densely.  All randomness flows from the seed; two fuzzers with the same
    seed produce identical ledgers.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        seed_bytes = codec.pack(b"fuzz", codec.u64(seed & 0xFFFFFFFFFFFFFFFF))
        self.led = Ledger()
        self.root = crypto.generate_keypair(seed_bytes)
        self.registry = identity.deploy_registry(self.led, self.root)
        self.factory = public_records.deploy_factory(self.led, self.root)
        self.actors: list[crypto.KeyPair] = [self.root]
        self.registered: list[crypto.KeyPair] = []
        self.accounts: list[FuzzAccount] = []
        self.records: list[tuple[Address, crypto.KeyPair]] = []
        self._counter = 0

    # -- raw material -----------------------------------------------------

    def _fresh_bytes(self, tag: bytes) -> bytes:
        self._counter += 1
        return codec.pack(tag, codec.u64(self._counter), codec.u64(self.rng.getrandbits(64)))

    def _fresh_actor(self) -> crypto.KeyPair:
        pair = crypto.generate_keypair(self._fresh_bytes(b"actor"))
        self.actors.append(pair)
        return pair

    def _some_actor(self) -> crypto.KeyPair:
        return self.rng.choice(self.actors)

    # -- one random operation ----------------------------------------------

    def step(self) -> Optional[CallReceipt]:
        ops = [
            (self._op_register, 10),
            (self._op_certify, 8),
            (self._op_decertify, 4),
            (self._op_open_account, 10),
            (self._op_commit, 8),
            (self._op_link_account, 10),
            (self._op_update_data, 8),
            (self._op_negotiate, 8),
            (self._op_mint, 8),
            (self._op_fill, 6),
            (self._op_append_record, 8),
            (self._op_head_record, 4),
            (self._op_unknown_function, 2),
            (self._op_garbage_target, 1),
            (self._op_advance, 2),
        ]
        actions, weights = zip(*ops)
        action = self.rng.choices(actions, weights=weights)[0]
        return action()

    def run(self, min_calls: int = 50) -> Ledger:
        while len(self.led.log) < min_calls:
            self.step()
        return self.led

    # -- operations ---------------------------------------------------------

    def _op_register(self) -> CallReceipt:
        if self.registered and self.rng.random() < 0.2:
            pair = self.rng.choice(self.registered)  # doomed: already registered
        else:
            pair = self._fresh_actor()
        fingerprint = crypto.digest(self._fresh_bytes(b"fingerprint")) \
            if self.rng.random() < 0.8 else crypto.digest(b"shared-fingerprint")
        receipt = identity.register(self.led, self.registry, pair, fingerprint)
        if receipt.accepted:
            self.registered.append(pair)
        return receipt

    def _op_certify(self) -> CallReceipt:
        certifier = self._some_actor()
        subject = self._some_actor()  # may be unregistered: UnknownSubject
        return identity.certify(self.led, self.registry, certifier, subject.public)

    def _op_decertify(self) -> CallReceipt:
        certifier = self._some_actor()
        subject = self._some_actor()
        return identity.decertify(self.led, self.registry, certifier, subject.public)

    def _op_open_account(self) -> CallReceipt:
        customer_view, institution_view = accounts.key_ceremony(
            self._fresh_bytes(b"cust-seed"), self._fresh_bytes(b"inst-seed"))
        offset = self.rng.randrange(-4, 240)
        expiration = max(0, self.led.height + offset)
        try:
            address = accounts.create_account(
                self.led, institution_view.institution, customer_view.customer.public,
                institution_view.institution.public, expiration)
        except ConstructorRejected as exc:
            return CallReceipt(accepted=False, reason=exc.reason,
                               block=self.led.height, seq=-1)
        self.accounts.append(FuzzAccount(address, customer_view, institution_view))
        return CallReceipt(accepted=True, reason=None, block=self.led.height, seq=-1)

    def _op_commit(self) -> Optional[CallReceipt]:
        if not self.accounts:
            return None
        account = self.rng.choice(self.accounts)
        signer = self._some_actor()
        customer_identity = self._some_actor().public
        return accounts.commit_account(self.led, account.institution.institution,
                                       signer, account.address, customer_identity)

    def _op_link_account(self) -> Optional[CallReceipt]:
        if not self.accounts:
            return None
        target = self.rng.choice(self.accounts)
        nonce = self._fresh_bytes(b"nonce")
        if self.rng.random() < 0.3 and self.registered:
            owner = self.rng.choice(self.registered)
            return accounts.append_to_chain(self.led, owner, None, target.address,
                                            target.customer.shared_pointer.public, nonce,
                                            registry=self.registry)
        predecessor = self.rng.choice(self.accounts)
        # right owner key most of the time, a wrong one often enough
        caller = predecessor.customer.customer if self.rng.random() < 0.7 \
            else predecessor.institution.institution
        return accounts.append_to_chain(self.led, caller, predecessor.address,
                                        target.address,
                                        target.customer.shared_pointer.public, nonce)

    def _op_update_data(self) -> Optional[CallReceipt]:
        if not self.accounts:
            return None
        account = self.rng.choice(self.accounts)
        caller = account.institution.institution if self.rng.random() < 0.7 \
            else account.customer.customer
        return accounts.update_account_data(
            self.led, caller, account.address, self._fresh_bytes(b"doc"), "inline",
            account.institution.shared_data.public, self._fresh_bytes(b"nonce"))

    def _op_negotiate(self) -> Optional[CallReceipt]:
        if not self.accounts:
            return None
        account = self.rng.choice(self.accounts)
        party = self.rng.choice([account.customer.customer,
                                 account.institution.institution,
                                 self._some_actor()])
        value = self.rng.randrange(0, 400)
        if self.rng.random() < 0.5:
            return accounts.propose_expiration(self.led, party, account.address, value)
        # accept what is pending, so an expiration can move; no extra draw,
        # so every seed's sequence of random draws stays the same
        pending = self.led.read_state(account.address).pending_expiration
        if pending is not None:
            value = pending[0]
        return accounts.accept_expiration(self.led, party, account.address, value)

    def _op_mint(self) -> CallReceipt:
        author = self._some_actor()
        receipt = self.led.call(author, self.factory, "mint", b"")
        if receipt.accepted and receipt.result:
            self.records.append((Address(receipt.result), author))
        return receipt

    def _op_fill(self) -> Optional[CallReceipt]:
        if not self.records:
            return None
        record, author = self.rng.choice(self.records)
        caller = author if self.rng.random() < 0.7 else self._some_actor()
        return public_records.fill_record(self.led, caller, record,
                                          self._fresh_bytes(b"content"))

    def _op_append_record(self) -> Optional[CallReceipt]:
        if len(self.records) < 2:
            return None
        (tail, _), (new, new_author) = self.rng.sample(self.records, 2)
        caller = new_author if self.rng.random() < 0.7 else self._some_actor()
        return public_records.append_record(self.led, caller, tail, new)

    def _op_head_record(self) -> Optional[CallReceipt]:
        if not self.records or not self.registered:
            return None
        record, author = self.rng.choice(self.records)
        caller = author if self.rng.random() < 0.6 else self.rng.choice(self.registered)
        return identity.set_first_public_record(self.led, self.registry, caller, record)

    def _op_unknown_function(self) -> CallReceipt:
        return self.led.call(self._some_actor(), self.registry, "frobnicate", b"")

    def _op_garbage_target(self) -> None:
        target = Address(crypto.digest(self._fresh_bytes(b"nowhere")))
        try:
            self.led.call(self._some_actor(), target, "poke", b"")
        except UnknownAddress:
            return None
        raise AssertionError("a call to a nonexistent address went through")

    def _op_advance(self) -> None:
        self.led.advance_block(self.rng.randrange(1, 4))
        return None


# ---------------------------------------------------------------------------
# Canned worlds
# ---------------------------------------------------------------------------


def chain_scenario(n_accounts: int, customer: str = "cust",
                   expiration: int = 10_000) -> str:
    """Scenario text for one customer with an n-account committed chain."""
    lines = [f"GENKEY {customer}", f"REGISTER {customer} FUZZ:{customer.upper()}"]
    for i in range(n_accounts):
        lines.append(f"GENKEY inst{i}")
        lines.append(f"REGISTER inst{i} FUZZ:INST-{i}")
    for i in range(n_accounts):
        name = f"acct{i}"
        predecessor = "HEAD" if i == 0 else f"acct{i - 1}"
        lines += [
            f"CEREMONY {customer} inst{i} {name}",
            f"OPEN {name} {expiration}",
            f"COMMIT {name}",
            f"APPEND {customer} {predecessor} {name}",
            f"UPDATE {name} inline \"entry {i}: balance {100 * (i + 1)}\"",
        ]
    return "\n".join(lines) + "\n"


def build_chain_world(n_accounts: int, customer: str = "cust") -> SimWorld:
    return run_scenario(chain_scenario(n_accounts, customer)).world


def write_raw_payload(world: SimWorld, account: str, payload: bytes,
                      mode: str = accounts.DATA_MODE_INLINE) -> None:
    """Have the account's institution store ``payload`` as its data, bytes
    as given rather than encoded by ``encode_data_payload``.  The contract
    checks only the mode tag beside the ciphertext, so the write is accepted
    whatever the payload holds, and the world's bundles disclose it."""
    handle = world.account(account)
    nonce = world.data_nonce(account, handle.update_count)
    ciphertext = crypto.encrypt(handle.institution_view.shared_data.public, nonce, payload)
    receipt = world.ledger.call(handle.institution_view.institution, handle.address,
                                "update_data",
                                codec.pack(codec.text(mode), ciphertext))
    assert receipt.accepted, receipt
    handle.update_count += 1
    handle.latest_payload = payload
