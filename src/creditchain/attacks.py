"""Adversarial suites: scripted attackers that must come away empty-handed.

Each suite builds a small world, lets an attacker try everything the
protocol is supposed to forbid, and checks both that every attempt bounces
with the right reason and that the victim's on-chain state is bit-for-bit
untouched afterwards.  Actions the protocol deliberately allows (an
untrusted author appending junk to a public list, a customer padding their
own chain) are counted separately as ``allowed_by_design`` — the defence
against those lives in the reader, and the suites check that too.

The suites are deterministic for a given seed; the fuzzing randomness comes
from ``random.Random`` keyed off the seed digest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from . import codec, crypto, identity, public_records
from . import credit_account as accounts
from .harness import SimWorld, observer_link_scan
from .ledger import (
    Address,
    BadSignature,
    CallReceipt,
    ConstructorRejected,
    ContractRejected,
    Ledger,
    Transaction,
    signing_payload,
)


@dataclass(frozen=True)
class AttackReport:
    name: str
    attempts: int
    blocked: int
    allowed_by_design: int
    ok: bool
    notes: tuple[str, ...]
    # the world the suite left behind, for external forensics; excluded from
    # equality so two runs of a deterministic suite still compare equal
    world: Optional[SimWorld] = field(default=None, compare=False, repr=False)

    def summary(self) -> str:
        status = "DEFENDED" if self.ok else "BREACHED"
        return (f"{self.name}: {status} — {self.blocked}/{self.attempts} attempts blocked"
                f", {self.allowed_by_design} allowed by design")


class _Tally:
    """Collects attempt outcomes and victim-state integrity checks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.attempts = 0
        self.blocked = 0
        self.allowed = 0
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect_reject(self, label: str, reason: str, action) -> None:
        """Rejected calls come back as receipts; rejected deploys and bad
        signatures raise.  Either way the reason must match exactly."""
        self.attempts += 1
        try:
            result = action()
        except (ContractRejected, ConstructorRejected) as exc:
            if exc.reason == reason:
                self.blocked += 1
            else:
                self.failures.append(f"{label}: rejected with {exc.reason}, wanted {reason}")
            return
        except BadSignature:
            if reason == "BadSignature":
                self.blocked += 1
            else:
                self.failures.append(f"{label}: BadSignature, wanted {reason}")
            return
        if isinstance(result, CallReceipt) and not result.accepted:
            if result.reason == reason:
                self.blocked += 1
            else:
                self.failures.append(f"{label}: rejected with {result.reason}, wanted {reason}")
            return
        self.failures.append(f"{label}: accepted, wanted {reason}")

    def expect_false(self, label: str, value: bool) -> None:
        self.attempts += 1
        if value:
            self.failures.append(f"{label}: came back true")
        else:
            self.blocked += 1

    def expect_wrong_key(self, label: str, action) -> None:
        self.attempts += 1
        try:
            action()
        except crypto.WrongKey:
            self.blocked += 1
            return
        self.failures.append(f"{label}: decryption succeeded with the wrong key")

    def check(self, label: str, condition: bool) -> None:
        if not condition:
            self.failures.append(f"integrity: {label}")

    def report(self, world: Optional[SimWorld] = None) -> AttackReport:
        notes = tuple(self.notes + self.failures)
        return AttackReport(name=self.name, attempts=self.attempts, blocked=self.blocked,
                            allowed_by_design=self.allowed, ok=not self.failures,
                            notes=notes, world=world)


def _rng(seed: bytes, suite: str) -> random.Random:
    return random.Random(int.from_bytes(crypto.digest(codec.pack(seed, codec.text(suite))), "big"))


def _list_shape(led: Ledger, registry: Address, subject: crypto.PublicKey) -> tuple[bytes, ...]:
    """Addresses along a subject's public-record list, for before/after diffs."""
    first = led.read_state(registry).records[subject.to_bytes()].first_public_record
    return tuple(address.digest for address, _ in public_records.walk_public_records(led, first))


# ---------------------------------------------------------------------------
# Suite 1: sybil — fake identities flooding the registry
# ---------------------------------------------------------------------------


def sybil(count: int = 100, seed: bytes = b"attack-sybil") -> AttackReport:
    """Registering keys is permissionless, so an attacker can mint as many
    identities as they can pay transactions for.  None of them may end up
    trusted: certification from inside the sybil cloud must not move any
    reader that anchors trust in real institutions, and a careful institution
    must refuse to grow a second trusted key for an already-certified person.
    """
    tally = _Tally("sybil")
    world = SimWorld(seed=codec.pack(b"attack-world", seed))
    led, registry = world.ledger, world.registry

    authority = world.add_actor("authority")
    honest = world.add_actor("honest-customer")
    identity.register(led, registry, authority, identity.fingerprint_from_text("ST:AUTH-1"))
    identity.register(led, registry, honest, identity.fingerprint_from_text("ST:H-1"))
    identity.certify(led, registry, authority, honest.public)
    trust = {authority.public}

    fakes = []
    for i in range(count):
        fake = world.add_actor(f"sybil-{i}")
        fingerprint = identity.fingerprint_from_text(f"ST:FAKE-{i}")
        receipt = identity.register(led, registry, fake, fingerprint)
        tally.check(f"sybil {i} registered", receipt.accepted)
        fakes.append(fake)
    tally.allowed += count
    tally.notes.append(f"{count} sybil identities registered (permissionless by design)")

    # the cloud certifies itself into a dense web
    rng = _rng(seed, "sybil")
    for i, fake in enumerate(fakes):
        for _ in range(2):
            peer = fakes[rng.randrange(count)]
            if peer is not fake:
                identity.certify(led, registry, fake, peer.public)

    # oracle: not one sybil is trusted through the real anchor
    state = led.read_state(registry)
    for i, fake in enumerate(fakes):
        tally.expect_false(f"sybil {i} trusted", identity.trusted_view(state, fake.public, trust))

    # identity multiplication: a person with a trusted key asks the authority
    # to certify a second key under the same fingerprint
    second = world.add_actor("honest-second-key")
    fingerprint = identity.fingerprint_from_text("ST:H-1")
    identity.register(led, registry, second, fingerprint)
    challenge = crypto.digest(b"prove-it")
    response = identity.identity_challenge(second, challenge)
    state = led.read_state(registry)
    tally.expect_false(
        "second trusted key for one fingerprint",
        identity.approve_certification(state, second.public, fingerprint,
                                       challenge, response, trust))
    return tally.report(world)


# ---------------------------------------------------------------------------
# Suite 2: pointer poisoning — grafting garbage into a public-record list
# ---------------------------------------------------------------------------


def pointer_poison(attempts: int = 60, seed: bytes = b"attack-poison") -> AttackReport:
    """Fuzz the append checks with every class of bad link we know how to
    build: nonexistent targets, wrong contract kinds, foreign factories,
    unminted records, other authors' records, already-listed records, and
    records with a smuggled tail.  The victim's list must not gain or lose
    a single element."""
    tally = _Tally("pointer-poison")
    world = SimWorld(seed=codec.pack(b"attack-world", seed))
    led, registry, factory = world.ledger, world.registry, world.factory
    rng = _rng(seed, "pointer-poison")

    victim = world.add_actor("victim")
    attacker = world.add_actor("attacker")
    accomplice = world.add_actor("accomplice")
    for actor, tag in ((victim, "V"), (attacker, "A"), (accomplice, "C")):
        identity.register(led, registry, actor, identity.fingerprint_from_text(f"ST:{tag}"))

    # victim list: self-authored marker, head-set
    marker = public_records.mint_record(led, factory, victim)
    public_records.fill_record(led, victim, marker, b"list start")
    identity.set_first_public_record(led, registry, victim, marker)
    tail = marker

    # attacker's own list (for the already-added variant)
    own_marker = public_records.mint_record(led, factory, attacker)
    public_records.fill_record(led, attacker, own_marker, b"attacker list")
    identity.set_first_public_record(led, registry, attacker, own_marker)
    recycled = public_records.mint_record(led, factory, attacker)
    public_records.fill_record(led, attacker, recycled, b"recycled")
    public_records.append_record(led, attacker, own_marker, recycled)
    tally.allowed += 1  # appending to one's own list is legal

    # a rogue factory and a loose victim-authored record for variants c and e
    rogue_factory = public_records.deploy_factory(led, attacker)
    loose_of_victim = public_records.mint_record(led, factory, victim)

    # an arbitrary credit-account contract for the wrong-kind variant
    throwaway = crypto.generate_keypair(codec.pack(b"attack-throwaway", seed))
    account = accounts.create_account(led, throwaway, throwaway.public, throwaway.public,
                                      10_000)

    expected_shape = list(_list_shape(led, registry, victim.public))

    variants = ["garbage", "wrong-kind", "foreign-factory", "unminted",
                "foreign-author", "already-added", "smuggled-tail", "head-grab"]
    honest_count = 0
    for i in range(attempts):
        # interleave: every few rounds an honest authority extends the list,
        # so the attacks also run against a moving tail
        if i % 5 == 4:
            filed = public_records.mint_record(led, factory, accomplice)
            public_records.fill_record(led, accomplice, filed,
                                       f"honest filing {honest_count}".encode())
            receipt = public_records.append_record(led, accomplice, tail, filed)
            tally.check(f"honest filing {honest_count} accepted", receipt.accepted)
            tail = filed
            expected_shape.append(filed.digest)
            honest_count += 1
            tally.allowed += 1
        variant = variants[i % len(variants)] if i < len(variants) else rng.choice(variants)
        label = f"attempt {i} ({variant})"
        if variant == "garbage":
            target = Address(rng.randbytes(crypto.DIGEST_SIZE))
            tally.expect_reject(label, "InvalidRecord(1)",
                                lambda t=target: public_records.append_record(led, attacker, tail, t))
        elif variant == "wrong-kind":
            tally.expect_reject(label, "InvalidRecord(1)",
                                lambda: public_records.append_record(led, attacker, tail, account))
        elif variant == "foreign-factory":
            foreign = public_records.mint_record(led, rogue_factory, attacker)
            tally.expect_reject(label, "InvalidRecord(1)",
                                lambda f=foreign: public_records.append_record(led, attacker, tail, f))
        elif variant == "unminted":
            fake = led.deploy(attacker, public_records.PublicRecordContract.KIND,
                              codec.pack(attacker.public.to_bytes(), factory.digest))
            tally.expect_reject(label, "InvalidRecord(1)",
                                lambda f=fake: public_records.append_record(led, attacker, tail, f))
        elif variant == "foreign-author":
            tally.expect_reject(label, "InvalidRecord(2)",
                                lambda: public_records.append_record(led, attacker, tail,
                                                                     loose_of_victim))
        elif variant == "already-added":
            tally.expect_reject(label, "InvalidRecord(3)",
                                lambda: public_records.append_record(led, attacker, tail, recycled))
        elif variant == "smuggled-tail":
            front = public_records.mint_record(led, factory, attacker)
            cargo = public_records.mint_record(led, factory, attacker)
            public_records.append_record(led, attacker, front, cargo)  # accepted: front is loose
            tally.allowed += 1
            tally.expect_reject(label, "InvalidRecord(4)",
                                lambda f=front: public_records.append_record(led, attacker, tail, f))
        elif variant == "head-grab":
            tally.expect_reject(label, "InvalidRecord(2)",
                                lambda: identity.set_first_public_record(led, registry,
                                                                         accomplice, marker))
    shape_after = _list_shape(led, registry, victim.public)
    tally.check("victim list holds exactly the honest filings",
                tuple(expected_shape) == shape_after)
    tally.notes.append(f"victim list grew to {len(shape_after)} records, "
                       f"all {honest_count} honest filings and nothing else")
    return tally.report(world)


# ---------------------------------------------------------------------------
# Suite 3: list merge — making one history pass for two
# ---------------------------------------------------------------------------


def list_merge(seed: bytes = b"attack-merge") -> AttackReport:
    """Try to make two subjects share records: re-file one record in both
    lists, splice a pre-built sublist, overwrite heads and interior links.
    Afterwards the two lists must still be disjoint and exactly as built."""
    tally = _Tally("list-merge")
    world = SimWorld(seed=codec.pack(b"attack-world", seed))
    led, registry, factory = world.ledger, world.registry, world.factory

    alpha = world.add_actor("alpha")
    beta = world.add_actor("beta")
    authority = world.add_actor("authority")
    for actor, tag in ((alpha, "A"), (beta, "B"), (authority, "AUTH")):
        identity.register(led, registry, actor, identity.fingerprint_from_text(f"ST:{tag}"))

    def build_list(owner: crypto.KeyPair, tag: str) -> tuple[Address, Address]:
        marker = public_records.mint_record(led, factory, owner)
        public_records.fill_record(led, owner, marker, f"{tag} start".encode())
        identity.set_first_public_record(led, registry, owner, marker)
        filed = public_records.mint_record(led, factory, authority)
        public_records.fill_record(led, authority, filed, f"{tag} judgement".encode())
        public_records.append_record(led, authority, marker, filed)
        return marker, filed

    alpha_marker, alpha_filed = build_list(alpha, "alpha")
    beta_marker, beta_filed = build_list(beta, "beta")
    shapes = (_list_shape(led, registry, alpha.public), _list_shape(led, registry, beta.public))

    # the authority re-files the same judgement against the other subject
    tally.expect_reject("re-file judgement across lists", "InvalidRecord(3)",
                        lambda: public_records.append_record(led, authority, beta_filed,
                                                             alpha_filed))
    # a subject grafts the other's marker (not the author)
    tally.expect_reject("graft foreign marker", "InvalidRecord(2)",
                        lambda: public_records.append_record(led, alpha, alpha_filed,
                                                             beta_marker))
    # the marker's own author re-adds it to the second list
    tally.expect_reject("author re-adds own marker", "InvalidRecord(3)",
                        lambda: public_records.append_record(led, beta, alpha_filed,
                                                             beta_marker))
    # splice: overwrite an interior pointer that is already set
    tally.expect_reject("interior splice", "PointerAlreadySet",
                        lambda: public_records.append_record(led, alpha, alpha_marker,
                                                             beta_filed))
    # head overwrite
    tally.expect_reject("head overwrite", "PointerAlreadySet",
                        lambda: identity.set_first_public_record(led, registry, alpha,
                                                                 beta_marker))
    # smuggled sublist aimed at merging histories wholesale
    front = public_records.mint_record(led, factory, authority)
    public_records.append_record(led, authority, front, public_records.mint_record(
        led, factory, authority))
    tally.allowed += 1
    tally.expect_reject("smuggled sublist", "InvalidRecord(4)",
                        lambda: public_records.append_record(led, authority, alpha_filed, front))

    after = (_list_shape(led, registry, alpha.public), _list_shape(led, registry, beta.public))
    tally.check("both lists unchanged", shapes == after)
    tally.check("lists disjoint", not set(after[0]) & set(after[1]))
    return tally.report(world)


# ---------------------------------------------------------------------------
# Suite 4: record tamper — rewriting what was filed
# ---------------------------------------------------------------------------


def record_tamper(seed: bytes = b"attack-tamper") -> AttackReport:
    """Filed content must be immutable against everyone: strangers always,
    and the author as soon as the record sits in someone's list.  Off-chain,
    a tampered disclosure of an encrypted record has to fail its author
    signature instead of passing as verified."""
    tally = _Tally("record-tamper")
    world = SimWorld(seed=codec.pack(b"attack-world", seed))
    led, registry, factory = world.ledger, world.registry, world.factory
    rng = _rng(seed, "record-tamper")

    victim = world.add_actor("victim")
    authority = world.add_actor("authority")
    attacker = world.add_actor("attacker")
    for actor, tag in ((victim, "V"), (authority, "AUTH"), (attacker, "X")):
        identity.register(led, registry, actor, identity.fingerprint_from_text(f"ST:{tag}"))

    marker = public_records.mint_record(led, factory, victim)
    public_records.fill_record(led, victim, marker, b"list start")
    identity.set_first_public_record(led, registry, victim, marker)

    plaintext = b"charged off 2140.55 on account 8841"
    nonce = crypto.digest(codec.pack(b"tamper-nonce", seed))
    sealed = public_records.mint_record(led, factory, authority)
    public_records.fill_record(led, authority, sealed, plaintext,
                               public_records.RECORD_ENCRYPTED,
                               owner_key=victim.public, nonce=nonce)
    public_records.append_record(led, authority, marker, sealed)

    digest_before = led.state_digest(sealed)

    tally.expect_reject("stranger rewrites sealed record", "NotAuthor",
                        lambda: public_records.fill_record(led, attacker, sealed, b"all good"))
    tally.expect_reject("author rewrites after linking", "RecordFrozen",
                        lambda: public_records.fill_record(led, authority, sealed, b"paid"))
    loose = public_records.mint_record(led, factory, authority)
    tally.expect_reject("stranger fills a loose record", "NotAuthor",
                        lambda: public_records.fill_record(led, attacker, loose, b"forged"))
    public_records.fill_record(led, authority, loose, b"draft")
    public_records.fill_record(led, authority, loose, b"final")  # pre-freeze rewrite is legal
    tally.allowed += 1

    tally.check("sealed record bytes unchanged", led.state_digest(sealed) == digest_before)

    # off-chain: dishonest disclosures of the encrypted record
    trust = {authority.public, victim.public}
    for i in range(24):
        tampered = bytearray(plaintext)
        position = rng.randrange(len(tampered))
        tampered[position] ^= 1 + rng.randrange(255)
        rows = public_records.traverse_public_records(
            led, registry, victim.public, trust,
            disclosures={sealed: public_records.RecordDisclosure(bytes(tampered), nonce)})
        sealed_row = next(r for r in rows if r.address == sealed)
        tally.expect_false(f"tampered disclosure {i} accepted",
                           sealed_row.classification == public_records.CLASS_TRUSTED_ENCRYPTED_VERIFIED)
        tally.check(f"tampered disclosure {i} flagged",
                    sealed_row.signature_ok is False)

    # the honest disclosure still verifies — the checks discriminate
    rows = public_records.traverse_public_records(
        led, registry, victim.public, trust,
        disclosures={sealed: public_records.RecordDisclosure(plaintext, nonce)})
    sealed_row = next(r for r in rows if r.address == sealed)
    tally.check("honest disclosure verifies",
                sealed_row.classification == public_records.CLASS_TRUSTED_ENCRYPTED_VERIFIED)
    return tally.report(world)


# ---------------------------------------------------------------------------
# Suite 5: unauthorized read — observers and nosy institutions
# ---------------------------------------------------------------------------


def unauthorized_read(seed: bytes = b"attack-read") -> AttackReport:
    """Nobody without the right shared keys learns anything from chain
    bytes: not the observer scraping ciphertexts, not another institution
    reusing its own keys, and a single leaked pointer key opens exactly one
    link and nothing else."""
    tally = _Tally("unauthorized-read")
    world = SimWorld(seed=codec.pack(b"attack-world", seed))
    led, registry = world.ledger, world.registry

    for name, tag in (("victim", "V"), ("bank", "B1"), ("rival", "B2")):
        actor = world.add_actor(name)
        identity.register(led, registry, actor, identity.fingerprint_from_text(f"ST:{tag}"))
    victim = world.actor("victim")

    # victim's chain: two accounts at two institutions, with data
    predecessor = None
    for i, inst in enumerate(("bank", "rival")):
        handle = world.ceremony("victim", inst, f"acct{i + 1}")
        world.open_account(handle, 10_000)
        world.link_account("victim", predecessor, handle)
        world.update_account(handle, accounts.DATA_MODE_INLINE, f"balance {i}".encode())
        predecessor = handle

    acct1, acct2 = world.accounts["acct1"], world.accounts["acct2"]
    head_ct = led.read_state(registry).records[victim.public.to_bytes()].first_credit_account
    data1 = led.read_state(acct1.address).data
    next1 = led.read_state(acct1.address).next_account
    data2 = led.read_state(acct2.address).data

    # the rival institution throws every key it owns at the other account
    rival_keys = [acct2.institution_view.institution.private,
                  acct2.institution_view.shared_data.private,
                  acct2.institution_view.shared_pointer.private,
                  world.actor("rival").private]
    for i, key in enumerate(rival_keys):
        tally.expect_wrong_key(f"rival key {i} on head pointer",
                               lambda k=key: crypto.decrypt(k, head_ct))
        tally.expect_wrong_key(f"rival key {i} on account data",
                               lambda k=key: crypto.decrypt(k, data1))

    # a leaked pointer key is contained: it opens its one link only
    leaked = acct1.customer_view.shared_pointer.private
    opened = crypto.decrypt(leaked, head_ct)
    tally.check("leaked pointer key opens its own link", opened == acct1.address.digest)
    tally.notes.append("granted: leaked acct1 pointer key reveals acct1's address")
    tally.expect_wrong_key("leaked pointer key on next link",
                           lambda: crypto.decrypt(leaked, next1))
    tally.expect_wrong_key("leaked pointer key on data",
                           lambda: crypto.decrypt(leaked, data1))
    tally.expect_wrong_key("acct1 data key on acct2 data",
                           lambda: crypto.decrypt(acct1.customer_view.shared_data.private,
                                                  data2))

    # encrypted public record: only the subject's identity key opens it
    authority = world.add_actor("authority")
    identity.register(led, registry, authority, identity.fingerprint_from_text("ST:AUTH"))
    marker = public_records.mint_record(led, world.factory, victim)
    public_records.fill_record(led, victim, marker, b"list start")
    identity.set_first_public_record(led, registry, victim, marker)
    sealed = public_records.mint_record(led, world.factory, authority)
    public_records.fill_record(led, authority, sealed, b"sealed judgement",
                               public_records.RECORD_ENCRYPTED, owner_key=victim.public,
                               nonce=crypto.digest(codec.pack(b"read-nonce", seed)))
    public_records.append_record(led, authority, marker, sealed)
    sealed_data = led.read_state(sealed).data
    tally.expect_wrong_key("rival identity key on sealed record",
                           lambda: crypto.decrypt(world.actor("rival").private, sealed_data))
    opened_record = crypto.decrypt(victim.private, sealed_data)
    tally.check("subject opens own sealed record", opened_record == b"sealed judgement")

    # the wire itself: pointers never repeat, never leak addresses
    observer_link_scan(world)
    tally.notes.append("observer scan: no address substrings, no repeated pointer bytes")
    return tally.report(world)


# ---------------------------------------------------------------------------
# Suite 6: identity theft — banking in someone else's name
# ---------------------------------------------------------------------------


def identity_theft(seed: bytes = b"attack-theft") -> AttackReport:
    """A thief who knows the victim's real-world identifier registers it
    under their own key.  On-chain that succeeds (the registry cannot see
    the real world), so the defences are procedural: no trusted institution
    certifies the duplicate, the thief cannot forge the victim's signatures,
    and nothing the thief does moves the victim's own record."""
    tally = _Tally("identity-theft")
    world = SimWorld(seed=codec.pack(b"attack-world", seed))
    led, registry = world.ledger, world.registry

    authority = world.add_actor("authority")
    victim = world.add_actor("victim")
    thief = world.add_actor("thief")
    fingerprint = identity.fingerprint_from_text("ST:VICTIM-SSN")
    identity.register(led, registry, authority, identity.fingerprint_from_text("ST:AUTH"))
    identity.register(led, registry, victim, fingerprint)
    identity.certify(led, registry, authority, victim.public)
    trust = {authority.public}

    receipt = identity.register(led, registry, thief, fingerprint)
    tally.check("duplicate fingerprint registers on-chain", receipt.accepted)
    tally.allowed += 1
    tally.notes.append("thief registered the victim's fingerprint under a fresh key "
                       "(the chain cannot know better)")

    state = led.read_state(registry)
    challenge = crypto.digest(codec.pack(b"challenge", seed))

    # 1. vetting refuses a second key for an already-certified fingerprint
    response = identity.identity_challenge(thief, challenge)
    tally.expect_false("authority certifies the thief's key",
                       identity.approve_certification(state, thief.public, fingerprint,
                                                      challenge, response, trust))
    # 2. the thief cannot answer a challenge for the victim's key
    tally.expect_false("thief passes the victim's possession challenge",
                       identity.approve_certification(state, victim.public, fingerprint,
                                                      challenge, response, trust))
    # 3. forged registration in the victim's name dies at the signature check
    log_before = len(led.log)
    payload = signing_payload(victim.public.to_bytes(), registry, "certify",
                              thief.public.to_bytes())
    forged = Transaction(caller=victim.public.to_bytes(), target=registry,
                         function="certify", args=thief.public.to_bytes(),
                         signature=crypto.sign(thief.private, payload))
    tally.expect_reject("forged certify in the victim's name", "BadSignature",
                        lambda: led.submit(forged))
    tally.check("forged transaction left no trace", len(led.log) == log_before)

    # 4. the thief's head-pointer writes land on the thief's record only
    thief_account = crypto.generate_keypair(codec.pack(b"thief-acct", seed))
    ciphertext = crypto.encrypt(thief_account.public, b"n", b"\x00" * 32)
    identity.set_first_credit_account(led, registry, thief, ciphertext)
    tally.allowed += 1
    state = led.read_state(registry)
    tally.check("victim head still empty",
                state.records[victim.public.to_bytes()].first_credit_account is None)

    # 5. readers resolving the fingerprint still land on the certified key
    matches = identity.lookup_by_fingerprint(state, fingerprint)
    trusted_matches = [k for k in matches if identity.trusted_view(state, k, trust)]
    tally.check("exactly one trusted key per fingerprint", trusted_matches == [victim.public])
    tally.expect_false("thief's key trusted", identity.trusted_view(state, thief.public, trust))
    return tally.report(world)


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


SUITES = {
    "sybil": sybil,
    "pointer-poison": pointer_poison,
    "list-merge": list_merge,
    "record-tamper": record_tamper,
    "unauthorized-read": unauthorized_read,
    "identity-theft": identity_theft,
}


def run_suite(name: str, **kwargs) -> AttackReport:
    try:
        suite = SUITES[name]
    except KeyError:
        raise ValueError(f"unknown attack suite {name!r}; "
                         f"choose from {', '.join(sorted(SUITES))}") from None
    return suite(**kwargs)


def run_all() -> list[AttackReport]:
    return [suite() for suite in SUITES.values()]
