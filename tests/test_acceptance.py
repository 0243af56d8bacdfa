"""Ten end-to-end acceptance checks, one test per criterion.

``pytest -v tests/test_acceptance.py`` prints one pass/fail line per
criterion.  Each docstring states the bar being cleared; the tolerances live
in the assertions themselves.
"""

import dataclasses
import itertools
import random
import time
from pathlib import Path

import helpers
from creditchain import attacks, crypto, harness, identity, reader
from creditchain import credit_account as accounts
from creditchain import public_records as records
from creditchain.credit_account import CreditAccountContract
from creditchain.ledger import Address, Ledger

LIFECYCLE = Path(__file__).parent.parent / "scenarios" / "lifecycle.scn"


# ---------------------------------------------------------------------------
# 1 — full lifecycle
# ---------------------------------------------------------------------------


def test_criterion_01_lifecycle():
    """Three institutions, two customers, five accounts, public records in
    both storage modes: both customers' disclosures verify completely with
    every commitment good, in under five seconds end to end."""
    started = time.perf_counter()
    world = harness.run_scenario_file(LIFECYCLE).world

    assert len([n for n in world.actors if n.startswith("bank")]) == 3
    assert {"alice", "bob"} <= set(world.actors)
    assert len(world.accounts) == 5
    assert len(world.records) >= 3

    for customer in ("alice", "bob"):
        for variant in ("keys", "plaintext"):
            bundle = world.build_bundle(customer, variant=variant)
            report = reader.assemble_report(world.ledger, world.registry, bundle,
                                            world.trust_set(),
                                            blob_store=world.blobs)
            assert report.complete
            assert report.entries, f"{customer} disclosed an empty chain"
            assert all(e.commitment_ok for e in report.entries), \
                f"{customer}: a commitment failed verification"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"lifecycle took {elapsed:.2f}s, budget is 5s"


# ---------------------------------------------------------------------------
# 2 — randomized call sequences
# ---------------------------------------------------------------------------


def _write_once_violations(led: Ledger, registry: Address) -> list[str]:
    """History-walk oracle: each write-once field goes empty -> set at most
    once and never changes afterwards."""
    problems = []
    for address in led.contracts_by_kind("credit_account"):
        states = [h.state for h in led.history(address)]
        for field in ("commitment", "next_account"):
            settled = False
            for prev, cur in zip(states, states[1:]):
                p, c = getattr(prev, field), getattr(cur, field)
                if p is None and c is not None:
                    if settled:
                        problems.append(f"{field} set twice on {address.short()}")
                    settled = True
                elif p is not None and c != p:
                    problems.append(f"{field} mutated on {address.short()}")
    states = [h.state for h in led.history(registry)]
    for field in ("first_credit_account", "first_public_record"):
        for prev, cur in zip(states, states[1:]):
            for key, cur_record in cur.records.items():
                prev_record = prev.records.get(key)
                if prev_record is None:
                    continue
                p, c = getattr(prev_record, field), getattr(cur_record, field)
                if p is not None and c != p:
                    problems.append(f"registry {field} mutated for {key.hex()[:12]}")
    return problems


def test_criterion_02_randomized_sequences():
    """1,000 independent random call sequences of at least 50 transactions
    each: every rejected call leaves all contract state bit-identical
    (digest snapshot before vs. after), and no write-once field — account
    commitment, account next-pointer, either registry head — ever
    transitions more than once.  Zero violations tolerated."""
    violations: list[str] = []
    for seed in range(1000):
        fuzzer = helpers.ProtocolFuzzer(seed)
        while len(fuzzer.led.log) < 50:
            before = fuzzer.led.state_digests()
            receipt = fuzzer.step()
            if receipt is not None and not receipt.accepted:
                if fuzzer.led.state_digests() != before:
                    violations.append(f"seed {seed}: rejected call mutated state")
        violations.extend(f"seed {seed}: {p}"
                          for p in _write_once_violations(fuzzer.led, fuzzer.registry))
    assert violations == []


# ---------------------------------------------------------------------------
# 3 — the four link-insertion checks
# ---------------------------------------------------------------------------


def test_criterion_03_four_check_coverage():
    """One dedicated attack fixture per append check, each rejected with its
    own numbered error code, plus a minimal honest append that clears all
    four."""
    led = Ledger()
    root = crypto.generate_keypair(b"c3-root")
    registry = identity.deploy_registry(led, root)
    factory = records.deploy_factory(led, root)
    author = crypto.generate_keypair(b"c3-author")
    identity.register(led, registry, author, identity.fingerprint_from_text("C3:1"))
    head = records.mint_record(led, factory, author)
    records.fill_record(led, author, head, b"head")
    assert identity.set_first_public_record(led, registry, author, head).accepted

    outcomes = {}

    # check 1: minted by a different factory
    rogue = records.deploy_factory(led, crypto.generate_keypair(b"c3-rogue"))
    foreign = records.mint_record(led, rogue, author)
    records.fill_record(led, author, foreign, b"foreign")
    outcomes[1] = records.append_record(led, author, head, foreign).reason

    # check 2: right factory, wrong caller
    orphan = records.mint_record(led, factory, author)
    records.fill_record(led, author, orphan, b"orphan")
    meddler = crypto.generate_keypair(b"c3-meddler")
    outcomes[2] = records.append_record(led, meddler, head, orphan).reason

    # check 3: already sitting in a list
    listed = records.mint_record(led, factory, author)
    records.fill_record(led, author, listed, b"listed")
    assert records.append_record(led, author, head, listed).accepted
    tail = records.find_list_tail(led, head)
    outcomes[3] = records.append_record(led, author, tail, listed).reason

    # check 4: a carrier with a pre-linked tail smuggled in one call
    carrier = records.mint_record(led, factory, author)
    records.fill_record(led, author, carrier, b"carrier")
    stowaway = records.mint_record(led, factory, author)
    records.fill_record(led, author, stowaway, b"stowaway")
    assert records.append_record(led, author, carrier, stowaway).accepted
    outcomes[4] = records.append_record(led, author, tail, carrier).reason

    assert outcomes == {1: "InvalidRecord(1)", 2: "InvalidRecord(2)",
                        3: "InvalidRecord(3)", 4: "InvalidRecord(4)"}

    # minimal honest fixture: right factory, author calling, never listed,
    # empty next pointer — passes all four checks
    honest = records.mint_record(led, factory, author)
    records.fill_record(led, author, honest, b"honest")
    assert records.append_record(led, author, tail, honest).accepted


# ---------------------------------------------------------------------------
# 4 — list integrity under adversarial pressure
# ---------------------------------------------------------------------------


def _global_list_scan(led: Ledger, registry: Address):
    """Walk every identity's record list; return (visited digests, tails).

    Asserts along the way: no cycle, no record reachable from two heads, no
    dereference of anything its parent factory never minted."""
    visited: set[bytes] = set()
    tails: list[Address] = []
    for record in led.read_state(registry).records.values():
        cursor = record.first_public_record
        walk: set[bytes] = set()
        last = None
        while cursor is not None:
            assert cursor not in walk, "cycle inside one list"
            assert cursor not in visited, "record reachable from two heads"
            walk.add(cursor)
            visited.add(cursor)
            address = Address(cursor)
            assert led.exists(address), "dangling next pointer"
            state = led.read_state(address)
            factory_state = led.read_state(Address(state.parent_factory))
            assert cursor in factory_state.minted, "non-minted record dereferenced"
            last = address
            cursor = state.next_record
        if last is not None:
            tails.append(last)
    return visited, tails


def test_criterion_04_merge_and_poison_resistance():
    """The list-merge and pointer-poison suites hold; separately, 500 random
    adversarial appends interleaved with honest traffic leave every list
    acyclic, single-homed, fully factory-minted, and still extensible at the
    tail."""
    assert attacks.run_suite("list-merge").ok
    assert attacks.run_suite("pointer-poison").ok

    rng = random.Random(0xC4)
    led = Ledger()
    root = crypto.generate_keypair(b"c4-root")
    registry = identity.deploy_registry(led, root)
    factory = records.deploy_factory(led, root)
    rogue_factory = records.deploy_factory(led, root)

    owners = []
    for i in range(4):
        owner = crypto.generate_keypair(b"c4-owner-%d" % i)
        identity.register(led, registry, owner,
                          identity.fingerprint_from_text(f"C4:{i}"))
        head = records.mint_record(led, factory, owner)
        records.fill_record(led, owner, head, b"head %d" % i)
        assert identity.set_first_public_record(led, registry, owner, head).accepted
        owners.append(owner)
    attacker = crypto.generate_keypair(b"c4-attacker")

    adversarial = 0
    while adversarial < 500:
        victim = rng.choice(owners)
        victim_head = led.read_state(registry) \
            .records[victim.public.to_bytes()].first_public_record
        tail = records.find_list_tail(led, Address(victim_head))
        move = rng.randrange(5)
        if move == 0:  # honest interleave: the owner grows their own list
            mine = records.mint_record(led, factory, victim)
            records.fill_record(led, victim, mine, b"honest growth")
            assert records.append_record(led, victim, tail, mine).accepted
            continue
        adversarial += 1
        if move == 1:  # foreign-factory record
            fake = records.mint_record(led, rogue_factory, attacker)
            receipt = records.append_record(led, attacker, tail, fake)
            assert receipt.reason == "InvalidRecord(1)"
        elif move == 2:  # someone else's record
            stolen = records.mint_record(led, factory, rng.choice(owners))
            receipt = records.append_record(led, attacker, tail, stolen)
            assert receipt.reason == "InvalidRecord(2)"
        elif move == 3:  # re-append something already listed
            target = Address(rng.choice(sorted(led.read_state(factory).added)))
            author_key = led.read_state(target).author_key
            author = next(o for o in owners + [attacker]
                          if o.public.to_bytes() == author_key)
            receipt = records.append_record(led, author, tail, target)
            assert receipt.reason == "InvalidRecord(3)"
        else:  # smuggle a pre-linked pair behind one append
            carrier = records.mint_record(led, factory, attacker)
            payload = records.mint_record(led, factory, attacker)
            assert records.append_record(led, attacker, carrier, payload).accepted
            receipt = records.append_record(led, attacker, tail, carrier)
            assert receipt.reason == "InvalidRecord(4)"

    _, tails = _global_list_scan(led, registry)
    assert len(tails) == 4
    for tail in tails:  # every tail still extensible by an honest author
        grower = crypto.generate_keypair(b"c4-grower" + tail.digest)
        fresh = records.mint_record(led, factory, grower)
        records.fill_record(led, grower, fresh, b"still growing")
        assert records.append_record(led, grower, tail, fresh).accepted


# ---------------------------------------------------------------------------
# 5 — single-byte tampering of disclosure bundles
# ---------------------------------------------------------------------------


DETECTIONS = (reader.ChainMismatch, reader.CommitmentInvalid, identity.UnknownIdentity)


def _tamper_variants(value):
    """All single-byte corruptions of one field value."""
    if isinstance(value, bytes):
        raw, rebuild = value, lambda b: b
    elif isinstance(value, crypto.PublicKey):
        raw, rebuild = value.to_bytes(), crypto.PublicKey.from_bytes
    elif isinstance(value, crypto.PrivateKey):
        raw, rebuild = value.to_bytes(), crypto.PrivateKey.from_bytes
    elif isinstance(value, Address):
        raw, rebuild = value.digest, Address
    else:
        return
    for i in range(len(raw)):
        corrupted = bytearray(raw)
        corrupted[i] ^= 0xFF
        yield rebuild(bytes(corrupted))


def test_criterion_05_single_byte_tamper_detection():
    """Every single-byte corruption of every field of both disclosure
    variants over a three-account chain is detected — 100%, no survivor.
    (Corrupting the bundle's identity key surfaces as UnknownIdentity, since
    no registered key matches any flipped variant; that counts as detection,
    not as a pass.)"""
    world = helpers.build_chain_world(3, customer="tam")
    trust = world.trust_set()
    total = detected = 0

    for variant in ("keys", "plaintext"):
        bundle = world.build_bundle("tam", variant=variant)
        reader.assemble_report(world.ledger, world.registry, bundle, trust)  # sanity

        cases = [(None, "identity", v) for v in _tamper_variants(bundle.identity)]
        for index, entry in enumerate(bundle.entries):
            for field in dataclasses.fields(entry):
                value = getattr(entry, field.name)
                cases += [(index, field.name, v) for v in _tamper_variants(value)]

        for index, field_name, twisted_value in cases:
            if index is None:
                twisted = dataclasses.replace(bundle, **{field_name: twisted_value})
            else:
                entries = list(bundle.entries)
                entries[index] = dataclasses.replace(entries[index],
                                                     **{field_name: twisted_value})
                twisted = dataclasses.replace(bundle, entries=tuple(entries))
            total += 1
            try:
                reader.assemble_report(world.ledger, world.registry, twisted, trust)
            except DETECTIONS:
                detected += 1
            except reader.IncompleteDisclosure:
                pass  # admitting partiality is not detection of the tamper

    assert total > 1500  # the sweep really was exhaustive
    assert detected == total, f"{total - detected} corruptions slipped through"


# ---------------------------------------------------------------------------
# 6 — withheld in-window accounts
# ---------------------------------------------------------------------------


def test_criterion_06_window_withholding(chain5_world):
    """Against a five-account chain under a window covering every account,
    withholding each of the 30 nonempty strict subsets of accounts is always
    flagged: the walk either stops (IncompleteDisclosure) or the report
    comes back with the window unsatisfied.  30 out of 30."""
    world = chain5_world
    names = world.chain_names("cust")
    full = reader.assemble_report(world.ledger, world.registry,
                                  world.build_bundle("cust"), world.trust_set())
    window = (full.entries[0].creation_block, full.entries[-1].creation_block)

    flagged = cases = 0
    for size in range(1, len(names)):
        for subset in itertools.combinations(names, size):
            cases += 1
            bundle = world.build_bundle("cust", window=window,
                                        withhold=frozenset(subset))
            try:
                report = reader.assemble_report(world.ledger, world.registry,
                                                bundle, world.trust_set())
            except reader.IncompleteDisclosure:
                flagged += 1
                continue
            if not report.window_satisfied:
                flagged += 1
    assert cases == 30
    assert flagged == 30


# ---------------------------------------------------------------------------
# 7 — attacker-certified fakes
# ---------------------------------------------------------------------------


def test_criterion_07_fake_certifications_change_nothing():
    """100 attacker-registered, attacker-certified identities (one even
    reusing a victim's fingerprint, plus fakes vouching for each other and
    for honest customers) leave every trusted_view outcome exactly where it
    was.  A direct certificate-set-intersection oracle agrees on every
    registered identity."""
    led = Ledger()
    root = crypto.generate_keypair(b"c7-root")
    registry = identity.deploy_registry(led, root)
    bank = crypto.generate_keypair(b"c7-bank")
    identity.register(led, registry, bank, identity.fingerprint_from_text("C7:BANK"))
    honest = []
    for i in range(5):
        customer = crypto.generate_keypair(b"c7-cust-%d" % i)
        identity.register(led, registry, customer,
                          identity.fingerprint_from_text(f"C7:{i}"))
        if i % 2 == 0:
            assert identity.certify(led, registry, bank, customer.public).accepted
        honest.append(customer.public)
    trust = {bank.public}

    def snapshot() -> dict[bytes, bool]:
        state = led.read_state(registry)
        return {key.to_bytes(): identity.trusted_view(state, key, trust)
                for key in honest}

    before = snapshot()
    assert sum(before.values()) == 3

    attacker = crypto.generate_keypair(b"c7-attacker")
    identity.register(led, registry, attacker, identity.fingerprint_from_text("C7:EVE"))
    fakes = []
    for i in range(100):
        fake = crypto.generate_keypair(b"c7-fake-%d" % i)
        identity.register(led, registry, fake, identity.fingerprint_from_text("C7:0"))
        assert identity.certify(led, registry, attacker, fake.public).accepted
        if fakes:
            identity.certify(led, registry, fakes[-1], fake.public)
        fakes.append(fake)
        identity.certify(led, registry, fake, honest[1])

    assert snapshot() == before

    state = led.read_state(registry)
    trusted_raw = {k.to_bytes() for k in trust}
    for key_raw, record in state.records.items():
        oracle = bool(set(record.certificates) & trusted_raw)
        assert identity.trusted_view(state, crypto.PublicKey.from_bytes(key_raw),
                                     trust) == oracle
    for fake in fakes:
        assert not identity.trusted_view(state, fake.public, trust)


# ---------------------------------------------------------------------------
# 8 — unlinkability
# ---------------------------------------------------------------------------


def _observer_reconstruct(led: Ledger, registry: Address) -> set[tuple[bytes, bytes]]:
    """Everything a keyless observer can pair up from raw ledger state:
    account addresses appearing inside pointer ciphertexts (directly or
    hashed), ciphertexts hashing to an address, and repeated ciphertexts."""
    account_addresses = [a.digest for a in led.contracts_by_kind("credit_account")]
    pointers: list[tuple[bytes, bytes]] = []  # (source id, opaque pointer bytes)
    for key_raw, record in led.read_state(registry).records.items():
        if record.first_credit_account is not None:
            pointers.append((key_raw, record.first_credit_account))
    for address in led.contracts_by_kind("credit_account"):
        state = led.read_state(address)
        if state.next_account is not None:
            pointers.append((address.digest, state.next_account))

    links: set[tuple[bytes, bytes]] = set()
    seen: dict[bytes, bytes] = {}
    for source, ciphertext in pointers:
        for target in account_addresses:
            if (target in ciphertext
                    or crypto.digest(ciphertext) == target
                    or crypto.digest(target) in ciphertext):
                links.add((source, target))
        if ciphertext in seen:  # identical pointers would link their sources
            links.add((source, seen[ciphertext]))
        seen[ciphertext] = source
    return links


def test_criterion_08_unlinkability():
    """(a) No registered identity key appears anywhere in any credit
    account's encoded state.  (b) Over a 12-account chain the observer
    procedure recovers 0 of the 12 links from ledger bytes alone, while the
    owner's key disclosure recovers all 12 in order."""
    world = helpers.build_chain_world(12, customer="priv")
    led = world.ledger

    registered = set(led.read_state(world.registry).records.keys())
    for address in led.contracts_by_kind("credit_account"):
        raw = CreditAccountContract.encode_state(led.read_state(address))
        for key in registered:
            assert key not in raw, "identity key surfaced inside account state"

    observed = _observer_reconstruct(led, world.registry)
    assert observed == set(), f"observer recovered {len(observed)} links"

    report = reader.assemble_report(led, world.registry,
                                    world.build_bundle("priv"), world.trust_set())
    assert report.complete
    assert len(report.entries) == 12
    expected = [world.account(name).address for name in world.chain_names("priv")]
    assert [e.address for e in report.entries] == expected


# ---------------------------------------------------------------------------
# 9 — replay determinism
# ---------------------------------------------------------------------------


def test_criterion_09_replay_and_report_determinism(lifecycle_run, chain5_world):
    """Every fixture ledger — scenario runs, all six attack suites, a dozen
    fuzzer runs — replays from its own export to identical state digests and
    re-exports byte-identically; and for every honest chain, the
    keys-variant and plaintext-variant reports are field-identical."""
    fixtures = [lifecycle_run.world.ledger, chain5_world.ledger]
    fixtures += [attacks.run_suite(name).world.ledger
                 for name in sorted(attacks.SUITES)]
    for seed in range(12):
        fixtures.append(helpers.ProtocolFuzzer(seed).run(50))
    for led in fixtures:
        again = Ledger.replay(led.export())
        assert again.state_digests() == led.state_digests()
        assert again.export() == led.export()

    world = lifecycle_run.world
    for customer in ("alice", "bob"):
        by_keys = reader.assemble_report(
            world.ledger, world.registry,
            world.build_bundle(customer, variant="keys"),
            world.trust_set(), blob_store=world.blobs)
        by_plaintext = reader.assemble_report(
            world.ledger, world.registry,
            world.build_bundle(customer, variant="plaintext"),
            world.trust_set(), blob_store=world.blobs)
        assert by_keys == by_plaintext
    by_keys = reader.assemble_report(
        chain5_world.ledger, chain5_world.registry,
        chain5_world.build_bundle("cust"), chain5_world.trust_set())
    by_plaintext = reader.assemble_report(
        chain5_world.ledger, chain5_world.registry,
        chain5_world.build_bundle("cust", variant="plaintext"),
        chain5_world.trust_set())
    assert by_keys == by_plaintext


# ---------------------------------------------------------------------------
# 10 — immediate visibility of data updates
# ---------------------------------------------------------------------------


def test_criterion_10_update_visible_immediately():
    """A single update_data transaction is visible in read_state the moment
    its receipt returns: exactly one block later, the new ciphertext is in
    place, decrypts to the new document, and equals the deterministic
    ciphertext its inputs dictate."""
    world = harness.run_scenario_file(LIFECYCLE).world
    handle = world.account("a-acct1")
    led = world.ledger
    inst = handle.institution_view
    before_state = led.read_state(handle.address)
    height_before = led.height

    new_doc = b"amended balance: 512.00"
    receipt = accounts.update_account_data(led, inst.institution, handle.address,
                                           new_doc, accounts.DATA_MODE_INLINE,
                                           inst.shared_data.public, b"c10-nonce")
    assert receipt.accepted
    assert led.height == height_before + 1
    assert receipt.block == height_before

    after_state = led.read_state(handle.address)
    assert after_state.data != before_state.data
    payload = crypto.decrypt(handle.customer_view.shared_data.private,
                             after_state.data)
    assert accounts.decode_data_payload(payload).inline == new_doc
    expected = crypto.encrypt(inst.shared_data.public, b"c10-nonce",
                              accounts.encode_data_payload(
                                  accounts.DATA_MODE_INLINE, new_doc))
    assert after_state.data == expected
