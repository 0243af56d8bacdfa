"""Disclosure verification: the reader's chain walk, both disclosure
variants, windows, and every way a bundle can lie."""

import dataclasses
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from creditchain import codec, crypto, identity, reader
from creditchain.credit_account import DATA_MODE_EXTERNAL, DATA_MODE_INLINE
from creditchain.harness import run_scenario
from creditchain.ledger import Address, Ledger


def assemble(world, bundle, **kwargs):
    return reader.assemble_report(world.ledger, world.registry, bundle,
                                  world.trust_set(), **kwargs)


# -- honest bundles -------------------------------------------------------------


def test_keys_variant_full_chain(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    report = assemble(world, bundle)
    assert report.complete
    assert len(report.entries) == 5
    expected = [world.account(n).address for n in world.chain_names("cust")]
    assert [e.address for e in report.entries] == expected
    assert all(e.commitment_ok for e in report.entries)
    assert all(e.disclosed for e in report.entries)
    assert all(e.institution_trusted for e in report.entries)
    assert report.entries[2].data == b"entry 2: balance 300"
    assert report.window_satisfied  # no window requested


def test_plaintext_variant_matches_keys_variant(chain5_world):
    world = chain5_world
    by_keys = assemble(world, world.build_bundle("cust", variant="keys"))
    by_plaintext = assemble(world, world.build_bundle("cust", variant="plaintext"))
    assert by_keys == by_plaintext


def test_withheld_entry_stays_sealed(chain5_world):
    world = chain5_world
    name = world.chain_names("cust")[2]
    for variant in ("keys", "plaintext"):
        bundle = world.build_bundle("cust", variant=variant,
                                    withhold=frozenset({name}))
        report = assemble(world, bundle)
        assert report.complete  # the *chain* is still fully proven
        sealed = report.entries[2]
        assert not sealed.disclosed
        assert sealed.data is None
        assert sealed.commitment_ok  # commitment checking needs no data key
        assert [e.disclosed for e in report.entries] == [True, True, False, True, True]


def test_truncated_bundle_raises_incomplete(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", upto=3)
    with pytest.raises(reader.IncompleteDisclosure) as err:
        assemble(world, bundle)
    partial = err.value.report
    assert not partial.complete
    assert len(partial.entries) == 3
    assert all(e.disclosed for e in partial.entries)


def test_empty_bundle_on_nonempty_chain(chain5_world):
    world = chain5_world
    bundle = dataclasses.replace(world.build_bundle("cust"), entries=(), head_nonce=None)
    with pytest.raises(reader.IncompleteDisclosure) as err:
        assemble(world, bundle)
    assert err.value.report.entries == ()


def test_unknown_identity_rejected(chain5_world):
    world = chain5_world
    ghost = crypto.generate_keypair(b"ghost").public
    bundle = dataclasses.replace(world.build_bundle("cust"), identity=ghost)
    with pytest.raises(reader.UnknownIdentity):
        assemble(world, bundle)


# -- windows ----------------------------------------------------------------------


def test_window_satisfied_when_all_open(chain5_world):
    world = chain5_world
    blocks = [e.creation_block
              for e in assemble(world, world.build_bundle("cust")).entries]
    bundle = world.build_bundle("cust", window=(min(blocks), max(blocks)))
    report = assemble(world, bundle)
    assert report.window == (min(blocks), max(blocks))
    assert report.window_satisfied


def test_window_fails_on_withheld_in_window_entry(chain5_world):
    world = chain5_world
    names = world.chain_names("cust")
    report = assemble(world, world.build_bundle("cust"))
    full = (report.entries[0].creation_block, report.entries[-1].creation_block)
    bundle = world.build_bundle("cust", window=full, withhold=frozenset({names[1]}))
    verdict = assemble(world, bundle)
    assert verdict.complete
    assert not verdict.window_satisfied


def test_window_ignores_withheld_outside(chain5_world):
    world = chain5_world
    names = world.chain_names("cust")
    report = assemble(world, world.build_bundle("cust"))
    # window covering only the last account; withhold the first
    lo = report.entries[-1].creation_block
    bundle = world.build_bundle("cust", window=(lo, lo),
                                withhold=frozenset({names[0]}))
    assert assemble(world, bundle).window_satisfied


def test_empty_window_vacuously_true(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", window=(50, 10),
                                withhold=frozenset(world.chain_names("cust")))
    assert assemble(world, bundle).window_satisfied


def test_incomplete_report_never_satisfies_window(chain5_world):
    world = chain5_world
    report = assemble(world, world.build_bundle("cust"))
    full = (report.entries[0].creation_block, report.entries[-1].creation_block)
    bundle = world.build_bundle("cust", window=full, upto=2)
    with pytest.raises(reader.IncompleteDisclosure) as err:
        assemble(world, bundle)
    assert not err.value.report.window_satisfied
    assert not reader.check_window(err.value.report, *full)


def test_window_verdict_is_check_windows(chain5_world):
    """The verdict a windowed report carries is what ``check_window`` says of
    it, over the windows and withheld sets the tests above use."""
    world = chain5_world
    names = world.chain_names("cust")
    blocks = [e.creation_block for e in assemble(world, world.build_bundle("cust")).entries]
    windows = [(min(blocks), max(blocks)), (blocks[-1], blocks[-1]), (50, 10), (3, 9)]
    withheld = [frozenset(), frozenset({names[0]}), frozenset({names[1]}), frozenset(names)]
    verdicts = set()
    for window in windows:
        for withhold in withheld:
            for variant in ("keys", "plaintext"):
                report = assemble(world, world.build_bundle("cust", variant=variant,
                                                            window=window, withhold=withhold))
                assert report.window == window
                assert report.window_satisfied == reader.check_window(report, *window)
                verdicts.add(report.window_satisfied)
    assert verdicts == {True, False}


# -- lying bundles -----------------------------------------------------------------


def test_reordered_entries_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    entries = list(bundle.entries)
    entries[1], entries[2] = entries[2], entries[1]
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(bundle, entries=tuple(entries)))


def test_skipped_entry_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    entries = bundle.entries[:1] + bundle.entries[2:]  # silently drop one account
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(bundle, entries=entries))


def test_foreign_account_substituted_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    # swap the last entry's address for another account on the same ledger
    names = world.chain_names("cust")
    other = world.account(names[0]).address
    entries = bundle.entries[:-1] + (
        dataclasses.replace(bundle.entries[-1], address=other),)
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(bundle, entries=entries))


def test_wrong_institution_identity_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    liar = crypto.generate_keypair(b"claimed institution").public
    entries = (dataclasses.replace(bundle.entries[0], institution_identity=liar),
               ) + bundle.entries[1:]
    with pytest.raises(reader.CommitmentInvalid):
        assemble(world, dataclasses.replace(bundle, entries=entries))


def test_wrong_head_nonce_detected_in_plaintext_variant(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="plaintext")
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(bundle, head_nonce=b"not the nonce"))


def test_plaintext_claim_beyond_terminal_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="plaintext")
    last = bundle.entries[-1]
    forged_last = dataclasses.replace(
        last, next_address=bundle.entries[0].address, next_nonce=b"n")
    entries = bundle.entries[:-1] + (forged_last,)
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(bundle, entries=entries))


def test_plaintext_next_claim_must_match_walk(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="plaintext")
    first = bundle.entries[0]
    # claim the wrong successor: the forged claim contradicts entry 1's address
    forged = dataclasses.replace(first, next_address=bundle.entries[3].address)
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(
            bundle, entries=(forged,) + bundle.entries[1:]))


def test_forged_data_plaintext_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="plaintext")
    victim = bundle.entries[1]
    assert victim.data_plaintext is not None
    forged = dataclasses.replace(victim, data_plaintext=b"much better balance")
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(
            bundle, entries=(bundle.entries[0], forged) + bundle.entries[2:]))


def test_mismatched_data_key_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    wrong_key = crypto.generate_keypair(b"wrong data key").private
    forged = dataclasses.replace(bundle.entries[0], data_key=wrong_key)
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(
            bundle, entries=(forged,) + bundle.entries[1:]))


def test_extra_entry_beyond_terminal_detected(chain5_world):
    world = chain5_world
    bundle = world.build_bundle("cust", variant="keys")
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(
            bundle, entries=bundle.entries + (bundle.entries[0],)))


def test_keys_then_plaintext_entry_lacks_nonce(chain5_world):
    """A KeyDisclosure consumes the link without revealing the next nonce, so
    a plaintext-style entry cannot follow it — the reader refuses rather
    than guessing."""
    world = chain5_world
    keys = world.build_bundle("cust", variant="keys")
    plain = world.build_bundle("cust", variant="plaintext")
    mixed = (keys.entries[0],) + plain.entries[1:]
    with pytest.raises(reader.ChainMismatch):
        assemble(world, dataclasses.replace(keys, entries=mixed))


# -- external-hash data ------------------------------------------------------------


@pytest.fixture(scope="module")
def external_world():
    text = helpers.chain_scenario(2)
    text += 'UPDATE acct1 external "full statement, kept off-chain"\n'
    return run_scenario(text).world


def test_external_data_without_store_reports_digest(external_world):
    world = external_world
    report = assemble(world, world.build_bundle("cust"))
    entry = report.entries[1]
    assert entry.disclosed
    assert entry.data_mode == "external-hash"
    assert entry.data is None
    assert entry.external_digest == crypto.digest(b"full statement, kept off-chain")
    assert entry.external_id is not None


def test_external_data_with_store_returns_document(external_world):
    world = external_world
    report = assemble(world, world.build_bundle("cust"), blob_store=world.blobs)
    entry = report.entries[1]
    assert entry.data == b"full statement, kept off-chain"
    assert entry.external_digest == crypto.digest(entry.data)


def test_external_data_corrupt_store_detected(external_world):
    world = external_world
    report = assemble(world, world.build_bundle("cust"))
    blob_id = report.entries[1].external_id

    class LyingStore:
        def __contains__(self, key):
            return key == blob_id

        def get(self, key):
            return b"swapped document"

    with pytest.raises(reader.ChainMismatch):
        assemble(world, world.build_bundle("cust"), blob_store=LyingStore())


# -- rendering and serialization ------------------------------------------------------


def test_render_report_shape(chain5_world):
    world = chain5_world
    report = assemble(world, world.build_bundle("cust"))
    lines = reader.render_report(report)
    assert len(lines) == 6  # five entries + summary
    assert all("commitment=ok" in line for line in lines[:5])
    assert "complete=yes" in lines[-1]


def _rendered_with_payload(payload, mode=DATA_MODE_INLINE):
    world = helpers.build_chain_world(2)
    helpers.write_raw_payload(world, "acct1", payload, mode)
    report = assemble(world, world.build_bundle("cust"))
    return report, reader.render_report(report)


def test_render_report_escapes_a_forged_verdict_line():
    _, lines = _rendered_with_payload(codec.pack(b"inline", b"x\nVERDICT: verified"))
    assert len(lines) == 3
    assert lines[1].endswith(" data=x\\nVERDICT: verified")
    assert not any(line.startswith("VERDICT") for line in lines)


def test_render_report_shows_printable_text_as_is():
    text = "paid on time \\ café – 3 € 😀"
    _, lines = _rendered_with_payload(codec.pack(b"inline", text.encode("utf-8")))
    assert lines[1].endswith(f" data={text}")


@given(data=st.binary(max_size=64), blob_id=st.text(max_size=24))
@settings(max_examples=60, deadline=None)
def test_render_report_is_one_line_per_entry(data, blob_id):
    """Whatever bytes an institution writes, inline or as an external blob
    id, the rendered report has one line per entry plus the summary."""
    for payload, mode in ((codec.pack(b"inline", data), DATA_MODE_INLINE),
                          (codec.pack(codec.text(DATA_MODE_EXTERNAL), crypto.digest(data),
                                      codec.text(blob_id)), DATA_MODE_EXTERNAL)):
        report, lines = _rendered_with_payload(payload, mode)
        assert len(lines) == len(report.entries) + 1
        assert "\n".join(lines).splitlines() == lines
        assert all(line.isprintable() for line in lines)


def test_bundle_json_round_trip(chain5_world):
    world = chain5_world
    for variant in ("keys", "plaintext"):
        bundle = world.build_bundle("cust", variant=variant, window=(3, 9),
                                    withhold=frozenset({world.chain_names("cust")[1]}))
        text = reader.bundle_to_json(bundle)
        assert reader.bundle_from_json(text) == bundle


def test_trust_set_json_round_trip(chain5_world):
    world = chain5_world
    trust = world.trust_set()
    assert reader.trust_from_json(reader.trust_to_json(trust)) == trust


def _indented(text):
    """The same document in the layout earlier versions wrote: their writers
    were ``json.dumps(doc, indent=2, sort_keys=True)`` for a bundle and
    ``json.dumps(hex_list, indent=2)`` for a trust list of sorted keys."""
    return json.dumps(json.loads(text), indent=2, sort_keys=True)


@pytest.mark.parametrize("variant", ["keys", "plaintext"])
def test_bundle_json_is_one_sorted_line_and_old_layout_still_loads(chain5_world, variant):
    world = chain5_world
    bundle = world.build_bundle("cust", variant=variant, window=(3, 9),
                                withhold=frozenset({world.chain_names("cust")[1]}))
    text = reader.bundle_to_json(bundle)
    assert "\n" not in text
    assert text == json.dumps(json.loads(text), sort_keys=True)
    assert text == reader.bundle_to_json(bundle)
    old = _indented(text)
    assert old.count("\n") > len(bundle.entries)
    assert json.loads(old) == json.loads(text)
    assert reader.bundle_from_json(old) == bundle


def test_trust_json_is_one_sorted_line_and_old_layout_still_loads(chain5_world):
    trust = chain5_world.trust_set()
    text = reader.trust_to_json(trust)
    assert "\n" not in text
    assert json.loads(text) == sorted(json.loads(text))
    assert text == reader.trust_to_json(trust)
    old = _indented(text)
    assert old.count("\n") == len(trust) + 1
    assert json.loads(old) == json.loads(text)
    assert reader.trust_from_json(old) == trust


# -- payloads that are not protocol payloads -----------------------------------------


NON_UTF8_PAYLOADS = {
    "mode-tag": codec.pack(b"\xff\xfe", b"x"),
    "blob-id": codec.pack(codec.text(DATA_MODE_EXTERNAL), crypto.digest(b"doc"), b"\xff"),
}


@pytest.mark.parametrize("variant", ["keys", "plaintext"])
@pytest.mark.parametrize("case", sorted(NON_UTF8_PAYLOADS))
def test_non_utf8_payload_is_a_chain_mismatch(variant, case):
    world = helpers.build_chain_world(2)
    helpers.write_raw_payload(world, "acct1", NON_UTF8_PAYLOADS[case])
    with pytest.raises(reader.ChainMismatch, match="not a protocol payload"):
        assemble(world, world.build_bundle("cust", variant=variant))


# -- memoized checks ---------------------------------------------------------------


MEMOS = (reader._commitments, reader._openings, reader._sealings)


@pytest.fixture
def cold_memos():
    for memo in MEMOS:
        memo.clear()
    yield
    for memo in MEMOS:
        memo.clear()


def _count_crypto_calls(monkeypatch):
    """Route crypto.verify/decrypt/encrypt through counters; returns the counts."""
    counts = {"verify": 0, "decrypt": 0, "encrypt": 0}
    for name in counts:
        def counted(*args, _name=name, _real=getattr(crypto, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(crypto, name, counted)
    return counts


@pytest.mark.parametrize("variant", ["keys", "plaintext"])
def test_second_report_of_a_bundle_runs_no_crypto(chain5_world, cold_memos,
                                                  monkeypatch, variant):
    world = chain5_world
    bundle = world.build_bundle("cust", variant=variant)
    counts = _count_crypto_calls(monkeypatch)
    first = assemble(world, bundle)
    assert counts["verify"] == 5
    assert counts["decrypt" if variant == "keys" else "encrypt"] == 10  # links and data
    for name in counts:
        counts[name] = 0
    assert assemble(world, bundle) == first
    assert counts == {"verify": 0, "decrypt": 0, "encrypt": 0}


def _with(bundle, index, **changes):
    """The bundle with entry ``index`` changed."""
    entries = list(bundle.entries)
    entries[index] = dataclasses.replace(entries[index], **changes)
    return dataclasses.replace(bundle, entries=tuple(entries))


# Each tamper but the first reuses bytes the honest bundle also holds, so a
# memo keyed on less than the full input would answer it from the honest run.
TAMPERS = {
    "data-key": ("keys", lambda b: _with(
        b, 0, data_key=crypto.generate_keypair(b"wrong data key").private),
        reader.ChainMismatch),
    "pointer-key": ("keys", lambda b: _with(b, 2, pointer_key=b.entries[3].pointer_key),
                    reader.ChainMismatch),
    "institution-keys": ("keys", lambda b: _with(
        b, 0, institution_identity=b.entries[1].institution_identity),
        reader.CommitmentInvalid),
    "institution-plaintext": ("plaintext", lambda b: _with(
        b, 0, institution_identity=b.entries[1].institution_identity),
        reader.CommitmentInvalid),
    "link-nonce": ("plaintext", lambda b: _with(b, 0, next_nonce=b.entries[1].next_nonce),
                   reader.ChainMismatch),
    "data-nonce": ("plaintext", lambda b: _with(b, 0, data_nonce=b.entries[1].data_nonce),
                   reader.ChainMismatch),
}


def _failure(world, bundle):
    with pytest.raises((reader.ChainMismatch, reader.CommitmentInvalid)) as err:
        assemble(world, bundle)
    return type(err.value), str(err.value)


@pytest.mark.parametrize("case", sorted(TAMPERS))
def test_tampered_bundle_fails_alike_on_cold_and_warm_memo(chain5_world, cold_memos, case):
    variant, tamper, expected = TAMPERS[case]
    world = chain5_world
    honest = world.build_bundle("cust", variant=variant)
    forged = tamper(honest)
    cold = _failure(world, forged)
    assert cold[0] is expected
    assemble(world, honest)  # every honest check is now memoized
    assert _failure(world, forged) == cold
    assert _failure(world, forged) == cold  # and the failure was not stored


@pytest.mark.parametrize("variant", ["keys", "plaintext"])
def test_update_between_reports_shows_new_plaintext(cold_memos, variant):
    world = helpers.build_chain_world(2)
    assert assemble(world, world.build_bundle("cust", variant=variant)
                    ).entries[1].data == b"entry 1: balance 200"
    run_scenario('UPDATE acct1 inline "entry 1: balance 999"\n', world=world)
    report = assemble(world, world.build_bundle("cust", variant=variant))
    assert report.entries[1].data == b"entry 1: balance 999"
    assert report.entries[0].data == b"entry 0: balance 100"


def test_replay_after_reports_verifies_every_transaction(chain5_world, cold_memos,
                                                         monkeypatch):
    world = chain5_world
    for variant in ("keys", "plaintext"):
        for _ in range(3):
            assemble(world, world.build_bundle("cust", variant=variant))
    counts = _count_crypto_calls(monkeypatch)
    Ledger.replay(world.ledger.export())
    assert counts["verify"] == len(world.ledger.log)


def test_memo_evicts_least_recently_used_and_skips_long_inputs(cold_memos, monkeypatch):
    monkeypatch.setattr(reader, "MEMO_ENTRIES", 2)
    memo = reader._openings
    calls = []

    def check(value):
        calls.append(value)
        return value

    for key in (b"a", b"b", b"a", b"c"):  # "b" is least recently used when "c" arrives
        memo.call((key,), check, key)
    assert calls == [b"a", b"b", b"c"]
    memo.call((b"a",), check, b"a")
    memo.call((b"b",), check, b"b")
    assert calls == [b"a", b"b", b"c", b"b"]
    long_input = bytes(reader.MEMO_MAX_INPUT + 1)
    memo.call((long_input,), check, long_input)
    memo.call((long_input,), check, long_input)
    assert calls[-2:] == [long_input, long_input]


def test_memos_stay_under_their_ceiling(cold_memos):
    """Fill all three memos to their bound with the largest inputs they
    store, shaped like commitment checks, ciphertext opens and
    re-encryptions, and measure what they hold."""
    longest = reader.MEMO_MAX_INPUT
    counter = iter(range(1 << 62))

    def unique(size):  # distinct bytes of the given size
        return next(counter).to_bytes(8, "big") + bytes(size - 8)

    shapes = (
        (reader._commitments, (64, longest - 128, 64), None),
        (reader._openings, (32, longest - 32), longest - 32 - crypto.CIPHERTEXT_OVERHEAD),
        (reader._sealings, (64, 16, longest - 80), longest - 80 + crypto.CIPHERTEXT_OVERHEAD),
    )
    tracemalloc.start()
    try:
        for memo, sizes, result_size in shapes:
            for _ in range(reader.MEMO_ENTRIES + 10):
                result = True if result_size is None else unique(result_size)
                memo.call(tuple(unique(size) for size in sizes), lambda: result)
            assert len(memo) == reader.MEMO_ENTRIES
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < reader.MEMO_CEILING_BYTES, f"memos hold {held} bytes"


# -- the commitment memo binds the customer ------------------------------------------


def _head_at(world, customer, target, nonce=b"graft nonce"):
    """Register ``customer`` and point their chain head at ``target`` under a
    fresh pointer key; returns that key pair and the nonce."""
    run_scenario(f"GENKEY {customer}\nREGISTER {customer} FUZZ:{customer.upper()}\n",
                 world=world)
    pointer = crypto.generate_keypair(customer.encode(), crypto.ROLE_SHARED_POINTER)
    ciphertext = crypto.encrypt(pointer.public, nonce, target.digest)
    receipt = identity.set_first_credit_account(world.ledger, world.registry,
                                                world.actor(customer), ciphertext)
    assert receipt.accepted, receipt
    return pointer, nonce


@pytest.mark.parametrize("warm", [False, True], ids=["cold-memo", "after-owner-report"])
def test_grafted_account_fails_its_commitment(cold_memos, warm):
    """A thief points their own chain head at another customer's committed
    account and discloses it: the link opens, the data key is withheld, and
    the institution is the real one.  Only the customer identity in the
    commitment tells them apart, so the check must fail even once the
    owner's honest report has put that account's check in the memo."""
    world = helpers.build_chain_world(2)
    victim = world.account("acct0")
    pointer, _ = _head_at(world, "thief", victim.address)
    graft = reader.DisclosureBundle(
        identity=world.actor("thief").public,
        entries=(reader.KeyDisclosure(address=victim.address,
                                      institution_identity=world.actor(victim.institution).public,
                                      pointer_key=pointer.private),))
    if warm:
        assert assemble(world, world.build_bundle("cust")).entries[0].commitment_ok
        assert len(reader._commitments) == 2
    with pytest.raises(reader.CommitmentInvalid) as err:
        assemble(world, graft)
    assert err.value.address == victim.address


# -- the one ledger read per entry refuses what is not a credit account ------------


@pytest.fixture(scope="module")
def record_world():
    world = helpers.build_chain_world(1)
    run_scenario("MINT inst0 rec\n", world=world)
    return world


NOT_ACCOUNTS = {
    "registry": lambda world: world.registry,
    "factory": lambda world: world.factory,
    "public-record": lambda world: world.records["rec"].address,
    "unknown-address": lambda world: Address(b"\x07" * 32),
}


@pytest.mark.parametrize("variant", ["keys", "plaintext"])
@pytest.mark.parametrize("target", sorted(NOT_ACCOUNTS))
def test_link_to_a_non_account_is_refused(record_world, variant, target):
    world = record_world
    address = NOT_ACCOUNTS[target](world)
    customer = f"lost-{target}-{variant}"
    pointer, nonce = _head_at(world, customer, address)
    institution = world.actor("inst0").public
    if variant == "keys":
        entry = reader.KeyDisclosure(address=address, institution_identity=institution,
                                     pointer_key=pointer.private)
        head_nonce = None
    else:
        entry = reader.PlaintextDisclosure(address=address, institution_identity=institution,
                                           pointer_public_key=pointer.public)
        head_nonce = nonce
    bundle = reader.DisclosureBundle(identity=world.actor(customer).public, entries=(entry,),
                                     head_nonce=head_nonce)
    with pytest.raises(reader.ChainMismatch, match="entry 0 does not point at a credit account"):
        assemble(world, bundle)


def test_failed_commitment_check_is_not_stored(chain5_world, cold_memos):
    world = chain5_world
    honest = world.build_bundle("cust")
    forged = _with(honest, 0, institution_identity=crypto.generate_keypair(b"liar").public)
    for _ in range(2):
        with pytest.raises(reader.CommitmentInvalid):
            assemble(world, forged)
        assert len(reader._commitments) == 0
