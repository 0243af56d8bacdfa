"""Scenario DSL and audit sweeps."""

import dataclasses
import shlex
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from creditchain import codec, crypto, harness
from creditchain.harness import (
    AuditFailure,
    DisclosureRefused,
    ExpectationFailed,
    ParseError,
    ScenarioError,
    SimWorld,
    run_scenario,
)
from creditchain.ledger import LAST_HEIGHT

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"

MINI = """
# a tiny but complete world
GENKEY bank
GENKEY ana
REGISTER bank "US:INST-1"
REGISTER ana "US:123"
CERTIFY bank ana
CEREMONY ana bank acct
OPEN acct 300
COMMIT acct
APPEND ana HEAD acct
UPDATE acct inline "balance 12"
DISCLOSE ana keys
EXPECT REPORT-COMPLETE
"""


def test_scenario_is_deterministic():
    a = run_scenario(MINI)
    b = run_scenario(MINI)
    assert a.transcript == b.transcript
    assert a.world.ledger.export() == b.world.ledger.export()
    assert a.steps == b.steps


def test_transcript_carries_line_numbers_and_outcomes():
    result = run_scenario(MINI)
    lines = result.transcript.splitlines()
    assert any("REGISTER bank" in line and "-> ACCEPT" in line for line in lines)
    assert any("-> REPORT" in line for line in lines)
    assert any("EXPECT REPORT-COMPLETE -> OK" in line for line in lines)


def test_comments_and_blanks_are_free():
    noisy = MINI.replace("CERTIFY bank ana", "CERTIFY bank ana  # vouched\n\n# noise")
    assert run_scenario(noisy).steps == run_scenario(MINI).steps


def test_expected_rejections_are_acknowledged():
    text = MINI + 'UPDATE acct inline "forged" BY acct.customer\nEXPECT REJECT NotInstitution\n'
    result = run_scenario(text)
    assert "-> REJECT NotInstitution" in result.transcript


def test_unacknowledged_rejection_aborts():
    text = MINI + 'UPDATE acct inline "forged" BY acct.customer\nADVANCE 1\n'
    with pytest.raises(ExpectationFailed) as err:
        run_scenario(text)
    assert "NotInstitution" in str(err.value)


def test_unacknowledged_rejection_at_end_aborts():
    text = MINI + 'UPDATE acct inline "forged" BY acct.customer\n'
    with pytest.raises(ExpectationFailed):
        run_scenario(text)


def test_expect_mismatch_aborts_with_line_number():
    text = MINI + "ADVANCE 1\nEXPECT REJECT Expired\n"
    with pytest.raises(ExpectationFailed) as err:
        run_scenario(text)
    assert err.value.line_no == len(text.splitlines())


def test_unknown_command_is_a_parse_error():
    with pytest.raises(ParseError) as err:
        run_scenario("GENKEY a\nFROBNICATE a\n")
    assert err.value.line_no == 2


def test_unknown_actor_is_a_parse_error():
    with pytest.raises(ParseError):
        run_scenario("REGISTER nobody US:1\n")


def test_duplicate_genkey_rejected():
    with pytest.raises(ParseError):
        run_scenario("GENKEY a\nGENKEY a\n")


def test_opening_an_open_account_is_a_parse_error():
    """A second OPEN would deploy a new contract and rebind the account
    away from the one its chain links and its commitment binds."""
    text = MINI + "OPEN acct 900\n"
    with pytest.raises(ParseError, match="account 'acct' is already open") as err:
        run_scenario(text)
    assert err.value.line_no == len(text.splitlines())


def test_bad_quoting_reported():
    with pytest.raises(ParseError) as err:
        run_scenario('GENKEY a\nUPDATE x inline "unterminated\n')
    assert err.value.line_no == 2


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
def test_a_quoted_line_separator_runs_and_is_disclosed_escaped(separator):
    """Only LF ends a scenario line; the report escapes what the data holds."""
    text = MINI + (f'UPDATE acct inline "paid{separator}late"\n'
                   "DISCLOSE ana keys\nEXPECT REPORT-COMPLETE\n")
    transcript = run_scenario(text).transcript
    escaped = separator.encode("unicode_escape").decode("ascii")
    assert f" data=paid{escaped}late\n[ 17] EXPECT REPORT-COMPLETE -> OK\n" in transcript


# every character but LF at which ``str.splitlines`` ends a line
LINE_BREAKS = [c for c in map(chr, range(0x110000)) if c != "\n" and len(f"a{c}b".splitlines()) > 1]


@pytest.mark.parametrize("separator", LINE_BREAKS)
def test_the_transcript_echoes_a_quoted_line_break_escaped(separator):
    """The echoed command stays one line; a tab is echoed as written."""
    text = MINI + f'UPDATE acct inline "paid{separator}late\tfee"\n'
    lines = run_scenario(text).transcript.splitlines()
    escaped = separator.encode("unicode_escape").decode("ascii")
    assert lines[-1] == f'[ 15] UPDATE acct inline "paid{escaped}late\tfee" -> ACCEPT block=9'
    assert all(line.startswith(("[", "      |")) for line in lines)


@pytest.mark.parametrize("separator", ["\x0c", "\x85", "\u2028"])
def test_a_line_ends_at_lf_only(separator):
    with pytest.raises(ParseError, match="^line 3: actor 'a' already exists$"):
        run_scenario(f"GENKEY a{separator}\nGENKEY b\nGENKEY a\n")


MISSING_ARGUMENTS = [
    "DISCLOSE ana",
    "DISCLOSE ana keys WINDOW",
    "DISCLOSE ana keys WINDOW 1",
    "DISCLOSE ana keys UPTO",
    "OPEN acct",
    "PROPOSE-EXP acct customer",
]
OUT_OF_WIDTH = [
    "OPEN acct2 99999999999999999999",
    "OPEN acct2 -1",
    "PROPOSE-EXP acct customer 18446744073709551616",
    "ACCEPT-EXP acct institution -5",
    "ADVANCE 18446744073709551616",
    "ADVANCE -1",
    "DISCLOSE ana keys WINDOW 0 18446744073709551616",
    "DISCLOSE ana keys UPTO -1",
]
# Inputs that once ran because their command never looked at one word: an
# unknown variant with no accounts to disclose, an extra word after an
# expectation, a withheld account that does not exist, the customer of an
# append after another account, the subject of a LINK HEAD that names its
# caller, and an empty caller.
IGNORED_WORDS = [
    "DISCLOSE bank frob",
    "EXPECT ACCEPT junk",
    "DISCLOSE ana keys WITHHOLD nosuch",
    "APPEND nobody acct acct",
    "MINT ana rec\nLINK rec HEAD nobody BY ana",
    "OPEN acct2 300 BY ''",
]


@pytest.mark.parametrize("line", MISSING_ARGUMENTS + OUT_OF_WIDTH + IGNORED_WORDS)
def test_malformed_arguments_are_parse_errors(line):
    text = MINI + "CEREMONY ana bank acct2\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        run_scenario(text)
    assert err.value.line_no == len(text.splitlines())


# What ``creditchain disclose`` refuses in its flags, a scenario refuses in
# its DISCLOSE: an inverted window, and withheld accounts outside the
# customer's chain, which is checked whole, before UPTO truncates it.
@pytest.mark.parametrize("line, message", [
    ("DISCLOSE ana keys WINDOW 9 3", "WINDOW FROM must not be after TO"),
    ("DISCLOSE ana keys WINDOW 9 3 WITHHOLD acct", "WINDOW FROM must not be after TO"),
    ("DISCLOSE ana keys WITHHOLD acct2", "WITHHOLD names no account in ana's chain: 'acct2'"),
    ("DISCLOSE ana plaintext UPTO 1 WITHHOLD acct3 acct acct2 acct3",
     "WITHHOLD names no account in ana's chain: 'acct3', 'acct2'"),
], ids=["inverted-window", "inverted-window-then-withhold", "unlinked-account",
        "strangers-in-order"])
def test_disclose_refuses_what_the_cli_refuses(line, message):
    text = MINI + "CEREMONY ana bank acct2\nCEREMONY ana bank acct3\n" + line + "\n"
    with pytest.raises(ParseError) as err:
        run_scenario(text)
    assert str(err.value) == f"line {len(text.splitlines())}: {message}"


def test_disclose_withholds_an_account_that_upto_leaves_out():
    text = MINI + "DISCLOSE ana keys WINDOW 3 3 UPTO 0 WITHHOLD acct\nEXPECT REPORT-INCOMPLETE\n"
    assert run_scenario(text).transcript.endswith("EXPECT REPORT-INCOMPLETE -> OK\n")


def test_withhold_stops_at_the_next_option():
    text = (MINI + "CEREMONY ana bank acct2\nOPEN acct2 300\nAPPEND ana acct acct2\n"
            "EXPECT ACCEPT\nDISCLOSE ana keys WITHHOLD acct2 UPTO 1\nEXPECT REPORT-INCOMPLETE\n")
    transcript = run_scenario(text).transcript
    assert "WITHHOLD acct2 UPTO 1 -> REPORT complete=no entries=1" in transcript


@pytest.mark.parametrize("options", ["UPTO 1 UPTO 5", "UPTO 5 UPTO 1", "WINDOW 0 9 WINDOW 0 9",
                                     "WITHHOLD acct UPTO 0 WITHHOLD acct"])
def test_an_option_given_twice_is_a_parse_error(options):
    text = MINI + f"DISCLOSE ana keys {options}\n"
    with pytest.raises(ParseError) as err:
        run_scenario(text)
    keyword = options.split()[0]
    assert str(err.value) == (f"line {len(text.splitlines())}: {keyword} given twice; "
                              "usage: DISCLOSE <actor> keys [WINDOW <u64> <u64>] [UPTO <u32>] "
                              "[WITHHOLD <account>...] | DISCLOSE <actor> plaintext "
                              "[WINDOW <u64> <u64>] [UPTO <u32>] [WITHHOLD <account>...]")


def test_a_usage_error_names_every_form_of_the_command():
    with pytest.raises(ParseError) as err:
        run_scenario(MINI + "LINK acct SIDEWAYS ana\n")
    assert str(err.value).endswith(
        "usage: LINK <record> HEAD <actor> [BY <caller>] | LINK <record> AFTER <record> [BY <caller>]")


def test_largest_integers_that_fit_are_accepted():
    text = MINI + ("CEREMONY ana bank acct2\nOPEN acct2 18446744073709551615\n"
                   "ADVANCE 4294967295\nDISCLOSE ana keys WINDOW 0 18446744073709551615\n"
                   "EXPECT REPORT-COMPLETE\n")
    result = run_scenario(text)
    assert result.world.ledger.height >= 4294967295
    assert "window=[0,18446744073709551615]" in result.transcript


def test_a_transaction_past_the_last_height_is_a_scenario_error():
    world = SimWorld()
    world.ledger.advance_block(LAST_HEIGHT - world.ledger.height)
    with pytest.raises(ScenarioError, match="ChainFull") as err:
        run_scenario('GENKEY bank\nREGISTER bank "US:INST-1"\n', world)
    assert err.value.line_no == 2


def test_a_cyclic_chain_discloses_each_account_once():
    """Linking an account after itself is the customer's own doing; the
    pointer is encrypted, so the contract accepts it, and the chain never
    ends."""
    text = MINI + "APPEND ana acct acct\nDISCLOSE ana keys\nEXPECT REPORT-INCOMPLETE\n"
    result = run_scenario(text)
    assert result.world.chain_names("ana") == ["acct"]


def test_a_refused_disclosure_is_a_scenario_error():
    text = MINI + "GENKEY stranger\nDISCLOSE stranger keys\n"
    with pytest.raises(DisclosureRefused) as err:
        run_scenario(text)
    assert err.value.line_no == len(text.splitlines())
    assert "UnknownIdentity" in str(err.value)


@pytest.mark.parametrize("customer, chain", [("bank", []), ("ana", ["acct"])])
def test_build_bundle_refuses_an_unknown_variant_whatever_the_chain(customer, chain):
    world = run_scenario(MINI).world
    assert world.chain_names(customer) == chain
    with pytest.raises(ValueError, match="unknown disclosure variant 'frob'"):
        world.build_bundle(customer, "frob")


def _mutations(text, rng):
    """One token of one command line deleted, replaced, or inserted, or the
    line cut short, with replacement tokens drawn from the scenario itself
    and from integers at and beyond the codec widths."""
    lines = text.splitlines()
    commands = [i for i, line in enumerate(lines) if shlex.split(line, comments=True)]
    pool = sorted({t for line in lines for t in shlex.split(line, comments=True)}) + [
        "", "-1", "0", "4294967296", "18446744073709551615", "18446744073709551616",
        "99999999999999999999", "HEAD", "BY", "WINDOW", "UPTO", "WITHHOLD", "x.y"]
    index = rng.choice(commands)
    tokens = shlex.split(lines[index], comments=True)
    at = rng.randrange(len(tokens) + 1)
    kind = rng.choice(["delete", "replace", "insert", "truncate"])
    if kind == "delete" and at < len(tokens):
        del tokens[at]
    elif kind == "replace" and at < len(tokens):
        tokens[at] = rng.choice(pool)
    elif kind == "insert":
        tokens.insert(at, rng.choice(pool))
    else:
        tokens = tokens[:at]
    lines[index] = shlex.join(tokens)
    return "\n".join(lines) + "\n"


@given(name=st.sampled_from(sorted(p.name for p in SCENARIO_DIR.glob("*.scn"))),
       rng=st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_mutated_scenarios_fail_only_as_scenario_errors(name, rng):
    """What ``creditchain run`` does with a mutated scenario file: run it and
    audit the world, which succeeds or fails with a scenario or audit error."""
    text = _mutations((SCENARIO_DIR / name).read_text(), rng)
    try:
        harness.run_all_audits(run_scenario(text).world)
    except (ScenarioError, AuditFailure):
        pass


def test_by_clause_switches_caller():
    """The BY clause is how scenarios act out misbehaviour: the same UPDATE
    succeeds as the institution and fails as the customer."""
    ok = MINI + 'UPDATE acct inline "v2" BY acct.institution\n'
    assert run_scenario(ok).transcript.count("REJECT") == 0
    bad = MINI + 'UPDATE acct inline "v2" BY ana\nEXPECT REJECT NotInstitution\n'
    assert "REJECT NotInstitution" in run_scenario(bad).transcript


def test_worlds_with_different_seeds_share_nothing():
    a = run_scenario(MINI, world=SimWorld(seed=b"alpha")).world
    b = run_scenario(MINI, world=SimWorld(seed=b"beta")).world
    assert a.actor("ana").public != b.actor("ana").public
    assert a.ledger.export() != b.ledger.export()


# -- audits -------------------------------------------------------------------


def test_audits_pass_on_honest_world():
    world = run_scenario(MINI).world
    names = harness.run_all_audits(world)
    assert len(names) == 6


def test_audit_replay_flags_live_state_that_left_its_log():
    """A live state edited behind the ledger's back no longer rebuilds from
    the log; the sweep reports that as an AuditFailure, not a ReplayMismatch."""
    world = run_scenario(MINI).world
    record = world.ledger._contracts[world.account("acct").address]
    record.state = dataclasses.replace(record.state, expiration=record.state.expiration + 1)
    with pytest.raises(AuditFailure, match="replay diverged"):
        harness.audit_replay(world)


def test_audit_write_once_flags_doctored_log(monkeypatch):
    """Feed the auditor a log where the same set_next landed twice."""
    world = run_scenario(MINI).world
    log = world.ledger.log
    accepted_commits = [e for e in log if e.accepted and e.tx.function == "commit"]
    duplicated = log + accepted_commits
    monkeypatch.setattr(type(world.ledger), "log", property(lambda self: duplicated))
    with pytest.raises(AuditFailure):
        harness.audit_write_once(world)


def test_audit_identity_absence_flags_registered_caller():
    """An account opened under a *registered* key must trip the sweep."""
    world = run_scenario(MINI).world
    from creditchain import credit_account as accounts

    leaky = world.actor("bank")  # registered identity used as an account key
    accounts.create_account(world.ledger, leaky,
                            world.actor("ana").public, leaky.public, 999)
    with pytest.raises(AuditFailure):
        harness.audit_true_identity_absence(world)


def test_audit_chain_validity_strict_catches_loose_added_records():
    """A record marked added but reachable from no head only happens when
    something slipped; simulate by appending to a loose record."""
    from creditchain import public_records as records

    world = run_scenario(MINI).world
    author = world.actor("bank")
    loose = records.mint_record(world.ledger, world.factory, author)
    records.fill_record(world.ledger, author, loose, b"x")
    extra = records.mint_record(world.ledger, world.factory, author)
    records.fill_record(world.ledger, author, extra, b"y")
    assert records.append_record(world.ledger, author, loose, extra).accepted

    with pytest.raises(AuditFailure):
        harness.audit_chain_validity(world, strict=True)
    harness.audit_chain_validity(world, strict=False)  # tolerated when lenient


def test_observer_link_scan_catches_plaintext_pointer():
    world = run_scenario(MINI).world
    from creditchain import identity

    # an imaginary broken client that stores the address without encryption
    careless = world.add_actor("careless")
    identity.register(world.ledger, world.registry, careless,
                      identity.fingerprint_from_text("US:obvious"))
    target = world.account("acct").address
    identity.set_first_credit_account(world.ledger, world.registry, careless,
                                      target.digest)
    with pytest.raises(AuditFailure):
        harness.observer_link_scan(world)


def _plant_pointer(world, name, ciphertext):
    from creditchain import identity

    careless = world.add_actor(name)
    identity.register(world.ledger, world.registry, careless,
                      identity.fingerprint_from_text(f"US:{name}"))
    identity.set_first_credit_account(world.ledger, world.registry, careless, ciphertext)


@pytest.mark.parametrize("prefix,suffix", [(0, 48), (7, 41), (48, 0)],
                         ids=["offset-0", "odd-offset", "at-end"])
def test_observer_link_scan_finds_address_at_any_offset(prefix, suffix):
    world = run_scenario(MINI).world
    address = world.account("acct").address.digest
    _plant_pointer(world, "careless", b"\x01" * prefix + address + b"\x02" * suffix)
    with pytest.raises(AuditFailure):
        harness.observer_link_scan(world)


def test_observer_link_scan_ignores_near_miss():
    world = run_scenario(MINI).world
    address = world.account("acct").address.digest
    near = address[:-1] + bytes([address[-1] ^ 1])
    _plant_pointer(world, "careless", b"\x01" * 7 + near + address[:31])
    harness.observer_link_scan(world)


# MINI, a second registered institution, an account of ana's at bank that
# nobody has committed to yet, and a filled record of bank's
ATTRIBUTION = MINI + """
GENKEY bank2
REGISTER bank2 "US:INST-2"
CEREMONY ana bank acct2
OPEN acct2 300
MINT bank note
FILL note plaintext "paid in full"
"""


def _commit_signature(world, account, signature):
    handle = world.account(account)
    receipt = world.ledger.call(handle.institution_view.institution, handle.address,
                                "commit", signature)
    assert receipt.accepted


def _doctor_record(world, name, **changes):
    record = world.ledger._contracts[world.records[name].address]
    record.state = dataclasses.replace(record.state, **changes)


def test_audit_attribution_passes_when_every_signature_binds():
    world = run_scenario(ATTRIBUTION).world
    harness.audit_attribution(world)
    assert helpers.attribution_verdicts(world) == [("acct", True, True), ("note", True, True)]


def test_audit_attribution_refuses_a_commitment_by_another_institution():
    from creditchain import credit_account as accounts

    world = run_scenario(ATTRIBUTION).world
    handle = world.account("acct2")
    _commit_signature(world, "acct2", accounts.sign_commitment(
        world.actor("bank2"), handle.address, world.actor("ana").public))
    with pytest.raises(AuditFailure, match="^account acct2 commitment does not verify$"):
        harness.audit_attribution(world)
    assert ("acct2", False, False) in helpers.attribution_verdicts(world)


def test_audit_attribution_refuses_a_commitment_over_another_account():
    world = run_scenario(ATTRIBUTION).world
    # bank's own signature, but over acct's binding, not acct2's
    _commit_signature(world, "acct2", world.ledger.read_state(
        world.account("acct").address).commitment)
    with pytest.raises(AuditFailure, match="^account acct2 commitment does not verify$"):
        harness.audit_attribution(world)
    assert ("acct2", False, False) in helpers.attribution_verdicts(world)


def test_only_the_institution_commits_so_a_stranger_cannot_lock_it_out():
    """Whoever sees an account deployed could once commit junk to it first;
    the commitment is write-once, so the institution's own commit was then
    refused and the attribution audit failed."""
    from creditchain import credit_account as accounts

    world = run_scenario(ATTRIBUTION).world
    handle = world.account("acct2")
    refused = world.ledger.call(crypto.generate_keypair(b"stranger"), handle.address,
                                "commit", bytes(64))
    assert (refused.accepted, refused.reason) == (False, "NotInstitution")
    assert world.ledger.read_state(handle.address).commitment is None
    assert accounts.commit_account(world.ledger, handle.institution_view.institution,
                                   world.actor("bank"), handle.address,
                                   world.actor("ana").public).accepted
    harness.audit_attribution(world)
    assert ("acct2", True, True) in helpers.attribution_verdicts(world)


def test_audit_attribution_refuses_a_record_signed_by_another_key():
    world = run_scenario(ATTRIBUTION).world
    handle = world.records["note"]
    _doctor_record(world, "note", signature=crypto.sign(world.actor("bank2").private,
                                                        handle.plaintext))
    with pytest.raises(AuditFailure, match="^record note signature does not verify$"):
        harness.audit_attribution(world)
    assert ("note", False, False) in helpers.attribution_verdicts(world)


def test_audit_attribution_refuses_a_record_naming_another_author():
    """The signature is still the author's; only the key the record names
    changed, so the key comparison is what refuses it."""
    world = run_scenario(ATTRIBUTION).world
    _doctor_record(world, "note", author_key=world.actor("bank2").public.to_bytes())
    with pytest.raises(AuditFailure, match="^record note signature does not verify$"):
        harness.audit_attribution(world)
    assert ("note", False, False) in helpers.attribution_verdicts(world)


def test_scenario_files_run_green():
    import pathlib

    scenario_dir = pathlib.Path(__file__).parent.parent / "scenarios"
    for path in sorted(scenario_dir.glob("*.scn")):
        result = harness.run_scenario_file(path)
        assert result.steps > 0
        harness.run_all_audits(result.world)


def test_a_scenario_file_that_is_not_utf8_fails_on_the_line_of_its_first_bad_byte(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"GENKEY a\r\nGENKEY b\n\xff\xfe GENKEY c\n")
    with pytest.raises(harness.ScenarioError, match="^line 3: not UTF-8 text$"):
        harness.run_scenario_file(path)


def test_data_nonce_is_derived_from_account_and_index_whatever_was_asked_before():
    """The world keeps each account's last data nonce; asking again, for
    another index or another account, still gives the derived nonce."""
    world = SimWorld(b"nonce memo")

    def derived(account, index):
        return crypto.digest(codec.pack(b"data-nonce", world.seed, codec.text(account),
                                        codec.u64(index)))

    asks = [("a", 0), ("a", 0), ("a", 1), ("a", 1), ("a", 0), ("b", 1), ("a", 1), ("b", 0)]
    got = {ask: world.data_nonce(*ask) for ask in asks}
    assert all(world.data_nonce(*ask) == derived(*ask) for ask in asks)
    assert len(set(got.values())) == len(got) == 4
