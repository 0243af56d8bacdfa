"""The adversarial suites must all hold, deterministically, and leave
worlds that still pass the structural audits."""

import hashlib

import pytest

import helpers
from creditchain import attacks, cli, harness, reader
from creditchain.ledger import Ledger


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_suite_defends(name):
    report = attacks.run_suite(name)
    assert report.ok, report.notes
    assert report.blocked == report.attempts
    assert report.world is not None


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_suite_deterministic(name):
    assert attacks.run_suite(name) == attacks.run_suite(name)


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        attacks.run_suite("nonexistent")


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_attack_worlds_replay_alike_with_their_admitted_log(name, verifies):
    """Foreign submits, refused deployments and refused forgeries replay to
    the same export whether or not the live log vouches for them, and the
    audit, which lets it, verifies no signature."""
    world = attacks.run_suite(name).world
    data = world.ledger.export()
    assert Ledger.replay(data, admitted_by=world.ledger).export() == data
    assert Ledger.replay(data).export() == data
    verifies.clear()
    harness.audit_replay(world)
    assert verifies == []


def test_attack_worlds_replay_and_audit_clean():
    """After every suite the ledger still replays, write-once still holds,
    and no registered key ever touched an account contract.  Chain audits
    run lenient: smuggling attempts legitimately leave added-but-loose
    records behind."""
    for name in sorted(attacks.SUITES):
        world = attacks.run_suite(name).world
        harness.audit_replay(world)
        harness.audit_write_once(world)
        harness.audit_chain_validity(world, strict=False)
        harness.audit_true_identity_absence(world)


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_attack_worlds_pass_attribution_and_the_observer_scan(name):
    world = attacks.run_suite(name).world
    harness.audit_attribution(world)
    harness.observer_link_scan(world)


def test_attribution_resigning_agrees_with_verification(lifecycle_world):
    """On every committed account and filled record the world tracks, the
    audit's re-sign-and-compare predicate and signature verification agree.
    The suites track neither (their accounts are uncommitted, their records
    filed around the world's handles), so lifecycle carries the comparison."""
    verdicts = helpers.attribution_verdicts(lifecycle_world)
    for name in sorted(attacks.SUITES):
        verdicts += helpers.attribution_verdicts(attacks.run_suite(name).world)
    assert [(name, resigned) for name, resigned, _ in verdicts] == \
        [(name, verified) for name, _, verified in verdicts]
    assert len(verdicts) == 9 and all(resigned for _, resigned, _ in verdicts)


def test_pointer_poison_scales():
    report = attacks.run_suite("pointer-poison", attempts=500)
    assert report.ok
    assert report.attempts == 500
    assert report.blocked == 500


def test_summary_lines_render():
    report = attacks.run_suite("sybil")
    assert "DEFENDED" in report.summary()
    assert str(report.attempts) in report.summary()


def test_unauthorized_read_victim_discloses_the_same_data_either_way():
    """The suite builds the victim's chain through the world's own steps,
    so a plaintext disclosure carries the data a keys disclosure opens."""
    world = attacks.run_suite("unauthorized-read").world
    by_keys, by_plaintext = (
        reader.assemble_report(world.ledger, world.registry,
                               world.build_bundle("victim", variant),
                               world.trust_set(), blob_store=world.blobs)
        for variant in ("keys", "plaintext"))
    assert [e.data for e in by_plaintext.entries] == [b"balance 0", b"balance 1"]
    assert by_keys == by_plaintext


# sha256 of each suite's world export at its default arguments
SUITE_EXPORT_SHA256 = {
    "identity-theft": "b5f6c14dbfaa520d545e95055ea52437b532894a52ee78f9fbc60e3d431298dd",
    "list-merge": "9192659f17b3fcbb285f4a4c727fcd0f6bc4d6bab26e624becf072c190bca46d",
    "pointer-poison": "da9ad0a30630f014aa7b3b7f31ab8ebd6f5c3fc4f8d6a5313f3824026914fce8",
    "record-tamper": "a56e38ec3fac9fa4a4590846dd58f8a17182e833e16c4ec0bcfa3309096a3047",
    "sybil": "33063cdeef1cf190f82a6ba15cc859813e9218a7d60da03bf4a497e954421854",
    "unauthorized-read": "5f5f1582ff06f35d32f72d853ea714611e02703b347d5e91d60db3316846a796",
}


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_suite_world_export_is_pinned(name):
    export = attacks.run_suite(name).world.ledger.export()
    assert hashlib.sha256(export).hexdigest() == SUITE_EXPORT_SHA256[name]


# each suite's whole outcome at its default arguments, so a change that moved
# a count or reworded a note shows even while every attempt is still blocked
SUITE_OUTCOMES = {
    "identity-theft": (4, 4, 2, (
        "thief registered the victim's fingerprint under a fresh key "
        "(the chain cannot know better)",)),
    "list-merge": (6, 6, 1, ()),
    "pointer-poison": (60, 60, 23, (
        "victim list grew to 13 records, all 12 honest filings and nothing else",)),
    "record-tamper": (27, 27, 1, ()),
    "sybil": (101, 101, 100, ("100 sybil identities registered (permissionless by design)",)),
    "unauthorized-read": (12, 12, 0, (
        "granted: leaked acct1 pointer key reveals acct1's address",
        "observer scan: no address substrings, no repeated pointer bytes")),
}

# sha256 of what `creditchain attack all` prints
ATTACK_ALL_STDOUT_SHA256 = "9402239283214d6a2ad9c73f3711a401a228fb7cf69368f6798d30483ff33a44"


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_suite_outcome_is_pinned(name):
    report = attacks.run_suite(name)
    outcome = (report.attempts, report.blocked, report.allowed_by_design, report.notes)
    assert report.name == name
    assert outcome == SUITE_OUTCOMES[name]


def test_attack_all_stdout_is_pinned(capsys):
    assert cli.main(["attack", "all"]) == 0
    printed = capsys.readouterr().out
    assert hashlib.sha256(printed.encode("utf-8")).hexdigest() == ATTACK_ALL_STDOUT_SHA256
