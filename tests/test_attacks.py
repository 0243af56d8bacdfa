"""The adversarial suites must all hold, deterministically, and leave
worlds that still pass the structural audits."""

import hashlib

import pytest

from creditchain import attacks, harness, reader


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_suite_defends(name):
    report = attacks.run_suite(name)
    assert report.ok, report.notes
    assert report.blocked == report.attempts
    assert report.world is not None


@pytest.mark.parametrize("name", sorted(attacks.SUITES))
def test_suite_deterministic(name):
    assert attacks.run_suite(name) == attacks.run_suite(name)


def test_run_all_covers_every_suite():
    reports = attacks.run_all()
    assert sorted(r.name for r in reports) == sorted(attacks.SUITES)
    assert all(r.ok for r in reports)


def test_unknown_suite_name():
    with pytest.raises(ValueError):
        attacks.run_suite("nonexistent")


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
