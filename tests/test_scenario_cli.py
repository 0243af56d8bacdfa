"""End-to-end CLI runs, in-process via cli.main()."""

import hashlib
import json
from pathlib import Path

import pytest

from creditchain import cli, crypto
from creditchain.harness import run_scenario

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"
LIFECYCLE = SCENARIO_DIR / "lifecycle.scn"


def run_cli(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def disclosure_files(tmp_path, capsys):
    ledger = tmp_path / "ledger.bin"
    bundle = tmp_path / "bundle.json"
    trust = tmp_path / "trust.json"
    code, out, _ = run_cli(capsys, "disclose", LIFECYCLE, "alice",
                           "--ledger-out", ledger, "--bundle-out", bundle,
                           "--trust-out", trust)
    assert code == 0
    identity_hex = out.splitlines()[0].split(": ")[1]
    return ledger, bundle, trust, identity_hex


def test_run_scenario_green(capsys, tmp_path):
    export = tmp_path / "ledger.bin"
    code, out, err = run_cli(capsys, "run", LIFECYCLE, "--export-ledger", export)
    assert code == 0
    assert "audits passed" in out
    assert export.exists()


def test_run_scenario_quiet_still_audits(capsys):
    code, out, _ = run_cli(capsys, "run", LIFECYCLE, "--quiet")
    assert code == 0
    assert "-> ACCEPT" not in out
    assert "audits passed" in out


def test_run_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", tmp_path / "absent.scn")
    assert code == 1
    assert "cannot read input" in err


def test_attack_single_suite(capsys):
    code, out, _ = run_cli(capsys, "attack", "sybil")
    assert code == 0
    assert "sybil: DEFENDED" in out


def test_attack_all(capsys):
    code, out, _ = run_cli(capsys, "attack", "all", "--attempts", "20")
    assert code == 0
    assert out.count("DEFENDED") == 6


def test_disclose_then_report_verifies(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    code, out, _ = run_cli(capsys, "report", identity_hex,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 0
    assert "VERDICT: verified" in out
    assert out.count("account=") == 3  # alice's chain


def test_report_with_satisfiable_window(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    code, out, _ = run_cli(capsys, "report", identity_hex,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust,
                           "--from", "0", "--to", "200")
    assert code == 0
    assert "VERDICT: verified" in out


def test_report_flags_withheld_window(capsys, tmp_path):
    ledger = tmp_path / "ledger.bin"
    bundle = tmp_path / "bundle.json"
    trust = tmp_path / "trust.json"
    code, out, _ = run_cli(capsys, "disclose", LIFECYCLE, "alice",
                           "--withhold", "a-acct2",
                           "--ledger-out", ledger, "--bundle-out", bundle,
                           "--trust-out", trust)
    assert code == 0
    identity_hex = out.splitlines()[0].split(": ")[1]
    code, out, _ = run_cli(capsys, "report", identity_hex,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust,
                           "--from", "0", "--to", "500")
    assert code == 1
    assert "window not satisfied" in out


def test_report_rejects_tampered_bundle(capsys, tmp_path, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    doc = json.loads(bundle.read_text())
    doc["entries"][0], doc["entries"][1] = doc["entries"][1], doc["entries"][0]
    twisted = tmp_path / "twisted.json"
    twisted.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "report", identity_hex,
                           "--ledger", ledger, "--bundle", bundle.parent / "twisted.json",
                           "--trust", trust)
    assert code == 1
    assert "contradicts the chain" in out


def test_report_rejects_foreign_identity(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    other = "ab" * 64
    code, _, err = run_cli(capsys, "report", other,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 1
    assert "different identity" in err


def test_report_bad_identity_hex(capsys, disclosure_files):
    ledger, bundle, trust, _ = disclosure_files
    code, _, err = run_cli(capsys, "report", "zz-not-hex",
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2


def test_report_on_truncated_export(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    ledger.write_bytes(ledger.read_bytes()[:200])
    code, out, err = run_cli(capsys, "report", identity_hex,
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 1
    assert err.startswith("REPLAY FAILED: ")
    assert "Traceback" not in out + err


def _edit(change):
    """A bundle edit: decode the JSON, apply ``change`` to it, encode again."""
    def apply(text):
        doc = json.loads(text)
        change(doc)
        return json.dumps(doc)
    return apply


UNDECODABLE = {
    "bundle-bad-json": ("bundle", lambda text: "{not json"),
    "bundle-no-entries": ("bundle", _edit(lambda doc: doc.pop("entries"))),
    "bundle-bad-hex": ("bundle", _edit(lambda doc: doc["entries"][0].update(address="zz" * 32))),
    "bundle-short-key": ("bundle", _edit(lambda doc: doc.update(identity=doc["identity"][:-2]))),
    "bundle-unknown-variant": ("bundle",
                               _edit(lambda doc: doc["entries"][0].update(variant="telepathy"))),
    "trust-bad-json": ("trust", lambda text: "not json at all"),
    "trust-bad-hex": ("trust", lambda text: '["zz"]'),
}


@pytest.mark.parametrize("case", sorted(UNDECODABLE))
def test_report_on_undecodable_input(capsys, disclosure_files, case):
    ledger, bundle, trust, identity_hex = disclosure_files
    target, corrupt = UNDECODABLE[case]
    path = bundle if target == "bundle" else trust
    path.write_text(corrupt(path.read_text()))
    code, out, err = run_cli(capsys, "report", identity_hex,
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("unusable input: ")


def test_report_on_unregistered_identity(capsys, disclosure_files):
    ledger, bundle, trust, _ = disclosure_files
    stranger = crypto.generate_keypair(b"never registered").public.to_bytes().hex()
    doc = json.loads(bundle.read_text())
    doc["identity"] = stranger
    bundle.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "report", stranger,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2
    assert "not registered" in out


def test_disclose_unknown_customer(capsys, tmp_path):
    code, _, err = run_cli(capsys, "disclose", LIFECYCLE, "nobody",
                           "--ledger-out", tmp_path / "l", "--bundle-out",
                           tmp_path / "b", "--trust-out", tmp_path / "t")
    assert code == 2
    assert "no actor" in err


def test_export_and_replay(capsys, tmp_path):
    out_file = tmp_path / "exported.bin"
    code, out, _ = run_cli(capsys, "export-ledger", out_file, "--scenario", LIFECYCLE)
    assert code == 0
    code, out, _ = run_cli(capsys, "replay", out_file)
    assert code == 0
    assert "replayed cleanly" in out
    assert "5 credit_account" in out


def test_replay_rejects_corrupted_export(capsys, tmp_path):
    out_file = tmp_path / "exported.bin"
    run_cli(capsys, "export-ledger", out_file, "--scenario", LIFECYCLE)
    capsys.readouterr()
    blob = bytearray(out_file.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    out_file.write_bytes(bytes(blob))
    code, _, err = run_cli(capsys, "replay", out_file)
    assert code == 1
    assert "REPLAY FAILED" in err


def test_replay_rejects_truncated_export(capsys, tmp_path):
    out_file = tmp_path / "exported.bin"
    run_cli(capsys, "export-ledger", out_file, "--scenario", LIFECYCLE)
    capsys.readouterr()
    out_file.write_bytes(out_file.read_bytes()[:100])
    code, _, err = run_cli(capsys, "replay", out_file)
    assert code == 1
    assert "REPLAY FAILED: malformed export" in err


# Ledger exports are a stored format: the same scenario must keep producing
# the same bytes unless the export version is bumped.
EXPORT_SHA256 = {
    "lifecycle.scn": "7e77f57959fb6f34a3733ee534e016d7de421ace3e435895347ba88b4ebb1ae6",
    "rejections.scn": "88510dd1bde2a5cfc640e041782e64c1f1677434e6d4458acca90dac0af8400f",
}


@pytest.mark.parametrize("name", sorted(EXPORT_SHA256))
def test_scenario_exports_are_byte_stable(name):
    export = run_scenario((SCENARIO_DIR / name).read_text()).world.ledger.export()
    assert hashlib.sha256(export).hexdigest() == EXPORT_SHA256[name]


def test_transcripts_byte_identical_across_runs():
    text = LIFECYCLE.read_text()
    assert run_scenario(text).transcript == run_scenario(text).transcript
