"""End-to-end CLI runs, in-process via cli.main()."""

import contextlib
import errno
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from creditchain import cli, codec, crypto, reader
from creditchain.harness import run_scenario
from creditchain.ledger import Ledger

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


def test_a_crlf_scenario_prints_the_lf_transcript(capsys, tmp_path):
    crlf = tmp_path / "lifecycle.scn"
    crlf.write_bytes(LIFECYCLE.read_bytes().replace(b"\n", b"\r\n"))
    lf = run_cli(capsys, "run", LIFECYCLE)
    assert lf[0] == 0
    assert run_cli(capsys, "run", crlf) == lf


def test_run_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "run", tmp_path / "absent.scn")
    assert code == 1
    assert "cannot read input" in err


def test_a_failed_write_says_so(capsys, tmp_path):
    missing = tmp_path / "absent" / "ledger.bin"
    for argv in (["disclose", LIFECYCLE, "alice", "--ledger-out", missing,
                  "--bundle-out", tmp_path / "bundle.json", "--trust-out", tmp_path / "trust.json"],
                 ["run", LIFECYCLE, "--quiet", "--no-audit", "--export-ledger", missing],
                 ["export-ledger", missing, "--scenario", LIFECYCLE]):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("cannot write output: ") and str(missing) in err


def test_a_failed_disclose_write_removes_what_it_wrote(capsys, tmp_path):
    code, _, err = run_cli(capsys, "disclose", LIFECYCLE, "alice",
                           "--ledger-out", tmp_path / "ledger.bin",
                           "--bundle-out", tmp_path / "absent" / "bundle.json",
                           "--trust-out", tmp_path / "trust.json")
    assert code == 1
    assert err.startswith("cannot write output: ")
    assert list(tmp_path.iterdir()) == []


class _DiskFillsUp:
    """An open output file whose write stores a few bytes, then fails."""

    def __init__(self, out):
        self.out = out

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.out.close()

    def write(self, data):
        self.out.write(data[:10])
        self.out.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_disclose_write_that_fails_part_way_leaves_no_file(capsys, monkeypatch, tmp_path):
    real_open = Path.open

    def open_(path, *args, **kwargs):
        out = real_open(path, *args, **kwargs)
        return _DiskFillsUp(out) if path.name == "bundle.json" else out

    monkeypatch.setattr(Path, "open", open_)
    code, _, err = run_cli(capsys, "disclose", LIFECYCLE, "alice",
                           "--ledger-out", tmp_path / "ledger.bin",
                           "--bundle-out", tmp_path / "bundle.json",
                           "--trust-out", tmp_path / "trust.json")
    assert code == 1
    assert err == "cannot write output: [Errno 28] No space left on device\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bundle_out", ["x", "{tmp}/x"])
def test_disclose_refuses_outputs_that_name_one_file(capsys, monkeypatch, tmp_path, bundle_out):
    """Checked before the scenario runs, and nothing is written."""
    monkeypatch.chdir(tmp_path)
    started = []
    monkeypatch.setattr(cli.harness, "run_scenario", lambda *a, **k: started.append(a))
    code, _, err = run_cli(capsys, "disclose", LIFECYCLE, "alice", "--ledger-out", "x",
                           "--bundle-out", bundle_out.format(tmp=tmp_path), "--trust-out", "x")
    assert code == 2
    assert err == "--ledger-out, --bundle-out and --trust-out must name three different files\n"
    assert started == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("verb", ["run", "disclose", "export-ledger"])
def test_a_scenario_that_is_not_utf8_is_refused_in_one_line(capsys, tmp_path, verb):
    bad = tmp_path / "bad.scn"
    bad.write_bytes(b"\xff\xfe GENKEY a\n")
    argv = {"run": ["run", bad],
            "disclose": ["disclose", bad, "a", "--ledger-out", tmp_path / "l.bin",
                         "--bundle-out", tmp_path / "b.json", "--trust-out", tmp_path / "t.json"],
            "export-ledger": ["export-ledger", tmp_path / "l.bin", "--scenario", bad]}[verb]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "scenario failed: line 1: not UTF-8 text\n"
    assert list(tmp_path.iterdir()) == [bad]


def test_attack_single_suite(capsys):
    code, out, _ = run_cli(capsys, "attack", "sybil")
    assert code == 0
    assert "sybil: DEFENDED" in out


def test_attack_all(capsys):
    code, out, _ = run_cli(capsys, "attack", "all", "--attempts", "20")
    assert code == 0
    assert out.count("DEFENDED") == 6


@pytest.mark.parametrize("attempts", ["0", "-1", str(10**12), "many"])
def test_attack_attempts_out_of_range_runs_no_suite(capsys, monkeypatch, attempts):
    started = []
    monkeypatch.setattr(cli.attacks, "run_suite", lambda *a, **k: started.append(a))
    with pytest.raises(SystemExit) as exit_:
        cli.main(["attack", "sybil", "--attempts", attempts])
    assert exit_.value.code == 2
    assert started == []
    assert "--attempts" in capsys.readouterr().err


def test_attack_attempts_bounds_are_inclusive(monkeypatch):
    seen = []

    def fake_suite(name, **kwargs):
        seen.append(kwargs)
        return cli.attacks.AttackReport(name=name, attempts=0, blocked=0,
                                        allowed_by_design=0, ok=True, notes=())

    monkeypatch.setattr(cli.attacks, "run_suite", fake_suite)
    for attempts in (1, cli.MAX_ATTEMPTS):
        assert cli.main(["attack", "sybil", "--attempts", str(attempts)]) == 0
    assert seen == [{"count": 1}, {"count": cli.MAX_ATTEMPTS}]


def test_disclose_then_report_verifies(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    code, out, _ = run_cli(capsys, "report", identity_hex,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 0
    assert "VERDICT: verified" in out
    assert out.count("account=") == 3  # alice's chain


def test_replay_and_report_verify_every_transaction_signature(capsys, disclosure_files, verifies):
    """A lender's commands take nothing as admitted: each replay checks the
    signature of every transaction in the export it was handed, in log order."""
    ledger, bundle, trust, identity_hex = disclosure_files
    signatures = [entry.tx.signature for entry in Ledger.replay(ledger.read_bytes()).log]
    for argv in (("replay", ledger),
                 ("report", identity_hex, "--ledger", ledger, "--bundle", bundle, "--trust", trust)):
        verifies.clear()
        assert run_cli(capsys, *argv)[0] == 0
        assert verifies[:len(signatures)] == signatures


def test_report_reads_files_in_the_old_indented_layout(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    argv = ("report", identity_hex, "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    expected = run_cli(capsys, *argv)
    assert expected[0] == 0
    for path in (bundle, trust):
        assert "\n" not in path.read_text()
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True))
    assert run_cli(capsys, *argv) == expected


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


def test_report_refuses_a_bundle_whose_window_is_inverted(capsys, monkeypatch, tmp_path):
    """A bundle's own window that starts after it ends is refused before
    the replay, as an inverted --from/--to is, rather than read as an empty
    window that every report satisfies."""
    paths = [tmp_path / name for name in ("ledger.bin", "bundle.json", "trust.json")]
    ledger, bundle, trust = paths
    code, out, _ = run_cli(capsys, "disclose", LIFECYCLE, "alice", "--withhold", "a-acct2",
                           "--ledger-out", ledger, "--bundle-out", bundle, "--trust-out", trust)
    assert code == 0
    identity_hex = out.splitlines()[0].split(": ")[1]
    bundle.write_text(_edit(lambda doc: doc.update(window=[100, 0]))(bundle.read_text()))

    def refuse(data):
        raise AssertionError("the ledger was replayed before the window was checked")

    monkeypatch.setattr(Ledger, "replay", refuse)
    code, out, err = run_cli(capsys, "report", identity_hex,
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2
    assert out == ""
    assert err == "the bundle's window starts after it ends\n"


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


def test_report_identity_hex_of_wrong_length(capsys, disclosure_files):
    ledger, bundle, trust, _ = disclosure_files
    code, out, err = run_cli(capsys, "report", "abcd",
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2
    assert out == ""
    assert err == "identity must be the customer's public key in hex\n"


def test_report_on_truncated_export(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    ledger.write_bytes(ledger.read_bytes()[:200])
    code, out, err = run_cli(capsys, "report", identity_hex,
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 1
    assert err.startswith("REPLAY FAILED: ")
    assert "Traceback" not in out + err


REPORT_INPUT_ERRORS = {
    "truncated-bundle": lambda files, argv: files["bundle"].write_text(
        files["bundle"].read_text()[:100]),
    "bad-trust": lambda files, argv: files["trust"].write_text("not json at all"),
    "bad-identity-hex": lambda files, argv: argv.__setitem__(1, "zz-not-hex"),
    "lone-from": lambda files, argv: argv.extend(["--from", "0"]),
    "inverted-window": lambda files, argv: argv.extend(["--from", "100", "--to", "0"]),
}


@pytest.mark.parametrize("case", sorted(REPORT_INPUT_ERRORS))
def test_report_checks_its_inputs_before_replaying(capsys, monkeypatch, disclosure_files, case):
    """An unusable input exits 2 without replaying the ledger, the slowest
    step, and wins over a ledger that would not replay either."""
    ledger, bundle, trust, identity_hex = disclosure_files
    ledger.write_bytes(ledger.read_bytes()[:200])
    argv = ["report", identity_hex, "--ledger", ledger, "--bundle", bundle, "--trust", trust]
    REPORT_INPUT_ERRORS[case]({"bundle": bundle, "trust": trust}, argv)

    def refuse(data):
        raise AssertionError("the ledger was replayed before the inputs were checked")

    monkeypatch.setattr(Ledger, "replay", refuse)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


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
    # shapes that once decoded silently: an object read as its list of keys,
    # and a window cut to its first two bounds
    "trust-object": ("trust", lambda text: json.dumps(dict.fromkeys(json.loads(text), True))),
    "bundle-window-of-three": ("bundle", _edit(lambda doc: doc.update(window=[0, 1000, 7]))),
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


def _earlier_plaintext_format(doc):
    """A plaintext bundle as earlier versions wrote it: each link's nonce
    in the entry before it, the first in the bundle's ``head_nonce``."""
    entries = doc["entries"]
    doc["head_nonce"] = entries[0]["link_nonce"] if entries else None
    for entry, after in zip(entries, entries[1:] + [None]):
        entry.pop("link_nonce")
        entry["next_address"] = after and after["address"]
        entry["next_nonce"] = after and after["link_nonce"]


def test_report_refuses_a_plaintext_bundle_in_the_earlier_format(capsys, tmp_path):
    ledger, bundle, trust = (tmp_path / n for n in ("ledger.bin", "bundle.json", "trust.json"))
    code, out, _ = run_cli(capsys, "disclose", LIFECYCLE, "alice", "--variant", "plaintext",
                           "--ledger-out", ledger, "--bundle-out", bundle, "--trust-out", trust)
    assert code == 0
    identity_hex = out.splitlines()[0].split(": ")[1]
    bundle.write_text(_edit(_earlier_plaintext_format)(bundle.read_text()))
    code, out, err = run_cli(capsys, "report", identity_hex,
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("unusable input: ")


def test_report_verifies_a_keys_bundle_in_the_earlier_format(capsys, disclosure_files):
    """Earlier keys bundles differ only by ``"head_nonce": null``, a key the
    reader does not read."""
    ledger, bundle, trust, identity_hex = disclosure_files
    bundle.write_text(_edit(lambda doc: doc.update(head_nonce=None))(bundle.read_text()))
    code, out, _ = run_cli(capsys, "report", identity_hex,
                           "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 0
    assert out.splitlines()[-1] == "VERDICT: verified"


STRANGER_HEX = crypto.generate_keypair(b"never registered").public.to_bytes().hex()
MORTGAGE = ("account=edbd3ca59538 created=16 expires=420 institution=ef784658a145 "
            "trusted={} commitment=ok data=mortgage opened, 30yr fixed\n")
CARD = ("account=71f6cf9dce0a created=20 expires=450 institution=b29ab09cc6c9 "
        "trusted={} commitment=ok data={}\n")
AUTO = ("account=c16c46c88232 created=25 expires=500 institution=b4052ae9ccae "
        "trusted={} commitment=ok data=external:c96928db48f785944c80d248cd22230b"
        "420480b311391a1af4fd3d9adb423d80 digest=c96928db48f78594\n")
CARD_DATA = "credit card, limit 9000 after review"


def _swap_first_two(doc):
    doc["entries"][0], doc["entries"][1] = doc["entries"][1], doc["entries"][0]


# Every verdict ``report`` gives on alice's lifecycle keys disclosure, pinned
# whole: (bundle edit, trust file text, extra arguments) -> (exit code, stdout).
# None leaves a file as ``disclose`` wrote it.
VERDICTS = {
    "verified": ((None, None, ()), (0, (
        MORTGAGE.format("yes") + CARD.format("yes", CARD_DATA) + AUTO.format("yes")
        + "complete=yes entries=3 window=- window_satisfied=yes\n"
        + "VERDICT: verified\n"))),
    "untrusted-institutions": ((None, "[]", ()), (0, (
        MORTGAGE.format("no") + CARD.format("no", CARD_DATA) + AUTO.format("no")
        + "complete=yes entries=3 window=- window_satisfied=yes\n"
        + "VERDICT: verified\n"))),
    "window-not-satisfied": (
        (lambda doc: doc["entries"][1].update(data_key=None), None, ("--from", "0", "--to", "500")),
        (1, (MORTGAGE.format("yes") + CARD.format("yes", "undisclosed") + AUTO.format("yes")
             + "complete=yes entries=3 window=[0,500] window_satisfied=no\n"
             + "VERDICT: verified but rejected — window not satisfied\n"))),
    "incomplete": ((lambda doc: doc["entries"].pop(), None, ()), (1, (
        MORTGAGE.format("yes") + CARD.format("yes", CARD_DATA)
        + "complete=no entries=2 window=- window_satisfied=yes\n"
        + "VERDICT: incomplete — the chain continues past the disclosure\n"))),
    "contradicts-the-chain": ((_swap_first_two, None, ()), (1, (
        "VERDICT: disclosure contradicts the chain — "
        "entry 0: pointer key does not open the link\n"))),
    "commitment-invalid": (
        (lambda doc: doc["entries"][0].update(
            institution_identity=doc["entries"][1]["institution_identity"]), None, ()),
        (1, "VERDICT: commitment failed verification at edbd3ca59538\n")),
    "unregistered-identity": ((lambda doc: doc.update(identity=STRANGER_HEX), None, ()), (2, (
        "VERDICT: that identity key is not registered\n"))),
}


@pytest.mark.parametrize("case", sorted(VERDICTS))
def test_report_verdicts_are_pinned(capsys, disclosure_files, case):
    ledger, bundle, trust, _ = disclosure_files
    (change, trust_text, extra), expected = VERDICTS[case]
    if change is not None:
        bundle.write_text(_edit(change)(bundle.read_text()))
    if trust_text is not None:
        trust.write_text(trust_text)
    identity_hex = json.loads(bundle.read_text())["identity"]
    code, out, err = run_cli(capsys, "report", identity_hex, "--ledger", ledger,
                             "--bundle", bundle, "--trust", trust, *extra)
    assert (code, out) == expected
    assert err == ""


# -- generated and mutated bundle and trust documents ---------------------------


@pytest.fixture(scope="module")
def disclosed(tmp_path_factory):
    """alice's lifecycle disclosure in both variants (windowed, so the
    window field is a list worth mutating), written once per module."""
    root = tmp_path_factory.mktemp("disclosed")
    texts = {}
    for variant in ("keys", "plaintext"):
        paths = [root / f"{variant}.{suffix}" for suffix in ("ledger", "bundle", "trust")]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(["disclose", str(LIFECYCLE), "alice", "--variant", variant,
                             "--window", "0", "500", "--ledger-out", str(paths[0]),
                             "--bundle-out", str(paths[1]), "--trust-out", str(paths[2])])
        assert code == 0
        texts[variant] = paths[1].read_text()
    identity_hex = out.getvalue().splitlines()[0].split(": ")[1]
    return root, texts, paths[2].read_text(), identity_hex


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8) | st.sampled_from(["", "00" * 32, "00" * 64, "zz"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        children = ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, text):
    """``text`` with one value replaced, dropped or, if it is a hex string,
    given one changed digit; or a document generated from nothing."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=20) | JSON_VALUES.map(json.dumps))
    doc = json.loads(text)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return json.dumps(draw(JSON_VALUES))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    action = draw(st.sampled_from(["replace", "drop", "digit"]))
    if action == "drop":
        del parent[path[-1]]
    elif action == "digit" and isinstance(value, str) and value:
        i = draw(st.integers(0, len(value) - 1))
        parent[path[-1]] = value[:i] + draw(st.sampled_from("0f")) + value[i + 1:]
    else:
        parent[path[-1]] = draw(JSON_VALUES)
    return json.dumps(doc)


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_report_on_generated_and_mutated_documents(disclosed, data):
    """Each document decodes to what it says or raises MalformedInput, and
    ``report`` on it exits 0, 1 or 2 without a traceback."""
    root, bundles, trust_text, identity_hex = disclosed
    variant = data.draw(st.sampled_from(sorted(bundles)))
    bundle_text, trust = bundles[variant], trust_text
    if data.draw(st.booleans()):
        bundle_text = data.draw(mutated(bundle_text))
    else:
        trust = data.draw(mutated(trust_text))
    try:
        bundle = reader.bundle_from_json(bundle_text)
    except reader.MalformedInput:
        pass
    else:  # what decodes is what the document says, not a part of it
        doc = json.loads(bundle_text)
        assert len(bundle.entries) == len(doc["entries"])
        assert bundle.window == (None if doc.get("window") is None else tuple(doc["window"]))
    try:
        keys = reader.trust_from_json(trust)
    except reader.MalformedInput:
        pass
    else:
        doc = json.loads(trust)
        assert isinstance(doc, list)
        assert {k.to_bytes() for k in keys} == {bytes.fromhex(h) for h in doc}
    bundle_path, trust_path = root / "mutated.bundle", root / "mutated.trust"
    bundle_path.write_text(bundle_text)
    trust_path.write_text(trust)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["report", identity_hex, "--ledger", str(root / f"{variant}.ledger"),
                         "--bundle", str(bundle_path), "--trust", str(trust_path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()


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


def test_report_on_ledger_without_registry(capsys, disclosure_files):
    ledger, bundle, trust, identity_hex = disclosure_files
    ledger.write_bytes(Ledger().export())
    code, out, err = run_cli(capsys, "report", identity_hex,
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "no identity registry" in err


def test_report_on_non_utf8_payload(capsys, tmp_path):
    world = helpers.build_chain_world(2)
    helpers.write_raw_payload(world, "acct1", codec.pack(b"\xff\xfe", b"x"))
    ledger, bundle, trust = tmp_path / "l", tmp_path / "b", tmp_path / "t"
    ledger.write_bytes(world.ledger.export())
    bundle.write_text(reader.bundle_to_json(world.build_bundle("cust")))
    trust.write_text(reader.trust_to_json(world.trust_set()))
    code, out, err = run_cli(capsys, "report", world.actor("cust").public.to_bytes().hex(),
                             "--ledger", ledger, "--bundle", bundle, "--trust", trust)
    assert code == 1
    assert out.startswith("VERDICT: disclosure contradicts the chain")
    assert "not a protocol payload" in out
    assert err == ""


def test_disclose_unknown_customer(capsys, tmp_path):
    code, _, err = run_cli(capsys, "disclose", LIFECYCLE, "nobody",
                           "--ledger-out", tmp_path / "l", "--bundle-out",
                           tmp_path / "b", "--trust-out", tmp_path / "t")
    assert code == 2
    assert "no actor" in err


def test_disclose_refuses_to_withhold_an_account_outside_the_chain(capsys, tmp_path):
    outputs = [tmp_path / name for name in ("l", "b", "t")]
    code, out, err = run_cli(capsys, "disclose", LIFECYCLE, "alice",
                             "--withhold", "a-acct2", "nosuch", "b-acct1",
                             "--ledger-out", outputs[0], "--bundle-out", outputs[1],
                             "--trust-out", outputs[2])
    assert code == 2
    assert out == ""
    assert err == "--withhold names no account in alice's chain: 'nosuch', 'b-acct1'\n"
    assert not any(path.exists() for path in outputs)


def test_disclose_refuses_an_inverted_window(capsys, tmp_path):
    outputs = [tmp_path / name for name in ("l", "b", "t")]
    code, out, err = run_cli(capsys, "disclose", LIFECYCLE, "alice", "--window", "9", "3",
                             "--ledger-out", outputs[0], "--bundle-out", outputs[1],
                             "--trust-out", outputs[2])
    assert code == 2
    assert out == ""
    assert err == "--window FROM must not be after TO\n"
    assert not any(path.exists() for path in outputs)


def test_export_and_replay(capsys, tmp_path):
    out_file = tmp_path / "exported.bin"
    code, out, _ = run_cli(capsys, "export-ledger", out_file, "--scenario", LIFECYCLE)
    assert code == 0
    code, out, _ = run_cli(capsys, "replay", out_file)
    assert code == 0
    assert "replayed cleanly" in out
    assert "5 credit_account" in out


def test_replay_of_a_ledger_with_no_contracts_says_so(capsys, tmp_path):
    out_file = tmp_path / "empty.bin"
    out_file.write_bytes(Ledger().export())
    code, out, _ = run_cli(capsys, "replay", out_file)
    assert code == 0
    assert out == "replayed cleanly: height 0, 0 transactions, no contracts\n"


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


# Transcripts are what a scenario run prints; they stay byte-identical too.
TRANSCRIPT_SHA256 = {
    "lifecycle.scn": "c4b5beb2b1af79852ae75f6076891e82e77e47443dd233990776c4fabdca6b57",
    "rejections.scn": "67b2c8ade6229ae4f06185e7620590d01ce4b3799f342e7bf6491ea797a28d45",
}


@pytest.mark.parametrize("name", sorted(TRANSCRIPT_SHA256))
def test_scenario_transcripts_are_byte_stable(name):
    transcript = run_scenario((SCENARIO_DIR / name).read_text()).transcript
    assert hashlib.sha256(transcript.encode("utf-8")).hexdigest() == TRANSCRIPT_SHA256[name]


def test_transcripts_byte_identical_across_runs():
    text = LIFECYCLE.read_text()
    assert run_scenario(text).transcript == run_scenario(text).transcript
