"""Command-line front end.

Five verbs cover the simulator's life: ``run`` executes a scenario file and
audits the world it leaves behind; ``attack`` unleashes the adversarial
suites; ``disclose`` runs a scenario and then writes the artifacts one
customer would hand a reader (ledger export, disclosure bundle, trust
list); ``report`` plays that reader, verifying the bundle against the
ledger bytes with nothing but public information plus the bundle itself;
``replay`` and ``export-ledger`` round-trip ledger history.

Exit codes: 0 all good, 1 verification or expectation failure, an
unreadable input file or an unwritable output path, 2 usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import Optional

from . import attacks, crypto, harness, identity, reader
from .ledger import Ledger, ReplayMismatch


MAX_ATTEMPTS = 10_000


class _Failed(Exception):
    """Ends a command with exit code 1; the reason is already printed."""


def _run_scenario(path: Path) -> harness.ScenarioResult:
    try:
        return harness.run_scenario_file(path)
    except harness.ScenarioError as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        raise _Failed from exc


def _replay(path: Path) -> Ledger:
    try:
        return Ledger.replay(path.read_bytes())
    except ReplayMismatch as exc:
        print(f"REPLAY FAILED: {exc}", file=sys.stderr)
        raise _Failed from exc


def _write(*outputs: tuple[Path, bytes]) -> None:
    """Write each (path, data) in turn.  When one cannot be written, remove
    every regular file opened here, the one that failed part way included,
    so a command leaves all its outputs or none of them."""
    opened: list[Path] = []
    try:
        for path, data in outputs:
            with path.open("wb") as out:
                opened.append(path)
                out.write(data)
    except OSError as exc:
        for path in opened:
            if path.is_file():
                path.unlink()
        print(f"cannot write output: {exc}", file=sys.stderr)
        raise _Failed from exc


def _attempts(text: str) -> int:
    """``--attempts``: an integer in 1..MAX_ATTEMPTS, since the fuzzing
    suites loop that many times."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if not 1 <= value <= MAX_ATTEMPTS:
        raise argparse.ArgumentTypeError(f"must be between 1 and {MAX_ATTEMPTS}, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="creditchain",
        description="deterministic credit-reporting ledger simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and audit the result")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--export-ledger", type=Path, metavar="FILE",
                       help="also write the resulting ledger history to FILE")
    p_run.add_argument("--quiet", action="store_true", help="suppress the transcript")
    p_run.add_argument("--no-audit", action="store_true",
                       help="skip the post-run invariant sweeps")

    p_attack = sub.add_parser("attack", help="run adversarial suites")
    p_attack.add_argument("suite", choices=sorted(attacks.SUITES) + ["all"])
    p_attack.add_argument("--attempts", type=_attempts, default=None, metavar="N",
                          help="scale for the fuzzing suites (pointer-poison, sybil), "
                               f"1 to {MAX_ATTEMPTS}")

    p_disclose = sub.add_parser(
        "disclose", help="run a scenario, then write one customer's disclosure artifacts")
    p_disclose.add_argument("scenario", type=Path)
    p_disclose.add_argument("customer")
    p_disclose.add_argument("--variant", choices=["keys", "plaintext"], default="keys")
    p_disclose.add_argument("--withhold", nargs="*", default=[], metavar="ACCOUNT")
    p_disclose.add_argument("--window", nargs=2, type=int, metavar=("FROM", "TO"))
    p_disclose.add_argument("--ledger-out", type=Path, required=True, metavar="FILE")
    p_disclose.add_argument("--bundle-out", type=Path, required=True, metavar="FILE")
    p_disclose.add_argument("--trust-out", type=Path, required=True, metavar="FILE")

    p_report = sub.add_parser(
        "report", help="verify a disclosure bundle against an exported ledger")
    p_report.add_argument("identity", help="customer identity key, hex")
    p_report.add_argument("--ledger", type=Path, required=True, metavar="FILE")
    p_report.add_argument("--bundle", type=Path, required=True, metavar="FILE")
    p_report.add_argument("--trust", type=Path, required=True, metavar="FILE")
    p_report.add_argument("--from", dest="window_from", type=int, metavar="BLOCK",
                          help="with --to: demand open data for accounts in this block range")
    p_report.add_argument("--to", dest="window_to", type=int, metavar="BLOCK")

    p_export = sub.add_parser("export-ledger", help="run a scenario, write only the ledger")
    p_export.add_argument("out", type=Path)
    p_export.add_argument("--scenario", type=Path, required=True)

    p_replay = sub.add_parser("replay", help="rebuild an exported ledger and verify digests")
    p_replay.add_argument("ledger", type=Path)
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    result = _run_scenario(args.scenario)
    if not args.quiet:
        print(result.transcript, end="")
    if not args.no_audit:
        try:
            names = harness.run_all_audits(result.world)
        except harness.AuditFailure as exc:
            print(f"AUDIT FAILED: {exc}", file=sys.stderr)
            return 1
        print(f"audits passed: {', '.join(names)}")
    if args.export_ledger:
        _write((args.export_ledger, result.world.ledger.export()))
        print(f"ledger written to {args.export_ledger} "
              f"(height {result.world.ledger.height})")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    names = sorted(attacks.SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        kwargs = {}
        if args.attempts is not None:
            if name == "pointer-poison":
                kwargs["attempts"] = args.attempts
            elif name == "sybil":
                kwargs["count"] = args.attempts
        report = attacks.run_suite(name, **kwargs)
        print(report.summary())
        for note in report.notes:
            print(f"    {note}")
        all_ok = all_ok and report.ok
    return 0 if all_ok else 1


def _cmd_disclose(args: argparse.Namespace) -> int:
    if args.window and args.window[0] > args.window[1]:
        print("--window FROM must not be after TO", file=sys.stderr)
        return 2
    outputs = (args.ledger_out, args.bundle_out, args.trust_out)
    if len({path.resolve() for path in outputs}) < len(outputs):
        print("--ledger-out, --bundle-out and --trust-out must name three different files",
              file=sys.stderr)
        return 2
    world = _run_scenario(args.scenario).world
    if args.customer not in world.actors:
        print(f"no actor named {args.customer!r} in that scenario", file=sys.stderr)
        return 2
    chain = world.chain_names(args.customer)
    strangers = [repr(name) for name in dict.fromkeys(args.withhold) if name not in chain]
    if strangers:
        print(f"--withhold names no account in {args.customer}'s chain: {', '.join(strangers)}",
              file=sys.stderr)
        return 2
    window = tuple(args.window) if args.window else None
    bundle = world.build_bundle(args.customer, args.variant, window=window,
                                withhold=frozenset(args.withhold))
    _write((args.ledger_out, world.ledger.export()),
           (args.bundle_out, reader.bundle_to_json(bundle).encode("utf-8")),
           (args.trust_out, reader.trust_to_json(world.trust_set()).encode("utf-8")))
    print(f"identity: {world.actor(args.customer).public.to_bytes().hex()}")
    print(f"wrote {args.ledger_out}, {args.bundle_out}, {args.trust_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Verify a bundle against an exported ledger.  Every other input is
    parsed and checked first: replaying the ledger is by far the slowest
    step, and an unusable input exits 2 whether or not the ledger is sound."""
    try:
        bundle = reader.bundle_from_json(args.bundle.read_text(encoding="utf-8"))
        trust = reader.trust_from_json(args.trust.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, reader.MalformedInput) as exc:
        print(f"unusable input: {exc}", file=sys.stderr)
        return 2
    try:
        identity_key = crypto.PublicKey.from_bytes(bytes.fromhex(args.identity))
    except (ValueError, crypto.CryptoError):
        print("identity must be the customer's public key in hex", file=sys.stderr)
        return 2
    if (args.window_from is None) != (args.window_to is None):
        print("--from and --to must be given together", file=sys.stderr)
        return 2
    if args.window_from is not None and args.window_from > args.window_to:
        print("--from must not be after --to", file=sys.stderr)
        return 2
    if bundle.window is not None and bundle.window[0] > bundle.window[1]:
        print("the bundle's window starts after it ends", file=sys.stderr)
        return 2
    if identity_key != bundle.identity:
        print("bundle was issued for a different identity", file=sys.stderr)
        return 1
    if args.window_from is not None:
        bundle = dataclasses.replace(bundle, window=(args.window_from, args.window_to))
    led = _replay(args.ledger)
    registries = led.contracts_by_kind(identity.IdentityContract.KIND)
    if not registries:
        print("this ledger holds no identity registry, so no identity is registered",
              file=sys.stderr)
        return 2
    verdict = reader.judge(led, registries[0], bundle, trust)
    if verdict.report is not None:
        for line in reader.render_report(verdict.report):
            print(line)
    print(reader.render_verdict(verdict))
    return verdict.code


def _cmd_export(args: argparse.Namespace) -> int:
    ledger = _run_scenario(args.scenario).world.ledger
    _write((args.out, ledger.export()))
    print(f"ledger written to {args.out} (height {ledger.height})")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    led = _replay(args.ledger)
    kinds: dict[str, int] = {}
    for address in led.addresses():
        kind = led.contract_kind(address)
        kinds[kind] = kinds.get(kind, 0) + 1
    summary = (", ".join(f"{count} {kind}" for kind, count in sorted(kinds.items()))
               or "no contracts")
    print(f"replayed cleanly: height {led.height}, {len(led.log)} transactions, {summary}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "attack": _cmd_attack,
    "disclose": _cmd_disclose,
    "report": _cmd_report,
    "export-ledger": _cmd_export,
    "replay": _cmd_replay,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Failed:
        return 1
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
