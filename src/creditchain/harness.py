"""Scenario harness: a deterministic simulation world plus a tiny DSL.

``SimWorld`` plays every party at once — it deploys the registry and record
factory at genesis, mints actor keys from name-derived seeds, and tracks the
off-chain knowledge each party would hold (account key views, nonces, data
plaintexts) so later steps can disclose or audit without re-deriving
anything.  Two worlds built from the same seed and the same steps are
byte-identical, ledger exports included.

Scenario files drive the world through newline-separated commands::

    GENKEY alice
    REGISTER alice US:111-22-3333
    CEREMONY alice bank acct1
    OPEN acct1 500
    COMMIT acct1
    APPEND alice HEAD acct1
    UPDATE acct1 inline "paid on time"
    DISCLOSE alice keys
    EXPECT REPORT-COMPLETE

Every on-chain action yields ACCEPT or REJECT <reason>; a rejection must be
acknowledged by an ``EXPECT REJECT <reason>`` on the following line or the
run aborts — scenarios state their failures explicitly.  ``EXPECT`` also
asserts ACCEPT, REPORT-COMPLETE, and REPORT-INCOMPLETE.  The full command
set is documented in the README; parsing is shlex-based, so arguments with
spaces are quoted and ``#`` starts a comment.

The audit sweeps at the bottom re-check global invariants over a finished
world: replay fidelity, one-shot fields staying one-shot, list structure
(every linked record vouched for by its factory, no record in two places),
registered identity keys staying out of credit-account traffic, author
signatures, and an observer's inability to read pointers off the wire.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import codec, crypto, identity, public_records, reader
from . import credit_account as accounts
from .credit_account import BlobStore
from .ledger import Address, CallReceipt, ConstructorRejected, ContractRejected, Ledger, LedgerError


class ScenarioError(Exception):
    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ParseError(ScenarioError):
    """The scenario text itself is malformed."""


class ExpectationFailed(ScenarioError):
    """An EXPECT did not match, or a rejection went unacknowledged."""


class DisclosureRefused(ScenarioError):
    """The reader refused the bundle a DISCLOSE built from the world."""


class AuditFailure(Exception):
    """A post-scenario sweep found a broken invariant."""


# ---------------------------------------------------------------------------
# World state
# ---------------------------------------------------------------------------


@dataclass
class AccountHandle:
    """Everything both parties of one credit account know off-chain."""

    name: str
    customer: str
    institution: str
    customer_view: accounts.CustomerAccountView
    institution_view: accounts.InstitutionAccountView
    address: Optional[Address] = None
    link_nonce: Optional[bytes] = None  # nonce of the pointer *to* this account
    next_name: Optional[str] = None
    update_count: int = 0
    latest_payload: Optional[bytes] = None  # protocol payload bytes (pre-encryption)
    latest_plaintext: Optional[bytes] = None
    latest_mode: Optional[str] = None


@dataclass
class RecordHandle:
    name: str
    author: str
    address: Address
    mode: Optional[str] = None
    plaintext: Optional[bytes] = None
    nonce: Optional[bytes] = None
    subject: Optional[str] = None  # encrypted records: whose key it is under


class SimWorld:
    """One registry, one record factory, and as many actors as a scenario
    cares to mint.  All key material and nonces are derived from the world
    seed so repeated runs agree byte for byte."""

    def __init__(self, seed: bytes = b"simworld") -> None:
        self.seed = seed
        self.ledger = Ledger()
        self.genesis = crypto.generate_keypair(codec.pack(b"genesis", seed))
        self.registry = identity.deploy_registry(self.ledger, self.genesis)
        self.factory = public_records.deploy_factory(self.ledger, self.genesis)
        self.actors: dict[str, crypto.KeyPair] = {}
        self.accounts: dict[str, AccountHandle] = {}
        self.records: dict[str, RecordHandle] = {}
        self.head_of: dict[str, str] = {}  # customer -> first account name
        self.blobs = BlobStore()

    # -- deterministic derivations -------------------------------------

    def add_actor(self, name: str) -> crypto.KeyPair:
        if name in self.actors:
            raise ValueError(f"actor {name!r} already exists")
        pair = crypto.generate_keypair(codec.pack(b"actor", self.seed, codec.text(name)))
        self.actors[name] = pair
        return pair

    def actor(self, name: str) -> crypto.KeyPair:
        try:
            return self.actors[name]
        except KeyError:
            raise KeyError(f"unknown actor {name!r}") from None

    def ceremony(self, customer: str, institution: str, account: str) -> AccountHandle:
        if account in self.accounts:
            raise ValueError(f"account {account!r} already exists")
        self.actor(customer), self.actor(institution)  # must exist
        cust_seed = codec.pack(b"ceremony-customer", self.seed, codec.text(customer),
                               codec.text(account))
        inst_seed = codec.pack(b"ceremony-institution", self.seed, codec.text(institution),
                               codec.text(account))
        cust_view, inst_view = accounts.key_ceremony(cust_seed, inst_seed)
        handle = AccountHandle(name=account, customer=customer, institution=institution,
                               customer_view=cust_view, institution_view=inst_view)
        self.accounts[account] = handle
        return handle

    def account(self, name: str) -> AccountHandle:
        try:
            return self.accounts[name]
        except KeyError:
            raise KeyError(f"unknown account {name!r}") from None

    def link_nonce(self, account: str) -> bytes:
        return crypto.digest(codec.pack(b"link-nonce", self.seed, codec.text(account)))

    def data_nonce(self, account: str, index: int) -> bytes:
        return crypto.digest(codec.pack(b"data-nonce", self.seed, codec.text(account),
                                        codec.u64(index)))

    def record_nonce(self, record: str) -> bytes:
        return crypto.digest(codec.pack(b"record-nonce", self.seed, codec.text(record)))

    def trust_set(self) -> set[crypto.PublicKey]:
        """Scenario policy: a reader trusts every named actor's identity."""
        return {pair.public for pair in self.actors.values()}

    # -- chain bookkeeping ----------------------------------------------

    def chain_names(self, customer: str) -> list[str]:
        # A customer may link an account that is already in their chain; the
        # walk stops where it would come round again.
        names: dict[str, None] = {}
        cursor = self.head_of.get(customer)
        while cursor is not None and cursor not in names:
            names[cursor] = None
            cursor = self.accounts[cursor].next_name
        return list(names)

    def build_bundle(self, customer: str, variant: str = "keys",
                     window: Optional[tuple[int, int]] = None,
                     withhold: frozenset[str] = frozenset(),
                     upto: Optional[int] = None) -> reader.DisclosureBundle:
        """Assemble the customer's own disclosure from tracked knowledge.

        ``withhold`` keeps named accounts' data closed (the chain link is
        still proven); ``upto`` truncates the bundle after that many entries
        to exercise incomplete disclosures.
        """
        names = self.chain_names(customer)
        if upto is not None:
            names = names[:upto]
        entries: list[reader.DisclosureEntry] = []
        head_nonce: Optional[bytes] = None
        for position, name in enumerate(names):
            handle = self.accounts[name]
            assert handle.address is not None and handle.link_nonce is not None
            if position == 0 and variant == "plaintext":
                # Key disclosures never consume the head nonce (the pointer
                # key opens the link directly), so don't ship it with them.
                head_nonce = handle.link_nonce
            inst_key = self.actor(handle.institution).public
            open_data = name not in withhold
            if variant == "keys":
                entries.append(reader.KeyDisclosure(
                    address=handle.address,
                    institution_identity=inst_key,
                    pointer_key=handle.customer_view.shared_pointer.private,
                    data_key=handle.customer_view.shared_data.private if open_data else None,
                ))
            elif variant == "plaintext":
                nxt = self.accounts[handle.next_name] if handle.next_name else None
                disclose_data = open_data and handle.latest_payload is not None
                entries.append(reader.PlaintextDisclosure(
                    address=handle.address,
                    institution_identity=inst_key,
                    pointer_public_key=handle.customer_view.shared_pointer.public,
                    next_address=nxt.address if nxt else None,
                    next_nonce=nxt.link_nonce if nxt else None,
                    data_plaintext=handle.latest_payload if disclose_data else None,
                    data_nonce=(self.data_nonce(name, handle.update_count - 1)
                                if disclose_data else None),
                    data_public_key=(handle.customer_view.shared_data.public
                                     if disclose_data else None),
                ))
            else:
                raise ValueError(f"unknown disclosure variant {variant!r}")
        return reader.DisclosureBundle(identity=self.actor(customer).public,
                                       entries=tuple(entries), head_nonce=head_nonce,
                                       window=window)


# ---------------------------------------------------------------------------
# Scenario running
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    kind: str  # "accept" | "reject" | "report"
    detail: str = ""
    reason: Optional[str] = None
    report: Optional[reader.VerifiedReport] = None


@dataclass
class ScenarioResult:
    world: SimWorld
    transcript: str
    steps: int


def run_scenario_file(path: str | Path, world: Optional[SimWorld] = None) -> ScenarioResult:
    return run_scenario(Path(path).read_text(encoding="utf-8"), world=world)


def run_scenario(text: str, world: Optional[SimWorld] = None) -> ScenarioResult:
    runner = _Runner(world or SimWorld())
    return runner.run(text)


def _uint(text: str, bits: int) -> int:
    """A DISCLOSE bound, which no codec field carries: it must still fit an
    unsigned field of ``bits`` bits, like the block numbers and entry counts
    it bounds."""
    value = int(text)
    if not 0 <= value < 1 << bits:
        raise ValueError(f"{text!r} is not an unsigned {bits}-bit integer")
    return value


class _Runner:
    def __init__(self, world: SimWorld) -> None:
        self.world = world
        self.lines: list[str] = []
        self.last: Optional[Outcome] = None
        self.last_line = 0
        self.acknowledged = True
        self.steps = 0

    def run(self, text: str) -> ScenarioResult:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            try:
                tokens = shlex.split(raw, comments=True)
            except ValueError as exc:
                raise ParseError(line_no, f"bad quoting: {exc}") from exc
            if not tokens:
                continue
            self.dispatch(line_no, raw.strip(), tokens)
        self._require_acknowledged(self.last_line + 1)
        return ScenarioResult(world=self.world, transcript="\n".join(self.lines) + "\n",
                              steps=self.steps)

    def dispatch(self, line_no: int, raw: str, tokens: list[str]) -> None:
        command, args = tokens[0], tokens[1:]
        if command == "EXPECT":
            self._expect(line_no, args)
            self.lines.append(f"[{line_no:3}] {raw} -> OK")
            return
        self._require_acknowledged(line_no)
        handler: Optional[Callable[[int, list[str]], Outcome]] = getattr(
            self, "_cmd_" + command.lower().replace("-", "_"), None)
        if handler is None:
            raise ParseError(line_no, f"unknown command {command!r}")
        try:
            outcome = handler(line_no, args)
        except (KeyError, ValueError) as exc:
            raise ParseError(line_no, str(exc)) from exc
        except LedgerError as exc:  # refused before landing, e.g. ChainFull
            raise ScenarioError(line_no, f"{type(exc).__name__}: {exc}") from exc
        self.steps += 1
        self.last, self.last_line = outcome, line_no
        self.acknowledged = outcome.kind == "accept"
        suffix = f" {outcome.detail}" if outcome.detail else ""
        if outcome.kind == "reject":
            self.lines.append(f"[{line_no:3}] {raw} -> REJECT {outcome.reason}")
        elif outcome.kind == "report":
            self.lines.append(f"[{line_no:3}] {raw} -> REPORT{suffix}")
        else:
            self.lines.append(f"[{line_no:3}] {raw} -> ACCEPT{suffix}")

    def _require_acknowledged(self, line_no: int) -> None:
        if not self.acknowledged and self.last is not None:
            previous = self.last
            self.acknowledged = True
            raise ExpectationFailed(
                line_no, f"unacknowledged {previous.kind.upper()} "
                         f"({previous.reason or previous.detail}) from line {self.last_line}")

    # -- EXPECT ----------------------------------------------------------

    def _expect(self, line_no: int, args: list[str]) -> None:
        if self.last is None:
            raise ExpectationFailed(line_no, "EXPECT with nothing preceding it")
        if not args:
            raise ParseError(line_no, "EXPECT needs an outcome")
        want = args[0]
        outcome = self.last
        self.acknowledged = True
        if want == "ACCEPT":
            if outcome.kind != "accept":
                raise ExpectationFailed(line_no, f"expected ACCEPT, got {self._describe(outcome)}")
        elif want == "REJECT":
            if len(args) != 2:
                raise ParseError(line_no, "EXPECT REJECT needs exactly one reason")
            if outcome.kind != "reject" or outcome.reason != args[1]:
                raise ExpectationFailed(
                    line_no, f"expected REJECT {args[1]}, got {self._describe(outcome)}")
        elif want == "REPORT-COMPLETE":
            if outcome.kind != "report" or outcome.report is None or not outcome.report.complete:
                raise ExpectationFailed(line_no, f"expected a complete report, got {self._describe(outcome)}")
        elif want == "REPORT-INCOMPLETE":
            if outcome.kind != "report" or outcome.report is None or outcome.report.complete:
                raise ExpectationFailed(line_no, f"expected an incomplete report, got {self._describe(outcome)}")
        else:
            raise ParseError(line_no, f"unknown expectation {want!r}")

    @staticmethod
    def _describe(outcome: Outcome) -> str:
        if outcome.kind == "reject":
            return f"REJECT {outcome.reason}"
        if outcome.kind == "report":
            return f"REPORT {outcome.detail}"
        return "ACCEPT"

    # -- helpers ----------------------------------------------------------

    def _submit(self, fn: Callable[[], CallReceipt]) -> Outcome:
        try:
            receipt = fn()
        except (ContractRejected, ConstructorRejected) as exc:
            return Outcome(kind="reject", reason=exc.reason)
        if not receipt.accepted:
            return Outcome(kind="reject", reason=receipt.reason)
        return Outcome(kind="accept", detail=f"block={receipt.block}")

    def _caller_spec(self, spec: str) -> crypto.KeyPair:
        """``name`` (identity key) or ``account.customer``/``account.institution``."""
        if "." in spec:
            account, _, role = spec.rpartition(".")
            handle = self.world.account(account)
            if role == "customer":
                return handle.customer_view.customer
            if role == "institution":
                return handle.institution_view.institution
            raise ValueError(f"unknown account role {role!r}")
        return self.world.actor(spec)

    @staticmethod
    def _split_by(args: list[str]) -> tuple[list[str], Optional[str]]:
        if len(args) >= 2 and args[-2] == "BY":
            return args[:-2], args[-1]
        return args, None

    # -- commands ----------------------------------------------------------

    def _cmd_genkey(self, line_no: int, args: list[str]) -> Outcome:
        (name,) = args
        pair = self.world.add_actor(name)
        return Outcome(kind="accept", detail=f"key={pair.public.short_id()}")

    def _cmd_advance(self, line_no: int, args: list[str]) -> Outcome:
        (count,) = args
        height = self.world.ledger.advance_block(int(count))
        return Outcome(kind="accept", detail=f"height={height}")

    def _cmd_register(self, line_no: int, args: list[str]) -> Outcome:
        name, fingerprint_text = args
        pair = self.world.actor(name)
        fingerprint = identity.fingerprint_from_text(fingerprint_text)
        return self._submit(lambda: identity.register(
            self.world.ledger, self.world.registry, pair, fingerprint))

    def _cmd_certify(self, line_no: int, args: list[str]) -> Outcome:
        certifier, subject = (self.world.actor(a) for a in args)
        return self._submit(lambda: identity.certify(
            self.world.ledger, self.world.registry, certifier, subject.public))

    def _cmd_decertify(self, line_no: int, args: list[str]) -> Outcome:
        certifier, subject = (self.world.actor(a) for a in args)
        return self._submit(lambda: identity.decertify(
            self.world.ledger, self.world.registry, certifier, subject.public))

    def _cmd_ceremony(self, line_no: int, args: list[str]) -> Outcome:
        customer, institution, account = args
        handle = self.world.ceremony(customer, institution, account)
        return Outcome(kind="accept",
                       detail=f"shared={handle.customer_view.shared_data.public.short_id()}")

    def _cmd_open(self, line_no: int, args: list[str]) -> Outcome:
        args, by = self._split_by(args)
        account, expiration = args
        handle = self.world.account(account)
        caller = self._caller_spec(by) if by else handle.institution_view.institution
        world = self.world

        def deploy() -> CallReceipt:
            address = accounts.create_account(
                world.ledger, caller, handle.customer_view.customer.public,
                handle.institution_view.institution.public, int(expiration))
            handle.address = address
            return CallReceipt(accepted=True, reason=None,
                               block=world.ledger.creation_block(address),
                               seq=0, created=(address,))

        outcome = self._submit(deploy)
        if outcome.kind == "accept" and handle.address is not None:
            outcome = Outcome(kind="accept",
                              detail=f"{outcome.detail} addr={handle.address.short()}")
        return outcome

    def _cmd_commit(self, line_no: int, args: list[str]) -> Outcome:
        args, by = self._split_by(args)
        (account,) = args
        handle = self.world.account(account)
        if handle.address is None:
            raise ValueError(f"account {account!r} not yet opened")
        caller = self._caller_spec(by) if by else handle.institution_view.institution
        return self._submit(lambda: accounts.commit_account(
            self.world.ledger, caller, self.world.actor(handle.institution),
            handle.address, self.world.actor(handle.customer).public))

    def _cmd_append(self, line_no: int, args: list[str]) -> Outcome:
        args, by = self._split_by(args)
        customer, predecessor_name, account = args
        handle = self.world.account(account)
        if handle.address is None:
            raise ValueError(f"account {account!r} not yet opened")
        world = self.world
        if predecessor_name == "HEAD":
            predecessor = None
            caller = world.actor(customer)
        else:
            pred_handle = world.account(predecessor_name)
            if pred_handle.address is None:
                raise ValueError(f"account {predecessor_name!r} not yet opened")
            predecessor = pred_handle.address
            caller = pred_handle.customer_view.customer
        if by:
            caller = self._caller_spec(by)
        nonce = world.link_nonce(account)
        outcome = self._submit(lambda: accounts.append_to_chain(
            world.ledger, caller, predecessor, handle.address,
            handle.customer_view.shared_pointer.public, nonce, registry=world.registry))
        if outcome.kind == "accept":
            handle.link_nonce = nonce
            if predecessor_name == "HEAD":
                world.head_of[customer] = account
            else:
                world.accounts[predecessor_name].next_name = account
        return outcome

    def _cmd_update(self, line_no: int, args: list[str]) -> Outcome:
        args, by = self._split_by(args)
        account, mode, data = args
        if mode == "external":  # scenario shorthand for the full mode tag
            mode = accounts.DATA_MODE_EXTERNAL
        handle = self.world.account(account)
        if handle.address is None:
            raise ValueError(f"account {account!r} not yet opened")
        caller = self._caller_spec(by) if by else handle.institution_view.institution
        plaintext = data.encode("utf-8")
        world = self.world
        nonce = world.data_nonce(account, handle.update_count)
        outcome = self._submit(lambda: accounts.update_account_data(
            world.ledger, caller, handle.address, plaintext, mode,
            handle.institution_view.shared_data.public, nonce, blob_store=world.blobs))
        if outcome.kind == "accept":
            handle.update_count += 1
            handle.latest_payload = accounts.encode_data_payload(mode, plaintext, world.blobs)
            handle.latest_plaintext = plaintext
            handle.latest_mode = mode
        return outcome

    def _party_key(self, handle: AccountHandle, party: str) -> crypto.KeyPair:
        if party == "customer":
            return handle.customer_view.customer
        if party == "institution":
            return handle.institution_view.institution
        return self.world.actor(party)

    def _cmd_propose_exp(self, line_no: int, args: list[str]) -> Outcome:
        account, party, value = args
        handle = self.world.account(account)
        if handle.address is None:
            raise ValueError(f"account {account!r} not yet opened")
        caller = self._party_key(handle, party)
        return self._submit(lambda: accounts.propose_expiration(
            self.world.ledger, caller, handle.address, int(value)))

    def _cmd_accept_exp(self, line_no: int, args: list[str]) -> Outcome:
        account, party, value = args
        handle = self.world.account(account)
        if handle.address is None:
            raise ValueError(f"account {account!r} not yet opened")
        caller = self._party_key(handle, party)
        return self._submit(lambda: accounts.accept_expiration(
            self.world.ledger, caller, handle.address, int(value)))

    def _cmd_mint(self, line_no: int, args: list[str]) -> Outcome:
        author, record = args
        if record in self.world.records:
            raise ValueError(f"record {record!r} already exists")
        pair = self.world.actor(author)
        world = self.world

        def mint() -> CallReceipt:
            address = public_records.mint_record(world.ledger, world.factory, pair)
            world.records[record] = RecordHandle(name=record, author=author, address=address)
            return CallReceipt(accepted=True, reason=None,
                               block=world.ledger.creation_block(address), seq=0)

        outcome = self._submit(mint)
        if outcome.kind == "accept":
            outcome = Outcome(kind="accept",
                              detail=f"addr={world.records[record].address.short()}")
        return outcome

    def _cmd_fill(self, line_no: int, args: list[str]) -> Outcome:
        args, by = self._split_by(args)
        if len(args) == 3 and args[1] == public_records.RECORD_PLAINTEXT:
            record_name, mode, data = args
            subject = None
        elif len(args) == 4 and args[1] == public_records.RECORD_ENCRYPTED:
            record_name, mode, subject, data = args
        else:
            raise ValueError("FILL <record> plaintext <data> | FILL <record> encrypted <subject> <data>")
        handle = self.world.records[record_name]
        caller = self._caller_spec(by) if by else self.world.actor(handle.author)
        plaintext = data.encode("utf-8")
        nonce = self.world.record_nonce(record_name) if subject else None
        owner = self.world.actor(subject).public if subject else None
        outcome = self._submit(lambda: public_records.fill_record(
            self.world.ledger, caller, handle.address, plaintext, mode,
            owner_key=owner, nonce=nonce))
        if outcome.kind == "accept":
            handle.mode, handle.plaintext, handle.nonce, handle.subject = \
                mode, plaintext, nonce, subject
        return outcome

    def _cmd_link(self, line_no: int, args: list[str]) -> Outcome:
        args, by = self._split_by(args)
        record_name, where, anchor = args
        handle = self.world.records[record_name]
        world = self.world
        if where == "HEAD":
            caller = self._caller_spec(by) if by else world.actor(anchor)
            return self._submit(lambda: identity.set_first_public_record(
                world.ledger, world.registry, caller, handle.address))
        if where == "AFTER":
            predecessor = world.records[anchor]
            caller = self._caller_spec(by) if by else world.actor(handle.author)
            return self._submit(lambda: public_records.append_record(
                world.ledger, caller, predecessor.address, handle.address))
        raise ValueError("LINK <record> HEAD <subject> | LINK <record> AFTER <record>")

    def _cmd_disclose(self, line_no: int, args: list[str]) -> Outcome:
        if len(args) < 2:
            raise ValueError("DISCLOSE <customer> keys|plaintext [WINDOW <from> <to>] "
                             "[UPTO <count>] [WITHHOLD <account>...]")
        customer, variant, *rest = args
        window: Optional[tuple[int, int]] = None
        withhold: frozenset[str] = frozenset()
        upto: Optional[int] = None
        i = 0
        while i < len(rest):
            keyword = rest[i]
            if keyword == "WINDOW":
                lo, hi = rest[i + 1:i + 3]
                window = (_uint(lo, 64), _uint(hi, 64))
                i += 3
            elif keyword == "UPTO":
                (count,) = rest[i + 1:i + 2]
                upto = _uint(count, 32)
                i += 2
            elif keyword == "WITHHOLD":
                withhold = frozenset(rest[i + 1:])
                i = len(rest)
            else:
                raise ValueError(f"unknown DISCLOSE option {keyword!r}")
        world = self.world
        bundle = world.build_bundle(customer, variant, window=window,
                                    withhold=withhold, upto=upto)
        try:
            report = reader.assemble_report(world.ledger, world.registry, bundle,
                                            world.trust_set(), blob_store=world.blobs)
        except reader.IncompleteDisclosure as exc:
            report = exc.report
        except (reader.ChainMismatch, reader.CommitmentInvalid, identity.UnknownIdentity) as exc:
            raise DisclosureRefused(line_no, f"{type(exc).__name__}: {exc}") from exc
        lines = reader.render_report(report)
        detail = lines[-1]
        body = "".join(f"\n      | {line}" for line in lines[:-1])
        return Outcome(kind="report", detail=detail + body, report=report)


# ---------------------------------------------------------------------------
# Audit sweeps
# ---------------------------------------------------------------------------


def audit_replay(world: SimWorld) -> None:
    """The exported history must rebuild to identical per-contract digests."""
    replayed = Ledger.replay(world.ledger.export())
    if replayed.state_digests() != world.ledger.state_digests():
        raise AuditFailure("replay diverged from the live ledger")
    if replayed.height != world.ledger.height:
        raise AuditFailure("replay ended at a different height")


def audit_write_once(world: SimWorld) -> None:
    """One-shot transitions must have landed at most once per target."""
    one_shot = {"commit", "set_next", "append",
                "set_first_credit_account", "set_first_public_record"}
    seen: dict[tuple[bytes, str, bytes], int] = {}
    for entry in world.ledger.log:
        tx = entry.tx
        if not entry.accepted or tx.target is None or tx.function not in one_shot:
            continue
        # registry head-sets are per-caller; contract fields are per-target
        scope = tx.caller if tx.function.startswith("set_first_") else b""
        key = (tx.target.digest, tx.function, scope)
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            raise AuditFailure(f"{tx.function} accepted twice for {tx.target.short()}")


def audit_chain_validity(world: SimWorld, strict: bool = True) -> None:
    """Structural invariants over every public-record list.

    Always: every traversed record is minted *and* marked added by its
    factory, lists never revisit a record, and parent factories agree.
    ``strict`` additionally demands that every added record is reachable
    from some identity head — true in honest worlds, deliberately violated
    by smuggling attacks, which mark loose records as added.
    """
    led = world.ledger
    registry_state = led.read_state(world.registry)
    visited: set[bytes] = set()
    for key_raw, record in registry_state.records.items():
        cursor = record.first_public_record
        while cursor is not None:
            if cursor in visited:
                raise AuditFailure(f"record {cursor.hex()[:12]} appears in two list positions")
            visited.add(cursor)
            state = led.read_state(Address(cursor))
            factory_state = led.read_state(Address(state.parent_factory))
            if cursor not in factory_state.minted:
                raise AuditFailure("linked record not minted by its claimed factory")
            if cursor not in factory_state.added:
                raise AuditFailure("linked record missing from its factory's added set")
            cursor = state.next_record
    if strict:
        for factory_address in led.contracts_by_kind(public_records.RecordFactoryContract.KIND):
            for added in led.read_state(factory_address).added:
                if added not in visited:
                    raise AuditFailure(
                        f"added record {added.hex()[:12]} unreachable from any identity")


def audit_true_identity_absence(world: SimWorld) -> None:
    """Registered identity keys must never touch credit-account contracts.

    The registry is exempt by construction (registration, certification, and
    head pointers are identity actions); everything account-side runs under
    throwaway account keys, so an observer diffing the transaction log
    against the registry learns nothing about who banks where.
    """
    led = world.ledger
    registered = set(led.read_state(world.registry).records.keys())
    account_kind = accounts.CreditAccountContract.KIND
    account_addresses = {a.digest for a in led.contracts_by_kind(account_kind)}
    for entry in led.log:
        tx = entry.tx
        involved = (tx.is_deploy() and tx.function == account_kind) or (
            tx.target is not None and tx.target.digest in account_addresses)
        if involved and tx.caller in registered:
            raise AuditFailure(
                f"registered key {tx.caller.hex()[:12]} touched a credit account")
    for address in led.contracts_by_kind(account_kind):
        state = led.read_state(address)
        if state.customer_key in registered or state.institution_key in registered:
            raise AuditFailure(f"account {address.short()} names a registered key")


def audit_attribution(world: SimWorld) -> None:
    """Signatures must bind: record fills to their author, commitments to
    the institution the world says opened the account."""
    led = world.ledger
    for handle in world.records.values():
        state = led.read_state(handle.address)
        if state.data is None or state.signature is None or handle.plaintext is None:
            continue
        author = crypto.PublicKey.from_bytes(state.author_key)
        if not crypto.verify(author, handle.plaintext, state.signature):
            raise AuditFailure(f"record {handle.name} signature does not verify")
    for handle in world.accounts.values():
        if handle.address is None:
            continue
        state = led.read_state(handle.address)
        if state.commitment is None:
            continue
        ok = accounts.verify_commitment(
            state, handle.address, world.actor(handle.institution).public,
            world.actor(handle.customer).public)
        if not ok:
            raise AuditFailure(f"account {handle.name} commitment does not verify")


def observer_link_scan(world: SimWorld) -> None:
    """What a keyless observer can try on pointer ciphertexts: read an
    address out of them, or correlate repeats.  Both must come up empty."""
    led = world.ledger
    account_kind = accounts.CreditAccountContract.KIND
    addresses = {a.digest for a in led.contracts_by_kind(account_kind)}
    ciphertexts: list[bytes] = []
    for record in led.read_state(world.registry).records.values():
        if record.first_credit_account is not None:
            ciphertexts.append(record.first_credit_account)
    for address in led.contracts_by_kind(account_kind):
        state = led.read_state(address)
        if state.next_account is not None:
            ciphertexts.append(state.next_account)
    # Every address is DIGEST_SIZE bytes, so an address occurs in a
    # ciphertext exactly when it equals one of its windows of that size.
    size = crypto.DIGEST_SIZE
    windows = (c[i:i + size] for c in ciphertexts for i in range(len(c) - size + 1))
    if not addresses.isdisjoint(windows):
        raise AuditFailure("pointer ciphertext leaks an address in the clear")
    if len(set(ciphertexts)) != len(ciphertexts):
        raise AuditFailure("two pointer ciphertexts repeat — linkable on sight")


def run_all_audits(world: SimWorld, strict_chains: bool = True) -> list[str]:
    """Run every sweep; returns their names for reporting."""
    audit_replay(world)
    audit_write_once(world)
    audit_chain_validity(world, strict=strict_chains)
    audit_true_identity_absence(world)
    audit_attribution(world)
    observer_link_scan(world)
    return ["replay", "write-once", "chain-validity", "identity-absence",
            "attribution", "observer-link-scan"]
