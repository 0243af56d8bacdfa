"""Scenario harness: a deterministic simulation world plus a tiny DSL.

``SimWorld`` plays every party at once — it deploys the registry and record
factory at genesis, mints actor keys from name-derived seeds, and tracks the
off-chain knowledge each party would hold (account key views, nonces, data
payloads) so later steps can disclose or audit without re-deriving
anything.  Its step methods (``open_account`` … ``fill_record``) are where
that knowledge is written: each runs one protocol call and records what the
parties learn once the ledger accepts it.  Two worlds built from the same
seed and the same steps are byte-identical, ledger exports included.

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
set is the ``_COMMANDS`` table below, documented in the README; parsing is
shlex-based, so arguments with spaces are quoted and ``#`` starts a comment.

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
from typing import Any, Callable, NamedTuple, Optional

from . import codec, crypto, identity, public_records, reader
from . import credit_account as accounts
from .credit_account import BlobStore
from .ledger import Address, CallReceipt, ConstructorRejected, Ledger, LedgerError, ReplayMismatch


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


@dataclass
class RecordHandle:
    name: str
    author: str
    address: Address
    plaintext: Optional[bytes] = None  # as last filed, before any encryption


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
        self._data_nonces: dict[str, tuple[int, bytes]] = {}  # account -> last (index, nonce)

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
        # Each disclosure asks again for the nonce of the account's latest
        # write, so the last nonce derived for each account is kept.
        last = self._data_nonces.get(account)
        if last is not None and last[0] == index:
            return last[1]
        nonce = crypto.digest(codec.pack(b"data-nonce", self.seed, codec.text(account),
                                         codec.u64(index)))
        self._data_nonces[account] = (index, nonce)
        return nonce

    def record_nonce(self, record: str) -> bytes:
        return crypto.digest(codec.pack(b"record-nonce", self.seed, codec.text(record)))

    def trust_set(self) -> set[crypto.PublicKey]:
        """Scenario policy: a reader trusts every named actor's identity."""
        return {pair.public for pair in self.actors.values()}

    # -- protocol steps that change what a party knows -----------------------
    #
    # Each calls its protocol wrapper and, once the ledger accepts, records
    # on the handles what the parties now know; a rejection records nothing.
    # ``by`` signs in place of the party the protocol expects.

    def open_account(self, handle: AccountHandle, expiration: int,
                     by: Optional[crypto.KeyPair] = None) -> Address:
        """Deploy the account as its institution.  Raises ConstructorRejected."""
        handle.address = accounts.create_account(
            self.ledger, by or handle.institution_view.institution,
            handle.customer_view.customer.public,
            handle.institution_view.institution.public, expiration)
        return handle.address

    def link_account(self, customer: str, predecessor: Optional[AccountHandle],
                     handle: AccountHandle, by: Optional[crypto.KeyPair] = None) -> CallReceipt:
        """Link ``handle`` after ``predecessor``, or at ``customer``'s head
        when there is none, signed by whoever holds the link being written."""
        if predecessor is None:
            after, caller = None, self.actor(customer)
        else:
            after, caller = predecessor.address, predecessor.customer_view.customer
        nonce = self.link_nonce(handle.name)
        receipt = accounts.append_to_chain(
            self.ledger, by or caller, after, handle.address,
            handle.customer_view.shared_pointer.public, nonce, registry=self.registry)
        if receipt.accepted:
            handle.link_nonce = nonce
            if predecessor is None:
                self.head_of[customer] = handle.name
            else:
                predecessor.next_name = handle.name
        return receipt

    def update_account(self, handle: AccountHandle, mode: str, plaintext: bytes,
                       by: Optional[crypto.KeyPair] = None) -> CallReceipt:
        """Store new account data as its institution, under the next data nonce."""
        payload = accounts.encode_data_payload(mode, plaintext, self.blobs)
        receipt = accounts.store_account_payload(
            self.ledger, by or handle.institution_view.institution, handle.address,
            payload, mode, handle.institution_view.shared_data.public,
            self.data_nonce(handle.name, handle.update_count))
        if receipt.accepted:
            handle.update_count += 1
            handle.latest_payload = payload
        return receipt

    def mint_record(self, author: str, record: str) -> Address:
        """Mint a record from the world's factory; minting is never refused."""
        if record in self.records:
            raise ValueError(f"record {record!r} already exists")
        address = public_records.mint_record(self.ledger, self.factory, self.actor(author))
        self.records[record] = RecordHandle(name=record, author=author, address=address)
        return address

    def fill_record(self, handle: RecordHandle, mode: str, plaintext: bytes,
                    subject: Optional[str] = None,
                    by: Optional[crypto.KeyPair] = None) -> CallReceipt:
        """Write a record's content as its author; an encrypted record is
        sealed to ``subject``'s identity key under the record's nonce."""
        receipt = public_records.fill_record(
            self.ledger, by or self.actor(handle.author), handle.address, plaintext, mode,
            owner_key=self.actor(subject).public if subject else None,
            nonce=self.record_nonce(handle.name) if subject else None)
        if receipt.accepted:
            handle.plaintext = plaintext
        return receipt

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

    def outside_chain(self, customer: str, names: list[str]) -> list[str]:
        """Each distinct name in ``names`` outside ``customer``'s whole chain."""
        chain = self.chain_names(customer)
        return [name for name in dict.fromkeys(names) if name not in chain]

    def build_bundle(self, customer: str, variant: str = "keys",
                     window: Optional[tuple[int, int]] = None,
                     withhold: frozenset[str] = frozenset(),
                     upto: Optional[int] = None) -> reader.DisclosureBundle:
        """Assemble the customer's own disclosure from tracked knowledge.

        ``withhold`` keeps named accounts' data closed (the chain link is
        still proven); ``upto`` truncates the bundle after that many entries
        to exercise incomplete disclosures.  A variant other than "keys" or
        "plaintext" raises ValueError, however long the chain is.
        """
        if variant not in ("keys", "plaintext"):
            raise ValueError(f"unknown disclosure variant {variant!r}")
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
            else:
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
        return reader.DisclosureBundle(identity=self.actor(customer).public,
                                       entries=tuple(entries), head_nonce=head_nonce,
                                       window=window)


# ---------------------------------------------------------------------------
# Scenario running
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    kind: str  # "accept" | "reject" | "report" | "refused" (the reader refused a DISCLOSE)
    detail: str = ""  # for a rejection, its reason
    report: Optional[reader.VerifiedReport] = None


@dataclass
class ScenarioResult:
    world: SimWorld
    transcript: str
    steps: int


def run_scenario_file(path: str | Path, world: Optional[SimWorld] = None) -> ScenarioResult:
    """Run the scenario in a file.  A file that is not UTF-8 text is a bad
    scenario like any other: ``ScenarioError`` on the line of its first bad
    byte."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(data.count(b"\n", 0, exc.start) + 1, "not UTF-8 text") from None
    return run_scenario(text, world=world)


def run_scenario(text: str, world: Optional[SimWorld] = None) -> ScenarioResult:
    return _Runner(world or SimWorld()).run(text)


def _actor(world: SimWorld, name: str) -> str:
    world.actor(name)  # an actor must exist; handlers look its keys up by name
    return name


def _opened(world: SimWorld, name: str) -> AccountHandle:
    handle = world.account(name)
    if handle.address is None:
        raise ValueError(f"account {name!r} not yet opened")
    return handle


def _record(world: SimWorld, name: str) -> RecordHandle:
    try:
        return world.records[name]
    except KeyError:
        raise KeyError(f"unknown record {name!r}") from None


def _role_key(handle: AccountHandle, role: str) -> crypto.KeyPair:
    """The account key of one party: ``customer`` or ``institution``."""
    if role == "customer":
        return handle.customer_view.customer
    if role == "institution":
        return handle.institution_view.institution
    raise ValueError(f"unknown account role {role!r}")


def _caller(world: SimWorld, spec: str) -> crypto.KeyPair:
    """``name`` (identity key) or ``account.customer``/``account.institution``."""
    if "." in spec:
        account, _, role = spec.rpartition(".")
        return _role_key(world.account(account), role)
    return world.actor(spec)


def _unsigned(encode: Callable[[int], bytes], token: str) -> int:
    value = int(token)
    encode(value)  # codec.WidthError, a ValueError, if it does not fit the field
    return value


# Each argument kind a command form can name, and how to convert its token.
_KINDS: dict[str, Callable[[SimWorld, str], Any]] = {
    "<text>": lambda world, token: token,
    "<actor>": _actor,
    "<account>": SimWorld.account,
    "<opened>": _opened,
    "<record>": _record,
    "<u32>": lambda world, token: _unsigned(codec.u32, token),
    "<u64>": lambda world, token: _unsigned(codec.u64, token),
}


class _Syntax(NamedTuple):
    forms: tuple[str, ...]
    by: bool = False  # takes a trailing ``BY <caller>``
    options: tuple[str, ...] = ()  # keyword-led, in any order after the form


_EXPIRATION = _Syntax(("<opened> customer <u64>", "<opened> institution <u64>",
                       "<opened> <actor> <u64>"))

# Every scenario command and the argument forms it accepts.  In a form, a
# word in angle brackets is an argument of that kind (see ``_KINDS``) and any
# other word a keyword spelled as written; ``<kind>...`` takes every
# remaining token.  A line takes the first form whose keywords and length
# fit, and each handler receives the converted words, keywords included.
_COMMANDS: dict[str, _Syntax] = {
    "GENKEY": _Syntax(("<text>",)),
    "ADVANCE": _Syntax(("<u64>",)),
    "REGISTER": _Syntax(("<actor> <text>",)),
    "CERTIFY": _Syntax(("<actor> <actor>",)),
    "DECERTIFY": _Syntax(("<actor> <actor>",)),
    "CEREMONY": _Syntax(("<actor> <actor> <text>",)),
    "OPEN": _Syntax(("<account> <u64>",), by=True),
    "COMMIT": _Syntax(("<opened>",), by=True),
    "APPEND": _Syntax(("<actor> HEAD <opened>", "<actor> <opened> <opened>"), by=True),
    "UPDATE": _Syntax(("<opened> inline <text>", "<opened> external <text>",
                       f"<opened> {accounts.DATA_MODE_EXTERNAL} <text>"), by=True),
    "PROPOSE-EXP": _EXPIRATION,
    "ACCEPT-EXP": _EXPIRATION,
    "MINT": _Syntax(("<actor> <text>",)),
    "FILL": _Syntax(("<record> plaintext <text>", "<record> encrypted <actor> <text>"), by=True),
    "LINK": _Syntax(("<record> HEAD <actor>", "<record> AFTER <record>"), by=True),
    "DISCLOSE": _Syntax(("<actor> keys", "<actor> plaintext"),
                        options=("WINDOW <u64> <u64>", "UPTO <u32>", "WITHHOLD <account>...")),
    "EXPECT": _Syntax(("ACCEPT", "REJECT <text>", "REPORT-COMPLETE", "REPORT-INCOMPLETE")),
}


def _usage(command: str) -> str:
    syntax = _COMMANDS[command]
    by = ("BY <caller>",) if syntax.by else ()
    tail = "".join(f" [{option}]" for option in syntax.options + by)
    return "usage: " + " | ".join(f"{command} {form}{tail}" for form in syntax.forms)


def _fits(words: list[str], tokens: list[str]) -> bool:
    """One token per word, and each keyword spelled as written."""
    return len(tokens) == len(words) and all(
        word.startswith("<") or word == token for word, token in zip(words, tokens))


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
        command = tokens[0].upper().replace("_", "-")
        if command != "EXPECT":
            self._require_acknowledged(line_no)
        try:
            values, options = self._parse(command, tokens[1:])
            if command == "EXPECT":
                self._expect(line_no, " ".join(values))
                self.lines.append(f"[{line_no:3}] {raw} -> OK")
                return
            handler = getattr(self, "_cmd_" + command.lower().replace("-", "_"))
            outcome: Outcome = handler(*values, **options)
        except (KeyError, ValueError) as exc:
            raise ParseError(line_no, str(exc)) from exc
        except LedgerError as exc:  # refused before landing, e.g. ChainFull
            raise ScenarioError(line_no, f"{type(exc).__name__}: {exc}") from exc
        if outcome.kind == "refused":
            raise DisclosureRefused(line_no, outcome.detail)
        self.steps += 1
        self.last, self.last_line = outcome, line_no
        self.acknowledged = outcome.kind == "accept"
        suffix = f" {outcome.detail}" if outcome.detail else ""
        self.lines.append(f"[{line_no:3}] {raw} -> {outcome.kind.upper()}{suffix}")

    def _parse(self, command: str, args: list[str]) -> tuple[list[Any], dict[str, Any]]:
        """Match ``args`` to a form of ``command`` and convert every word:
        the form's words in order, then ``by`` and the options by name."""
        syntax = _COMMANDS.get(command)
        if syntax is None:
            raise ValueError(f"unknown command {command!r}")
        named: dict[str, Any] = {}
        if syntax.by and len(args) >= 2 and args[-2] == "BY":
            args, named["by"] = args[:-2], _caller(self.world, args[-1])
        for form in syntax.forms:
            words = form.split()
            if _fits(words, args[:len(words)]) and (syntax.options or len(args) == len(words)):
                break
        else:
            raise ValueError(_usage(command))
        values = self._convert(words, args)
        rest = args[len(words):]
        while rest:
            words = next((o.split() for o in syntax.options if o.split()[0] == rest[0]), [])
            if words and words[-1].endswith("..."):  # that kind for each word left
                words = words[:-1] + [words[-1][:-3]] * (len(rest) - len(words) + 1)
            if not words or not _fits(words, rest[:len(words)]):
                raise ValueError(_usage(command))
            named[rest[0].lower()] = tuple(self._convert(words[1:], rest[1:]))
            rest = rest[len(words):]
        return values, named

    def _convert(self, words: list[str], tokens: list[str]) -> list[Any]:
        return [_KINDS[word](self.world, token) if word.startswith("<") else token
                for word, token in zip(words, tokens)]

    def _require_acknowledged(self, line_no: int) -> None:
        if not self.acknowledged and self.last is not None:
            previous = self.last
            self.acknowledged = True
            raise ExpectationFailed(
                line_no, f"unacknowledged {previous.kind.upper()} "
                         f"({previous.detail}) from line {self.last_line}")

    def _expect(self, line_no: int, want: str) -> None:
        self.acknowledged = True
        got = self._describe(self.last) if self.last else "nothing"
        if got != want:
            raise ExpectationFailed(line_no, f"expected {want}, got {got}")

    @staticmethod
    def _describe(outcome: Outcome) -> str:
        """The outcome as the EXPECT words that match it."""
        if outcome.kind == "reject":
            return f"REJECT {outcome.detail}"
        if outcome.kind == "report":
            complete = outcome.report is not None and outcome.report.complete
            return "REPORT-COMPLETE" if complete else "REPORT-INCOMPLETE"
        return "ACCEPT"

    # -- commands: each receives its converted form words ----------------------

    @staticmethod
    def _outcome(receipt: CallReceipt) -> Outcome:
        if not receipt.accepted:
            return Outcome(kind="reject", detail=receipt.reason or "")
        return Outcome(kind="accept", detail=f"block={receipt.block}")

    def _cmd_genkey(self, name: str) -> Outcome:
        pair = self.world.add_actor(name)
        return Outcome(kind="accept", detail=f"key={pair.public.short_id()}")

    def _cmd_advance(self, count: int) -> Outcome:
        height = self.world.ledger.advance_block(count)
        return Outcome(kind="accept", detail=f"height={height}")

    def _cmd_register(self, name: str, fingerprint: str) -> Outcome:
        return self._outcome(identity.register(
            self.world.ledger, self.world.registry, self.world.actor(name),
            identity.fingerprint_from_text(fingerprint)))

    def _cmd_certify(self, certifier: str, subject: str, action: Any = identity.certify) -> Outcome:
        world = self.world
        return self._outcome(action(
            world.ledger, world.registry, world.actor(certifier), world.actor(subject).public))

    def _cmd_decertify(self, certifier: str, subject: str) -> Outcome:
        return self._cmd_certify(certifier, subject, identity.decertify)

    def _cmd_ceremony(self, customer: str, institution: str, account: str) -> Outcome:
        handle = self.world.ceremony(customer, institution, account)
        return Outcome(kind="accept",
                       detail=f"shared={handle.customer_view.shared_data.public.short_id()}")

    def _cmd_open(self, handle: AccountHandle, expiration: int,
                  by: Optional[crypto.KeyPair] = None) -> Outcome:
        try:
            address = self.world.open_account(handle, expiration, by)
        except ConstructorRejected as exc:
            return Outcome(kind="reject", detail=exc.reason)
        return Outcome(kind="accept", detail=f"block={self.world.ledger.creation_block(address)} "
                                             f"addr={address.short()}")

    def _cmd_commit(self, handle: AccountHandle, by: Optional[crypto.KeyPair] = None) -> Outcome:
        return self._outcome(accounts.commit_account(
            self.world.ledger, by or handle.institution_view.institution,
            self.world.actor(handle.institution), handle.address,
            self.world.actor(handle.customer).public))

    def _cmd_append(self, customer: str, predecessor: AccountHandle | str,
                    handle: AccountHandle, by: Optional[crypto.KeyPair] = None) -> Outcome:
        after = predecessor if isinstance(predecessor, AccountHandle) else None  # None: HEAD
        return self._outcome(self.world.link_account(customer, after, handle, by))

    def _cmd_update(self, handle: AccountHandle, mode: str, data: str,
                    by: Optional[crypto.KeyPair] = None) -> Outcome:
        if mode == "external":  # scenario shorthand for the full mode tag
            mode = accounts.DATA_MODE_EXTERNAL
        return self._outcome(self.world.update_account(handle, mode, data.encode("utf-8"), by))

    def _cmd_propose_exp(self, handle: AccountHandle, party: str, value: int,
                         action: Any = accounts.propose_expiration) -> Outcome:
        caller = (_role_key(handle, party) if party in ("customer", "institution")
                  else self.world.actor(party))
        return self._outcome(action(self.world.ledger, caller, handle.address, value))

    def _cmd_accept_exp(self, handle: AccountHandle, party: str, value: int) -> Outcome:
        return self._cmd_propose_exp(handle, party, value, accounts.accept_expiration)

    def _cmd_mint(self, author: str, record: str) -> Outcome:
        address = self.world.mint_record(author, record)
        return Outcome(kind="accept", detail=f"addr={address.short()}")

    def _cmd_fill(self, handle: RecordHandle, mode: str, *words: str,
                  by: Optional[crypto.KeyPair] = None) -> Outcome:
        subject = words[0] if mode == public_records.RECORD_ENCRYPTED else None
        return self._outcome(self.world.fill_record(
            handle, mode, words[-1].encode("utf-8"), subject, by))

    def _cmd_link(self, handle: RecordHandle, where: str, anchor: str | RecordHandle,
                  by: Optional[crypto.KeyPair] = None) -> Outcome:
        world = self.world
        if isinstance(anchor, RecordHandle):  # AFTER
            return self._outcome(public_records.append_record(
                world.ledger, by or world.actor(handle.author), anchor.address, handle.address))
        return self._outcome(identity.set_first_public_record(
            world.ledger, world.registry, by or world.actor(anchor), handle.address))

    def _cmd_disclose(self, customer: str, variant: str,
                      window: Optional[tuple[int, int]] = None, upto: tuple[int, ...] = (),
                      withhold: tuple[AccountHandle, ...] = ()) -> Outcome:
        if window and window[0] > window[1]:
            raise ValueError("WINDOW FROM must not be after TO")
        world = self.world
        withheld = [h.name for h in withhold]
        strangers = world.outside_chain(customer, withheld)
        if strangers:
            raise ValueError(f"WITHHOLD names no account in {customer}'s chain: "
                             + ", ".join(map(repr, strangers)))
        bundle = world.build_bundle(customer, variant, window=window, withhold=frozenset(withheld),
                                    upto=upto[0] if upto else None)
        verdict = reader.judge(world.ledger, world.registry, bundle,
                               world.trust_set(), blob_store=world.blobs)
        if verdict.report is None:
            return Outcome(kind="refused", detail=f"{verdict.reasons[0]}: {verdict.detail}")
        lines = reader.render_report(verdict.report)
        body = "".join(f"\n      | {line}" for line in lines[:-1])
        return Outcome(kind="report", detail=lines[-1] + body, report=verdict.report)


# ---------------------------------------------------------------------------
# Audit sweeps
# ---------------------------------------------------------------------------


def audit_replay(world: SimWorld) -> None:
    """The exported history must rebuild to the live per-contract digests and
    height, which the export's footer carries and replay checks."""
    try:
        Ledger.replay(world.ledger.export())
    except ReplayMismatch as exc:
        raise AuditFailure(f"replay diverged from the live ledger: {exc}") from exc


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

    Always: every list walks cleanly (``walk_public_records``), every
    traversed record is minted *and* marked added by the record factory it
    names, and no record sits in two lists.
    ``strict`` additionally demands that every added record is reachable
    from some identity head — true in honest worlds, deliberately violated
    by smuggling attacks, which mark loose records as added.
    """
    led = world.ledger
    factories = {address.digest: led.read_state(address) for address in
                 led.contracts_by_kind(public_records.RecordFactoryContract.KIND)}
    visited: set[bytes] = set()
    for record in led.read_state(world.registry).records.values():
        try:
            for address, state, _ in public_records.walk_public_records(led, record.first_public_record):
                if address.digest in visited:
                    raise AuditFailure(f"record {address.short()} appears in two list positions")
                visited.add(address.digest)
                factory_state = factories.get(state.parent_factory)
                if factory_state is None or address.digest not in factory_state.minted:
                    raise AuditFailure("linked record not minted by its claimed factory")
                if address.digest not in factory_state.added:
                    raise AuditFailure("linked record missing from its factory's added set")
        except public_records.BrokenChain as exc:
            raise AuditFailure(f"broken public-record list: {exc}") from exc
    if strict:
        for factory_state in factories.values():
            for added in factory_state.added:
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
    account_addresses = led.contracts_by_kind(accounts.CreditAccountContract.KIND)
    addresses = {a.digest for a in account_addresses}
    ciphertexts: list[bytes] = []
    for record in led.read_state(world.registry).records.values():
        if record.first_credit_account is not None:
            ciphertexts.append(record.first_credit_account)
    for address in account_addresses:
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


def run_all_audits(world: SimWorld) -> list[str]:
    """Run every sweep; returns their names for reporting."""
    audit_replay(world)
    audit_write_once(world)
    audit_chain_validity(world)
    audit_true_identity_absence(world)
    audit_attribution(world)
    observer_link_scan(world)
    return ["replay", "write-once", "chain-validity", "identity-absence",
            "attribution", "observer-link-scan"]
