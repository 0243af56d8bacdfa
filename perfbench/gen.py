"""Deterministic operation generators for the benchmark workloads.

A plan is plain data derived from (workload, seed): actor, account and record
names, texts, integers, and the outcome each operation must have.  Nothing
here imports creditchain, so the program under test receives only these
operations.  The same seed always yields the same plan.

Operation kinds and their ``args``:

    genkey      (name,)                       key pair derived off-chain
    register    (name, fingerprint_text)
    certify     (institution, subject)
    decertify   (institution, subject)
    ceremony    (customer, institution, account)    off-chain key ceremony
    open        (account, expiration)         deployed by the institution's account key
    commit      (account,)
    append      (customer, predecessor | None, account)   None links the head
    update      (account, mode, text, by)     by: "institution" | "customer"
    propose_exp (account, party, value)       party: "institution" | "customer"
    accept_exp  (account, party, value)
    mint        (author, record)
    fill        (record, mode, subject | None, text)   subject set for encrypted
    link_head   (record, subject)
    link_after  (record, anchor_record)
    disclose    (customer, variant, window | None, withheld_accounts)

``expect`` is None for an accepted call, the rejection reason for a call
that must be refused, and an ``ExpectedReport`` for a disclosure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# An expiration no run reaches, so data updates are never refused as Expired.
NEVER = 10**9
# Inline data is the common case; external-hash payloads go through the blob store.
MODE_INLINE = "inline"
MODE_EXTERNAL = "external-hash"

STATUSES = ("paid on time", "30 days late", "limit raised", "balance closed",
            "payment plan agreed", "60 days late", "in good standing")
LIENS = ("tax lien", "civil judgment", "collection account", "mechanic lien")

CALL_KINDS = frozenset({
    "register", "certify", "decertify", "open", "commit", "append", "update",
    "propose_exp", "accept_exp", "mint", "fill", "link_head", "link_after",
})


@dataclass(frozen=True)
class ExpectedReport:
    """A disclosure must come back complete, listing ``entries`` in chain
    order as (account, latest text, or None where the data was withheld)."""

    entries: tuple[tuple[str, Optional[str]], ...]
    window_satisfied: bool = True


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple = ()
    expect: object = None


@dataclass(frozen=True)
class Plan:
    """``setup`` builds the world the timed ``loop`` starts from."""

    world_seed: bytes
    institutions: tuple[str, ...]
    setup: tuple[Op, ...]
    loop: tuple[Op, ...]


# ---------------------------------------------------------------------------
# Shared building blocks
# ---------------------------------------------------------------------------


class _Book:
    """What the generator knows the ledger will hold: each customer's chain
    in order and the latest text written to each account."""

    def __init__(self) -> None:
        self.chain: dict[str, list[str]] = {}
        self.text: dict[str, str] = {}

    def expected(self, customer: str, withhold: frozenset = frozenset()) -> tuple:
        return tuple((a, None if a in withhold else self.text[a])
                     for a in self.chain.get(customer, ()))


class _Deck:
    """Draws from ``values`` in shuffled blocks holding each value once, so
    every seed gets the same mix and differs only in order.  This keeps the
    amount of work nearly equal across seeds."""

    def __init__(self, rng: random.Random, values: list) -> None:
        self._rng, self._values, self._block = rng, list(values), []

    def __call__(self):
        if not self._block:
            self._block = self._values[:]
            self._rng.shuffle(self._block)
        return self._block.pop()


def _chance(rng: random.Random, p: float) -> _Deck:
    """A deck of booleans that is True for exactly ``p`` of each 20 draws."""
    hits = round(20 * p)
    return _Deck(rng, [True] * hits + [False] * (20 - hits))


def _fingerprint(rng: random.Random) -> str:
    return f"US:{rng.randrange(10**9):09d}"


class _Mix:
    """Every random choice that changes how much work a plan holds, each
    drawn from its own deck."""

    def __init__(self, rng: random.Random, reject_p: float) -> None:
        self.reject = _chance(rng, reject_p)
        self.external = _chance(rng, 0.2)
        self.expire = _chance(rng, 0.3)
        self.expire_reject = _chance(rng, 0.3)
        self.encrypted = _chance(rng, 0.4)
        self.updates = _Deck(rng, [1, 2])
        self.chain_length = _Deck(rng, range(1, 13))
        self.liens = _Deck(rng, [1, 2, 3])
        self.variant = _Deck(rng, ["keys", "plaintext"])
        # 15% each: withheld data with a full window (unsatisfied), withheld
        # data alone, a full window alone; the rest disclose everything
        self.shape = _Deck(rng, ["withhold+window"] * 3 + ["withhold"] * 3 + ["window"] * 3
                           + ["plain"] * 11)


def _institutions(ops: list[Op], rng: random.Random, count: int) -> tuple[str, ...]:
    names = tuple(f"inst{j}" for j in range(count))
    for name in names:
        ops.append(Op("genkey", (name,)))
        ops.append(Op("register", (name, _fingerprint(rng))))
    return names


def _account(rng: random.Random, mix: _Mix, ops: list[Op], book: _Book, customer: str,
             institution: str, expirations: bool) -> None:
    """Ceremony, open, commit, link, and one or two data writes for one
    account at the end of ``customer``'s chain, with refused calls riding
    along as often as ``mix.reject`` says."""
    chain = book.chain.setdefault(customer, [])
    account = f"{customer}.a{len(chain)}"
    predecessor = chain[-1] if chain else None
    ops.append(Op("ceremony", (customer, institution, account)))
    ops.append(Op("open", (account, NEVER)))
    ops.append(Op("commit", (account,)))
    if mix.reject():
        ops.append(Op("commit", (account,), "AlreadyCommitted"))
    ops.append(Op("append", (customer, predecessor, account)))
    chain.append(account)
    if mix.reject():
        # the predecessor's pointer (or the registry head) is write-once
        ops.append(Op("append", (customer, predecessor, account), "PointerAlreadySet"))
    for u in range(mix.updates()):
        mode = MODE_EXTERNAL if mix.external() else MODE_INLINE
        text = f"{account} {rng.choice(STATUSES)} #{u}"
        ops.append(Op("update", (account, mode, text, "institution")))
        book.text[account] = text
    if mix.reject():
        ops.append(Op("update", (account, MODE_INLINE, "forged", "customer"), "NotInstitution"))
    if expirations and mix.expire():
        value = NEVER + rng.randrange(1, 1000)
        ops.append(Op("propose_exp", (account, "institution", value)))
        if mix.expire_reject():
            ops.append(Op("accept_exp", (account, "institution", value), "SelfAccept"))
        ops.append(Op("accept_exp", (account, "customer", value)))
        if mix.expire_reject():
            ops.append(Op("accept_exp", (account, "customer", value), "NoPendingProposal"))


def _records(rng: random.Random, mix: _Mix, ops: list[Op], customer: str,
             institutions: tuple[str, ...]) -> None:
    """A self-authored head record, then liens filed by institutions."""
    head = f"{customer}.r0"
    ops.append(Op("mint", (customer, head)))
    ops.append(Op("fill", (head, "plaintext", None, f"{customer} statement of record")))
    ops.append(Op("link_head", (head, customer)))
    tail = head
    for j in range(1, mix.liens() + 1):
        record = f"{customer}.r{j}"
        author = rng.choice(institutions)
        encrypted = mix.encrypted()
        ops.append(Op("mint", (author, record)))
        ops.append(Op("fill", (record, "encrypted" if encrypted else "plaintext",
                               customer if encrypted else None,
                               f"{rng.choice(LIENS)} filed against {customer}")))
        ops.append(Op("link_after", (record, tail)))
        if mix.reject():
            ops.append(Op("fill", (record, "plaintext", None, "rewritten"), "RecordFrozen"))
        if mix.reject():
            ops.append(Op("link_after", (record, record), "InvalidRecord(3)"))
        tail = record


def _interleave(rng: random.Random, streams: list[list[Op]]) -> list[Op]:
    """Merge per-customer streams in a random order that keeps each
    stream's own order, as independent customers acting at once would."""
    pending = [s for s in streams if s]
    cursors = [0] * len(pending)
    out: list[Op] = []
    while pending:
        i = rng.randrange(len(pending))
        out.append(pending[i][cursors[i]])
        cursors[i] += 1
        if cursors[i] == len(pending[i]):
            pending[i], cursors[i] = pending[-1], cursors[-1]
            pending.pop()
            cursors.pop()
    return out


def _disclosure(rng: random.Random, mix: _Mix, book: _Book, customer: str) -> Op:
    """Keys or plaintext variant; sometimes a window, sometimes withheld
    accounts.  A window over everything is satisfied exactly when nothing
    in it is withheld, which the generator can tell without block heights."""
    chain = book.chain.get(customer, [])
    shape = mix.shape()
    withhold: frozenset = frozenset()
    if "withhold" in shape:
        withhold = frozenset(rng.sample(chain, max(1, len(chain) // 2)))
    window = (0, NEVER) if "window" in shape else None
    return Op("disclose", (customer, mix.variant(), window, withhold),
              ExpectedReport(book.expected(customer, withhold),
                             window_satisfied=window is None or not withhold))


def _zipf(rng: random.Random, ranked: list[str], k: int) -> list[str]:
    """``k`` draws whose counts follow Zipf (s = 1) over ``ranked`` exactly,
    up to rounding, in random order."""
    weights = [1.0 / (r + 1) for r in range(len(ranked))]
    scale = k / sum(weights)
    counts = [int(w * scale) for w in weights]
    by_remainder = sorted(range(len(ranked)), key=lambda r: counts[r] - weights[r] * scale)
    for r in by_remainder[:k - sum(counts)]:
        counts[r] += 1
    out = [name for name, n in zip(ranked, counts) for _ in range(n)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

ONBOARD_IDENTITIES = 1000
LIFECYCLE_CUSTOMERS = 36
# Five times functools.lru_cache's default maxsize, so a per-customer cache
# of that size cannot hold the pool.
LENDING_CUSTOMERS = 640
LENDING_OPS = 3400
# Lending chain length by popularity rank, so that how much a report walks
# does not hinge on which lengths the seed happens to give the hottest
# customers.  Past the first ``LENDING_LONG`` ranks, customers hold one
# account and no public records, which keeps set-up affordable.
LENDING_LENGTHS = (7, 3, 11, 1, 9, 5, 12, 2, 8, 4, 10, 6)
LENDING_LONG = 4 * len(LENDING_LENGTHS)


def onboard(seed: int, identities: int = ONBOARD_IDENTITIES) -> Plan:
    """Each new identity registers, is certified by one of a few
    institutions, and gets the lender's thin-file check (an empty
    disclosure).  About 5% of the calls are refusals."""
    rng = random.Random(f"onboard:{seed}")
    duplicate, wrong_revoker = _chance(rng, 0.05), _chance(rng, 0.05)
    setup: list[Op] = []
    institutions = _institutions(setup, rng, 4)
    customers = [f"c{i}" for i in range(identities)]
    setup.extend(Op("genkey", (c,)) for c in customers)
    loop: list[Op] = []
    for customer in customers:
        fingerprint = _fingerprint(rng)
        loop.append(Op("register", (customer, fingerprint)))
        if duplicate():
            loop.append(Op("register", (customer, fingerprint), "KeyAlreadyRegistered"))
        certifier = rng.choice(institutions)
        loop.append(Op("certify", (certifier, customer)))
        if wrong_revoker():
            other = rng.choice([i for i in institutions if i != certifier])
            loop.append(Op("decertify", (other, customer), "NotACertifier"))
        loop.append(Op("disclose", (customer, "keys", None, frozenset()), ExpectedReport(())))
    return Plan(f"perfbench/onboard/{seed}".encode(), institutions,
                tuple(setup), tuple(loop))


def lifecycle(seed: int, customers: int = LIFECYCLE_CUSTOMERS) -> Plan:
    """Registered customers build chains of 1 to 12 accounts and public-record
    lists, interleaved.  Before each account after the first, and once at
    the end, the customer discloses.  About 10% of the calls are refusals."""
    rng = random.Random(f"lifecycle:{seed}")
    mix = _Mix(rng, reject_p=0.2)
    setup: list[Op] = []
    institutions = _institutions(setup, rng, 6)
    names = [f"c{i}" for i in range(customers)]
    for customer in names:
        setup.append(Op("genkey", (customer,)))
        setup.append(Op("register", (customer, _fingerprint(rng))))
        setup.append(Op("certify", (rng.choice(institutions), customer)))
    book = _Book()
    streams = []
    for customer in names:
        stream: list[Op] = []
        for n in range(mix.chain_length()):
            if n:  # the next lender checks the customer's report before opening an account
                stream.append(_disclosure(rng, mix, book, customer))
            _account(rng, mix, stream, book, customer, rng.choice(institutions), expirations=True)
        _records(rng, mix, stream, customer, institutions)
        stream.append(_disclosure(rng, mix, book, customer))
        streams.append(stream)
    return Plan(f"perfbench/lifecycle/{seed}".encode(), institutions,
                tuple(setup), tuple(_interleave(rng, streams)))


def lending(seed: int, customers: int = LENDING_CUSTOMERS, ops: int = LENDING_OPS) -> Plan:
    """Set-up builds the pool: the most popular customers have chains of 1
    to 12 accounts and public-record lists, the cold tail one account each.
    The timed loop is 90% disclosures and 10% data writes, on customers
    drawn Zipf-skewed from the whole pool, so writes land on accounts that
    later disclosures read.  Every tenth write is refused."""
    rng = random.Random(f"lending:{seed}")
    mix = _Mix(rng, reject_p=0.0)
    setup: list[Op] = []
    institutions = _institutions(setup, rng, 6)
    ranked = [f"c{i}" for i in range(customers)]
    rng.shuffle(ranked)  # ranked[0] is the most popular customer
    book = _Book()
    streams = []
    for rank, customer in enumerate(ranked):
        stream = [Op("genkey", (customer,)), Op("register", (customer, _fingerprint(rng))),
                  Op("certify", (rng.choice(institutions), customer))]
        long = rank < LENDING_LONG
        for _ in range(LENDING_LENGTHS[rank % len(LENDING_LENGTHS)] if long else 1):
            _account(rng, mix, stream, book, customer, rng.choice(institutions), expirations=False)
        if long:
            _records(rng, mix, stream, customer, institutions)
        streams.append(stream)
    setup.extend(_interleave(rng, streams))

    write = _chance(rng, 0.1)
    loop: list[Op] = []
    writes = 0
    for customer in _zipf(rng, ranked, ops):
        if not write():
            loop.append(_disclosure(rng, mix, book, customer))
            continue
        account = rng.choice(book.chain[customer])
        writes += 1
        if writes % 10 == 0:
            loop.append(Op("update", (account, MODE_INLINE, "forged", "customer"), "NotInstitution"))
            continue
        text = f"{account} {rng.choice(STATUSES)} w{writes}"
        mode = MODE_EXTERNAL if mix.external() else MODE_INLINE
        loop.append(Op("update", (account, mode, text, "institution")))
        book.text[account] = text
    return Plan(f"perfbench/lending/{seed}".encode(), institutions,
                tuple(setup), tuple(loop))


WORKLOADS = {"onboard": onboard, "lifecycle": lifecycle, "lending": lending}
