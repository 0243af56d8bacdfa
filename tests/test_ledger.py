"""Ledger mechanics, tested against a minimal probe contract so the rules
of submission, staging, and replay are checked independently of the
domain contracts layered on top."""

import functools
import time
import tracemalloc
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditchain import codec, crypto, identity
from creditchain.ledger import (
    EXPORT_MAGIC,
    EXPORT_VERSION,
    Address,
    LAST_HEIGHT,
    BadSignature,
    ChainFull,
    ConstructorRejected,
    ContractRejected,
    Ledger,
    ReplayMismatch,
    UnknownAddress,
    derive_address,
    make_transaction,
    register_contract,
)


@dataclass(frozen=True)
class ProbeState:
    value: bytes


@register_contract
class ProbeContract:
    KIND = "test-probe"

    @staticmethod
    def construct(ctx, args):
        if args == b"fail":
            raise ConstructorRejected("ProbeConstructorNo")
        if args == b"spawn":
            ctx.deploy(ProbeContract.KIND, b"child")
        return ProbeState(value=args)

    @staticmethod
    def apply(state, ctx, function, args):
        if function == "set":
            return replace(state, value=args)
        if function == "poke_peer":
            read = ctx.resolve(args[:32], ProbeContract)
            if read is None:
                raise ContractRejected("UnknownPeer")
            ctx.stage(Address(args[:32]), replace(read, value=b"poked"))
            if args[32:] == b"fail":
                raise ContractRejected("ProbeAbort")
            return None
        if function == "peek":  # the result: the value of the probe at ``args``
            return _peek(ctx, args)
        if function == "spawn_peek":  # a probe created earlier in this transaction
            return _peek(ctx, ctx.deploy(ProbeContract.KIND, b"child").digest)
        if function == "poke_peek":  # a state staged earlier in this transaction
            ProbeContract.apply(state, ctx, "poke_peer", args)
            return _peek(ctx, args)
        if function == "spawn":
            child = ctx.deploy(ProbeContract.KIND, b"child")
            ctx.set_result(child.digest)
            if args == b"fail":
                raise ContractRejected("ProbeAbort")
            return None
        raise ContractRejected("UnknownFunction")

    @staticmethod
    def encode_state(state):
        return codec.pack(state.value)


def _peek(ctx, pointer):
    """Set the result to the value of the probe ``pointer`` resolves to, or
    to ``None`` when it resolves to nothing; the caller's state is unchanged."""
    found = ctx.resolve(pointer, ProbeContract)
    ctx.set_result(b"None" if found is None else found.value)


@pytest.fixture
def led():
    return Ledger()


@pytest.fixture
def alice():
    return crypto.generate_keypair(b"ledger-alice")


def deploy_probe(led, caller, args=b"init"):
    return led.deploy(caller, ProbeContract.KIND, args)


# -- basics -------------------------------------------------------------------


def test_deploy_and_read(led, alice):
    addr = deploy_probe(led, alice, b"hello")
    assert led.exists(addr)
    assert led.contract_kind(addr) == ProbeContract.KIND
    assert led.read_state(addr) == ProbeState(b"hello")
    assert led.creation_block(addr) == 0


def test_one_transaction_per_block(led, alice):
    addr = deploy_probe(led, alice)
    led.call(alice, addr, "set", b"x")
    led.call(alice, addr, "set", b"y")
    assert led.height == 3
    assert [e.block for e in led.log] == [0, 1, 2]  # block 3 is open and empty


def test_advance_block_adds_empty_blocks(led, alice):
    deploy_probe(led, alice)
    before = len(led.log)
    assert led.advance_block(5) == 6
    assert led.height == 6
    assert len(led.log) == before


def test_advance_block_rejects_negative(led):
    with pytest.raises(ValueError):
        led.advance_block(-1)


def test_the_height_stays_within_u64(led, alice):
    addr = deploy_probe(led, alice)
    led.advance_block(LAST_HEIGHT - 1 - led.height)
    led.call(alice, addr, "set", b"last")
    assert led.height == LAST_HEIGHT == 2**64 - 1
    for count in (1, 2**70):
        with pytest.raises(ValueError):
            led.advance_block(count)
    log_before = len(led.log)
    with pytest.raises(ChainFull):
        led.call(alice, addr, "set", b"one too many")
    with pytest.raises(ChainFull):
        led.submit(make_transaction(alice, addr, "set", b"one too many"))
    assert len(led.log) == log_before
    assert led.height == LAST_HEIGHT
    replayed = Ledger.replay(led.export())
    assert replayed.state_digests() == led.state_digests()
    assert replayed.read_state(addr) == ProbeState(b"last")


def test_addresses_and_kind_listing(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    assert set(led.contracts_by_kind(ProbeContract.KIND)) == {a, b}
    assert led.contracts_by_kind("no-such-kind") == []


# -- rejection semantics -------------------------------------------------------


def test_rejected_call_logged_and_state_preserved(led, alice):
    addr = deploy_probe(led, alice)
    before = led.state_digests()
    receipt = led.call(alice, addr, "frobnicate", b"")
    assert not receipt.accepted
    assert receipt.reason == "UnknownFunction"
    assert led.state_digests() == before
    assert led.log[-1].accepted is False
    assert led.log[-1].reason == "UnknownFunction"
    # the doomed transaction still consumed a block
    assert led.height == 2


def test_rejected_deploy_logged_then_raises(led, alice):
    deploy_probe(led, alice)
    addresses_before = set(led.addresses())
    with pytest.raises(ConstructorRejected) as err:
        deploy_probe(led, alice, b"fail")
    assert err.value.reason == "ProbeConstructorNo"
    assert led.log[-1].accepted is False
    assert set(led.addresses()) == addresses_before


def test_bad_signature_raises_without_logging(led, alice):
    addr = deploy_probe(led, alice)
    tx = make_transaction(alice, addr, "set", b"legit")
    forged = replace(tx, args=b"forged")
    log_before = len(led.log)
    with pytest.raises(BadSignature):
        led.submit(forged)
    assert len(led.log) == log_before
    assert led.read_state(addr) == ProbeState(b"init")


def test_garbage_caller_key_raises(led, alice):
    addr = deploy_probe(led, alice)
    tx = make_transaction(alice, addr, "set", b"x")
    with pytest.raises(BadSignature):
        led.submit(replace(tx, caller=b"\x01" * 10))


def test_unknown_address_raises_without_logging(led, alice):
    nowhere = Address(crypto.digest(b"nowhere"))
    log_before = len(led.log)
    with pytest.raises(UnknownAddress):
        led.call(alice, nowhere, "set", b"x")
    assert len(led.log) == log_before


# -- who verifies signatures -----------------------------------------------------


@pytest.fixture
def verifies(monkeypatch):
    """Every ``crypto.verify`` call the ledger makes, in order."""
    seen = []
    real = crypto.verify

    def counting(public, message, signature):
        seen.append(signature)
        return real(public, message, signature)

    monkeypatch.setattr(crypto, "verify", counting)
    return seen


def test_mismatched_key_pair_never_reaches_the_ledger(led):
    victim = crypto.generate_keypair(b"ledger-victim")
    thief = crypto.generate_keypair(b"ledger-thief")
    with pytest.raises(crypto.MismatchedKeyPair):
        deploy_probe(led, crypto.KeyPair(victim.public, thief.private))
    with pytest.raises(crypto.MismatchedKeyPair):
        deploy_probe(led, replace(victim, private=thief.private))
    assert led.log == []
    assert led.height == 0


def test_submit_refuses_a_signature_by_another_key(led, alice):
    addr = deploy_probe(led, alice)
    thief = crypto.generate_keypair(b"ledger-thief")
    signed_by_thief = make_transaction(thief, addr, "set", b"stolen")
    claimed = replace(signed_by_thief, caller=alice.public.to_bytes())
    log_before = len(led.log)
    with pytest.raises(BadSignature):
        led.submit(claimed)
    assert len(led.log) == log_before
    assert led.read_state(addr) == ProbeState(b"init")


def test_call_and_deploy_skip_the_signature_check(led, alice, verifies):
    addr = deploy_probe(led, alice)
    led.call(alice, addr, "set", b"x")
    led.call(alice, addr, "frobnicate", b"")
    with pytest.raises(ConstructorRejected):
        deploy_probe(led, alice, b"fail")
    assert len(led.log) == 4
    assert verifies == []


def test_a_transaction_taken_from_the_log_is_checked_again(led, alice, verifies):
    addr = deploy_probe(led, alice)
    with pytest.raises(ConstructorRejected):
        deploy_probe(led, alice, b"fail")
    led.call(alice, addr, "set", b"x")
    for entry in led.log[:3]:
        try:
            led.submit(entry.tx)
        except ConstructorRejected:
            pass
    assert verifies == [entry.tx.signature for entry in led.log[:3]]


def test_submit_and_replay_check_each_signature_once(led, alice, verifies):
    addr = deploy_probe(led, alice)
    presigned = [make_transaction(alice, addr, "set", bytes([i])) for i in range(3)]
    for tx in presigned:
        led.submit(tx)
    assert verifies == [tx.signature for tx in presigned]
    verifies.clear()
    Ledger.replay(led.export())
    assert verifies == [entry.tx.signature for entry in led.log]


@given(seed=st.binary(min_size=1, max_size=16),
       calls=st.lists(st.tuples(st.one_of(st.sampled_from(["set", "spawn", "frobnicate"]),
                                          st.text(max_size=12).filter(lambda f: f != "poke_peer")),
                                st.binary(max_size=40)), max_size=12))
@settings(max_examples=60, deadline=None)
def test_every_logged_call_verifies_under_its_caller(seed, calls):
    """``call`` skips the check, yet replay, which checks every signature,
    accepts what it logged."""
    led = Ledger()
    caller = crypto.generate_keypair(seed)
    addr = deploy_probe(led, caller)
    for function, args in calls:
        led.call(caller, addr, function, args)
    replayed = Ledger.replay(led.export())
    assert replayed.state_digests() == led.state_digests()
    assert all(entry.tx.caller == caller.public.to_bytes() for entry in replayed.log)


# -- the block a transaction lands in ----------------------------------------------


def test_a_call_is_logged_with_its_receipt_block(led, alice):
    addr = deploy_probe(led, alice)
    led.advance_block(4)
    receipt = led.call(alice, addr, "set", b"x")
    assert led.log[-1].block == receipt.block == 5
    assert [entry.block for entry in led.log] == [0, 5]


@pytest.mark.parametrize("advance", [-1, 0, 99])
def test_a_foreign_transaction_is_logged_with_the_open_block(led, alice, advance):
    # Signed before the chain moves on: the signature fixes no block, so the
    # transaction lands in whatever block is open when it is submitted, also
    # after an advance the ledger refused.
    addr = deploy_probe(led, alice)
    tx = make_transaction(alice, addr, "set", b"x")
    if advance < 0:
        with pytest.raises(ValueError):
            led.advance_block(advance)
    else:
        led.advance_block(advance)
    open_block = led.height
    assert open_block == 1 + max(advance, 0)
    receipt = led.submit(tx)
    logged = led.log[-1]
    assert logged.block == receipt.block == open_block
    assert logged.tx == tx
    data = led.export()
    replayed = Ledger.replay(data)
    assert replayed.export() == data
    assert [(entry.block, entry.tx) for entry in replayed.log] == \
        [(entry.block, entry.tx) for entry in led.log]


def test_one_signed_transaction_is_logged_as_is_at_each_height(led, alice):
    addr = deploy_probe(led, alice)
    tx = make_transaction(alice, addr, "set", b"x")
    led.submit(tx)
    led.advance_block(3)
    led.submit(tx)
    first, second = led.log[1:]
    assert first.tx is tx and second.tx is tx
    assert (first.block, second.block) == (1, 5)


# -- staged cross-contract updates ----------------------------------------------


def test_staged_peer_update_commits(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    receipt = led.call(alice, a, "poke_peer", b.digest + b"ok")
    assert receipt.accepted
    assert led.read_state(b) == ProbeState(b"poked")


def test_staged_peer_update_rolls_back_on_rejection(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    receipt = led.call(alice, a, "poke_peer", b.digest + b"fail")
    assert not receipt.accepted and receipt.reason == "ProbeAbort"
    assert led.read_state(b) == ProbeState(b"init")


# -- resolving a pointer inside a transition ------------------------------------


@pytest.mark.parametrize("pointer", [b"", b"\x01" * 31, b"\x01" * 33, b"\x01" * 32],
                         ids=["0-bytes", "31-bytes", "33-bytes", "unknown-address"])
def test_resolve_finds_nothing_behind_a_pointer_that_names_no_probe(led, alice, pointer):
    a = deploy_probe(led, alice)
    assert led.call(alice, a, "peek", pointer).result == b"None"


def test_resolve_finds_nothing_in_a_contract_of_another_kind(led, alice):
    a = deploy_probe(led, alice)
    registry = identity.deploy_registry(led, alice)
    assert led.call(alice, a, "peek", registry.digest).result == b"None"
    assert led.call(alice, a, "peek", a.digest).result == b"init"


def test_resolve_sees_a_contract_created_earlier_in_the_transaction(led, alice):
    a = deploy_probe(led, alice)
    assert led.call(alice, a, "spawn_peek", b"").result == b"child"


def test_resolve_sees_a_state_staged_earlier_in_the_transaction(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    assert led.call(alice, a, "poke_peek", b.digest).result == b"poked"


def test_a_short_peer_pointer_is_refused_and_logged(led, alice):
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "poke_peer", b"\x01" * 5)
    assert not receipt.accepted and receipt.reason == "UnknownPeer"
    logged = led.log[-1]
    assert (logged.block, logged.accepted, logged.reason) == (receipt.block, False, "UnknownPeer")


def test_sub_deploy_commits_with_result(led, alice):
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "spawn", b"ok")
    assert receipt.accepted
    child = Address(receipt.result)
    assert child in receipt.created
    assert led.read_state(child) == ProbeState(b"child")


def test_deploy_returns_the_contract_it_deployed_ahead_of_its_children(led, alice):
    addr = deploy_probe(led, alice, b"spawn")
    assert led.read_state(addr) == ProbeState(b"spawn")
    receipt = led.submit(make_transaction(alice, None, ProbeContract.KIND, b"spawn"))
    parent, child = receipt.created
    assert parent == derive_address(alice.public.to_bytes(), receipt.seq, 0)
    assert child == derive_address(alice.public.to_bytes(), receipt.seq, 1)
    assert receipt.committed == receipt.created
    assert led.read_state(parent) == ProbeState(b"spawn")
    assert led.read_state(child) == ProbeState(b"child")
    assert [h.state for h in led.history(parent)] == [ProbeState(b"spawn")]
    assert Ledger.replay(led.export()).state_digests() == led.state_digests()


def test_sub_deploy_discarded_on_rejection(led, alice):
    a = deploy_probe(led, alice)
    before = set(led.addresses())
    receipt = led.call(alice, a, "spawn", b"fail")
    assert not receipt.accepted
    assert set(led.addresses()) == before


def test_a_receipt_names_what_its_transaction_committed(led, alice):
    deployed = led.submit(make_transaction(alice, None, ProbeContract.KIND, b"init"))
    a = deployed.created[0]
    assert deployed.committed == (a,)
    b = deploy_probe(led, alice)
    assert led.call(alice, a, "set", b"x").committed == (a,)
    # the transition returns None: only the staged peer is committed
    assert led.call(alice, a, "poke_peer", b.digest + b"ok").committed == (b,)
    spawned = led.call(alice, a, "spawn", b"ok")
    assert spawned.committed == (Address(spawned.result),)


def test_a_rejected_call_commits_nothing(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    for function, args in [("frobnicate", b""), ("poke_peer", b.digest + b"fail"),
                           ("spawn", b"fail")]:
        receipt = led.call(alice, a, function, args)
        assert not receipt.accepted
        assert receipt.committed == ()


# -- history ---------------------------------------------------------------------


def test_history_tracks_accepted_changes_only(led, alice):
    addr = deploy_probe(led, alice)
    led.call(alice, addr, "set", b"one")
    led.call(alice, addr, "frobnicate", b"")  # rejected
    led.call(alice, addr, "set", b"two")
    history = led.history(addr)
    assert [h.state.value for h in history] == [b"init", b"one", b"two"]
    assert [h.block for h in history] == [0, 1, 3]


# -- export / replay ---------------------------------------------------------------


def busy_ledger():
    led = Ledger()
    alice = crypto.generate_keypair(b"replay-alice")
    bob = crypto.generate_keypair(b"replay-bob")
    a = deploy_probe(led, alice)
    b = deploy_probe(led, bob, b"bee")
    led.call(alice, a, "set", b"v1")
    led.call(bob, a, "frobnicate", b"")  # rejected, still in the log
    led.advance_block(3)
    led.call(alice, a, "poke_peer", b.digest + b"ok")
    led.call(bob, b, "spawn", b"ok")
    try:
        led.deploy(alice, ProbeContract.KIND, b"fail")
    except ConstructorRejected:
        pass
    led.advance_block(1)
    return led


def test_export_is_deterministic():
    assert busy_ledger().export() == busy_ledger().export()


def test_replay_reproduces_everything():
    led = busy_ledger()
    again = Ledger.replay(led.export())
    assert again.height == led.height
    assert again.state_digests() == led.state_digests()
    assert again.export() == led.export()
    assert [(e.accepted, e.reason) for e in again.log] == \
        [(e.accepted, e.reason) for e in led.log]


def test_replay_rejects_tampered_args():
    led = busy_ledger()
    blob = bytearray(led.export())
    needle = blob.find(b"v1")
    assert needle != -1
    blob[needle] ^= 0xFF
    with pytest.raises(ReplayMismatch):
        Ledger.replay(bytes(blob))


def test_replay_rejects_wrong_magic():
    with pytest.raises(ReplayMismatch):
        Ledger.replay(b"XXXX" + b"\x00" * 20)


def test_replay_rejects_truncation():
    led = busy_ledger()
    with pytest.raises((ReplayMismatch, codec.DecodeError)):
        Ledger.replay(led.export()[:-3])


def test_replay_wraps_every_truncation():
    data = busy_ledger().export()
    for cut in range(len(data)):
        with pytest.raises(ReplayMismatch):
            Ledger.replay(data[:cut])


def _one_record_export(is_deploy, target, function):
    alice = crypto.generate_keypair(b"replay-alice")
    return b"".join([
        EXPORT_MAGIC, codec.u16(EXPORT_VERSION), codec.u64(1), codec.u32(1),
        codec.u64(0), codec.u8(0), codec.u8(is_deploy), codec.blob(alice.public.to_bytes()),
        codec.blob(target), codec.blob(function), codec.blob(b""), codec.blob(b"sig"),
        codec.u32(0),
    ])


@pytest.mark.parametrize("is_deploy, target, function", [
    (0, b"short", b"set"),  # a target that is not a 32-byte address
    (1, b"", b"\xfftest-probe"),  # a function name that is not UTF-8
    (2, b"", b"test-probe"),  # a deploy flag that is neither 0 nor 1
    (1, b"\x00" * 32, b"test-probe"),  # a deployment that names a target
])
def test_replay_wraps_malformed_records(is_deploy, target, function):
    with pytest.raises(ReplayMismatch, match="malformed export"):
        Ledger.replay(_one_record_export(is_deploy, target, function))


def test_replay_rejects_reordered_state_footer():
    data = busy_ledger().export()
    entry = 2 * (4 + 32)  # one footer entry: address blob, digest blob
    last, second_last = data[-entry:], data[-2 * entry:-entry]
    with pytest.raises(ReplayMismatch):
        Ledger.replay(data[:-2 * entry] + last + second_last)


@pytest.fixture(scope="module")
def long_ledger():
    """3000 transactions from three keys on three contracts, rejections too."""
    led = Ledger()
    keys = [crypto.generate_keypair(b"long-%d" % i) for i in range(3)]
    targets = [deploy_probe(led, key) for key in keys]
    for i in range(len(led.log), 3000):
        led.call(keys[i % 3], targets[i % 2], "set" if i % 5 else "frobnicate", b"%d" % i)
    return led


def test_export_peaks_at_about_its_own_size(long_ledger):
    data = long_ledger.export()  # warm any lazily built state first
    tracemalloc.start()
    try:
        again = long_ledger.export()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == data
    # one buffer holds the export; per-field copies took it past 6x
    assert peak < 3 * len(data), (peak, len(data))


def test_replay_shares_equal_callers_targets_and_functions(long_ledger):
    replayed = Ledger.replay(long_ledger.export())
    txs = [entry.tx for entry in replayed.log]
    for field in ("caller", "target", "function"):
        first: dict = {}
        for tx in txs:
            value = getattr(tx, field)
            assert value is first.setdefault(value, value), field
        assert len(first) <= 4 < len(txs)


# -- implicit blocks -------------------------------------------------------------

HEIGHT_OFFSET = len(EXPORT_MAGIC) + 2  # after magic and version
FIRST_BLOCK_OFFSET = HEIGHT_OFFSET + 8 + 4  # after final height and tx count


def _patch_u64(data, offset, value):
    return data[:offset] + codec.u64(value) + data[offset + 8:]


def test_replay_of_huge_final_height_is_constant_time():
    data = _patch_u64(busy_ledger().export(), HEIGHT_OFFSET, 2**40)
    started = time.process_time()
    led = Ledger.replay(data)
    assert time.process_time() - started < 0.5
    assert led.height == 2**40
    assert led.export() == data


def test_replay_of_huge_block_number_is_constant_time():
    data = _patch_u64(busy_ledger().export(), FIRST_BLOCK_OFFSET, 2**40)
    started = time.process_time()
    with pytest.raises(ReplayMismatch):
        Ledger.replay(data)
    assert time.process_time() - started < 0.5


@st.composite
def mutated_exports(draw):
    data = busy_ledger_export()
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for index in draw(st.lists(st.integers(0, len(data) - 1), min_size=1, max_size=3)):
        out[index] ^= draw(st.integers(1, 255))
    return bytes(out)


@functools.cache
def busy_ledger_export():
    return busy_ledger().export()


@given(mutated_exports())
@settings(max_examples=300, deadline=None)
def test_mutated_export_is_refused_or_reproduced(data):
    """Any truncation or byte flip either fails as ReplayMismatch or replays
    to a ledger that re-exports to exactly the mutated bytes."""
    try:
        led = Ledger.replay(data)
    except ReplayMismatch:
        return
    assert led.export() == data


# -- model-based check --------------------------------------------------------------


@given(st.lists(st.tuples(st.sampled_from(["set", "frobnicate"]),
                          st.binary(max_size=8)), max_size=30))
@settings(max_examples=50, deadline=None)
def test_call_sequence_matches_model(ops):
    """Accepted `set` calls and nothing else move the value — a pure dict
    model replayed alongside the real ledger."""
    led = Ledger()
    alice = crypto.generate_keypair(b"model-alice")
    addr = deploy_probe(led, alice, b"start")
    model = b"start"
    for function, payload in ops:
        receipt = led.call(alice, addr, function, payload)
        if function == "set":
            assert receipt.accepted
            model = payload
        else:
            assert not receipt.accepted
        assert led.read_state(addr).value == model
