"""Ledger mechanics, tested against a minimal probe contract so the rules
of submission, staging, and replay are checked independently of the
domain contracts layered on top."""

import functools
import json
import time
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creditchain import codec, crypto, harness, identity
from creditchain.harness import SimWorld, run_scenario
from creditchain.ledger import (
    EXPORT_MAGIC,
    EXPORT_VERSION,
    Address,
    LAST_HEIGHT,
    BadSignature,
    CallReceipt,
    ChainFull,
    ConstructorRejected,
    ContractRejected,
    Ledger,
    ReplayMismatch,
    UnknownAddress,
    _decode_export,
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
        if args == b"spawn-then-fail":
            ctx.deploy(ProbeContract.KIND, b"child")
            raise ContractRejected("ProbeConstructorNo")
        if args.startswith(b"clobber"):  # stage the probe at args[7:], then refuse
            ctx.stage(Address(args[7:]), ProbeState(b"clobbered"))
            raise ContractRejected("ProbeConstructorNo")
        if args.startswith(b"script"):
            _run_script(ctx, json.loads(args[6:]))
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
        if function == "peek":  # the value of the probe at ``args``
            return _peek(ctx, args)
        if function == "spawn_peek":  # a probe created earlier in this transaction
            return _peek(ctx, ctx.deploy(ProbeContract.KIND, b"child").digest)
        if function == "poke_peek":  # a state staged earlier in this transaction
            ProbeContract.apply(state, ctx, "poke_peer", args)
            return _peek(ctx, args)
        if function == "stage_self":  # stages its own target, then returns a state
            ctx.stage(ctx.self_address, ProbeState(b"staged"))
            return ProbeState(b"returned")
        if function == "spawn_spawner":  # a child whose constructor deploys a grandchild
            ctx.deploy(ProbeContract.KIND, b"spawn")
            return None
        if function == "spawn_kind":  # a child of the kind ``args`` names
            ctx.deploy(args.decode("utf-8", "replace"), b"init")
            return None
        if function == "spawn_after_refusal":  # a child after a refused one
            try:
                ctx.deploy(ProbeContract.KIND, b"spawn-then-fail")
            except ContractRejected:
                pass
            ctx.deploy(ProbeContract.KIND, b"child")
            return None
        if function == "spawn_caught":  # a child built from ``args``, its refusal caught
            try:
                ctx.deploy(ProbeContract.KIND, args)
            except ContractRejected:
                pass
            return None
        if function == "spawn_then_clobber":  # a child, then a refused one that staged it
            child = ctx.deploy(ProbeContract.KIND, b"child")
            ProbeContract.apply(state, ctx, "spawn_caught", b"clobber" + child.digest)
            return None
        if function == "spawn":
            ctx.deploy(ProbeContract.KIND, b"child")
            if args == b"fail":
                raise ContractRejected("ProbeAbort")
            return None
        raise ContractRejected("UnknownFunction")

    @staticmethod
    def encode_state(state):
        return codec.pack(state.value)


def _peek(ctx, pointer):
    """The peeking probe's next state: the value of the probe ``pointer``
    resolves to, or ``None`` when it resolves to nothing."""
    found = ctx.resolve(pointer, ProbeContract)
    return ProbeState(b"None" if found is None else found.value)


def _run_script(ctx, script):
    """Run ``[steps, refuse]``: each step stages a peer (``["stage", hex,
    marker]``) or deploys a child running a sub-script (``["deploy", caught,
    script]``), then the script refuses if ``refuse`` says so."""
    steps, refuse = script
    for step in steps:
        if step[0] == "stage":
            ctx.stage(Address(bytes.fromhex(step[1])), ProbeState(step[2].encode()))
            continue
        _, caught, sub = step
        try:
            ctx.deploy(ProbeContract.KIND, _script_args(sub))
        except ContractRejected:
            if not caught:
                raise
    if refuse:
        raise ContractRejected("ProbeScriptNo")


def _script_args(script):
    return b"script" + json.dumps(script).encode()


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


def _encode_export(height, records, footer):
    """The export of (final height, [(block, rejected, tx)], [(address, digest)]),
    laid out as ``Ledger.export`` writes it."""
    parts = [EXPORT_MAGIC, codec.u16(EXPORT_VERSION), codec.u64(height), codec.u32(len(records))]
    write = parts.append
    for block, rejected, tx in records:
        parts += [codec.u64(block), codec.u8(rejected), codec.u8(tx.is_deploy())]
        for blob in (tx.caller, b"" if tx.target is None else tx.target.digest,
                     codec.text(tx.function), tx.args, tx.signature):
            codec.write_blob(write, blob)
    write(codec.u32(len(footer)))
    for address, digest in footer:
        codec.write_blob(write, address)
        codec.write_blob(write, digest)
    return b"".join(parts)


def _replay_outcome(data, admitted_by=None):
    """The re-export of a replay of ``data``, or its ReplayMismatch message."""
    try:
        return "replayed", Ledger.replay(data, admitted_by=admitted_by).export()
    except ReplayMismatch as exc:
        return "refused", str(exc)


@pytest.fixture(scope="module")
def foreign_records():
    """The decoded records of the lifecycle scenario run in another world:
    each validly signed, none in the lifecycle world's own log."""
    scenario = (Path(__file__).parent.parent / "scenarios" / "lifecycle.scn").read_text()
    world = run_scenario(scenario, world=SimWorld(seed=b"foreign")).world
    return _decode_export(world.ledger.export())[1]


def test_the_audit_takes_its_own_ledgers_signatures_as_given(lifecycle_world, verifies):
    harness.audit_replay(lifecycle_world)
    assert verifies == []
    Ledger.replay(lifecycle_world.ledger.export())
    assert verifies == [entry.tx.signature for entry in lifecycle_world.ledger.log]


def test_replay_checks_each_record_the_admitting_log_does_not_hold(led, alice, verifies):
    addr = deploy_probe(led, alice)
    led.call(alice, addr, "set", b"x")
    earlier = Ledger.replay(led.export())
    led.call(alice, addr, "set", b"y")
    led.call(alice, addr, "set", b"z")
    verifies.clear()
    Ledger.replay(led.export(), admitted_by=earlier)
    assert verifies == [entry.tx.signature for entry in led.log[2:]]


def test_a_record_that_differs_from_the_admitted_one_only_in_its_signature_is_refused(
        lifecycle_world):
    live = lifecycle_world.ledger
    height, records, footer = _decode_export(live.export())
    for i in (0, len(records) // 2, len(records) - 1):
        block, rejected, tx = records[i]
        forged = replace(tx, signature=bytes([tx.signature[0] ^ 1]) + tx.signature[1:])
        data = _encode_export(height, records[:i] + [(block, rejected, forged)] + records[i + 1:], footer)
        message = f"transaction {i} failed to re-execute: transaction signature does not verify"
        with pytest.raises(ReplayMismatch, match=message):
            Ledger.replay(data, admitted_by=live)


def test_a_bad_signature_written_into_the_log_passes_only_its_own_audit(led, alice):
    """The one entry the audit no longer catches: written behind the ledger's
    back, it re-executes to the live states.  A lender's replay refuses it."""
    addr = deploy_probe(led, alice)
    led.call(alice, addr, "set", b"x")
    entry = led._log[1]
    led._log[1] = replace(entry, tx=replace(entry.tx, signature=bytes(64)))
    data = led.export()
    assert Ledger.replay(data, admitted_by=led).export() == data
    with pytest.raises(ReplayMismatch, match="transaction 1 failed to re-execute"):
        Ledger.replay(data)


def test_the_audit_replay_logs_the_admitting_ledgers_own_transactions(lifecycle_world):
    """Each record of a ledger's own export decodes, with that ledger's log,
    to the very object the log holds; a lender's replay shares none."""
    for live in (lifecycle_world.ledger, rejections_ledger()):
        data = live.export()
        audited = Ledger.replay(data, admitted_by=live).log
        assert len(audited) == len(live.log)
        assert all(mine.tx is theirs.tx for mine, theirs in zip(audited, live.log))
        full = Ledger.replay(data).log
        assert not any(mine.tx is theirs.tx for mine, theirs in zip(full, live.log))


@st.composite
def _export_mutations(draw, data, foreign):
    """``data`` with one byte flipped or cut short, or its records with one
    signature or args replaced, two swapped, or a foreign record spliced in."""
    height, own, footer = _decode_export(data)
    kind = draw(st.sampled_from(["flip", "truncate", "signature", "args", "swap", "splice"]))
    if kind == "flip":
        at = draw(st.integers(0, len(data) - 1))
        return data[:at] + bytes([data[at] ^ (1 << draw(st.integers(0, 7)))]) + data[at + 1:]
    if kind == "truncate":
        return data[:draw(st.integers(0, len(data) - 1))]
    i = draw(st.integers(0, len(own) - 1))
    block, rejected, tx = own[i]
    if kind == "signature":
        own[i] = block, rejected, replace(tx, signature=draw(st.binary(min_size=64, max_size=64)))
    elif kind == "args":
        own[i] = block, rejected, replace(tx, args=draw(st.binary(max_size=80)))
    elif kind == "swap":
        j = draw(st.integers(0, len(own) - 1))
        own[i], own[j] = own[j], own[i]
    else:
        own.insert(i, draw(st.sampled_from(foreign)))
    return _encode_export(height, own, footer)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_replay_with_the_admitting_log_refuses_what_a_full_replay_refuses(
        lifecycle_world, foreign_records, data):
    live = lifecycle_world.ledger
    export = live.export()
    assert _encode_export(*_decode_export(export)) == export
    mutated = data.draw(_export_mutations(export, foreign_records))
    full = _replay_outcome(mutated)
    assert _replay_outcome(mutated, admitted_by=live) == full
    if full[0] == "replayed":
        assert full[1] == mutated


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


def test_a_transition_that_stages_its_own_target_is_refused(led, alice):
    """The target is written by the transition's return value only; a
    staged state for it would silently override that value."""
    a = deploy_probe(led, alice)
    before = led.state_digests()
    receipt = led.call(alice, a, "stage_self", b"")
    assert (receipt.accepted, receipt.reason) == (False, "StagedTarget")
    assert receipt.created == receipt.committed == ()
    assert led.read_state(a) == ProbeState(b"init")
    assert led.state_digests() == before
    logged = led.log[-1]
    assert (logged.accepted, logged.reason) == (False, "StagedTarget")
    assert len(led.history(a)) == 1
    assert Ledger.replay(led.export()).export() == led.export()


def test_a_constructor_that_a_call_runs_cannot_stage_the_call_target(led, alice):
    """A child's constructor shares the call's target: staging it refuses
    the child, and the transition that catches the refusal commits nothing."""
    a = deploy_probe(led, alice)
    script = [[["stage", a.hex, "m1"]], False]
    receipt = led.call(alice, a, "spawn_caught", _script_args(script))
    assert receipt.accepted
    assert receipt.created == receipt.committed == ()
    assert led.read_state(a) == ProbeState(b"init")
    assert led.addresses() == [a]
    assert Ledger.replay(led.export()).export() == led.export()


# -- resolving a pointer inside a transition ------------------------------------


@pytest.mark.parametrize("pointer", [b"", b"\x01" * 31, b"\x01" * 33, b"\x01" * 32],
                         ids=["0-bytes", "31-bytes", "33-bytes", "unknown-address"])
def test_resolve_finds_nothing_behind_a_pointer_that_names_no_probe(led, alice, pointer):
    a = deploy_probe(led, alice)
    assert led.call(alice, a, "peek", pointer).accepted
    assert led.read_state(a).value == b"None"


def test_resolve_finds_nothing_in_a_contract_of_another_kind(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    registry = identity.deploy_registry(led, alice)
    led.call(alice, a, "peek", registry.digest)
    assert led.read_state(a).value == b"None"
    led.call(alice, a, "peek", b.digest)
    assert led.read_state(a).value == b"init"


def test_resolve_sees_a_contract_created_earlier_in_the_transaction(led, alice):
    a = deploy_probe(led, alice)
    led.call(alice, a, "spawn_peek", b"")
    assert led.read_state(a).value == b"child"


def test_resolve_sees_a_state_staged_earlier_in_the_transaction(led, alice):
    a = deploy_probe(led, alice)
    b = deploy_probe(led, alice)
    led.call(alice, a, "poke_peek", b.digest)
    assert led.read_state(a).value == b"poked"


def test_a_short_peer_pointer_is_refused_and_logged(led, alice):
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "poke_peer", b"\x01" * 5)
    assert not receipt.accepted and receipt.reason == "UnknownPeer"
    logged = led.log[-1]
    assert (logged.block, logged.accepted, logged.reason) == (receipt.block, False, "UnknownPeer")


def test_sub_deploy_commits_the_child_it_created(led, alice):
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "spawn", b"ok")
    assert receipt.accepted
    (child,) = receipt.created
    assert child == derive_address(alice.public.to_bytes(), receipt.seq, 1)
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


def test_a_child_deployed_by_a_child_gets_the_next_index(led, alice):
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "spawn_spawner", b"")
    key = alice.public.to_bytes()
    child, grandchild = derive_address(key, receipt.seq, 1), derive_address(key, receipt.seq, 2)
    assert receipt.accepted
    assert receipt.created == receipt.committed == (child, grandchild)
    assert led.read_state(child) == ProbeState(b"spawn")
    assert led.read_state(grandchild) == ProbeState(b"child")
    data = led.export()
    assert Ledger.replay(data).export() == data


def test_a_refused_constructor_leaves_no_contract_even_when_caught(led, alice):
    """The transition goes on after its child's constructor, which had
    deployed a grandchild, refused: neither lands, and the next child
    takes the first free index."""
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "spawn_after_refusal", b"")
    child = derive_address(alice.public.to_bytes(), receipt.seq, 1)
    assert receipt.accepted
    assert receipt.created == receipt.committed == (child,)
    assert led.read_state(child) == ProbeState(b"child")
    assert len(led.addresses()) == 2
    data = led.export()
    assert Ledger.replay(data).export() == data


def test_a_caught_constructor_refusal_takes_back_what_it_staged(led, alice):
    """The refused constructor had staged a peer that already exists; the
    transition that caught the refusal commits, the peer keeps its state."""
    a = deploy_probe(led, alice)
    peer = deploy_probe(led, alice, b"peer")
    receipt = led.call(alice, a, "spawn_caught", b"clobber" + peer.digest)
    assert receipt.accepted
    assert led.read_state(peer) == ProbeState(b"peer")
    assert receipt.created == receipt.committed == ()
    assert len(led.history(peer)) == 1
    assert Ledger.replay(led.export()).export() == led.export()


def test_a_caught_constructor_refusal_takes_back_what_it_staged_in_a_sibling(led, alice):
    """A refused constructor staged a child deployed earlier in the same
    transaction: the child commits with the state its own constructor gave."""
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "spawn_then_clobber", b"")
    child = derive_address(alice.public.to_bytes(), receipt.seq, 1)
    assert receipt.accepted
    assert led.read_state(child) == ProbeState(b"child")
    assert receipt.created == receipt.committed == (child,)
    assert len(led.history(child)) == 1
    assert Ledger.replay(led.export()).export() == led.export()


def _scripts(depth):
    """``[steps, refuse]`` with one to three steps, each staging peer 0 or 1
    with a marker or, above depth 1, deploying a child that runs a
    sub-script."""
    step = st.tuples(st.just("stage"), st.integers(0, 1), st.sampled_from(["m1", "m2"]))
    if depth > 1:
        step |= st.tuples(st.just("deploy"), st.booleans(), _scripts(depth - 1))
    return st.tuples(st.lists(step, min_size=1, max_size=3), st.booleans())


def _with_peers(script, peers):
    """``script`` as the constructor reads it: lists, and peers as hex."""
    steps, refuse = script
    return [[["stage", peers[s[1]].hex, s[2]] if s[0] == "stage"
             else ["deploy", s[1], _with_peers(s[2], peers)] for s in steps], refuse]


def _model(script, key, seq, created, writes):
    """Run ``script`` as a nested transaction would: a refused child takes
    back everything its subtree created and wrote, and a caught refusal
    lets its parent go on.  ``created`` and ``writes`` gather what commits;
    returns whether ``script`` finished without refusing."""
    steps, refuse = script
    for step in steps:
        if step[0] == "stage":
            writes[Address(bytes.fromhex(step[1]))] = ProbeState(step[2].encode())
            continue
        _, caught, sub = step
        mark, saved = len(created), dict(writes)
        created.append(derive_address(key, seq, len(created)))
        if _model(sub, key, seq, created, writes):
            writes[created[mark]] = ProbeState(_script_args(sub))
            continue
        del created[mark:]
        writes.clear()
        writes.update(saved)
        if not caught:
            return False
    return not refuse


@given(script=_scripts(3))
@settings(max_examples=60, deadline=None)
def test_a_refused_constructor_commits_nothing_of_its_subtree(script):
    led = Ledger()
    alice = crypto.generate_keypair(b"ledger-alice")
    peers = [deploy_probe(led, alice, b"peer0"), deploy_probe(led, alice, b"peer1")]
    before = {address: led.read_state(address) for address in led.addresses()}
    script = _with_peers(script, peers)
    key, seq = alice.public.to_bytes(), len(led.log)
    created, writes = [], {}
    accepted = _model([[["deploy", False, script]], False], key, seq, created, writes)

    receipt = led.submit(make_transaction(alice, None, ProbeContract.KIND, _script_args(script)))
    assert receipt.accepted == accepted
    assert receipt.created == tuple(created)
    assert receipt.committed[:len(created)] == receipt.created
    assert sorted(receipt.committed, key=Address.hex.fget) == \
        sorted({*created, *writes}, key=Address.hex.fget)
    assert set(led.addresses()) == {*before, *created}
    for address in led.addresses():
        assert led.read_state(address) == writes.get(address, before.get(address))
    data = led.export()
    assert Ledger.replay(data).export() == data


def test_submit_returns_a_refused_deployment_as_a_receipt(led, alice):
    deploy_probe(led, alice)
    addresses_before = set(led.addresses())
    receipt = led.submit(make_transaction(alice, None, ProbeContract.KIND, b"fail"))
    assert (receipt.accepted, receipt.reason, receipt.block, receipt.seq) == \
        (False, "ProbeConstructorNo", 1, 1)
    assert receipt.created == receipt.committed == ()
    logged = led.log[-1]
    assert (logged.block, logged.accepted, logged.reason) == (1, False, "ProbeConstructorNo")
    assert led.height == 2  # the refusal sealed one block
    assert set(led.addresses()) == addresses_before


def test_a_deployment_of_an_unknown_kind_is_refused(led, alice):
    receipt = led.submit(make_transaction(alice, None, "no-such-kind", b""))
    assert (receipt.accepted, receipt.reason) == (False, "UnknownKind(no-such-kind)")
    with pytest.raises(ConstructorRejected) as err:
        led.deploy(alice, "no-such-kind", b"")
    assert err.value.reason == "UnknownKind(no-such-kind)"
    assert [(e.accepted, e.reason) for e in led.log] == [(False, "UnknownKind(no-such-kind)")] * 2
    assert led.addresses() == [] and led.height == 2


def test_a_transition_deploying_an_unknown_kind_is_refused(led, alice):
    a = deploy_probe(led, alice)
    receipt = led.call(alice, a, "spawn_kind", b"no-such-kind")
    assert (receipt.accepted, receipt.reason) == (False, "UnknownKind(no-such-kind)")
    assert led.log[-1].reason == "UnknownKind(no-such-kind)"
    assert led.addresses() == [a]
    data = led.export()
    assert Ledger.replay(data).export() == data


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
    assert spawned.committed == (derive_address(alice.public.to_bytes(), spawned.seq, 1),)


def test_a_receipt_refuses_assignment_and_builds_from_keywords(led, alice):
    receipt = led.call(alice, deploy_probe(led, alice), "set", b"x")
    with pytest.raises(AttributeError):
        receipt.accepted = False
    # as ``helpers.ProtocolFuzzer`` builds one for a refused deployment
    built = CallReceipt(accepted=False, reason="BadArguments", block=led.height, seq=-1)
    assert (built.accepted, built.reason, built.block, built.seq) == (False, "BadArguments",
                                                                       led.height, -1)
    assert built.created == built.committed == ()


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


@functools.cache
def rejections_ledger():
    """The ledger of ``scenarios/rejections.scn``: a refused deployment and
    refused calls among accepted ones."""
    path = Path(__file__).parent.parent / "scenarios" / "rejections.scn"
    return run_scenario(path.read_text()).world.ledger


@functools.cache
def rejections_export():
    return rejections_ledger().export()


def _refused_or_reproduced(data):
    try:
        led = Ledger.replay(data)
    except ReplayMismatch:
        return
    assert led.export() == data


def test_prefixes_of_an_export_are_refused():
    """Every cut through the header and the first records, then every fifth
    (each prefix decodes up to its end, so all of them cost quadratic time)."""
    data = rejections_export()
    for cut in [*range(512), *range(512, len(data), 5)]:
        with pytest.raises(ReplayMismatch):
            Ledger.replay(data[:cut])


def test_every_byte_flip_in_the_head_of_an_export_is_refused_or_reproduced():
    """Each byte of the header and the first two records, flipped three
    ways: a ReplayMismatch or a ledger that re-exports the flipped bytes,
    never another exception."""
    data = rejections_export()
    _, records, _ = _decode_export(data)
    head = len(_encode_export(0, records[:2], [])) - 4  # less the footer's count
    for at in range(head):
        for mask in (0x01, 0x80, 0xFF):
            flipped = bytearray(data)
            flipped[at] ^= mask
            _refused_or_reproduced(bytes(flipped))


def _decodes_alike_with_the_admitting_log(data):
    """``_decode_export`` with the rejections ledger's log returns what it
    returns without, or raises the same exception with the same message."""
    def outcome(*admitted):
        try:
            return "decoded", _decode_export(data, *admitted)
        except Exception as exc:
            return type(exc), str(exc)

    assert outcome(rejections_ledger()._log) == outcome()


def test_the_admitting_log_decodes_every_prefix_alike():
    data = rejections_export()
    for cut in [*range(512), *range(512, len(data), 5)]:
        _decodes_alike_with_the_admitting_log(data[:cut])


def test_the_admitting_log_decodes_every_flipped_record_head_and_length_alike():
    """Flips of 0x01 and 0x80 at every byte of the header, at both flags of
    every record and the low byte of each of its five length prefixes (where
    a flip changes how the record parses), and at every 41st byte, which
    lands in each kind of field.  Every byte would take twenty times as long."""
    data = rejections_export()
    _, records, _ = _decode_export(data)
    positions = {*range(18), *range(0, len(data), 41)}
    at = 18
    for _, _, tx in records:
        positions.update((at + 8, at + 9))
        at += 10
        for field in (tx.caller, b"" if tx.target is None else tx.target.digest,
                      codec.text(tx.function), tx.args, tx.signature):
            positions.add(at + 3)
            at += 4 + len(field)
    flipped = bytearray(data)
    for at in sorted(positions):
        for mask in (0x01, 0x80):
            flipped[at] ^= mask
            _decodes_alike_with_the_admitting_log(bytes(flipped))
            flipped[at] ^= mask


@pytest.mark.parametrize("cut, message", [
    (3, "needed 4 bytes at offset 0"),  # inside the magic
    (5, "needed 2 bytes at offset 4"),  # inside the version
    (13, "needed 8 bytes at offset 6"),  # inside the final height
    (17, "needed 4 bytes at offset 14"),  # inside the transaction count
    (18, "needed 8 bytes at offset 18"),  # before the first record
    (26, "needed 1 bytes at offset 26"),  # before its status flag
    (27, "needed 1 bytes at offset 27"),  # before its deploy flag
    (31, "needed 4 bytes at offset 28"),  # inside its caller's length
    (95, "needed 64 bytes at offset 32"),  # inside its caller key
    (6000, "needed 83 bytes at offset 5986"),  # inside a later record's args
    (12099, "needed 32 bytes at offset 12077"),  # inside the footer's last digest
])
def test_a_truncated_export_names_where_it_ran_out(cut, message):
    data = rejections_export()
    assert len(data) == 12109
    with pytest.raises(ReplayMismatch) as refused:
        Ledger.replay(data[:cut])
    assert str(refused.value) == f"malformed export: {message}, stream exhausted"


def test_an_export_with_a_trailing_byte_is_refused():
    with pytest.raises(ReplayMismatch) as refused:
        Ledger.replay(rejections_export() + b"\x00")
    assert str(refused.value) == "malformed export: 1 trailing bytes after expected end"


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
