"""``Ledger.history`` is derived by re-executing the log, not stored.

An oracle recorded while random protocol traffic runs must match the derived
history entry for entry, and the ledger's memory must grow linearly with the
number of transactions it holds.
"""

import tracemalloc

import helpers

from creditchain import crypto, identity
from creditchain.ledger import Ledger


def _snapshot(led):
    return {address: led.read_state(address) for address in led.addresses()}


def _run_with_oracle(seed, min_calls=50):
    """Run one fuzzer, noting after each accepted transaction the block, the
    transaction and the state of every address it committed: the addresses
    it created, its target, and any other address whose state object
    changed (a staged cross-contract write)."""
    fuzzer = helpers.ProtocolFuzzer(seed)
    led = fuzzer.led
    # the registry and the factory are deployed before the fuzzer returns
    oracle = {address: [(entry.tx.block, entry.tx, led.read_state(address))]
              for address, entry in zip((fuzzer.registry, fuzzer.factory), led.log)}
    counts = {"idempotent": 0, "staged": 0}
    while len(led.log) < min_calls:
        before, logged = _snapshot(led), len(led.log)
        fuzzer.step()
        if len(led.log) == logged or not led.log[-1].accepted:
            continue
        tx = led.log[-1].tx
        after = _snapshot(led)
        changed = {a for a, state in after.items() if before.get(a) is not after[a]}
        for address in changed | ({tx.target} if tx.target else set()):
            oracle.setdefault(address, []).append((tx.block, tx, after[address]))
        if tx.target is not None and tx.target not in changed:
            counts["idempotent"] += 1
        if changed - {tx.target} - (after.keys() - before.keys()):
            counts["staged"] += 1
    return led, oracle, counts


def test_derived_history_matches_recorded_oracle():
    totals = {"idempotent": 0, "staged": 0}
    for seed in range(200):
        led, oracle, counts = _run_with_oracle(seed)
        for key in totals:
            totals[key] += counts[key]
        assert set(oracle) == set(led.addresses()), f"seed {seed}"
        for address, expected in oracle.items():
            history = led.history(address)
            assert [(h.block, h.tx, h.state) for h in history] == expected, \
                f"seed {seed}: history of {address.short()} diverged"
            assert history[-1].state == led.read_state(address)
            assert history[0].block == led.creation_block(address)
    # the run must exercise the two cases a state-diff oracle could miss
    assert totals["idempotent"] > 0, "no commit that kept the same state object"
    assert totals["staged"] > 0, "no staged cross-contract commit"


def _registration_peak(n):
    keys = [crypto.generate_keypair(f"linear-{i}".encode()) for i in range(n)]
    root = crypto.generate_keypair(b"linear-root")
    tracemalloc.start()
    try:
        led = Ledger()
        registry = identity.deploy_registry(led, root)
        for i, pair in enumerate(keys):
            identity.register(led, registry, pair, identity.fingerprint_from_text(f"L:{i}"))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_registration_memory_grows_linearly():
    """Twice the identities may cost about twice the memory, not four
    times, which is what keeping every registry snapshot costs."""
    ratio = _registration_peak(400) / _registration_peak(200)
    assert ratio < 2.5, f"peak memory ratio 400/200 identities is {ratio:.2f}"
