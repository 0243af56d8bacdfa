import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from creditchain import crypto  # noqa: E402
from creditchain.harness import run_scenario  # noqa: E402

SCENARIO_DIR = Path(__file__).parent.parent / "scenarios"


@pytest.fixture(scope="session")
def lifecycle_run():
    """The full lifecycle scenario, run once and shared read-only."""
    return run_scenario(SCENARIO_DIR.joinpath("lifecycle.scn").read_text())


@pytest.fixture(scope="session")
def lifecycle_world(lifecycle_run):
    return lifecycle_run.world


@pytest.fixture(scope="session")
def chain5_world():
    import helpers

    return helpers.build_chain_world(5)


@pytest.fixture
def verifies(monkeypatch):
    """The signature of every ``crypto.verify`` call, in order."""
    seen = []
    real = crypto.verify

    def counting(public, message, signature):
        seen.append(signature)
        return real(public, message, signature)

    monkeypatch.setattr(crypto, "verify", counting)
    return seen
