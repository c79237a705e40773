"""Golden-report regression fixtures for the switch scenarios.

The single-port scenarios have had golden ``summary()`` snapshots since
PR 4 (``tests/workloads/test_golden.py``); these extend the same net to the
switch layer: every registered switch scenario has a committed JSON snapshot
of its ``SwitchReport.summary()`` under ``tests/fixtures/golden/switch/``.
The cross-engine, window-size and per-port-oracle tests prove the execution
paths agree *with each other*; the fixtures prove they agree *with the past*.

After an intentional behaviour change, regenerate with::

    python -m pytest tests/switch/test_golden.py --update-golden

and review the fixture diff like any other code change.
"""

import json
from pathlib import Path

import pytest

from repro.switch.model import SwitchModel
from repro.switch.registry import get_switch_scenario, switch_scenario_names

#: Kept in a subdirectory: the single-port golden test asserts every
#: ``golden/*.json`` stem is a registered *scenario*, so switch fixtures
#: must not share that namespace.
GOLDEN_DIR = (Path(__file__).resolve().parent.parent / "fixtures" / "golden"
              / "switch")


def _canonical(summary):
    """The summary as it round-trips through JSON (tuples become lists,
    float repr normalises) — what a committed fixture can actually store."""
    return json.loads(json.dumps(summary, sort_keys=True))


@pytest.mark.parametrize("name", switch_scenario_names())
def test_switch_summary_matches_golden_fixture(name, request):
    scenario = get_switch_scenario(name)
    summary = _canonical(SwitchModel(scenario).run().summary())
    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-golden"):
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        pytest.skip(f"golden fixture rewritten: {path}")
    assert path.exists(), (
        f"no golden fixture for switch scenario {name!r}; run "
        f"pytest tests/switch/test_golden.py --update-golden and commit "
        f"{path}")
    stored = json.loads(path.read_text(encoding="utf-8"))
    assert summary == stored, (
        f"switch scenario {name!r} drifted from its golden fixture {path}; "
        f"if the change is intentional, regenerate with --update-golden and "
        f"review the diff")


def test_no_orphaned_switch_golden_fixtures():
    fixtures = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    names = set(switch_scenario_names())
    assert fixtures <= names, (
        f"orphaned switch golden fixtures: {sorted(fixtures - names)}")


def test_switch_golden_fixtures_are_path_independent():
    """The fixture pins behaviour, not an execution path: any engine and
    any window size must match it (spot-checked on one scenario)."""
    scenario = get_switch_scenario("uniform")
    stored = json.loads(
        (GOLDEN_DIR / "uniform.json").read_text(encoding="utf-8"))
    model = SwitchModel(scenario)
    assert _canonical(model.run(engine="reference").summary()) == stored
    assert _canonical(SwitchModel(scenario).run(
        engine="array", jobs=2, chunk_slots=777).summary()) == stored
