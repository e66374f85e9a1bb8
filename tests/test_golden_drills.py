"""Golden drill ledgers: every default chaos and attack drill, pinned.

A drill streams one honest scene through a clean baseline and through a
pipeline perturbed by a fault or attack plan, then scores both
(:mod:`repro.drill`). Its :meth:`~repro.drill.DrillReport.ledger` is a
pure function of ``(plan, scene)``: survival, acceptance hygiene, the
decode guard's and the cloud's counters, quarantined segments and every
accepted frame. This test pins the ledgers of the default
:class:`~repro.drill.DrillScene` for the six
:data:`repro.faults.SCENARIOS` and the seven
:data:`repro.net.adversary.ATTACK_SCENARIOS` against
``tests/fixtures/golden_drill_ledgers.json``.

A change to the gateway's shipping path, the backhaul's spill and
degradation, the decode farm's retries and requeues, the jamming
detector or the decode guard that moves any ledger line fails here.
Regenerate the fixture only for an intended change of drill outcome::

    PYTHONPATH=src python tests/test_golden_drills.py --regenerate
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.drill import DrillScene, run_drill
from repro.faults import SCENARIOS
from repro.net.adversary import ATTACK_SCENARIOS

FIXTURE = Path(__file__).parent / "fixtures" / "golden_drill_ledgers.json"
DRILLS = [("chaos", name) for name in SCENARIOS] + [
    ("attack", name) for name in ATTACK_SCENARIOS
]


def drill_ledger(kind: str, scenario: str) -> list[str]:
    """The ledger of one default-scene drill."""
    scene = DrillScene()
    return run_drill(scene.plan(kind, scenario), scenario, scene).ledger()


@pytest.mark.parametrize(("kind", "scenario"), DRILLS)
def test_drill_ledger_matches_golden_fixture(kind, scenario):
    expected = json.loads(FIXTURE.read_text())[kind][scenario]
    assert drill_ledger(kind, scenario) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(f"usage: {sys.argv[0]} --regenerate")
    ledgers: dict[str, dict[str, list[str]]] = {"chaos": {}, "attack": {}}
    for kind, scenario in DRILLS:
        ledgers[kind][scenario] = drill_ledger(kind, scenario)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(ledgers, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
