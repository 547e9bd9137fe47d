"""Fault-point census: every named fault point the store declares is
crossed by the dry run of some crash-matrix scenario.  A point no
scenario reaches is a protocol step no matrix ever kills."""

import pathlib
import re

import repro.store
from harness.crash import dry_run, store_scenario
from harness.crash2pc import spanning_scenario
from harness.replication_crash import cohort_follower, cohort_promotion, plain_scenario

SCENARIOS = (
    store_scenario, spanning_scenario(), plain_scenario, cohort_follower, cohort_promotion,
)


def declared_points():
    """Every ``fault_point("…")`` / ``fault_point(f"…")`` name under
    ``src/repro/store/``, each f-string field a one-segment wildcard."""
    names = set()
    for path in pathlib.Path(repro.store.__file__).parent.glob("*.py"):
        names.update(re.findall(r'fault_point\(\s*f?"([^"]+)"', path.read_text()))
    return {
        name: "[^:]+".join(map(re.escape, re.split(r"\{[^}]*\}", name)))
        for name in names
    }


def test_every_declared_fault_point_is_crossed(tmp_path):
    crossed = set()
    for index, scenario in enumerate(SCENARIOS):
        crossed.update(dry_run(tmp_path / str(index), scenario)[1].points)
    declared = declared_points()
    assert len(declared) >= 20
    missing = sorted(
        name for name, pattern in declared.items()
        if not any(re.fullmatch(pattern, point) for point in crossed)
    )
    assert not missing, f"no crash matrix crosses {missing}"
