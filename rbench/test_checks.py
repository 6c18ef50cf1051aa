"""The check ledger: a check counts once per run, a failure on any pass
sticks, and only failures no verified known defect explains make a run
incorrect.

Run with ``python3 -m pytest rbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import Checks  # noqa: E402


def test_a_failure_on_any_pass_sticks():
    checks = Checks()
    checks.check("ledger closes", True)
    checks.check("ledger closes", False, "pass 2")
    checks.check("ledger closes", True)
    assert checks.attempted == 1
    assert checks.failed == [("ledger closes", False, "pass 2")]
    assert checks.unexplained == checks.failed


def test_a_known_defect_counts_as_failed_but_not_unexplained():
    checks = Checks()
    checks.check("faults reported", False, "0 of 2", known="ring evicted")
    checks.check("audit closes", True)
    assert checks.attempted == 2
    assert len(checks.failed) == 1
    assert checks.unexplained == []
    assert checks.known_defect("faults reported") == "ring evicted"


def test_an_unexplained_failure_overrides_a_known_one():
    checks = Checks()
    checks.check("faults reported", False, "pass 1", known="ring evicted")
    checks.check("faults reported", False, "pass 2")
    checks.check("faults reported", False, "pass 3", known="ring evicted")
    assert checks.unexplained == [("faults reported", False, "pass 2")]
    assert checks.known_defect("faults reported") == ""


def test_a_passing_check_carries_no_known_defect():
    checks = Checks()
    checks.check("faults reported", True, known="ring evicted")
    assert checks.failed == []
    assert checks.known_defect("faults reported") == ""
