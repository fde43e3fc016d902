"""Acceptance battery: every quantitative claim, one pass/fail line per
criterion.  Criteria 1-8 are exact; criterion 9 runs at 1e-9.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion lines,
or `polytope-forge verify --all` for the claim-level report.
"""

import pytest

from polytope_forge import cli

CRITERIA = range(1, 10)


@pytest.fixture(scope="module")
def report():
    return cli.run_claims()


@pytest.mark.parametrize("criterion", CRITERIA)
def test_criterion(report, criterion):
    claims = [c for c in report.claims if c.criterion == criterion]
    assert claims, f"criterion {criterion} has no claims"
    failed = [c for c in claims if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"{status} criterion {criterion}: {', '.join(c.claim_id for c in claims)}")
    for c in failed:
        print("   " + c.line())
    assert not failed, [c.claim_id for c in failed]


def test_every_claim_id_appears_exactly_once(report):
    ids = [c.claim_id for c in report.claims]
    assert len(ids) == len(set(ids))


def test_battery_is_complete(report):
    assert {c.criterion for c in report.claims} == set(CRITERIA)
