"""Acceptance suite: one test per verification claim, plus a mutation probe.

Every claim is exact (tolerance zero); each test prints its own PASS/FAIL
line so a full run reads as a checklist.
"""

import copy

import pytest

from cocycle_lab import klein_tables
from cocycle_lab.verify import CLAIMS, run_claims


@pytest.mark.parametrize("claim", CLAIMS, ids=[c.claim_id for c in CLAIMS])
def test_acceptance_claim(claim):
    ok, detail = claim.run()
    print(f"{claim.claim_id} {'PASS' if ok else 'FAIL'} - {claim.title}: {detail}")
    assert ok, f"{claim.claim_id} failed: {detail}"


def test_mutated_table_fails_exactly_the_table_claim(monkeypatch):
    # flip one sign in the census data: the cell-by-cell claim must fail,
    # every other claim in the touched sections must keep passing
    mutated = copy.deepcopy(klein_tables.BRAIDING_TABLES)
    block = mutated[frozenset({"sigma", "tau"})]
    pair = ("tau", "sigma")
    block["E1"][pair] = (block["E1"][pair] + 2) % 4
    monkeypatch.setattr(klein_tables, "BRAIDING_TABLES", mutated)
    outcomes = {}
    for claim in CLAIMS:
        if claim.section in ("braidings", "cocycles", "coboundaries"):
            ok, _ = claim.run()
            outcomes[claim.claim_id] = ok
    assert outcomes["C07"] is False
    failing = {claim_id for claim_id, ok in outcomes.items() if not ok}
    assert failing == {"C07"}


def test_full_report_structure():
    report = run_claims(only="transport")
    assert len(report.entries) == 1
    assert report.passed
    data = report.to_json()
    assert data["claims"][0]["id"] == "C11"
    assert data["passed"] is True


def test_crashing_claim_is_reported_not_raised(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    claim = next(c for c in CLAIMS if c.claim_id == "C11")
    monkeypatch.setattr(claim, "fn", crash)
    assert claim.run() == (False, "RuntimeError: boom")
    report = run_claims(only="transport")
    assert not report.passed
    assert report.to_json()["claims"][0]["detail"] == "RuntimeError: boom"
