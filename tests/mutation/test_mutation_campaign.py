"""The sandboxed campaign runner: kill semantics, caching, resume.

These tests execute real pytest subprocesses against a nine-mutant toy
program, so the module costs a few seconds of wall clock — the price of
testing the harness for real rather than through mocks.
"""

from __future__ import annotations

import pytest

from repro.errors import ModelError
from repro.mutation import (
    DetectionData,
    MutantOutcome,
    MutationCampaign,
    load_outcomes,
)


def test_campaign_kill_semantics(tiny_target, campaign_store):
    report = MutationCampaign(tiny_target, campaign_store, timeout=30.0).run()
    assert report.total == 9
    assert report.n_tests == 3
    assert report.executed == 9
    assert report.cached == 0
    # sign()'s guards and returns are killed; shift() is untested and the
    # weakened first guard (x > 1) is never probed, so three survive
    by_id = {o.mutant_id: o for o in report.outcomes}
    survived = sorted(o.mutant_id for o in report.outcomes if o.status == "survived")
    assert survived == ["m001", "m007", "m008"]
    assert report.killed == 6
    assert report.survived == 3
    assert report.mutation_score == pytest.approx(6 / 9)
    for outcome in report.outcomes:
        assert outcome.n_tests == 3
        assert set(outcome.tests) == set(by_id["m000"].tests)
        if outcome.status == "survived":
            assert outcome.detected == 0
            assert all(v == "passed" for v in outcome.tests.values())
        else:
            assert outcome.detected >= 1
    # the per-test kill matrix is meaningful: the positive-branch return
    # constant is caught by exactly the positive test
    m002 = by_id["m002"]
    detecting = sorted(n for n, v in m002.tests.items() if v != "passed")
    assert len(detecting) == 1
    assert "test_positive" in detecting[0]


def test_rerun_is_a_pure_cache_hit(tiny_target, campaign_store):
    campaign = MutationCampaign(tiny_target, campaign_store, timeout=30.0)
    first = campaign.run()
    keys_after_first = {r["key"] for r in campaign_store.records()}
    second = MutationCampaign(tiny_target, campaign_store, timeout=30.0).run()
    assert second.executed == 0
    assert second.cached == first.total
    # exactly-once at the store level: the rerun added no records, and
    # the store holds one record per mutant plus the baseline
    assert {r["key"] for r in campaign_store.records()} == keys_after_first
    assert len(keys_after_first) == first.total + 1
    # cached outcomes are byte-for-byte the originals
    assert [o.to_payload() for o in second.outcomes] == [
        o.to_payload() for o in first.outcomes
    ]


def test_pilot_campaign_outcomes_are_cache_hits_for_the_full_one(
    tiny_target, campaign_store
):
    pilot = MutationCampaign(
        tiny_target, campaign_store, timeout=30.0, max_mutants=3, seed=5
    )
    pilot_report = pilot.run()
    assert pilot_report.total == 3
    assert pilot_report.executed == 3
    full = MutationCampaign(tiny_target, campaign_store, timeout=30.0)
    done, pending = full.partition()
    assert sorted(done) == sorted(o.mutant_id for o in pilot_report.outcomes)
    assert len(pending) == 6
    report = full.run()
    assert report.cached == 3
    assert report.executed == 6


def test_timeout_mutants_count_as_fully_detected(loop_target, campaign_store):
    report = MutationCampaign(loop_target, campaign_store, timeout=5.0).run()
    assert report.total == 4
    assert report.timeouts == 1
    assert report.survived == 0
    timed_out = [o for o in report.outcomes if o.status == "timeout"]
    assert len(timed_out) == 1
    assert timed_out[0].detected == timed_out[0].n_tests == 2
    assert set(timed_out[0].tests.values()) == {"timeout"}
    # a diverging mutant is a detected mutant
    assert report.mutation_score == 1.0


def test_load_outcomes_roundtrip_and_sha_guard(
    tiny_target, campaign_store, make_target, tiny_tests_source
):
    report = MutationCampaign(tiny_target, campaign_store, timeout=30.0).run()
    outcomes = load_outcomes(campaign_store, tiny_target)
    assert [o.mutant_id for o in outcomes] == sorted(
        o.mutant_id for o in report.outcomes
    )
    assert all(isinstance(o, MutantOutcome) for o in outcomes)
    # feeding the estimators straight from the store works
    data = DetectionData.from_outcomes(outcomes)
    assert data.n_mutants == report.total
    assert data.n_tests == report.n_tests
    # records for a different program content are never served
    edited = make_target(
        "tiny",  # same campaign name, different source
        "def sign(x):\n    return 0 - -x\n",
        tiny_tests_source,
        subdir="tiny2",
    )
    assert load_outcomes(campaign_store, edited) == []


def test_red_baseline_refuses_to_measure(make_target, campaign_store):
    target = make_target(
        "red",
        "def f():\n    return 1 + 1\n",
        "from program import f\n\n\ndef test_wrong():\n    assert f() == 3\n",
    )
    with pytest.raises(ModelError, match="not green"):
        MutationCampaign(target, campaign_store, timeout=30.0).run()
    # nothing was measured, nothing was stored
    assert len(campaign_store.records()) == 0


def test_invalid_timeout_rejected(tiny_target, campaign_store):
    with pytest.raises(ModelError, match="timeout"):
        MutationCampaign(tiny_target, campaign_store, timeout=0.0)


def test_progress_hook_sees_every_mutant(tiny_target, campaign_store):
    seen = []
    MutationCampaign(tiny_target, campaign_store, timeout=30.0).run(
        on_mutant=lambda outcome, cached: seen.append((outcome.mutant_id, cached))
    )
    assert [mutant_id for mutant_id, _ in seen] == [
        f"m{i:03d}" for i in range(9)
    ]
    assert not any(cached for _, cached in seen)
