"""Tests for the controller's round-progress observation hooks."""

from repro.adaptive import PrecisionTarget, run_adaptive, set_round_observer
from repro.adaptive.controller import MetricSpec, round_observer


def _proportion_kernel(task):
    """A deterministic half-successes chunk (module level: picklable)."""
    index, count, _seed = task
    return index, count, (count // 2, count)


def _target(**overrides):
    mapping = {"abs_hw": 0.02, "budget": 16384, "initial": 256}
    mapping.update(overrides)
    return PrecisionTarget.from_mapping(mapping)


def _spec(name="coin"):
    return MetricSpec(name=name, kernel=_proportion_kernel, kind="proportion")


class TestOnRound:
    def test_on_round_sees_every_round_with_monotone_state(self):
        rounds = []
        report = run_adaptive(
            [_spec()], _target(), rng=0, on_round=rounds.append
        )
        assert len(rounds) == report.rounds >= 1
        round_numbers = [payload["round"] for payload in rounds]
        assert round_numbers == list(range(1, len(rounds) + 1))
        replications = [
            payload["metrics"]["coin"]["replications"] for payload in rounds
        ]
        assert replications == sorted(replications)
        final = rounds[-1]["metrics"]["coin"]
        assert final["replications"] == report.metrics["coin"].replications
        assert final["converged"] == report.metrics["coin"].converged
        assert final["half_width"] <= final["threshold"]

    def test_payload_shape(self):
        rounds = []
        run_adaptive([_spec()], _target(), rng=0, on_round=rounds.append)
        payload = rounds[0]
        assert set(payload) == {"round", "metrics"}
        metric = payload["metrics"]["coin"]
        assert set(metric) == {
            "replications",
            "mean",
            "half_width",
            "threshold",
            "converged",
        }


class TestAmbientObserver:
    def test_observer_receives_rounds_and_restores(self):
        seen = []
        previous = set_round_observer(seen.append)
        try:
            assert previous is None
            run_adaptive([_spec()], _target(), rng=0)
        finally:
            restored = set_round_observer(previous)
        assert restored is not None
        assert round_observer() is None
        assert seen and seen[0]["round"] == 1

    def test_observer_does_not_change_results(self):
        baseline = run_adaptive([_spec()], _target(), rng=0)
        previous = set_round_observer(lambda payload: None)
        try:
            observed = run_adaptive([_spec()], _target(), rng=0)
        finally:
            set_round_observer(previous)
        assert observed.metrics["coin"].replications == baseline.metrics["coin"].replications
        assert (
            observed.metrics["coin"].estimate.mean == baseline.metrics["coin"].estimate.mean
        )

    def test_both_hooks_fire_together(self):
        ambient, explicit = [], []
        previous = set_round_observer(ambient.append)
        try:
            run_adaptive(
                [_spec()], _target(), rng=0, on_round=explicit.append
            )
        finally:
            set_round_observer(previous)
        assert ambient == explicit
