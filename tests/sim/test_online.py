"""Tests for the online request scheduler."""

from __future__ import annotations

import math

import pytest

from repro.sim.online import (
    EntanglementRequest,
    OnlineScheduler,
    RequestOutcome,
)


@pytest.fixture
def corridor(params_q09):
    """Two user pairs forced through one 2-qubit switch: only one
    reservation can be active at a time."""
    from repro.network import NetworkBuilder

    builder = NetworkBuilder(params_q09)
    builder.user("a1", (0, 0)).user("a2", (2000, 0))
    builder.user("b1", (0, 500)).user("b2", (2000, 500))
    builder.switch("mid", (1000, 250), qubits=2)
    builder.fiber("a1", "mid", 1100).fiber("mid", "a2", 1100)
    builder.fiber("b1", "mid", 1100).fiber("mid", "b2", 1100)
    return builder.build()


class TestRequestValidation:
    def test_valid(self):
        EntanglementRequest("r", ("a", "b"), arrival=0, hold=2)

    def test_too_few_users(self):
        with pytest.raises(ValueError):
            EntanglementRequest("r", ("a",), arrival=0)

    def test_duplicate_users(self):
        with pytest.raises(ValueError):
            EntanglementRequest("r", ("a", "a"), arrival=0)

    def test_bad_arrival(self):
        with pytest.raises(ValueError):
            EntanglementRequest("r", ("a", "b"), arrival=-1)

    def test_bad_hold(self):
        with pytest.raises(ValueError):
            EntanglementRequest("r", ("a", "b"), arrival=0, hold=0)


class TestScheduler:
    def test_single_request_accepted(self, corridor):
        scheduler = OnlineScheduler(corridor, rng=0)
        result = scheduler.run(
            [EntanglementRequest("A", ("a1", "a2"), arrival=0)]
        )
        assert result.acceptance_ratio == 1.0
        outcome = result.outcome_for("A")
        assert outcome.accepted
        assert outcome.start_slot == 0

    def test_overlapping_requests_contend(self, corridor):
        """Both want the 2-qubit switch in slot 0: one must lose."""
        scheduler = OnlineScheduler(corridor, rng=0)
        result = scheduler.run(
            [
                EntanglementRequest("A", ("a1", "a2"), arrival=0, hold=5),
                EntanglementRequest("B", ("b1", "b2"), arrival=0, hold=5),
            ]
        )
        assert result.n_accepted == 1
        assert result.outcome_for("A").accepted  # arrival order wins
        assert not result.outcome_for("B").accepted

    def test_capacity_released_after_hold(self, corridor):
        """B arrives after A's reservation expires: both succeed."""
        scheduler = OnlineScheduler(corridor, rng=0)
        result = scheduler.run(
            [
                EntanglementRequest("A", ("a1", "a2"), arrival=0, hold=2),
                EntanglementRequest("B", ("b1", "b2"), arrival=2),
            ]
        )
        assert result.acceptance_ratio == 1.0
        assert result.outcome_for("B").start_slot == 2

    def test_waiting_request_admitted_on_release(self, corridor):
        """With max_wait, the blocked request gets in once A departs."""
        scheduler = OnlineScheduler(corridor, rng=0)
        result = scheduler.run(
            [
                EntanglementRequest("A", ("a1", "a2"), arrival=0, hold=3),
                EntanglementRequest(
                    "B", ("b1", "b2"), arrival=1, max_wait=10
                ),
            ]
        )
        assert result.acceptance_ratio == 1.0
        outcome = result.outcome_for("B")
        assert outcome.start_slot == 3
        assert outcome.waited == 2

    def test_wait_expiry_rejects(self, corridor):
        scheduler = OnlineScheduler(corridor, rng=0)
        result = scheduler.run(
            [
                EntanglementRequest("A", ("a1", "a2"), arrival=0, hold=50),
                EntanglementRequest("B", ("b1", "b2"), arrival=1, max_wait=3),
            ]
        )
        assert not result.outcome_for("B").accepted

    def test_peak_usage_tracked(self, corridor):
        scheduler = OnlineScheduler(corridor, rng=0)
        result = scheduler.run(
            [EntanglementRequest("A", ("a1", "a2"), arrival=0)]
        )
        assert result.peak_qubit_usage["mid"] == 2

    def test_peak_usage_never_exceeds_budget(self, medium_waxman):
        users = medium_waxman.user_ids
        requests = [
            EntanglementRequest(
                f"r{i}", tuple(users[i : i + 3]), arrival=i % 3, hold=2
            )
            for i in range(6)
        ]
        scheduler = OnlineScheduler(medium_waxman, rng=1)
        result = scheduler.run(requests)
        budgets = medium_waxman.residual_qubits()
        for switch, peak in result.peak_qubit_usage.items():
            assert peak <= budgets[switch]

    def test_more_qubits_never_lower_acceptance(self, corridor):
        requests = [
            EntanglementRequest("A", ("a1", "a2"), arrival=0, hold=5),
            EntanglementRequest("B", ("b1", "b2"), arrival=0, hold=5),
        ]
        tight = OnlineScheduler(corridor, rng=0).run(requests)
        roomy_net = corridor.with_switch_qubits(8)
        roomy = OnlineScheduler(roomy_net, rng=0).run(requests)
        assert roomy.n_accepted >= tight.n_accepted
        assert roomy.acceptance_ratio == 1.0

    def test_duplicate_names_rejected(self, corridor):
        scheduler = OnlineScheduler(corridor, rng=0)
        with pytest.raises(ValueError):
            scheduler.run(
                [
                    EntanglementRequest("X", ("a1", "a2"), arrival=0),
                    EntanglementRequest("X", ("b1", "b2"), arrival=0),
                ]
            )

    def test_unknown_method_rejected(self, corridor):
        with pytest.raises(ValueError):
            OnlineScheduler(corridor, method="optimal")

    def test_empty_stream(self, corridor):
        # Regression: an empty stream used to report a vacuous 100%
        # acceptance; both aggregates must be 0.0 with no requests.
        result = OnlineScheduler(corridor, rng=0).run([])
        assert result.acceptance_ratio == 0.0
        assert result.mean_accepted_rate == 0.0
        assert result.outcomes == ()

    def test_mean_accepted_rate(self, corridor):
        result = OnlineScheduler(corridor, rng=0).run(
            [EntanglementRequest("A", ("a1", "a2"), arrival=0)]
        )
        solution = result.outcome_for("A").solution
        assert math.isclose(result.mean_accepted_rate, solution.rate)

    def test_outcome_for_unknown(self, corridor):
        result = OnlineScheduler(corridor, rng=0).run([])
        with pytest.raises(KeyError):
            result.outcome_for("ghost")

    def test_conflict_free_method(self, medium_waxman):
        users = medium_waxman.user_ids
        scheduler = OnlineScheduler(medium_waxman, method="conflict_free", rng=0)
        result = scheduler.run(
            [EntanglementRequest("A", tuple(users[:4]), arrival=0)]
        )
        assert result.acceptance_ratio == 1.0


def _corridor_flood(n, max_wait=0):
    """*n* alternating user pairs arriving together at slot 0."""
    pairs = (("a1", "a2"), ("b1", "b2"))
    return [
        EntanglementRequest(
            f"req-{k}", pairs[k % 2], arrival=0, hold=2, max_wait=max_wait
        )
        for k in range(n)
    ]


class TestRejectionCounter:
    @pytest.mark.parametrize("retry", [False, True])
    def test_counts_every_rejected_outcome(self, corridor, retry):
        from repro.obs.metrics import collecting
        from repro.resilience.retry import FixedRetryPolicy

        policy = FixedRetryPolicy(delay=1, max_attempts=2) if retry else None
        scheduler = OnlineScheduler(corridor, rng=0, retry_policy=policy)
        with collecting() as registry:
            result = scheduler.run(_corridor_flood(6, max_wait=3))
        rejected = sum(o.disposition == "rejected" for o in result.outcomes)
        assert rejected > 0
        counters = registry.counters()
        assert counters["sim.online.rejected"] == rejected
        assert counters["sim.online.dispositions.rejected"] == rejected
        assert counters["sim.online.admitted"] == result.n_accepted


class TestUserValidation:
    """Bad groups fail before slot 0, whatever admission would do."""

    @staticmethod
    def _shed_all_but_first():
        from repro.admission import (
            AdmissionController,
            PolicyChain,
            TokenBucketLimiter,
        )

        return AdmissionController(
            policy=PolicyChain([TokenBucketLimiter(rate=0.01, capacity=1.0)])
        )

    def _requests(self, bad_users):
        # The bad request arrives last, after the only token is spent,
        # so an admission controller would shed it unrouted.
        return [
            EntanglementRequest("good", ("a1", "a2"), arrival=0),
            EntanglementRequest("bad", bad_users, arrival=5),
        ]

    @pytest.mark.parametrize("admission", [False, True])
    def test_unknown_node(self, corridor, admission):
        from repro.network.errors import UnknownNodeError

        scheduler = OnlineScheduler(
            corridor,
            rng=0,
            admission=self._shed_all_but_first() if admission else None,
        )
        with pytest.raises(UnknownNodeError):
            scheduler.run(self._requests(("a1", "ghost")))

    @pytest.mark.parametrize("admission", [False, True])
    def test_switch_is_not_a_user(self, corridor, admission):
        scheduler = OnlineScheduler(
            corridor,
            rng=0,
            admission=self._shed_all_but_first() if admission else None,
        )
        with pytest.raises(ValueError, match="request 'bad'.*'mid'"):
            scheduler.run(self._requests(("a1", "mid")))

    def test_admission_would_have_shed_the_bad_request(self, corridor):
        # The premise of the tests above: with a valid group in its
        # place, the controller sheds the late request without routing.
        scheduler = OnlineScheduler(
            corridor, rng=0, admission=self._shed_all_but_first()
        )
        result = scheduler.run(self._requests(("b1", "b2")))
        assert result.outcome_for("bad").disposition == "shed"
