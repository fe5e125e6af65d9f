"""Resilience primitives: retry/backoff and circuit breaker, and their
integration into the framework's submit path."""

import pytest

from repro.core import Client, Framework, FrameworkConfig
from repro.errors import (
    ChaincodeNotFoundError,
    CircuitOpenError,
    FabricError,
    IdentityError,
    MVCCConflictError,
    RetryExhaustedError,
)
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.resilience import (
    Budget,
    CircuitBreaker,
    ResilienceHub,
    RetryPolicy,
    retry,
)
from repro.trust import SourceTier


@pytest.fixture(autouse=True)
def _fresh_registry():
    set_registry(MetricsRegistry())
    yield
    set_registry(MetricsRegistry())


class TestRetryPolicy:
    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.1)
        assert policy.backoff_s(2, 0.0) == pytest.approx(0.2)
        assert policy.backoff_s(3, 0.0) == pytest.approx(0.4)
        assert policy.backoff_s(4, 0.0) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(9, 0.0) == pytest.approx(0.5)

    def test_jitter_spans_the_configured_fraction(self):
        policy = RetryPolicy(base_delay_s=1.0, multiplier=1.0, jitter=0.5)
        assert policy.backoff_s(1, 0.0) == pytest.approx(0.5)   # floor
        assert policy.backoff_s(1, 1.0) == pytest.approx(1.0)   # ceiling
        assert policy.backoff_s(1, 0.5) == pytest.approx(0.75)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestRetry:
    def test_success_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise FabricError("transient")
            return "ok"

        assert retry(flaky, op="flaky") == "ok"
        assert calls["n"] == 3

    def test_exhaustion_raises_with_cause_chained(self):
        def always_fails():
            raise FabricError("down")

        with pytest.raises(RetryExhaustedError) as exc_info:
            retry(always_fails, policy=RetryPolicy(max_attempts=3), op="down")
        assert exc_info.value.attempts == 3
        assert isinstance(exc_info.value.__cause__, FabricError)

    def test_non_retryable_errors_propagate_immediately(self):
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("bug, not outage")

        with pytest.raises(ValueError):
            retry(boom, op="bug")
        assert calls["n"] == 1

    def test_should_retry_veto_reraises_original(self):
        def denied():
            raise IdentityError("who are you")

        with pytest.raises(IdentityError):
            retry(
                denied,
                should_retry=lambda exc: not isinstance(exc, IdentityError),
                op="veto",
            )

    def test_backoff_sequence_is_seed_deterministic(self):
        def run(seed):
            delays = []

            def fails():
                raise FabricError("x")

            with pytest.raises(RetryExhaustedError):
                retry(
                    fails,
                    policy=RetryPolicy(max_attempts=4),
                    op="det",
                    seed=seed,
                    sleep=delays.append,
                )
            return delays

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_budget_cuts_retries_short(self):
        clock = {"t": 0.0}

        def now():
            clock["t"] += 10.0  # every check burns 10s
            return clock["t"]

        def fails():
            raise FabricError("x")

        budget = Budget(5.0, now=now)
        with pytest.raises(RetryExhaustedError) as exc_info:
            retry(fails, policy=RetryPolicy(max_attempts=10), op="budget", budget=budget)
        assert exc_info.value.attempts < 10

    def test_happy_path_emits_no_metrics(self):
        retry(lambda: 42, op="quiet")
        snap = get_registry().snapshot()
        assert not any("retr" in name for name in snap.get("counters", {}))


class TestCircuitBreaker:
    def _breaker(self, **kw):
        clock = {"t": 0.0}
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("cooldown_s", 10.0)
        breaker = CircuitBreaker("dep", now=lambda: clock["t"], **kw)
        return breaker, clock

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._breaker()
        for _ in range(2):
            breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self._breaker()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.allow()  # never reached 3 consecutive

    def test_half_open_probe_after_cooldown_then_close(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        assert not breaker.allow()
        clock["t"] = 10.0
        assert breaker.allow()          # the single half-open probe
        assert not breaker.allow()      # no second probe
        breaker.record_success()
        assert breaker.allow()          # closed again

    def test_half_open_failure_reopens_and_restarts_cooldown(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["t"] = 10.0
        assert breaker.allow()
        breaker.record_failure()
        assert not breaker.allow()
        clock["t"] = 19.0               # cooldown restarted at t=10
        assert not breaker.allow()
        clock["t"] = 20.0
        assert breaker.allow()

    def test_call_wrapper_raises_circuit_open(self):
        breaker, _ = self._breaker(failure_threshold=1)
        with pytest.raises(FabricError):
            breaker.call(lambda: (_ for _ in ()).throw(FabricError("x")))
        with pytest.raises(CircuitOpenError):
            breaker.call(lambda: "never runs")

    def test_transitions_are_metered(self):
        breaker, clock = self._breaker()
        for _ in range(3):
            breaker.record_failure()
        clock["t"] = 10.0
        breaker.allow()
        breaker.record_success()
        counters = get_registry().snapshot()["counters"]
        assert counters['circuit_transitions_total{dep="dep",to="open"}'] == 1.0
        assert counters['circuit_transitions_total{dep="dep",to="half_open"}'] == 1.0
        assert counters['circuit_transitions_total{dep="dep",to="closed"}'] == 1.0


class TestHub:
    def test_breakers_are_cached_per_dependency(self):
        hub = ResilienceHub()
        assert hub.breaker("fabric") is hub.breaker("fabric")
        assert hub.breaker("fabric") is not hub.breaker("ipfs")

    def test_set_clock_reaches_existing_breakers(self):
        hub = ResilienceHub(failure_threshold=1, cooldown_s=5.0)
        breaker = hub.breaker("dep")
        clock = {"t": 0.0}
        hub.set_clock(lambda: clock["t"])
        breaker.record_failure()
        assert not breaker.allow()
        clock["t"] = 5.0
        assert breaker.allow()


class TestResilientInvoke:
    def _framework(self, **kw):
        framework = Framework(FrameworkConfig(**kw))
        identity = framework.register_source("res-cam", tier=SourceTier.TRUSTED)
        return framework, identity

    def test_mvcc_conflict_is_retried_to_success(self, monkeypatch):
        framework, identity = self._framework()
        real_invoke = framework.channel.invoke
        state = {"n": 0}

        def conflicted(*args, **kwargs):
            state["n"] += 1
            if state["n"] == 1:
                raise MVCCConflictError("lost the race")
            return real_invoke(*args, **kwargs)

        monkeypatch.setattr(framework.channel, "invoke", conflicted)
        result = framework.resilient_invoke(
            identity, "data_upload", "add_data", ["cid1", "a" * 64, "{}"],
        )
        assert result.ok
        counters = get_registry().snapshot()["counters"]
        assert counters['retries_total{op="data_upload.add_data"}'] == 1.0

    def test_deterministic_request_errors_are_not_retried(self, monkeypatch):
        framework, identity = self._framework()
        calls = {"n": 0}

        def missing(*args, **kwargs):
            calls["n"] += 1
            raise ChaincodeNotFoundError("no such chaincode")

        monkeypatch.setattr(framework.channel, "invoke", missing)
        with pytest.raises(ChaincodeNotFoundError):
            framework.resilient_invoke(identity, "nope", "fn", [])
        assert calls["n"] == 1

    def test_persistent_outage_opens_the_fabric_breaker(self, monkeypatch):
        framework, identity = self._framework(
            breaker_failure_threshold=4, retry_max_attempts=2
        )

        def down(*args, **kwargs):
            raise FabricError("ordering service unreachable")

        monkeypatch.setattr(framework.channel, "invoke", down)
        for _ in range(2):  # 2 submits x 2 attempts = 4 failures
            with pytest.raises(RetryExhaustedError):
                framework.resilient_invoke(identity, "kv", "put", ["k", "v"])
        with pytest.raises((CircuitOpenError, RetryExhaustedError)) as exc_info:
            framework.resilient_invoke(identity, "kv", "put", ["k", "v"])
        gauges = get_registry().snapshot()["gauges"]
        assert gauges['circuit_state{dep="fabric"}'] == 2.0  # OPEN
