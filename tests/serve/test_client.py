"""Client retry machinery: backoff, Retry-After floors, budgets."""

from __future__ import annotations

import random

import pytest

from repro.errors import (
    BadRequest,
    DeadlineExceeded,
    Degraded,
    Overloaded,
    RateLimited,
    RetryBudgetExceeded,
    ServeError,
    UnknownStore,
)
from repro.serve import RetryBudget, RetryPolicy, ServeClient
from repro.serve.client import _CODE_TO_ERROR


class TestRetryPolicy:
    def test_backoff_is_full_jitter(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_cap=2.0, rng=random.Random(7)
        )
        reference = random.Random(7)
        for attempt in range(4):
            cap = min(2.0, 0.1 * (2 ** attempt))
            expected = reference.uniform(0.0, cap)
            assert policy.sleep_for(attempt, None) == expected

    def test_backoff_caps(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_cap=0.5, rng=random.Random(1)
        )
        for attempt in range(20):
            assert policy.sleep_for(attempt, None) <= 0.5

    def test_retry_after_floors_sleep(self):
        policy = RetryPolicy(
            backoff_base=0.001, backoff_cap=0.002, rng=random.Random(1)
        )
        assert policy.sleep_for(0, 1.5) >= 1.5

    def test_retryable_classification(self):
        assert RetryPolicy.retryable(RateLimited("x"))
        assert RetryPolicy.retryable(Overloaded("x"))
        assert RetryPolicy.retryable(Degraded("x"))
        assert RetryPolicy.retryable(OSError("connection refused"))
        assert not RetryPolicy.retryable(BadRequest("x"))
        assert not RetryPolicy.retryable(UnknownStore("x"))
        assert not RetryPolicy.retryable(DeadlineExceeded("x"))


class TestRetryBudget:
    def test_reserve_allows_initial_retries(self):
        budget = RetryBudget(reserve=2.0)
        assert budget.try_withdraw()
        assert budget.try_withdraw()
        assert not budget.try_withdraw()

    def test_successes_earn_retries(self):
        budget = RetryBudget(budget_ratio=0.5, reserve=0.0)
        assert not budget.try_withdraw()
        budget.deposit()
        budget.deposit()
        assert budget.try_withdraw()
        assert not budget.try_withdraw()

    def test_balance_caps(self):
        budget = RetryBudget(budget_ratio=1.0, reserve=0.0, cap=3.0)
        for _ in range(100):
            budget.deposit()
        assert budget.balance == 3.0


class FlakyServer:
    """A tiny stand-in that fails N times then succeeds."""

    def __init__(self, failures, error):
        self.remaining = failures
        self.error = error
        self.calls = 0

    def __call__(self, method, path, body=None):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self.error
        return {"ok": True}


def patched_client(monkeypatch, fake, **kwargs):
    sleeps = []
    client = ServeClient(
        "http://127.0.0.1:1",
        policy=kwargs.pop(
            "policy",
            RetryPolicy(backoff_base=0.01, rng=random.Random(3)),
        ),
        sleep=sleeps.append,
        **kwargs,
    )
    monkeypatch.setattr(client, "_once", fake)
    return client, sleeps


class TestClientRetries:
    def test_retries_until_success(self, monkeypatch):
        fake = FlakyServer(2, Overloaded("full", retry_after=0.2))
        client, sleeps = patched_client(monkeypatch, fake)
        assert client._call("POST", "/x", {}) == {"ok": True}
        assert fake.calls == 3
        assert client.retries_total == 2
        # Retry-After floors every backoff sleep.
        assert all(s >= 0.2 for s in sleeps)

    def test_non_retryable_raises_immediately(self, monkeypatch):
        fake = FlakyServer(5, BadRequest("nope"))
        client, sleeps = patched_client(monkeypatch, fake)
        with pytest.raises(BadRequest):
            client._call("POST", "/x", {})
        assert fake.calls == 1
        assert not sleeps

    def test_max_attempts_exhausted_reraises(self, monkeypatch):
        fake = FlakyServer(99, Overloaded("full"))
        client, _ = patched_client(
            monkeypatch, fake,
            policy=RetryPolicy(
                max_attempts=3, backoff_base=0.01, rng=random.Random(3)
            ),
        )
        with pytest.raises(Overloaded):
            client._call("POST", "/x", {})
        assert fake.calls == 3

    def test_budget_exhaustion(self, monkeypatch):
        fake = FlakyServer(99, Overloaded("full"))
        client, _ = patched_client(
            monkeypatch, fake,
            policy=RetryPolicy(
                max_attempts=50, backoff_base=0.01, rng=random.Random(3)
            ),
            budget=RetryBudget(reserve=2.0),
        )
        with pytest.raises(RetryBudgetExceeded) as info:
            client._call("POST", "/x", {})
        # reserve of 2 → initial try + 2 retries, then the budget slams shut
        assert fake.calls == 3
        assert info.value.attempts == 3
        assert isinstance(info.value.last_error, Overloaded)

    def test_successes_replenish_budget(self, monkeypatch):
        budget = RetryBudget(budget_ratio=0.5, reserve=0.0)
        ok = FlakyServer(0, None)
        client, _ = patched_client(monkeypatch, ok, budget=budget)
        client._call("POST", "/x", {})
        client._call("POST", "/x", {})
        assert budget.balance == 1.0

    def test_idempotency_key_reused_across_retries(self, monkeypatch):
        bodies = []

        def fake(method, path, body=None):
            bodies.append(dict(body))
            if len(bodies) < 3:
                raise Overloaded("full")
            return {"duplicate": False, "segment": "s"}

        client, _ = patched_client(monkeypatch, fake)
        client.append("fleet", [[0, 1]])
        keys = {b["idempotency_key"] for b in bodies}
        assert len(bodies) == 3
        assert len(keys) == 1          # same key on every attempt


class TestErrorDecoding:
    def test_code_map_covers_serve_errors(self):
        assert _CODE_TO_ERROR["serve.rate-limited"] is RateLimited
        assert _CODE_TO_ERROR["serve.overloaded"] is Overloaded
        assert _CODE_TO_ERROR["serve.degraded-unavailable"] is Degraded
        assert _CODE_TO_ERROR["serve.unknown-store"] is UnknownStore
        assert _CODE_TO_ERROR["serve.bad-request"] is BadRequest
        # Deadline errors are reconstructed specially (they carry
        # accounting fields, not retry_after) — not via the code map.
        assert "query.deadline-exceeded" not in _CODE_TO_ERROR

    def test_decode_reconstructs_deadline_accounting(self, server):
        """Against a live server: the 504 body rebuilds the exception."""
        from repro.store import faults
        from repro.store.faults import FaultPlan

        client = ServeClient(
            server.url, timeout=10.0, policy=RetryPolicy(max_attempts=1)
        )
        with faults.inject(FaultPlan(
            "serve.handle", action="delay", delay_s=0.12,
        )):
            with pytest.raises(DeadlineExceeded) as info:
                client.agg("fleet", deadline_ms=40.0)
        assert info.value.budget_ms == 40.0
        assert info.value.elapsed_ms is not None
        assert info.value.elapsed_ms >= 40.0

    def test_engine_side_4xx_is_not_retried(self, server):
        """A ``query.invalid`` 400 fails fast and leaves the budget alone."""
        client = ServeClient(server.url, timeout=10.0)
        attempts = []
        real_once = client._once

        def once(*args):
            attempts.append(args)
            return real_once(*args)

        client._once = once
        balance = client.budget.balance
        with pytest.raises(ServeError) as info:
            client.agg("fleet", level=99)
        assert (info.value.code, info.value.status) == ("query.invalid", 400)
        assert len(attempts) == 1
        assert client.retries_total == 0
        assert client.budget.balance == balance
