"""Admission control: per-actor token buckets and a bounded queue.

A hospital records service degrades *predictably* or it becomes a
clinical hazard: an unbounded backlog turns every read into a timeout
right when an emergency department is hammering the API.  So the front
door admits work through two gates, both expressed as policy decisions
over measured facts (``SERVICE_RULES``):

* **rate** — each authenticated actor owns a token bucket
  (``capacity`` burst, ``refill_per_second`` sustained).  An empty
  bucket is the fact ``rate_exceeded`` → ``deny:service:rate-limited``
  → HTTP 429 with ``Retry-After``.
* **load** — at most ``queue_limit`` requests may be in flight.  Above
  that, ``queue_full`` → ``deny:service:queue-full`` → HTTP 503; a
  draining server rejects everything new with ``draining`` →
  ``deny:service:draining``.

The controller only *measures*; :func:`AdmissionController.admit`
returns the :class:`~repro.policy.model.Decision` so the dispatcher can
audit the denial with its rule id and trace like any other refusal.
"""

from __future__ import annotations

import threading

from repro.policy.engine import PolicyEngine
from repro.policy.model import Decision, PolicyContext
from repro.policy.rules import SERVICE_RULES
from repro.util.clock import Clock
from repro.util.metrics import METRICS


class TokenBucket:
    """Classic token bucket: ``capacity`` burst, ``refill_per_second``
    sustained rate, lazily refilled on each take."""

    def __init__(self, capacity: float, refill_per_second: float, now: float) -> None:
        self.capacity = capacity
        self.refill_per_second = refill_per_second
        self.tokens = capacity
        self.updated_at = now

    def take(self, now: float) -> bool:
        """Consume one token if available (refills lazily first)."""
        if now > self.updated_at:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self.updated_at) * self.refill_per_second,
            )
            self.updated_at = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self, now: float) -> float:
        """Seconds until one token will be available (for Retry-After)."""
        if self.tokens >= 1.0:
            return 0.0
        if self.refill_per_second <= 0:
            return 60.0
        return (1.0 - self.tokens) / self.refill_per_second


class AdmissionController:
    """The two load gates, folded into one policy decision per request."""

    def __init__(
        self,
        clock: Clock,
        *,
        queue_limit: int,
        rate_capacity: float,
        rate_refill_per_second: float,
    ) -> None:
        self._clock = clock
        self._queue_limit = queue_limit
        self._rate_capacity = rate_capacity
        self._rate_refill = rate_refill_per_second
        self._policy = PolicyEngine(SERVICE_RULES)
        self._lock = threading.Lock()
        self._buckets: dict[str, TokenBucket] = {}
        self._in_flight = 0
        self._draining = False

    # -- measurement --------------------------------------------------------

    def _bucket(self, actor_id: str, now: float) -> TokenBucket:
        # lock held by caller
        bucket = self._buckets.get(actor_id)
        if bucket is None:
            bucket = TokenBucket(self._rate_capacity, self._rate_refill, now)
            self._buckets[actor_id] = bucket
        return bucket

    # -- the gate -----------------------------------------------------------

    def admit(self, actor_id: str) -> tuple[Decision, float]:
        """Decide admission for one authenticated request.

        Returns ``(decision, retry_after_seconds)``.  On allow the
        caller MUST pair this with exactly one :meth:`release`.  Denials
        never consume queue slots or tokens beyond the one measured.
        """
        now = self._clock.now()
        with self._lock:
            queue_full = self._in_flight >= self._queue_limit
            # Only charge the bucket when the queue has room — a 503'd
            # request shouldn't also burn the actor's rate budget.
            rate_ok = True
            retry_after = 0.0
            if not self._draining and not queue_full:
                bucket = self._bucket(actor_id, now)
                rate_ok = bucket.take(now)
                if not rate_ok:
                    retry_after = bucket.retry_after(now)
            decision = self._policy.decide(
                actor_id,
                "admit_request",
                context=PolicyContext(
                    facts={
                        "draining": self._draining,
                        "queue_full": queue_full,
                        "rate_exceeded": not rate_ok,
                    }
                ),
            )
            if decision.allowed:
                self._in_flight += 1
                METRICS.record_max("service_queue_peak", self._in_flight)
        return decision, retry_after

    def release(self) -> None:
        """Return the queue slot taken by an admitted request."""
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)

    # -- lifecycle / introspection ------------------------------------------

    def start_draining(self) -> None:
        """Stop admitting; in-flight work keeps its slots until done."""
        with self._lock:
            self._draining = True

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    @property
    def policy(self) -> PolicyEngine:
        """The service ruleset's engine; the session broker decides with
        this same one (decisions over facts never touch its cache)."""
        return self._policy

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def queue_limit(self) -> int:
        return self._queue_limit

    def idle(self) -> bool:
        with self._lock:
            return self._in_flight == 0
