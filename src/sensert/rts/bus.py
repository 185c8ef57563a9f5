"""In-process event bus: the shared message-box for all verticles.

There is one bus per server rather than one mailbox per actor; per-subscriber
isolation comes from each subscription's own :class:`~sensert.pipe.BoundedQueue`.
``publish`` is a plain synchronous enqueue and never executes subscriber code
inline, so its cost is independent of how slow any consumer is. A subscription
is a filter, an owner and its queue, and the queue's own counters are the bus
ledger: ``offered = delivered + dropped + pending``.

Subscriptions are indexed by filter in one :class:`~sensert.wire.TopicTree`,
so a publish costs O(levels + matches) whatever the number of subscriptions.
Each subscription receives envelopes in publish order; the order in which
different subscriptions receive one envelope follows the tree and is
unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .. import wire
from ..pipe import BoundedQueue, Overflow, now_ms


# Extensible vocabulary for derived events.
EVENT_TYPES: set[str] = {
    "pot-removed",
    "new-pot",
    "pot-poured",
    "pot-empty",
    "coffee-grinding",
    "coffee-level",
    "threshold-crossed",
    "threshold-cleared",
    "deadletter",
    "filer-error",
}


def register_event_type(name: str) -> None:
    EVENT_TYPES.add(name)


@dataclass(frozen=True)
class DerivedEvent:
    event_type: str
    device_id: str
    ts: int  # epoch ms
    attributes: dict[str, Any] = field(default_factory=dict)
    source_verticle: str = ""

    def __post_init__(self):
        if self.event_type not in EVENT_TYPES:
            raise ValueError(f"unregistered event type {self.event_type!r}")
        if self.ts <= 0:
            raise ValueError("event ts must be positive")

    def to_jsonable(self) -> dict[str, Any]:
        return {
            "event_type": self.event_type,
            "device_id": self.device_id,
            "ts": self.ts,
            "attributes": self.attributes,
            "source_verticle": self.source_verticle,
        }


@dataclass(frozen=True)
class BusEnvelope:
    address: str
    body: Any  # NormalizedMessage | DerivedEvent | DeadLetter
    published_at: int  # epoch ms
    seq: int  # strictly increasing per publisher
    publisher: str = "anonymous"


@dataclass
class SubscriptionPolicy:
    queue_capacity: int = 1024
    overflow: Overflow = "drop_oldest"


class Subscription:
    """One filter's queue, owned by one consumer; ``get``/``get_nowait`` are the queue's."""

    def __init__(self, filter_raw: str, policy: SubscriptionPolicy, owner: str = ""):
        self.filter = filter_raw
        self.filter_levels = wire.validate_filter(filter_raw)
        self.owner = owner
        self.queue: BoundedQueue[BusEnvelope] = BoundedQueue(policy.queue_capacity,
                                                             policy.overflow)
        self.get = self.queue.get
        self.get_nowait = self.queue.get_nowait

    def pending(self) -> int:
        return self.queue.pending


# Observer sees every accepted envelope, synchronously, before fan-out.
PublishObserver = Callable[[BusEnvelope], None]


class EventBus:
    def __init__(self, publish_observer: PublishObserver | None = None):
        self._subs: list[Subscription] = []  # subscribe order, for audit()
        self._tree: wire.TopicTree[Subscription] = wire.TopicTree()
        self._seq: dict[str, int] = {}
        self._observer = publish_observer
        self.published = 0

    def publish(self, address: str, body: Any, publisher: str = "anonymous") -> BusEnvelope:
        """Enqueue to every matching subscription; never waits on consumers."""
        addr_levels = wire.validate_topic(address)
        seq = self._seq.get(publisher, 0) + 1
        self._seq[publisher] = seq
        env = BusEnvelope(address=address, body=body, published_at=now_ms(),
                          seq=seq, publisher=publisher)
        self.published += 1
        if self._observer is not None:
            self._observer(env)
        for sub in self._tree.match(addr_levels):
            sub.queue.put(env)
        return env

    def subscribe(self, filter_raw: str, policy: SubscriptionPolicy | None = None,
                  owner: str = "") -> Subscription:
        sub = Subscription(filter_raw, policy or SubscriptionPolicy(), owner=owner)
        self._subs.append(sub)
        self._tree.add(sub.filter_levels, sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self._subs.remove(sub)
        except ValueError:
            return
        self._tree.remove(sub.filter_levels, sub)

    def subscriptions(self) -> list[Subscription]:
        return list(self._subs)

    def audit(self) -> list[dict]:
        """Per-subscription ledger: matched = delivered + drops + pending."""
        return [
            {"owner": s.owner, "filter": s.filter, "matched": s.queue.offered,
             "delivered": s.queue.delivered, "drops": s.queue.dropped,
             "stale_drops": 0,  # always 0: perfbench's named_drops still reads it
             "pending": s.queue.pending, "conserved": s.queue.conserved()}
            for s in self._subs
        ]
