"""Tests for the service registry (publication, withdrawal, churn events)."""

from __future__ import annotations

import pytest

from repro.errors import ServiceDescriptionError
from repro.qos.properties import RESPONSE_TIME
from repro.qos.values import QoSVector
from repro.services.description import ServiceDescription
from repro.services.registry import (
    EVENT_PUBLISHED,
    EVENT_UPDATED,
    EVENT_WITHDRAWN,
    ServiceRegistry,
)

PROPS = {"response_time": RESPONSE_TIME}


def svc(name, capability="task:X", **kw):
    return ServiceDescription(
        name=name,
        capability=capability,
        advertised_qos=QoSVector({"response_time": 100.0}, PROPS),
        **kw,
    )


class TestPublication:
    def test_publish_and_get(self):
        registry = ServiceRegistry()
        service = registry.publish(svc("a"))
        assert registry.get(service.service_id) is service
        assert len(registry) == 1
        assert service.service_id in registry

    def test_publish_all(self):
        registry = ServiceRegistry()
        registry.publish_all([svc("a"), svc("b")])
        assert len(registry) == 2

    def test_republish_replaces(self):
        registry = ServiceRegistry()
        original = svc("a", service_id="svc-1")
        registry.publish(original)
        refreshed = original.with_qos(
            QoSVector({"response_time": 50.0}, PROPS)
        )
        registry.publish(refreshed)
        assert len(registry) == 1
        assert registry.get("svc-1").qos("response_time") == 50.0

    def test_require_unknown_raises(self):
        with pytest.raises(ServiceDescriptionError):
            ServiceRegistry().require("svc-nope")


class TestWithdrawal:
    def test_withdraw(self):
        registry = ServiceRegistry()
        service = registry.publish(svc("a"))
        registry.withdraw(service.service_id)
        assert len(registry) == 0
        assert registry.get(service.service_id) is None

    def test_withdraw_unknown_raises(self):
        with pytest.raises(ServiceDescriptionError):
            ServiceRegistry().withdraw("svc-nope")

    def test_capability_index_cleaned(self):
        registry = ServiceRegistry()
        service = registry.publish(svc("a", "task:Pay"))
        registry.withdraw(service.service_id)
        assert registry.by_capability("task:Pay") == []
        assert "task:Pay" not in registry.capabilities()


class TestCapabilityIndex:
    def test_by_capability_exact(self):
        registry = ServiceRegistry()
        registry.publish_all([svc("a", "task:Pay"), svc("b", "task:Pay"),
                              svc("c", "task:Browse")])
        assert len(registry.by_capability("task:Pay")) == 2
        assert registry.capabilities() == {"task:Pay", "task:Browse"}

    def test_by_capability_is_syntactic(self):
        registry = ServiceRegistry()
        registry.publish(svc("a", "task:CardPayment"))
        # No semantic widening at the registry level.
        assert registry.by_capability("task:Payment") == []


class TestEvents:
    def test_event_sequence(self):
        registry = ServiceRegistry()
        events = []
        registry.subscribe(lambda kind, s: events.append((kind, s.name)))
        service = registry.publish(svc("a", service_id="svc-ev"))
        registry.publish(service)  # republish -> updated
        registry.withdraw("svc-ev")
        assert [e[0] for e in events] == [
            EVENT_PUBLISHED, EVENT_UPDATED, EVENT_WITHDRAWN
        ]

    def test_unsubscribe(self):
        registry = ServiceRegistry()
        events = []
        unsubscribe = registry.subscribe(lambda kind, s: events.append(kind))
        registry.publish(svc("a"))
        unsubscribe()
        registry.publish(svc("b"))
        assert len(events) == 1

    def test_unsubscribe_twice_is_harmless(self):
        registry = ServiceRegistry()
        unsubscribe = registry.subscribe(lambda kind, s: None)
        unsubscribe()
        unsubscribe()


class TestGeneration:
    def test_publish_bumps_generation(self):
        registry = ServiceRegistry()
        before = registry.generation
        registry.publish(svc("a"))
        assert registry.generation == before + 1

    def test_withdraw_bumps_generation(self):
        registry = ServiceRegistry()
        service = registry.publish(svc("a"))
        before = registry.generation
        registry.withdraw(service.service_id)
        assert registry.generation == before + 1

    def test_reads_do_not_bump_generation(self):
        registry = ServiceRegistry()
        registry.publish(svc("a", "task:Pay"))
        before = registry.generation
        registry.by_capability("task:Pay")
        registry.capabilities()
        registry.services()
        list(registry)
        registry.snapshot()
        assert registry.generation == before


class TestSnapshot:
    def test_snapshot_matches_registry_read_surface(self):
        registry = ServiceRegistry()
        registry.publish_all([svc("a", "task:Pay"), svc("b", "task:Pay"),
                              svc("c", "task:Browse")])
        snapshot = registry.snapshot()
        assert snapshot.generation == registry.generation
        assert len(snapshot) == len(registry)
        assert snapshot.capabilities() == registry.capabilities()
        assert {s.service_id for s in snapshot} == {
            s.service_id for s in registry
        }
        for capability in registry.capabilities():
            assert [s.service_id for s in snapshot.by_capability(capability)] \
                == [s.service_id for s in registry.by_capability(capability)]
        for service in registry:
            assert service.service_id in snapshot
            assert snapshot.get(service.service_id) is service

    def test_snapshot_isolated_from_later_churn(self):
        registry = ServiceRegistry()
        first = registry.publish(svc("a", "task:Pay"))
        snapshot = registry.snapshot()
        registry.publish(svc("b", "task:Pay"))
        registry.withdraw(first.service_id)
        # The snapshot still shows the world as it was at capture time.
        assert len(snapshot) == 1
        assert [s.name for s in snapshot.by_capability("task:Pay")] == ["a"]
        assert snapshot.generation < registry.generation

    def test_snapshot_get_unknown_returns_none(self):
        assert ServiceRegistry().snapshot().get("svc-nope") is None


class TestConcurrentChurn:
    """Regression: iteration used to race with publish/withdraw mutation."""

    def test_discovery_iteration_survives_concurrent_churn(self):
        import threading

        registry = ServiceRegistry()
        registry.publish_all(
            [svc(f"s{i}", f"task:C{i % 4}") for i in range(40)]
        )
        errors = []
        stop = threading.Event()

        def churner():
            step = 0
            try:
                while not stop.is_set():
                    service = registry.publish(
                        svc(f"churn{step}", f"task:C{step % 4}")
                    )
                    registry.withdraw(service.service_id)
                    step += 1
            except Exception as exc:  # pragma: no cover - the regression
                errors.append(exc)

        threads = [threading.Thread(target=churner) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(300):
                for capability in list(registry.capabilities()):
                    registry.by_capability(capability)
                list(registry)
                registry.services()
                snapshot = registry.snapshot()
                # A snapshot is internally consistent: every indexed id
                # resolves within the same snapshot.
                for cap in snapshot.capabilities():
                    for service in snapshot.by_capability(cap):
                        assert service.service_id in snapshot
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
        assert not errors, f"churn thread raised: {errors[0]!r}"

    def test_snapshot_never_sees_a_half_applied_write(self):
        import threading

        registry = ServiceRegistry()
        services = [svc(f"s{i}", "task:C") for i in range(3)]
        registry.publish_all(services)
        paused, resume = threading.Event(), threading.Event()

        class ParkingIndex(dict):
            # withdraw() has popped the id but not yet unindexed it when it
            # looks the capability up: park the writer there.
            def get(self, key, default=None):
                paused.set()
                resume.wait(timeout=10.0)
                return super().get(key, default)

        registry._by_capability = ParkingIndex(registry._by_capability)
        writer = threading.Thread(
            target=registry.withdraw, args=(services[0].service_id,)
        )
        snapshots = []
        reader = threading.Thread(
            target=lambda: snapshots.append(registry.snapshot())
        )
        writer.start()
        try:
            assert paused.wait(timeout=10.0)
            reader.start()
            reader.join(timeout=0.2)  # a snapshot taken mid-write, if allowed
        finally:
            resume.set()
            writer.join(timeout=10.0)
        reader.join(timeout=10.0)
        assert not writer.is_alive() and not reader.is_alive()
        (snapshot,) = snapshots
        for cap in snapshot.capabilities():
            for service in snapshot.by_capability(cap):
                assert service.service_id in snapshot
