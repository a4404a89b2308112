"""The worker-process pipe protocol over a real :mod:`multiprocessing` pipe.

``worker_main`` serves on one end of a ``Pipe`` from a thread, with a
stand-in for :class:`~repro.runtime.process_worker.WorkerState`, so each
reply kind — including the two fallbacks for replies that do not pickle —
is driven without spawning a process.  After every reply the channel must
still carry the next order.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.runtime import process_worker


class _LockedError(Exception):
    """An exception holding a lock, so it does not pickle."""

    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


class _EchoState:
    """Composes by echoing the order and the snapshot, or misbehaving."""

    def __init__(self, context):
        self.context = context

    def compose(self, order, snapshot):
        if order == "unpicklable-plans":
            return [threading.Lock()]
        if order == "unpicklable-error":
            raise _LockedError("holds a lock")
        if order == "error":
            raise ValueError("bad order")
        return [(order, snapshot)]


@pytest.fixture
def conn(monkeypatch):
    monkeypatch.setattr(process_worker, "WorkerState", _EchoState)
    parent, child = multiprocessing.Pipe(duplex=True)
    server = threading.Thread(
        target=process_worker.worker_main, args=(child,), daemon=True
    )
    server.start()
    parent.send(("context", "context"))
    parent.send(("snapshot", "snapshot"))
    yield parent
    parent.send(("exit",))
    server.join(timeout=10.0)
    assert not server.is_alive()
    parent.close()


def compose(conn, order):
    conn.send(("compose", order))
    assert conn.poll(10.0), "no reply"
    return conn.recv()


class TestReplies:
    def test_plans_round_trip(self, conn):
        assert compose(conn, "a") == ("ok", [("a", "snapshot")])
        assert compose(conn, "b") == ("ok", [("b", "snapshot")])

    def test_an_exception_travels_as_itself(self, conn):
        kind, exc = compose(conn, "error")
        assert kind == "error"
        assert isinstance(exc, ValueError)
        assert str(exc) == "bad order"

    def test_unpicklable_plans_arrive_as_an_error_reply(self, conn):
        kind, exc = compose(conn, "unpicklable-plans")
        assert kind == "error"
        assert isinstance(exc, TypeError)
        assert "pickle" in str(exc)
        assert compose(conn, "next") == ("ok", [("next", "snapshot")])

    def test_an_unpicklable_exception_arrives_opaque(self, conn):
        assert compose(conn, "unpicklable-error") == (
            "error_opaque", "_LockedError", "holds a lock",
        )
        assert compose(conn, "next") == ("ok", [("next", "snapshot")])
