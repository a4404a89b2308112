"""CommitSequencer: executions happen strictly in admission-ticket order.

The runtime's pooled==serial guarantee rests on this component: however
workers interleave, commits leave the sequencer in ticket order, and a
request that will never execute releases its ticket so nobody waits on
it forever.
"""

from __future__ import annotations

import random
import sys
import threading
import time

from repro.runtime.commit import CommitSequencer


def _commit_concurrently(sequencer, seqs, order_log, lock):
    """One thread per seq, started in ``seqs`` order; each waits for its
    turn, records it, and advances."""

    def commit(seq):
        sequencer.wait_turn(seq)
        with lock:
            order_log.append(seq)
        sequencer.advance()

    # Daemon threads with one shared deadline: a sequencer that deadlocks
    # fails the test within seconds instead of hanging the interpreter.
    threads = [
        threading.Thread(target=commit, args=(seq,), daemon=True)
        for seq in seqs
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10.0
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads), "deadlock"


class TestTicketOrder:
    def test_concurrent_waiters_commit_in_ticket_order(self):
        sequencer = CommitSequencer()
        seqs = list(range(100, 132))
        tickets = [sequencer.issue(seq) for seq in seqs]
        assert tickets == list(range(32))
        # Some tickets are released concurrently with the waiters.
        released = set(seqs[3::5])
        waiting = [seq for seq in seqs if seq not in released]
        random.Random(5).shuffle(waiting)
        order, lock = [], threading.Lock()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many more thread switches
        try:
            releaser = threading.Thread(
                target=lambda: [sequencer.release(s) for s in released],
                daemon=True,
            )
            releaser.start()
            _commit_concurrently(sequencer, waiting, order, lock)
            releaser.join(timeout=10.0)
            assert not releaser.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert order == [seq for seq in seqs if seq not in released]
        assert sequencer.open_tickets() == 0

    def test_log_holds_ticket_seq_pairs_in_commit_order(self):
        sequencer = CommitSequencer()
        for seq in (7, 3, 9):
            sequencer.issue(seq)
        order, lock = [], threading.Lock()
        _commit_concurrently(sequencer, [9, 3, 7], order, lock)
        assert sequencer.log() == ((0, 7), (1, 3), (2, 9))

    def test_holds_is_false_after_wait_turn(self):
        sequencer = CommitSequencer()
        sequencer.issue(1)
        assert sequencer.holds(1)
        assert sequencer.wait_turn(1) == 0
        assert not sequencer.holds(1)
        sequencer.advance()
        assert not sequencer.holds(2)  # never issued

    def test_open_tickets_returns_to_zero(self):
        sequencer = CommitSequencer()
        for seq in range(5):
            sequencer.issue(seq)
        assert sequencer.open_tickets() == 5
        sequencer.release(3)
        assert sequencer.open_tickets() == 4
        order, lock = [], threading.Lock()
        _commit_concurrently(sequencer, [4, 2, 0, 1], order, lock)
        assert order == [0, 1, 2, 4]
        assert sequencer.open_tickets() == 0


class TestRelease:
    def test_ticket_released_before_its_turn_is_skipped(self):
        sequencer = CommitSequencer()
        for seq in (1, 2, 3):
            sequencer.issue(seq)
        sequencer.release(2)  # not yet its turn: ticket 0 is next
        order, lock = [], threading.Lock()
        _commit_concurrently(sequencer, [3, 1], order, lock)
        assert order == [1, 3]
        assert [seq for _, seq in sequencer.log()] == [1, 3]

    def test_ticket_released_at_its_turn_advances(self):
        sequencer = CommitSequencer()
        for seq in (1, 2):
            sequencer.issue(seq)
        reached = threading.Event()

        def second():
            sequencer.wait_turn(2)
            reached.set()
            sequencer.advance()

        waiter = threading.Thread(target=second, daemon=True)
        waiter.start()
        assert not reached.wait(0.05), "ticket 1 ran before ticket 0"
        sequencer.release(1)  # ticket 0 is up: releasing it passes the turn
        assert reached.wait(5.0)
        waiter.join(timeout=5.0)
        assert sequencer.log() == ((1, 2),)

    def test_release_without_a_ticket_is_a_no_op(self):
        sequencer = CommitSequencer()
        sequencer.issue(1)
        sequencer.wait_turn(1)
        sequencer.release(1)  # already consumed
        sequencer.release(42)  # never issued
        sequencer.advance()
        sequencer.issue(2)
        assert sequencer.wait_turn(2) == 1
