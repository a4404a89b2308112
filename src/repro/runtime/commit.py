"""Ordered commit: executions happen strictly in admission order.

Composition in the runtime is concurrent, but executions mutate the
environment's simulated clock and RNG, so they must happen in the order a
serial run would perform them.  Tickets are keyed by the handle's
monotonic ``seq``, never by ``id()``, which the allocator reuses after
garbage collection.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Set, Tuple


class CommitSequencer:
    """Admission tickets, redeemed strictly in the order they were issued.

    :meth:`issue` hands out a ticket at admission.  The ticket is then
    either redeemed — :meth:`wait_turn`, execute, :meth:`advance` — or
    given up with :meth:`release` by a request that will never execute;
    the sequence skips released tickets, so they never stall the requests
    behind them.  Thread-safe.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next_ticket = 0
        self._next_commit = 0
        self._tickets: Dict[int, int] = {}  # handle seq -> ticket
        self._released: Set[int] = set()
        self._log: List[Tuple[int, int]] = []  # (ticket, seq)

    def issue(self, seq: int) -> int:
        """Give request ``seq`` the next ticket; returns the ticket."""
        with self._cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            self._tickets[seq] = ticket
            return ticket

    def holds(self, seq: int) -> bool:
        """Whether request ``seq`` holds a ticket it has not yet redeemed.

        Once :meth:`wait_turn` consumed the ticket the request is
        committing, and re-running it could duplicate environment side
        effects — the runtime no longer requeues it after a crash.
        """
        with self._cond:
            return seq in self._tickets

    def wait_turn(self, seq: int) -> int:
        """Block until ``seq``'s ticket is next, then consume and log it.

        Returns the ticket.  The caller owns the commit turn until it
        calls :meth:`advance`.
        """
        with self._cond:
            ticket = self._tickets[seq]
            while self._next_commit != ticket:
                self._cond.wait()
            del self._tickets[seq]
            self._log.append((ticket, seq))
            return ticket

    def advance(self) -> None:
        """End the current commit turn and pass it to the next ticket."""
        with self._cond:
            self._next_commit += 1
            self._skip_released()

    def release(self, seq: int) -> None:
        """Give up ``seq``'s ticket without committing.

        A no-op when ``seq`` holds no ticket (it never took one, already
        committed, or released it before).
        """
        with self._cond:
            ticket = self._tickets.pop(seq, None)
            if ticket is None:
                return
            self._released.add(ticket)
            self._skip_released()

    def log(self) -> Tuple[Tuple[int, int], ...]:
        """``(ticket, seq)`` pairs in the order commits happened."""
        with self._cond:
            return tuple(self._log)

    def open_tickets(self) -> int:
        """Tickets issued but neither committed nor released."""
        with self._cond:
            return len(self._tickets)

    def _skip_released(self) -> None:
        while self._next_commit in self._released:
            self._released.discard(self._next_commit)
            self._next_commit += 1
        self._cond.notify_all()
