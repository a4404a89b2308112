"""Execution backends: where a runtime's composition work actually runs.

:class:`~repro.runtime.runtime.MiddlewareRuntime` owns admission, ordered
commit, coalescing and supervision; *where* the CPU-bound composition step
(discovery + QASSA selection) executes is delegated through the
:class:`ExecutionBackend` protocol, selected by
``RuntimeConfig(backend="thread" | "process")``:

* :class:`ThreadBackend` — composition runs inline on the runtime's worker
  threads.  Cheapest dispatch, but pure-Python selection serialises on
  the GIL.
* :class:`ProcessBackend` — composition is shipped to a pool of spawned
  worker processes, one pipe channel each.  Each channel keeps the
  :class:`~repro.services.registry.RegistrySnapshot` it last shipped, of
  which its worker holds a copy, and every message on it is pickled
  against that snapshot
  (:func:`~repro.runtime.process_worker.dumps`): a worker is sent a new
  snapshot once per registry generation, carrying in full only the
  services the old one did not hold, and its replies name services by id,
  so returned plans arrive on the parent's own service objects.  Workers
  are re-primed with the task ontology whenever a request's snapshot
  carries a newer ontology generation than the one the worker last
  received; the runtime's ordered commit (by admission ticket) keeps
  pooled==serial byte-identity.  Cross-layer estimation reads live
  device/link state a worker process cannot see, so this backend refuses
  it with :class:`~repro.errors.UnsupportedBackendFeatureError` at
  construction.

Both compose through :class:`~repro.runtime.process_worker.WorkerState`
— the middleware's own, which its serial submits and every worker thread
share, or one per worker process — so they differ only in where QASSA
runs.  Both are driven *by the runtime's worker threads*: a thread either
composes inline (thread backend) or blocks on its worker process's reply
(process backend — the pipe wait releases the GIL, which is where the
parallelism comes from).  A worker process that dies mid-compose surfaces
as :class:`~repro.errors.WorkerProcessCrash`; the backend respawns the
process and the runtime requeues the request under its original
admission ticket, exactly like an injected transient fault.
"""

from __future__ import annotations

import multiprocessing
import queue
from typing import TYPE_CHECKING, List, Optional, Protocol, runtime_checkable

from repro.errors import UnsupportedBackendFeatureError, WorkerProcessCrash
from repro.composition.selection import CompositionPlan
from repro.runtime.process_worker import dumps, loads, worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.handle import RunSpec
    from repro.runtime.runtime import MiddlewareRuntime
    from repro.services.registry import RegistrySnapshot

#: Valid ``RuntimeConfig.backend`` names, in documentation order.
BACKEND_CHOICES = ("thread", "process")


@runtime_checkable
class ExecutionBackend(Protocol):
    """Owner of worker lifecycle, request dispatch and result transport.

    The runtime calls :meth:`start` before spawning its worker threads,
    routes every composition through :meth:`compose` (concurrently, from
    many threads), and calls :meth:`stop` after those threads have been
    joined.  Implementations must make :meth:`stop` idempotent and safe
    to call without a prior :meth:`start`.
    """

    name: str

    def start(self) -> None:
        """Bring up whatever executes compositions (processes, pools...)."""
        ...

    def stop(self, timeout: float) -> int:
        """Tear down; returns how many workers could not be reaped."""
        ...

    def compose(
        self, spec: "RunSpec", snapshot: "RegistrySnapshot"
    ) -> List[CompositionPlan]:
        """Compose one request against one snapshot (thread-safe)."""
        ...


class ThreadBackend:
    """Inline execution on the runtime's own worker threads, all composing
    through the middleware's :class:`WorkerState`, which its serial
    submits use too: one pool memo (``runtime.batcher``) and one selection
    cache, so a pool or weight-free local stage one path computed serves
    the others."""

    name = "thread"

    def __init__(self, runtime: "MiddlewareRuntime") -> None:
        self.runtime = runtime
        self._state = runtime.middleware.worker_state

    def start(self) -> None:
        pass  # worker threads are the executors; the runtime spawns them

    def stop(self, timeout: float) -> int:
        return 0

    def compose(self, spec, snapshot) -> List[CompositionPlan]:
        return self._state.compose(spec, snapshot)


class _WorkerChannel:
    """One worker process plus the parent's pipe end to it."""

    __slots__ = ("process", "conn", "snapshot", "ontology_generation")

    def __init__(self, process, conn, ontology_generation: int) -> None:
        self.process = process
        self.conn = conn
        #: The snapshot last shipped, which the worker holds a copy of;
        #: None until the first ships.
        self.snapshot: "Optional[RegistrySnapshot]" = None
        #: The task ontology generation the worker was last primed with.
        self.ontology_generation = ontology_generation

    def send(self, message) -> None:
        """Send ``message`` pickled against the worker's snapshot."""
        self.conn.send_bytes(dumps(message, self.snapshot))

    def recv(self):
        """The worker's next reply, its services resolved to ours."""
        return loads(self.conn.recv_bytes(), self.snapshot)


class ProcessBackend:
    """A pool of spawned worker processes, one duplex pipe each.

    Channels live in a queue: a runtime worker thread checks one out,
    re-primes the worker if its task ontology is older than the
    snapshot's stamp, ships the snapshot (pickled against the one it
    replaces) if the worker's registry view is stale, sends the compose
    order, blocks on the reply (GIL released), and checks the channel
    back in.  The ``spawn`` start method keeps children free of inherited
    locks/threads, at the price of an interpreter start per worker —
    amortised over the runtime's lifetime.
    """

    name = "process"

    def __init__(self, runtime: "MiddlewareRuntime") -> None:
        if runtime.middleware.estimator is not None:
            # Explicit and loud, never a silent no-op.
            raise UnsupportedBackendFeatureError(
                "cross-layer estimation is not supported on the process "
                "backend: estimated QoS depends on live device/link state "
                "worker processes cannot observe; use backend='thread'"
            )
        self.runtime = runtime
        # Pickled at every send, so a re-prime ships the current ontology.
        self._context = runtime.middleware.worker_state.context
        self._ctx = multiprocessing.get_context("spawn")
        self._channels: List[_WorkerChannel] = []
        self._pool: "queue.Queue[_WorkerChannel]" = queue.Queue()
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for _ in range(self.runtime.config.workers):
            self._pool.put(self._spawn())

    def stop(self, timeout: float) -> int:
        if self._stopped:
            return 0
        self._stopped = True
        for channel in self._channels:
            try:
                channel.send(("exit",))
            except (OSError, ValueError):
                pass  # already dead; reaped below
        leaked = 0
        for channel in self._channels:
            channel.process.join(timeout=timeout)
            if channel.process.is_alive():
                channel.process.terminate()
                channel.process.join(timeout=1.0)
            if channel.process.is_alive():
                leaked += 1
            try:
                channel.conn.close()
            except OSError:
                pass
        self._channels.clear()
        return leaked

    # ------------------------------------------------------------------
    def compose(self, spec, snapshot) -> List[CompositionPlan]:
        channel = self._pool.get()
        broken = False
        try:
            if channel.ontology_generation < snapshot.ontology_generation:
                channel.send(("context", self._context))
                channel.ontology_generation = snapshot.ontology_generation
            shipped = channel.snapshot
            if shipped is None or shipped.generation != snapshot.generation:
                channel.send(("snapshot", snapshot))
                channel.snapshot = snapshot
            channel.send(("compose", spec))
            reply = channel.recv()
        except (EOFError, OSError) as exc:
            broken = True
            raise WorkerProcessCrash(
                f"worker process pid={channel.process.pid} died mid-compose "
                f"({type(exc).__name__}); respawned — request will be "
                f"requeued under its original ticket if the budget allows"
            ) from None
        finally:
            if broken:
                self._replace(channel)
            else:
                self._pool.put(channel)
        kind = reply[0]
        if kind == "ok":
            plans = reply[1]
            for plan in plans:
                # Execution and plan-key identity need the parent's task
                # and request; the services already are the parent's.
                plan.task, plan.request = spec.request.task, spec.request
            return plans
        if kind == "error":
            raise reply[1]
        raise WorkerProcessCrash(
            f"worker process raised an untransportable {reply[1]}: {reply[2]}"
        )

    # ------------------------------------------------------------------
    def _spawn(self) -> _WorkerChannel:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn,),
            name="repro-compose-worker",
            daemon=True,  # backstop: never outlive the parent interpreter
        )
        process.start()
        child_conn.close()  # the child holds its own copy
        # Read before the context is pickled: an axiom in between costs
        # one redundant re-prime, never a stale worker.
        channel = _WorkerChannel(
            process, parent_conn, self.runtime.snapshots.ontology_generation
        )
        channel.send(("context", self._context))
        self._channels.append(channel)
        return channel

    def _replace(self, dead: _WorkerChannel) -> None:
        """Reap a dead worker and put a fresh one back in the pool."""
        try:
            dead.conn.close()
        except OSError:
            pass
        dead.process.join(timeout=1.0)
        if dead in self._channels:
            self._channels.remove(dead)
        self.runtime.observability.counter(
            "runtime_process_respawns_total"
        ).inc()
        if not self._stopped:
            self._pool.put(self._spawn())


def build_backend(runtime: "MiddlewareRuntime") -> ExecutionBackend:
    """The backend instance for ``runtime.config.backend``.

    Name validation happened in ``RuntimeConfig.__post_init__``; this
    keeps a defensive error for configs built by other means.
    """
    name = runtime.config.backend
    if name == "thread":
        return ThreadBackend(runtime)
    if name == "process":
        return ProcessBackend(runtime)
    raise ValueError(
        f"unknown execution backend {name!r}; "
        f"valid choices: {', '.join(BACKEND_CHOICES)}"
    )
