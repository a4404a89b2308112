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
  worker processes, one pipe channel each.  Workers deserialise a pickled
  :class:`~repro.services.registry.RegistrySnapshot` once per registry
  generation and recompose on it; returned plans are rehydrated onto the
  parent's own service objects, and the runtime's ordered commit (by
  admission ticket) keeps pooled==serial byte-identity.  Cross-layer
  estimation reads live device/link state a worker process cannot see,
  so this backend refuses it with
  :class:`~repro.errors.UnsupportedBackendFeatureError` at construction.

Both compose through one
:class:`~repro.runtime.process_worker.WorkerState` per worker, so they
differ only in where QASSA runs.  Both are driven *by the runtime's worker
threads*: a thread either composes inline (thread backend) or blocks on
its worker process's reply (process backend — the pipe wait releases the
GIL, which is where the parallelism comes from).  A worker process that
dies mid-compose surfaces as :class:`~repro.errors.WorkerProcessCrash`;
the backend respawns the process and the runtime requeues the request
under its original admission ticket, exactly like an injected transient
fault.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
from typing import TYPE_CHECKING, List, Protocol, runtime_checkable

from repro.errors import UnsupportedBackendFeatureError, WorkerProcessCrash
from repro.composition.selection import CompositionPlan, SelectedActivity
from repro.runtime.process_worker import (
    WorkerContext,
    WorkerState,
    worker_main,
)

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


def _worker_context(middleware) -> WorkerContext:
    """The one composition context both backends build their workers from."""
    return WorkerContext(
        properties=dict(middleware.properties),
        aggregation=middleware.config.aggregation,
        qassa=middleware.config.qassa,
        discovery_minimum_degree=middleware.config.discovery_minimum_degree,
        ontology=middleware.discovery.ontology,
    )


class ThreadBackend:
    """Inline execution on the runtime's own worker threads, each owning
    one :class:`WorkerState` built on the runtime's shared pool memo."""

    name = "thread"

    def __init__(self, runtime: "MiddlewareRuntime") -> None:
        self.runtime = runtime
        self._context = _worker_context(runtime.middleware)
        self._local = threading.local()

    def start(self) -> None:
        pass  # worker threads are the executors; the runtime spawns them

    def stop(self, timeout: float) -> int:
        return 0

    def compose(self, spec, snapshot) -> List[CompositionPlan]:
        state = getattr(self._local, "state", None)
        if state is None:
            runtime = self.runtime
            state = self._local.state = WorkerState(
                self._context,
                pools=runtime.batcher,
                match_cache=runtime.middleware.discovery.match_cache,
                observability=runtime.observability,
                estimator=runtime.middleware.estimator,
            )
        return state.compose(spec, snapshot)


class _WorkerChannel:
    """One worker process plus the parent's pipe end to it."""

    __slots__ = ("process", "conn", "generation")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.generation: int = -1  # no snapshot shipped yet


class ProcessBackend:
    """A pool of spawned worker processes, one duplex pipe each.

    Channels live in a queue: a runtime worker thread checks one out,
    ships the snapshot if the worker's world is stale, sends the compose
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
        self._context = _worker_context(runtime.middleware)
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
                channel.conn.send(("exit",))
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
            if channel.generation != snapshot.generation:
                channel.conn.send(("snapshot", snapshot))
                channel.generation = snapshot.generation
            channel.conn.send(("compose", spec))
            reply = channel.conn.recv()
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
            return [self._rehydrate(p, spec, snapshot) for p in reply[1]]
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
        channel = _WorkerChannel(process, parent_conn)
        channel.conn.send(("context", self._context))
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

    def _rehydrate(
        self, plan: CompositionPlan, spec, snapshot
    ) -> CompositionPlan:
        """Re-anchor a child-composed plan on parent-owned objects.

        The child worked on pickled copies; execution, liveness checks and
        plan-key identity on the parent side need the parent's task,
        request and :class:`ServiceDescription` instances, which are
        recovered by service id through the very snapshot the child
        composed against.
        """
        request = spec.request
        selections = {}
        for name, sel in plan.selections.items():
            services = []
            for service in sel.services:
                local = snapshot.get(service.service_id)
                services.append(local if local is not None else service)
            selections[name] = SelectedActivity(
                name, services, normalizer=sel.normalizer
            )
        return CompositionPlan(
            task=request.task,
            request=request,
            selections=selections,
            aggregated_qos=plan.aggregated_qos,
            utility=plan.utility,
            feasible=plan.feasible,
            approach=plan.approach,
            statistics=plan.statistics,
        )


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
