"""The three benchmark workloads: seeded inputs and closed-loop drivers.

Every workload runs the paper's shopping scenario (browse, order, then pay
and notify in parallel) through ``repro.api`` with default knobs.  The
world -- services, QoS, devices -- is fixed per workload; ``--seed`` only
drives what the generator sends: each request's weights on
``unique-serial``; the order in which clients cycle the shared profiles
and, on ``churn-process``, which service leaves before each burst.

* ``unique-serial`` -- one client calling ``QASOM.submit(request)`` in a
  loop, every request with its own weights, 60 services per activity
  (330 candidates per request).  QASSA's local phase does nearly all the
  work and misses ``SelectionCache`` every time (its key holds the
  weights); the runtime is bypassed.
* ``repeat-thread`` -- ``MiddlewareRuntime(backend="thread", workers=2)``
  fed by two closed-loop clients cycling 8 profiles over 24 services per
  activity.  After warm-up every composition is coalesced, so admission,
  dispatch, ordered commit, execution and adaptation do the work.
* ``churn-process`` -- ``MiddlewareRuntime(backend="process", workers=2)``
  fed by one generator cycling 12 profiles in bursts of 4 with at most 2
  in flight.  Before each burst one seeded-random service leaves and the
  one parked by the previous burst rejoins, so every burst composes
  against a new registry generation that is re-pickled and shipped to the
  workers.  Writes never overlap requests, so plans stay deterministic.

QASSA's lattice walk has two modes: most plans walk a few states, a few
walk 64 or more (up to all 256, about 0.3-0.5 s each).  The scenario seed
of each world was chosen so that p95 latency sits inside the fast mode:
on world 8 at 60 services per activity 1-2% of weight profiles walk 64 or
more states (world 7: about 10%, which would put p95 on the boundary
between the modes); world 9 has the fewest at 24 services per activity
(0.4% of 480 profiles; most other worlds 1-30%).  The share is printed by
every run so a change that moves it shows.

The timed phase runs in slices with the host's speed measured between
them (``calibration.py``), so its timings can be scaled to a reference
host.
"""

from __future__ import annotations

import itertools
import math
import random
import resource
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from calibration import Slice, calibrate
from repro.api import (
    QASOM,
    MiddlewareRuntime,
    RequestStatus,
    RuntimeConfig,
    UserRequest,
    build_shopping_scenario,
)

#: Requests a timed phase completes at least, so p95 leaves ten samples
#: beyond it; the phase runs past ``--seconds`` if it has fewer.
MIN_SAMPLES = 200
#: The timed phase runs in slices of this many seconds.  Between two
#: slices no request is in flight and :func:`calibrate` measures the host.
SLICE_S = 0.25
#: A plan walking at least this many lattice states is in the slow mode.
HEAVY_STATES = 64


@dataclass(frozen=True)
class Workload:
    """One workload's fixed configuration."""

    name: str
    services_per_activity: int
    world_seed: int
    backend: Optional[str]  # None: serial ``QASOM.submit``
    profiles: int  # 0: every request has its own weights
    clients: int = 1
    burst: int = 0  # >0: churn bursts of this size
    in_flight: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("unique-serial", 60, 8, None, 0),
        Workload("repeat-thread", 24, 9, "thread", 8, clients=2),
        Workload("churn-process", 24, 9, "process", 12, burst=4, in_flight=2),
    )
}
WORKERS = 2
#: Seed of the pooled workloads' shared weight profiles.
PROFILE_SEED = 0


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)


def _radical_inverse(index: int, base: int) -> float:
    result, scale = 0.0, 1.0 / base
    while index:
        index, digit = divmod(index, base)
        result += digit * scale
        scale /= base
    return result


class ProfileStream:
    """Seeded weight profiles: a randomly shifted Halton sequence.

    Each seed shifts the sequence differently, so seeds give different
    profiles; the low-discrepancy sequence spreads any prefix of them
    evenly over the weight space, so the share of expensive profiles in
    a run varies far less between seeds than with independent draws.
    Weights fall in [0.1, 1.0], rounded to 6 digits.
    """

    def __init__(self, names: Tuple[str, ...], seed: int) -> None:
        rng = random.Random(seed * 7919 + 11)
        self.names = names
        self.shift = [rng.random() for _ in names]

    def weights(self, index: int) -> Dict[str, float]:
        """The ``index``-th profile (index >= 0)."""
        return {
            name: round(
                0.1 + 0.9 * math.modf(
                    _radical_inverse(index + 1, _PRIMES[d]) + self.shift[d]
                )[0],
                6,
            )
            for d, name in enumerate(self.names)
        }


def build_world(workload: Workload):
    """A fresh scenario plus its middleware (identical for equal configs)."""
    scenario = build_shopping_scenario(
        services_per_activity=workload.services_per_activity,
        seed=workload.world_seed,
    )
    middleware = QASOM.for_environment(
        scenario.environment,
        scenario.properties,
        ontology=scenario.ontology,
        repository=scenario.repository,
    )
    return scenario, middleware


class Inputs:
    """Everything the generator sends for one (workload, seed).

    ``unique-serial`` draws every request's weights from the seed.  The
    pooled workloads share one fixed set of profiles, and the seed orders
    their cycle and picks the churn victims: one expensive profile among
    8 or 12 would otherwise set the throughput of the whole run, and
    QASSA's tail is ``unique-serial``'s to measure.
    """

    def __init__(self, workload: Workload, scenario, seed: int) -> None:
        self.workload = workload
        self.template = scenario.request
        names = tuple(sorted(scenario.request.weights))
        rng = random.Random(seed * 104729 + 3)
        if workload.profiles:
            stream = ProfileStream(names, PROFILE_SEED)
            profiles = [
                self._request(stream.weights(i))
                for i in range(workload.profiles)
            ]
            rng.shuffle(profiles)
            self.profiles = profiles
        else:
            self.stream = ProfileStream(names, seed)
        self.churn_rng = rng

    def _request(self, weights: Dict[str, float]) -> UserRequest:
        return UserRequest(
            task=self.template.task,
            constraints=self.template.constraints,
            weights=weights,
        )

    def request(self, index: int) -> UserRequest:
        """The ``index``-th timed request.

        Pooled workloads cycle their profiles and reuse one request object
        per profile, as clients re-issuing a saved preference would.
        """
        if self.workload.profiles:
            return self.profiles[index % self.workload.profiles]
        return self._request(self.stream.weights(index))

    def warmup(self) -> List[UserRequest]:
        """Set-up requests: each distinct profile once, or one held-out
        request (the scenario's own, the same for every seed)."""
        if self.workload.profiles:
            return list(self.profiles)
        return [self.template]


def service_names(registry) -> Dict[str, object]:
    """Name -> service of a registry; names are unique per world."""
    services = registry.services()
    by_name = {s.name: s for s in services}
    if len(by_name) != len(services):
        raise RuntimeError("service names are not unique in this world")
    return by_name


def _untimed(fn, *args):
    return fn(*args)


class Churn:
    """Registry writes between bursts: the parked service rejoins, then a
    seeded-random live one leaves.  Victims are chosen by name so a
    replay on another world applies the same writes."""

    def __init__(self, registry, rng: random.Random) -> None:
        self.registry = registry
        self.rng = rng
        self.parked: List[object] = []
        self.log: List[Tuple[Optional[str], str]] = []

    def step(self, timer: Optional[Callable] = None) -> None:
        """Apply one burst's writes; ``timer`` wraps each registry call."""
        timer = timer or _untimed
        rejoined = None
        if self.parked:
            service = self.parked.pop(0)
            timer(self.registry.publish, service)
            rejoined = service.name
        live = sorted(self.registry.services(), key=lambda s: s.name)
        victim = self.rng.choice(live)
        timer(self.registry.withdraw, victim.service_id)
        self.parked.append(victim)
        self.log.append((rejoined, victim.name))


def replay_writes(registry, names: Dict[str, object], entry, timer=None) -> None:
    """Apply one logged :class:`Churn` step to another world's registry."""
    timer = timer or _untimed
    rejoined, victim = entry
    if rejoined is not None:
        timer(registry.publish, names[rejoined])
    timer(registry.withdraw, names[victim].service_id)


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------
def percentile(values, q: float) -> Optional[float]:
    """Nearest-rank percentile; None for no values."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) - 1e-9)) - 1]


def plan_digest(plan, primaries: Optional[Dict[str, str]] = None) -> Tuple:
    """World-independent identity of a composed plan: activity -> primary
    service name (service ids come from a process-global counter), plus
    the exact utility."""
    names = {a: s.primary.name for a, s in plan.selections.items()}
    names.update(primaries or {})
    return tuple(sorted(names.items())), repr(plan.utility)


def composed_digest(result) -> Tuple:
    """:func:`plan_digest` of the plan QASSA composed for an executed
    request, read back from what the request returned.

    Substitution rewrites the executed plan's primaries in place and
    leaves its utility, so each activity's composed primary is the one
    its first substitution removed.  Behavioural adaptation deploys a new
    plan; substitutions after it no longer touch the returned one.
    """
    composed: Dict[str, str] = {}
    for outcome in result.adaptations:
        if outcome.behavioural is not None:
            break
        swap = outcome.substitution
        if swap is not None and swap.activity_name not in composed:
            composed[swap.activity_name] = swap.removed.name
    return plan_digest(result.plan, composed)


@dataclass
class Outcome:
    """What the generator saw for one request."""

    index: int
    burst: int
    slice: int = 0  # index of the timed-phase slice it was sent in
    latency: float = 0.0
    status: str = "completed"  # completed | failed | rejected
    error: str = ""
    digest: Optional[Tuple] = None
    utility: float = 0.0
    feasible: bool = False
    states: int = 0
    #: Pooled requests: the runtime's own stamps, for the trace only.
    queue_s: Optional[float] = None
    worker_s: Optional[float] = None


def _fail(outcome: Outcome, handle, started: float, exc: Exception) -> None:
    outcome.latency = time.perf_counter() - started
    rejected = getattr(handle, "status", None) == RequestStatus.REJECTED
    outcome.status = "rejected" if rejected else "failed"
    outcome.error = f"{type(exc).__name__}: {exc}"


def _send(submit, run: "Run", request: UserRequest, index: int,
          outcome: Outcome):
    """Submit one request; returns its handle, or None when the submission
    itself raised (serial ``QASOM.submit`` raises instead of failing a
    handle)."""
    started = time.perf_counter()
    try:
        return submit(run, request, index), started
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        _fail(outcome, None, started, exc)
        return None, started


def _settle(outcome: Outcome, handle, started: float) -> None:
    """Wait for a handle and record the result the user got."""
    if handle is None:
        return  # already failed at submission
    try:
        result = handle.result()
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        _fail(outcome, handle, started, exc)
        return
    outcome.latency = time.perf_counter() - started
    plan = result.plan
    outcome.digest = composed_digest(result)
    outcome.utility = plan.utility
    outcome.feasible = plan.feasible
    outcome.states = plan.statistics.combinations_explored
    queue = getattr(handle, "queue_seconds", None)
    total = getattr(handle, "total_seconds", None)
    if queue is not None and total is not None:
        outcome.queue_s, outcome.worker_s = queue, total - queue


@dataclass
class Run:
    """A workload deployment: world, middleware, optional runtime."""

    workload: Workload
    inputs: Inputs
    middleware: QASOM
    runtime: Optional[MiddlewareRuntime] = None
    churn: Optional[Churn] = None
    warmup: List[Outcome] = field(default_factory=list)
    #: This interpreter's peak RSS (KiB) once :data:`MIN_SAMPLES` timed
    #: requests had returned; the benchmark's own per-request records
    #: (about 1 KiB each) would otherwise make the peak grow with the
    #: host's speed.
    peak_rss_kb: int = 0

    def submit(self, request: UserRequest):
        target = self.runtime if self.runtime is not None else self.middleware
        return target.submit(request)

    def close(self) -> None:
        if self.runtime is not None:
            self.runtime.close()


def deploy(workload: Workload, seed: int) -> Run:
    """Build the world, start the runtime and run the warm-up pass.

    This is the set-up the benchmark times.  The caller closes the run.
    """
    scenario, middleware = build_world(workload)
    inputs = Inputs(workload, scenario, seed)
    run = Run(workload, inputs, middleware)
    try:
        if workload.backend is not None:
            run.runtime = MiddlewareRuntime(
                middleware,
                RuntimeConfig(backend=workload.backend, workers=WORKERS),
            ).start()
        if workload.burst:
            run.churn = Churn(middleware.environment.registry, inputs.churn_rng)
        for index, request in enumerate(inputs.warmup()):
            outcome = Outcome(index=index, burst=-1)
            started = time.perf_counter()
            _settle(outcome, run.submit(request), started)
            if outcome.status != "completed":
                raise RuntimeError(f"warm-up request failed: {outcome.error}")
            run.warmup.append(outcome)
    except BaseException:
        run.close()
        raise
    return run


def drive(run: Run, seconds: float,
          hooks=None) -> Tuple[List[Outcome], List[Slice]]:
    """The timed phase: closed-loop clients, in slices of :data:`SLICE_S`,
    until the slices add up to ``seconds`` and at least
    :data:`MIN_SAMPLES` requests completed.

    A slice stops sending at its deadline and ends when its last request
    has returned; the host is calibrated between slices.  Returns the
    outcomes in request order and the slices.  ``hooks`` (tracing) wraps
    ``submit`` and the registry writes.
    """
    workload = run.workload
    submit = hooks.submit if hooks else (lambda r, req, i: r.submit(req))
    write_timer = hooks.write if hooks else None
    outcomes: List[Outcome] = []
    slices: List[Slice] = []
    lock = threading.Lock()
    counter = itertools.count()
    bursts = itertools.count()

    def send_bursts(number: int, deadline: float) -> None:
        while time.perf_counter() < deadline:
            burst = next(bursts)
            run.churn.step(write_timer)
            window: List[Tuple[Outcome, object, float]] = []
            for index in range(burst * workload.burst,
                               (burst + 1) * workload.burst):
                if len(window) == workload.in_flight:
                    _settle(*window.pop(0))
                outcome = Outcome(index=index, burst=burst, slice=number)
                outcomes.append(outcome)
                handle, sent = _send(
                    submit, run, run.inputs.request(index), index, outcome
                )
                window.append((outcome, handle, sent))
            for pending in window:
                _settle(*pending)

    def client(number: int, deadline: float) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = next(counter)
                outcome = Outcome(index=index, burst=0, slice=number)
                outcomes.append(outcome)
            handle, sent = _send(
                submit, run, run.inputs.request(index), index, outcome
            )
            _settle(outcome, handle, sent)

    started = time.perf_counter()
    calibration = calibrate()
    timed = 0.0
    while timed < seconds or len(outcomes) < MIN_SAMPLES:
        number = len(slices)
        begin = time.perf_counter()
        deadline = begin + SLICE_S
        if workload.burst:
            send_bursts(number, deadline)
        else:
            threads = [
                threading.Thread(target=client, args=(number, deadline),
                                 name=f"client-{c}")
                for c in range(1, workload.clients)
            ]
            for thread in threads:
                thread.start()
            try:
                client(number, deadline)
            finally:
                for thread in threads:
                    thread.join()
        end = time.perf_counter()
        timed += end - begin
        if not run.peak_rss_kb and len(outcomes) >= MIN_SAMPLES:
            run.peak_rss_kb = resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss
        after = calibrate()
        slices.append(
            Slice(begin - started, end - started, calibration, after)
        )
        calibration = after
    outcomes.sort(key=lambda o: o.index)
    return outcomes, slices


def reference_digests(run: Run, outcomes: List[Outcome]) -> Dict[Tuple, Tuple]:
    """The serial reference: each (burst, index) request composed with
    ``QASOM.submit(request, execute=False)`` on a fresh, identical world,
    with the same registry writes applied between bursts.

    Requests that share a profile and a registry generation share one
    composition (QASSA is a pure function of the two).
    """
    workload = run.workload
    _, middleware = build_world(workload)
    registry = middleware.environment.registry
    names = service_names(registry)
    inputs = run.inputs
    memo: Dict[Tuple, Tuple] = {}
    digests: Dict[Tuple, Tuple] = {}

    def compose(burst: int, request: UserRequest) -> Tuple:
        if not workload.profiles:
            return plan_digest(middleware.submit(request, execute=False).plan())
        key = (burst, id(request))  # profile requests live as long as inputs
        if key not in memo:
            memo[key] = plan_digest(
                middleware.submit(request, execute=False).plan()
            )
        return memo[key]

    for outcome, request in zip(run.warmup, inputs.warmup()):
        digests[(-1, outcome.index)] = compose(-1, request)
    applied = 0
    for outcome in outcomes:
        while workload.burst and applied <= outcome.burst:
            replay_writes(registry, names, run.churn.log[applied])
            applied += 1
        digests[(outcome.burst, outcome.index)] = compose(
            outcome.burst, inputs.request(outcome.index)
        )
    return digests
