"""Sharded parallel execution backends (Section 6 scaled out).

CAESAR keeps a context bit vector and plan instances *per stream partition*
and partitions are semantically independent — the sharding lever the paper's
runtime never pulls.  An :class:`ExecutionBackend` decides how the stream
transactions of one timestamp are executed:

:class:`SerialBackend`
    One after the other on the calling thread — the reference semantics.

:class:`ProcessPoolBackend`
    All partitions' transactions for a timestamp run concurrently across a
    **persistent pool** of forked worker processes with **shard affinity**:
    a partition is pinned to one worker for the whole run, so its window
    store, routers and context history stay worker-local (one engine state
    copy per worker, copy-on-write, spawned once per engine and reused
    across runs).  Events cross the process boundary as columnar
    :class:`~repro.events.batch.EventBatch` frames written into per-worker
    ``multiprocessing.shared_memory`` rings, with per-batch pipe pickling
    as the fallback; per-partition counters, windows and supervision state
    come back as end-of-run deltas merged into the parent engine.

All backends merge each timestamp's outputs **deterministically** in the
scheduler's transaction order — the distributor's partition order, itself
fixed by the stream — and per-partition derivations keep their generation
order, so serial and parallel runs produce identical
:class:`~repro.runtime.engine.EngineReport` outputs and counters.

The backend for an engine is chosen with the ``backend=`` constructor
argument or the ``CAESAR_BACKEND`` environment variable (``serial`` |
``process``).
"""

from __future__ import annotations

import os
import pickle
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import RuntimeEngineError, UnknownBackendError
from repro.events.batch import EventBatch, TypeDirectory
from repro.events.event import Event
from repro.events.timebase import TimePoint
from repro.runtime.transactions import StreamTransaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import CaesarEngine

#: Environment variable consulted when an engine is built without an
#: explicit backend.
BACKEND_ENV_VAR = "CAESAR_BACKEND"


@dataclass
class RunTotals:
    """Aggregated per-partition state of one finished run.

    For backends whose partition runtimes live in the engine process this is
    read straight off the engine; the process backend assembles it from the
    summaries its shard workers send back.
    """

    cost_units: float = 0.0
    windows_by_partition: dict = field(default_factory=dict)
    suppressed_batches: int = 0
    routed_batches: int = 0
    interest_suppressed_batches: int = 0
    gc_collected: int = 0
    history_discards: int = 0
    #: SEQ matches folded into running summaries (online aggregation)
    matches_aggregated: int = 0
    #: SEQ matches enumerated then aggregated (materialize oracle)
    matches_materialized: int = 0
    cost_by_context: dict[str, float] = field(default_factory=dict)
    # -- transport diagnostics (process backend only; excluded from the
    # -- cross-backend parity projection) --------------------------------
    transport_bytes_out: int = 0
    transport_bytes_in: int = 0
    batches_shm: int = 0
    batches_pickled_fallback: int = 0


class ExecutionBackend:
    """How the stream transactions of one timestamp get executed.

    The engine drives the lifecycle: ``begin_run`` → (``execute`` per
    timestamp) → ``collect_totals`` → ``end_run`` (always, also on error).
    ``local_state`` tells the engine whether partition runtimes (and thus
    cost accounting and checkpointable state) live in the engine's own
    process.
    """

    name = "abstract"
    #: True when partition runtimes are shared with the engine process.
    local_state = True
    #: True when this instance was chosen by the ``CAESAR_BACKEND``
    #: environment variable rather than an explicit spec — such backends
    #: may transparently fall back via :meth:`for_engine` instead of
    #: rejecting an incompatible engine the caller never asked to shard.
    _from_env = False

    def for_engine(self, engine: "CaesarEngine") -> "ExecutionBackend":
        """The backend that should actually drive ``engine``'s run.

        Default: this instance.  Env-selected backends with engine
        compatibility constraints override this to substitute a fallback.
        """
        return self

    def begin_run(self, engine: "CaesarEngine") -> None:
        """Prepare for a run (spawn workers, reset shard maps)."""

    def execute(
        self,
        t: TimePoint,
        transactions: list[StreamTransaction],
        engine: "CaesarEngine",
    ) -> list[list[Event]]:
        """Execute one timestamp's transactions; outputs aligned with input."""
        raise NotImplementedError

    @property
    def last_cost_delta(self) -> float:
        """Cost units spent by the last :meth:`execute` (non-local backends)."""
        return 0.0

    @property
    def last_shed_feedback(self):
        """Per-partition shed feedback gathered by the last :meth:`execute`.

        Only the process backend (whose partition state lives in workers)
        returns anything; backends with local state let the admission
        controller read the partitions directly.
        """
        return None

    def collect_totals(self, engine: "CaesarEngine") -> RunTotals | None:
        """Merged run totals, or None when the engine can read its own."""
        return None

    def end_run(self, engine: "CaesarEngine") -> None:
        """Tear down after a run (join workers).  Must be idempotent."""

    def close(self) -> None:
        """Release resources that outlive a run (persistent worker pools).

        Idempotent; a no-op for backends that hold none.
        """


class SerialBackend(ExecutionBackend):
    """Today's behaviour: partitions execute one after the other."""

    name = "serial"

    def execute(self, t, transactions, engine):
        return [
            engine._execute_transaction(transaction)
            for transaction in transactions
        ]


class _ShardMap:
    """Stable partition→shard assignment (round-robin on first sight)."""

    def __init__(self, shards: int):
        self.shards = shards
        self._assignment: dict = {}

    def shard_of(self, key) -> int:
        shard = self._assignment.get(key)
        if shard is None:
            shard = len(self._assignment) % self.shards
            self._assignment[key] = shard
        return shard

    def group(
        self, transactions: list[StreamTransaction]
    ) -> dict[int, list[tuple[int, StreamTransaction]]]:
        """Transactions grouped by shard, tagged with their merge index."""
        groups: dict[int, list[tuple[int, StreamTransaction]]] = {}
        for index, transaction in enumerate(transactions):
            shard = self.shard_of(transaction.partition)
            groups.setdefault(shard, []).append((index, transaction))
        return groups


#: Environment variable overriding the default worker count for parallel
#: backends built without an explicit ``max_workers`` (e.g. the CI matrix
#: pinning ``CAESAR_WORKERS=2`` on small runners).
WORKERS_ENV_VAR = "CAESAR_WORKERS"


def default_worker_count() -> int:
    """Worker default: ``CAESAR_WORKERS`` if set, else cores clamped to 2..8."""
    override = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if override:
        try:
            workers = int(override)
        except ValueError:
            raise RuntimeEngineError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {override!r}"
            ) from None
        if workers < 1:
            raise RuntimeEngineError(
                f"{WORKERS_ENV_VAR} must be an integer >= 1, got {override!r}"
            )
        return workers
    return max(2, min(8, os.cpu_count() or 1))


# ---------------------------------------------------------------------------
# process backend
# ---------------------------------------------------------------------------


def _partition_summaries(engine: "CaesarEngine") -> dict:
    """Picklable per-partition state for the fan-in merge (worker side)."""
    summaries = {}
    for key, runtime in engine._partitions.items():
        cost_by_context: dict[str, float] = {}
        for router in (runtime.deriving_router, runtime.processing_router):
            for name, cost in router.cost_by_context.items():
                cost_by_context[name] = cost_by_context.get(name, 0.0) + cost
        summaries[key] = {
            "windows": runtime.store.all_windows(),
            "cost_units": runtime.cost_units(),
            "suppressed": (
                runtime.deriving_router.batches_suppressed
                + runtime.processing_router.batches_suppressed
            ),
            "routed": (
                runtime.deriving_router.batches_routed
                + runtime.processing_router.batches_routed
            ),
            "uninterested": (
                runtime.deriving_router.batches_uninterested
                + runtime.processing_router.batches_uninterested
            ),
            "gc_collected": runtime.gc.collected,
            "history_discards": runtime.history.discards,
            "aggregation_counts": runtime.aggregation_counts(),
            "cost_by_context": cost_by_context,
        }
    return summaries


def _unpack_events(descriptor, ring, directory: TypeDirectory):
    """Materialize one transaction's events from its wire descriptor."""
    if descriptor[0] == "shm":
        _tag, offset, length = descriptor
        return EventBatch.decode(ring[offset : offset + length], directory)
    return descriptor[1]  # "pkl": the events travelled in the message


def _process_worker_main(conn, engine: "CaesarEngine", shm) -> None:
    """Request loop of one forked shard worker.

    The worker is persistent: ``finish`` reports the run's summary but
    keeps the loop alive, ``begin`` resets run state for the next run,
    ``stop`` (or a closed pipe) exits.  Messages travel as explicit pickle
    frames (``send_bytes``/``recv_bytes``) so the parent can meter
    transport bytes; event batches normally arrive as offsets into the
    inherited shared-memory ring.  The ring is owned (closed and
    unlinked) by the parent — the worker only ever reads it.
    """
    directory = TypeDirectory()
    ring = memoryview(shm.buf) if shm is not None else None
    baseline = engine._worker_state_baseline()
    while True:
        try:
            message = pickle.loads(conn.recv_bytes())
        except EOFError:
            return
        kind = message[0]
        if kind == "exec":
            _, t, parts = message
            replies = []
            cost_before = engine._total_cost_units()
            try:
                for index, key, descriptor in parts:
                    transaction = StreamTransaction(
                        partition=key,
                        timestamp=t,
                        events=_unpack_events(descriptor, ring, directory),
                    )
                    outputs = engine._execute_transaction(transaction)
                    replies.append((index, outputs, transaction.operations))
            except BaseException as exc:  # noqa: BLE001 - forwarded
                try:
                    payload = pickle.dumps(
                        ("error", exc), protocol=pickle.HIGHEST_PROTOCOL
                    )
                except Exception:
                    payload = pickle.dumps(
                        ("error", RuntimeEngineError(repr(exc))),
                        protocol=pickle.HIGHEST_PROTOCOL,
                    )
                conn.send_bytes(payload)
                continue
            cost_delta = engine._total_cost_units() - cost_before
            conn.send_bytes(
                pickle.dumps(
                    ("ok", replies, cost_delta, engine._shed_feedback()),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
        elif kind == "finish":
            conn.send_bytes(
                pickle.dumps(
                    (
                        "summary",
                        _partition_summaries(engine),
                        engine._worker_state_summary(baseline),
                    ),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
            )
        elif kind == "begin":
            # Next run on a reused pool: same reset the parent performed,
            # and a fresh observability baseline for the new run's deltas.
            engine.reset_run_state()
            baseline = engine._worker_state_baseline()
        else:  # "stop"
            conn.close()
            return


class _WorkerHandle:
    """One pool worker: pipe, process, shm ring, per-link type directory."""

    __slots__ = ("conn", "process", "shm", "directory")

    def __init__(self, conn, process, shm):
        self.conn = conn
        self.process = process
        self.shm = shm
        self.directory = TypeDirectory()


class _PoolState:
    """Lifecycle state of one spawned worker pool.

    Kept separate from the backend so a ``weakref.finalize`` callback can
    tear the pool down without keeping the backend (and the engine it
    forked) alive.
    """

    __slots__ = ("workers", "engine_id", "broken", "closed")

    def __init__(self, workers: list[_WorkerHandle], engine_id: int):
        self.workers = workers
        self.engine_id = engine_id
        #: a worker errored or a pipe broke: state may have diverged, the
        #: pool must not serve another run
        self.broken = False
        self.closed = False


def _teardown_pool(pool: _PoolState) -> None:
    """Stop a pool's workers and release its rings.  Idempotent."""
    if pool.closed:
        return
    pool.closed = True
    stop = pickle.dumps(("stop",), protocol=pickle.HIGHEST_PROTOCOL)
    for handle in pool.workers:
        try:
            handle.conn.send_bytes(stop)
        except (BrokenPipeError, OSError):
            pass
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover - defensive
            pass
    for handle in pool.workers:
        handle.process.join(timeout=10)
        if handle.process.is_alive():  # pragma: no cover - defensive
            handle.process.terminate()
            handle.process.join(timeout=10)
        if handle.shm is not None:
            # The parent owns the ring; workers only ever attach to the
            # inherited mapping, so close+unlink here reclaims it fully.
            try:
                handle.shm.close()
                handle.shm.unlink()
            except OSError:  # pragma: no cover - defensive
                pass


#: Default per-worker shared-memory ring size (1 MiB): comfortably holds
#: any realistic timestamp's batches; oversized batches fall back to pipe
#: pickling per batch, never fail.
DEFAULT_RING_BYTES = 1 << 20


class ProcessPoolBackend(ExecutionBackend):
    """Shard-affine persistent worker processes (POSIX only).

    Workers are forked **once per engine** — on the first run, or after
    :meth:`close` — inheriting the engine's pristine state copy-on-write;
    from then on each worker owns its shard's partitions exclusively and
    the pool is reused across runs (``begin`` resets worker run state
    exactly as :meth:`~repro.runtime.engine.CaesarEngine.reset_run_state`
    does in the parent).  Each worker gets a shared-memory ring; the
    parent encodes every timestamp's events into columnar
    :class:`~repro.events.batch.EventBatch` frames written straight into
    the ring, and ships only the (offset, length) descriptors over the
    pipe.  Batches that do not fit (or when shared memory is unavailable)
    fall back to per-batch pipe pickling — slower, never wrong.  Derived
    events, per-partition counters and supervision state come back as
    deltas at the end of the run, which the parent engine absorbs so
    reports look exactly as they would after a serial run.

    Checkpoint autosave (``recovery=``) and ``on_context_transition``
    callbacks need the partition state in the engine process and are
    rejected up front — unless the backend came from the
    ``CAESAR_BACKEND`` environment variable, in which case
    :meth:`for_engine` silently substitutes a serial backend for the
    incompatible engine (the caller never asked this engine to shard).
    """

    name = "process"
    local_state = False

    def __init__(
        self,
        max_workers: int | None = None,
        *,
        ring_bytes: int = DEFAULT_RING_BYTES,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers or default_worker_count()
        self.ring_bytes = ring_bytes
        self._pool: _PoolState | None = None
        self._finalizer = None
        self._serial_fallback: SerialBackend | None = None
        self._shard_map: _ShardMap | None = None
        self._partition_order: list = []
        self._cost_delta = 0.0
        self._shed_feedback: dict = {}
        self._bytes_out = 0
        self._bytes_in = 0
        self._batches_shm = 0
        self._batches_pkl = 0

    # -- engine compatibility -------------------------------------------

    @staticmethod
    def _incompatibility(engine) -> str | None:
        """Why ``engine`` cannot run on this backend, or None if it can."""
        if getattr(engine, "recovery", None) is not None:
            return (
                "checkpoint autosave needs partition state in the engine "
                "process; use SerialBackend with a RecoveryManager"
            )
        if engine.on_context_transition is not None:
            return (
                "on_context_transition callbacks fire inside worker "
                "processes and would be lost; use SerialBackend"
            )
        return None

    def for_engine(self, engine):
        if self._from_env and self._incompatibility(engine) is not None:
            # A fleet-wide CAESAR_BACKEND=process must not break engines
            # that are structurally serial (recovery, transition hooks).
            fallback = self._serial_fallback
            if fallback is None:
                fallback = self._serial_fallback = SerialBackend()
            return fallback
        return self

    # -- pool lifecycle --------------------------------------------------

    def _spawn(self, engine) -> _PoolState:
        import multiprocessing

        context = multiprocessing.get_context("fork")
        workers: list[_WorkerHandle] = []
        for _ in range(self.max_workers):
            shm = self._create_ring()
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_process_worker_main,
                args=(child_conn, engine, shm),
                daemon=True,
            )
            process.start()
            child_conn.close()
            workers.append(_WorkerHandle(parent_conn, process, shm))
        pool = _PoolState(workers, id(engine))
        self._pool = pool
        # GC of the backend must not leak worker processes or /dev/shm
        # segments; the finalizer holds only the pool state, not self.
        self._finalizer = weakref.finalize(self, _teardown_pool, pool)
        return pool

    def _create_ring(self):
        if self.ring_bytes < 64:
            return None  # degenerate ring: force the pickle fallback
        try:
            from multiprocessing import shared_memory

            return shared_memory.SharedMemory(
                create=True, size=self.ring_bytes
            )
        except (ImportError, OSError):  # pragma: no cover - platform
            return None

    def _pool_for(self, engine) -> _PoolState:
        pool = self._pool
        if (
            pool is not None
            and not pool.broken
            and not pool.closed
            and pool.engine_id == id(engine)
            and all(h.process.is_alive() for h in pool.workers)
            and engine._worker_pool_reusable()
        ):
            # Warm pool: same engine, clean slate — tell workers to reset
            # their run state instead of paying a respawn.
            begin = pickle.dumps(("begin",), protocol=pickle.HIGHEST_PROTOCOL)
            for handle in pool.workers:
                handle.conn.send_bytes(begin)
                self._bytes_out += len(begin)
            return pool
        self._teardown()
        return self._spawn(engine)

    def _teardown(self) -> None:
        pool = self._pool
        if pool is not None:
            _teardown_pool(pool)
            self._pool = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    def close(self) -> None:
        self._teardown()

    @property
    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of the live pool workers (empty when no pool is up)."""
        pool = self._pool
        if pool is None or pool.closed:
            return ()
        return tuple(h.process.pid for h in pool.workers)

    # -- run lifecycle ---------------------------------------------------

    def begin_run(self, engine):
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeEngineError(
                "ProcessPoolBackend requires the fork start method "
                "(POSIX); use SerialBackend on this platform"
            )
        problem = self._incompatibility(engine)
        if problem is not None:
            raise RuntimeEngineError(problem)
        self._shard_map = _ShardMap(self.max_workers)
        self._partition_order = []
        self._cost_delta = 0.0
        self._shed_feedback = {}
        self._bytes_out = 0
        self._bytes_in = 0
        self._batches_shm = 0
        self._batches_pkl = 0
        self._pool_for(engine)

    def _send(self, handle: _WorkerHandle, message) -> None:
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        handle.conn.send_bytes(payload)
        self._bytes_out += len(payload)

    def _recv(self, handle: _WorkerHandle):
        payload = handle.conn.recv_bytes()
        self._bytes_in += len(payload)
        return pickle.loads(payload)

    def _pack(self, handle: _WorkerHandle, events, offset: int):
        """Place one batch: shm descriptor if it fits, else pipe pickle.

        Returns ``(descriptor, next_offset)``.  The per-link type
        directory is committed only after a successful ring placement, so
        a fallback batch never advances type ids the decoder won't see.
        """
        shm = handle.shm
        if shm is not None:
            try:
                batch = EventBatch.encode(events, handle.directory)
            except Exception:  # exotic unpicklable-in-parts payloads
                batch = None
            if batch is not None:
                start = (offset + 7) & ~7
                end = start + len(batch.data)
                if end <= shm.size:
                    shm.buf[start:end] = batch.data
                    batch.commit()
                    self._batches_shm += 1
                    self._bytes_out += len(batch.data)
                    return ("shm", start, len(batch.data)), end
        self._batches_pkl += 1
        return ("pkl", list(events)), offset

    def execute(self, t, transactions, engine):
        self._cost_delta = 0.0
        self._shed_feedback = {}
        if not transactions:
            return []
        pool = self._pool
        if pool is None or pool.closed or pool.broken:
            raise RuntimeEngineError(
                "process backend has no live worker pool (begin_run not "
                "called, or the pool failed earlier in this run)"
            )
        for transaction in transactions:
            if transaction.partition not in self._shard_map._assignment:
                self._partition_order.append(transaction.partition)
        groups = self._shard_map.group(transactions)
        try:
            for shard, items in groups.items():
                handle = pool.workers[shard]
                # The ring is reused from offset 0 every timestamp: the
                # worker materializes all events before replying, and the
                # parent never writes again before that reply arrives.
                offset = 0
                parts = []
                for index, transaction in items:
                    descriptor, offset = self._pack(
                        handle, transaction.events, offset
                    )
                    parts.append((index, transaction.partition, descriptor))
                self._send(handle, ("exec", t, parts))
            results: list = [None] * len(transactions)
            errors: dict[int, BaseException] = {}
            for shard, items in groups.items():
                reply = self._recv(pool.workers[shard])
                if reply[0] == "error":
                    errors[items[0][0]] = reply[1]
                    continue
                _, replies, cost_delta, shed_feedback = reply
                self._cost_delta += cost_delta
                if shed_feedback:
                    self._shed_feedback.update(shed_feedback)
                for index, outputs, operations in replies:
                    results[index] = outputs
                    # The worker recorded the context reads/writes; adopt
                    # them so the parent's transaction log verifies the
                    # schedule.
                    transactions[index].operations = operations
        except (EOFError, BrokenPipeError, OSError) as exc:
            pool.broken = True
            raise RuntimeEngineError(
                f"process backend worker communication failed: {exc!r}"
            ) from exc
        if errors:
            # A worker that raised may hold diverged partition state (and
            # a type directory that stopped tracking the parent's): the
            # pool cannot serve another run.
            pool.broken = True
            raise errors[min(errors)]
        return results

    @property
    def last_cost_delta(self) -> float:
        return self._cost_delta

    @property
    def last_shed_feedback(self):
        return self._shed_feedback or None

    def collect_totals(self, engine):
        pool = self._pool
        summaries: dict = {}
        try:
            for handle in pool.workers:
                self._send(handle, ("finish",))
            for handle in pool.workers:
                _tag, partition_summaries, worker_state = self._recv(handle)
                summaries.update(partition_summaries)
                engine._absorb_worker_state(worker_state)
        except (EOFError, BrokenPipeError, OSError) as exc:
            pool.broken = True
            raise RuntimeEngineError(
                f"process backend worker communication failed: {exc!r}"
            ) from exc
        totals = RunTotals(
            transport_bytes_out=self._bytes_out,
            transport_bytes_in=self._bytes_in,
            batches_shm=self._batches_shm,
            batches_pickled_fallback=self._batches_pkl,
        )
        for key in self._partition_order:
            summary = summaries.get(key)
            if summary is None:  # pragma: no cover - defensive
                continue
            totals.cost_units += summary["cost_units"]
            totals.windows_by_partition[key] = summary["windows"]
            totals.suppressed_batches += summary["suppressed"]
            totals.routed_batches += summary["routed"]
            totals.interest_suppressed_batches += summary["uninterested"]
            totals.gc_collected += summary["gc_collected"]
            totals.history_discards += summary["history_discards"]
            aggregated, materialized = summary.get(
                "aggregation_counts", (0, 0)
            )
            totals.matches_aggregated += aggregated
            totals.matches_materialized += materialized
            for name, cost in summary["cost_by_context"].items():
                totals.cost_by_context[name] = (
                    totals.cost_by_context.get(name, 0.0) + cost
                )
        return totals

    def end_run(self, engine):
        # The pool persists across runs; only a failed pool is scrapped
        # here.  close() (or engine.close()/GC) releases a healthy one.
        pool = self._pool
        if pool is not None and pool.broken:
            self._teardown()


#: Registry used by :func:`resolve_backend` (and the ``CAESAR_BACKEND``
#: environment variable).
BACKENDS: dict[str, Callable[[], ExecutionBackend]] = {
    "serial": SerialBackend,
    "process": ProcessPoolBackend,
    "processes": ProcessPoolBackend,
}


def resolve_backend(
    spec: "ExecutionBackend | str | None",
) -> ExecutionBackend:
    """Turn a backend spec into an instance.

    ``None`` consults the ``CAESAR_BACKEND`` environment variable (unset or
    empty means serial); strings are looked up in :data:`BACKENDS`;
    instances pass through (each engine should get its own instance — a
    backend holds per-run worker state).  An unknown name — explicit or
    from the environment — raises :class:`~repro.errors.UnknownBackendError`
    (a ``ValueError``) listing the valid names; it is never silently
    replaced by a fallback.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    source = "backend spec"
    from_env = False
    if spec is None:
        spec = os.environ.get(BACKEND_ENV_VAR, "") or "serial"
        source = f"{BACKEND_ENV_VAR} environment variable"
        from_env = True
    factory = BACKENDS.get(str(spec).strip().lower())
    if factory is None:
        raise UnknownBackendError(
            f"unknown execution backend {spec!r} (from {source}); "
            f"choose one of {sorted(set(BACKENDS))}"
        )
    backend = factory()
    backend._from_env = from_env
    return backend
