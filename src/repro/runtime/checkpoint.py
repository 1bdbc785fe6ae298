"""Engine checkpointing (library extension).

Long-running stream processors need recovery: capture the engine's mutable
state — per-partition context windows, every plan's partial matches,
aggregate accumulators — and restore it into a *fresh* engine built from
the same model and configuration::

    checkpoint = capture_checkpoint(engine)
    ...                                # process crashes / restarts
    engine2 = CaesarEngine(model, ...) # identical configuration
    restore_checkpoint(engine2, checkpoint)
    # feeding the remaining events now yields exactly the outputs the
    # uninterrupted run would have produced

Checkpoints are plain Python objects (picklable as long as partition keys
and event payloads are).  They capture *state*, not configuration: the
restoring engine must be constructed with the same model, optimization
flags and retention, which the restore verifies structurally.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import CheckpointMismatchError, RuntimeEngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import CaesarEngine

#: Format marker so stored checkpoints fail loudly across versions.
#: Version 2 added the engine configuration flags (``context_aware``,
#: ``optimize``), which the restore verifies structurally.  Version 3: SEQ
#: plans evaluate ``WHERE`` in the pattern, with no ``Filter`` slot.
CHECKPOINT_VERSION = 3


def capture_checkpoint(engine: "CaesarEngine") -> dict:
    """Snapshot all mutable state of the engine's partitions."""
    partitions = {}
    for key, runtime in engine._partitions.items():
        partitions[key] = {
            "store": runtime.store.snapshot(),
            "deriving": {
                name: runtime.deriving_router.plan_for(name).snapshot_state()
                for name in runtime.deriving_router.contexts
            },
            "processing": {
                name: runtime.processing_router.plan_for(name).snapshot_state()
                for name in runtime.processing_router.contexts
            },
            "preprocessors": [
                op.snapshot_state() for op in runtime.preprocessors
            ],
            "closed_seen": runtime.closed_seen,
        }
    return {
        "version": CHECKPOINT_VERSION,
        "contexts": tuple(engine.model.context_names),
        "default_context": engine.model.default_context,
        "context_aware": engine.context_aware,
        "optimize": engine.optimize,
        "partitions": partitions,
    }


def restore_checkpoint(engine: "CaesarEngine", checkpoint: dict) -> None:
    """Load a checkpoint into a structurally identical engine.

    Structural verification covers the model shape (context set, default
    context) *and* the engine configuration flags: a checkpoint taken from
    a ``context_aware=True`` engine holds suspended-plan state that a
    context-independent engine would immediately diverge on (and vice
    versa), and ``optimize`` changes the operator pipelines the snapshots
    map onto.  Mismatches raise :class:`~repro.errors.CheckpointMismatchError`
    naming the differing flag.
    """
    if checkpoint.get("version") != CHECKPOINT_VERSION:
        raise RuntimeEngineError(
            f"unsupported checkpoint version: {checkpoint.get('version')!r}"
        )
    if tuple(engine.model.context_names) != checkpoint["contexts"]:
        raise CheckpointMismatchError(
            "checkpoint was taken from a model with different contexts: "
            f"{checkpoint['contexts']} vs {tuple(engine.model.context_names)}"
        )
    if engine.model.default_context != checkpoint["default_context"]:
        raise CheckpointMismatchError("checkpoint default context differs")
    for flag in ("context_aware", "optimize"):
        if checkpoint[flag] != getattr(engine, flag):
            raise CheckpointMismatchError(
                f"checkpoint flag {flag!r} differs: checkpoint was taken "
                f"with {flag}={checkpoint[flag]}, restoring engine has "
                f"{flag}={getattr(engine, flag)}"
            )
    for key, state in checkpoint["partitions"].items():
        runtime = engine._partition(key)  # creates the partition lazily
        runtime.store.restore(state["store"])
        for name, snapshots in state["deriving"].items():
            plan = runtime.deriving_router.plan_for(name)
            if plan is None:
                raise RuntimeEngineError(
                    f"checkpoint references unknown deriving context {name!r}"
                )
            plan.restore_state(snapshots)
        for name, snapshots in state["processing"].items():
            plan = runtime.processing_router.plan_for(name)
            if plan is None:
                raise RuntimeEngineError(
                    f"checkpoint references unknown processing context {name!r}"
                )
            plan.restore_state(snapshots)
        preprocessor_states = state["preprocessors"]
        if len(preprocessor_states) != len(runtime.preprocessors):
            raise RuntimeEngineError(
                "checkpoint preprocessor count differs from the engine's"
            )
        for operator, snapshot in zip(
            runtime.preprocessors, preprocessor_states
        ):
            if snapshot is not None:
                operator.restore_state(snapshot)
        runtime.closed_seen = state["closed_seen"]
    # The next run() must resume from the restored state instead of
    # resetting to a clean slate (the re-entrancy default).
    engine._preserve_state_once = True
