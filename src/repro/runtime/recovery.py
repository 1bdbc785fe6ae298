"""Checkpoint-based crash recovery (autosave, restore, suffix replay).

:mod:`repro.runtime.checkpoint` can capture and restore engine state but
nothing drives it; this module adds the driver.  A :class:`RecoveryManager`
attached to a :class:`~repro.runtime.supervisor.SupervisedEngine` autosaves
a checkpoint every ``interval`` stream-time units (at batch boundaries, so
a checkpoint always reflects a prefix of whole stream transactions) and
records the **watermark** alongside: the largest timestamp whose events are
fully reflected in the snapshot.

After a crash, recovery is restore + replay::

    manager = RecoveryManager(interval=50)
    engine = SupervisedEngine(model, recovery=manager)
    ... run until the process dies ...

    fresh = SupervisedEngine(model, recovery=manager)   # same configuration
    watermark = manager.recover(fresh)                  # latest valid checkpoint
    outputs = manager.replay(fresh, events)             # feeds t > watermark

The determinism contract (tested): outputs already emitted up to the
watermark, concatenated with the replayed outputs, are exactly the outputs
of the uninterrupted run.  Checkpoints are kept newest-first up to
``history``; if the newest fails to restore (corrupt, wrong shape), older
ones are tried in turn — "restore the latest *valid* checkpoint".
"""

from __future__ import annotations

from typing import Iterable, TYPE_CHECKING

from repro.errors import CaesarError
from repro.events.event import Event
from repro.events.timebase import TimePoint
from repro.runtime.checkpoint import capture_checkpoint, restore_checkpoint
from repro.runtime.session import EngineSession

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import CaesarEngine


class RecoveryManager:
    """Autosaves checkpoints and replays the stream suffix after a crash.

    Parameters
    ----------
    interval:
        Stream-time units between autosaved checkpoints.
    history:
        How many recent checkpoints to keep for fallback restore.
    """

    def __init__(self, *, interval: TimePoint, history: int = 3):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        self.interval = interval
        self.history = history
        #: ``(watermark, checkpoint)`` pairs, oldest first
        self._checkpoints: list[tuple[TimePoint, dict]] = []
        self._last_checkpoint_at: TimePoint | None = None
        self.checkpoints_taken = 0
        self.recovery_replays = 0
        #: checkpoints that failed to restore during :meth:`recover`
        self.invalid_checkpoints = 0
        self._last_restored: TimePoint | None = None

    # ------------------------------------------------------------------
    # autosave
    # ------------------------------------------------------------------

    def observe(self, engine: "CaesarEngine", t: TimePoint) -> bool:
        """Batch-boundary hook: checkpoint if ``interval`` has elapsed.

        Returns True if a checkpoint was taken at ``t``.
        """
        due = (
            self._last_checkpoint_at is None
            or t - self._last_checkpoint_at >= self.interval
        )
        if due:
            self.checkpoint(engine, t)
        return due

    def checkpoint(self, engine: "CaesarEngine", watermark: TimePoint) -> dict:
        """Snapshot the engine now; all events ``<= watermark`` are inside."""
        snapshot = capture_checkpoint(engine)
        self._checkpoints.append((watermark, snapshot))
        del self._checkpoints[: -self.history]
        self._last_checkpoint_at = watermark
        self.checkpoints_taken += 1
        return snapshot

    @property
    def watermark(self) -> TimePoint | None:
        """Watermark of the newest checkpoint, or None if none taken."""
        if not self._checkpoints:
            return None
        return self._checkpoints[-1][0]

    @property
    def stored_checkpoints(self) -> int:
        return len(self._checkpoints)

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def recover(self, engine: "CaesarEngine") -> TimePoint | None:
        """Restore the latest valid checkpoint into a fresh engine.

        Checkpoints are tried newest-first; ones that fail to restore are
        counted in :attr:`invalid_checkpoints` and skipped.  Returns the
        watermark of the restored checkpoint — replay events strictly
        after it — or ``None`` when no checkpoint could be restored (the
        engine is untouched: replay from the beginning).
        """
        for watermark, snapshot in reversed(self._checkpoints):
            try:
                restore_checkpoint(engine, snapshot)
            except CaesarError:
                self.invalid_checkpoints += 1
                continue
            self.recovery_replays += 1
            self._last_restored = watermark
            return watermark
        self._last_restored = None
        return None

    def replay(
        self, engine: "CaesarEngine", events: Iterable[Event]
    ) -> list[Event]:
        """Feed the suffix of ``events`` after the restored watermark.

        Call :meth:`recover` first; this filters ``events`` to timestamps
        strictly greater than the watermark of the checkpoint the last
        :meth:`recover` actually restored (all of them if nothing was
        restored) and feeds them through an incremental session, returning
        the derived outputs.  The session is closed before returning, so
        the backend's run ends here.
        """
        watermark = self._last_restored
        suffix = [
            e for e in events if watermark is None or e.timestamp > watermark
        ]
        session = EngineSession(engine)
        outputs = session.feed(suffix)
        outputs.extend(session.flush())
        session.close()
        return outputs

    def recover_and_replay(
        self, engine: "CaesarEngine", events: Iterable[Event]
    ) -> tuple[TimePoint | None, list[Event]]:
        """Convenience: :meth:`recover` then :meth:`replay`.

        Returns ``(watermark, replayed_outputs)``.  Outputs emitted by the
        crashed run up to ``watermark`` plus ``replayed_outputs`` equal the
        uninterrupted run's outputs (the determinism-of-recovery contract).
        """
        watermark = self.recover(engine)
        return watermark, self.replay(engine, events)
