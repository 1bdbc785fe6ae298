"""Test doubles shared across suites."""

from repro.runtime import SerialBackend


class RunCountingBackend(SerialBackend):
    """A serial backend that counts its ``begin_run``/``end_run`` calls.

    The serial backend holds nothing per run, so a run that is opened and
    never ended leaves no trace of its own; counting the two lifecycle
    calls makes such a leak observable without spawning any worker.
    """

    def __init__(self):
        self.begun = 0
        self.ended = 0

    def begin_run(self, engine):
        self.begun += 1

    def end_run(self, engine):
        self.ended += 1
