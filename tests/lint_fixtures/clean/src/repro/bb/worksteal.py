"""Fixture twin: worker hand-off state under its declared discipline (clean)."""

import threading


class HandOff:
    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = 0  # guarded-by: _lock
        self._done = threading.Event()
        self._value = None  # confined-to: _finish, result
        self._scratch = None  # no annotation: never checked

    def submit(self):
        with self._lock:
            self._inflight += 1

    def _finish(self, value):
        self._value = value
        self._done.set()

    def result(self):
        self._done.wait()
        return self._value

    def debug_value(self):  # repro-lint: ignore[guarded-by] -- post-join diagnostic read
        return self._value

    def idle(self):
        with self._lock:
            return self._inflight == 0

    def touch(self):
        self._scratch = object()
