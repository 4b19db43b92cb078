"""Fixture: worker hand-off state touched outside its declared discipline."""

import threading


class HandOff:
    def __init__(self):
        self._lock = threading.Lock()
        self._inflight = 0  # guarded-by: _lock
        self._done = threading.Event()
        self._value = None  # confined-to: _finish, result

    def submit(self):
        self._inflight += 1  # unlocked counter write: finding

    def _finish(self, value):
        self._value = value
        self._done.set()

    def result(self):
        self._done.wait()
        return self._value

    def peek(self):
        return self._value  # read outside the hand-off pair: finding

    def idle(self):
        with self._lock:
            return self._inflight == 0
