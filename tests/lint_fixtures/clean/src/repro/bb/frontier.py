"""Fixture twin: explicit documented dtypes everywhere (dtype clean)."""

import numpy as np


def build_columns(n, like):
    depth = np.zeros(n, dtype=np.int32)
    key = np.empty(n, dtype=np.int64)
    mask = np.ones(n, dtype=np.bool_)
    bounds = np.zeros(n, dtype="float64")
    inherited = np.asarray(like, dtype=like.dtype)  # propagation: fine
    return depth, key, mask, bounds, inherited


class Store:
    def __init__(self, n):
        # every named column/index array carries its contract dtype
        self._lb = np.zeros(n, dtype=np.int32)
        self._key = np.zeros(n, dtype=np.int64)
        self._bits = np.zeros((n, 4), dtype=np.uint8)
        self._seg_key = np.full(n, 0, dtype=np.int64)
        self._seg_krow = np.zeros(n, dtype=np.int32)
        self._seg_omax = np.zeros(n, dtype=np.int32)
        self._seg_orow = np.zeros(n, dtype=np.int32)
        self._seg_dirty = np.ones(n, dtype=bool)
