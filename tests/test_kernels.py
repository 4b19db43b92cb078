"""Tests for :mod:`repro.core.kernels`."""

from __future__ import annotations

import pytest

from repro.core.kernels import KernelLaunch


class TestKernelLaunch:
    def test_paper_notation(self):
        launch = KernelLaunch(262144, 256)
        assert launch.n_blocks == 1024
        assert launch.label() == "1024x256"
        assert launch.idle_threads == 0

    def test_partial_last_block(self):
        launch = KernelLaunch(1000, 256)
        assert launch.n_blocks == 4
        assert launch.n_threads == 1024
        assert launch.idle_threads == 24

    def test_empty_pool(self):
        launch = KernelLaunch(0, 256)
        assert launch.n_blocks == 0
        assert launch.n_threads == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelLaunch(-1, 256)
        with pytest.raises(ValueError):
            KernelLaunch(10, 0)
