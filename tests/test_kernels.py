"""Tests for :mod:`repro.core.kernels`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bb.frontier import Trail, branch_block, root_block
from repro.core.kernels import (
    KernelLaunch,
    bounding_kernel,
    bounding_kernel_batch,
)
from repro.flowshop.bounds import lower_bound, lower_bound_batch


class TestKernelWrappers:
    def test_scalar_kernel_matches_lower_bound(self, small_instance_data):
        assert bounding_kernel(small_instance_data, [0, 2]) == lower_bound(
            small_instance_data, [0, 2]
        )

    def test_batch_kernel_matches_lower_bound_batch(self, small_instance, small_instance_data):
        root = root_block(small_instance, Trail())
        children = branch_block(root, small_instance.processing_times, 1)
        mask, release = children.scheduled_mask, children.release
        assert np.array_equal(
            bounding_kernel_batch(small_instance_data, mask, release),
            lower_bound_batch(small_instance_data, mask, release),
        )


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
