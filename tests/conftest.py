"""Shared fixtures for the test suite."""

import subprocess

import numpy as np
import pytest


@pytest.fixture
def rng():
    """A fresh seeded generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_images(rng):
    """A small batch of NCHW images."""
    return rng.normal(size=(4, 3, 8, 8))


@pytest.fixture
def head_sha():
    """``git rev-parse HEAD`` of the work tree holding the current
    directory, or ``None`` outside a git work tree (e.g. an unpacked
    ``git archive``)."""
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return None
    return probe.stdout.strip() if probe.returncode == 0 else None
