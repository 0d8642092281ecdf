"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.config import default_platform_config, single_socket_config
from repro.platform import System
from repro.validate.differential import run_differential_suite


@pytest.fixture
def system() -> System:
    """A fresh dual-socket Table 1 platform."""
    return System(seed=1234)


@pytest.fixture
def solo_system() -> System:
    """A single-socket platform (cheaper for non-coupling tests)."""
    return System(single_socket_config(), seed=1234)


@pytest.fixture
def platform_config():
    """The default Table 1 configuration."""
    return default_platform_config()


@pytest.fixture(scope="session")
def differential_reports(tmp_path_factory):
    """One full run of the differential suite (eleven end-to-end
    checks), shared by every test that only inspects its reports."""
    return run_differential_suite(
        tmp_path_factory.mktemp("differential"), seed=0
    )
