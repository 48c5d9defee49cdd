"""Shared pytest fixtures."""

from __future__ import annotations

import pytest

from repro import cc, cccc


@pytest.fixture
def empty():
    """The empty CC context."""
    return cc.Context.empty()


@pytest.fixture
def empty_target():
    """The empty CC-CC context."""
    return cccc.Context.empty()


@pytest.fixture
def recovery(monkeypatch):
    """Patch the pool's recovery constants: ``recovery(SUSPECT_AFTER=2)``."""
    from repro.service import dispatcher

    def patch(**values):
        for name, value in values.items():
            monkeypatch.setattr(dispatcher, name, value)

    return patch
