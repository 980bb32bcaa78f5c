"""Fixtures shared by the test modules."""

import pytest

from segrenum import GenericityError, vogel


@pytest.fixture
def draws(monkeypatch):
    """Counts Vogel sequence draws as ``count[0]``; the first ``fail[0]``
    draws raise GenericityError.  Returns (count, fail)."""
    count, fail = [0], [0]
    real = vogel.random_vogel_sequence

    def counted(*args, **kwargs):
        count[0] += 1
        if count[0] <= fail[0]:
            raise GenericityError("scripted failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(vogel, "random_vogel_sequence", counted)
    return count, fail
