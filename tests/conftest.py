"""Fixtures shared by every module under tests/."""

import pytest

from spochar import jacobitrudi


@pytest.fixture(scope="module", autouse=True)
def _fresh_power_tables():
    """Clear the process-wide Jacobi-Trudi power tables after each module, so
    a later module (perfbench's traced run among them) builds its own tables
    whatever ran before it."""
    yield
    jacobitrudi.power_table.cache_clear()
