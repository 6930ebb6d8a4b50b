import pytest

from cyclomag.separation import ORACLE_CAP_ENV


@pytest.fixture(autouse=True)
def _default_oracle_cap(monkeypatch):
    """Run every test at the default caps; a test that needs another cap sets it."""
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
