import pytest
from hypothesis import settings

from cyclomag.separation import ORACLE_CAP_ENV

# Property tests run without hypothesis' per-example deadline, so a slow or
# loaded host cannot fail them; example counts stay as each test sets them.
settings.register_profile("no-deadline", deadline=None)
settings.load_profile("no-deadline")


@pytest.fixture(autouse=True)
def _default_oracle_cap(monkeypatch):
    """Run every test at the default caps; a test that needs another cap sets it."""
    monkeypatch.delenv(ORACLE_CAP_ENV, raising=False)
