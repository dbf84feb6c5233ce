import pytest

from fano_wci import catalog as catalog_module
from fano_wci.catalog import load_catalog


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture
def empty_load_cache(monkeypatch):
    """No catalog text loaded yet in this process, so the test's first load
    of a text parses it and derives its Members afresh."""
    monkeypatch.setattr(catalog_module, "_PARSED", {})
