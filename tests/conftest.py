import pytest

from quasicyc import cyclic


@pytest.fixture(autouse=True)
def fresh_operator_store():
    """Each test starts with an empty row store, plain and twisted, so rows
    built before a test patches an atom builder or the row conjugation are
    never read under the patch."""
    cyclic._operator_store.cache_clear()
    yield
