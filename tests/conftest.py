import pytest

from quasicyc import cyclic


@pytest.fixture(autouse=True)
def fresh_operator_store():
    """Each test starts with an empty row store, so rows built before a
    test patches an atom builder are never read under the patch."""
    cyclic.operators.cache_clear()
    yield
