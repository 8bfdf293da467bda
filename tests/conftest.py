import pytest

from quasicyc import cyclic, twist


@pytest.fixture(autouse=True)
def fresh_operator_store():
    """Each test starts with an empty row store and no twisted view, so
    rows built before a test patches an atom builder or the row conjugator
    are never read under the patch."""
    cyclic.operators.cache_clear()
    twist.twisted_rows.cache_clear()
    yield
