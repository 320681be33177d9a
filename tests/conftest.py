import pytest

from hopfcheck.catalogue import Context


@pytest.fixture(scope="session")
def shared_ctx():
    """One Context for the whole session so expensive fixtures (the
    81-dimensional doubles in particular) are built once."""
    return Context((2, 3))
