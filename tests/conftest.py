import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from efalg.catalog import enumerate_all, named_catalog


@pytest.fixture(scope="session")
def catalog():
    return named_catalog()


@pytest.fixture(scope="session")
def enumerated_6():
    return tuple(enumerate_all(6))


@pytest.fixture(scope="session")
def universe_6(catalog, enumerated_6):
    """Named catalog plus every isomorphism class up to order 6."""
    out = list(catalog)
    for i, alg in enumerate(enumerated_6):
        out.append((f"enum-{alg.order}-{i:03d}", alg))
    return out


@pytest.fixture(scope="session")
def enumerated_10():
    """Every isomorphism class up to order 10."""
    return tuple(enumerate_all(10, bound=10))


@pytest.fixture(scope="session")
def enumerated_9(enumerated_10):
    """Every isomorphism class up to order 9: the same stream, cut at order 9."""
    return tuple(alg for alg in enumerated_10 if alg.order <= 9)


@pytest.fixture(scope="session")
def enumerated_8(enumerated_9):
    """Every isomorphism class up to order 8: the same stream, cut at order 8."""
    return tuple(alg for alg in enumerated_9 if alg.order <= 8)
