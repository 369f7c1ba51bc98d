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
    out = [(e.name, e.algebra) for e in catalog]
    for i, alg in enumerate(enumerated_6):
        out.append((f"enum-{alg.order}-{i:03d}", alg))
    return out


@pytest.fixture(scope="session")
def enumerated_8():
    """Every isomorphism class up to order 8."""
    return tuple(enumerate_all(8, bound=8))
