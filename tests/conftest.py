"""A warning that escapes a tier-1 test fails it; a test that expects one
catches it with pytest.warns. The benchmark's tests under perfbench/ keep
pytest's default filters."""

from pathlib import Path

import pytest

TESTS = Path(__file__).parent

# hypothesis imports libcst to write a failing example's patch, and that
# import warns; as an error it would abort the session at the first failure.
LIBCST_IMPORT = "ignore::DeprecationWarning:libcst"


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.is_relative_to(TESTS):
            # Prepended, so that a test's own filterwarnings mark still wins.
            item.add_marker(pytest.mark.filterwarnings("error", LIBCST_IMPORT), append=False)
