import pytest

from pne import bench
from pne.bench import suite_names


@pytest.mark.parametrize("suite", suite_names())
def test_exactness_selftest(suite):
    # run_suite reports this check after the suite's whole run; a suite
    # whose self-check preset is missing or broken fails here first.
    assert bench._identity_selftest(suite, seed=0)
