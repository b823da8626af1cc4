import os
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

# One spill root per test session: fixture-artifact cache keys do not
# include the code version, so a shared root would serve indexes that
# older code wrote.  Removed when the session ends.
SPILL_ROOT = tempfile.mkdtemp(prefix="pdfsearch_tests_")
os.environ["PDFSEARCH_SPILL_ROOT"] = SPILL_ROOT


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(SPILL_ROOT, ignore_errors=True)


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    yield
    ray.shutdown()
