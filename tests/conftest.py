"""Session-wide test settings and ordering."""
import os

# One BLAS thread, as bench/run.py uses: the solver's matrices are at most
# 128 wide, where OpenBLAS threads only add wake-up jitter. Set before any
# test module imports numpy; a value already in the environment wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def pytest_collection_modifyitems(config, items):
    # The unit tests finish in under a minute; the acceptance battery takes
    # about six minutes. Run the quick ones first so a broken build shows
    # at once. The sort is stable: each group keeps its file and definition
    # order, so the acceptance module's shared fixtures are built just once.
    items.sort(key=lambda item: item.get_closest_marker("acceptance") is not None)
