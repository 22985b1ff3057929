"""Pin BLAS to one thread for the whole test run, before numpy is imported.

The suite's matrix products are small (256-wide layers, 128-row batches)
and gain nothing from a second BLAS thread, which only doubles the
processor time of the training tests. This file sits at the repository
root because pytest imports ``bench/test_bench.py``, and with it numpy,
before it reaches ``tests/conftest.py``. A value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
