"""Test-session set-up shared by every test module."""

import os

# one BLAS thread before any test module imports numpy, as the package itself
# sets when it is imported first: seeded results repeat across machines
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
