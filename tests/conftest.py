"""Suite-wide set-up.

The library is single-threaded numpy. On its array sizes a second BLAS
thread mostly spins, so the suite pins BLAS and OpenMP to one thread. This
must happen before numpy is first imported; a value already set in the
environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
