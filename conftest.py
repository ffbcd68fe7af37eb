"""Test-session set-up: one BLAS thread, as ``perfbench/run.py`` uses.

The variables are read once, when numpy loads its BLAS, so they are set
here, before any test module imports numpy.  The suite's dense solves
are small: with two threads they ran several times slower, and the
suite's time moved with the machine's load.  Child interpreters that the
tests start inherit the setting.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
