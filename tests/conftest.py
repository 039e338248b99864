"""Suite-wide set-up: one BLAS thread, as in the benchmark.

Threaded BLAS splits a matrix-vector product into row ranges that depend
on the number of cores, and a range that starts inside one of the
kernel's row groups rounds some dot products differently.  The golden
training digests and the bit-for-bit update tests pin the bits of such
products, so they hold only with one thread.  OpenBLAS reads these variables when numpy loads
it, which is after pytest loads this file.
"""
import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[var] = "1"
