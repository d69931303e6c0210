"""Backend-pluggable tidset kernels: batched bitset math for every hot loop.

The package's inner loops — Definition 6 distances, Theorem 2 ball queries,
Lemma 1 support intersections, the closure operator, store queries — all
reduce to popcount/AND/OR over tidsets.  :class:`TidsetMatrix` packs N
tidsets once and answers those primitives for all rows per call, behind two
bit-identical backends:

* ``stdlib`` — Python big-int bitmasks (the historical representation),
  with precomputed popcounts and early exits.
* ``numpy`` — N×W ``uint64`` word arrays with vectorized popcount
  (:func:`numpy.bitwise_count`, or an 8-bit LUT on older NumPy).

Selection (see :mod:`repro.kernels.backend`): auto-detect, overridable via
the ``REPRO_KERNELS`` environment variable, :func:`set_backend` /
:func:`use_backend`, the fusion configs' ``backend`` knob, and the CLI's
``--backend`` flag.  Because backends agree bit-for-bit, the choice is
purely about speed — ``benchmarks/test_kernels_bench.py`` tracks it in
``BENCH_kernels.json``.
"""

from repro.kernels.backend import (
    AUTO,
    BACKENDS,
    ENV_VAR,
    available_backends,
    backend,
    numpy_available,
    set_backend,
    use_backend,
)
from repro.kernels.matrix import StdlibTidsetMatrix, TidsetMatrix

__all__ = [
    "AUTO",
    "BACKENDS",
    "ENV_VAR",
    "available_backends",
    "backend",
    "numpy_available",
    "set_backend",
    "use_backend",
    "StdlibTidsetMatrix",
    "TidsetMatrix",
]
