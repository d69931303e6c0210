"""Tidset kernels: batched bitset math for every hot loop.

The package's inner loops — Theorem 2 ball queries under the Definition 6
distance, the closure operator — all reduce to popcount/AND/OR over tidsets.
:class:`TidsetMatrix` packs N tidsets once into an N×W ``uint64`` word
array and answers those primitives for all rows per call, with vectorized
popcount (:func:`numpy.bitwise_count`, or an 8-bit LUT on older NumPy).
Reductions over a few big-int masks (Lemma 1 intersections, the store's
inverted index) stay plain ``int`` loops in :mod:`repro.db.bitset`, which
beat an array round trip at that size.

NumPy is imported when the first matrix is built, so importing the package
never loads it.  ``benchmarks/test_kernels_bench.py`` tracks the kernels'
speed in ``BENCH_kernels.json``.
"""

from repro.kernels.matrix import TidsetMatrix

__all__ = ["backend", "TidsetMatrix"]


def backend() -> str:
    """The tidset kernel implementation: always ``"numpy"``.

    Kept for environment records (``/debug/vars``, benchmark reports).
    """
    return "numpy"
