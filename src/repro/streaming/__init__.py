"""Streaming subsystem: sliding-window databases and Pattern-Fusion per slide.

The live-traffic workload layer: transactions arrive as a stream
(:mod:`repro.streaming.sources`), a :class:`SlidingWindowDatabase` holds
the current window's rows (:mod:`repro.streaming.window`), an
:class:`IncrementalPatternFusion` driver runs Pattern-Fusion cold on the
window at every slide (:mod:`repro.streaming.incremental`), and a
:class:`DriftReport` records the per-slide pattern births/deaths telemetry
(:mod:`repro.streaming.report`).
"""

from repro.streaming.incremental import IncrementalPatternFusion, slide_seed
from repro.streaming.report import DriftReport, SlideStats
from repro.streaming.sources import (
    DriftingPatternSource,
    FimiReplaySource,
    ReplaySource,
    TransactionSource,
)
from repro.streaming.window import SlidingWindowDatabase

__all__ = [
    "SlidingWindowDatabase",
    "IncrementalPatternFusion",
    "slide_seed",
    "DriftReport",
    "SlideStats",
    "TransactionSource",
    "ReplaySource",
    "FimiReplaySource",
    "DriftingPatternSource",
]
