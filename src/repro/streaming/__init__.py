"""Streaming subsystem: sliding-window databases and incremental Pattern-Fusion.

The live-traffic workload layer: transactions arrive as a stream
(:mod:`repro.streaming.sources`), a :class:`SlidingWindowDatabase` holds
the current window's rows (:mod:`repro.streaming.window`), an
:class:`IncrementalPatternFusion` driver keeps the colossal pattern pool
current across window slides, re-running Algorithm 2 only on a slide that
changes some pool membership (:mod:`repro.streaming.incremental`), and a
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
