"""Per-slide drift telemetry for the streaming Pattern-Fusion driver.

Every window slide runs Pattern-Fusion cold on the window and yields one
:class:`SlideStats` record: what arrived, what was evicted, how both pools
changed against the previous slide's (births/deaths), and where the largest
pattern stands.  A :class:`DriftReport` collects the records and renders
them as the fixed-width table the ``repro stream`` subcommand prints, plus
the series accessors (largest-pattern trajectory, pool-size series) the
tests consume.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["SlideStats", "DriftReport"]


@dataclass(frozen=True, slots=True)
class SlideStats:
    """Telemetry for one window slide of the incremental driver."""

    index: int
    """0-based slide number."""
    arrived: int
    """Transactions in the slide's batch."""
    evicted: int
    """Transactions that left the window during the slide."""
    window_size: int
    """Window length after the slide."""
    minsup: int
    """Absolute minimum support resolved against the new window."""
    initial_pool_size: int
    """Size of the window's complete ≤L pool after the slide."""
    initial_births: int
    """≤L patterns that became frequent this slide."""
    initial_deaths: int
    """≤L patterns that fell below the threshold this slide."""
    pool_size: int
    """Fused (colossal) pool size after the slide."""
    births: int
    """Fused-pool patterns newly present after the slide."""
    deaths: int
    """Fused-pool patterns no longer present after the slide."""
    largest_size: int
    """Size of the largest fused pattern (0 for an empty pool)."""
    largest_support: int
    """Support of that largest pattern (0 for an empty pool)."""
    seconds: float
    """Wall-clock cost of the slide."""


_COLUMNS = (
    ("slide", "index"),
    ("+rows", "arrived"),
    ("-rows", "evicted"),
    ("window", "window_size"),
    ("minsup", "minsup"),
    ("≤L pool", "initial_pool_size"),
    ("+≤L", "initial_births"),
    ("-≤L", "initial_deaths"),
    ("pool", "pool_size"),
    ("births", "births"),
    ("deaths", "deaths"),
    ("largest", "largest_size"),
    ("support", "largest_support"),
    ("seconds", "seconds"),
)


class DriftReport:
    """Ordered collection of :class:`SlideStats` with rendering helpers."""

    def __init__(self) -> None:
        self.slides: list[SlideStats] = []

    def record(self, stats: SlideStats) -> None:
        self.slides.append(stats)

    def __len__(self) -> int:
        return len(self.slides)

    def __iter__(self):
        return iter(self.slides)

    @property
    def last(self) -> SlideStats:
        if not self.slides:
            raise IndexError("no slides recorded")
        return self.slides[-1]

    # ------------------------------------------------------------------
    # Series accessors
    # ------------------------------------------------------------------

    def largest_trajectory(self) -> list[tuple[int, int]]:
        """(slide, largest-pattern size) per slide — the headline drift series."""
        return [(s.index, s.largest_size) for s in self.slides]

    def pool_sizes(self) -> list[int]:
        """Fused pool size per slide."""
        return [s.pool_size for s in self.slides]

    def total_births(self) -> int:
        return sum(s.births for s in self.slides)

    def total_deaths(self) -> int:
        return sum(s.deaths for s in self.slides)

    def as_dicts(self) -> list[dict]:
        """Plain-dict rows, for JSON export (and pattern-store streams)."""
        return [asdict(s) for s in self.slides]

    @classmethod
    def from_dicts(cls, rows: list[dict]) -> "DriftReport":
        """Rebuild a report from :meth:`as_dicts` rows.

        The reload path for slides persisted to a pattern store
        (:meth:`repro.store.PatternStore.read_slides`): unknown keys raise
        naming the record, so a stream written by a future field set fails
        loudly instead of dropping telemetry.
        """
        report = cls()
        for index, row in enumerate(rows):
            try:
                report.record(SlideStats(**row))
            except TypeError as exc:
                raise ValueError(f"slide record {index}: {exc}") from None
        return report

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------

    def format(self) -> str:
        """Fixed-width per-slide table (the ``repro stream`` output)."""
        headers = [name for name, _ in _COLUMNS]
        rows = [
            [_fmt(getattr(s, attr)) for _, attr in _COLUMNS] for s in self.slides
        ]
        widths = [
            max(len(headers[i]), *(len(r[i]) for r in rows)) if rows
            else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            " | ".join(h.rjust(w) for h, w in zip(headers, widths)),
            "-+-".join("-" * w for w in widths),
        ]
        for row in rows:
            lines.append(" | ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def summary(self) -> str:
        """One line for logs: slides, churn, final largest pattern."""
        if not self.slides:
            return "drift report: no slides"
        final = self.last
        return (
            f"drift report: {len(self.slides)} slides, "
            f"{self.total_births()} births / {self.total_deaths()} deaths, "
            f"final pool {final.pool_size}, "
            f"largest {final.largest_size} @ support {final.largest_support}"
        )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
