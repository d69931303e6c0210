"""Backend selection for the tidset kernel layer.

Two interchangeable implementations of :class:`repro.kernels.TidsetMatrix`
exist: a pure-stdlib one (Python big-int bitmasks) and a NumPy one
(tidsets packed into uint64 word arrays, batched popcount/AND/OR).
Results are bit-identical by contract — the property tests assert it — so
which one runs is purely a speed decision, resolved here:

1. an explicit :func:`set_backend` / :func:`use_backend` override wins;
2. else the ``REPRO_KERNELS`` environment variable (``stdlib``, ``numpy``,
   or ``auto``);
3. else auto-detection: ``numpy`` when importable, ``stdlib`` otherwise.

The CLI's ``--backend`` flag and the ``backend`` config knob of the fusion
drivers both funnel into this module, so every layer — serial, parallel,
streaming, store — agrees on one answer per process.
"""

from __future__ import annotations

import importlib
import os
from collections.abc import Iterator
from contextlib import contextmanager

__all__ = [
    "AUTO",
    "BACKENDS",
    "ENV_VAR",
    "available_backends",
    "backend",
    "numpy_available",
    "set_backend",
    "use_backend",
]

#: The implemented backends, in preference order.
BACKENDS = ("numpy", "stdlib")

#: The non-backend sentinel: defer to env / auto-detection.
AUTO = "auto"

#: Environment variable consulted when no explicit override is set.
ENV_VAR = "REPRO_KERNELS"

_forced: str | None = None
_numpy_probe: bool | None = None


def _import_numpy():
    """Import hook kept separate so tests can simulate a numpy-less install."""
    return importlib.import_module("numpy")


def numpy_available() -> bool:
    """True when numpy can be imported (probed once, cached)."""
    global _numpy_probe
    if _numpy_probe is None:
        try:
            _import_numpy()
        except ImportError:
            _numpy_probe = False
        else:
            _numpy_probe = True
    return _numpy_probe


def _reset_probe_cache() -> None:
    """Forget the numpy probe result (test hook)."""
    global _numpy_probe
    _numpy_probe = None


def available_backends() -> tuple[str, ...]:
    """The backends usable in this environment (``stdlib`` always is)."""
    return BACKENDS if numpy_available() else ("stdlib",)


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown kernels backend {name!r}; "
            f"valid: {', '.join(BACKENDS)} (or {AUTO!r})"
        )
    if name == "numpy" and not numpy_available():
        raise ValueError(
            "kernels backend 'numpy' requested but numpy is not installed; "
            "it is a required dependency: pip install 'numpy>=1.24'"
        )
    return name


def backend() -> str:
    """The active backend name (override > ``REPRO_KERNELS`` > auto)."""
    if _forced is not None:
        return _forced
    env = os.environ.get(ENV_VAR, "").strip().lower()
    if env and env != AUTO:
        return _validate(env)
    return "numpy" if numpy_available() else "stdlib"


def set_backend(name: str | None) -> None:
    """Force a backend process-wide (``None`` / ``"auto"`` clears the force)."""
    global _forced
    _forced = None if name is None or name == AUTO else _validate(name)


@contextmanager
def use_backend(name: str | None) -> Iterator[None]:
    """Scoped :func:`set_backend`: force ``name`` inside the ``with`` block.

    ``None`` / ``"auto"`` is a no-op (the ambient selection stays in effect),
    which is what lets config knobs default to ``auto`` without clobbering an
    explicit CLI or environment choice.
    """
    global _forced
    if name is None or name == AUTO:
        yield
        return
    previous = _forced
    set_backend(name)
    try:
        yield
    finally:
        _forced = previous
