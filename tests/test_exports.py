"""Export hygiene: ``from repro import *``-visible names match ``__all__``.

Both directions, for every public package: every ``__all__`` entry must
resolve to a real attribute, and every public (non-module) name a package
binds must be listed in its ``__all__`` — no missing and no stale entries.
"""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

PUBLIC_PACKAGES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.datasets",
    "repro.db",
    "repro.engine",
    "repro.evaluation",
    "repro.experiments",
    "repro.kernels",
    "repro.mining",
    "repro.obs",
    "repro.resilience",
    "repro.sequences",
    "repro.serve",
    "repro.store",
    "repro.streaming",
]


@pytest.mark.parametrize("package", PUBLIC_PACKAGES)
def test_all_entries_resolve(package):
    module = importlib.import_module(package)
    declared = getattr(module, "__all__", None)
    assert declared is not None, f"{package} has no __all__"
    missing = [name for name in declared if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ has stale entries: {missing}"
    assert len(set(declared)) == len(declared), f"{package}.__all__ has duplicates"


@pytest.mark.parametrize("package", PUBLIC_PACKAGES)
def test_no_public_name_outside_all(package):
    module = importlib.import_module(package)
    declared = set(module.__all__)
    public = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    unlisted = public - declared
    assert not unlisted, f"{package} binds public names missing from __all__: " \
                         f"{sorted(unlisted)}"


def test_star_import_matches_all():
    """``from repro import *`` yields exactly ``repro.__all__``."""
    namespace: dict = {}
    exec("from repro import *", namespace)  # noqa: S102 - the point of the test
    imported = {name for name in namespace if not name.startswith("__")}
    import repro

    assert imported == set(repro.__all__) - {"__version__"}


def test_streaming_and_sequences_reachable_from_top_level():
    """The PR-2/PR-3 subsystems are first-class top-level exports."""
    import repro

    for name in (
        "SlidingWindowDatabase", "IncrementalPatternFusion", "SlideStats",
        "TransactionSource", "SequenceDatabase", "sequence_pattern_fusion",
        "prefixspan", "Miner", "MINERS", "Pipeline",
        "PatternStore", "Query", "mine_cached", "PatternServer",
        "dataset_fingerprint",
    ):
        assert name in repro.__all__, name
        assert hasattr(repro, name), name


def test_import_leaves_numpy_unloaded():
    """NumPy is required but imported lazily, when a ball is fused: the
    package's import time (the benchmark's ``setup_s``) never pays for it."""
    code = (
        "import sys, repro, repro.core, repro.engine; "
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert out.stdout.strip() == "False"
