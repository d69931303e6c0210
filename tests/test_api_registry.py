"""Registry completeness: every miner registered, capabilities accurate,
configs round-tripping through to_dict/from_dict (hypothesis over knobs)."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import (
    Capabilities,
    MINERS,
    Miner,
    MinerConfig,
    create_miner,
    get_miner_spec,
    miner_names,
)
from repro.core import PatternFusionConfig
from repro.core.pattern_fusion import PatternFusionMinerConfig
from repro.db import TransactionDatabase
from repro.mining import closed_patterns, eclat, maximal_patterns

EXPECTED_MINERS = {
    "closed",
    "eclat",
    "levelwise",
    "maximal",
    "parallel_pattern_fusion",
    "pattern_fusion",
    "sequence_fusion",
    "stream_fusion",
    "topk",
}


@pytest.fixture(scope="module")
def toy_db():
    rows = [[0, 1, 4], [0, 1], [1, 2], [0, 1, 2], [0, 2, 3], [0, 1, 2, 3]]
    return TransactionDatabase(rows, n_items=5)


def pattern_key(result):
    return sorted((p.sorted_items(), p.tidset) for p in result.patterns)


class TestCompleteness:
    def test_every_public_miner_is_registered(self):
        assert set(miner_names()) == EXPECTED_MINERS

    def test_specs_are_well_formed(self):
        for name in miner_names():
            spec = MINERS[name]
            assert spec.name == name == spec.cls.name
            assert issubclass(spec.cls, Miner)
            assert issubclass(spec.config_type, MinerConfig)
            assert dataclasses.is_dataclass(spec.config_type)
            assert isinstance(spec.capabilities, Capabilities)
            assert spec.summary, f"{name} lacks a summary"
            # Every knob carries a default: Miner() must be constructible.
            assert spec.config_type() is not None

    def test_describe_is_json_ready(self):
        for name in miner_names():
            payload = json.dumps(MINERS[name].describe())
            assert name in payload

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="eclat"):
            get_miner_spec("definitely_not_a_miner")
        with pytest.raises(ValueError, match="unknown miner"):
            create_miner("definitely_not_a_miner")


class TestCapabilitiesAccuracy:
    """The flags must describe real behavior, checked against oracles."""

    MINSUP = 2

    def test_complete_miners_match_eclat(self, toy_db):
        oracle = {p.items for p in eclat(toy_db, self.MINSUP).patterns}
        for name in miner_names():
            spec = MINERS[name]
            if not spec.capabilities.complete:
                continue
            knobs = {"minsup": self.MINSUP}
            if name == "levelwise":
                knobs["max_size"] = toy_db.n_items  # uncapped = complete
            mined = {p.items for p in create_miner(name, **knobs).mine(toy_db).patterns}
            assert mined == oracle, name

    def test_closed_miners_match_closed_set(self, toy_db):
        oracle = {p.items for p in closed_patterns(toy_db, self.MINSUP).patterns}
        for name in miner_names():
            spec = MINERS[name]
            if not spec.capabilities.closed or spec.capabilities.top_k:
                continue
            mined = {
                p.items
                for p in create_miner(name, minsup=self.MINSUP).mine(toy_db).patterns
            }
            assert mined == oracle, name

    def test_topk_returns_closed_subset(self, toy_db):
        oracle = {p.items for p in closed_patterns(toy_db, 1).patterns}
        result = create_miner("topk", k=3).mine(toy_db)
        assert len(result) == 3
        assert {p.items for p in result.patterns} <= oracle

    def test_maximal_miners_match_maximal_set(self, toy_db):
        oracle = {p.items for p in maximal_patterns(toy_db, self.MINSUP).patterns}
        for name in miner_names():
            if not MINERS[name].capabilities.maximal:
                continue
            mined = {
                p.items
                for p in create_miner(name, minsup=self.MINSUP).mine(toy_db).patterns
            }
            assert mined == oracle, name

    def test_streaming_miners_implement_update(self, toy_db):
        for name in miner_names():
            spec = MINERS[name]
            miner = spec.cls()
            if spec.capabilities.streaming:
                assert type(miner).update is not Miner.update, name
                assert type(miner).partial_mine is not Miner.partial_mine, name
            else:
                with pytest.raises(NotImplementedError):
                    miner.update([[0, 1]])

    def test_parallel_miners_expose_jobs_knob(self):
        for name in miner_names():
            spec = MINERS[name]
            if spec.capabilities.parallel:
                assert "jobs" in spec.config_type.knob_names(), name

    def test_exactly_one_sequence_miner(self):
        sequence_miners = [
            name for name in miner_names() if MINERS[name].capabilities.sequences
        ]
        assert sequence_miners == ["sequence_fusion"]

    def test_fusion_configs_cover_every_algorithm_knob(self):
        """The flattened driver configs can never fall behind the core config.

        ``sequence_fusion`` takes only the knobs the loop reads for
        sequences; ``tests/test_sequences.py`` proves each of them live.
        """
        core_knobs = {f.name for f in dataclasses.fields(PatternFusionConfig)}
        assert core_knobs <= set(PatternFusionMinerConfig.knob_names())
        for name in ("pattern_fusion", "parallel_pattern_fusion", "stream_fusion"):
            assert core_knobs <= set(MINERS[name].config_type.knob_names()), name


def _knob_strategy(field: dataclasses.Field) -> st.SearchStrategy:
    """A value strategy per knob, driven by the declared type string."""
    type_string = str(field.type)
    if field.name == "minsup":
        return st.one_of(st.integers(1, 30), st.floats(0.05, 1.0))
    if field.name == "tau":
        return st.floats(0.1, 1.0)
    options: list[st.SearchStrategy] = []
    if "None" in type_string:
        options.append(st.none())
    if "bool" in type_string:
        options.append(st.booleans())
    elif "float" in type_string:
        options.append(st.floats(0.1, 60.0))
    elif "int" in type_string:
        options.append(st.integers(1, 100))
    if not options:  # pragma: no cover - no such knob today
        options.append(st.text(max_size=5))
    return st.one_of(options)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name", sorted(EXPECTED_MINERS))
def test_config_json_round_trip(name, data):
    """from_dict(json(to_dict(cfg))) == cfg for arbitrary valid knob values."""
    config_type = MINERS[name].config_type
    values = {}
    for field in dataclasses.fields(config_type):
        if data.draw(st.booleans(), label=f"set {field.name}?"):
            values[field.name] = data.draw(
                _knob_strategy(field), label=field.name
            )
    try:
        config = config_type.from_dict(values)
    except ValueError:
        return  # the knobs' own validation rejected the draw — fine
    restored = config_type.from_dict(json.loads(json.dumps(config.to_dict())))
    assert restored == config


class TestConfigErrors:
    def test_unknown_key_names_the_valid_ones(self):
        for name in sorted(EXPECTED_MINERS):
            config_type = MINERS[name].config_type
            with pytest.raises(ValueError) as excinfo:
                config_type.from_dict({"no_such_knob": 1})
            message = str(excinfo.value)
            assert "no_such_knob" in message
            assert config_type.knob_names()[0] in message

    def test_miner_rejects_wrong_config_type(self):
        from repro.mining.closed import ClosedConfig
        from repro.mining.eclat import EclatMiner

        with pytest.raises(TypeError):
            EclatMiner(ClosedConfig())

    def test_overrides_on_ready_config(self):
        from repro.mining.eclat import EclatConfig, EclatMiner

        miner = EclatMiner(EclatConfig(minsup=5), max_size=2)
        assert miner.config == EclatConfig(minsup=5, max_size=2)
