"""Tests for the parameter registry, expression language and configuration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.pfs.config import PfsConfig
from repro.pfs.expressions import ExpressionError, evaluate

LUSTRE = get_backend("lustre")


class TestRegistry:
    def test_thirteen_selected_parameters(self):
        selected = LUSTRE.selected_parameter_names()
        assert len(selected) == 13
        assert "lov.stripe_size" in selected
        assert "lov.stripe_count" in selected
        assert "llite.statahead_max" in selected
        assert "mdc.max_mod_rpcs_in_flight" in selected

    def test_binary_parameters_not_selected(self):
        for spec in LUSTRE.registry.values():
            if spec.binary:
                assert not spec.selected, f"{spec.name} is binary but selected"

    def test_readonly_parameters_not_writable(self):
        assert not LUSTRE.registry["lov.version"].writable
        assert not LUSTRE.registry["llite.stats"].writable

    def test_defaults_match_lustre(self):
        d = LUSTRE.defaults()
        assert d["lov.stripe_count"] == 1
        assert d["lov.stripe_size"] == 1024 * 1024
        assert d["osc.max_rpcs_in_flight"] == 8
        assert d["osc.max_pages_per_rpc"] == 256
        assert d["mdc.max_mod_rpcs_in_flight"] == 7
        assert d["llite.statahead_max"] == 32

    def test_get_by_basename(self):
        assert LUSTRE.param("statahead_max").name == "llite.statahead_max"
        assert LUSTRE.param("llite.statahead_max").name == "llite.statahead_max"

    def test_get_ambiguous_basename(self):
        # max_rpcs_in_flight exists for both osc and mdc.
        with pytest.raises(KeyError, match="ambiguous"):
            LUSTRE.param("max_rpcs_in_flight")

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            LUSTRE.param("warp_factor")

    def test_selected_params_have_full_docs(self):
        for spec in LUSTRE.registry.values():
            if spec.selected:
                assert spec.doc == "full", f"{spec.name} must be documented"
                assert spec.description
                assert spec.perf_note

    def test_every_writable_param_has_bounds(self):
        for spec in LUSTRE.writable_specs():
            assert spec.min_expr is not None, spec.name
            assert spec.max_expr is not None, spec.name


class TestExpressions:
    ENV = {
        "system_memory_mb": 200704.0,
        "n_ost": 5.0,
        "llite.max_read_ahead_mb": 64.0,
        "mdc.max_rpcs_in_flight": 8.0,
    }

    def test_constant(self):
        assert evaluate("42", self.ENV) == 42.0

    def test_arithmetic(self):
        assert evaluate("2 + 3 * 4", self.ENV) == 14.0
        assert evaluate("(2 + 3) * 4", self.ENV) == 20.0
        assert evaluate("7 // 2", self.ENV) == 3.0
        assert evaluate("-5 + 1", self.ENV) == -4.0

    def test_identifier_lookup(self):
        assert evaluate("system_memory_mb / 2", self.ENV) == 100352.0

    def test_dotted_identifier(self):
        assert evaluate("llite.max_read_ahead_mb / 2", self.ENV) == 32.0

    def test_basename_fallback(self):
        assert evaluate("max_read_ahead_mb / 2", self.ENV) == 32.0

    def test_min_max_calls(self):
        assert evaluate("min(10, n_ost)", self.ENV) == 5.0
        assert evaluate("max(1, n_ost - 10)", self.ENV) == 1.0

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            evaluate("bogus + 1", self.ENV)

    def test_division_by_zero(self):
        with pytest.raises(ExpressionError, match="division by zero"):
            evaluate("1 / 0", self.ENV)

    def test_disallowed_constructs(self):
        for bad in ("__import__('os')", "x ** 2", "[1,2]", "'a'", "f(1)", "min()"):
            with pytest.raises(ExpressionError):
                evaluate(bad, {"x": 1.0})

    def test_syntax_error(self):
        with pytest.raises(ExpressionError, match="bad expression"):
            evaluate("2 +", self.ENV)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.integers(min_value=1, max_value=10**6),
        b=st.integers(min_value=1, max_value=10**6),
    )
    def test_arithmetic_matches_python(self, a, b):
        env = {"a": float(a), "b": float(b)}
        assert evaluate("a + b", env) == a + b
        assert evaluate("a * b", env) == a * b
        assert evaluate("min(a, b)", env) == min(a, b)
        assert evaluate("a // b", env) == a // b


class TestPfsConfig:
    def test_defaults_are_valid(self):
        PfsConfig.default().validate()

    def test_set_and_get(self):
        config = PfsConfig.default()
        config["osc.max_rpcs_in_flight"] = 32
        assert config["osc.max_rpcs_in_flight"] == 32
        assert config["max_pages_per_rpc"] == 256  # basename lookup

    def test_readonly_rejected(self):
        config = PfsConfig.default()
        with pytest.raises(PermissionError):
            config["lov.version"] = 9

    def test_static_range_violation(self):
        config = PfsConfig.default()
        config["osc.max_rpcs_in_flight"] = 10_000
        violations = config.violations()
        assert any(v.name == "osc.max_rpcs_in_flight" for v in violations)
        with pytest.raises(ValueError, match="invalid configuration"):
            config.validate()

    def test_dependent_range_mod_rpcs(self):
        config = PfsConfig.default()
        config["mdc.max_rpcs_in_flight"] = 16
        config["mdc.max_mod_rpcs_in_flight"] = 16  # must be < 16
        assert any(
            v.name == "mdc.max_mod_rpcs_in_flight" for v in config.violations()
        )
        config["mdc.max_mod_rpcs_in_flight"] = 15
        config.validate()

    def test_dependent_range_readahead_chain(self):
        config = PfsConfig.default()
        config["llite.max_read_ahead_mb"] = 100
        config["llite.max_read_ahead_per_file_mb"] = 51  # > 100/2
        assert any(
            v.name == "llite.max_read_ahead_per_file_mb"
            for v in config.violations()
        )

    def test_readahead_capped_by_memory(self):
        config = PfsConfig(facts={"system_memory_mb": 1024, "n_ost": 5})
        config["llite.max_read_ahead_mb"] = 513
        assert config.violations()
        config["llite.max_read_ahead_mb"] = 512
        config["llite.max_cached_mb"] = 1024
        config.validate()

    def test_clipped_restores_validity(self):
        config = PfsConfig.default()
        config["osc.max_rpcs_in_flight"] = 100_000
        config["mdc.max_mod_rpcs_in_flight"] = 500
        clipped = config.clipped()
        clipped.validate()
        assert clipped["osc.max_rpcs_in_flight"] == 256

    def test_clipped_handles_dependent_chain(self):
        config = PfsConfig.default()
        config["llite.max_read_ahead_mb"] = 10
        config["llite.max_read_ahead_per_file_mb"] = 400
        config["llite.max_read_ahead_whole_mb"] = 500
        clipped = config.clipped()
        clipped.validate()
        assert clipped["llite.max_read_ahead_per_file_mb"] <= 5

    def test_stripe_count_bounds_use_n_ost(self):
        config = PfsConfig(facts={"system_memory_mb": 196 * 1024, "n_ost": 5})
        config["lov.stripe_count"] = 6
        assert config.violations()
        config["lov.stripe_count"] = -1
        config.validate()

    def test_boolean_params(self):
        config = PfsConfig.default()
        config["osc.checksums"] = 3
        assert any(v.name == "osc.checksums" for v in config.violations())
        config["osc.checksums"] = 0
        config.validate()

    def test_with_updates_and_diff(self):
        base = PfsConfig.default()
        new = base.with_updates({"osc.max_rpcs_in_flight": 64})
        assert base["osc.max_rpcs_in_flight"] == 8
        diff = base.diff(new)
        assert diff == {"osc.max_rpcs_in_flight": (8, 64)}

    def test_equality_and_copy(self):
        one = PfsConfig.default()
        two = one.copy()
        assert one == two
        two["osc.max_dirty_mb"] = 64
        assert one != two

    def test_summarize_nondefault(self):
        config = PfsConfig.default()
        assert config.summarize() == "(all defaults)"
        config["lov.stripe_count"] = 5
        assert "lov.stripe_count = 5" in config.summarize()

    @settings(max_examples=40, deadline=None)
    @given(
        rpcs=st.integers(min_value=-10, max_value=10_000),
        mod=st.integers(min_value=-10, max_value=10_000),
        ra=st.integers(min_value=-10, max_value=10**6),
        per_file=st.integers(min_value=-10, max_value=10**6),
    )
    def test_clipped_always_valid(self, rpcs, mod, ra, per_file):
        config = PfsConfig.default()
        config["mdc.max_rpcs_in_flight"] = rpcs
        config["mdc.max_mod_rpcs_in_flight"] = mod
        config["llite.max_read_ahead_mb"] = ra
        config["llite.max_read_ahead_per_file_mb"] = per_file
        clipped = config.clipped()
        assert clipped.violations() == []
