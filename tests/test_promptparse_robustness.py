"""Robustness tests for the prompt contract parsers.

The mock backend "reads" prompts the way a model attends to context; the
parsers must degrade gracefully on malformed or partial sections rather
than crash the agent loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.llm import promptparse as pp


class TestSectionSplitting:
    def test_no_sections(self):
        assert pp.split_sections("just some text") == {}

    def test_section_without_body(self):
        sections = pp.split_sections("## IO REPORT\n## TUNING HISTORY\nx")
        assert sections["IO REPORT"] == ""
        assert sections["TUNING HISTORY"] == "x"

    def test_lowercase_headers_ignored(self):
        assert "io report" not in pp.split_sections("## io report\nbody")


class TestMalformedInputs:
    def test_history_with_garbage_lines(self):
        initial, attempts = pp.parse_history_section(
            "initial run (default configuration): 10.000s\n"
            "attempt one: not parseable\n"
            'attempt 1: changes {"a": 1} -> runtime 5.000s (speedup 2.000x)\n'
            "random trailing noise"
        )
        assert initial == 10.0
        assert len(attempts) == 1
        assert attempts[0].changes == {"a": 1}

    def test_history_empty(self):
        initial, attempts = pp.parse_history_section("")
        assert initial == 0.0 and attempts == []

    def test_io_report_with_bad_metric_lines(self):
        report = pp.parse_io_report(
            "summary: ok\nmetric good = 1.5\nmetric bad = not-a-number\nmetric = 3"
        )
        assert report.metrics == {"good": 1.5}

    def test_parameter_section_partial_entries(self):
        params = pp.parse_parameter_section(
            "- parameter: osc.max_rpcs_in_flight\n"
            "  default: 8\n"
            "- parameter: llite.statahead_max\n"
            "  range: 0 .. 8192\n"
        )
        assert len(params) == 2
        assert params[0].default == 8
        assert params[0].min_expr == "0"  # unparsed range keeps safe default
        assert params[1].max_expr == "8192"

    def test_rules_section_invalid_json_raises(self):
        with pytest.raises(Exception):
            pp.parse_rules_section("{not json")

    def test_hardware_facts_ignore_non_fact_lines(self):
        facts = pp.parse_hardware_facts(
            "Cluster of things\nfact n_ost = 5\nfactoid x = 2\nfact bad = ?"
        )
        assert facts == {"n_ost": 5.0}


#: Lines each parser's pattern accepts but whose values do not convert.
#: Attempt lines wrap a changes payload in an otherwise valid record.
ATTEMPT = "attempt 2: changes {changes} -> runtime {seconds}s (speedup 2.000x)"


class TestRegexAcceptedButUnconvertible:
    """Lines a parser's regex accepts but whose conversion fails are
    skipped like garbage lines, never raised."""

    @pytest.mark.parametrize(
        "line",
        [
            ATTEMPT.format(changes='{"a": "x"}', seconds="5.000"),
            ATTEMPT.format(changes='{"a": 1,}', seconds="5.000"),
            ATTEMPT.format(changes='{"a": [1]}', seconds="5.000"),
            ATTEMPT.format(changes='{"a": 1e999}', seconds="5.000"),
            ATTEMPT.format(changes='{"a": 1}', seconds="5.0.0"),
        ],
    )
    def test_history_skips_unconvertible_attempt(self, line):
        initial, attempts = pp.parse_history_section(
            "initial run (default configuration): 10.000s\n"
            + line
            + '\nattempt 3: changes {"b": 2} -> runtime 4.000s (speedup 2.500x)'
        )
        assert initial == 10.0
        assert [(a.index, a.changes) for a in attempts] == [(3, {"b": 2})]

    def test_history_skips_unconvertible_initial_run(self):
        initial, attempts = pp.parse_history_section(
            "initial run (default configuration): 1.2.3s"
        )
        assert (initial, attempts) == (0.0, [])

    def test_io_report_skips_unconvertible_metric(self):
        report = pp.parse_io_report("metric a = 1e5e5\nmetric b = 2")
        assert report.metrics == {"b": 2.0}

    def test_hardware_facts_skip_unconvertible_fact(self):
        facts = pp.parse_hardware_facts("fact a = 1.2.3\nfact b = 3")
        assert facts == {"b": 3.0}

    @pytest.mark.parametrize("value", ["abc", "inf", "-inf", "nan", "1e999"])
    def test_parameter_section_skips_unconvertible_default(self, value):
        params = pp.parse_parameter_section(
            "- parameter: osc.max_rpcs_in_flight\n"
            f"  default: {value}\n"
            "  range: 1 .. 256\n"
            "- parameter: llite.statahead_max\n"
            "  default: 32\n"
        )
        assert [(p.name, p.default) for p in params] == [
            ("osc.max_rpcs_in_flight", 0),
            ("llite.statahead_max", 32),
        ]
        assert params[0].max_expr == "256"  # the entry's other fields survive

    @pytest.mark.parametrize(
        "body", ['{"a": 1}', "[1, 2]", '[{"a": 1}, "rule"]', '"rules"', "3"]
    )
    def test_rules_section_rejects_json_that_is_not_a_list_of_objects(self, body):
        with pytest.raises(ValueError, match="JSON list of rule objects"):
            pp.parse_rules_section(body)


@settings(max_examples=40, deadline=None)
@given(
    metrics=st.dictionaries(
        st.from_regex(r"[a-z][a-z_0-9]{0,15}", fullmatch=True),
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False),
        max_size=8,
    ),
    summary=st.text(
        alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
        max_size=80,
        # The report format is line-oriented; exclude the exotic unicode
        # line separators str.splitlines() also honours (\x0b, \x0c, \x85,
        #  , ...).
    ).filter(lambda s: len(f"x{s}x".splitlines()) == 1),
)
def test_io_report_round_trip_property(metrics, summary):
    report = pp.IOReport(summary=summary.strip(), metrics=metrics)
    parsed = pp.parse_io_report(pp.build_io_report_section(report))
    assert parsed.summary == summary.strip()
    for name, value in metrics.items():
        assert parsed.metrics[name] == pytest.approx(value, rel=1e-9, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    changes=st.dictionaries(
        st.sampled_from(
            ["osc.max_rpcs_in_flight", "lov.stripe_count", "llite.statahead_max"]
        ),
        st.integers(min_value=-1, max_value=10**6),
        min_size=1,
        max_size=3,
    ),
    seconds=st.floats(min_value=0.001, max_value=1e6),
    speedup=st.floats(min_value=0.001, max_value=100),
)
def test_history_round_trip_property(changes, seconds, speedup):
    record = pp.AttemptRecord(
        index=1, changes=changes, seconds=seconds, speedup=speedup
    )
    initial, attempts = pp.parse_history_section(
        pp.build_history_section(123.456, [record])
    )
    assert initial == pytest.approx(123.456)
    assert attempts[0].changes == changes
    assert attempts[0].seconds == pytest.approx(seconds, abs=1e-3)
    assert attempts[0].speedup == pytest.approx(speedup, abs=1e-3)
