"""Tests for the mock LLM substrate: tokens, cache, profiles, knowledge,
prompt parsing and the backend dispatch."""

import json

import pytest

from repro.llm import (
    ChatMessage,
    LLMClient,
    PromptCache,
    TokenUsage,
    ToolSpec,
    UsageLedger,
    count_tokens,
    get_profile,
)
from repro.llm import promptparse as pp
from repro.llm.knowledge import MISCONCEPTIONS, parametric_belief
from repro.llm.profiles import MODEL_PROFILES


class TestTokens:
    def test_count_scales_with_length(self):
        assert count_tokens("") == 0
        assert count_tokens("abcd") == 1
        assert count_tokens("a" * 400) == 100

    def test_usage_addition(self):
        total = TokenUsage(10, 2, 5) + TokenUsage(30, 8, 15)
        assert total.input_tokens == 40
        assert total.output_tokens == 10
        assert total.cached_input_tokens == 20
        assert total.cache_hit_rate == 0.5

    def test_cache_hit_rate_empty(self):
        assert TokenUsage().cache_hit_rate == 0.0

    def test_prompt_cache_prefix_hits(self):
        cache = PromptCache()
        base = "system prompt " * 400
        assert cache.lookup_and_store("s", base) == 0
        hit = cache.lookup_and_store("s", base + " new turn")
        assert hit > 0
        assert hit % 64 == 0  # block granularity
        assert hit <= count_tokens(base + " new turn")

    def test_prompt_cache_sessions_isolated(self):
        cache = PromptCache()
        cache.lookup_and_store("a", "x" * 4000)
        assert cache.lookup_and_store("b", "x" * 4000) == 0

    def test_prompt_cache_reset(self):
        cache = PromptCache()
        cache.lookup_and_store("a", "x" * 4000)
        cache.reset("a")
        assert cache.lookup_and_store("a", "x" * 4000) == 0

    def test_ledger_summary(self):
        ledger = UsageLedger()
        ledger.record("tuning", TokenUsage(1000, 100, 500), latency=2.0)
        ledger.record("analysis", TokenUsage(4000, 80, 0), latency=2.0)
        text = ledger.summary()
        assert "tuning: 1000 in / 100 out" in text
        assert "2 requests" in text
        assert ledger.total().input_tokens == 5000


class TestProfiles:
    def test_all_paper_models_present(self):
        for name in (
            "claude-3.7-sonnet",
            "gpt-4o",
            "gpt-4.5",
            "gemini-2.5-pro",
            "llama-3.1-70b",
        ):
            assert name in MODEL_PROFILES

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_profile("gpt-9")

    def test_cost_accounts_cache_discount(self):
        profile = get_profile("claude-3.7-sonnet")
        full = profile.cost_usd(1_000_000, 0, 0)
        cached = profile.cost_usd(1_000_000, 0, 1_000_000)
        assert cached == pytest.approx(full * 0.1)

    def test_llama_noisier_than_claude(self):
        assert (
            MODEL_PROFILES["llama-3.1-70b"].reasoning_noise
            > MODEL_PROFILES["claude-3.7-sonnet"].reasoning_noise
        )


class TestKnowledge:
    def test_figure2_statahead_outcomes(self):
        """Reproduce Figure 2: no model recalls the true statahead_max range;
        GPT-4.5 and Gemini also hold flawed definitions."""
        for model in ("gpt-4.5", "gemini-2.5-pro", "claude-3.7-sonnet"):
            belief = parametric_belief(get_profile(model), "llite.statahead_max")
            assert not belief.range_correct, model
            assert belief.max_value != 8192, model
        assert not parametric_belief(
            get_profile("gpt-4.5"), "llite.statahead_max"
        ).definition_correct
        assert not parametric_belief(
            get_profile("gemini-2.5-pro"), "llite.statahead_max"
        ).definition_correct
        assert parametric_belief(
            get_profile("claude-3.7-sonnet"), "llite.statahead_max"
        ).definition_correct

    def test_beliefs_deterministic(self):
        profile = get_profile("gpt-4o")
        a = parametric_belief(profile, "osc.max_dirty_mb")
        b = parametric_belief(profile, "osc.max_dirty_mb")
        assert a == b

    def test_wrong_definition_comes_from_misconception_table(self):
        profile = get_profile("llama-3.1-70b")
        flawed = [
            parametric_belief(profile, name)
            for name in MISCONCEPTIONS
        ]
        wrong = [b for b in flawed if not b.definition_correct]
        assert wrong, "expected at least one flawed definition for llama"
        for belief in wrong:
            assert belief.definition == MISCONCEPTIONS[belief.name]

    def test_render_mentions_range(self):
        belief = parametric_belief(get_profile("gpt-4o"), "llite.statahead_max")
        assert "Accepted values" in belief.render()


class TestPromptParse:
    def test_rules_json_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(pp, "_DUMPS_CACHE", {})
        cap = pp._DUMPS_CACHE_MAX
        for index in range(2 * cap):
            payload = [
                {
                    "parameter": f"osc.param_{index}",
                    "rule_description": "raise it for large sequential writes",
                    "tuning_context": ["write", f"ctx-{index % 7}"],
                }
            ]
            assert pp.dumps_indented(payload) == json.dumps(payload, indent=1)
            assert len(pp._DUMPS_CACHE) <= cap
        # A memo hit renders the same text.
        assert pp.dumps_indented(payload) == json.dumps(payload, indent=1)

    @pytest.mark.parametrize(
        "first, second",
        [
            ([True], [1]),
            ([1], [1.0]),
            ([0.0], [-0.0]),
            ({"a": 1}, [["a", 1]]),
            ({True: 1}, {1: 1}),
            ([{"a": [False]}], [{"a": [0]}]),
        ],
        ids=["bool-int", "int-float", "zero-signs", "dict-pairs", "keys", "nested"],
    )
    def test_rules_json_memo_never_aliases_distinct_renderings(
        self, monkeypatch, first, second
    ):
        """Payloads that compare equal once frozen naively but render
        differently each get their own text, in either order."""
        for payloads in ((first, second), (second, first)):
            monkeypatch.setattr(pp, "_DUMPS_CACHE", {})
            for payload in payloads:
                assert pp.dumps_indented(payload) == json.dumps(payload, indent=1)

    def test_sections_round_trip(self):
        params = [
            pp.ParameterInfo(
                name="osc.max_rpcs_in_flight",
                default=8,
                min_expr="1",
                max_expr="256",
                description="Concurrent bulk RPCs per OSC.",
            )
        ]
        report = pp.IOReport(summary="data heavy", metrics={"shared_file": 1.0})
        text = "\n\n".join(
            [
                pp.build_hardware_section("Cluster of 10 nodes", {"n_ost": 5}),
                pp.build_parameter_section(params),
                pp.build_io_report_section(report),
                pp.build_rules_section([{"parameter": "x"}]),
                pp.build_history_section(
                    100.0,
                    [
                        pp.AttemptRecord(
                            index=1,
                            changes={"osc.max_rpcs_in_flight": 32},
                            seconds=50.0,
                            speedup=2.0,
                        )
                    ],
                ),
            ]
        )
        sections = pp.split_sections(text)
        assert pp.parse_hardware_facts(sections[pp.S_HARDWARE]) == {"n_ost": 5.0}
        parsed_params = pp.parse_parameter_section(sections[pp.S_PARAMETERS])
        assert parsed_params[0].name == "osc.max_rpcs_in_flight"
        assert parsed_params[0].max_expr == "256"
        assert parsed_params[0].description == "Concurrent bulk RPCs per OSC."
        parsed_report = pp.parse_io_report(sections[pp.S_IO_REPORT])
        assert parsed_report.metrics == {"shared_file": 1.0}
        assert parsed_report.summary == "data heavy"
        assert pp.parse_rules_section(sections[pp.S_RULES]) == [{"parameter": "x"}]
        initial, attempts = pp.parse_history_section(sections[pp.S_HISTORY])
        assert initial == 100.0
        assert attempts[0].changes == {"osc.max_rpcs_in_flight": 32}
        assert attempts[0].speedup == 2.0

    def test_empty_rules_section(self):
        assert pp.parse_rules_section("") == []
        assert pp.parse_rules_section("(empty)") == []

    def test_io_report_followups(self):
        report = pp.IOReport(summary="s", followups={"what sizes?": "mostly 8 KiB"})
        parsed = pp.parse_io_report(pp.build_io_report_section(report))
        assert parsed.followups == {"what sizes?": "mostly 8 KiB"}

    def test_invalid_role_rejected(self):
        with pytest.raises(ValueError):
            ChatMessage(role="robot", content="hi")


class TestBackendDispatch:
    def test_param_info_task_uses_parametric_knowledge(self):
        client = LLMClient("gpt-4.5", seed=0)
        answer = client.ask(
            "## TASK: PARAM INFO\nPARAMETER: llite.statahead_max\n"
            "Give the definition and accepted range."
        )
        assert "statahead" in answer
        assert "8192" not in answer  # hallucinated range (Figure 2)

    def test_tool_call_emitted_for_tuning(self):
        client = LLMClient("claude-3.7-sonnet", seed=0)
        params = pp.build_parameter_section(
            [
                pp.ParameterInfo(
                    name="osc.max_rpcs_in_flight",
                    default=8,
                    min_expr="1",
                    max_expr="256",
                    description="Concurrent bulk RPCs; raising it lifts throughput.",
                )
            ]
        )
        report = pp.build_io_report_section(
            pp.IOReport(
                summary="large sequential shared-file writes",
                metrics={
                    "shared_file": 1.0,
                    "seq_fraction": 1.0,
                    "common_access_size": 16 * 1024 * 1024,
                    "meta_time_fraction": 0.01,
                    "avg_file_size": 1e9,
                    "meta_data_op_ratio": 0.001,
                },
            )
        )
        tools = [
            ToolSpec("analysis_question", "ask for more analysis", {"question": "q"}),
            ToolSpec("run_configuration", "run the app", {"changes": "map"}),
            ToolSpec("end_tuning", "stop", {"reason": "r"}),
        ]
        completion = client.complete(
            [
                ChatMessage(
                    role="user",
                    content=f"{params}\n\n{report}\n\n## TUNING HISTORY\n"
                    "initial run (default configuration): 100.000s",
                )
            ],
            tools=tools,
        )
        call = completion.called
        assert call is not None
        assert call.name == "run_configuration"
        assert call.arguments["changes"]["osc.max_rpcs_in_flight"] == 16

    def test_usage_accumulates_with_cache(self):
        client = LLMClient("gpt-4o", seed=0)
        base = "## TASK: PARAM INFO\nPARAMETER: osc.max_dirty_mb\n" + "context " * 500
        client.ask(base, agent="t", session="one")
        client.ask(base + " more", agent="t", session="one")
        usage = client.ledger.agent("t")
        assert usage.cached_input_tokens > 0
        assert client.cost_usd() > 0

    def test_generic_fallback(self):
        client = LLMClient("gpt-4o", seed=0)
        assert "structured task" in client.ask("hello there")

    def test_rules_merge_task(self):
        client = LLMClient("claude-3.7-sonnet", seed=0)
        existing = [
            {
                "parameter": "lov.stripe_count",
                "rule_description": "stripe big shared files",
                "tuning_context": "large shared",
                "context_tags": ["shared_seq_large"],
                "recommended_value": -1,
            }
        ]
        new = [
            {
                "parameter": "mdc.max_rpcs_in_flight",
                "rule_description": "raise metadata concurrency",
                "tuning_context": "metadata heavy",
                "context_tags": ["metadata_small_files"],
                "recommended_value": 64,
            }
        ]
        answer = client.ask(
            pp.build_rules_section(existing)
            + "\n\n## TASK: MERGE RULES\nNEW RULES:\n"
            + json.dumps(new)
        )
        merged = json.loads(answer)
        assert len(merged) == 2
