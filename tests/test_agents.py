"""Tests for the sandbox, Analysis Agent and Tuning Agent."""

import pytest

from repro.agents import AnalysisAgent, SandboxError, Transcript, run_in_sandbox
from repro.cluster import make_cluster
from repro.core.runner import ConfigurationRunner
from repro.darshan import parse_log
from repro.frame import Frame
from repro.llm.api import Completion
from repro.llm.client import LLMClient
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def cluster():
    return make_cluster()


def _parsed(cluster, name="MDWorkbench_8K", seed=2):
    runner = ConfigurationRunner(cluster, get_workload(name), seed=seed)
    _, log = runner.initial_execution()
    return parse_log(log)


class TestSandbox:
    def test_executes_and_captures_stdout(self):
        out = run_in_sandbox("print(1 + 1)")
        assert out == "2\n"

    def test_namespace_injection(self):
        frame = Frame({"x": [1.0, 2.0, 3.0]})
        out = run_in_sandbox(
            "print(frame.agg({'x': 'sum'})['x'])", {"frame": frame}
        )
        assert out.strip() == "6.0"

    def test_numpy_import_allowed(self):
        out = run_in_sandbox("import numpy as np\nprint(np.sum([1, 2]))")
        assert out.strip() == "3"

    def test_disallowed_import_blocked(self):
        with pytest.raises(SandboxError, match="not allowed"):
            run_in_sandbox("import os")
        with pytest.raises(SandboxError):
            run_in_sandbox("import subprocess")

    def test_dangerous_builtins_removed(self):
        with pytest.raises(SandboxError):
            run_in_sandbox("open('/etc/passwd')")
        with pytest.raises(SandboxError):
            run_in_sandbox("eval('1+1')")

    def test_errors_surface_as_sandbox_error(self):
        with pytest.raises(SandboxError, match="ZeroDivisionError"):
            run_in_sandbox("1 / 0")

    def test_output_truncation(self):
        out = run_in_sandbox("print('x' * 100000)", max_output=100)
        assert out.endswith("[truncated]")


class TestAnalysisAgent:
    def test_initial_report_metrics_from_real_trace(self, cluster):
        agent = AnalysisAgent(LLMClient("gpt-4o", seed=1), _parsed(cluster))
        report = agent.initial_report()
        assert report.get("meta_time_fraction") > 0.6
        assert report.get("file_count") == pytest.approx(200_000, rel=0.01)
        assert report.get("shared_file") == 0
        assert "metadata" in report.summary

    def test_report_differs_across_workloads(self, cluster):
        md = AnalysisAgent(
            LLMClient("gpt-4o", seed=1), _parsed(cluster, "MDWorkbench_8K")
        ).initial_report()
        ior = AnalysisAgent(
            LLMClient("gpt-4o", seed=1), _parsed(cluster, "IOR_16M")
        ).initial_report()
        assert md.get("meta_time_fraction") > 0.5 > ior.get("meta_time_fraction")
        assert ior.get("shared_file") == 1

    def test_followup_file_sizes(self, cluster):
        agent = AnalysisAgent(LLMClient("gpt-4o", seed=1), _parsed(cluster))
        answer, metrics = agent.answer(
            "What is the distribution of file sizes accessed by the application?"
        )
        assert metrics["avg_file_size"] == pytest.approx(8192, rel=0.05)
        assert "avg_file_size" in answer

    def test_followup_meta_ratio(self, cluster):
        agent = AnalysisAgent(LLMClient("gpt-4o", seed=1), _parsed(cluster))
        _, metrics = agent.answer(
            "What is the ratio of metadata operations to data operations?"
        )
        assert metrics["meta_data_op_ratio"] > 1.0

    @pytest.mark.parametrize(
        "reply, answer_text, metrics",
        [
            ("", "(empty answer)", {}),
            ("ANSWER metric=a value=1.2.3\nANSWER metric=b value=2", "b = 2", {"b": 2.0}),
            ("no metrics here\nsecond line", "no metrics here", {}),
        ],
        ids=["empty", "unconvertible-metric", "prose"],
    )
    def test_followup_reply_without_readable_metrics(
        self, cluster, reply, answer_text, metrics
    ):
        """A final follow-up reply is read, never raised on: unconvertible
        metric values are skipped, and an empty reply has a stand-in."""

        class FixedReply:
            def complete(self, messages, tools=None, agent="generic", session=None):
                return Completion(content=reply)

        agent = AnalysisAgent(FixedReply(), _parsed(cluster))
        assert agent.answer("why?") == (answer_text, metrics)

    def test_transcript_records_code_execution(self, cluster):
        transcript = Transcript()
        agent = AnalysisAgent(
            LLMClient("gpt-4o", seed=1), _parsed(cluster), transcript=transcript
        )
        agent.initial_report()
        assert transcript.of_kind("analysis_code")
        assert transcript.of_kind("io_report")

    def test_analysis_usage_recorded(self, cluster):
        client = LLMClient("gpt-4o", seed=1)
        AnalysisAgent(client, _parsed(cluster)).initial_report()
        usage = client.ledger.agent("analysis")
        assert usage.input_tokens > 500
        assert usage.output_tokens > 50


class TestTranscript:
    def test_render_numbers_events(self):
        transcript = Transcript()
        transcript.add("initial_run", "ran defaults", seconds=10.0)
        transcript.add("config", "attempt 1")
        text = transcript.render()
        assert "[01] initial_run" in text
        assert "[02] config" in text


class TestAnalysisFollowupBreadth:
    """The Analysis Agent answers a range of follow-up question styles by
    generating different code (all executed against the real frames)."""

    @pytest.fixture(scope="class")
    def agent(self, cluster):
        return AnalysisAgent(
            LLMClient("gpt-4o", seed=1), _parsed(cluster, "IOR_64K")
        )

    def test_access_size_histogram(self, agent):
        _, metrics = agent.answer(
            "Show a histogram of access sizes used by the application."
        )
        shares = {k: v for k, v in metrics.items() if k.startswith("access_share")}
        assert shares
        assert sum(shares.values()) == pytest.approx(1.0, abs=0.01)
        # IOR_64K uses 64 KiB transfers: everything in the 64k-1m bucket.
        assert metrics["access_share_64k_1m"] == pytest.approx(1.0, abs=0.01)

    def test_rank_imbalance(self, agent):
        _, metrics = agent.answer(
            "Is there per-rank imbalance in the bytes written?"
        )
        # IOR is perfectly balanced across ranks.
        assert metrics["rank_write_imbalance"] == pytest.approx(1.0, abs=0.05)
        assert metrics["rank_write_cv"] == pytest.approx(0.0, abs=0.05)

    def test_unknown_question_falls_back_to_base_analysis(self, agent):
        _, metrics = agent.answer("Tell me something surprising about the I/O.")
        assert "meta_time_fraction" in metrics
