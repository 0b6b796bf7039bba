"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "IOR_16M" in out
        assert "fig5" in out

    def test_tune(self, capsys):
        assert main(["tune", "IOR_16M"]) == 0
        out = capsys.readouterr().out
        assert "best speedup" in out
        assert "end reason" in out

    def test_tune_with_transcript(self, capsys):
        assert main(["tune", "IOR_16M", "--transcript"]) == 0
        out = capsys.readouterr().out
        assert "initial_run" in out

    def test_tune_ablation_flags(self, capsys):
        assert main(["tune", "MDWorkbench_8K", "--no-analysis"]) == 0
        out = capsys.readouterr().out
        assert "best speedup: 1.00x" in out

    def test_tune_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["tune", "NOPE"])

    def test_extract(self, capsys):
        assert main(["extract"]) == 0
        out = capsys.readouterr().out
        assert "selected (13)" in out

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        out = capsys.readouterr().out
        assert "statahead" in out

    def test_experiment_fig8_small_reps(self, capsys):
        assert main(["experiment", "fig8", "--reps", "2"]) == 0
        out = capsys.readouterr().out
        assert "no descriptions" in out

    def test_experiment_autotuner_cost(self, capsys):
        assert main(["experiment", "autotuner-cost"]) == 0
        out = capsys.readouterr().out
        assert "STELLAR" in out

    def test_list_includes_schedules(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "regime_flip" in out
        assert "drift" in out

    def test_drift_single_cell(self, capsys):
        assert main(
            [
                "drift",
                "--schedule",
                "regime_flip",
                "--backend",
                "lustre",
                "--reps",
                "1",
                "--segments",
                "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "online" in out and "oracle" in out

    def test_experiment_drift_smoke(self, capsys):
        # The experiment entry point honors --backend like every figure
        # experiment: one backend, all three schedules.
        assert main(["experiment", "drift", "--reps", "1", "--backend", "beegfs"]) == 0
        out = capsys.readouterr().out
        assert "beats the static tune in 3/3" in out
        assert "lustre" not in out

    def test_experiment_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])

    def test_fleet_single_backend(self, capsys):
        assert main(["fleet", "--backend", "lustre", "--workers", "1"]) == 0
        out = capsys.readouterr().out
        assert "lustre-data" in out and "lustre-drift" in out
        assert "beegfs" not in out
        assert "aggregate:" in out
        assert "tenants improve" in out
        # The machine-dependent line stays last, so checks can diff above it.
        assert out.rstrip("\n").splitlines()[-1].lstrip().startswith("aggregate:")

    def test_fleet_nonpositive_workers_clean_error(self, capsys):
        assert main(["fleet", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert "--workers 0" in err and "positive" in err

    def test_experiment_fleet_honors_backend(self, capsys):
        assert main(["experiment", "fleet", "--backend", "beegfs"]) == 0
        out = capsys.readouterr().out
        assert "beegfs-meta" in out
        assert "lustre" not in out

    def test_chaos_single_backend(self, capsys):
        assert main(
            ["chaos", "--backend", "lustre", "--rates", "0,0.3", "--workers", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "Chaos sweep" in out
        assert "rate=0.00" in out and "rate=0.30" in out
        assert "rate table:" in out
        assert "no fleet-wide abort path" in out
        assert "beegfs" not in out

    def test_chaos_bad_rates_clean_error(self, capsys):
        assert main(["chaos", "--rates", "0,potato"]) == 2
        err = capsys.readouterr().err
        assert "--rates" in err and "comma-separated" in err

    def test_chaos_out_of_range_rates_clean_error(self, capsys):
        assert main(["chaos", "--rates", "0,1.5"]) == 2
        err = capsys.readouterr().err
        assert "--rates" in err and "[0, 1]" in err

    def test_chaos_nonpositive_workers_clean_error(self, capsys):
        assert main(["chaos", "--workers", "-2"]) == 2
        err = capsys.readouterr().err
        assert "--workers -2" in err and "positive" in err

    def test_experiment_nonpositive_reps_clean_error(self, capsys):
        assert main(["experiment", "fig5", "--reps", "0"]) == 2
        captured = capsys.readouterr()
        assert "error: --reps 0:" in captured.err and "positive" in captured.err
        assert captured.out == ""

    def test_drift_nonpositive_reps_clean_error(self, capsys):
        assert main(["drift", "--reps", "0", "--segments", "4"]) == 2
        captured = capsys.readouterr()
        assert "error: --reps 0:" in captured.err and "positive" in captured.err
        assert captured.out == ""

    def test_tune_negative_max_attempts_clean_error(self, capsys):
        assert main(["tune", "IOR_64K", "--max-attempts", "-1"]) == 2
        captured = capsys.readouterr()
        assert "error: --max-attempts -1:" in captured.err
        assert "non-negative" in captured.err
        assert captured.out == ""

    def test_seed_flag(self, capsys):
        assert main(["--seed", "7", "tune", "IOR_16M"]) == 0
        out_a = capsys.readouterr().out
        assert main(["--seed", "7", "tune", "IOR_16M"]) == 0
        out_b = capsys.readouterr().out
        assert out_a == out_b
