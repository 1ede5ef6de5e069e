"""Tests for the ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_blocks_lists_all(self, capsys):
        assert main(["blocks"]) == 0
        out = capsys.readouterr().out
        for name in ("block1", "block10", "block19"):
            assert name in out
        assert "tech5" in out and "tech12" in out

    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["not-a-command"])

    def test_table2_single_block(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1200")  # tiny + fast
        assert main(["table2", "--blocks", "block10", "--episodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "block10" in out
        assert "RL-CCD" in out

    def test_fig5_runs_small(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "1200")  # block11 -> 150 cells
        assert main(["fig5", "--episodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig.5" in out
        assert "block11" in out


class TestTrainRolloutWorkers:
    """``train --workers N`` submits N selections to its pool per update."""

    def test_pool_is_submitted_workers_selections_per_update(
        self, capsys, monkeypatch
    ):
        from repro.agent import reinforce
        from repro.agent.parallel import evaluate_selections

        calls = []

        class RecordingPool:
            def __init__(self, netlist, flow_config, workers, snapshot, **kwargs):
                self.args = (netlist, flow_config, snapshot)

            def submit(self, selection):
                calls.append("submit")

            def evaluate(self, selections):
                calls.append(f"evaluate {len(selections)}")
                netlist, flow_config, snapshot = self.args
                return evaluate_selections(
                    netlist, flow_config, selections, snapshot=snapshot
                )

            def close(self):
                pass

        monkeypatch.setattr(reinforce, "RolloutPool", RecordingPool)
        argv = ["train", "--episodes", "4", "--cells", "120", "--workers", "2"]
        assert main(argv) == 0
        assert "episodes run: 4" in capsys.readouterr().out
        # Both of an update's selections are in flight before either reward
        # is awaited; each evaluate collects one.
        assert calls == ["submit", "submit", "evaluate 1", "evaluate 1"] * 2

    def test_actors_flag_rejected(self, capsys):
        """``--workers`` is the only rollout-parallelism flag."""
        with pytest.raises(SystemExit) as exc:
            main(["train", "--actors", "1"])
        assert exc.value.code == 2
        assert "--actors" in capsys.readouterr().err


class TestBadArguments:
    """A bad ``train``/``bench``/``table2``/``fig5``/``fig6`` value is one
    ``error:`` line and exit 2, before any design is built."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["train", "--workers", "0"], "workers must be positive"),
            (["train", "--episodes", "0"], "max_episodes must be positive"),
            (["train", "--rollout-timeout", "0"], "rollout_timeout must be positive"),
            (["train", "--cells", "10"], "cells=10 is below the minimum of 50"),
            (["bench", "--episodes", "0"], "episodes must be >= 1"),
            (["bench", "--cells", "10"], "cells=10 is below the minimum of 50"),
            (
                ["table2", "--episodes", "0", "--blocks", "block9"],
                "max_episodes must be positive",
            ),
            (["table2", "--blocks", "nope"], "unknown block 'nope'"),
            (["fig5", "--episodes", "0"], "max_episodes must be positive"),
            (["fig6", "--episodes", "-1"], "max_episodes must be positive"),
        ],
        ids=["train-workers", "train-episodes", "train-rollout-timeout",
             "train-cells", "bench-episodes", "bench-cells", "table2-episodes",
             "table2-blocks", "fig5-episodes", "fig6-episodes"],
    )
    def test_rejected_before_the_workload(self, argv, message, capsys, monkeypatch):
        from repro.benchsuite import designs, figures, table2
        from repro.obs import bench

        def no_workload(*args, **kwargs):
            raise AssertionError("the workload was built")

        monkeypatch.setattr(bench, "build_workload", no_workload)
        for module in (designs, figures, table2):
            monkeypatch.setattr(module, "build_design", no_workload)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1
