"""Tests for the command-line interface."""

import pytest

from repro import cli
from repro.graphs.directed_generators import directed_family_names
from repro.graphs.generators import family_names
from repro.network.protocols import protocol_names
from repro.simulation.engine import process_names


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_parses_run(self):
        args = cli.build_parser().parse_args(["run", "--process", "pull", "--n", "32"])
        assert args.process == "pull"
        assert args.n == 32

    def test_parses_scaling_sizes(self):
        args = cli.build_parser().parse_args(["scaling", "--sizes", "8", "16", "32"])
        assert args.sizes == [8, 16, 32]

    def test_parses_async(self):
        args = cli.build_parser().parse_args(
            ["async", "--protocol", "pull", "--jitter", "1.5", "--churn-rate", "0.02"]
        )
        assert args.protocol == "pull"
        assert args.jitter == 1.5
        assert args.churn_rate == 0.02
        assert not args.compare_sync


class TestParserMatchesRegistries:
    """Every choices= list is exactly what the live registries offer."""

    EXPECTED = {
        ("run", "process"): set(process_names()),
        ("scaling", "process"): set(process_names()),
        ("group", "process"): set(process_names()),
        # The exact-E[T] Markov computation exists for push and pull only.
        ("nonmonotone", "process"): {"push", "pull"} & set(process_names()),
        ("run", "family"): set(family_names()) | set(directed_family_names()),
        ("scaling", "family"): set(family_names()) | set(directed_family_names()),
        ("group", "host_family"): set(family_names()),
        ("async", "family"): set(family_names()),
        ("directed", "family"): set(directed_family_names()),
        ("async", "protocol"): set(protocol_names()),
    }

    @staticmethod
    def options():
        """(subcommand, dest) -> argparse action, over every subcommand."""
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions if isinstance(a.choices, dict))
        return {
            (name, action.dest): action
            for name, sub in subparsers.choices.items()
            for action in sub._actions
        }

    @pytest.mark.parametrize("key", sorted(EXPECTED), ids="-".join)
    def test_choices_equal_registries(self, key):
        option = self.options()[key]
        assert set(option.choices) == self.EXPECTED[key]
        assert option.default in self.EXPECTED[key]

    def test_every_registry_backed_option_is_covered(self):
        dests = {"process", "family", "host_family", "protocol"}
        covered = {key for key in self.options() if key[1] in dests}
        assert covered == set(self.EXPECTED)


class TestCommands:
    def test_run_command(self, capsys):
        assert cli.main(["run", "--process", "push", "--family", "cycle", "--n", "12",
                         "--trials", "2", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rounds_mean" in out and "cycle" in out

    def test_scaling_command(self, capsys):
        assert cli.main(["scaling", "--process", "push", "--family", "cycle",
                         "--sizes", "8", "16", "--trials", "1", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "power-law fit" in out
        assert "theorem-shape fit" in out

    def test_run_baseline(self, capsys):
        assert cli.main(["run", "--process", "name_dropper", "--family", "cycle",
                         "--n", "16", "--trials", "2", "--seed", "5"]) == 0
        assert "rounds_mean" in capsys.readouterr().out

    def test_run_flooding(self, capsys):
        assert cli.main(["run", "--process", "flooding", "--family", "cycle",
                         "--n", "16", "--trials", "1", "--seed", "5"]) == 0
        assert "rounds_mean" in capsys.readouterr().out

    @pytest.mark.parametrize("process, flag", [("directed_pull", []), ("push", ["--directed"])])
    def test_run_of_the_wrong_graph_kind_fails_before_any_trial(self, process, flag, capsys):
        family = "random_strong" if flag else "cycle"
        assert cli.main(["run", "--process", process, "--family", family, *flag,
                         "--n", "8", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert "graph" in captured.err and "FAILED" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["run", "scaling", "group", "directed"])
    def test_no_backend_flag(self, command, capsys):
        """There is one graph substrate, so no subcommand takes --backend."""
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([command, "--backend", "array"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_nonmonotone_command(self, capsys):
        assert cli.main(["nonmonotone", "--trials", "50", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "diamond" in out

    def test_group_command(self, capsys):
        assert cli.main(["group", "--host-family", "cycle", "--host-n", "30",
                         "--k", "6", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "group_k" in out

    def test_run_command_save_json(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        assert cli.main(["run", "--process", "push", "--family", "cycle", "--n", "10",
                         "--trials", "1", "--seed", "6", "--save", str(target)]) == 0
        assert target.exists()
        import json

        payload = json.loads(target.read_text())
        assert payload["rows"][0]["process"] == "push"
        assert payload["metadata"]["command"] == "run"

    def test_unseeded_run_saves_a_replayable_seed(self, capsys, tmp_path):
        import json

        unseeded, replay = tmp_path / "x.json", tmp_path / "y.json"
        assert cli.main(["run", "--process", "push", "--n", "12", "--trials", "2",
                         "--save", str(unseeded)]) == 0
        saved = json.loads(unseeded.read_text())
        seed = saved["metadata"]["seed"]
        assert isinstance(seed, int)
        assert f"seed: {seed}" in capsys.readouterr().err
        assert cli.main(["run", "--process", "push", "--n", "12", "--trials", "2",
                         "--seed", str(seed), "--save", str(replay)]) == 0
        assert json.loads(replay.read_text())["rows"] == saved["rows"]

    def test_scaling_command_save_csv(self, capsys, tmp_path):
        target = tmp_path / "scaling.csv"
        assert cli.main(["scaling", "--process", "push", "--family", "cycle",
                         "--sizes", "8", "16", "--trials", "1", "--seed", "7",
                         "--save", str(target)]) == 0
        content = target.read_text()
        assert "rounds_mean" in content
        assert content.count("\n") >= 3

    def test_async_command_degenerate_matches_sync(self, capsys):
        """Sub-tick fixed latency + no faults: the async run IS the sync run."""
        assert cli.main(["async", "--protocol", "push", "--family", "cycle",
                         "--n", "16", "--seed", "3", "--compare-sync"]) == 0
        out = capsys.readouterr().out
        assert "inflation" in out and "True" in out
        row = out.splitlines()[1].split()
        ticks, sync_rounds, inflation = row[3], row[-2], row[-1]
        assert ticks == sync_rounds
        assert inflation == "1"

    def test_async_command_with_faults(self, capsys, tmp_path):
        target = tmp_path / "async.json"
        assert cli.main(["async", "--n", "12", "--seed", "3", "--jitter", "0.8",
                         "--drop", "0.1", "--churn-rate", "0.01",
                         "--save", str(target)]) == 0
        out = capsys.readouterr().out
        assert "evictions" in out and "True" in out
        import json

        payload = json.loads(target.read_text())
        assert payload["rows"][0]["converged"] is True
        assert payload["metadata"]["command"] == "async"

    def test_checkpointed_run_then_resume_matches_the_trial(self, capsys, tmp_path):
        """`run --checkpoint-every/--checkpoint-dir` then `resume` gives the trial's result."""
        import json

        from repro.simulation.experiment import ExperimentSpec
        from repro.simulation.runner import run_trials

        ckpt = tmp_path / "ckpt"
        assert cli.main(["run", "--process", "push", "--family", "cycle", "--n", "16",
                         "--trials", "2", "--seed", "9", "--checkpoint-every", "4",
                         "--checkpoint-dir", str(ckpt)]) == 0
        target = tmp_path / "resumed.json"
        assert cli.main(["resume", str(ckpt / "trial_0001"), "--save", str(target)]) == 0
        row = json.loads(target.read_text())["rows"][0]
        trial = run_trials(ExperimentSpec(process="push", family="cycle", n=16, trials=2),
                           root_seed=9)[1]
        assert (row["rounds"], row["edges_added"], row["messages"], row["bits"]) == (
            trial.rounds, trial.edges_added, trial.messages, trial.bits,
        )

    def test_directed_command(self, capsys):
        assert cli.main(["directed", "--family", "directed_cycle",
                         "--sizes", "6", "10", "--trials", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "power-law fit" in out
