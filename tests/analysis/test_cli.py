"""CLI tests."""

import pytest

from repro.analysis.experiments import ExperimentSuite
from repro.cli import RUNNERS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "sys_services" in out

    def test_status(self, capsys):
        assert main(["status"]) == 0
        out = capsys.readouterr().out
        assert "GF(2^16)" in out
        assert "t=65" in out  # end-of-life anchor

    def test_run_single(self, capsys):
        assert main(["run", "fig07"]) == 0
        out = capsys.readouterr().out
        assert "tMIN=3" in out
        assert "regenerated in" in out

    def test_runners_cover_every_experiment(self):
        experiments = {
            name for name in vars(ExperimentSuite)
            if name.startswith("run_")
        }
        assert {method for _, method in RUNNERS.values()} == experiments

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
