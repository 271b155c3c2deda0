"""CLI tests."""

import pytest

from repro.analysis.experiments import ExperimentSuite
from repro.cli import RUNNERS, main

STATUS = """\
canonical configuration
  page:               4096 B data + 224 B spare
  BCH:                GF(2^16), t = 1..65, UBER target 1e-11
  ECC clock:          80 MHz, p = 8, Chien budget 260 multipliers
  ISPP:               14-19 V, delta 250 mV
  rated endurance:    1e+05 P/E cycles
calibration anchors
  N =        0: RBER SV 1.000e-05 (t=6), DV 8.000e-07 (t=3)
  N =     1000: RBER SV 3.481e-05 (t=10), DV 2.785e-06 (t=4)
  N =   100000: RBER SV 9.977e-04 (t=65), DV 7.982e-05 (t=14)
"""


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "sys_services" in out

    def test_status(self, capsys):
        # The whole stdout: the canonical page, code and clock, and the
        # lifetime curve's SV/DV anchors with the t the policy sizes.
        assert main(["status"]) == 0
        assert capsys.readouterr().out == STATUS

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
