"""The owl-detect command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_defaults_match_paper_spirit(self):
        args = build_parser().parse_args(["aes"])
        assert args.confidence == 0.95
        assert args.test == "ks"

    def test_unknown_workload_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-workload"])

    def test_invalid_test_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["aes", "--test", "chi2"])


class TestExecution:
    def test_list_prints_workloads(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("aes", "rsa", "nvjpeg-encode", "torch-relu",
                     "serialize", "dummy"):
            assert name in out

    def test_no_workload_lists(self, capsys):
        assert main([]) == 0
        assert "aes" in capsys.readouterr().out

    def test_leaky_workload_exits_nonzero(self, capsys):
        code = main(["rsa", "--fixed-runs", "10", "--random-runs", "10"])
        out = capsys.readouterr().out
        assert code == 1
        assert "control-flow leaks" in out
        assert "rsa_modexp_kernel" in out

    def test_clean_workload_exits_zero(self, capsys):
        code = main(["rsa-ct", "--fixed-runs", "5", "--random-runs", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical traces" in out

    def test_welch_mode_runs(self, capsys):
        code = main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
                     "--test", "welch"])
        assert code in (0, 1)


class TestCohortFlag:
    def test_cohort_defaults_on(self):
        """The cohort engine is always on: the retired engine flags are
        usage errors, not options."""
        build_parser().parse_args(["aes"])
        for flag in ("--no-cohort", "--no-columnar", "--no-replica-batch"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["aes", flag])

    def test_no_cohort_verdict_identical(self, capsys):
        """The per-warp reference recorder reaches the same verdict and
        report as the CLI's cohort engine."""
        from repro.cli import _workloads
        from repro.core import Owl, OwlConfig
        from tests.golden.goldens import ReferencePool

        code = main(["rsa", "--fixed-runs", "8", "--random-runs", "8",
                     "--json"])
        cli_report = json.loads(capsys.readouterr().out)
        program, fixed_inputs, random_input = _workloads()["rsa"]
        owl = Owl(program, name="rsa",
                  config=OwlConfig(fixed_runs=8, random_runs=8))
        owl.pool = ReferencePool(program, owl.device_config)
        reference = owl.detect(inputs=fixed_inputs(),
                               random_input=random_input).report
        assert code == (1 if reference.has_leaks else 0)
        assert cli_report == json.loads(reference.to_json())
