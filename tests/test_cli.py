"""Smoke tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig9_defaults(self):
        args = build_parser().parse_args(["fig9"])
        assert args.queries == 4000
        assert not args.gaussian

    def test_search_args(self):
        args = build_parser().parse_args(["search", "MT-WND", "--samples", "10"])
        assert args.model == "MT-WND"
        assert args.samples == 10
        assert args.method == "ribbon"

    def test_search_method_from_registry(self):
        args = build_parser().parse_args(
            ["search", "MT-WND", "--method", "hill-climb"]
        )
        assert args.method == "hill-climb"

    def test_search_accepts_registry_aliases(self):
        args = build_parser().parse_args(["search", "MT-WND", "--method", "bo"])
        assert args.method == "bo"

    def test_search_batch_args(self):
        args = build_parser().parse_args(["search", "MT-WND", "--batch-size", "4"])
        assert args.batch_size == 4

    def test_search_batch_defaults_off(self):
        args = build_parser().parse_args(["search", "MT-WND"])
        assert args.batch_size is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig4", "--queries", "0"],
            ["fig4", "--queries", "-5"],
            ["fig9", "--queries", "0"],
            ["fig10", "--queries", "0"],
            ["fig10", "--seeds", "0"],
            ["search", "MT-WND", "--queries", "0"],
            ["search", "MT-WND", "--samples", "0"],
            ["search", "MT-WND", "--samples", "many"],
            ["serve", "--workers", "0"],
            # Refused as a value before the strategy's options are read.
            ["search", "MT-WND", "--method", "random", "--batch-size", "0"],
        ],
    )
    def test_count_flags_must_be_positive(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and argv[-2] in err

    def test_count_flags_accept_one(self):
        parser = build_parser()
        assert parser.parse_args(["fig10", "--seeds", "1"]).seeds == 1
        assert parser.parse_args(["serve", "--workers", "1"]).workers == 1
        assert parser.parse_args(["fig4", "--queries", "1"]).queries == 1


class TestCommands:
    def test_fig4_prints_table(self, capsys):
        assert main(["fig4", "--queries", "4000"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "(3 + 4)" in out
        assert "meets" in out and "violates" in out

    def test_search_reports_best(self, capsys):
        rc = main(["search", "MT-WND", "--queries", "2500", "--samples", "15"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "RIBBON" in out
        assert "homogeneous baseline" in out

    def test_search_with_registry_method(self, capsys):
        rc = main(
            [
                "search", "MT-WND",
                "--queries", "2500",
                "--samples", "15",
                "--method", "random",
            ]
        )
        assert rc == 0
        assert "RANDOM" in capsys.readouterr().out

    def test_unknown_method_is_clean_error(self, capsys):
        rc = main(["search", "MT-WND", "--method", "simulated-annealing"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown strategy" in err and "ribbon" in err

    def test_unknown_model_is_clean_error(self, capsys):
        rc = main(["search", "BERT"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown model" in err and "MT-WND" in err

    def test_strategies_lists_registry(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("ribbon", "hill-climb", "random", "rsm", "exhaustive"):
            assert name in out

    def test_strategies_surfaces_constructor_options(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        assert "batch_size=1" in out
        assert "max_samples" in out
        assert "proposal_engine" not in out and "stream" not in out

    def test_search_with_batch_size(self, capsys):
        rc = main(
            [
                "search", "MT-WND",
                "--queries", "1500",
                "--samples", "10",
                "--batch-size", "4",
            ]
        )
        assert rc == 0
        assert "RIBBON" in capsys.readouterr().out

    def test_batch_size_on_unsupporting_strategy_is_clean_error(self, capsys):
        rc = main(
            ["search", "MT-WND", "--method", "random", "--batch-size", "4"]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "'random'" in err and "batch_size" in err
        assert "accepted options" in err

    def test_batch_size_one_is_noop_on_any_strategy(self, capsys):
        # --batch-size 1 is the sequential default; strategies without
        # the knob ignore it (same semantics as the scenario budget).
        rc = main(
            [
                "search", "MT-WND",
                "--method", "random",
                "--queries", "800",
                "--samples", "5",
                "--batch-size", "1",
            ]
        )
        assert rc == 0
        assert "RANDOM" in capsys.readouterr().out

    def test_unknown_proposal_engine_is_clean_error(self, capsys):
        # There is no engine selector: the flag is a usage error.
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "MT-WND", "--proposal-engine", "thompson"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --proposal-engine" in err
        assert "Traceback" not in err
