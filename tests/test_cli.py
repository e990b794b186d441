"""Tests for the command-line interface."""

import json
import sys
import textwrap

import pytest

from repro.cli import build_parser, main
from repro.graph.builders import paper_figure1_graph
from repro.graph.io import dump_edge_list


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.txt"
    dump_edge_list(paper_figure1_graph(), path)
    return str(path)


class TestQueryCommand:
    def test_counts_table(self, graph_file, capsys):
        assert main(["query", graph_file, "d.(b.c)+.c"]) == 0
        out = capsys.readouterr().out
        assert "d.(b.c)+.c" in out
        assert "| 2" in out  # two result pairs
        assert "shared data: 3 pairs" in out

    def test_show_pairs(self, graph_file, capsys):
        assert main(["query", graph_file, "d.(b.c)+.c", "--show-pairs"]) == 0
        out = capsys.readouterr().out
        assert "7\t3" in out and "7\t5" in out

    @pytest.mark.parametrize("engine", ["no", "full", "rtc"])
    def test_engines(self, graph_file, capsys, engine):
        assert main(["query", graph_file, "b.c", "--engine", engine]) == 0
        assert "| 5" in capsys.readouterr().out

    def test_multiple_queries_share(self, graph_file, capsys):
        code = main(["query", graph_file, "d.(b.c)+.c", "a.(b.c)+"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("(b.c)+") == 2

    def test_semantic_cache_flag(self, graph_file):
        assert main(["query", graph_file, "a.(b.c)+", "--semantic-cache"]) == 0

    def test_syntax_error_exit_code(self, graph_file, capsys):
        assert main(["query", graph_file, "a..b"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["query", "/nonexistent/graph.txt", "a"]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_engine_exit_code(self, graph_file, capsys):
        assert main(["query", graph_file, "a", "--engine", "warp"]) == 1
        err = capsys.readouterr().err
        assert "unknown engine" in err and "rtc" in err

    def test_json_output(self, graph_file, capsys):
        assert main(["query", graph_file, "d.(b.c)+.c", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["engine"] == "rtc"
        assert payload["shared_pairs"] == 3
        (result,) = payload["results"]
        assert result["query"] == "d.(b.c)+.c"
        assert result["count"] == 2
        assert [7, 3] in result["pairs"] and [7, 5] in result["pairs"]
        assert result["timings"]["total"] >= 0.0

    def test_third_party_engine_via_load(self, graph_file, tmp_path, capsys):
        (tmp_path / "my_engines.py").write_text(
            textwrap.dedent(
                """
                from repro.core.engines import NoSharingEngine
                from repro.db import register_engine

                @register_engine("echo", replace=True)
                class EchoEngine(NoSharingEngine):
                    name = "Echo"
                """
            )
        )
        sys.path.insert(0, str(tmp_path))
        try:
            code = main(
                ["query", graph_file, "b.c", "--engine", "echo",
                 "--load", "my_engines", "--json"]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["engine"] == "echo"
            assert payload["results"][0]["count"] == 5
        finally:
            sys.path.remove(str(tmp_path))
            from repro.db.registry import reset_registry

            reset_registry()
            sys.modules.pop("my_engines", None)

    def test_load_missing_module(self, graph_file, capsys):
        assert main(["query", graph_file, "a", "--load", "no_such_mod"]) == 2
        assert "error" in capsys.readouterr().err


class TestReduceCommand:
    def test_fig12_quantities(self, graph_file, capsys):
        assert main(["reduce", graph_file, "b.c"]) == 0
        out = capsys.readouterr().out
        assert "|V_R|" in out
        assert "RTC pairs" in out
        assert "| 3" in out  # 3 RTC pairs
        assert "| 10" in out  # 10 closure pairs

    def test_json_output(self, graph_file, capsys):
        assert main(["reduce", graph_file, "b.c", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["body"] == "b.c"
        assert payload["rtc_pairs"] == 3
        assert payload["full_closure_pairs"] == 10


class TestStatsCommand:
    def test_table4_row(self, graph_file, capsys):
        assert main(["stats", graph_file]) == 0
        out = capsys.readouterr().out
        assert "| 10" in out  # vertices
        assert "| 16" in out  # edges

    def test_json_output(self, graph_file, capsys):
        assert main(["stats", graph_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["vertices"] == 10
        assert payload["edges"] == 16
        assert payload["labels"] == 6


class TestExplainCommand:
    def test_plan_printed(self, graph_file, capsys):
        assert main(["explain", graph_file, "d.(b.c)+.c|a"]) == 0
        out = capsys.readouterr().out
        assert "clauses: 2" in out
        assert "Pre  = d" in out
        assert "EvalRPQwithoutKC" in out

    def test_bad_query(self, graph_file, capsys):
        assert main(["explain", graph_file, "a..b"]) == 1
        assert "error" in capsys.readouterr().err


class TestDotCommand:
    def test_graph_view(self, graph_file, capsys):
        assert main(["dot", graph_file]) == 0
        assert "digraph G {" in capsys.readouterr().out

    def test_reduced_view(self, graph_file, capsys):
        assert main(["dot", graph_file, "--query", "b.c", "--view", "reduced"]) == 0
        assert '"2" -> "4";' in capsys.readouterr().out

    def test_condensation_view(self, graph_file, capsys):
        code = main(
            ["dot", graph_file, "--query", "b.c", "--view", "condensation"]
        )
        assert code == 0
        assert "s0" in capsys.readouterr().out

    def test_nfa_view(self, graph_file, capsys):
        assert main(["dot", graph_file, "--query", "a.b+", "--view", "nfa"]) == 0
        assert "doublecircle" in capsys.readouterr().out

    def test_view_requires_query(self, graph_file, capsys):
        assert main(["dot", graph_file, "--view", "reduced"]) == 2
        assert "required" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_accepts_any_registered_name(self):
        # --engine is registry-checked at open time, not an argparse choice,
        # so third-party names parse fine.
        args = build_parser().parse_args(
            ["query", "g.txt", "a", "--engine", "warp"]
        )
        assert args.engine == "warp"

    def test_engine_help_lists_registry(self):
        query_parser = build_parser()._subparsers._group_actions[0].choices["query"]
        help_text = query_parser.format_help()
        for name in ("no", "full", "rtc"):
            assert name in help_text


class TestServeParser:
    def test_cluster_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve", "g.txt", "--shards", "2", "--strategy", "edge-cut",
                "--workers", "1", "--data-dir", "d", "--checkpoint-every", "8",
            ]
        )
        assert (args.shards, args.strategy, args.workers) == (2, "edge-cut", 1)
        assert (args.data_dir, args.checkpoint_every) == ("d", 8)

    @pytest.mark.parametrize(
        "flag",
        [
            ["--replicas", "2"],
            ["--backend", "process"],
            ["--worker-log-dir", "logs"],
        ],
    )
    def test_one_session_per_shard_has_no_topology_flags(self, flag, capsys):
        """A shard is one in-process session: no replica count, no
        transport choice, no worker logs."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "g.txt", "--shards", "2", *flag])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_checkpoint_every_needs_a_data_dir(self, graph_file, capsys):
        code = main(
            ["serve", graph_file, "--shards", "2", "--checkpoint-every", "4"]
        )
        assert code == 2
        assert "--checkpoint-every requires --data-dir" in capsys.readouterr().err
