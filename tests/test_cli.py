"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "bench.npz"
    code = main(
        [
            "generate",
            "--out",
            str(path),
            "--entities",
            "60",
            "--images",
            "30",
            "--misc-triples",
            "200",
            "--K",
            "5",
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_bundle_created(self, bundle_path, capsys):
        assert bundle_path.exists()

    def test_bundle_loads(self, bundle_path):
        from repro.graph.io import load_bundle

        graph, knn, points = load_bundle(bundle_path)
        assert graph.num_edges > 0
        assert knn is not None and knn.K == 5
        assert points is not None


class TestQuery:
    def test_query_runs(self, bundle_path, capsys):
        code = main(
            [
                "query",
                "--data",
                str(bundle_path),
                "--query",
                "(?e, 0, ?img) . knn(?img, ?other, 3)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "solutions in" in out
        assert "ring-knn" in out

    @pytest.mark.parametrize(
        "engine", ["ring-knn", "ring-knn-s", "baseline", "sixperm-knn"]
    )
    def test_all_engines_selectable(self, bundle_path, engine, capsys):
        code = main(
            [
                "query",
                "--data",
                str(bundle_path),
                "--query",
                "(?e, 0, ?img) . knn(?img, ?other, 2)",
                "--engine",
                engine,
                "--print-limit",
                "3",
            ]
        )
        assert code == 0
        assert engine in capsys.readouterr().out

    def test_limit_flag(self, bundle_path, capsys):
        code = main(
            [
                "query",
                "--data",
                str(bundle_path),
                "--query",
                "(?e, 0, ?img)",
                "--limit",
                "2",
            ]
        )
        assert code == 0
        assert "2 solutions" in capsys.readouterr().out


class TestExplain:
    def test_explain_prints_plan(self, bundle_path, capsys):
        code = main(
            [
                "explain",
                "--data",
                str(bundle_path),
                "--query",
                "(?e, 0, ?img) . sim(?img, ?other, 3)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "single-2-cyclic" in out
        assert "plan for" in out


class TestCacheCommands:
    def test_cache_stats_replays_a_workload(
        self, bundle_path, tmp_path, capsys
    ):
        import json

        queries = tmp_path / "queries.txt"
        queries.write_text(
            "(?e, 0, ?img)\n"
            "(?e, 0, ?img) . knn(?img, ?other, 3)\n"
        )
        code = main(
            [
                "cache", "stats", "--data", str(bundle_path),
                "--queries", str(queries), "--repeat", "2",
            ]
        )
        assert code == 0
        stats = json.loads(capsys.readouterr().out)
        # Two passes over two queries: the second pass hits everything
        # the first admitted.
        assert stats["fills"] >= 1
        assert stats["hits"] >= 1
        assert stats["hit_rate"] == pytest.approx(
            stats["hits"] / (stats["hits"] + stats["misses"])
        )
        assert 0 < stats["bytes"] <= stats["max_bytes"]

    def test_cache_stats_requires_a_source(self, capsys):
        code = main(["cache", "stats"])
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.err
        assert "ValidationError" in captured.err

    def test_explain_analyze_reports_cache_outcome(
        self, bundle_path, capsys
    ):
        argv = [
            "explain", "--data", str(bundle_path),
            "--query", "(?e, 0, ?img) . knn(?img, ?other, 2)",
            "--analyze",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: miss" in out
        assert "signature=" in out
        assert "[stored]" in out

    def test_explain_analyze_no_cache_omits_the_line(
        self, bundle_path, capsys
    ):
        argv = [
            "explain", "--data", str(bundle_path),
            "--query", "(?e, 0, ?img) . knn(?img, ?other, 2)",
            "--analyze", "--no-cache",
        ]
        assert main(argv) == 0
        assert "cache:" not in capsys.readouterr().out

    def test_serve_batch_prints_cache_summary(
        self, bundle_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("(?e, 0, ?img)\n(?e, 0, ?img)\n")
        code = main(
            [
                "serve-batch", "--data", str(bundle_path),
                "--queries", str(queries), "--workers", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache:" in out and "fills" in out

    def test_serve_batch_no_cache_runs_without_summary(
        self, bundle_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("(?e, 0, ?img)\n")
        code = main(
            [
                "serve-batch", "--data", str(bundle_path),
                "--queries", str(queries), "--workers", "1", "--no-cache",
            ]
        )
        assert code == 0
        assert "cache:" not in capsys.readouterr().out


class TestExperimentCommands:
    def test_selected_experiments_write_their_tables(self, tmp_path, capsys):
        code = main(["experiments", "--only", "E6,E10", "--out", str(tmp_path)])
        assert code == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "bounds.txt", "claims.txt", "ordering_contrast.txt", "space.txt",
        ]
        claims = (tmp_path / "claims.txt").read_text()
        assert "E6" in claims and "E10" in claims and "NO" not in claims
        assert "E6" in capsys.readouterr().out

    def test_unknown_experiment_id_is_a_typed_error(self, tmp_path, capsys):
        code = main(["experiments", "--only", "E6,E99", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and "E99" in err
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())


class TestServeBatchErrorPaths:
    """Typed, traceback-free failures of the batch/server commands."""

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured

    def test_missing_query_file_is_typed_error(self, bundle_path, capsys):
        code, captured = self._run(
            [
                "serve-batch", "--data", str(bundle_path),
                "--queries", "/nonexistent/queries.txt",
            ],
            capsys,
        )
        assert code == 2
        assert "ValidationError" in captured.err
        assert "cannot read query file" in captured.err

    def test_malformed_query_line_is_typed_error(
        self, bundle_path, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "# a comment\n"
            "(?x, 0, ?y)\n"
            "\n"
            "(?x, 0, ?y) . knn(?broken\n"
        )
        code, captured = self._run(
            [
                "serve-batch", "--data", str(bundle_path),
                "--queries", str(queries), "--workers", "1",
            ],
            capsys,
        )
        assert code == 2
        assert "QueryError" in captured.err
        # points at the offending non-comment line, 1-based
        assert "non-comment line 2" in captured.err
        assert "knn(?broken" in captured.err

    def test_missing_index_file_is_typed_error(self, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("(?x, 0, ?y)\n")
        code, captured = self._run(
            [
                "serve-batch", "--from-index",
                str(tmp_path / "missing.idx"),
                "--queries", str(queries),
            ],
            capsys,
        )
        assert code == 2
        # the store layer raises its own typed family for a bad path
        assert "StoreFormatError" in captured.err
        assert "No such file" in captured.err

    def test_corrupt_index_file_is_typed_error(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.idx"
        corrupt.write_bytes(b"this is not an index file at all")
        queries = tmp_path / "queries.txt"
        queries.write_text("(?x, 0, ?y)\n")
        code, captured = self._run(
            [
                "serve-batch", "--from-index", str(corrupt),
                "--queries", str(queries),
            ],
            capsys,
        )
        assert code == 2
        assert "Store" in captured.err  # typed Store* family

    def test_serve_missing_index_is_typed_error(self, tmp_path, capsys):
        code, captured = self._run(
            ["serve", "--from-index", str(tmp_path / "missing.idx")],
            capsys,
        )
        assert code == 2
        assert "StoreFormatError" in captured.err
        assert "No such file" in captured.err

    def test_missing_data_bundle_is_typed_error(self, tmp_path, capsys):
        code, captured = self._run(
            [
                "query", "--data", str(tmp_path / "missing.npz"),
                "--query", "(?x, 0, ?y)",
            ],
            capsys,
        )
        assert code == 2
        assert "ValidationError" in captured.err
        assert "cannot read data bundle" in captured.err


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data", "x", "--query", "y", "--engine", "magic"]
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--data", "x", "--query", "y", "--engine", "parallel-knn"],
            ["explain", "--data", "x", "--query", "y", "--engine", "parallel-knn"],
            ["query", "--data", "x", "--query", "y", "--workers", "2"],
            ["serve-batch", "--data", "x", "--queries", "q", "--parallel-threshold", "9"],
            ["serve", "--from-index", "i", "--parallel-threshold", "9"],
            ["cache", "stats", "--data", "x", "--queries", "q", "--parallel-threshold", "9"],
        ],
    )
    def test_removed_sharding_surface_exits_2(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2

    def test_serve_subcommand_flags(self):
        args = build_parser().parse_args(
            [
                "serve", "--from-index", "bench.idx", "--port", "8080",
                "--workers", "4", "--capacity", "32", "--debug-faults",
            ]
        )
        assert args.from_index == "bench.idx"
        assert args.port == 8080
        assert args.workers == 4
        assert args.capacity == 32
        assert args.debug_faults is True

    def test_serve_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--data", "a.npz", "--from-index", "b.idx"]
            )
