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
    """Typed, traceback-free failures of the query/server commands (the
    class keeps its first name so the test ids stay put)."""

    def _run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        return code, captured

    def test_missing_index_file_is_typed_error(self, tmp_path, capsys):
        code, captured = self._run(
            [
                "query", "--from-index", str(tmp_path / "missing.idx"),
                "--query", "(?x, 0, ?y)",
            ],
            capsys,
        )
        assert code == 2
        # the store layer raises its own typed family for a bad path
        assert "StoreFormatError" in captured.err
        assert "No such file" in captured.err

    def _corrupt_index(self, tmp_path, capsys, *flags):
        corrupt = tmp_path / "corrupt.idx"
        corrupt.write_bytes(b"this is not an index file at all")
        code, captured = self._run(
            [
                "query", "--from-index", str(corrupt), *flags,
                "--query", "(?x, 0, ?y)",
            ],
            capsys,
        )
        assert code == 2
        assert "Store" in captured.err  # typed Store* family

    def test_corrupt_index_file_is_typed_error(self, tmp_path, capsys):
        self._corrupt_index(tmp_path, capsys)

    def test_corrupt_index_file_unverified_is_typed_error(
        self, tmp_path, capsys
    ):
        # Skipping the checksum does not skip the structural checks.
        self._corrupt_index(tmp_path, capsys, "--no-verify")

    def test_malformed_query_is_typed_error(self, bundle_path, capsys):
        code, captured = self._run(
            [
                "query", "--data", str(bundle_path),
                "--query", "(?x, 0, ?y) . knn(?broken",
            ],
            capsys,
        )
        assert code == 2
        assert "QueryError" in captured.err

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


_IMPORT_BUDGET_SCRIPT = """
import sys
import repro.cli

HEAVY = ("scipy", "repro.analysis", "repro.serve", "multiprocessing")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

assert not loaded(), f"import repro.cli pulled in {loaded()}"
index, query = sys.argv[1:]
argv = ["--from-index", index, "--query", query]
assert repro.cli.main(["query", *argv, "--engine", "auto"]) == 0
assert not loaded(), f"repro query pulled in {loaded()}"
# A clause-free BGP: explain solves the size-bound LP, and only then
# does the solver get imported.
assert repro.cli.main(["explain", *argv]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_query_process_import_budget(bundle_path, tmp_path):
    """A `repro query` process imports no LP solver, no sanitizer, no
    server and no multiprocessing — the cold-start workload pays for
    whatever `import repro.cli` drags in."""
    import os
    import subprocess
    import sys

    import repro

    index = str(tmp_path / "budget.idx")
    assert main(["build", "--data", str(bundle_path), "--out", index]) == 0
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, index, "(?e, 0, ?img)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "output bound Q*" in done.stdout


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data", "x", "--query", "y", "--engine", "magic"]
            )

    def test_eight_subcommands(self):
        (subparsers,) = [
            action for action in build_parser()._actions if action.choices
        ]
        assert list(subparsers.choices) == [
            "generate", "build", "query", "explain", "trace", "serve",
            "experiments", "stats",
        ]
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["lint"])
        assert exit_info.value.code == 2

    # The serve-batch and cache rows name subcommands that are gone
    # altogether (`repro serve` + `/metrics?format=json` replaced them):
    # argparse refuses the subcommand itself.
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
