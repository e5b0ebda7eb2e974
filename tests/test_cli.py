"""Tests for the command-line interface."""

import os

import pytest

from conftest import _knn_fan
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

    def test_explain_saturated_bound(self, bundle_path, capsys):
        # rho* passes 1024: Q* reads inf, not an OverflowError traceback.
        argv = ["explain", "--data", str(bundle_path), "--query", _knn_fan(200)]
        assert main(argv) == 0
        assert "output bound Q*: inf" in capsys.readouterr().out


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

    def test_corrupt_index_file_is_typed_error(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.idx"
        corrupt.write_bytes(b"this is not an index file at all")
        code, captured = self._run(
            [
                "query", "--from-index", str(corrupt),
                "--query", "(?x, 0, ?y)",
            ],
            capsys,
        )
        assert code == 2
        assert "Store" in captured.err  # typed Store* family

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

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--capacity", "0", "capacity"),
            ("--workers", "0", "workers"),
            ("--workers", "-3", "workers"),
            ("--timeout", "-1", "default_timeout"),
            ("--drain-grace", "-0.5", "drain_grace"),
            ("--cache-bytes", "-1", "cache_bytes"),
        ],
    )
    def test_serve_out_of_range_flag_is_typed_error(
        self, tmp_path, capsys, flag, value, field
    ):
        # The bundle does not exist: the flag is refused before any file
        # is read or socket bound.
        code, captured = self._run(
            ["serve", "--data", str(tmp_path / "missing.npz"), flag, value],
            capsys,
        )
        assert code == 2
        assert captured.err.count("\n") == 1
        assert f"ValidationError: {field} must be >= " in captured.err

    def test_negative_limit_is_refused_by_every_engine_and_command(
        self, bundle_path, capsys
    ):
        """A negative limit used to search and emit one row, then
        return none of it (``stats.solutions`` read 1): every engine
        refuses it before searching, and both commands that take
        ``--limit`` exit 2 with one line."""
        from repro import engines
        from repro.cli import _load_db
        from repro.query.parser import parse_query
        from repro.utils.errors import ValidationError

        text = "(?e, 0, ?img) . knn(?img, ?other, 3)"
        query = parse_query(text)
        db = _load_db(str(bundle_path))
        for engine in engines.ENGINES.values():
            with pytest.raises(ValidationError, match="limit must be >= 0"):
                engine(db).evaluate(query, limit=-1)
            assert not engine(db).evaluate(query, limit=0).solutions
        for command in ("query", "trace"):
            code, captured = self._run(
                [command, "--data", str(bundle_path), "--query", text,
                 "--limit=-1"],
                capsys,
            )
            assert code == 2, command
            assert captured.err.count("\n") == 1
            assert "ValidationError: limit must be >= 0" in captured.err

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

HEAVY = ("numpy", "scipy", "dataclasses", "inspect",
         "repro.serve", "multiprocessing",
         "repro.datasets", "repro.graph.io", "repro.explain",
         "repro.engines.baseline", "repro.engines.classic", "repro.engines.kstar",
         "repro.engines.materialize", "repro.bounds.linear_program",
         "repro.bounds.agm", "repro.knn.builders", "repro.knn.adjacency",
         "repro.obs.trace", "repro.obs.schema",
         "repro.query.rewrite", "repro.graph.sixperm", "repro.ltj.sixperm_relation")

def loaded():
    return [name for name in HEAVY if name in sys.modules]

assert not loaded(), f"import repro.cli pulled in {loaded()}"
index, query = sys.argv[1:]
argv = ["--from-index", index, "--query", query]
assert repro.cli.main(["query", *argv, "--engine", "auto"]) == 0
assert not loaded(), f"repro query pulled in {loaded()}"
# No 65,536-entry table is built at import: the select tables are 8-bit.
tables = vars(sys.modules["repro.succinct.tables"]).values()
assert max(len(t) for t in tables if isinstance(t, list)) <= 256
# explain solves the size-bound LP in the stdlib: still no numpy or scipy.
assert repro.cli.main(["explain", *argv]) == 0
assert not {"numpy", "scipy"} & set(sys.modules), "repro explain pulled in numpy/scipy"
assert {"repro.explain", "repro.bounds.linear_program"} <= set(sys.modules)
"""


def test_query_process_import_budget(bundle_path, tmp_path):
    """A `repro query` process imports no numpy, no `dataclasses` (nor
    the `inspect` it imports), no LP solver, no server, no
    multiprocessing, no dataset generator and no bundle reader, and none of the `repro` modules the index path
    never runs (`explain`, the engines an index cannot run, the K-NN
    builders, the trace and its schema) — the cold-start workload pays
    for whatever `import repro.cli` drags in. Its query has a K-NN
    clause, so the Ring's C tables and the K-NN tables are read in the
    process without numpy. A `repro explain` after it solves the size
    bound and still loads neither numpy nor scipy."""
    import os
    import re
    import subprocess
    import sys

    import repro

    index = str(tmp_path / "budget.idx")
    assert main(["build", "--data", str(bundle_path), "--out", index]) == 0
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [
            sys.executable, "-c", _IMPORT_BUDGET_SCRIPT, index,
            "(?e, 0, ?img) . knn(?img, ?y, 3)",
        ],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert re.search(r"^[1-9]\d* solutions in", done.stdout, re.MULTILINE)
    assert "output bound Q*" in done.stdout


def _mapped_numpy(pid: int) -> bool:
    """Whether process ``pid`` has a numpy file mapped (its C extension
    is mapped from the first ``import numpy`` on)."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
        return "/numpy/" in maps.read()


def _children(pid: int) -> list[int]:
    """The live child processes of ``pid``."""
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"),
    reason="reads the processes' memory maps",
)
@pytest.mark.parametrize("workers", [2, 1])
def test_served_index_process_loads_no_numpy(bundle_path, tmp_path, workers):
    """`repro serve --from-index` answers from the index file without
    numpy: a pooled reply longer than 8,192 rows comes back whole, the
    same query again is a cache hit, and neither the
    server nor any pool worker has numpy mapped — in a pool of two and
    in-thread."""
    import re
    import signal
    import subprocess
    import sys
    import time
    from pathlib import Path

    from conftest import _request

    index = str(tmp_path / "fence.idx")
    assert main(["build", "--data", str(bundle_path), "--out", index]) == 0
    src = str(Path(__file__).parents[1] / "src")
    log = tmp_path / "serve.log"
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--from-index", index, "--port", "0",
                "--workers", str(workers),
            ],
            stdout=out, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": src},
        )
    try:
        deadline = time.monotonic() + 120
        while not (banner := re.search(r"serving on http://[^:]+:(\d+)",
                                       log.read_text(encoding="utf-8"))):
            assert proc.poll() is None and time.monotonic() < deadline, (
                log.read_text(encoding="utf-8")
            )
            time.sleep(0.1)
        port = int(banner.group(1))
        query = {"query": "knn(?a, ?b, 4) . knn(?c, ?d, 3)"}
        replies = [
            _request("127.0.0.1", port, "POST", "/query", query)
            for _ in range(2)
        ]
        assert [status for status, _, _ in replies] == [200, 200], replies
        bodies = [body for _, _, body in replies]
        assert [body["cached"] for body in bodies] == [False, True]
        assert len(bodies[0]["solutions"]) > 8192
        assert bodies[1]["solutions"] == bodies[0]["solutions"]
        processes = [proc.pid, *_children(proc.pid)]
        if workers > 1:
            assert len(processes) > workers  # the pool's workers
        assert [pid for pid in processes if _mapped_numpy(pid)] == []
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=30)


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

    def test_serve_evaluates_in_thread_by_default(self):
        from repro.serve import ServeConfig

        args = build_parser().parse_args(["serve", "--from-index", "i"])
        assert args.workers == ServeConfig().workers == 1

    def test_serve_requires_exactly_one_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--data", "a.npz", "--from-index", "b.idx"]
            )
