"""Tests for the reprolint static-analysis suite (RPL001-RPL005, RPL007).

Each rule is exercised against a fixture file in ``tests/lint_fixtures/``
carrying known violations; fixtures impersonate in-scope modules via the
``# reprolint-module:`` magic comment. The suite also asserts the
shipped ``src/repro`` tree is lint-clean — the same gate CI runs — so a
change that breaks an invariant fails here before it reaches CI.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Project,
    format_findings,
    format_json,
    get_rules,
    lint,
    rule_catalog,
)
from repro.analysis.imports import build_import_graph, reachable
from repro.cli import main as cli_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
PACKAGE_DIR = Path(repro.__file__).parent


def lint_fixture(name: str, rules: list[str] | None = None):
    project = Project.from_paths([FIXTURES / name])
    return lint(project, get_rules(rules) if rules else None)


# ----------------------------------------------------------------------
# per-rule fixtures
# ----------------------------------------------------------------------
class TestRPL001HotPathPurity:
    def test_flags_validated_ops_and_searchsorted_in_loop(self):
        result = lint_fixture("rpl001_bad.py", ["RPL001"])
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 3
        assert any("rank1" in m for m in messages)
        assert any("select1" in m for m in messages)
        assert any("searchsorted" in m for m in messages)

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = FIXTURES / "rpl001_bad.py"
        body = source.read_text().replace(
            "# reprolint-module: repro.ltj.fixture_hot",
            "# reprolint-module: repro.experiments.fixture_hot",
        )
        moved = tmp_path / "elsewhere.py"
        moved.write_text(body)
        result = lint(Project.from_paths([moved]), get_rules(["RPL001"]))
        assert result.ok

    def test_flags_canonical_array_element_reads(self):
        result = lint_fixture("rpl001_scalars_bad.py", ["RPL001"])
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 3
        assert any("_members[...]" in m for m in messages)
        assert any("_s_offsets[...]" in m for m in messages)
        # searchsorted over a mirrored array fires with no loop in sight
        assert any(
            "searchsorted" in m and "_distances" in m for m in messages
        )
        # every finding points at the plain-scalar mirror remedy
        assert all("_i' mirror" in m for m in messages)

    def test_mirror_slice_write_and_unmirrored_reads_exempt(self):
        result = lint_fixture("rpl001_scalars_bad.py", ["RPL001"])
        lines = {f.line for f in result.findings}
        source = (FIXTURES / "rpl001_scalars_bad.py").read_text()
        for marker in (
            "_members_i[j]",
            "_members[lo:hi]",
            "_members[j] = value",
            "_weights[lo]",
            "bisect_right(index._distances_i",
        ):
            line = next(
                i
                for i, text in enumerate(source.splitlines(), start=1)
                if marker in text
            )
            assert line not in lines


    def test_flags_bitvector_mirror_reads_around_the_level_view(self):
        result = lint_fixture("rpl001_level_view_bad.py", ["RPL001"])
        source = (FIXTURES / "rpl001_level_view_bad.py").read_text()
        leaky = source[: source.index("def leaky_descent")].count("\n")
        assert sorted(f.message.split("'")[1] for f in result.findings) == [
            "._cum1_i", "._words_i",
        ]
        assert all(f.line > leaky for f in result.findings)

    def test_level_view_builder_named_in_config_is_the_shipped_one(self):
        from repro.analysis.config import LEVEL_VIEW_BUILDERS
        from repro.succinct.wavelet_tree import WaveletTree

        assert all(hasattr(WaveletTree, name) for name in LEVEL_VIEW_BUILDERS)

    def test_mirrored_attrs_match_the_declared_layouts(self):
        # The rule's list is config, the truth is each structure's own
        # declaration: an array declared mirrored must be patrolled.
        from repro.analysis.config import (
            BITVECTOR_MIRROR_ATTRS,
            INT_MIRRORED_ARRAY_ATTRS,
        )
        from repro.store.layout import KINDS

        declared = set().union(*(cls.LAYOUT.mirrored for cls in KINDS.values()))
        assert declared == INT_MIRRORED_ARRAY_ATTRS
        # ... and so must the word caches a bitvector's kernels read:
        # its one mirror plus the tables it derives instead of storing.
        bitvector = KINDS["bitvector"].LAYOUT
        assert BITVECTOR_MIRROR_ATTRS == {
            name + "_i" for name in bitvector.mirrored
        } | set(bitvector.derived)


class TestRPL002CounterBeforeMemo:
    def test_flags_lookup_before_increment(self):
        result = lint_fixture("rpl002_bad.py", ["RPL002"])
        flagged = {f.message.split("'")[1] for f in result.findings}
        assert flagged == {
            "BadMemoTree.rank",
            "BadMemoTree.helper_entry",
            # the counted-unchecked twins are entry points, not helpers
            "BadMemoTree._range_next_value_u",
            "BadMemoTree._range_values_u",
        }

    def test_patrolled_entry_exists_and_is_called_from_outside(self):
        # Config names the twin; it must name a real method that other
        # modules do call, or the patrol guards nothing.
        from repro.analysis.config import COUNTED_UNCHECKED_ENTRIES
        from repro.succinct.wavelet_tree import WaveletTree

        for entry in COUNTED_UNCHECKED_ENTRIES:
            assert callable(getattr(WaveletTree, entry))
            callers = [
                path
                for path in PACKAGE_DIR.rglob("*.py")
                if path.name != "wavelet_tree.py"
                and f".{entry}(" in path.read_text()
            ]
            assert callers, entry

    def test_good_method_not_flagged(self):
        result = lint_fixture("rpl002_bad.py", ["RPL002"])
        assert not any("good_rank" in f.message for f in result.findings)


class TestRPL003ObsGuard:
    def test_flags_unguarded_touches_only(self):
        result = lint_fixture("rpl003_bad.py", ["RPL003"])
        touched = [f.message for f in result.findings]
        assert len(result.findings) == 3
        assert any("self._trace.record" in m for m in touched)
        assert any("self._trace.var" in m for m in touched)
        assert any("vc.leap" in m for m in touched)
        # All findings sit inside evaluate(); the guarded method is clean.
        assert all(11 <= f.line <= 15 for f in result.findings)


    def test_serve_package_is_in_obs_scope(self):
        from repro.analysis.config import OBS_GUARD_PREFIXES, in_scope

        assert in_scope("repro.serve.metrics", OBS_GUARD_PREFIXES)
        result = lint_fixture("rpl003_serve_bad.py", ["RPL003"])
        assert len(result.findings) == 1
        assert "self._trace.wavelets" in result.findings[0].message
        # The guarded twin of the same access must stay clean.
        guarded_line = next(
            i
            for i, text in enumerate(
                (FIXTURES / "rpl003_serve_bad.py").read_text().splitlines(),
                1,
            )
            if "render_guarded" in text
        )
        assert all(f.line < guarded_line for f in result.findings)

    def test_cache_package_is_in_obs_scope(self):
        from repro.analysis.config import OBS_GUARD_PREFIXES, in_scope

        assert in_scope("repro.cache.store", OBS_GUARD_PREFIXES)
        result = lint_fixture("rpl003_cache_bad.py", ["RPL003"])
        assert len(result.findings) == 1
        assert "self._trace.record" in result.findings[0].message
        # The guarded twin of the same access must stay clean.
        guarded_line = next(
            i
            for i, text in enumerate(
                (FIXTURES / "rpl003_cache_bad.py").read_text().splitlines(),
                1,
            )
            if "probe_guarded" in text
        )
        assert all(f.line < guarded_line for f in result.findings)


class TestRPL004Determinism:
    def test_flags_each_nondeterminism_kind(self):
        result = lint_fixture("rpl004_bad.py", ["RPL004"])
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 5
        assert any("without a seed" in m for m in messages)
        assert any("np.random.randint" in m for m in messages)
        assert any("random.random" in m for m in messages)
        assert any("wall-clock" in m for m in messages)
        assert any("iteration over a set" in m for m in messages)

    def test_sorted_set_is_not_flagged(self):
        result = lint_fixture("rpl004_bad.py", ["RPL004"])
        safe_line = next(
            i
            for i, text in enumerate(
                (FIXTURES / "rpl004_bad.py").read_text().splitlines(), 1
            )
            if "safe_order" in text
        )
        assert all(f.line <= safe_line for f in result.findings)


class TestRPL005EngineContract:
    def test_relation_without_hook_flagged(self):
        result = lint_fixture("rpl005_relation_bad.py", ["RPL005"])
        assert len(result.findings) == 1
        assert "HookFreeRelation" in result.findings[0].message
        assert "wavelet_trees" in result.findings[0].message

    def test_adhoc_engine_return_flagged_delegation_allowed(self):
        result = lint_fixture("rpl005_engine_bad.py", ["RPL005"])
        assert len(result.findings) == 1
        assert "RogueEngine" in result.findings[0].message

    def test_parallel_package_is_in_engine_scope(self):
        from repro.analysis.config import ENGINE_MODULE_PREFIXES, in_scope

        assert in_scope("repro.parallel.executor", ENGINE_MODULE_PREFIXES)
        result = lint_fixture("rpl005_parallel_bad.py", ["RPL005"])
        assert len(result.findings) == 1
        assert "RogueShardEngine" in result.findings[0].message

    def test_serve_package_is_in_engine_scope(self):
        from repro.analysis.config import ENGINE_MODULE_PREFIXES, in_scope

        assert in_scope("repro.serve.app", ENGINE_MODULE_PREFIXES)

    def test_cache_package_is_in_engine_scope_probe_blessed(self):
        from repro.analysis.config import ENGINE_MODULE_PREFIXES, in_scope

        assert in_scope("repro.cache.store", ENGINE_MODULE_PREFIXES)
        # The bad engine's dict-shaped hit return is the only finding:
        # the good twin's `return hit` (bound from cache.probe(...), a
        # QueryResult | None factory) is blessed.
        result = lint_fixture("rpl005_cache_bad.py", ["RPL005"])
        assert len(result.findings) == 1
        assert "BadCachingEngine" in result.findings[0].message


class TestRPL007ShmOnlyTransport:
    def test_flags_each_transport_kind(self):
        result = lint_fixture("rpl007_bad.py", ["RPL007"])
        messages = [f.message for f in result.findings]
        assert len(result.findings) == 7
        assert any("import of 'pickle'" in m for m in messages)
        assert any("import from 'pickle'" in m for m in messages)
        assert any("'pickle.dumps()'" in m for m in messages)
        assert any("'pickle.loads()'" in m for m in messages)
        assert any("explicit '__getstate__()' call" in m for m in messages)
        assert any(
            "definition of '__getstate__'" in m for m in messages
        )
        assert any(
            "definition of '__setstate__'" in m for m in messages
        )
        # Every message points at the sanctioned path.
        assert all("repro.store.layout" in m for m in messages)

    def test_out_of_scope_module_ignored(self, tmp_path):
        source = FIXTURES / "rpl007_bad.py"
        body = source.read_text().replace(
            "# reprolint-module: repro.parallel.fixture_transport",
            "# reprolint-module: repro.graph.fixture_transport",
        )
        moved = tmp_path / "elsewhere.py"
        moved.write_text(body)
        result = lint(Project.from_paths([moved]), get_rules(["RPL007"]))
        assert result.ok

    def test_shipped_parallel_package_is_clean(self):
        # No module is exempt any more: the whole shipped parallel
        # package (shm included) must be RPL007-clean.
        parallel_dir = PACKAGE_DIR / "parallel"
        result = lint(
            Project.from_paths([parallel_dir]), get_rules(["RPL007"])
        )
        assert result.ok, "\n" + format_findings(result)


# ----------------------------------------------------------------------
# suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_justified_suppressions_silence_findings(self):
        result = lint_fixture("suppression_ok.py", ["RPL001"])
        assert result.ok
        assert len(result.suppressed) == 2
        assert all(f.justification for f in result.suppressed)

    def test_suppression_without_justification_is_rpl000(self):
        result = lint_fixture("suppression_nojust.py", ["RPL001"])
        codes = [f.code for f in result.findings]
        assert "RPL000" in codes
        assert "RPL001" not in codes  # the disable still applies


# ----------------------------------------------------------------------
# framework pieces
# ----------------------------------------------------------------------
class TestFramework:
    def test_rule_catalog_is_complete(self):
        codes = [code for code, _name, _summary in rule_catalog()]
        assert codes == [
            "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL007",
        ]

    def test_get_rules_rejects_unknown_codes(self):
        with pytest.raises(KeyError):
            get_rules(["RPL001", "RPL999"])

    def test_json_output_shape(self):
        result = lint_fixture("rpl001_bad.py", ["RPL001"])
        doc = json.loads(format_json(result))
        assert doc["ok"] is False
        assert doc["rules"] == ["RPL001"]
        assert all(
            {"code", "message", "path", "line"} <= set(f)
            for f in doc["findings"]
        )

    def test_human_output_has_summary_line(self):
        result = lint_fixture("rpl001_bad.py", ["RPL001"])
        text = format_findings(result)
        assert "RPL001: 3" in text.splitlines()[-1]

    def test_import_graph_and_reachability(self):
        project = Project.from_paths([PACKAGE_DIR])
        graph = build_import_graph(project)
        # The engines import the LTJ engine, which imports the ring.
        assert "repro.ltj.engine" in reachable(graph, ("repro.engines",))
        assert "repro.ring.index" in reachable(graph, ("repro.engines",))
        # The analysis package is NOT on the query path.
        assert "repro.analysis.core" not in reachable(
            graph, ("repro.engines",)
        )


# ----------------------------------------------------------------------
# the real gates
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_shipped_tree_is_lint_clean(self):
        result = lint(Project.from_paths([PACKAGE_DIR]))
        assert result.ok, "\n" + format_findings(result)

    def test_cli_exit_codes_and_json(self, capsys):
        rc = cli_main(
            ["lint", "--format=json", str(FIXTURES / "rpl001_bad.py"),
             "--rules", "RPL001"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False

        rc = cli_main(["lint", "--format=json", str(PACKAGE_DIR)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_cli_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "RPL001" in out and "RPL007" in out

    def test_cli_missing_path_is_a_typed_error(self, capsys):
        missing = PACKAGE_DIR / "nope.py"
        assert cli_main(["lint", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "ValidationError" in err and str(missing) in err

    def test_cli_run_that_checks_no_module_is_an_error(self, tmp_path, capsys):
        # A directory without modules (a typo'd package path that happens
        # to exist) must not lint nothing and report clean.
        (tmp_path / "notes.txt").write_text("not python\n")
        assert cli_main(["lint", "--format=json", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "ValidationError: no Python modules" in captured.err


@pytest.mark.skipif(
    importlib.util.find_spec("mypy") is None,
    reason="mypy not installed (CI installs it for the strict gate)",
)
def test_mypy_strict_gate_runs():  # pragma: no cover - CI-only
    import subprocess
    import sys

    repo_root = Path(__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        cwd=repo_root,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
