"""CLI tests (python -m repro ...)."""

import re

import pytest

from repro.cli import main

ANCESTOR = """
% ancestor
anc(X, Y) :- par(X, Y).
anc(X, Y) :- par(X, Z), anc(Z, Y).
par(john, mary).
par(mary, sue).
anc(john, Y)?
"""

REVERSE = """
append(V, [], [V]).
append(V, [W | X], [W | Y]) :- append(V, X, Y).
reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "anc.dl"
    path.write_text(ANCESTOR)
    return str(path)


class TestRewrite:
    def test_magic(self, program_file, capsys):
        assert main(["rewrite", program_file, "--method", "magic"]) == 0
        out = capsys.readouterr().out
        assert "magic_anc_bf(john)." in out
        assert "anc^bf(X, Y) :- magic_anc_bf(X), par(X, Y)." in out

    def test_semijoin_flag(self, program_file, capsys):
        code = main(
            ["rewrite", program_file, "--method", "counting", "--semijoin"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "% method: counting_semijoin" in out

    def test_chain_sip(self, program_file, capsys):
        assert main(["rewrite", program_file, "--sip", "chain"]) == 0

    def test_semijoin_on_magic_is_an_error(self, program_file, capsys):
        code = main(
            ["rewrite", program_file, "--method", "magic", "--semijoin"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestQuery:
    def test_answers(self, program_file, capsys):
        assert main(["query", program_file]) == 0
        out = capsys.readouterr().out
        assert "mary" in out and "sue" in out

    def test_explicit_query_overrides_file(self, program_file, capsys):
        assert main(
            ["query", program_file, "--query", "anc(mary, Y)?"]
        ) == 0
        out = capsys.readouterr().out
        assert "sue" in out and "mary\n" not in out

    def test_boolean_query(self, program_file, capsys):
        assert main(
            ["query", program_file, "--query", "anc(john, sue)?"]
        ) == 0
        assert capsys.readouterr().out.strip() == "yes"
        assert main(
            ["query", program_file, "--query", "anc(sue, john)?"]
        ) == 0
        assert capsys.readouterr().out.strip() == "no"

    def test_stats_on_stderr(self, program_file, capsys):
        assert main(["query", program_file, "--stats"]) == 0
        err = capsys.readouterr().err
        assert "facts=" in err

    def test_extra_facts_file(self, tmp_path, capsys):
        program = tmp_path / "p.dl"
        program.write_text(
            "anc(X, Y) :- par(X, Y).\n"
            "anc(X, Y) :- par(X, Z), anc(Z, Y).\n"
        )
        facts = tmp_path / "f.dl"
        facts.write_text("par(a, b).\npar(b, c).\n")
        code = main(
            [
                "query",
                str(program),
                "--facts",
                str(facts),
                "--query",
                "anc(a, Y)?",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "b" in out and "c" in out

    def test_auto_repeat_reports_memo_hits(self, program_file, capsys):
        argv = ["query", program_file, "--method", "auto", "--repeat", "3"]
        assert main(argv + ["--stats"]) == 0
        assert "memo_hits=2" in capsys.readouterr().err

    def test_facts_file_with_rules_rejected(self, tmp_path, capsys):
        program = tmp_path / "p.dl"
        program.write_text("anc(X, Y) :- par(X, Y).\nanc(a, Y)?\n")
        facts = tmp_path / "f.dl"
        facts.write_text("bad(X) :- par(X, X).\n")
        code = main(["query", str(program), "--facts", str(facts)])
        assert code == 1


class TestAdornAndSafety:
    def test_adorn(self, program_file, capsys):
        assert main(["adorn", program_file]) == 0
        out = capsys.readouterr().out
        assert "anc^bf" in out

    def test_safety_datalog(self, program_file, capsys):
        assert main(["safety", program_file]) == 0
        out = capsys.readouterr().out
        assert "SAFE" in out
        assert "Theorem 10.2" in out

    def test_safety_reverse(self, tmp_path, capsys):
        path = tmp_path / "rev.dl"
        path.write_text(REVERSE + 'reverse([a, b], Y)?\n')
        assert main(["safety", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("SAFE") == 2
        assert "Theorem 10.1" in out


CHAIN_EXPLAIN_GOLDEN = """\
anc(n0, n1)   [by anc(X, Y) :- par(X, Y).]
  par(n0, n1)

anc(n0, n2)   [by anc(X, Y) :- par(X, Z), anc(Z, Y).]
  par(n0, n1)
  anc(n1, n2)   [by anc(X, Y) :- par(X, Y).]
    par(n1, n2)

anc(n0, n3)   [by anc(X, Y) :- par(X, Z), anc(Z, Y).]
  par(n0, n1)
  anc(n1, n3)   [by anc(X, Y) :- par(X, Z), anc(Z, Y).]
    par(n1, n2)
    anc(n2, n3)   [by anc(X, Y) :- par(X, Y).]
      par(n2, n3)

... (2 more answers)
"""


class TestExplain:
    def test_derivation_tree_printed(self, program_file, capsys):
        assert main(["explain", program_file, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "[by anc(X, Y)" in out

    def test_chain_output_is_golden(self, tmp_path, capsys):
        """On a chain every derivation is unique, so the whole output
        is fixed: three trees in answer order, then the rest counted."""
        from repro.workloads import ancestor_program, chain_database

        rows = sorted(chain_database(5).tuples("par"), key=str)
        path = tmp_path / "chain.dl"
        path.write_text(
            f"{ancestor_program()}\n"
            + "".join(f"par({a}, {b}).\n" for a, b in rows)
        )
        code = main(
            ["explain", str(path), "--query", "anc(n0, Y)?", "--limit", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == CHAIN_EXPLAIN_GOLDEN


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["query", "/nonexistent.dl"]) == 1

    def test_no_query(self, tmp_path, capsys):
        path = tmp_path / "p.dl"
        path.write_text("anc(X, Y) :- par(X, Y).\n")
        assert main(["query", str(path)]) == 1
        assert "no query" in capsys.readouterr().err

    def test_worker_count_below_one_is_a_usage_error(
        self, program_file, capsys
    ):
        for bad in ("0", "-3", "two"):
            with pytest.raises(SystemExit) as info:
                main(["query", program_file, "--workers", bad])
            assert info.value.code == 2
            err = capsys.readouterr().err
            assert "argument --workers" in err and "int >= 1" in err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1"])
    def test_timeout_must_be_positive_and_finite(
        self, program_file, capsys, bad
    ):
        # a NaN or infinite deadline never trips and a negative one
        # trips at once: each is a usage error, as the server's
        # bad_request is, and so is such a cap on the server's deadlines
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            main(["query", program_file, "--timeout", bad])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --timeout" in err and "positive finite" in err
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "p.dl", "--max-timeout", bad])
        assert info.value.code == 2
        assert "argument --max-timeout" in capsys.readouterr().err


class TestWorkers:
    def test_pool_answers_match_serial(self, program_file, capsys):
        assert main(["query", program_file]) == 0
        serial = capsys.readouterr().out
        code = main(["query", program_file, "--workers", "2", "--stats"])
        assert code == 0
        assert capsys.readouterr().out == serial

    def test_stats_line_reports_the_pool(self, program_file, capsys):
        code = main(
            ["query", program_file, "--method", "seminaive", "--workers",
             "2", "--stats"]
        )
        assert code == 0
        err = capsys.readouterr().err
        (line,) = [ln for ln in err.splitlines() if ln.startswith("% method=")]
        fields = {token.split("=", 1)[0] for token in line[2:].split()}
        assert fields == {
            "method", "memo", "facts", "firings", "iterations", "probes",
            "workers", "parallel_tasks", "rows_shipped", "plan_cache_hits",
            "plan_cache_misses", "memo_hits", "memo_misses", "db_version",
        }
        assert "workers=2" in line

    def test_stats_json_reports_the_pool(self, program_file, capsys):
        import json

        code = main(
            ["query", program_file, "--method", "seminaive", "--workers",
             "2", "--stats-json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["workers"] == 2
        assert payload["parallel_tasks"] > 0
        assert payload["parallel_rows_shipped"] > 0
        assert set(payload) == {
            "query", "free_variables", "rows", "row_count", "method",
            "from_memo", "degraded", "maintained",
            "db_version", "elapsed", "repeat", "memo_hits", "memo_misses",
            "facts_derived", "iterations", "rule_firings", "join_probes",
            "tuples_scanned", "plan_cache_hits", "plan_cache_misses",
            "workers", "parallel_tasks", "parallel_rows_shipped",
        }


class TestStatsJson:
    def test_one_json_object_on_stdout(self, program_file, capsys):
        import json

        code = main(
            ["query", program_file, "--method", "auto", "--stats-json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # exactly one object, nothing else
        assert payload["row_count"] == 2
        assert sorted(payload["rows"]) == [["mary"], ["sue"]]
        assert payload["method"] != "auto"
        assert payload["from_memo"] is False
        for key in (
            "facts_derived", "iterations", "plan_cache_hits",
            "memo_hits", "memo_misses", "db_version", "elapsed",
        ):
            assert key in payload, key

    def test_repeat_reports_memo_hit(self, program_file, capsys):
        import json

        code = main(
            ["query", program_file, "--stats-json", "--repeat", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["from_memo"] is True
        assert payload["memo_hits"] == 2

    def test_qsq_reports_its_join_work(self, program_file, capsys):
        import json

        argv = ["query", program_file, "--method", "qsq", "--stats-json"]
        assert main(argv) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["tuples_scanned"] > 0
        assert stats["rule_firings"] >= stats["facts_derived"] > 0

    def test_boolean_query_rows(self, program_file, capsys):
        import json

        code = main(
            ["query", program_file, "--query", "anc(john, sue)?",
             "--stats-json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["free_variables"] == []
        assert payload["rows"] == [[]]  # yes: one empty binding


class TestServeParser:
    def test_serve_takes_no_worker_count(self, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "prog.dl", "--workers", "2"])
        assert info.value.code == 2
        assert "--workers" in capsys.readouterr().err

    def test_serve_registered_with_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "prog.dl"])
        assert args.command == "serve"
        assert args.port == 0
        assert args.readers == 4
        assert args.materialize is None

    def test_serve_options(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "prog.dl", "--port", "7471", "--readers", "8",
             "--max-timeout", "2.5", "--max-facts", "1000",
             "--materialize", "anc", "--materialize", "path"]
        )
        assert args.port == 7471
        assert args.readers == 8
        assert args.max_timeout == 2.5
        assert args.max_facts == 1000
        assert args.materialize == ["anc", "path"]


def bom_file(tmp_path, capsys, depth, rate):
    argv = ["workload", "bom", "--depth", str(depth), "--fanout", "2"]
    assert main(argv + ["--exception-rate", str(rate), "--seed", "1"]) == 0
    path = tmp_path / f"bom{depth}.dl"
    path.write_text(capsys.readouterr().out)
    return str(path)


class TestStratifiedSource:
    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--method", "seminaive", "--stats"],
            ["query", "--method", "naive"],
            ["query", "--method", "magic", "--stats"],
            ["query", "--method", "supplementary_magic", "--query",
             "clean(p1, S)?", "--stats"],
            ["query", "--method", "auto", "--repeat", "2", "--stats"],
            ["safety"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_every_bottom_up_method_runs_it(self, tmp_path, capsys, argv):
        path = bom_file(tmp_path, capsys, 4, 0.2)
        assert main(argv[:1] + [path] + argv[1:]) == 0


class TestLoad:
    """Text to ID rows through the one loader, on a 4k-fact source."""

    def test_a_generated_source_loads_whole_or_split(self, tmp_path, capsys):
        path = bom_file(tmp_path, capsys, 10, 0.1)
        assert main(["query", path]) == 0
        auto = capsys.readouterr().out
        assert auto
        assert main(["query", path, "--method", "seminaive"]) == 0
        assert capsys.readouterr().out == auto
        lines = open(path).read().splitlines()
        rules = tmp_path / "rules.dl"
        rules.write_text(
            "".join(ln + "\n" for ln in lines if re.search(r":-|\?$", ln))
        )
        facts = tmp_path / "facts.dl"
        facts.write_text("".join(
            ln + "\n" for ln in lines if not re.search(r":-|\?$|^%|^$", ln)
        ))
        assert main(["query", str(rules), "--facts", str(facts)]) == 0
        assert capsys.readouterr().out == auto
        assert main(["query", str(rules), "--facts", path]) == 1
        err = capsys.readouterr().err
        assert "contains rules; put rules in the program file" in err

    def test_a_corrupted_fact_names_its_line_and_column(self, tmp_path, capsys):
        path = bom_file(tmp_path, capsys, 10, 0.1)
        lines = open(path).read().splitlines()
        assert lines[1499] == "subpart(p745, p1491)."
        lines[1499] = lines[1499].replace(", p", ", 1p", 1)
        bad = tmp_path / "bad.dl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["query", str(bad)]) == 1
        assert "line 1500, column 16" in capsys.readouterr().err
