import functools
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from wordstats import cli, formulas, oracle, verify
from wordstats.oracle import BUDGET_ENV_VAR

from test_properties import OLD_ARGPARSE, argparse_reads, reads


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def outcome(capsys, argv):
    """``main``'s exit code, stdout and stderr."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def counting_calls(calls, name, fn):
    """``fn`` that appends ``name`` to ``calls`` each time it is called."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


def flag(name):
    """The command-line option of a parameter named in ``formulas.FAMILIES``."""
    return "--" + name.replace("_", "-")


def _family_queries(alphabet_max=4, n=6):
    """Per family, in ``formulas.FAMILIES`` order, the options of one query.

    The query is the family's verify grid cell at length ``n`` whose
    closed-form table has the most nonzero rows, then the most words, the
    first one of those; its values follow the family's parameter ``names``
    in order.  ``hall-remmel``'s grid has no cells, so it keeps a query
    written by hand.
    """
    queries = []
    for family, forms in formulas.FAMILIES.items():
        cells = [(*head, n) for head in forms.grid(alphabet_max)]
        if not cells:
            queries.append((family, ["--rho", "2,1,2", "--x", "2,3", "--y", "all"]))
            continue

        def richness(params):
            table = formulas.distribution(family, params)
            return sum(1 for count in table.values() if count), sum(table.values())

        params = max(cells, key=richness)
        argv = []
        for name, value in zip(forms.names[:-1], params, strict=True):
            argv += [flag(name), ",".join(map(str, value)) if isinstance(value, tuple) else str(value)]
        queries.append((family, argv))
    return queries


class TestCount:
    def test_des_mod_closed_form(self, capsys):
        record = run_json(
            capsys,
            "count", "des-mod", "--s", "2", "--alphabet", "4", "--r", "1",
            "--n", "2", "--p", "1", "--engine", "closed-form",
        )
        assert record["result"]["count"] == "2"
        assert record["schema"] == cli.SCHEMA_VERSION
        assert record["engine"] == "closed-form"

    def test_levels_threshold(self, capsys):
        record = run_json(
            capsys, "count", "levels-threshold", "--k", "1", "--t", "1",
            "--n", "3", "--s", "2",
        )
        assert record["result"]["count"] == "1"

    def test_des_le_oracle_engine(self, capsys):
        record = run_json(
            capsys, "count", "des-le", "--k", "2", "--t", "2", "--n", "2",
            "--s", "1", "--engine", "oracle",
        )
        assert record["result"]["count"] == "1"

    def test_levels_blocks(self, capsys):
        record = run_json(
            capsys, "count", "levels-blocks", "--block-sizes", "1,1",
            "--n", "2", "--targets", "1,0",
        )
        assert record["result"]["count"] == "1"

    def test_hall_remmel(self, capsys):
        record = run_json(
            capsys, "count", "hall-remmel", "--rho", "1,1", "--x", "2",
            "--y", "all", "--s", "1",
        )
        assert record["result"]["count"] == "1"

    def test_engines_agree(self, capsys):
        counts = set()
        for engine in cli.ENGINES:
            record = run_json(
                capsys, "count", "des-gt", "--k", "3", "--t", "1", "--n", "4",
                "--s", "2", "--engine", engine,
            )
            counts.add(record["result"]["count"])
        assert len(counts) == 1

    def test_closed_form_equals_oracle_for_every_family(self, capsys):
        queries = [
            ("levels-threshold", ["--k", "3", "--t", "2", "--n", "4", "--s", "1"]),
            ("levels-blocks", ["--block-sizes", "2,1", "--n", "3", "--targets", "1,0"]),
            ("des-le", ["--k", "3", "--t", "2", "--n", "4", "--s", "1"]),
            ("des-gt", ["--k", "3", "--t", "1", "--n", "4", "--s", "1"]),
            ("des-mod", ["--s", "2", "--alphabet", "3", "--r", "2", "--n", "4", "--p", "1"]),
            ("hall-remmel", ["--rho", "2,1,1", "--x", "2,3", "--y", "all", "--s", "1"]),
        ]
        for family, params in queries:
            closed = run_json(
                capsys, "count", family, *params, "--engine", "closed-form"
            )
            oracle = run_json(capsys, "count", family, *params, "--engine", "oracle")
            assert closed["result"]["count"] == oracle["result"]["count"], family

    def test_missing_statistic_value(self, capsys):
        code, _, err = run(capsys, "count", "des-le", "--k", "2", "--t", "1", "--n", "2")
        assert code == cli.EXIT_USAGE
        assert "statistic value" in err

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(
            capsys, "count", "levels-threshold", "--k", "2", "--t", "5",
            "--n", "2", "--s", "0",
        )
        assert code == cli.EXIT_USAGE
        assert "error" in err

    def test_budget_exceeded_exit_3(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        code, _, err = run(
            capsys, "count", "des-le", "--k", "2", "--t", "1", "--n", "5",
            "--s", "1", "--engine", "oracle",
        )
        assert code == cli.EXIT_BUDGET
        assert "budget" in err
        # a one-letter alphabet has one word, but walking it takes n steps
        one_letter = ["count", "levels-blocks", "--block-sizes", "1", "--targets", "0", "--engine", "oracle"]
        assert run(capsys, *one_letter, "--n", "10")[0] == 0
        code, out, err = run(capsys, *one_letter, "--n", "11")
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert err.startswith("error: enumeration needs 11 words, over the budget of 10 ")

    @pytest.mark.parametrize(
        "argv, bits",
        [
            # brute force charges k**n = 2**15000, the rearrangement oracle n! = 2000!
            (["count", "des-le", "--k", "2", "--t", "1", "--n", "15000", "--s", "0"], 15001),
            (["table", "hall-remmel", "--rho", "2000", "--x", "1", "--y", "1"], 19053),
            # an n! too large to work out is named, not computed
            (["table", "hall-remmel", "--rho", "99999999999999999999", "--x", "1", "--y", "1"],
             "99999999999999999999!"),
            # and so is a k**n that could pass 2**16 bits
            (["count", "des-le", "--k", "4", "--t", "2", "--n", "9999999999", "--s", "0"],
             "4**9999999999"),
        ],
    )
    def test_charge_too_large_to_print_exits_3(self, capsys, monkeypatch, argv, bits):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--engine", "oracle")
        assert time.perf_counter() - start < 0.1
        charge = f"a {bits}-bit number of" if isinstance(bits, int) else bits
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert err.splitlines() == [
            f"error: enumeration needs {charge} words, over the budget of "
            f"{oracle.DEFAULT_ENUMERATION_BUDGET} (override with an explicit budget or {BUDGET_ENV_VAR})"
        ]

    @pytest.mark.parametrize(
        "argv, charge",
        [
            # 10**7 letters: a k x k step table of 10**14 entries, far past the one word of length 0
            (["table", "des-le", "--k", "10000000", "--t", "1", "--n", "0"], 10**14),
            (["count", "levels-blocks", "--block-sizes", "3000000,3000000", "--n", "1", "--targets", "0,0"],
             36 * 10**12),
            (["count", "des-mod", "--s", "2", "--alphabet", "5000", "--r", "1", "--n", "1", "--p", "0"], 25 * 10**6),
        ],
    )
    def test_step_table_is_charged_before_any_partition_is_built(self, capsys, monkeypatch, argv, charge):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--engine", "oracle")
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert err.splitlines() == [
            f"error: enumeration needs {charge} words, over the budget of "
            f"{oracle.DEFAULT_ENUMERATION_BUDGET} (override with an explicit budget or {BUDGET_ENV_VAR})"
        ]

    def test_numbers_past_the_digit_limit_print_in_full(self, capsys):
        """10**4400 words have no descent from letter 1: 4,401 digits, past Python's 4,300."""
        limit = sys.get_int_max_str_digits()
        query = ["des-le", "--k", "10", "--t", "1", "--n", "4400"]
        words = "1" + "0" * 4400
        assert run_json(capsys, "count", *query, "--s", "0")["result"]["count"] == words
        result = run_json(capsys, "table", *query)["result"]
        assert result == {"rows": [{"value": 0, "count": words}], "total": words}
        assert run(capsys, "table", *query, "--format", "csv") == (0, f"value,count\n0,{words}\ntotal,{words}\n", "")
        assert sys.get_int_max_str_digits() == limit

    def test_series_coefficients_past_the_digit_limit_print_in_full(self, capsys):
        """With no marker tracked, [x^i] A is 10**i at k = 10: order 640 has 641 digits, past a limit of 640."""
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            argv = ["series", "--gf", "A", "--k", "10", "--partition", "threshold:1", "--track", "none", "--order", "640"]
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert json.loads(out)["result"]["coefficients"][-1] == {"order": 640, "polynomial": "1" + "0" * 640}
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)

    def test_parsing_keeps_the_digit_limit(self, capsys):
        nines = "9" * 5000
        code, out, err = outcome(capsys, ["count", "des-le", "--k", "10", "--t", "1", "--n", nines, "--s", "0"])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert "argument --n: invalid int value" in err
        code, out, err = outcome(capsys, ["table", "levels-blocks", "--block-sizes", f"{nines},1", "--n", "2"])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: expected a comma-separated integer list, got '{nines},1'\n"

    def test_unknown_family_exit_2(self, capsys):
        assert cli.main(["count", "des-sideways", "--k", "2"]) == cli.EXIT_USAGE


class TestTable:
    def test_des_mod_table(self, capsys):
        record = run_json(
            capsys, "table", "des-mod", "--s", "2", "--alphabet", "2", "--r", "2",
            "--n", "2",
        )
        assert record["result"]["rows"] == [
            {"value": 0, "count": "3"},
            {"value": 1, "count": "1"},
        ]
        assert record["result"]["total"] == "4"

    def test_levels_threshold_table(self, capsys):
        record = run_json(
            capsys, "table", "levels-threshold", "--k", "2", "--t", "2", "--n", "2",
        )
        assert record["result"]["rows"] == [
            {"value": 0, "count": "2"},
            {"value": 1, "count": "2"},
        ]

    def test_empty_word_table(self, capsys):
        for family, extra in [
            ("des-le", ["--k", "3", "--t", "1"]),
            ("des-mod", ["--s", "2", "--alphabet", "3", "--r", "1"]),
        ]:
            record = run_json(capsys, "table", family, *extra, "--n", "0")
            assert record["result"]["rows"] == [{"value": 0, "count": "1"}]
            assert record["result"]["total"] == "1"

    def test_total_is_alphabet_power(self, capsys):
        record = run_json(
            capsys, "table", "des-gt", "--k", "3", "--t", "1", "--n", "4",
        )
        assert record["result"]["total"] == str(3**4)

    def test_levels_blocks_table(self, capsys):
        record = run_json(
            capsys, "table", "levels-blocks", "--block-sizes", "1,1", "--n", "2",
        )
        rows = {tuple(row["value"]): row["count"] for row in record["result"]["rows"]}
        assert rows == {(0, 0): "2", (0, 1): "1", (1, 0): "1"}
        assert record["result"]["total"] == "4"

    @pytest.mark.parametrize(
        "query, engines, count",
        [
            (["hall-remmel", "--rho", "1,1", "--x", "1", "--y", "2"], ("closed-form", "oracle"), "2"),
            (["des-gt", "--k", "3", "--t", "3", "--n", "3"], ("closed-form", "oracle", "transfer"), "27"),
        ],
    )
    def test_table_stops_at_last_nonzero_row(self, capsys, query, engines, count):
        # Every word scores 0, so the rows for values 1..n count zero and are left out.
        for engine in engines:
            record = run_json(capsys, "table", *query, "--engine", engine)
            assert record["result"] == {"rows": [{"value": 0, "count": count}], "total": count}, engine

    def test_command_line_extras_name_declared_options(self):
        """A help text or a text option ``cli`` adds names an option of ``formulas.FAMILIES``."""
        for extras in (cli._HELP, {family: text for family, (text, _) in cli._TEXT.items()}):
            for family, options in extras.items():
                assert set(options) <= set(formulas.FAMILIES[family].names), family

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "table", "des-mod", "--s", "2", "--alphabet", "2", "--r", "2",
            "--n", "2", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["value,count", "0,3", "1,1", "total,4"]

    def test_oracle_engine_table(self, capsys):
        closed = run_json(
            capsys, "table", "des-mod", "--s", "2", "--alphabet", "3", "--r", "2",
            "--n", "3",
        )
        oracle = run_json(
            capsys, "table", "des-mod", "--s", "2", "--alphabet", "3", "--r", "2",
            "--n", "3", "--engine", "oracle",
        )
        assert closed["result"]["rows"] == oracle["result"]["rows"]

    # One query per family of ``formulas.FAMILIES``, in its order.
    FAMILY_QUERIES = _family_queries()

    # The (engine, family) pairs of ``cli.ENGINES`` x ``formulas.FAMILIES`` an engine refuses, with
    # its refusal line; every other pair answers the closed form's table.
    REFUSALS = {("transfer", "hall-remmel"): "error: hall-remmel supports the closed-form and oracle engines\n"}

    @classmethod
    def _engines(cls, family):
        """The engines of ``cli.ENGINES`` that answer ``family``, in order."""
        return [engine for engine in cli.ENGINES if (engine, family) not in cls.REFUSALS]

    def test_queries_and_refusals_walk_every_engine_and_family(self):
        assert [family for family, _ in self.FAMILY_QUERIES] == list(formulas.FAMILIES)
        assert set(self.REFUSALS) < {(engine, family) for engine in cli.ENGINES for family in formulas.FAMILIES}

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_engine_table_equals_closed_form(self, capsys, family, params):
        """Each engine prints the closed form's table, in JSON and in CSV, or exits 2 refusing the family."""
        closed = {
            fmt: run(capsys, "table", family, *params, "--format", fmt) for fmt in ("json", "csv")
        }
        assert [code for code, _, _ in closed.values()] == [0, 0]
        for engine in cli.ENGINES:
            for fmt, (_, closed_out, _) in closed.items():
                got = run(capsys, "table", family, *params, "--engine", engine, "--format", fmt)
                if (engine, family) in self.REFUSALS:
                    assert got == (cli.EXIT_USAGE, "", self.REFUSALS[engine, family]), fmt
                elif fmt == "csv":
                    assert got == (0, closed_out, ""), engine
                else:
                    assert got[0] == 0, engine
                    assert json.loads(got[1])["result"] == json.loads(closed_out)["result"], engine

    @staticmethod
    def _count_argv(family, params, value):
        """``count`` of the query ``params`` at ``value``, a table row's ``value``."""
        statistic = flag(formulas.FAMILIES[family].names[-1])
        if isinstance(value, list):
            value = ",".join(map(str, value))
        return ["count", family, *params, statistic, str(value)]

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_engine_table_is_one_engine_call(self, capsys, monkeypatch, family, params):
        """A table, and a count of one of its rows, make the same one engine call."""
        calls = []
        counting = functools.partial(counting_calls, calls)
        for name in ("statistic_distribution", "brute_distribution"):
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        monkeypatch.setattr(
            cli, "rearrangement_distribution",
            counting("rearrangement_distribution", cli.rearrangement_distribution),
        )
        monkeypatch.setattr(cli, "count_matching", counting("count_matching", cli.count_matching))
        expected = {
            "closed-form": [],
            "transfer": ["statistic_distribution"],
            "oracle": ["rearrangement_distribution" if family == "hall-remmel" else "brute_distribution"],
        }
        count = self._count_argv(family, params, [1, 0, 1] if family == "levels-blocks" else 1)
        for engine in self._engines(family):
            for argv in (["table", family, *params], count):
                calls.clear()
                run_json(capsys, *argv, "--engine", engine)
                assert calls == expected[engine], (engine, argv[0])

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_closed_form_table_is_one_formula_call(self, capsys, monkeypatch, family, params):
        """A closed-form table, and a count of one of its rows, read the family's table once, checked once."""
        calls = []
        counting = functools.partial(counting_calls, calls)
        monkeypatch.setattr(cli, "evaluate", counting("evaluate", cli.evaluate))
        monkeypatch.setattr(formulas, "evaluate", counting("evaluate", formulas.evaluate))
        monkeypatch.setattr(formulas, "distribution", counting("distribution", formulas.distribution))
        monkeypatch.setattr(formulas.FamilyForms, "table", counting("table", formulas.FamilyForms.table))
        forms = formulas.FAMILIES[family]
        monkeypatch.setitem(formulas.FAMILIES, family, forms._replace(checks=counting("checks", forms.checks)))
        count = self._count_argv(family, params, [1, 0, 1] if family == "levels-blocks" else 1)
        for argv in (["table", family, *params], count):
            calls.clear()
            run_json(capsys, *argv)
            assert calls == ["checks", "table"], argv[0]

    def test_a_closed_form_count_checks_its_parameters_once(self, capsys, monkeypatch):
        forms = formulas.FAMILIES["levels-blocks"]
        checked = []
        monkeypatch.setitem(
            formulas.FAMILIES, "levels-blocks", forms._replace(checks=lambda *params: checked.append(params))
        )
        record = run_json(capsys, "count", "levels-blocks", "--block-sizes", "1,2", "--n", "4", "--targets", "1,1")
        assert checked == [((1, 2), 4, (1, 1))]
        assert record["result"] == {"count": "4"}

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_count_is_its_table_row(self, capsys, family, params):
        """On every engine, ``count`` at each row's value prints that row; one past the last, 0."""
        for engine in self._engines(family):
            rows = run_json(capsys, "table", family, *params, "--engine", engine)["result"]["rows"]
            last = rows[-1]["value"]
            past = [last[0] + 1, *last[1:]] if isinstance(last, list) else last + 1
            for value, want in [(row["value"], row["count"]) for row in rows] + [(past, "0")]:
                argv = self._count_argv(family, params, value) + ["--engine", engine]
                assert run_json(capsys, *argv)["result"]["count"] == want, (engine, value)

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES[:5])
    def test_negative_length_table_exits_2_on_every_engine(self, capsys, family, params):
        query = params[: params.index("--n")] + ["--n", "-1"]
        for engine in cli.ENGINES:
            code, out, err = run(capsys, "table", family, *query, "--engine", engine)
            assert code == cli.EXIT_USAGE, engine
            assert out == "", engine
            assert "nonnegative" in err, engine

    def test_negative_multiplicity_table_exits_2(self, capsys):
        for engine in ("closed-form", "oracle"):
            code, out, err = run(
                capsys, "table", "hall-remmel", "--rho=-5,1", "--x", "all", "--y", "all",
                "--engine", engine,
            )
            assert code == cli.EXIT_USAGE, engine
            assert out == ""
            assert "multiplicities must be nonnegative" in err

    def test_des_mod_transfer_table_bad_residue(self, capsys):
        code, out, err = run(
            capsys, "table", "des-mod", "--s", "3", "--alphabet", "5", "--r", "4",
            "--n", "4", "--engine", "transfer",
        )
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == "error: residue class 4 outside 1..3\n"

    def test_levels_blocks_table_leaves_arguments_alone(self, capsys):
        args = cli._parse(["table", "levels-blocks", "--block-sizes", "1,2", "--n", "4"])
        before = vars(args).copy()
        assert cli._cmd_table(args) == cli.EXIT_OK
        capsys.readouterr()
        assert vars(args) == before

    def test_levels_blocks_count_needs_one_target_per_block(self, capsys):
        for engine in cli.ENGINES:
            for targets in ("1", "1,0,0"):
                code, out, err = run(
                    capsys, "count", "levels-blocks", "--block-sizes", "1,2",
                    "--n", "4", "--targets", targets, "--engine", engine,
                )
                assert code == cli.EXIT_USAGE, (engine, targets)
                assert "block sizes but" in err


class TestSeries:
    def test_all_tracked_order_past_the_field_is_refused_before_the_build(self, capsys, monkeypatch):
        # Order 40,000 with every marker and per-block letter counts tracked has degree 79,999.
        from wordstats import series

        monkeypatch.setattr(series, "_step", lambda *args: pytest.fail("the series build started"))
        code, out, err = run(
            capsys, "series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--track", "all",
            "--q", "per-block", "--order", "40000",
        )
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: an exponent of ('x1', 'x2', 'y1', 'y2', 'z1', 'z2', 'q1', 'q2') exceeds the 16-bit field\n"

    def test_series_goes_through_the_names_bound_on_cli(self, capsys, monkeypatch):
        """``series`` calls the builder bound on ``cli`` when it runs, a wrapper patched there too."""
        calls = []
        counting = functools.partial(counting_calls, calls)
        for name in ("build_ak_series", "build_bk_series"):
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        for gf, name in (("A", "build_ak_series"), ("B", "build_bk_series")):
            calls.clear()
            run_json(
                capsys, "series", "--gf", gf, "--k", "2", "--partition", "threshold:1",
                "--order", "2",
            )
            assert calls == [name]

    def test_tracked_single_marker(self, capsys):
        record = run_json(
            capsys, "series", "--gf", "A", "--k", "2", "--partition", "threshold:1",
            "--track", "x2", "--order", "2",
        )
        polys = [c["polynomial"] for c in record["result"]["coefficients"]]
        assert polys == ["1", "2", "3 + x2"]

    def test_order_zero(self, capsys):
        record = run_json(
            capsys, "series", "--gf", "A", "--k", "3", "--partition", "mod:2",
            "--track", "all", "--order", "0",
        )
        assert [c["polynomial"] for c in record["result"]["coefficients"]] == ["1"]

    def test_composition_series_part_marker(self, capsys):
        record = run_json(
            capsys, "series", "--gf", "B", "--k", "2", "--partition", "threshold:1",
            "--track", "none", "--order", "2",
        )
        polys = [c["polynomial"] for c in record["result"]["coefficients"]]
        assert polys == ["1", "q", "q + q^2"]

    def test_blocks_partition_spec(self, capsys):
        record = run_json(
            capsys, "series", "--gf", "A", "--k", "3", "--partition", "blocks:1,2,1",
            "--track", "none", "--order", "3",
        )
        assert [c["polynomial"] for c in record["result"]["coefficients"]] == [
            "1", "3", "9", "27",
        ]

    def test_deterministic_output(self, capsys):
        argv = [
            "series", "--gf", "A", "--k", "3", "--partition", "mod:2",
            "--track", "all", "--q", "per-block", "--order", "3",
        ]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        code, second, _ = run(capsys, *argv)
        assert first == second

    def test_bad_partition_spec(self, capsys):
        for spec, message in [
            ("stripes:1", "unknown partition spec 'stripes:1'"),
            ("threshold:abc", "partition threshold:<int> needs an integer, got 'abc'"),
            ("mod:x", "partition mod:<int> needs an integer, got 'x'"),
            ("blocks:1,x", "expected a comma-separated integer list, got '1,x'"),
            ("blocks:1,2,3", "blocks list covers 3 letters, alphabet has 2"),
        ]:
            code, out, err = run(
                capsys, "series", "--gf", "A", "--k", "2", "--partition", spec,
                "--order", "2",
            )
            assert code == cli.EXIT_USAGE, spec
            assert out == ""
            assert err == f"error: {message}\n", spec

    @pytest.mark.parametrize("k, partition, marker", [
        ("2", "threshold:1", "x\u00b2"),  # "²".isdigit() holds, int("²") raises
        ("3", "blocks:1,2,3", "x\u0663"),  # Arabic-Indic three, int() reads it as 3
    ])
    def test_tracked_block_index_is_ascii_decimal(self, capsys, k, partition, marker):
        code, out, err = run(
            capsys, "series", "--gf", "A", "--k", k, "--partition", partition,
            "--track", marker, "--order", "2",
        )
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: unknown tracked marker {marker!r}\n"

    @pytest.mark.parametrize("track", ["x1,,y1", ",", "", "x1,"])
    def test_empty_tracked_marker_refused(self, capsys, track):
        code, out, err = run(
            capsys, "series", "--gf", "A", "--k", "2", "--partition", "mod:2",
            "--track", track, "--order", "1",
        )
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == f"error: expected a comma-separated marker list, got {track!r}\n"

    # sha256 of five whole records: the build and the rendering of every polynomial of
    # 16, 4, 0, 12 and 6 coefficient variables, byte for byte.
    PINNED_RECORDS = [
        (["--gf", "A", "--k", "4", "--partition", "blocks:1,2,3,4", "--track", "all",
          "--q", "per-block", "--order", "5"],
         "33418fce86901de6a963777ee67a4eac987068e5e82fff540c8cd8f0d65f11ee"),
        (["--gf", "B", "--k", "4", "--partition", "mod:2", "--track", "x1,y2,z1",
          "--q", "common", "--order", "8"],
         "3738fd747dbae67731ebdb6ef107e3f7ff9ed82486c0d4eb665eab54e32c3ac5"),
        (["--gf", "A", "--k", "3", "--partition", "threshold:2", "--track", "none",
          "--order", "8"],
         "5d7f74eb00dac3d4e2755e7c1797f06341e7c9ac4ed9f71f64fe01a38e61fa60"),
        (["--gf", "A", "--k", "3", "--partition", "mod:3", "--track", "all",
          "--q", "per-block", "--order", "9"],
         "5b11c8bacb6bde5deaa5fa2492636d413218712ae4ea1a225238d01e1d84dd48"),
        (["--gf", "B", "--k", "4", "--partition", "blocks:1,2,3,1", "--track", "x1,y3,z2",
          "--q", "per-block", "--order", "12"],
         "d40335f81dd03cff95fabc9227f43250a70a1eafa471d5ba4ab2f79c1ab537da"),
    ]

    @pytest.mark.parametrize("argv, digest", PINNED_RECORDS)
    def test_record_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, "series", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_negative_order(self, capsys):
        code, _, _ = run(
            capsys, "series", "--gf", "A", "--k", "2", "--partition", "threshold:1",
            "--order", "-1",
        )
        assert code == cli.EXIT_USAGE


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "identities", "--n-max", "6")
        assert code == 0
        record = json.loads(out)
        assert record["result"]["failures"] == 0
        assert record["result"]["checked"] > 0

    def test_oracle_vs_transfer_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "oracle-vs-transfer", "--k-max", "2", "--n-max", "4"
        )
        assert code == 0

    def test_formulas_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "formulas-vs-oracle", "--k-max", "3", "--n-max", "3"
        )
        assert code == 0

    def test_injected_fault_detected(self, capsys):
        code, out, _ = run(
            capsys, "verify", "formulas-vs-oracle", "--k-max", "3", "--n-max", "3",
            "--inject-fault",
        )
        assert code == cli.EXIT_VERIFY_FAILED
        record = json.loads(out)
        assert record["result"]["failures"] > 0
        assert record["result"]["first_failure"]

    def test_injected_fault_without_a_letter_refused(self, capsys):
        # --k-max 0 checks no skewed entry, so the run that must fail could only pass
        code, out, err = run(
            capsys, "verify", "formulas-vs-oracle", "--k-max", "0", "--inject-fault"
        )
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == (
            "error: an injected fault is checked only with alphabet_max (--k-max) at least 1, got 0\n"
        )

    @pytest.mark.parametrize("suite", sorted(cli._LISTED))
    @pytest.mark.parametrize("flag", ["--k-max", "--n-max", "--m-max", "--weight-max"])
    def test_negative_bound_refused(self, capsys, suite, flag):
        # on every suite, also one that ignores the bound; --n-max 3 keeps a missed refusal short
        code, out, err = run(capsys, "verify", suite, "--n-max", "3", flag, "-2")
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: {flag} must be nonnegative, got -2\n"

    def test_fault_flag_limited_to_formula_suite(self, capsys):
        code, _, err = run(capsys, "verify", "identities", "--inject-fault")
        assert code == cli.EXIT_USAGE

    def test_suite_table_matches_the_suites(self):
        # Listed or not, each row's keywords are its function's.
        for suite, (name, bounds, _) in cli.VERIFY_SUITES.items():
            keywords = inspect.signature(getattr(verify, name)).parameters
            assert {kw for kws in bounds.values() for kw in kws} <= set(keywords), suite

    def test_every_suite_has_one_row(self):
        # A public function of verify that returns a suite's result is a suite, which the table declares.
        suites = sorted(
            name for name, value in vars(verify).items()
            if inspect.isfunction(value) and value.__module__ == verify.__name__ and not name.startswith("_")
            and inspect.signature(value).return_annotation in (verify.SuiteResult, "SuiteResult")
        )
        assert sorted(name for name, _, _ in cli.VERIFY_SUITES.values()) == suites
        assert cli._LISTED == (
            "oracle-vs-transfer", "series-vs-oracle", "formulas-vs-oracle", "identities", "hall-remmel",
        )

    @pytest.mark.parametrize("suite", ["dualities", "series-weight-compatibility"])
    def test_unlisted_suite_refused_as_an_invalid_choice(self, capsys, monkeypatch, suite):
        name = cli.VERIFY_SUITES[suite][0]
        monkeypatch.setattr(verify, name, lambda **kwargs: pytest.fail("the suite ran"))
        code, out, err = run(capsys, "verify", suite)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == (
            "usage: wordstats verify [-h] [--k-max K_MAX] [--n-max N_MAX] [--m-max M_MAX]\n"
            "                        [--weight-max WEIGHT_MAX] [--inject-fault]\n"
            "                        {formulas-vs-oracle,hall-remmel,identities,oracle-vs-transfer,series-vs-oracle}\n"
            f"wordstats verify: error: argument suite: invalid choice: '{suite}' (choose from 'formulas-vs-oracle', "
            "'hall-remmel', 'identities', 'oracle-vs-transfer', 'series-vs-oracle')\n"
        )

    def test_only_given_bounds_reach_the_suite(self, capsys, monkeypatch):
        calls = []

        def suite(**kwargs):
            calls.append(kwargs)
            return verify.SuiteResult("identities", checked=1, failures=0)

        monkeypatch.setattr(verify, "identities_suite", suite)
        run_json(capsys, "verify", "identities")
        run_json(capsys, "verify", "identities", "--n-max", "0")
        assert calls == [{}, {"top_n_max": 0, "two_bottom_n_max": 0}]

    def test_series_carry_refused_before_any_dp_pass(self, capsys, monkeypatch):
        # The first head's series, to order 40,000, has degree 79,999: the series refuses it first.
        calls = []
        tallies = verify.transfer_tallies
        logged = lambda *args, **first: calls.append(args) or tallies(*args, **first)
        monkeypatch.setattr(verify, "transfer_tallies", logged)
        code, out, err = run(capsys, "verify", "series-vs-oracle", "--k-max", "2", "--n-max", "40000")
        assert (code, out, calls) == (cli.EXIT_USAGE, "", [])
        assert err == "error: an exponent of ('x1', 'x2', 'y1', 'y2', 'z1', 'z2', 'q1', 'q2') exceeds the 16-bit field\n"

    def test_walk_over_budget_refused_before_its_dp_pass(self, capsys, monkeypatch):
        # k = 1 runs whole; the first walk of k = 2, over 2**30 words, is refused before its DP pass.
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        calls = []
        tallies = verify.transfer_tallies
        logged = lambda *args, **first: calls.append(args[0]) or tallies(*args, **first)
        monkeypatch.setattr(verify, "transfer_tallies", logged)
        code, out, err = run(capsys, "verify", "oracle-vs-transfer", "--k-max", "30", "--n-max", "30")
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert err == (
            "error: enumeration needs 1073741824 words, over the budget of 16777216 "
            f"(override with an explicit budget or {BUDGET_ENV_VAR})\n"
        )
        assert calls == [1] * len(set(formulas._grid_partitions(1)))

    @pytest.mark.parametrize(
        "suite, bound, message",
        [
            ("identities", ["--k-max", "99"],
             "--k-max applies to the oracle-vs-transfer, series-vs-oracle, formulas-vs-oracle suites"),
            ("identities", ["--m-max", "5"], "--m-max applies to the hall-remmel suite"),
            ("oracle-vs-transfer", ["--weight-max", "2"], "--weight-max applies to the hall-remmel suite"),
            ("series-vs-oracle", ["--m-max", "1"], "--m-max applies to the hall-remmel suite"),
            ("formulas-vs-oracle", ["--weight-max", "0"], "--weight-max applies to the hall-remmel suite"),
            ("hall-remmel", ["--k-max", "1"],
             "--k-max applies to the oracle-vs-transfer, series-vs-oracle, formulas-vs-oracle suites"),
            ("hall-remmel", ["--inject-fault"], "--inject-fault applies to the formulas-vs-oracle suite"),
        ],
    )
    def test_bound_the_suite_does_not_take_refused(self, capsys, monkeypatch, suite, bound, message):
        name = cli.VERIFY_SUITES[suite][0]
        monkeypatch.setattr(verify, name, lambda **kwargs: pytest.fail("the suite ran"))
        code, out, err = run(capsys, "verify", suite, "--n-max", "2", *bound)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == f"error: {message}\n"


class TestParameterRanges:
    # Thresholds and a modulus the closed forms reject, which the DP engines
    # could answer, empty alphabets the DP engines reject, which the closed
    # forms could answer, and letter sets reaching outside a rearrangement
    # class; every engine accepts the same queries.
    QUERIES = [
        ("levels-threshold", ["--k", "3", "--t", "0", "--n", "4"], ["--s", "1"],
         "threshold 0 outside 1..3"),
        ("des-le", ["--k", "3", "--t", "0", "--n", "4"], ["--s", "1"],
         "threshold 0 outside 1..3"),
        ("des-gt", ["--k", "3", "--t", "4", "--n", "4"], ["--s", "1"],
         "threshold 4 outside 0..3"),
        ("des-mod", ["--s", "1", "--alphabet", "3", "--r", "1", "--n", "4"], ["--p", "1"],
         "modulus must be at least 2, got 1"),
        ("des-gt", ["--k", "0", "--t", "0", "--n", "0"], ["--s", "0"],
         "alphabet size must be at least 1, got 0"),
        ("levels-blocks", ["--block-sizes", "0,0", "--n", "2"], ["--targets", "0,0"],
         "block sizes must cover at least one letter"),
        ("des-mod", ["--s", "3", "--alphabet", "5", "--r", "4", "--n", "4"], ["--p", "1"],
         "residue class 4 outside 1..3"),
        ("levels-blocks", ["--block-sizes=-1,3", "--n", "3"], ["--targets", "0,0"],
         "block sizes and level targets must be nonnegative"),
        ("levels-blocks", ["--block-sizes", "1,2", "--n", "-1"], ["--targets", "0,0"],
         "length and statistic value must be nonnegative"),
        ("hall-remmel", ["--rho", "1,1", "--x", "5", "--y", "1"], ["--s", "0"],
         "letter 5 outside 1..2"),
        ("hall-remmel", ["--rho", "1,1", "--x=-1,0", "--y", "1"], ["--s", "0"],
         "letter -1 outside 1..2"),
        ("levels-blocks", ["--block-sizes", "1,x", "--n", "2"], ["--targets", "0,0"],
         "expected a comma-separated integer list, got '1,x'"),
    ]
    # The fault of these rows lies in the statistic value, which a table does not take.
    VALUE_FAULTS = [
        ("levels-blocks", ["--block-sizes", "2,3", "--n", "5"], ["--targets=-1,0"],
         "block sizes and level targets must be nonnegative"),
        ("des-gt", ["--k", "3", "--t", "1", "--n", "4"], ["--s", "-2"],
         "length and statistic value must be nonnegative"),
        ("hall-remmel", ["--rho", "1,1", "--x", "all", "--y", "all"], ["--s", "-2"],
         "length and statistic value must be nonnegative"),
    ]
    QUERIES += VALUE_FAULTS

    @pytest.mark.parametrize("family, query, value, message", QUERIES)
    def test_every_engine_rejects_with_the_closed_form_message(
        self, capsys, family, query, value, message
    ):
        argvs = [["count", family, *query, *value]]
        if (family, query, value, message) not in self.VALUE_FAULTS:
            argvs.append(["table", family, *query])
        for engine in cli.ENGINES:
            for argv in argvs:
                code, out, err = run(capsys, *argv, "--engine", engine)
                assert code == cli.EXIT_USAGE, (engine, argv)
                assert out == ""
                assert err == f"error: {message}\n", (engine, argv)

    @pytest.mark.parametrize("command, value", [("count", ["--s", "0"]), ("table", [])])
    def test_transfer_refuses_a_family_it_lacks(self, capsys, command, value):
        code, out, err = run(
            capsys, command, "hall-remmel", "--rho", "1,1", "--x", "all", "--y", "all", *value,
            "--engine", "transfer",
        )
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err == "error: hall-remmel supports the closed-form and oracle engines\n"

    def test_unknown_engine_is_refused_naming_the_engines_in_order(self, capsys):
        code, out, err = outcome(capsys, ["table", "des-le", "--k", "3", "--t", "1", "--n", "4", "--engine", "fast"])
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.splitlines()[-1] == (
            "wordstats table des-le: error: argument --engine: invalid choice: 'fast' "
            "(choose from 'closed-form', 'oracle', 'transfer')"
        )


class TestIntLists:
    MESSAGE = "error: expected a comma-separated integer list, got {!r}\n"

    @pytest.mark.parametrize("argv, raw", [
        (["table", "levels-blocks", "--block-sizes", "2,,1", "--n", "3"], "2,,1"),
        (["count", "levels-blocks", "--block-sizes", "2,1", "--n", "3", "--targets", ",1"], ",1"),
        (["table", "hall-remmel", "--rho", "1,", "--x", "all", "--y", "all"], "1,"),
        (["count", "hall-remmel", "--rho", "1,1", "--x", "1,", "--y", "all", "--s", "0"], "1,"),
        (["table", "hall-remmel", "--rho", "1,1", "--x", "all", "--y", ","], ","),
        (["series", "--gf", "A", "--k", "3", "--partition", "blocks:1,,2", "--order", "2"],
         "1,,2"),
    ])
    def test_empty_piece_refused(self, capsys, argv, raw):
        for engine in (["--engine", "oracle"], []) if argv[0] != "series" else ([],):
            assert outcome(capsys, argv + engine) == (cli.EXIT_USAGE, "", self.MESSAGE.format(raw))

    def test_empty_string_is_the_empty_list(self, capsys):
        for argv in (["--rho", "", "--x", "", "--y", ""], ["--rho", "1", "--x", "", "--y", "all"]):
            result = run_json(capsys, "table", "hall-remmel", *argv)["result"]
            assert result == {"rows": [{"value": 0, "count": "1"}], "total": "1"}


class TestParametersEcho:
    # (query keys, count's statistic key) per family, as docs/output_schema.md lists them.
    KEYS = {
        "levels-threshold": (["k", "t", "n"], "s"),
        "levels-blocks": (["block_sizes", "n"], "targets"),
        "des-le": (["k", "t", "n"], "s"),
        "des-gt": (["k", "t", "n"], "s"),
        "des-mod": (["s", "alphabet", "r", "n"], "p"),
        "hall-remmel": (["rho", "x", "y"], "s"),
    }
    VALUES = {"s": "1", "p": "1", "targets": "1,0,0"}

    @pytest.mark.parametrize("family, params", TestTable.FAMILY_QUERIES)
    def test_keys_in_order(self, capsys, family, params):
        query, statistic = self.KEYS[family]
        table = run_json(capsys, "table", family, *params)
        assert list(table["parameters"]) == query + ["family"]
        assert table["parameters"]["family"] == family
        count = run_json(
            capsys, "count", family, *params, f"--{statistic}", self.VALUES[statistic]
        )
        assert list(count["parameters"]) == query + [statistic, "family"]


class TestParserReuse:
    ARGVS = [
        ["count", "des-le", "--k", "3", "--t", "2", "--n", "4", "--s", "1"],
        ["table", "des-le", "--k", "3", "--t", "x", "--n", "4"],  # usage error
        ["table", "levels-blocks", "--block-sizes", "2,1", "--n", "3", "--format", "csv"],
        ["count", "des-gt", "--k", "3", "--t", "1", "--n", "4", "--s", "-1"],  # InputError
        ["count", "des-le", "--k", "2", "--t", "1", "--n", "5", "--s", "1",
         "--engine", "oracle"],  # over the budget set below
        ["table", "des-any", "--k", "3"],  # unknown family
        ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--order", "3"],
        ["count", "des-le", "--k", "3", "--t", "2", "--n", "4", "--s", "1",
         "--engine", "transfer"],
        ["verify", "identities", "--n-max", "2", "--inject-fault"],
        ["table", "des-mod", "--s", "2", "--alphabet", "3", "--r", "1", "--n", "3"],
    ]

    def test_one_parser_answers_like_a_fresh_one(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        built, build = [], cli.build_parser.__wrapped__

        def counting_build():
            built.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", functools.cache(counting_build))
        reused = [outcome(capsys, argv) for argv in self.ARGVS * 2]
        assert len(built) == 1
        monkeypatch.setattr(cli, "build_parser", build)
        fresh = [outcome(capsys, argv) for argv in self.ARGVS * 2]
        assert reused == fresh
        assert [code for code, _, _ in reused[: len(self.ARGVS)]] == [0, 2, 0, 2, 3, 2, 0, 0, 2, 0]

    def test_main_builds_the_parser_once(self, monkeypatch):
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
        tree = cli.build_parser()
        assert cli.build_parser() is tree
        assert isinstance(tree, cli._Reader)


def _count_and_table_argvs():
    """Every family under ``count`` and ``table`` on each engine it accepts."""
    argvs = []
    for family, params in TestTable.FAMILY_QUERIES:
        statistic = flag(formulas.FAMILIES[family].names[-1])
        value = "1,0,1" if formulas.FAMILIES[family].joint else "1"
        for engine in TestTable._engines(family):
            argvs.append(["count", family, *params, statistic, value, "--engine", engine])
            argvs.append(["table", family, *params, "--engine", engine])
            argvs.append(["table", family, *params, "--engine", engine, "--format", "csv"])
    return argvs


# Small bounds for every verify suite; the last run must fail.
VERIFY_ARGVS = [
    ["verify", "oracle-vs-transfer", "--k-max", "2", "--n-max", "2"],
    ["verify", "series-vs-oracle", "--k-max", "2", "--n-max", "2"],
    ["verify", "identities", "--n-max", "2"],
    ["verify", "hall-remmel", "--m-max", "2", "--weight-max", "3", "--n-max", "2"],
    ["verify", "formulas-vs-oracle", "--k-max", "2", "--n-max", "2"],
    ["verify", "formulas-vs-oracle", "--k-max", "2", "--n-max", "2", "--inject-fault"],
]

DES_LE = ["table", "des-le", "--k", "3", "--t", "1", "--n", "4"]
MALFORMED_ARGVS = [
    ["count", "des-le", "--k", "3", "--n", "4", "--s", "1"],  # --t missing
    ["table", "des-le", "--k", "x", "--t", "1", "--n", "4"],
    DES_LE + ["--bogus", "1"],
    DES_LE + ["extra"],
    DES_LE + ["--eng", "transfer"],
    ["table", "des-le", "--k=3", "--t", "1", "--n", "4"],
    ["table", "des-le", "--k", "3", "--t", "1", "--", "--n", "4"],
    DES_LE + ["--"],
    ["table", "--", "des-le", "--k", "3", "--t", "1", "--n", "4"],
    ["-h"],
    ["count", "-h"],
    ["table", "des-le", "-h"],
    ["series", "-h"],
    ["verify", "-h"],
    ["bogus"],
    ["table", "des-any", "--k", "3"],
    ["table"],
    ["table", "des-le"],
    ["series", "--gf", "C", "--k", "2", "--partition", "threshold:1", "--order", "2"],
    ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--order", "2", "more"],
    ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--track", "x\u00b2",
     "--order", "2"],
    ["series", "--gf", "A", "--k", "3", "--partition", "blocks:1,2,3", "--track", "x\u0663",
     "--order", "2"],
    ["series", "--gf", "A", "--k", "2", "--partition", "mod:2", "--track", "x1,,y1",
     "--order", "1"],
    ["series", "--gf", "A", "--k", "2", "--partition", "mod:2", "--track", ",", "--order", "1"],
    ["series", "--gf", "A", "--k", "2", "--partition", "mod:2", "--track", "", "--order", "1"],
    ["verify", "nope"],
    ["verify", "identities", "--n-max", "1", "extra"],
    ["verify"],
    [],
]

SERIES_ARGVS = [
    ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--order", "3"],
    ["series", "--gf", "B", "--k", "3", "--partition", "mod:2", "--track", "x1,z2", "--order", "3",
     "--q", "per-block"],
]


class TestRouting:
    def test_tree_names_every_parser(self):
        """The top parser's children are the commands'; ``count`` and ``table`` have one child per family."""
        tree = cli.build_parser()
        assert list(tree.children) == ["count", "table", "series", "verify"]
        assert [option.flag for option in tree.arguments] == ["-h", "command"]
        for command in ("count", "table"):
            assert list(tree.children[command].children) == list(formulas.FAMILIES)
            assert [option.flag for option in tree.children[command].arguments] == ["-h", "family"]
        assert tree.children["series"].children is None
        verify = tree.children["verify"]
        assert verify.children is None
        assert verify.arguments[1].choices == tuple(sorted(cli._LISTED))
        assert verify.arguments[2:] == cli._BOUNDS

    def test_leaf_options_are_the_family_names(self):
        """A ``count`` parser declares every name, a ``table`` parser all but the statistic value's."""
        tree = cli.build_parser()
        for family, forms in formulas.FAMILIES.items():
            for command, names, extra in (("count", forms.names, []), ("table", forms.names[:-1], ["--format"])):
                declared = [option.flag for option in tree.children[command].children[family].arguments]
                assert declared == ["-h", *map(flag, names), "--engine", *extra], (command, family)

    def test_a_family_declared_only_in_formulas_gets_both_leaves(self, capsys, monkeypatch):
        """A new entry of ``formulas.FAMILIES`` is counted and tabled with no ``cli`` edit."""
        monkeypatch.setitem(formulas.FAMILIES, "des-copy", formulas.FAMILIES["des-le"])
        monkeypatch.setattr(cli, "build_parser", functools.cache(cli.build_parser.__wrapped__))
        query = ["--k", "3", "--t", "1", "--n", "4"]
        for command, extra in (("table", []), ("count", ["--s", "2"])):
            copied = run_json(capsys, command, "des-copy", *query, *extra)
            original = run_json(capsys, command, "des-le", *query, *extra)
            assert copied["parameters"] == {**original["parameters"], "family": "des-copy"}
            assert copied["result"] == original["result"]
        code, out, _ = outcome(capsys, ["table", "des-copy", "-h"])
        assert code == 0 and out.startswith("usage: wordstats table des-copy [-h] --k K --t T --n N\n")

    # Usage errors of the parsers whose usage ``cli`` spells out, on every Python.
    USAGE_ERRORS = {
        ("count", "des-any", "--k", "3"): (
            "usage: wordstats count [-h]\n"
            "                       {levels-threshold,levels-blocks,des-le,des-gt,des-mod,hall-remmel}\n"
            "                       ...\n"
            "wordstats count: error: argument family: invalid choice: 'des-any' (choose from "
            "'levels-threshold', 'levels-blocks', 'des-le', 'des-gt', 'des-mod', 'hall-remmel')\n"
        ),
        ("table", "des-any", "--k", "3"): (
            "usage: wordstats table [-h]\n"
            "                       {levels-threshold,levels-blocks,des-le,des-gt,des-mod,hall-remmel}\n"
            "                       ...\n"
            "wordstats table: error: argument family: invalid choice: 'des-any' (choose from "
            "'levels-threshold', 'levels-blocks', 'des-le', 'des-gt', 'des-mod', 'hall-remmel')\n"
        ),
        ("series", "--gf", "A", "--k", "2", "--partition", "threshold:1"): (
            "usage: wordstats series [-h] --gf {A,B} --k K --partition PARTITION --order\n"
            "                        ORDER [--track TRACK] [--q {common,per-block}]\n"
            "wordstats series: error: the following arguments are required: --order\n"
        ),
    }

    @pytest.mark.parametrize("argv", list(USAGE_ERRORS))
    def test_usage_error_text_is_pinned(self, capsys, argv):
        assert outcome(capsys, argv) == (cli.EXIT_USAGE, "", self.USAGE_ERRORS[argv])

    @OLD_ARGPARSE
    @pytest.mark.parametrize(
        "argv", _count_and_table_argvs() + SERIES_ARGVS + VERIFY_ARGVS + MALFORMED_ARGVS
    )
    def test_fixed_argv_reads_like_argparse(self, argv):
        assert reads(argv) == argparse_reads(argv)

    @OLD_ARGPARSE
    @pytest.mark.parametrize("argv", [[*DES_LE, *words] for words in (
        ["--eng", "oracle"],  # abbreviated flag
        ["--k", "3"],  # repeated flag
        ["--engine", "--"],
        ["--format", "xml"],  # outside the choices
        ["-h"],
        ["extra"],
        ["--"],
        ["--=1"],  # ambiguous
        ["-hh"],
        ["-hx"],
        ["--help=1"],
    )] + [
        ["table", "des-le", "--k=3", "--t", "1", "--n", "4"],
        ["table", "des-le", "--k", "3", "--t", "1", "--n", "-4"],  # a negative number is a value
        ["table", "des-le", "--k", "3", "--t", "1", "--n"],  # missing value
        ["table", "des-le", "--k", "3", "--n", "4"],  # missing required option
        ["table", "des-le", "--k", "x", "--t", "1", "--n", "4"],  # refused by the type
        ["series", "--gf", "A", "--k", "2", "--partition", "-x", "--order", "2"],
        *(["verify", "identities", *words] for words in (
            ["--n-max", "2", "--inject-fault", "--inject-fault"],  # repeated flag that takes no value
            ["--n-max", "2", "--inject-fault=1"],
            ["--n-max", "2", "--inject-fault", "1"],
            ["--n-max=2"],
            ["--n-m", "2"],
            ["--n-max", "2", "identities"],  # the positional given again
            ["--n-max", "2", "suite"],  # the positional's name is no flag
            ["--n-max", "-1"],
            ["--", "--n-max", "2"],
        )),
        ["verify", "--n-max", "2", "identities"],  # the suite after the options
        ["verify", "--", "identities"],
        ["verify", "--inject-fault"],
        ["--", "count"],
        ["-x", "count"],
        ["table", "--"],
    ])
    def test_unusual_argv_reads_like_argparse(self, argv):
        assert reads(argv) == argparse_reads(argv)

    def test_reader_fills_in_the_declared_defaults(self):
        read = cli._parse(["table", "des-le", "--n", "4", "--t", "1", "--k", "3"])
        assert vars(read) == {"command": "table", "family": "des-le", "k": 3, "t": 1, "n": 4,
                              "engine": "closed-form", "format": "json"}
        read = cli._parse(["verify", "formulas-vs-oracle", "--inject-fault", "--k-max", "2"])
        assert vars(read) == {"command": "verify", "suite": "formulas-vs-oracle", "k_max": 2, "n_max": None,
                              "m_max": None, "weight_max": None, "inject_fault": True}

    def test_the_last_of_a_repeated_flag_wins(self):
        read = cli._parse(["table", "des-le", "--k", "3", "--t", "1", "--n", "4", "--k", "5", "--eng", "oracle"])
        assert (read.k, read.engine) == (5, "oracle")

    @pytest.mark.parametrize("argv, error", [
        (["count", "des-gt", "--k", "3", "--t", "1", "--n", "4", "--s", "-4"],
         "error: length and statistic value must be nonnegative\n"),
        (["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--order", "-5"],
         "error: truncation order must be nonnegative, got -5\n"),
        (["table", "des-le", "--k", "3", "--t", "1", "--n", "-1"],
         "error: length and statistic value must be nonnegative\n"),
    ])
    def test_a_negative_value_reaches_the_engines_refusal(self, capsys, argv, error):
        assert outcome(capsys, argv) == (cli.EXIT_USAGE, "", error)

    def test_a_dash_word_is_no_value(self, capsys):
        argv = ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--order", "2", "--track", "-x"]
        code, out, err = outcome(capsys, argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.endswith("wordstats series: error: argument --track: expected one argument\n")

    @pytest.mark.parametrize("argv, error", [
        ([*DES_LE, "--engine=--"], "argument --engine: invalid choice: '--' (choose from "
                                   "'closed-form', 'oracle', 'transfer')"),
        (["table", "des-le", "--k=--", "--t", "1", "--n", "4"], "argument --k: invalid int value: '--'"),
    ])
    def test_dashes_after_equals_are_the_value(self, capsys, argv, error):
        # argparse read them as an empty list, which the engines met with a traceback
        code, out, err = outcome(capsys, argv)
        assert (code, out) == (cli.EXIT_USAGE, "")
        assert err.endswith(f"wordstats table des-le: error: {error}\n")

    def test_a_flag_given_its_value_with_equals_is_the_flag_abbreviated(self):
        plain = cli._parse(["table", "des-mod", "--s", "3", "--alphabet", "8", "--r", "2", "--n", "12"])
        assert cli._parse(["table", "des-mod", "--s=3", "--al", "8", "--r=2", "--n", "12"]) == plain


# Each command's ``result`` keys, in the order docs/output_schema.md lists them.
RESULT_KEYS = {
    "count": ["count"],
    "table": ["rows", "total"],
    "series": ["variable", "coefficient_variables", "coefficients"],
    "verify": ["checked", "failures", "first_failure"],
}


def printed_record(capsys, argv):
    """The record ``argv`` prints, checked to be the stdlib's text with the documented keys."""
    _, out, _ = outcome(capsys, argv)
    record = json.loads(out)
    assert out == json.dumps(record, indent=2) + "\n", argv
    assert list(record) == ["schema", "command", "parameters", "engine", "result"]
    result = record["result"]
    assert list(result) == RESULT_KEYS[record["command"]], argv
    assert all(list(row) == ["value", "count"] for row in result.get("rows", []))
    assert all(list(c) == ["order", "polynomial"] for c in result.get("coefficients", []))
    return record


class TestJsonWriter:
    RECORD_ARGVS = [
        ["count", "des-mod", "--s", "2", "--alphabet", "4", "--r", "1", "--n", "5", "--p", "2"],
        ["table", "hall-remmel", "--rho", "2,1,2", "--x", "2,3", "--y", "all"],
        ["table", "levels-blocks", "--block-sizes", "2,1", "--n", "3", "--engine", "transfer"],
        ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--track", "none",
         "--order", "2"],
        VERIFY_ARGVS[2],
        VERIFY_ARGVS[-1],
    ] + SERIES_ARGVS + VERIFY_ARGVS[:2] + VERIFY_ARGVS[3:-1]

    def test_every_command_prints_the_stdlib_text(self, capsys):
        records = [printed_record(capsys, argv) for argv in self.RECORD_ARGVS]
        series, verified, failed = records[3]["result"], records[4]["result"], records[5]["result"]
        assert series["coefficient_variables"] == []
        assert verified["first_failure"] is None and isinstance(failed["first_failure"], str)

    @pytest.mark.parametrize(
        "argv", [argv for argv in _count_and_table_argvs() if "csv" not in argv]
    )
    def test_every_family_record_prints_the_stdlib_text(self, capsys, argv):
        printed_record(capsys, argv)

    def test_strings_are_escaped_as_the_stdlib_escapes_them(self, capsys):
        """A non-ASCII option echo, a failure text, null and an empty list, through real argvs."""
        argv = ["table", "levels-blocks", "--block-sizes", "\uff12,1", "--n", "3"]
        record = printed_record(capsys, argv)
        assert record["parameters"]["block_sizes"] == "\uff12,1"
        assert '"block_sizes": "\\uff12,1",' in outcome(capsys, argv)[1]
        record = printed_record(capsys, VERIFY_ARGVS[-1])
        assert record["result"]["first_failure"] == "levels-threshold k=1 t=1 n=0 s=0"
        assert printed_record(capsys, VERIFY_ARGVS[0])["result"]["first_failure"] is None
        _, out, _ = outcome(capsys, self.RECORD_ARGVS[3])
        assert '"coefficient_variables": [],' in out

    @pytest.mark.parametrize("value", [
        {}, [], (), -5, 0, 10**40, -(10**40),
        True, False, None, "", 'say "hi"', "back\\slash", "\x00\x1f\n\t\x7f", "é 漢 😀",
        {"": "", 'quo"te': -1, "none": None, "yes": True, "big": 10**30}, (-1, None, True, "x"),
    ])
    def test_value_has_the_stdlib_text(self, value):
        assert cli._flat(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [
        1.5, [0.0], {1: "a"}, {"a": {None: 1}}, {1, 2},
        # Nested containers: no record holds one in its parameters or a flat result.
        [[], [1, [2, []]], {}], (1, (2, 3)), {"a": ()}, {"big": [10**30]},
    ])
    def test_value_json_cannot_hold_is_refused(self, value):
        """A float, a non-str key, a set or a nested container is not a record's flat value."""
        with pytest.raises(TypeError):
            cli._flat(value)


@pytest.mark.parametrize("value", [
    {"on": True, "off": False, "n": 7, "s": "x"}, [True, False, 7, "x"],
])
def test_direct_items_have_the_stdlib_text(value):
    """A bool item is written as true or false, not as the int it also is."""
    assert cli._flat(value) == json.dumps(value, indent=2)


SRC = Path(__file__).resolve().parent.parent / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(SRC)] + [path for path in os.environ.get("PYTHONPATH", "").split(os.pathsep) if path]
)}
# Runs the console script's entry point on its argv; at exit, writes the loaded modules to stderr.
ENTRYPOINT = """
import atexit, sys
atexit.register(lambda: sys.stderr.write("\\nmodules: " + " ".join(sorted(sys.modules)) + "\\n"))
from wordstats.cli import entrypoint
entrypoint()
"""

PLAIN_ENTRYPOINT = "from wordstats.cli import entrypoint; entrypoint()"


def spawn(*argv, code=ENTRYPOINT, env=CHILD_ENV, **kwargs):
    """A fresh interpreter running ``code`` on ``argv``, stderr captured as text."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, stderr=subprocess.PIPE, text=True,
        timeout=60, **kwargs,
    )


class TestColdProcess:
    """What a fresh ``wordstats`` process loads, and how it ends when stdout fails."""

    OFF_PATH = {"wordstats.series", "wordstats.verify", "wordstats.identities",
                "wordstats.polynomials", "dataclasses", "json.decoder"}
    TABLE = ["table", "des-le", "--k", "3", "--t", "2", "--n", "40", "--format", "csv"]

    @staticmethod
    def _run(argv, expected):
        done = spawn(*argv, stdout=subprocess.PIPE)
        assert done.returncode == expected, done.stderr
        assert "Traceback" not in done.stderr
        error, _, modules = done.stderr.rpartition("modules: ")
        return done.stdout, error, set(modules.split())

    # A family's query and a count's statistic value: a one-coordinate family, the residues, the joint one.
    QUERIES = {
        "des-le": (["--k", "3", "--t", "2", "--n", "5"], ["--s", "2"]),
        "des-mod": (["--s", "2", "--alphabet", "3", "--r", "1", "--n", "5"], ["--p", "1"]),
        "levels-blocks": (["--block-sizes", "1,2,1", "--n", "5"], ["--targets", "1,0,1"]),
    }

    @pytest.mark.parametrize("family", QUERIES)
    @pytest.mark.parametrize("engine", ["closed-form", "oracle", "transfer"])
    @pytest.mark.parametrize("command", ["count", "table"])
    def test_count_and_table_load_only_what_they_run(self, command, engine, family):
        query, value = self.QUERIES[family]
        argv = [command, family, *query, "--engine", engine]
        out, _, modules = self._run(argv + (value if command == "count" else []), 0)
        assert json.loads(out)["engine"] == engine
        assert {"wordstats.cli", "wordstats.formulas"} <= modules
        assert modules & self.OFF_PATH == set()
        # Only the oracle and transfer engines run oracle code.
        assert ("wordstats.oracle" in modules) == (engine != "closed-form")

    def test_refused_argv_loads_only_the_parser(self):
        out, error, modules = self._run(["table", "des-le", "--k", "three", "--t", "1", "--n", "4"], 2)
        assert out == "" and "invalid int value: 'three'" in error
        assert modules & (self.OFF_PATH | {"wordstats.oracle"}) == set()

    HELP = (
        "usage: wordstats [-h] {count,table,series,verify} ...\n\n"
        "Count words over [k] by refined descent, rise, and level statistics.\n\n"
        "positional arguments:\n"
        "  {count,table,series,verify}\n"
        "    count               count one statistic family\n"
        "    table               table one statistic family\n"
        "    series              expand a generating function\n"
        "    verify              run a cross-engine verification suite\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
    )

    def test_no_argv_loads_argparse(self):
        """A valid ``count``, ``table``, ``series`` and ``verify`` argv, ``-h``, ``--flag=value`` and usage errors.

        Each is answered without argparse, in one process, in a 40-column
        terminal; only ``-h`` and the usage errors load ``wordstats.usage``,
        which writes their text.
        """
        valid = [["count", *DES_LE[1:], "--s", "1"], DES_LE, SERIES_ARGVS[0], VERIFY_ARGVS[2],
                 ["table", "des-le", "--k=3", *DES_LE[4:]]]
        answered = [["-h"], *map(list, TestRouting.USAGE_ERRORS)]
        done = spawn(json.dumps(valid), json.dumps(answered), code="""
import contextlib, io, json, sys
from wordstats import cli

def outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()

valid = [outcome(argv) for argv in json.loads(sys.argv[1])]
written = "wordstats.usage" in sys.modules
answered = [outcome(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps([valid, written, answered, "argparse" in sys.modules, "wordstats.usage" in sys.modules]))
""", env={**CHILD_ENV, "COLUMNS": "40"}, stdout=subprocess.PIPE)  # the text does not follow the terminal
        assert done.returncode == 0, done.stderr
        valid, written, (help_, *errors), loaded, text_loaded = json.loads(done.stdout)
        assert [code for code, _, _ in valid] == [0] * 5 and valid[4] == valid[1]
        assert help_ == [0, self.HELP, ""]
        assert errors == [[cli.EXIT_USAGE, "", text] for text in TestRouting.USAGE_ERRORS.values()]
        assert (written, text_loaded, loaded) == (False, True, False)

    def test_series_loads_series_but_not_verify(self):
        argv = ["series", "--gf", "A", "--k", "2", "--partition", "threshold:1", "--order", "2"]
        _, _, modules = self._run(argv, 0)
        assert {"wordstats.series", "wordstats.polynomials"} <= modules
        assert {"wordstats.verify", "wordstats.oracle", "dataclasses", "json.decoder"} & modules == set()

    def test_importtime_lists_every_module_loaded_on_access(self):
        """A module loaded through a package or ``cli`` ``__getattr__`` shows in ``-X importtime``."""
        cases = [
            (["-c", "import wordstats.verify"], {"wordstats.formulas", "wordstats.identities"}),
            (["-m", "wordstats.cli", "verify", "identities", "--n-max", "2"],
             {"wordstats.verify", "wordstats.identities", "wordstats.oracle"}),
        ]
        for argv, expected in cases:
            done = subprocess.run([sys.executable, "-X", "importtime", *argv], env=CHILD_ENV,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
            assert done.returncode == 0, done.stderr
            listed = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()}
            assert expected <= listed, argv

    def test_records_escape_strings_as_json_does(self):
        """``cli`` takes json's own string escaper, without the json package's decoder."""
        assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii

    def test_verify_loads_no_dataclasses(self):
        out, _, modules = self._run(["verify", "identities", "--n-max", "3"], 0)
        assert json.loads(out)["result"]["failures"] == 0
        assert {"wordstats.verify", "wordstats.identities", "wordstats.series"} <= modules
        assert {"dataclasses", "inspect", "ast"} & modules == set()

    def test_no_wordstats_module_imports_dataclasses(self):
        done = spawn(code="""
import importlib, pkgutil, sys, wordstats
names = [info.name for info in pkgutil.iter_modules(wordstats.__path__, "wordstats.")]
for name in names:
    importlib.import_module(name)
print(" ".join(names))
sys.exit("dataclasses" in sys.modules)
""", stdout=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        assert set(done.stdout.split()) >= {"wordstats.cli", "wordstats.identities", "wordstats.series",
                                            "wordstats.verify", "wordstats.words"}

    def test_series_names_resolve_before_any_series_request(self):
        """A fresh ``cli`` answers the names the tracer wraps, each module's on first access.

        A wrapper bound on ``cli.rearrangement_distribution`` is what an oracle
        ``hall-remmel`` count calls, and its budget refusal still exits 3.
        """
        env = {name: value for name, value in CHILD_ENV.items() if name != BUDGET_ENV_VAR}
        done = spawn(code="""
import sys
from wordstats import cli
assert cli.evaluate.__module__ == "wordstats.formulas"
names = {
    "series": ("build_ak_series", "build_bk_series"),
    "oracle": ("count_matching", "rearrangement_distribution"),
}
values = {}
for source, taken in names.items():
    assert f"wordstats.{source}" not in sys.modules, source
    values[source] = [getattr(cli, name) for name in taken]
from wordstats import oracle, series
assert cli.oracle is oracle
for module in (oracle, series):
    source = module.__name__.rpartition(".")[2]
    assert values[source] == [getattr(module, name) for name in names[source]], source
try:
    cli.no_such_name
except AttributeError:
    pass
else:
    sys.exit("cli.no_such_name resolved")
calls, real = [], cli.rearrangement_distribution
cli.rearrangement_distribution = lambda *params: calls.append(params) or real(*params)
code = cli.main(["count", "hall-remmel", "--rho", "3,3,3,2", "--x", "all", "--y", "all",
                 "--s", "0", "--engine", "oracle"])
assert code == cli.EXIT_BUDGET, code
assert calls == [((3, 3, 3, 2), {1, 2, 3, 4}, {1, 2, 3, 4})], calls
""", env=env, stdout=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        assert done.stdout == ""
        assert done.stderr == (
            "error: enumeration needs 39916800 words, over the budget of 16777216 "
            f"(override with an explicit budget or {BUDGET_ENV_VAR})\n"
        )

    def test_build_parser_leaves_main_nothing_to_build(self):
        """After ``build_parser()``, ``main`` answers each command, ``-h`` and a usage error with no new parser.

        ``bench/run.py`` times the import and ``build_parser()`` as setup, so
        the parsers it builds are the ones every request reads with.
        """
        done = spawn(code="""
import sys
from wordstats import cli
cli.build_parser()
built, init = [], cli._Reader.__init__
def counting_init(self, prog, *args, **kwargs):
    built.append(prog)
    init(self, prog, *args, **kwargs)
cli._Reader.__init__ = counting_init
argvs = [
    ["count", "des-le", "--k", "3", "--t", "1", "--n", "4", "--s", "1"],
    ["table", "hall-remmel", "--rho", "2,1", "--x", "all", "--y", "1", "--engine", "oracle"],
    ["series", "--gf", "B", "--k", "2", "--partition", "mod:2", "--order", "2"],
    ["verify", "identities", "--n-max", "1"],
    ["-h"],
    ["table", "des-le", "--k", "x"],
]
codes = [cli.main(argv) for argv in argvs]
assert codes == [0, 0, 0, 0, 0, 2], codes
sys.stderr.write(f"built: {built}\\n")
""", stdout=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        assert done.stderr.endswith("\nbuilt: []\n"), done.stderr

    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_2_without_a_traceback(self, unbuffered):
        """A broken pipe: the error is one line, whether print or the final flush meets it."""
        env = {name: value for name, value in CHILD_ENV.items() if name != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = unbuffered
        read, write = os.pipe()
        os.close(read)
        try:
            done = spawn(*self.TABLE, code=PLAIN_ENTRYPOINT,
                         env=env, stdout=write)
        finally:
            os.close(write)
        assert done.returncode == cli.EXIT_USAGE
        assert done.stderr == "error: cannot write the output: [Errno 32] Broken pipe\n"

    def test_stdout_closed_at_start_exits_2_without_a_traceback(self):
        """With fd 1 closed, ``sys.stdout`` is None and print would lose the record silently."""
        done = spawn("count", "des-le", "--k", "3", "--t", "1", "--n", "4", "--s", "1",
                     code=PLAIN_ENTRYPOINT, preexec_fn=lambda: os.close(1))
        assert done.returncode == cli.EXIT_USAGE
        assert done.stderr == "error: cannot write the output: stdout is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_2_without_a_traceback(self):
        with open("/dev/full", "w") as full:
            done = spawn(*self.TABLE, code=PLAIN_ENTRYPOINT,
                         stdout=full)
        assert done.returncode == cli.EXIT_USAGE
        assert done.stderr == "error: cannot write the output: [Errno 28] No space left on device\n"
