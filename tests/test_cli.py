import functools
import inspect
import json

import pytest

from wordstats import cli, formulas, oracle, verify
from wordstats.oracle import BUDGET_ENV_VAR


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def counting_calls(calls, name, fn):
    """``fn`` that appends ``name`` to ``calls`` each time it is called."""
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper


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
        for engine in ("closed-form", "oracle", "transfer"):
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

    def test_unknown_family_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "des-sideways", "--k", "2"])
        assert exc.value.code == cli.EXIT_USAGE


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

    # One query per family; hall-remmel has no transfer engine and runs on the oracle.
    FAMILY_QUERIES = [
        ("levels-threshold", ["--k", "3", "--t", "2", "--n", "6"]),
        ("levels-blocks", ["--block-sizes", "2,1,1", "--n", "6"]),
        ("des-le", ["--k", "4", "--t", "2", "--n", "6"]),
        ("des-gt", ["--k", "4", "--t", "1", "--n", "6"]),
        ("des-mod", ["--s", "3", "--alphabet", "5", "--r", "2", "--n", "6"]),
        ("hall-remmel", ["--rho", "2,1,2", "--x", "2,3", "--y", "all"]),
    ]

    @staticmethod
    def _dp_engines(family):
        return ["oracle"] if family == "hall-remmel" else ["transfer", "oracle"]

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_engine_table_equals_closed_form(self, capsys, family, params):
        closed = run_json(capsys, "table", family, *params)
        _, closed_csv, _ = run(capsys, "table", family, *params, "--format", "csv")
        for engine in self._dp_engines(family):
            record = run_json(capsys, "table", family, *params, "--engine", engine)
            assert record["result"] == closed["result"], engine
            code, csv, _ = run(
                capsys, "table", family, *params, "--engine", engine, "--format", "csv"
            )
            assert code == 0
            assert csv == closed_csv, engine

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_engine_table_is_one_engine_call(self, capsys, monkeypatch, family, params):
        calls = []
        counting = functools.partial(counting_calls, calls)
        for name in ("statistic_distribution", "brute_distribution"):
            monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
        monkeypatch.setattr(
            cli, "rearrangement_distribution",
            counting("rearrangement_distribution", cli.rearrangement_distribution),
        )
        expected = {
            "transfer": "statistic_distribution",
            "oracle": "rearrangement_distribution"
            if family == "hall-remmel" else "brute_distribution",
        }
        for engine in self._dp_engines(family):
            calls.clear()
            run_json(capsys, "table", family, *params, "--engine", engine)
            assert calls == [expected[engine]], engine

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES)
    def test_closed_form_table_is_one_formula_call(self, capsys, monkeypatch, family, params):
        calls = []
        counting = functools.partial(counting_calls, calls)
        monkeypatch.setattr(cli, "evaluate", counting("evaluate", cli.evaluate))
        monkeypatch.setattr(formulas, "evaluate", counting("evaluate", formulas.evaluate))
        monkeypatch.setattr(cli, "distribution", counting("distribution", cli.distribution))
        run_json(capsys, "table", family, *params)
        assert calls == ["distribution"]

    @pytest.mark.parametrize("family, params", FAMILY_QUERIES[:5])
    def test_negative_length_table_exits_2_on_every_engine(self, capsys, family, params):
        query = params[: params.index("--n")] + ["--n", "-1"]
        for engine in ("closed-form", "transfer", "oracle"):
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
        args = cli.build_parser().parse_args(
            ["table", "levels-blocks", "--block-sizes", "1,2", "--n", "4"]
        )
        before = vars(args).copy()
        assert cli._cmd_table(args) == cli.EXIT_OK
        capsys.readouterr()
        assert vars(args) == before

    def test_levels_blocks_count_needs_one_target_per_block(self, capsys):
        for engine in ("closed-form", "oracle", "transfer"):
            for targets in ("1", "1,0,0"):
                code, out, err = run(
                    capsys, "count", "levels-blocks", "--block-sizes", "1,2",
                    "--n", "4", "--targets", targets, "--engine", engine,
                )
                assert code == cli.EXIT_USAGE, (engine, targets)
                assert "block sizes but" in err


class TestSeries:
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
        for spec in ("stripes:1", "threshold:abc", "mod:x"):
            code, out, err = run(
                capsys, "series", "--gf", "A", "--k", "2", "--partition", spec,
                "--order", "2",
            )
            assert code == cli.EXIT_USAGE, spec
            assert out == ""
            assert err.startswith("error:"), spec

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

    def test_fault_flag_limited_to_formula_suite(self, capsys):
        code, _, err = run(capsys, "verify", "identities", "--inject-fault")
        assert code == cli.EXIT_USAGE

    def test_suite_table_matches_the_suites(self):
        for suite, (name, bounds) in cli.VERIFY_SUITES.items():
            keywords = inspect.signature(getattr(verify, name)).parameters
            assert {kw for kws in bounds.values() for kw in kws} <= set(keywords), suite

    def test_only_given_bounds_reach_the_suite(self, capsys, monkeypatch):
        calls = []

        def suite(**kwargs):
            calls.append(kwargs)
            return verify.SuiteResult("identities", checked=1, failures=0)

        monkeypatch.setattr(verify, "identities_suite", suite)
        run_json(capsys, "verify", "identities")
        run_json(capsys, "verify", "identities", "--n-max", "0", "--k-max", "3")
        assert calls == [{}, {"top_n_max": 0, "two_bottom_n_max": 0}]


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
        ("hall-remmel", ["--rho", "1,1", "--x", "5", "--y", "1"], ["--s", "0"],
         "letter 5 outside 1..2"),
        ("hall-remmel", ["--rho", "1,1", "--x=-1,0", "--y", "1"], ["--s", "0"],
         "letter -1 outside 1..2"),
    ]
    # The fault of these rows lies in the statistic value, which a table does not take.
    VALUE_FAULTS = [
        ("levels-blocks", ["--block-sizes", "2,3", "--n", "5"], ["--targets=-1,0"],
         "block sizes and level targets must be nonnegative"),
    ]
    QUERIES += VALUE_FAULTS

    @pytest.mark.parametrize("family, query, value, message", QUERIES)
    def test_every_engine_rejects_with_the_closed_form_message(
        self, capsys, family, query, value, message
    ):
        argvs = [["count", family, *query, *value]]
        if (family, query, value, message) not in self.VALUE_FAULTS:
            argvs.append(["table", family, *query])
        for engine in ("closed-form", "transfer", "oracle"):
            for argv in argvs:
                code, out, err = run(capsys, *argv, "--engine", engine)
                assert code == cli.EXIT_USAGE, (engine, argv)
                assert out == ""
                assert err == f"error: {message}\n", (engine, argv)


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
        ["table", "des-le", "--k", "3", "--t", "x", "--n", "4"],  # argparse usage error
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

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_one_parser_answers_like_a_fresh_one(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        built = []

        def counting_build():
            built.append(1)
            return cli.build_parser()

        monkeypatch.setattr(cli, "_parser", functools.cache(counting_build))
        reused = [self.outcome(capsys, argv) for argv in self.ARGVS * 2]
        assert len(built) == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [self.outcome(capsys, argv) for argv in self.ARGVS * 2]
        assert reused == fresh
        assert [code for code, _, _ in reused[: len(self.ARGVS)]] == [0, 2, 0, 2, 3, 2, 0, 0, 2, 0]

    def test_main_builds_the_parser_once(self):
        assert cli._parser() is cli._parser()
