"""End-to-end acceptance checks.

Every criterion is exact (integer equality, no tolerances) and prints one
PASS/FAIL line; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they complete.  The final criterion re-runs the verification
suites end to end through the CLI at their default grids, then proves the
harness can fail by injecting a corrupted formula constant.
"""

import json

from wordstats import cli, verify


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_1_dual_oracle_equivalence():
    result = verify.oracle_vs_transfer(k_max=4, n_max=8)
    _report(1, "dual-oracle equivalence", result.ok)
    assert result.ok, result.first_failure
    # k+1 thresholds and 2 residue partitions per alphabet, 9 lengths each
    assert result.checked == sum((k + 3) * 9 for k in range(1, 5))


def test_criterion_2_master_series_correctness():
    result = verify.series_vs_oracle(k_max=4, n_max=6)
    _report(2, "master series vs oracle", result.ok)
    assert result.ok, result.first_failure


def test_criterion_3_closed_form_grid():
    result = verify.formulas_vs_oracle(alphabet_max=6, n_max=7)
    _report(3, "closed forms vs oracle", result.ok)
    assert result.ok, result.first_failure


def test_criterion_4_formula_variant_resolution():
    cases = verify.des_mod_errata(alphabet_max=6, n_max=7)
    ok = len(cases) == 3 and all(case.resolved for case in cases)
    _report(4, "ambiguous readings resolved", ok)
    for case in cases:
        assert case.shipped_ok, f"{case.name}: shipped variant failed the grid"
        assert case.rejected_counterexample is not None, (
            f"{case.name}: rejected variant never disagreed"
        )
        assert case.rejected_value != case.oracle_value


def test_criterion_5_binomial_identities():
    result = verify.identities_suite(top_n_max=12, two_bottom_n_max=10)
    _report(5, "binomial identities and direct counts", result.ok)
    assert result.ok, result.first_failure


def test_criterion_6_rearrangement_cross_check():
    result = verify.hall_remmel_suite(m_max=4, weight_max=7, even_n_max=6)
    _report(6, "rearrangement closed form vs oracle", result.ok)
    assert result.ok, result.first_failure


def test_criterion_7_complement_dualities():
    result = verify.duality_suite(k_max=4, n_max=6)
    _report(7, "complement dualities", result.ok)
    assert result == verify.SuiteResult("dualities", 65512, 0, None), result.first_failure


def test_criterion_8_weight_compatibility():
    result = verify.series_weight_suite(k_max=3, n_max=4)
    _report(8, "composition/word series compatibility", result.ok)
    assert result == verify.SuiteResult("series-weight-compatibility", 30, 0, None), result.first_failure


def test_criterion_9_cli_contract(capsys):
    # bare invocations run each suite at its full default grid
    suites = [
        "oracle-vs-transfer",
        "formulas-vs-oracle",
        "series-vs-oracle",
        "identities",
        "hall-remmel",
    ]
    ok = True
    for suite in suites:
        code = cli.main(["verify", suite])
        record = json.loads(capsys.readouterr().out)
        ok = ok and code == 0 and record["result"]["failures"] == 0

    fault_code = cli.main(
        ["verify", "formulas-vs-oracle", "--k-max", "3", "--n-max", "4", "--inject-fault"]
    )
    fault_record = json.loads(capsys.readouterr().out)
    ok = ok and fault_code == 1 and fault_record["result"]["failures"] > 0

    with capsys.disabled():
        _report(9, "CLI verify contract and fault self-test", ok)
    assert ok
