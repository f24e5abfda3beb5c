import json

import pytest

from msolab import annihilate, characterize, suites
from msolab.errors import InputError
from msolab.inner import monomial_inner
from msolab.laurent import LaurentPolynomial
from msolab.operators import MAX_DEPTH
from msolab.suites import SuiteConfig, run_fuzz, run_suite


def test_run_suite_dispatch_and_unknown():
    report = run_suite("fuzz", SuiteConfig(cases=3, seed=5))
    assert report["suite"] == "fuzz" and report["pass"]
    with pytest.raises(InputError):
        run_suite("everything")


def test_fuzz_records_are_ordered_and_detailed():
    report = run_fuzz(SuiteConfig(cases=4, seed=5))
    assert [rec["case"] for rec in report["records"]] == [0, 1, 2, 3]
    rec = report["records"][0]
    assert set(rec["membership_defects"]) == {
        "that-toeplitz", "tcheck-coupling", "hankel-intertwine",
        "corner-consistency"}
    assert rec["shift_defect"] <= 1e-10


def test_fuzz_honours_pinned_operator():
    config = SuiteConfig(theta=monomial_inner(2), alpha=monomial_inner(2),
                         symbol=LaurentPolynomial({1: 1.0}), M=8, cases=2,
                         seed=1)
    report = run_fuzz(config)
    assert report["pass"]
    assert all(rec["M"] == 8 for rec in report["records"])


def test_config_guard_validation():
    config = SuiteConfig(theta=monomial_inner(2), alpha=monomial_inner(2),
                         symbol=LaurentPolynomial({3: 1.0}), M=5)
    with pytest.raises(InputError):
        config.validate()
    with pytest.raises(InputError):
        SuiteConfig(tol=-1.0).validate()
    with pytest.raises(InputError, match="depth cap"):
        SuiteConfig(M=MAX_DEPTH + 1).validate()


@pytest.mark.parametrize("cases", [0, -3])
def test_fuzz_rejects_vacuous_case_counts(cases):
    with pytest.raises(InputError, match="cases must be positive"):
        run_fuzz(SuiteConfig(cases=cases))


def test_transitivity_failure_report_has_the_pass_keys(monkeypatch):
    passed = suites.transitivity_scan(5)
    assert passed["pass"] and passed["pairs"] == 50
    # a floor above every probe peak: no product certifies itself nonzero
    monkeypatch.setattr(annihilate, "PROBE_FLOOR", 1e6)
    failed = suites.transitivity_scan(5)
    assert list(failed) == list(passed)
    assert failed["seed"] == 5 and not failed["pass"]
    assert failed["floor"] == 1e6 and failed["min_peak"] == passed["min_peak"]


def test_block_structure_requires_the_closed_form_dimension(monkeypatch):
    assert suites.block_structure_scan()["dimension"] == 84
    solve = characterize.solve_shift_invariant_space

    def short_solve(theta, alpha, M=None):
        sol = solve(theta, alpha, M)
        return sol._replace(dimension=sol.dimension - 1,
                            operators=sol.operators[:-1])
    monkeypatch.setattr(characterize, "solve_shift_invariant_space", short_solve)
    report = suites.block_structure_scan()
    assert report["dimension"] == 83 and report["max_structure_defect"] == 0.0
    assert not report["pass"]


def test_reports_are_plain_json():
    """Suite reports hold only Python scalars, so the standard encoder takes
    them without a `default` hook (a numpy bool or float would raise)."""
    for report in (run_suite("convergence"),
                   run_suite("fuzz", SuiteConfig(cases=2)),
                   suites.isometry_convergence()):
        assert json.loads(json.dumps(report, sort_keys=True)) == report
