import json
import os
import subprocess
import sys

import numpy as np
import pytest

from msolab import annihilate, inner, kernels, spaces, suites
from msolab.errors import InputError
from msolab.inner import monomial_inner
from msolab.laurent import LaurentPolynomial
from msolab.operators import MAX_DEPTH
from msolab.spaces import section_shift_index
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
        run_fuzz(config)
    with pytest.raises(InputError):
        SuiteConfig(tol=-1.0).validate()
    with pytest.raises(InputError, match="depth cap"):
        run_fuzz(SuiteConfig(M=MAX_DEPTH + 1))


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


def _keep_top(M):
    """Also keep theta z^M, sending it to the next index (zbar)."""
    k = np.arange(M + 1)
    return np.r_[k, k[:-1] + M + 2], np.r_[k + 1, k[:-1] + M + 1]


def _drop_pair(M):
    """Forget the pair theta z^0 -> theta z^1."""
    keep, moved = section_shift_index(M)
    return keep[1:], moved[1:]


def _skip_one(M):
    """Send theta z^k to theta z^(k+2) (k = 0..M-2)."""
    keep, moved = section_shift_index(M)
    k = np.arange(M - 1)
    return np.r_[k, keep[M:]], np.r_[k + 2, moved[M:]]


def test_block_structure_fails_under_index_map_mutants(monkeypatch):
    """Criterion 4 solves the system the shift check gathers, so a wrong
    index map changes the kernel: its dimension, or its block structure."""
    passed = suites.block_structure_scan()
    assert passed["pass"] and passed["dimension"] == 84
    for mutant, dimension, defect in ((_keep_top, 43, None), (_drop_pair, 123, 1.0),
                                      (_skip_one, 123, 1.0)):
        monkeypatch.setattr(suites, "section_shift_index", mutant)
        report = suites.block_structure_scan()
        assert list(report) == list(passed) and not report["pass"]
        assert report["dimension"] == dimension
        if defect is not None:
            assert report["max_structure_defect"] == pytest.approx(defect)


def test_block_structure_report_ignores_the_blas_thread_count():
    script = "import json; from msolab import suites; " \
             "print(json.dumps(suites.block_structure_scan()))"
    outs = [subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1] and json.loads(outs[0])["pass"]


def test_cli_report_ignores_the_blas_thread_count():
    """The CLI runs BLAS on one thread whatever OPENBLAS_NUM_THREADS says;
    criterion 7's M=256 singular value differs in its last digits between
    one and two threads otherwise. Under `-m msolab.cli` the count set before
    numpy loads holds both runs to one thread; the runtime pin is covered by
    test_run_suite_pins_one_blas_thread_and_restores_the_callers."""
    outs = [subprocess.run([sys.executable, "-m", "msolab.cli", "suite", "convergence"],
                           check=True, capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": threads}).stdout
            for threads in ("1", "2")]
    assert outs[0] == outs[1] and json.loads(outs[0])["pass"]


_CLI_AS_MAIN = """
import runpy, sys
sys.argv = ["msolab", "build", "tto", "--theta", "z^2", "--symbol", "z"]
try:
    runpy.run_module("msolab.cli", run_name="__main__")
except SystemExit as exc:
    assert exc.code == 0
"""


@pytest.mark.parametrize("start, expected", [(_CLI_AS_MAIN, "1 1"),
                                             ("import msolab.cli", "2 2")],
                         ids=["as-main", "as-library"])
def test_only_the_cli_process_starts_blas_on_one_thread(openblas, start, expected):
    """Run as __main__, the CLI sets OPENBLAS_NUM_THREADS=1 before numpy
    loads, so after a command (whose pin restores the count it found) the
    process still runs one thread. An import as a library keeps the caller's
    variable and count."""
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps the count it reads at load at the CPU count")
    script = start + "\nimport os\nfrom msolab import kernels\n" \
        "print(kernels.openblas_threads()[0](), os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}).stdout
    assert out.splitlines()[-1] == expected


def test_run_suite_pins_one_blas_thread_and_restores_the_callers(monkeypatch, openblas):
    """The suite body sees one thread; the caller gets its count back."""
    get, set_ = openblas
    seen = []

    def convergence(config):
        seen.append(get())
        return {"pass": True}

    monkeypatch.setitem(suites.SUITES, "convergence", (convergence, ()))
    set_(2)
    run_suite("convergence")
    assert seen == [1] and get() == 2


def _no_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("library", [_no_library, lambda path: object()],
                         ids=["no-library", "no-symbols"])
def test_pin_is_a_silent_no_op_without_the_symbols(monkeypatch, openblas, library):
    """Under another BLAS build the symbol lookup fails: the pin then does
    nothing, and a one-thread run reports what the pinned run reports."""
    get, set_ = openblas
    pinned = run_suite("convergence")
    set_(1)
    monkeypatch.setattr(kernels.ctypes, "CDLL", library)
    assert kernels.openblas_threads() is None
    assert run_suite("convergence") == pinned
    assert get() == 1


def test_reports_are_plain_json():
    """Suite reports hold only Python scalars, so the standard encoder takes
    them without a `default` hook (a numpy bool or float would raise)."""
    for report in (run_suite("convergence"),
                   run_suite("fuzz", SuiteConfig(cases=2)),
                   suites.isometry_convergence()):
        assert json.loads(json.dumps(report, sort_keys=True)) == report


def _cold_caches():
    """Empty every cache an acceptance run fills: the expansions, the
    model-space bases and the complement sections."""
    for cache in (inner._expand_cached, inner._tm_basis_wrapped, spaces.basis_Kperp,
                  spaces._tail_monomials):
        cache.cache_clear()


def test_acceptance_report_is_the_same_from_cold_and_warm_caches():
    """The acceptance report at seed 7 from empty caches and again from the
    caches the first run left: expansions the first run computed, the
    second takes from the lru cache or computes again once evicted."""
    _cold_caches()
    reports = []
    for _ in range(2):
        misses = inner._expand_cached.cache_info().misses
        reports.append(json.dumps(run_suite("acceptance", SuiteConfig(seed=7)),
                                  sort_keys=True, indent=2))
        assert inner._expand_cached.cache_info().misses > misses
    assert reports[0] == reports[1]
