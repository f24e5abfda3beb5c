"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion, or `msolab suite acceptance` for the aggregated JSON report.
The two 200-case criteria share one seeded case stream (the round-trip
criterion is defined over the same cases as the membership criterion), so
they are exercised through a shared module-scoped run.
"""

import time

import pytest

from msolab import suites

SEED = suites.DEFAULT_SEED


def report(name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def forward_roundtrip():
    started = time.monotonic()
    c1, c2 = suites.forward_and_roundtrip(SEED)
    return c1, c2, time.monotonic() - started


def test_criterion_1_forward_membership(forward_roundtrip):
    c1, _, elapsed = forward_roundtrip
    assert c1["cases"] == 200
    report("1 forward membership (200 cases)",
           c1["pass"] and elapsed <= 60.0,
           f"max defect {c1['max_defect']:.2e} <= {c1['tolerance']:.0e}, "
           f"{elapsed:.1f}s <= 60s")


def test_criterion_2_symbol_round_trip(forward_roundtrip):
    _, c2, _ = forward_roundtrip
    assert c2["cases"] == 200
    report("2 symbol round trip (both methods)", c2["pass"],
           f"max coefficient/agreement error {c2['max_error']:.2e} "
           f"<= {c2['tolerance']:.0e}")


def test_criterion_3_nullspace_dimensions():
    started = time.monotonic()
    c = suites.nullspace_dimensions()
    elapsed = time.monotonic() - started
    dims_ok = all(d["dimension"] == d["expected"] for d in c["details"])
    report("3 shift-invariance nullspace dimensions",
           c["pass"] and dims_ok and elapsed <= 5.0,
           f"all (m,n) in {{2,3,4}}^2 give m+n-1, span distance "
           f"{c['max_span_distance']:.2e} <= {c['tolerance']:.0e}, "
           f"{elapsed:.1f}s <= 5s")


def test_criterion_4_block_structure():
    c = suites.block_structure_scan()
    assert c["dimension"] == 84
    report("4 complement nullspace block structure", c["pass"],
           f"{c['dimension']} solutions, structure defect "
           f"{c['max_structure_defect']:.2e} <= {c['tolerance']:.0e}")


def test_criterion_5_annihilator_families():
    c = suites.annihilator_families(SEED)
    assert c["cases"] == 100
    detections = ", ".join(f"cond{k}:{v:.1e}"
                           for k, v in sorted(c["condition_detections"].items()))
    report("5 annihilator families", c["pass"],
           f"max pairing {c['max_pairing']:.2e} <= {c['tolerance']:.0e}; "
           f"detections {detections} >= {c['detection_floor']:.0e}")


def test_criterion_6_transitivity():
    c = suites.transitivity_scan(SEED)
    assert c["pairs"] == 50
    report("6 transitivity probe", c["pass"],
           f"50 pairs, smallest product peak {c['min_peak']:.2e} "
           f">= {c['floor']:.0e}")


def test_criterion_7_isometry_convergence():
    started = time.monotonic()
    c = suites.isometry_convergence()
    elapsed = time.monotonic() - started
    assert c["depths"] == [16, 32, 64, 128, 256]
    report("7 isometry convergence",
           c["pass"] and elapsed <= 30.0,
           f"sigma={['%.6f' % s for s in c['singular_values']]} monotone, "
           f"bounded by {c['sup_norm']:.1f}+1e-12, final gap "
           f"{c['final_gap']:.2e} <= 0.05, {elapsed:.1f}s <= 30s")


def test_criterion_8_functional_representation():
    c = suites.functional_representation(SEED)
    assert c["densities"] == 50
    report("8 functional representation", c["pass"],
           f"50 densities, max moment error {c['max_error']:.2e} "
           f"<= {c['tolerance']:.0e}")


def test_criterion_9_conjugation_suite():
    c = suites.conjugation_suite(SEED)
    assert c["cases"] == 100
    report("9 conjugation suite", c["pass"],
           f"100 cases, max defect {c['max_defect']:.2e} "
           f"<= {c['tolerance']:.0e}")


def test_criterion_10_proposition_suites():
    c = suites.proposition_suite(SEED)
    assert c["cases"] == 100
    report("10 proposition suites", c["pass"],
           f"100 cases, max defect {c['max_defect']:.2e} "
           f"<= {c['tolerance']:.0e}")
