"""Seeded verification suites shared by the CLI and the acceptance tests.

Every suite is deterministic under a fixed seed: case streams come from the
xoshiro256** generator in msolab.rng, reports contain no timestamps, cases
run serially in index order, and `run_suite` runs BLAS on one thread, so
identical config + seed gives byte-identical reports on one machine.

Case sizing policy: checks that are entrywise-exact on the section run at
the tight depth operators.default_depth; pairing suites whose dyad vectors
carry geometric expansion tails (the wrapped families and the represented
functionals) run at a depth where those tails sit safely below the
tolerance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, fields

import numpy as np

from . import annihilate, characterize
from .errors import InputError
from .inner import BlaschkeProduct, expand, tm_basis
from .kernels import one_blas_thread
from .laurent import (LaurentPolynomial, conj_function, inner_product,
                      involution_J, minus_part, monomial, multiply, plus_part)
from .operators import (BlockOperator, SymbolFunction, build_dtto, build_tto,
                        default_depth, split_blocks)
from .rng import Xoshiro256StarStar
from .spaces import conjugation_C, project, section_shift_index

DEFAULT_SEED = 42


@dataclass
class SuiteConfig:
    """Batch configuration; fields mirror the CLI flags."""

    theta: BlaschkeProduct | None = None
    alpha: BlaschkeProduct | None = None
    symbol: LaurentPolynomial | None = None
    M: int | None = None
    tol: float | None = None
    seed: int = DEFAULT_SEED
    cases: int | None = None

    def validate(self):
        characterize.validated_tolerance(self.tol)
        if self.cases is not None and self.cases <= 0:
            raise InputError(f"cases must be positive, got {self.cases}")
        return self


# -- random case material -----------------------------------------------------

def random_inner(r: Xoshiro256StarStar, rho: float = 0.8) -> BlaschkeProduct:
    d = r.integer(1, 3)
    return BlaschkeProduct([r.complex_disk(rho) for _ in range(d)])


def random_symbol(r: Xoshiro256StarStar, reach: int = 4,
                  normalize: bool = False) -> LaurentPolynomial:
    lo, hi = -r.integer(0, reach), r.integer(0, reach)
    coeffs = {k: r.complex_box() for k in range(lo, hi + 1)}
    p = LaurentPolynomial(coeffs)
    if p.is_zero():
        p = LaurentPolynomial.one()
    if normalize:
        p = p.scale(1.0 / p.norm())
    return p


def random_in_basis(r: Xoshiro256StarStar, basis) -> LaurentPolynomial:
    coords = np.array([r.complex_box() for _ in range(basis.dim)])
    n = np.linalg.norm(coords)
    if n == 0:
        coords[0] = 1.0
        n = 1.0
    return basis.reconstruct(coords / n)


# -- criteria -----------------------------------------------------------------

def forward_and_roundtrip(seed: int = DEFAULT_SEED) -> tuple[dict, dict]:
    """Criterion 1 (membership checks pass on built operators) and
    criterion 2 (symbol round trip, both methods, methods agree), sharing
    one 200-case stream at depth operators.default_depth."""
    root = Xoshiro256StarStar(seed)
    cases, tol_fwd, tol_rt = 200, 1e-10, 1e-11

    def one(i: int):
        r = root.spawn(i)
        theta = random_inner(r)
        alpha = random_inner(r)
        phi = random_symbol(r)
        sym = SymbolFunction(phi)
        M = default_depth(theta, alpha, sym.reach)
        D = build_dtto(theta, alpha, sym, M)
        verdict = characterize.check_adtto(D)
        fwd = max(rep.defect for rep in verdict.reports)
        s1, res1 = characterize.recover_symbol(D, "zbar", tol=tol_rt)
        s2, res2 = characterize.recover_symbol(D, "boundary", tol=tol_rt)
        band = range(phi.lo - 1, phi.hi + 2)
        rt = max(max(abs(s1.value.coeff(k) - phi.coeff(k)) for k in band),
                 max(abs(s2.value.coeff(k) - phi.coeff(k)) for k in band))
        agree = (s1.value - s2.value).norm()
        return fwd, max(rt, agree), max(res1, res2)

    rows = [one(i) for i in range(cases)]
    fwd = max(row[0] for row in rows)
    rt = max(max(row[1] for row in rows), max(row[2] for row in rows))
    c1 = {"criterion": "forward-membership", "cases": cases, "seed": seed,
          "max_defect": fwd, "tolerance": tol_fwd, "pass": fwd <= tol_fwd}
    c2 = {"criterion": "symbol-round-trip", "cases": cases, "seed": seed,
          "max_error": rt, "tolerance": tol_rt, "pass": rt <= tol_rt}
    return c1, c2


def nullspace_dimensions() -> dict:
    """Criterion 3: the shift-invariance system between monomial model
    spaces has nullspace dimension m + n - 1, and the nullspace lies in the
    span of the compressed monomial multipliers."""
    tol = 1e-10
    worst_dim_ok = True
    worst_dist = 0.0
    details = []
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            theta = BlaschkeProduct([0.0] * m)
            alpha = BlaschkeProduct([0.0] * n)
            sol = characterize.solve_shift_invariant_space(theta, alpha)
            family = [build_tto(theta, alpha, monomial(k))
                      for k in range(-(m - 1), n)]
            dist = max(characterize.distance_to_span(op, family)
                       for op in sol.operators)
            ok = sol.dimension == m + n - 1
            worst_dim_ok = worst_dim_ok and ok
            worst_dist = max(worst_dist, dist)
            details.append({"m": m, "n": n, "dimension": sol.dimension,
                            "expected": m + n - 1, "span_distance": dist})
    passed = worst_dim_ok and worst_dist <= tol
    return {"criterion": "nullspace-dimensions", "max_span_distance": worst_dist,
            "tolerance": tol, "details": details, "pass": passed}


def block_structure_scan() -> dict:
    """Criterion 4: every solution of the shift-invariance system between
    depth-10 complement sections of z^2 has Toeplitz diagonal blocks and
    Hankel off-diagonal blocks, and these solutions span dimension 4(2M+1).

    The system is the one the shift check gathers: with keep, moved =
    spaces.section_shift_index(M), the admissible section vectors are the
    identity columns I[:, keep] and their shifts I[:, moved], so each
    admissible pair (p, q) asks A[moved[q], moved[p]] = A[keep[q], keep[p]].
    characterize.shift_kernel solves it, and each kernel matrix, cut into
    blocks, is judged by check_block_conditions.
    """
    M, tol = 10, 1e-10
    theta = BlaschkeProduct([0.0, 0.0])
    keep, moved = section_shift_index(M)
    I = np.eye(2 * M + 2)
    null, _ = characterize.shift_kernel(I[:, keep], I[:, moved],
                                        I[:, keep], I[:, moved])
    ops = [split_blocks(A, theta, theta, M) for A in null]
    worst = max(rep.defect for op in ops
                for rep in characterize.check_block_conditions(op))
    return {"criterion": "block-structure", "dimension": len(null),
            "max_structure_defect": worst, "tolerance": tol,
            "pass": len(null) == 4 * (2 * M + 1) and worst <= tol}


# scripted perturbations: each corrupts exactly one membership condition of
# a z^2 -> z^2 operator and must be caught by the matching generator family
def _scripted_perturbations(D: BlockOperator):
    M = D.M
    unit = np.zeros((M + 1, M + 1))
    unit00 = unit.copy()
    unit00[0, 0] = 1.0
    unit11 = unit.copy()
    unit11[1, 1] = 1.0
    z2 = D.theta
    hank_hat = build_dtto(z2, z2, monomial(-3), M).gamma_hat
    hank_check = build_dtto(z2, z2, monomial(3), M).gamma_check
    mk = lambda th, gc, gh, tc: BlockOperator(th, gc, gh, tc, z2, z2, M, edge=None)
    return {
        1: mk(D.that + unit00, D.gamma_check, D.gamma_hat, D.t_check),
        2: mk(D.that, D.gamma_check, D.gamma_hat, D.t_check + unit00),
        3: mk(D.that, D.gamma_check, D.gamma_hat + unit11, D.t_check),
        4: mk(D.that, D.gamma_check + unit11, D.gamma_hat, D.t_check),
        5: mk(D.that, D.gamma_check, D.gamma_hat + hank_hat, D.t_check),
        6: mk(D.that, D.gamma_check + hank_check, D.gamma_hat, D.t_check),
    }


def annihilator_families(seed: int = DEFAULT_SEED) -> dict:
    """Criterion 5: generated shifted dyads and all six wrapped families pair
    to zero against built operators; scripted single-condition perturbations
    produce a pairing >= 1e-4 with the matching family."""
    root = Xoshiro256StarStar(seed)
    cases, tol, detect = 100, 1e-10, 1e-4
    monomial_pairs = [(monomial(p), monomial(q)) for p in range(3) for q in range(3)]

    def one(i: int):
        r = root.spawn(i)
        theta = random_inner(r, rho=0.6)
        alpha = random_inner(r, rho=0.6)
        phi = random_symbol(r, reach=3)
        M = SymbolFunction(phi).reach + theta.degree + alpha.degree + 58
        D = build_dtto(theta, alpha, phi, M)
        sixes = [annihilate.gen_M(theta, alpha, h, g) for h, g in monomial_pairs]
        families = [six[l] for l in range(6) for six in sixes]
        dom, cod = D.domain_basis(), D.codomain_basis()
        families += [annihilate.gen_shift_pair(dom.vectors[fi], cod.vectors[gi])
                     for fi, gi in ((0, 1), (M + 2, M + 3))]
        return float(np.max(np.abs(annihilate.pair_many(D, families))))

    vanish = max(one(i) for i in range(cases))

    # discrimination against the rank-two families, scanned over monomials
    z2 = BlaschkeProduct([0.0, 0.0])
    base = build_dtto(z2, z2, LaurentPolynomial({1: 1.0, -1: 2.0}), 10)
    family_of_condition = {1: (1,), 2: (2,), 3: (3, 4), 4: (5, 6)}
    perturbed = _scripted_perturbations(base)
    sixes = [annihilate.gen_M(z2, z2, h, g) for h, g in monomial_pairs]
    detections = {}
    for l, Dp in perturbed.items():
        families = [six[l - 1] for six in sixes]
        detections[l] = float(np.max(np.abs(annihilate.pair_many(Dp, families))))
    condition_hits = {
        cond: max(detections[l] for l in fams)
        for cond, fams in family_of_condition.items()
    }
    detected = all(v >= detect for v in condition_hits.values())
    return {"criterion": "annihilator-families", "cases": cases, "seed": seed,
            "max_pairing": vanish, "tolerance": tol,
            "condition_detections": {str(k): v for k, v in condition_hits.items()},
            "detection_floor": detect,
            "pass": vanish <= tol and detected}


def transitivity_scan(seed: int = DEFAULT_SEED) -> dict:
    """Criterion 6: no rank-one annihilator witness exists between model
    spaces; every sampled product f * conj(g) has a visible coefficient."""
    root = Xoshiro256StarStar(seed)
    pairs, floor = 50, annihilate.PROBE_FLOOR
    smallest, nonzero = float("inf"), True
    for block in range(5):
        r = root.spawn(block)
        theta = random_inner(r)
        alpha = random_inner(r)
        bt, ba = tm_basis(theta), tm_basis(alpha)
        for _ in range(pairs // 5):
            f = random_in_basis(r, bt)
            g = random_in_basis(r, ba)
            probe = annihilate.transitivity_probe(f, g)
            smallest = min(smallest, probe.product.sup_on_band())
            nonzero = nonzero and probe.nonzero
    return {"criterion": "transitivity", "pairs": pairs, "seed": seed,
            "min_peak": smallest, "floor": floor, "pass": nonzero}


def isometry_convergence(symbol: LaurentPolynomial | None = None,
                         theta: BlaschkeProduct | None = None,
                         alpha: BlaschkeProduct | None = None) -> dict:
    """Criterion 7: the largest singular value of the truncated operator
    grows monotonically to the sup-norm of the symbol and never exceeds it.
    The default symbol z + zbar must also end within 0.05 of its sup-norm;
    a given symbol carries no bound on the final gap."""
    final_gap = 0.05 if symbol is None else None
    if symbol is None:
        symbol = LaurentPolynomial({1: 1.0, -1: 1.0})
    if theta is None:
        theta = BlaschkeProduct([0.0, 0.0])
    if alpha is None:
        alpha = theta
    depths, samples = (16, 32, 64, 128, 256), 512
    sup = max(abs(symbol.evaluate(cmath.exp(2j * cmath.pi * k / samples)))
              for k in range(samples))
    sigmas = []
    for M in depths:
        D = build_dtto(theta, alpha, symbol, M)
        sigmas.append(float(np.linalg.norm(D.assemble(), 2)))
    monotone = all(b >= a - 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    bounded = all(s <= sup + 1e-12 for s in sigmas)
    gap = abs(sup - sigmas[-1])
    ok = monotone and bounded and (final_gap is None or gap <= final_gap)
    return {"criterion": "isometry-convergence", "depths": list(depths),
            "singular_values": sigmas, "sup_norm": sup, "final_gap": gap,
            "monotone": monotone, "bounded": bounded, "pass": ok}


def functional_representation(seed: int = DEFAULT_SEED) -> dict:
    """Criterion 8: the rank-one representer reproduces the moment pairing
    sum psi_hat(k) f_hat(-k) for all monomial symbols up to reach 4."""
    root = Xoshiro256StarStar(seed)
    densities, tol = 50, 1e-10

    def one(i: int):
        r = root.spawn(i)
        theta = random_inner(r, rho=0.5)
        alpha = random_inner(r, rho=0.5)
        density = LaurentPolynomial({k: r.complex_box() for k in range(-4, 5)})
        t = annihilate.represent_functional(density, theta, alpha)
        M = theta.degree + alpha.degree + 4 + 55
        ks = range(-4, 5)
        values = annihilate.pair_each(
            (build_dtto(theta, alpha, monomial(k), M) for k in ks), t)
        worst = 0.0
        for k, value in zip(ks, values):
            worst = max(worst, abs(complex(value) - density.coeff(-k)))
        return worst

    worst = max(one(i) for i in range(densities))
    return {"criterion": "functional-representation", "densities": densities,
            "seed": seed, "max_error": worst, "tolerance": tol,
            "pass": worst <= tol}


def conjugation_suite(seed: int = DEFAULT_SEED) -> dict:
    """Criterion 9: involution, reversed-pairing isometry, the multiplication
    intertwining, and the subspace swaps of the model-space conjugation."""
    root = Xoshiro256StarStar(seed)
    cases, tol = 100, 1e-11

    def one(i: int):
        r = root.spawn(i)
        theta = random_inner(r)
        th = expand(theta)
        f = random_symbol(r, reach=6, normalize=True)
        g = random_symbol(r, reach=6, normalize=True)
        phi = random_symbol(r, reach=4, normalize=True)
        worst = (conjugation_C(theta, conjugation_C(theta, f)) - f).norm()
        worst = max(worst, abs(
            inner_product(conjugation_C(theta, f), conjugation_C(theta, g))
            - inner_product(g, f)))
        worst = max(worst, (conjugation_C(theta, multiply(phi, conjugation_C(theta, f)))
                            - multiply(conj_function(phi), f)).norm())
        h = plus_part(f)
        if not h.is_zero():
            swapped = conjugation_C(theta, multiply(th, h))
            worst = max(worst, (swapped - minus_part(swapped)).norm())
        hm = multiply(monomial(-1), conj_function(h))
        if not hm.is_zero():
            swapped = conjugation_C(theta, hm)
            worst = max(worst,
                        (swapped - project(theta, "thetaH2", swapped)).norm())
        fk = project(theta, "model", f)
        if fk.norm() > 1e-8:
            cfk = conjugation_C(theta, fk)
            worst = max(worst, (cfk - project(theta, "model", cfk)).norm())
        return worst

    worst = max(one(i) for i in range(cases))
    return {"criterion": "conjugation", "cases": cases, "seed": seed,
            "max_defect": worst, "tolerance": tol, "pass": worst <= tol}


def proposition_suite(seed: int = DEFAULT_SEED) -> dict:
    """Criterion 10: the compression factorizations through classical
    Toeplitz/Hankel operators, the conjugation links between the blocks,
    the one-sided semicommutation, and the Hankel symbol-kill, all evaluated
    on interior vectors through independent arithmetic routes."""
    root = Xoshiro256StarStar(seed)
    cases, tol = 100, 1e-11

    def one(i: int):
        r = root.spawn(i)
        theta = random_inner(r)
        alpha = random_inner(r)
        th, al = expand(theta), expand(alpha)
        thbar, albar = conj_function(th), conj_function(al)
        phi = random_symbol(r, reach=4, normalize=True)
        phibar = conj_function(phi)
        k = r.integer(0, 2)
        thzk = th.shift(k)
        zbar_j = monomial(-(r.integer(0, 2) + 1))
        worst = 0.0

        # factorizations through the classical half-space operators
        lhs = project(alpha, "thetaH2", multiply(phi, thzk))
        rhs = multiply(al, plus_part(
            multiply(multiply(albar, phi), th).shift(k)))
        worst = max(worst, (lhs - rhs).norm())
        lhs = minus_part(multiply(phi, thzk))
        rhs = minus_part(multiply(phi, th).shift(k))
        worst = max(worst, (lhs - rhs).norm())
        lhs = minus_part(multiply(phi, zbar_j))
        rhs = involution_J(plus_part(multiply(phibar, involution_J(zbar_j))))
        worst = max(worst, (lhs - rhs).norm())
        lhs = project(alpha, "thetaH2", multiply(phi, zbar_j))
        rhs = multiply(al, plus_part(multiply(multiply(albar, phi), zbar_j)))
        worst = max(worst, (lhs - rhs).norm())

        # conjugation links between the block types
        psi = multiply(al, multiply(phibar, thbar))
        lhs = project(alpha, "thetaH2", multiply(phi, thzk))
        rhs = conjugation_C(alpha, minus_part(
            multiply(psi, conjugation_C(theta, thzk))))
        worst = max(worst, (lhs - rhs).norm())
        j = -zbar_j.lo - 1
        mid = project(theta, "thetaH2",
                      multiply(phibar, multiply(th, al).shift(j)))
        lhs = minus_part(multiply(phi, zbar_j))
        rhs = minus_part(conjugation_C(alpha, multiply(thbar, mid)))
        worst = max(worst, (lhs - rhs).norm())
        lhs = minus_part(multiply(phi, thzk))
        rhs = conjugation_C(theta, project(theta, "thetaH2", multiply(
            phibar, conjugation_C(theta, thzk))))
        worst = max(worst, (lhs - rhs).norm())

        # semicommutation with one analytic factor, both orders
        phi2 = plus_part(random_symbol(r, reach=3, normalize=True))
        if not phi2.is_zero():
            proj = lambda x: project(theta, "thetaH2", x)
            lhs = proj(multiply(phibar, proj(multiply(phi2, thzk))))
            rhs = proj(multiply(multiply(phibar, phi2), thzk))
            worst = max(worst, (lhs - rhs).norm())
            lhs = minus_part(multiply(phi, minus_part(
                multiply(conj_function(phi2), zbar_j))))
            rhs = minus_part(multiply(multiply(phi, conj_function(phi2)), zbar_j))
            worst = max(worst, (lhs - rhs).norm())

        # symbol-kill: wrapped-conjugate symbols annihilate the corners
        kill = multiply(thbar, monomial(k))
        worst = max(worst, minus_part(multiply(kill, th.shift(r.integer(0, 2)))).norm())
        kill = multiply(al, monomial(-(k + 1)))
        worst = max(worst,
                    project(alpha, "thetaH2", multiply(kill, zbar_j)).norm())
        return worst

    worst = max(one(i) for i in range(cases))
    return {"criterion": "propositions", "cases": cases, "seed": seed,
            "max_defect": worst, "tolerance": tol, "pass": worst <= tol}


# -- suite drivers ------------------------------------------------------------

def run_acceptance(config: SuiteConfig | None = None) -> dict:
    config = (config or SuiteConfig()).validate()
    seed = config.seed
    c1, c2 = forward_and_roundtrip(seed)
    criteria = [
        c1,
        c2,
        nullspace_dimensions(),
        block_structure_scan(),
        annihilator_families(seed),
        transitivity_scan(seed),
        isometry_convergence(),
        functional_representation(seed),
        conjugation_suite(seed),
        proposition_suite(seed),
    ]
    return {"suite": "acceptance", "seed": seed,
            "criteria": criteria,
            "pass": all(c["pass"] for c in criteria)}


def run_fuzz(config: SuiteConfig | None = None) -> dict:
    """Random-case sweep: build, check, recover, shift check; all must agree."""
    config = (config or SuiteConfig()).validate()
    cases = 50 if config.cases is None else config.cases
    tol = config.tol or 1e-10
    root = Xoshiro256StarStar(config.seed)

    def one(i: int):
        r = root.spawn(i)
        theta = config.theta or random_inner(r)
        alpha = config.alpha or random_inner(r)
        phi = config.symbol or random_symbol(r)
        sym = SymbolFunction(phi)
        M = (config.M if config.M is not None
             else default_depth(theta, alpha, sym.reach))
        D = build_dtto(theta, alpha, sym, M)
        verdict = characterize.check_adtto(D)
        sym1, res1 = characterize.recover_symbol(D, "zbar", tol=tol)
        rt = (sym1.value - phi).norm()
        shift_rep = characterize.shift_invariance_defect(D)
        record = {
            "case": i,
            "theta": theta.to_json(),
            "alpha": alpha.to_json(),
            "M": M,
            "membership_defects": {rep.condition: rep.defect
                                   for rep in verdict.reports},
            "round_trip_error": rt,
            "rebuild_residual": res1,
            "shift_defect": shift_rep.defect,
        }
        worst = max(max(rep.defect for rep in verdict.reports), rt, res1,
                    shift_rep.defect)
        record["pass"] = worst <= tol
        return record

    records = [one(i) for i in range(cases)]
    return {"suite": "fuzz", "seed": config.seed, "cases": cases,
            "tolerance": tol, "records": records,
            "pass": all(rec["pass"] for rec in records)}


def run_convergence(config: SuiteConfig | None = None) -> dict:
    config = (config or SuiteConfig()).validate()
    result = isometry_convergence(
        symbol=config.symbol, theta=config.theta, alpha=config.alpha)
    return {"suite": "convergence", "seed": config.seed,
            "criteria": [result], "pass": result["pass"]}


# each suite with the SuiteConfig fields it reads besides the seed; run_suite
# rejects any other field that is set instead of silently ignoring it
SUITES = {"acceptance": (run_acceptance, ()),
          "fuzz": (run_fuzz, ("theta", "alpha", "symbol", "M", "tol", "cases")),
          "convergence": (run_convergence, ("theta", "alpha", "symbol"))}


def run_suite(name: str, config: SuiteConfig | None = None) -> dict:
    if name not in SUITES:
        raise InputError(f"unknown suite {name!r}; expected one of {sorted(SUITES)}")
    run, reads = SUITES[name]
    config = config or SuiteConfig()
    for f in fields(config):
        if f.name not in reads + ("seed",) and getattr(config, f.name) is not None:
            raise InputError(f"suite {name} does not read --{f.name}")
    with one_blas_thread():
        return run(config)
