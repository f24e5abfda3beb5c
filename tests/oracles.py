"""Generic reference implementations of the structured fast paths.

Each function here computes the same quantity as a library routine through
the generic route it replaced: pairings of polynomial images against a
dense matrix of basis vectors, a Python loop over admissible pairs or over
the dyads of a finite-rank operator, an SVD of shift residuals, polynomial
round trips through the operator (`poly_apply`: coordinates, a
matrix-vector product, a rebuild), or an SVD of the assembled rebuild
difference. The tests compare the library against them.
`conjugation_corner_maps` has no library counterpart: the operator
tests use it to check the corner identity TCheck = W1 That^T conj(W2).
"""

from __future__ import annotations

import numpy as np

from msolab.annihilate import MEMBERSHIP_TOL
from msolab.bases import OrthonormalBasis
from msolab.characterize import (AnalyticVerdict, DefectReport, _zbar_symbol,
                                 default_tolerance)
from msolab.errors import DimensionError
from msolab.inner import DEFAULT_TAIL_CAP, expand
from msolab.laurent import (LaurentPolynomial, conj_function, inner_product,
                            involution_J, minus_part, monomial, multiply)
from msolab.operators import (BlockOperator, SymbolFunction, _pairing_matrix,
                              apply)
from msolab.spaces import (SHIFT_KERNEL_TOL, admissible_for_shift, basis_Kperp,
                           conjugation_C, hminus_basis, project,
                           section_expansion, thetaH2_basis)


def pairing_build_dtto(theta, alpha, phi, M) -> BlockOperator:
    """build_dtto through 2(M+1) polynomial products paired against the
    dense codomain sections."""
    phi = SymbolFunction.parse(phi)
    dom = basis_Kperp(theta, M)
    cod_head = thetaH2_basis(alpha, M, name="alpha")
    cod_tail = hminus_basis(M)
    images = [multiply(phi.value, v) for v in dom.vectors]
    n = M + 1
    upper = _pairing_matrix(images, cod_head)
    lower = _pairing_matrix(images, cod_tail)
    return BlockOperator(that=upper[:, :n], gamma_check=upper[:, n:],
                         gamma_hat=lower[:, :n], t_check=lower[:, n:],
                         theta=theta, alpha=alpha, M=M, edge=phi.reach)


def dense_coords(basis, f: LaurentPolynomial) -> np.ndarray:
    """Pairings <f, v_k> against the stacked basis vectors."""
    lo, hi = basis.band()
    return basis.stacked(lo, hi).conj() @ f.dense(lo, hi)


def dense_reconstruct(basis, x) -> LaurentPolynomial:
    """sum_k x_k v_k over the stacked basis vectors."""
    lo, _ = basis.band()
    tails = np.array([v.tail_bound for v in basis.vectors])
    return LaurentPolynomial._from_dense(lo, np.asarray(x) @ basis.stacked(),
                                         float(np.abs(x) @ tails))


def dense_coords_and_defect(basis, f: LaurentPolynomial):
    """Coordinates and the norm of f minus its reconstruction."""
    x = dense_coords(basis, f)
    return x, (f - dense_reconstruct(basis, x)).norm()


def loop_pair(T, t) -> complex:
    """pair as a loop over the dyads: one vector at a time, its coordinates
    and the norm of the vector minus its reconstruction, then one
    matrix-vector product per dyad."""
    if isinstance(T, BlockOperator):
        dom, cod = T.domain_basis(), T.codomain_basis()
    else:
        dom, cod = T.domain, T.codomain
    acc = 0j
    for f, g in t.dyads:
        x, y = dom.coords(f), cod.coords(g)
        for basis, vec, coords in ((dom, f, x), (cod, g, y)):
            defect = (vec - basis.reconstruct(coords)).norm()
            if defect > MEMBERSHIP_TOL * max(1.0, vec.norm()):
                raise DimensionError(
                    f"dyad vector leaves the {basis.label} span by {defect:.2e}")
        acc += np.vdot(y, apply(T, x))
    return complex(acc)


def loop_shift_invariance_defect(mat, domain, codomain, tol) -> DefectReport:
    """shift_invariance_defect as a double loop over admissible pairs."""
    adm_d = admissible_for_shift(domain)
    adm_c = admissible_for_shift(codomain)
    defect = 0.0
    witnesses = []
    for p, f in enumerate(adm_d):
        xf = domain.coords(f)
        xzf = domain.coords(f.shift(1))
        af, azf = mat @ xf, mat @ xzf
        for q, g in enumerate(adm_c):
            yg = codomain.coords(g)
            yzg = codomain.coords(g.shift(1))
            dev = abs(np.vdot(yzg, azf) - np.vdot(yg, af))
            if dev > defect:
                defect = dev
            if dev > tol:
                witnesses.append((p, q, float(dev)))
    witnesses.sort(key=lambda w: -w[2])
    return DefectReport("shift-invariance", float(defect), tol, witnesses[:3])


def loop_shift_system(domain, codomain) -> np.ndarray:
    """The homogeneous shift-invariance system of solve_shift_invariant_space,
    one row per admissible pair (p, q) in loop order (no rows when a side has
    no admissible vector)."""
    rows = []
    for f in admissible_for_shift(domain):
        xf, xzf = domain.coords(f), domain.coords(f.shift(1))
        for g in admissible_for_shift(codomain):
            yg, yzg = codomain.coords(g), codomain.coords(g.shift(1))
            rows.append((np.outer(np.conjugate(yzg), xzf)
                         - np.outer(np.conjugate(yg), xf)).ravel())
    return np.reshape(rows, (-1, domain.dim * codomain.dim))


def conjugation_corner_maps(theta, alpha, M):
    """Matrices of the two antilinear corner maps linking the sections.

    W1 represents theta z^k -> P-( C_alpha(z^k) ) from thetaH2@M to Hminus@M;
    W2 represents zbar^(j+1) -> theta * C_alpha(zbar^(j+1)) from Hminus@M into
    the alphaH2@M section (the image theta*alpha*z^j lies in both sections;
    alphaH2 coordinates are the ones the adjoint of a That block consumes).
    Both act on coordinates via x -> W conj(x) (antilinear).
    """
    al_basis = thetaH2_basis(alpha, M, name="alpha")
    hm_basis = hminus_basis(M)
    th = section_expansion(theta, M)

    images1 = [minus_part(conjugation_C(alpha, LaurentPolynomial.monomial(k)))
               for k in range(M + 1)]
    W1 = _pairing_matrix(images1, hm_basis)

    images2 = [multiply(th, conjugation_C(alpha, LaurentPolynomial.monomial(-(j + 1))))
               for j in range(M + 1)]
    W2 = _pairing_matrix(images2, al_basis)
    return W1, W2


def svd_admissible_for_shift(V) -> OrthonormalBasis:
    """admissible_for_shift on a section through the generic route: drop the
    top analytic layer, then take the kernel of (I - P_ambient) o M_z on the
    remaining span from an SVD of the shift residuals."""
    candidates = list(V.vectors)
    if V.kind == "model_perp":
        candidates = candidates[:V.depth] + candidates[V.depth + 1:]
    elif V.kind == "thetaH2":
        candidates = candidates[:-1]
    label = f"admissible[{V.label}]"
    if not candidates:
        return OrthonormalBasis(label, (), kind="admissible", inner=V.inner,
                                depth=V.depth)
    residuals = [v.shift(1) - project(V.inner, V.kind, v.shift(1))
                 for v in candidates]
    live = [r for r in residuals if not r.is_zero()]
    lo = min((r.lo for r in live), default=0)
    hi = max((r.hi for r in live), default=0)
    U, s, _ = np.linalg.svd(np.vstack([r.dense(lo, hi) for r in residuals]),
                            full_matrices=True)
    vectors = []
    for k in range(U.shape[1]):
        if k < len(s) and s[k] >= SHIFT_KERNEL_TOL:
            continue
        acc = LaurentPolynomial.zero()
        for i, v in enumerate(candidates):
            c = complex(U[i, k].conjugate())
            if c != 0:
                acc = acc + v.scale(c)
        vectors.append(acc)
    return OrthonormalBasis(label, vectors, kind="admissible", inner=V.inner,
                            depth=V.depth)


def poly_apply(D: BlockOperator, f: LaurentPolynomial) -> LaurentPolynomial:
    """D applied to a function lying in its domain section: coordinates, a
    matrix-vector product, then the rebuild in the codomain section."""
    return D.codomain_basis().reconstruct(D.apply(D.domain_basis().coords(f)))


def poly_zbar_symbol(D: BlockOperator) -> SymbolFunction:
    """The zbar-corner symbol from the images D(zbar) and D*(zbar): the
    antianalytic part is P-(z D(zbar)), the analytic part J P-(D*(zbar))."""
    d_zbar = poly_apply(D, monomial(-1))
    dstar_zbar = poly_apply(D.adjoint(), monomial(-1))
    return SymbolFunction(involution_J(minus_part(dstar_zbar))
                          + minus_part(d_zbar.shift(1)))


def poly_is_analytic_adtto(D: BlockOperator, *, tol: float = 1e-11) -> AnalyticVerdict:
    """is_analytic_adtto from the image D(zbar)."""
    phi_minus = minus_part(poly_apply(D, monomial(-1)).shift(1))
    norm = phi_minus.norm()
    if norm <= tol:
        return AnalyticVerdict(True, None, norm)
    k, c = max(phi_minus.coeffs.items(), key=lambda kv: abs(kv[1]))
    return AnalyticVerdict(False, (f"<D zbar, zbar^{1 - k}>", abs(c)), norm)


def svd_rebuild_residual(D: BlockOperator, rebuilt: BlockOperator) -> float:
    """recover_symbol's residual through the assembled operators: the
    spectral norm of D - rebuilt, always by SVD."""
    return float(np.linalg.norm(D.assemble() - rebuilt.assemble(), 2))


def poly_corner_consistency(D: BlockOperator, *,
                            tol: float | None = None) -> DefectReport:
    """check_adtto's corner-consistency report from the images D(theta) and
    D*(alpha), each a polynomial round trip through the operator."""
    if tol is None:
        tol = default_tolerance(D.theta, D.alpha)
    th = expand(D.theta, max(D.theta.degree_for_cap(DEFAULT_TAIL_CAP), 2 * D.M + 4),
                tail_cap=None)
    al = expand(D.alpha, max(D.alpha.degree_for_cap(DEFAULT_TAIL_CAP), 2 * D.M + 4),
                tail_cap=None)
    phi_z = _zbar_symbol(D)
    d_theta = poly_apply(D, th)
    dstar_alpha = poly_apply(D.adjoint(), al)
    res_a = minus_part(d_theta) - minus_part(multiply(phi_z.value, th))
    res_b = minus_part(dstar_alpha) - minus_part(
        multiply(conj_function(phi_z.value), al))
    defect = max(res_a.norm(), res_b.norm())
    witnesses = []
    if defect > tol:
        for name, res in (("D(theta)", res_a), ("D*(alpha)", res_b)):
            for k, c in sorted(res.coeffs.items(), key=lambda kv: -abs(kv[1]))[:2]:
                witnesses.append((name, k, abs(c)))
    return DefectReport("corner-consistency", defect, tol, witnesses[:3])


def poly_recover_boundary(D: BlockOperator) -> SymbolFunction:
    """recover_symbol(method="boundary")'s symbol from the images D(theta)
    and D*(alpha): section coordinates of each, their analytic heads
    rebuilt, and the geometric tail appended from the zbar-corner symbol."""
    n = D.M + 1
    cap_deg = max(D.theta.degree_for_cap(DEFAULT_TAIL_CAP),
                  D.alpha.degree_for_cap(DEFAULT_TAIL_CAP), 2 * D.M + 4)
    th = expand(D.theta, cap_deg, tail_cap=None)
    al = expand(D.alpha, cap_deg, tail_cap=None)
    dom, cod = D.domain_basis(), D.codomain_basis()
    phi_z = _zbar_symbol(D)
    d_theta = poly_apply(D, th)
    dstar_alpha = poly_apply(D.adjoint(), al)
    g = multiply(phi_z.value, multiply(th, conj_function(al)))
    y = cod.coords(d_theta)[:n]
    tail_y = {i: g.coeff(i) for i in range(n, g.hi + 1) if g.coeff(i) != 0}
    p_alpha = cod.reconstruct(np.concatenate([y, np.zeros(n)])) \
        + multiply(al, LaurentPolynomial(tail_y))
    x = dom.coords(dstar_alpha)[:n]
    tail_x = {i: g.coeff(-i).conjugate() for i in range(n, -g.lo + 1)
              if g.coeff(-i) != 0}
    p_theta = dom.reconstruct(np.concatenate([x, np.zeros(n)])) \
        + multiply(th, LaurentPolynomial(tail_x))
    bracket = inner_product(dstar_alpha, th)
    return SymbolFunction(multiply(conj_function(th), p_alpha)
                          + multiply(al, conj_function(p_theta))
                          - multiply(al, conj_function(th.scale(bracket))))
