"""Decision procedures: shift-invariance defects, the blockwise structure
checks, the full membership test for compressed-multiplication block
operators, symbol recovery, and the analytic-symbol test.

Finite-section policy. Every matrix entry of a block operator is an exact
pairing, so the checks below are arranged to touch only quantities that are
themselves exact on the section:

* structure conditions (Toeplitz/Hankel sandwiches and intertwinings) are
  entrywise shift identities - exact at every index, the sandwich just drops
  the outermost layer;
* coupling conditions (the bottom-right block determined by the top-left
  one, and the corner consistency) are routed through the zbar corner of the
  operator, whose data is complete in the section, instead of through
  operator compositions whose intermediate vectors stick out of the section
  and would leak geometrically for non-monomial inner functions;
* theta = theta z^0 is the first section vector, so D(theta) is column 0 of
  D and D*(alpha) the conjugate of row 0: corner consistency and boundary
  recovery read these block entries and compute no coordinates.

Membership is decided by defect thresholds, never symbolically; reports
carry raw defects so thresholds can be re-audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bases import OrthonormalBasis
from .errors import InputError
from .inner import DEFAULT_TAIL_CAP, BlaschkeProduct, expand, tm_basis
from .laurent import (LaurentPolynomial, conj_function, multiply,
                      project_band)
from .operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                        block_degrees, build_dtto, coefficient_matrix)
from .spaces import (SHIFT_KERNEL_TOL, admissible_for_shift, section_expansion,
                     section_shift_index)


def default_tolerance(*inners: BlaschkeProduct) -> float:
    """1e-10 for well-inside-the-disk zeros, 1e-8 once any zero passes 0.5
    (expansion tails then enter every projection)."""
    if any(b.rho > 0.5 for b in inners):
        return 1e-8
    return 1e-10


def validated_tolerance(tol: float | None) -> float | None:
    """A given tolerance must be finite and positive (None means default)."""
    if tol is not None and not (np.isfinite(tol) and tol > 0):
        raise InputError(f"tolerance must be finite and positive, got {tol}")
    return tol


@dataclass
class DefectReport:
    """Outcome of one membership condition."""

    condition: str
    defect: float
    tolerance: float
    witnesses: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.defect <= self.tolerance

    def to_json(self) -> dict:
        return {"condition": self.condition,
                "defect": self.defect,
                "tolerance": self.tolerance,
                "pass": bool(self.passed),
                "witnesses": [list(w) for w in self.witnesses]}

    def __repr__(self):
        state = "pass" if self.passed else "FAIL"
        return f"DefectReport({self.condition}: {self.defect:.3e} [{state}])"


def _report(condition: str, residual: np.ndarray, tol: float) -> DefectReport:
    residual = np.atleast_2d(residual)
    if residual.size == 0:
        return DefectReport(condition, 0.0, tol)
    defect = float(np.max(np.abs(residual)))
    witnesses = []
    if defect > tol:
        flat = np.abs(residual).ravel()
        for k in np.argsort(flat)[::-1][:3]:
            i, j = np.unravel_index(k, residual.shape)
            witnesses.append((int(i), int(j), float(flat[k])))
    return DefectReport(condition, defect, tol, witnesses)


# -- shift invariance ---------------------------------------------------------

def shift_invariance_defect(op: BlockOperator | DenseComplexMatrix, *,
                            tol: float | None = None) -> DefectReport:
    """Largest deviation dev[p, q] = |<A(z f_p), z g_q> - <A f_p, g_q>| over
    the admissible vectors f_p of the domain and g_q of the codomain.

    On the complement sections z f_p is again a section vector
    (spaces.section_shift_index), so the deviations are one gather of
    matrix entries and the defect is the largest block-identity deviation
    of check_block_conditions. On model spaces they come from coordinates.
    """
    if isinstance(op, BlockOperator):
        if tol is None:
            tol = default_tolerance(op.theta, op.alpha)
        A = op.assemble()
        keep, moved = section_shift_index("model_perp", op.M)
        dev = np.abs(A[np.ix_(moved, moved)] - A[np.ix_(keep, keep)]).T
    else:
        if tol is None:
            tol = default_tolerance(op.domain.inner, op.codomain.inner)
        X, Xz = _coordinate_columns(op.domain)
        Y, Yz = _coordinate_columns(op.codomain)
        dev = np.abs(Yz.conj().T @ (op.entries @ Xz)
                     - Y.conj().T @ (op.entries @ X)).T
    defect = float(np.max(dev, initial=0.0))
    # witnesses above tol, largest first, ties in (p, q) order
    flat = dev.ravel()
    over = np.flatnonzero(flat > tol)
    top = over[np.argsort(-flat[over], kind="stable")[:3]]
    witnesses = [(*divmod(int(k), dev.shape[1]), float(flat[k])) for k in top]
    return DefectReport("shift-invariance", defect, tol, witnesses)


def _coordinate_columns(basis: OrthonormalBasis):
    """Coordinates of the admissible vectors f of a model space and of z*f,
    one per column."""
    adm = admissible_for_shift(basis)
    X = np.array([basis.coords(f) for f in adm], dtype=np.complex128)
    Xz = np.array([basis.coords(f.shift(1)) for f in adm], dtype=np.complex128)
    return X.reshape(-1, basis.dim).T, Xz.reshape(-1, basis.dim).T


class ShiftInvariantSolution(NamedTuple):
    dimension: int
    operators: list
    singular_values: np.ndarray


def solve_shift_invariant_space(theta: BlaschkeProduct, alpha: BlaschkeProduct,
                                space: str = "model",
                                M: int | None = None) -> ShiftInvariantSolution:
    """Basis of the space of shift-invariant operators: the solutions of
    <A(zf_i), zg_j> = <Af_i, g_j> over all admissible basis pairs.

    "model": between the model spaces of theta and alpha, the nullspace of
    that homogeneous system from an SVD (singular values below
    SHIFT_KERNEL_TOL count as zero); `singular_values` holds the SVD's.

    "model_perp": between the depth-M complement sections, for every theta
    and alpha. The shift moves section vectors to section vectors (theta z^k
    to theta z^(k+1), zbar^k to zbar^(k-1)), so the system asks each block
    to be constant along the degrees of `operators.block_degrees`: the
    Toeplitz diagonal blocks and Hankel off-diagonal blocks, dimension
    4(2M+1). The basis holds one operator per block and degree, in block
    order and ascending degree: the normalised indicator of that degree in
    its block, zeros elsewhere. No rank decision is made, so
    `singular_values` is empty.
    """
    if space == "model_perp":
        if M is None or M < 0:
            raise InputError("model_perp solve requires a truncation depth M >= 0")
        ops = []
        for b, degrees in enumerate(block_degrees(M)):
            for d in np.unique(degrees):
                blocks = np.zeros((4, M + 1, M + 1))
                on = degrees == d
                blocks[b][on] = 1.0 / np.sqrt(np.count_nonzero(on))
                ops.append(BlockOperator(*blocks, theta, alpha, M))
        return ShiftInvariantSolution(len(ops), ops, np.zeros(0))
    if space != "model":
        raise InputError(f"unknown operator space {space!r}")
    dom = tm_basis(theta)
    cod = tm_basis(alpha)
    X, Xz = _coordinate_columns(dom)
    Y, Yz = _coordinate_columns(cod)
    size = dom.dim * cod.dim
    if X.size and Y.size:
        # row (p, q): outer(conj(yz_q), xz_p) - outer(conj(y_q), x_p), flattened
        C = (Yz.conj().T[None, :, :, None] * Xz.T[:, None, None, :]
             - Y.conj().T[None, :, :, None] * X.T[:, None, None, :]).reshape(-1, size)
        _, s, Vh = np.linalg.svd(C, full_matrices=True)
        null = [Vh[k].conj() for k in range(Vh.shape[0])
                if k >= len(s) or s[k] < SHIFT_KERNEL_TOL]
        s = np.asarray(s)
    else:
        # no admissible pair constrains anything: every operator qualifies
        null = list(np.eye(size, dtype=np.complex128))
        s = np.zeros(0)
    ops = [DenseComplexMatrix(v.reshape(cod.dim, dom.dim), dom, cod)
           for v in null]
    return ShiftInvariantSolution(len(null), ops, s)


def distance_to_span(op: DenseComplexMatrix, family: list) -> float:
    """L2 distance of an operator matrix to the span of a family of matrices."""
    target = op.entries.ravel()
    A = np.vstack([f.entries.ravel() for f in family]).T
    coef, *_ = np.linalg.lstsq(A, target, rcond=None)
    return float(np.linalg.norm(target - A @ coef))


# -- blockwise structure (shift sandwiches and intertwinings) -----------------

def check_block_conditions(D: BlockOperator, *,
                           tol: float | None = None) -> list[DefectReport]:
    """The four structural conditions: the diagonal blocks must be fixed by
    the one-step shift sandwich, the antidiagonal blocks must intertwine the
    shifts. Each residual is an exact entrywise identity; the sandwich drops
    the outermost row/column."""
    if tol is None:
        tol = default_tolerance(D.theta, D.alpha)
    M = D.M
    r1 = D.that[:M, :M] - D.that[1:, 1:]
    r2 = D.t_check[:M, :M] - D.t_check[1:, 1:]
    r3 = D.gamma_hat[1:, :M] - D.gamma_hat[:M, 1:]
    gc_adj = D.gamma_check.conj().T
    r4 = gc_adj[:M, 1:] - gc_adj[1:, :M]
    return [_report("that-shift-sandwich", r1, tol),
            _report("tcheck-shift-sandwich", r2, tol),
            _report("gammahat-intertwine", r3, tol),
            _report("gammacheck-intertwine", r4, tol)]


# -- full membership ----------------------------------------------------------

def _zbar_symbol(D: BlockOperator) -> SymbolFunction:
    """Symbol read off the zbar corner, i.e. the border of TCheck (entry
    (i, j) carries coefficient j - i): coefficient -t is
    t_check[t, 0] = <D zbar, zbar^(t+1)> and coefficient +j is
    t_check[0, j] = <D zbar^(j+1), zbar>. Complete on the section."""
    M = D.M
    border = np.concatenate([D.t_check[M:0:-1, 0], D.t_check[0]])
    return SymbolFunction(LaurentPolynomial._from_dense(-M, border))


def _tcheck_symbol(D: BlockOperator) -> LaurentPolynomial:
    """Symbol coefficients read from the diagonals of the bottom-right block
    (entry (i, j) of that block carries coefficient j - i); each diagonal is
    sampled at its middle entry."""
    M = D.M
    m = np.arange(-M, M + 1)
    i = (np.maximum(0, -m) + M - np.maximum(0, m)) // 2
    return LaurentPolynomial._from_dense(-M, D.t_check[i, i + m])


class AdttoVerdict(NamedTuple):
    reports: list
    passed: bool
    symbol: SymbolFunction


def check_adtto(D: BlockOperator, *, tol: float | None = None) -> AdttoVerdict:
    """Membership test: is the block operator the compression of a single
    multiplication operator?

    1. "that-toeplitz": the top-left block survives the shift sandwich.
    2. "tcheck-coupling": the bottom-right block survives its sandwich and
       its diagonal symbol reproduces the top-left block through
       theta * conj(alpha).
    3. "hankel-intertwine": both antidiagonal blocks intertwine the shifts.
    4. "corner-consistency": the antianalytic parts of D(theta) and
       D*(alpha), GammaHat[:, 0] and conj(GammaCheck[0]), match the ones
       predicted by the zbar-corner symbol (defect: the larger 2-norm).
    """
    if tol is None:
        tol = default_tolerance(D.theta, D.alpha)
    M = D.M
    blocks = check_block_conditions(D, tol=tol)
    r1 = blocks[0]
    r1 = DefectReport("that-toeplitz", r1.defect, tol, r1.witnesses)

    # coupling: TCheck's diagonal symbol, pushed through theta*conj(alpha),
    # must reproduce That entrywise
    phi_t = _tcheck_symbol(D)
    th = expand(D.theta, max(D.theta.degree_for_cap(DEFAULT_TAIL_CAP), 2 * M + 4),
                tail_cap=None)
    al = expand(D.alpha, max(D.alpha.degree_for_cap(DEFAULT_TAIL_CAP), 2 * M + 4),
                tail_cap=None)
    g = multiply(phi_t, multiply(th, conj_function(al)))
    predicted = coefficient_matrix(g, block_degrees(M)[0])
    coupling = _report("tcheck-coupling", D.that - predicted, tol)
    r2 = DefectReport("tcheck-coupling",
                      max(blocks[1].defect, coupling.defect), tol,
                      coupling.witnesses or blocks[1].witnesses)

    r3 = DefectReport("hankel-intertwine",
                      max(blocks[2].defect, blocks[3].defect), tol,
                      blocks[2].witnesses or blocks[3].witnesses)

    # corner consistency: D(theta) is column 0 of D and D*(alpha) the
    # conjugate of row 0, so their Hminus parts are the first column of
    # GammaHat and the conjugated first row of GammaCheck
    phi_z = _zbar_symbol(D)
    minus_degrees = -np.arange(1, M + 2)
    res_a = D.gamma_hat[:, 0] - coefficient_matrix(
        multiply(phi_z.value, th), minus_degrees)
    res_b = D.gamma_check[0].conj() - coefficient_matrix(
        multiply(conj_function(phi_z.value), al), minus_degrees)
    defect4 = float(max(np.linalg.norm(res_a), np.linalg.norm(res_b)))
    witnesses4 = []
    if defect4 > tol:
        for name, res in (("D(theta)", res_a), ("D*(alpha)", res_b)):
            # largest first, ties at the lower degree; entry i is degree -(i+1)
            mags = np.abs(res[::-1])
            witnesses4 += [(name, int(k) - M - 1, float(mags[k]))
                           for k in np.argsort(-mags, kind="stable")[:2] if mags[k]]
    r4 = DefectReport("corner-consistency", defect4, tol, witnesses4[:3])

    reports = [r1, r2, r3, r4]
    return AdttoVerdict(reports, all(r.passed for r in reports), phi_z)


# -- symbol recovery ----------------------------------------------------------

def recover_symbol(D: BlockOperator, method: str = "zbar"):
    """Recover the symbol of a block operator, with the residual of the
    rebuilt operator, ||D - rebuilt||_2, as the membership diagnostic.

    "zbar" reads the symbol off the zbar corner (orthogonal split, complete
    on the section). "boundary" evaluates the three-term formula built from
    D(theta) and D*(alpha), i.e. from the first column and row of That;
    for non-monomial inner functions the analytic
    projections of those vectors extend geometrically past the section, so
    the formula is evaluated on the unique in-class extension of the section
    data (the tail is reproduced from the zbar-corner symbol; it vanishes
    identically in the monomial and symmetric cases).
    """
    if method not in ("zbar", "boundary"):
        raise InputError(f"unknown recovery method {method!r}")
    M = D.M
    # the rebuild needs the guard depth of a constant symbol
    guard = D.theta.degree + D.alpha.degree + 2
    if M < guard:
        raise InputError(f"M={M} below the guard depth {guard} for symbol "
                         "recovery (deg theta + deg alpha + 2)")
    phi_z = _zbar_symbol(D)
    if method == "zbar":
        symbol = phi_z
    else:
        n = M + 1
        cap_deg = max(D.theta.degree_for_cap(DEFAULT_TAIL_CAP),
                      D.alpha.degree_for_cap(DEFAULT_TAIL_CAP), 2 * M + 4)
        th = expand(D.theta, cap_deg, tail_cap=None)
        al = expand(D.alpha, cap_deg, tail_cap=None)
        g = multiply(phi_z.value, multiply(th, conj_function(al)))
        # analytic projections of D(theta) (column 0) and D*(alpha) (row 0,
        # conjugated): the That entries on the section plus the geometric
        # tail of g past it
        p_alpha = multiply(section_expansion(D.alpha, M),
                           LaurentPolynomial._from_dense(0, D.that[:, 0])) \
            + multiply(al, project_band(g, n, None))
        p_theta = multiply(section_expansion(D.theta, M),
                           LaurentPolynomial._from_dense(0, D.that[0].conj())) \
            + multiply(th, conj_function(project_band(g, None, -n)))
        # <D*(alpha), theta> = conj(<D(theta), alpha>)
        bracket = complex(D.that[0, 0]).conjugate()
        value = multiply(conj_function(th), p_alpha) \
            + multiply(al, conj_function(p_theta)) \
            - multiply(al, conj_function(th.scale(bracket)))
        symbol = SymbolFunction(value)

    # residual: rebuild and compare; clip the reach so the rebuild satisfies
    # its own guard (only relevant for noise inputs)
    max_reach = M - guard
    clipped = project_band(symbol.value, -max_reach, max_reach)
    rebuilt = build_dtto(D.theta, D.alpha, SymbolFunction(clipped), M)
    E = np.block([[D.that - rebuilt.that, D.gamma_check - rebuilt.gamma_check],
                  [D.gamma_hat - rebuilt.gamma_hat, D.t_check - rebuilt.t_check]])
    # an exact rebuild leaves E all zeros, whose 2-norm is 0.0: skip the SVD
    residual = float(np.linalg.norm(E, 2)) if E.any() else 0.0
    return symbol, residual


class AnalyticVerdict(NamedTuple):
    analytic: bool
    witness: tuple | None
    minus_norm: float


def is_analytic_adtto(D: BlockOperator, *,
                      tol: float | None = None) -> AnalyticVerdict:
    """True when the antianalytic part of the recovered symbol vanishes,
    i.e. all pairings of D(zbar) against zbar * (the Hminus basis) are zero:
    the first column of TCheck below its corner, t_check[1:, 0]. The
    default tolerance is 1e-11."""
    tol = 1e-11 if tol is None else tol
    phi_minus = _zbar_symbol(D).minus
    norm = phi_minus.norm()
    if norm <= tol:
        return AnalyticVerdict(True, None, norm)
    k, c = max(phi_minus.coeffs.items(), key=lambda kv: abs(kv[1]))
    # coefficient k of P-(z D zbar) is the pairing <D zbar, zbar^(1-k)>
    return AnalyticVerdict(False, (f"<D zbar, zbar^{1 - k}>", abs(c)), norm)
