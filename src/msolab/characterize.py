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

from .errors import InputError
from .inner import BlaschkeProduct, expand, expansion_degree, tm_basis
from .laurent import (LaurentPolynomial, conj_function, multiply,
                      project_band)
from .operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                        block_degrees, build_dtto, coefficient_matrix,
                        guard_depth)
from .spaces import SHIFT_KERNEL_TOL, compressed_shift


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


def _tolerance(tol: float | None, *inners: BlaschkeProduct) -> float:
    """A given tolerance, validated, or default_tolerance(*inners)."""
    return default_tolerance(*inners) if validated_tolerance(tol) is None else tol


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
    """Largest entry of |residual| as the defect; the witnesses are the
    entries above tol, largest first, ties in row-major order, at most 3."""
    dev = np.abs(np.atleast_2d(residual))
    flat = dev.ravel()
    over = np.flatnonzero(flat > tol)
    top = over[np.argsort(-flat[over], kind="stable")[:3]]
    witnesses = [(*divmod(int(k), dev.shape[1]), float(flat[k])) for k in top]
    return DefectReport(condition, float(np.max(dev, initial=0.0)), tol, witnesses)


# -- shift invariance ---------------------------------------------------------

def shift_invariance_defect(op: BlockOperator | DenseComplexMatrix, *,
                            tol: float | None = None) -> DefectReport:
    """Largest deviation dev[p, q] = |<A(z f_p), z g_q> - <A f_p, g_q>| over
    the admissible vectors f_p of the domain and g_q of the codomain.

    On the complement sections z f_p is again a section vector, so dev^T
    is |the four block residuals of check_block_conditions| in block layout.
    On model spaces, with (S, X) and (T, Y) the compressed shifts of domain
    and codomain, dev = |(TY)^H A SX - Y^H A X|^T.
    """
    if isinstance(op, BlockOperator):
        tol = _tolerance(tol, op.theta, op.alpha)
        return _report("shift-invariance", np.block(_shift_residuals(op)).T, tol)
    tol = _tolerance(tol, op.domain.inner, op.codomain.inner)
    S, X = compressed_shift(op.domain)
    T, Y = compressed_shift(op.codomain)
    A = op.entries
    dev = np.abs((T @ Y).conj().T @ (A @ (S @ X)) - Y.conj().T @ (A @ X)).T
    return _report("shift-invariance", dev, tol)


class ShiftInvariantSolution(NamedTuple):
    dimension: int
    operators: list
    singular_values: np.ndarray


def shift_kernel(X: np.ndarray, SX: np.ndarray, Y: np.ndarray,
                 TY: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The matrices A with (TY)^H A SX = Y^H A X, and the singular values
    of that system.

    Column p of X holds the coordinates of an admissible domain vector f_p
    and column p of SX those of z f_p; Y and TY do the same for the
    codomain vectors g_q. Row (q, p) of the system
    kron((TY)^H, (SX)^T) - kron(Y^H, X^T) asks <A(z f_p), z g_q> =
    <A f_p, g_q> of the row-major flattened A. Its kernel comes from one
    SVD: singular values below SHIFT_KERNEL_TOL count as zero. With no
    admissible pair there is no row and every matrix qualifies.
    """
    C = np.kron(TY.conj().T, SX.T) - np.kron(Y.conj().T, X.T)
    _, s, Vh = np.linalg.svd(C, full_matrices=True)
    null = [Vh[k].conj().reshape(len(Y), len(X)) for k in range(Vh.shape[0])
            if k >= len(s) or s[k] < SHIFT_KERNEL_TOL]
    return null, s


def solve_shift_invariant_space(theta: BlaschkeProduct,
                                alpha: BlaschkeProduct) -> ShiftInvariantSolution:
    """Basis of the space of shift-invariant operators from the model space
    of theta to that of alpha: the kernel of `shift_kernel` over the
    coordinates of spaces.compressed_shift. `singular_values` holds the
    system's.
    """
    dom = tm_basis(theta)
    cod = tm_basis(alpha)
    S, X = compressed_shift(dom)
    T, Y = compressed_shift(cod)
    null, s = shift_kernel(X, S @ X, Y, T @ Y)
    ops = [DenseComplexMatrix(A, dom, cod) for A in null]
    return ShiftInvariantSolution(len(null), ops, s)


def distance_to_span(op: DenseComplexMatrix, family: list) -> float:
    """L2 distance of an operator matrix to the span of a family of matrices."""
    target = op.entries.ravel()
    A = np.vstack([f.entries.ravel() for f in family]).T
    coef, *_ = np.linalg.lstsq(A, target, rcond=None)
    return float(np.linalg.norm(target - A @ coef))


# -- blockwise structure (shift sandwiches and intertwinings) -----------------

def _shift_residuals(D: BlockOperator) -> list[list[np.ndarray]]:
    """<D(z f), z g> - <D f, g> over the admissible section vectors in block
    layout [[That, GammaCheck], [GammaHat, TCheck]], rows g and columns f:
    z moves each to a neighbour, so each is two slices of one block."""
    that, gc, gh, tc = D.that, D.gamma_check, D.gamma_hat, D.t_check
    return [[that[1:, 1:] - that[:-1, :-1], gc[1:, :-1] - gc[:-1, 1:]],
            [gh[:-1, 1:] - gh[1:, :-1], tc[:-1, :-1] - tc[1:, 1:]]]


def check_block_conditions(D: BlockOperator, *,
                           tol: float | None = None) -> list[DefectReport]:
    """The four structural conditions: the diagonal blocks must be fixed by
    the one-step shift sandwich, the antidiagonal blocks must intertwine the
    shifts. Each residual is an exact entrywise identity; the sandwich drops
    the outermost row/column. GammaCheck's is indexed like GammaCheck^H."""
    tol = _tolerance(tol, D.theta, D.alpha)
    [[r1, r4], [r3, r2]] = _shift_residuals(D)
    return [_report("that-shift-sandwich", r1, tol),
            _report("tcheck-shift-sandwich", r2, tol),
            _report("gammahat-intertwine", r3, tol),
            _report("gammacheck-intertwine", r4.T, tol)]


# -- full membership ----------------------------------------------------------

def _zbar_symbol(D: BlockOperator) -> SymbolFunction:
    """Symbol read off the zbar corner, i.e. the border of TCheck (entry
    (i, j) carries coefficient j - i): coefficient -t is
    t_check[t, 0] = <D zbar, zbar^(t+1)> and coefficient +j is
    t_check[0, j] = <D zbar^(j+1), zbar>. Complete on the section."""
    M = D.M
    border = np.concatenate([D.t_check[M:0:-1, 0], D.t_check[0]])
    return SymbolFunction(LaurentPolynomial._from_dense(-M, border))


def _merged(condition: str, *reports: DefectReport) -> DefectReport:
    """One or more reports as one under a new name: the defect and the
    witnesses of the report with the largest defect, the first on a tie."""
    worst = max(reports, key=lambda rep: rep.defect)
    return DefectReport(condition, worst.defect, worst.tolerance, worst.witnesses)


class AdttoVerdict(NamedTuple):
    reports: list
    passed: bool
    symbol: SymbolFunction


def check_adtto(D: BlockOperator, *, tol: float | None = None) -> AdttoVerdict:
    """Membership test: is the block operator the compression of a single
    multiplication operator?

    1. "that-toeplitz": the top-left block survives the shift sandwich.
    2. "tcheck-coupling": the bottom-right block survives its sandwich and
       the zbar-corner symbol (its border) reproduces the top-left block
       through theta * conj(alpha).
    3. "hankel-intertwine": both antidiagonal blocks intertwine the shifts.
    4. "corner-consistency": the antianalytic parts of D(theta) and
       D*(alpha), GammaHat[:, 0] and conj(GammaCheck[0]), match the ones
       predicted by the zbar-corner symbol (defect: the larger 2-norm).
    """
    tol = _tolerance(tol, D.theta, D.alpha)
    M = D.M
    blocks = check_block_conditions(D, tol=tol)
    r1 = _merged("that-toeplitz", blocks[0])

    # coupling: the zbar-corner symbol, pushed through theta*conj(alpha),
    # must reproduce That entrywise
    phi_z = _zbar_symbol(D)
    th = expand(D.theta, 2 * M + 4)
    al = expand(D.alpha, 2 * M + 4)
    g = multiply(phi_z.value, multiply(th, conj_function(al)))
    predicted = coefficient_matrix(g, block_degrees(M)[0])
    coupling = _report("tcheck-coupling", D.that - predicted, tol)
    r2 = _merged("tcheck-coupling", coupling, blocks[1])
    r3 = _merged("hankel-intertwine", blocks[2], blocks[3])

    # corner consistency: D(theta) is column 0 of D and D*(alpha) the
    # conjugate of row 0, so their Hminus parts are the first column of
    # GammaHat and the conjugated first row of GammaCheck
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

def _certified_norm(E: np.ndarray, tol: float) -> float:
    """||E||_2 as far as the verdict `<= tol` needs it: 0.0 for E all zeros,
    else the exact SVD value when tol lies inside the bracket
    lo <= ||E||_2 <= hi, else hi.

    lo is the largest column or row 2-norm and hi = sqrt(||E||_1 ||E||_inf)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 6.3).
    Both are widened by n + 4 ulps for the n-term sums, which covers the
    rounding of the sums and of the SVD, so the result is never below the
    computed SVD value and `<= tol` gives the SVD verdict for every E."""
    # an exact rebuild leaves E all zeros, whose 2-norm is 0.0: skip the SVD
    if not E.any():
        return 0.0
    A = np.abs(E)
    # sums that overflow make an end inf, which keeps the verdict: a column
    # or row norm beyond the float range exceeds every tol
    with np.errstate(over="ignore"):
        sq = A * A
        lo = np.sqrt(np.maximum(sq.sum(axis=0).max(), sq.sum(axis=1).max()))
        # a product of square roots neither overflows nor underflows first
        hi = np.sqrt(A.sum(axis=0).max()) * np.sqrt(A.sum(axis=1).max())
    slack = (max(E.shape) + 4) * float(np.finfo(float).eps)
    lo, hi = float(lo) * (1 - slack), float(hi) * (1 + slack)
    if hi <= tol or lo > tol:
        return hi
    return float(np.linalg.norm(E, 2))


def recover_symbol(D: BlockOperator, method: str = "zbar", *,
                   tol: float | None = None):
    """Recover the symbol of a block operator, with the residual of the
    rebuilt operator as the membership diagnostic.

    The residual is an upper bound on ||D - rebuilt||_2 with the verdict of
    the exact value: `residual <= tol` holds exactly when the SVD value is
    at most tol. It is 0.0 for an exact rebuild, the SVD value when tol
    falls inside the cheap norm bracket of `_certified_norm`, and the upper
    end of that bracket otherwise. tol defaults to default_tolerance(theta,
    alpha).

    "zbar" reads the symbol off the zbar corner (orthogonal split, complete
    on the section). "boundary" evaluates the three-term formula

        conj(theta) P+(D theta) + alpha conj(P+(D* alpha))
            - <D* alpha, theta> conj(theta) alpha

    from D(theta) and D*(alpha), column 0 and the conjugate of row 0 of D.
    For non-monomial inner functions their analytic projections extend
    geometrically past the section, so the formula is evaluated on the
    unique in-class extension of the section data, whose tail comes from
    g = phi_z theta conj(alpha) (phi_z the zbar-corner symbol; the tail
    vanishes identically in the monomial and symmetric cases). With
    n = M + 1 that extension gives P+(D theta) = alpha w+, where w+ holds
    That[:, 0] at degrees 0..M and P_{>=n}(g), and P+(D* alpha) = theta
    conj(w-), where w- holds That[0, j] at degree -j and P_{<=-n}(g). The
    bracket is conj(That[0, 0]), so the formula is conj(theta) alpha w with
    w = w+ + w- - That[0, 0]: That[:, 0] at degrees 0..M, That[0, j] at
    degree -j and g outside [-M, M]. conj(theta) alpha is the conjugate of
    theta conj(alpha), so the branch forms three products.
    """
    if method not in ("zbar", "boundary"):
        raise InputError(f"unknown recovery method {method!r}")
    tol = _tolerance(tol, D.theta, D.alpha)
    M = D.M
    # the rebuild needs the guard depth of a constant symbol
    guard = guard_depth(D.theta, D.alpha, 0)
    if M < guard:
        raise InputError(f"M={M} below the guard depth {guard} for symbol "
                         "recovery (deg theta + deg alpha + 2)")
    phi_z = _zbar_symbol(D)
    if method == "zbar":
        symbol = phi_z
    else:
        # theta and alpha expanded to one shared degree
        n_shared = max(expansion_degree(D.theta, 2 * M + 4),
                       expansion_degree(D.alpha, 2 * M + 4))
        th_al_bar = multiply(expand(D.theta, n_shared),
                             conj_function(expand(D.alpha, n_shared)))
        g = multiply(phi_z.value, th_al_bar)
        # w: g with degrees -M..M read off That's first row and column
        lo, hi = min(g.lo, -M), max(g.hi, M)
        w = g.dense(lo, hi)
        w[-M - lo:M + 1 - lo] = np.concatenate([D.that[0, :0:-1], D.that[:, 0]])
        symbol = SymbolFunction(multiply(conj_function(th_al_bar),
                                         LaurentPolynomial._from_dense(lo, w)))

    # residual: rebuild and compare; clip the reach so the rebuild satisfies
    # its own guard (only relevant for noise inputs)
    max_reach = M - guard
    clipped = project_band(symbol.value, -max_reach, max_reach)
    rebuilt = build_dtto(D.theta, D.alpha, SymbolFunction(clipped), M)
    E = np.block([[D.that - rebuilt.that, D.gamma_check - rebuilt.gamma_check],
                  [D.gamma_hat - rebuilt.gamma_hat, D.t_check - rebuilt.t_check]])
    return symbol, _certified_norm(E, tol)


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
    tol = 1e-11 if validated_tolerance(tol) is None else tol
    phi_minus = _zbar_symbol(D).minus
    norm = phi_minus.norm()
    if norm <= tol:
        return AnalyticVerdict(True, None, norm)
    k, c = max(phi_minus.coeffs.items(), key=lambda kv: abs(kv[1]))
    # coefficient k of P-(z D zbar) is the pairing <D zbar, zbar^(1-k)>
    return AnalyticVerdict(False, (f"<D zbar, zbar^{1 - k}>", abs(c)), norm)
