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

Each block is a Toeplitz or Hankel matrix in 2M+1 values. Where a block is
laid out so in memory (a built operator's views, a payload read as views),
the block conditions and `tcheck-coupling` are read from those values in
O(M); any other block's residual is taken in bands of _BAND_ROWS rows. Both
routes give the report of the whole residual bit for bit. The shift check
on a section takes the block conditions so, each transposed and placed in
[[That, GammaHat], [GammaCheck, TCheck]] at (0, 0), (0, M), (M, 0), (M, M),
ties in row-major order of that layout. The recovery residual's norm
bracket comes from window sums of the four difference sequences when all
eight blocks of the operator and of its rebuild are laid out so, and from
bands of the residual otherwise; the two add their sums in other orders,
so the bracket's ends differ in the last ulps, and the verdict never does.

Membership is decided by defect thresholds, never symbolically; reports
carry raw defects so thresholds can be re-audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InputError
from .inner import (BlaschkeProduct, cut_below_floor, expand, expansion_degree,
                    tm_basis)
from .laurent import (LaurentPolynomial, conj_function, multiply,
                      project_band)
from .operators import (BlockOperator, DenseComplexMatrix, SymbolFunction,
                        block_views, build_dtto, guard_depth)
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
    return _abs_report(condition, np.abs(np.atleast_2d(residual)), tol)


def _abs_report(condition: str, dev: np.ndarray, tol: float) -> DefectReport:
    """_report from dev = |residual|, a 2-d array."""
    flat = dev.ravel()
    over = np.flatnonzero(flat > tol)
    top = over[np.argsort(-flat[over], kind="stable")[:3]]
    witnesses = [(*divmod(int(k), dev.shape[1]), float(flat[k])) for k in top]
    return DefectReport(condition, float(np.max(dev, initial=0.0)), tol, witnesses)


# rows of a residual that a check or the recovery residual holds at once
_BAND_ROWS = 64


def _row_bands(n: int):
    """(start, stop) of the bands of at most _BAND_ROWS rows that cover n
    rows, top to bottom."""
    for start in range(0, n, _BAND_ROWS):
        yield start, min(start + _BAND_ROWS, n)


def _band_buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """A complex residual band and its modulus for _band_report on n x n
    residuals."""
    k = min(_BAND_ROWS, n)
    return np.empty((k, n), dtype=np.complex128), np.empty((k, n))


def _band_report(condition: str, a: np.ndarray, b: np.ndarray, tol: float,
                 buffers: tuple[np.ndarray, np.ndarray]) -> DefectReport:
    """_report of a - b, taken in bands of at most _BAND_ROWS rows written
    into `buffers` (_band_buffers). The defect is the largest band defect
    and the witnesses the top 3 of the bands' witnesses; a stable sort keeps
    ties in row-major order, so the report is that of the whole residual,
    bit for bit."""
    residual, dev = buffers
    defects, witnesses = [], []
    for start, stop in _row_bands(len(a)):
        k = stop - start
        band = np.subtract(a[start:stop], b[start:stop], out=residual[:k])
        report = _abs_report(condition, np.abs(band, out=dev[:k]), tol)
        defects.append(report.defect)
        witnesses += [(i + start, j, w) for i, j, w in report.witnesses]
    witnesses.sort(key=lambda w: -w[2])
    return DefectReport(condition, float(np.max(defects, initial=0.0)), tol,
                        witnesses[:3])


def _toeplitz_report(condition: str, dev: np.ndarray, tol: float) -> DefectReport:
    """_report of the n x n residual whose cell (i, j) has modulus
    dev[n-1+j-i], from its 2n - 1 values. The first three cells of a
    diagonal come before its others in row-major order, so the top 3 lie
    among the first three cells of the diagonals above tol."""
    n = (len(dev) + 1) // 2
    over = np.flatnonzero(dev > tol)
    offsets = over[:, None] - (n - 1)                  # j - i
    rows = np.maximum(-offsets, 0) + np.arange(3)
    cols = rows + offsets
    keep = np.maximum(rows, cols) < n
    rows, cols = rows[keep], cols[keep]
    values = np.broadcast_to(dev[over][:, None], keep.shape)[keep]
    top = np.lexsort((rows * n + cols, -values))[:3]
    witnesses = [(int(rows[k]), int(cols[k]), float(values[k])) for k in top]
    return DefectReport(condition, float(np.max(dev, initial=0.0)), tol, witnesses)


def _self_paired(sequence: np.ndarray | None) -> bool:
    """Whether the block behind a BlockOperator.sequences entry has a
    structure residual of exact zeros: its shift sandwich or intertwining
    pairs every cell with itself in memory, and x - x is 0 for every
    finite x."""
    return sequence is not None and bool(np.isfinite(sequence).all())


# -- shift invariance ---------------------------------------------------------

def shift_invariance_defect(op: BlockOperator | DenseComplexMatrix, *,
                            tol: float | None = None) -> DefectReport:
    """Largest deviation of the shift identity <A(z f), z g> = <A f, g> over
    the admissible vectors f of the domain and g of the codomain.

    On the complement sections z f is again a section vector, so the
    deviations are |the four block residuals of check_block_conditions|,
    each transposed, laid out as [[That, GammaHat], [GammaCheck, TCheck]] at
    offsets (0, 0), (0, M), (M, 0), (M, M) and indexed by admissible pairs.
    Each block is reported as its condition is (_block_reports): the defect
    is the largest of the four and the witnesses the top 3 of theirs, ties
    in row-major order of the layout, which an offset keeps within a block.
    On model spaces, with (S, X) and (T, Y) the compressed shifts of domain
    and codomain, they are the entries of |P_alpha (T^H A S - A) P_theta|^T,
    where P_alpha = Y Y^H and P_theta = X X^H project onto the admissible
    coordinates: no choice of the orthonormal X or Y changes them, and the
    witnesses index Takenaka-Malmquist basis vectors.
    """
    if not isinstance(op, BlockOperator):
        S, X = compressed_shift(op.domain_basis())
        T, Y = compressed_shift(op.codomain_basis())
        A = op.entries
        residual = Y @ (Y.conj().T @ (T.conj().T @ A @ S - A) @ X) @ X.conj().T
        return _report("shift-invariance", residual.T, _tolerance(tol, op.theta, op.alpha))
    tol, M = _tolerance(tol, op.theta, op.alpha), op.M
    # block k = 2r + c of _shift_terms, transposed, sits at (c M, r M)
    terms = [(a.T, b.T) for row in _shift_terms(op) for a, b in row]
    reports = _block_reports(op, tol, [("shift-invariance", k, pair)
                                       for k, pair in enumerate(terms)])
    witnesses = sorted(((i + k % 2 * M, j + k // 2 * M, w)
                        for k, report in enumerate(reports)
                        for i, j, w in report.witnesses),
                       key=lambda w: (-w[2], w[0], w[1]))
    defect = float(np.max([report.defect for report in reports]))
    return DefectReport("shift-invariance", defect, tol, witnesses[:3])


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
    S, X = compressed_shift(tm_basis(theta))
    T, Y = compressed_shift(tm_basis(alpha))
    null, s = shift_kernel(X, S @ X, Y, T @ Y)
    ops = [DenseComplexMatrix(A, theta, alpha) for A in null]
    return ShiftInvariantSolution(len(null), ops, s)


def distance_to_span(op: DenseComplexMatrix, family: list) -> float:
    """L2 distance of an operator matrix to the span of a family of matrices."""
    target = op.entries.ravel()
    A = np.vstack([f.entries.ravel() for f in family]).T
    coef, *_ = np.linalg.lstsq(A, target, rcond=None)
    return float(np.linalg.norm(target - A @ coef))


# -- blockwise structure (shift sandwiches and intertwinings) -----------------

def _shift_terms(D: BlockOperator) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """<D(z f), z g> and <D f, g> over the admissible section vectors in
    block layout [[That, GammaCheck], [GammaHat, TCheck]], rows g and
    columns f: z moves each to a neighbour, so each is a slice of one
    block."""
    that, gc, gh, tc = D.blocks()
    return [[(that[1:, 1:], that[:-1, :-1]), (gc[1:, :-1], gc[:-1, 1:])],
            [(gh[:-1, 1:], gh[1:, :-1]), (tc[:-1, :-1], tc[1:, 1:])]]


def _block_reports(D: BlockOperator, tol: float, checks) -> list[DefectReport]:
    """The report of each (condition, k, (a, b)) of checks, a - b the
    structure residual of block k (block order), maybe transposed. A
    _self_paired block, its residual x - x at every cell, reports 0.0 and
    no witnesses without reading a cell; any other block's residual and
    modulus go in bands through one pair of _band_buffers, allocated only
    when some block takes them: no (M, M) array is made."""
    exact = list(map(_self_paired, D.sequences()))
    buffers = None if all(exact) else _band_buffers(D.M)
    return [DefectReport(condition, 0.0, tol, []) if exact[k]
            else _band_report(condition, a, b, tol, buffers)
            for condition, k, (a, b) in checks]


def check_block_conditions(D: BlockOperator, *,
                           tol: float | None = None) -> list[DefectReport]:
    """The four structural conditions: the diagonal blocks must be fixed by
    the one-step shift sandwich, the antidiagonal blocks must intertwine the
    shifts. Each residual is an exact entrywise identity; the sandwich drops
    the outermost row/column. GammaCheck's is indexed like GammaCheck^H and
    taken from the transposed slices, so it lands row-major. The blocks are
    read as held (BlockOperator.blocks), each block with a residual of
    exact zeros or in bands (_block_reports)."""
    tol = _tolerance(tol, D.theta, D.alpha)
    [[t1, (a4, b4)], [t3, t2]] = _shift_terms(D)
    return _block_reports(D, tol, (("that-shift-sandwich", 0, t1),
                                   ("tcheck-shift-sandwich", 3, t2),
                                   ("gammahat-intertwine", 2, t3),
                                   ("gammacheck-intertwine", 1, (a4.T, b4.T))))


# -- full membership ----------------------------------------------------------

def _zbar_symbol(D: BlockOperator) -> SymbolFunction:
    """Symbol read off the zbar corner, i.e. the border of TCheck (entry
    (i, j) carries coefficient j - i): coefficient -t is
    t_check[t, 0] = <D zbar, zbar^(t+1)> and coefficient +j is
    t_check[0, j] = <D zbar^(j+1), zbar>. Complete on the section."""
    M, t_check = D.M, D.blocks()[3]
    border = np.concatenate([t_check[M:0:-1, 0], t_check[0]])
    return SymbolFunction(LaurentPolynomial._from_dense(-M, border))


def _merged(condition: str, *reports: DefectReport) -> DefectReport:
    """One or more reports as one under a new name: the defect and the
    witnesses of the first NaN report, else of the first largest defect."""
    worst = reports[int(np.argmax([rep.defect for rep in reports]))]
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
    return adtto_verdict(D, check_block_conditions(D, tol=tol))


def adtto_verdict(D: BlockOperator, blocks: list[DefectReport]) -> AdttoVerdict:
    """check_adtto from the four reports of check_block_conditions(D), at
    their tolerance: a caller that reports both takes the block residuals
    once."""
    tol, M = blocks[0].tolerance, D.M
    that, gamma_check, gamma_hat, _ = D.blocks()
    r1 = _merged("that-toeplitz", blocks[0])

    # coupling: the zbar-corner symbol, pushed through theta*conj(alpha),
    # must reproduce That entrywise
    phi_z = _zbar_symbol(D)
    g, minus_theta, minus_alpha = _zbar_predictions(D, phi_z)
    values = D.sequences()[0]
    if values is None:
        coupling = _band_report("tcheck-coupling", that, next(block_views(M, (g,))),
                                tol, _band_buffers(M + 1))
    else:
        # That's Toeplitz values run from degree M down to -M: the residual
        # is Toeplitz too, in s - g
        coupling = _toeplitz_report("tcheck-coupling", np.abs(
            values - g.dense(-M, M)[::-1]), tol)
    r2 = _merged("tcheck-coupling", coupling, blocks[1])
    r3 = _merged("hankel-intertwine", blocks[2], blocks[3])

    # corner consistency: D(theta) is column 0 of D and D*(alpha) the
    # conjugate of row 0, so their Hminus parts are the first column of
    # GammaHat and the conjugated first row of GammaCheck
    res_a = gamma_hat[:, 0] - minus_theta
    res_b = gamma_check[0].conj() - minus_alpha
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


def _zbar_predictions(D: BlockOperator, phi_z: SymbolFunction):
    """What the zbar-corner symbol phi_z predicts for check_adtto: That, the
    Toeplitz matrix of g = phi_z theta conj(alpha) at degrees -M..M, and the
    Hminus parts of D(theta) and D*(alpha) at degrees -1..-(M+1), the
    coefficients of phi_z theta and conj(phi_z) alpha read backwards."""
    M = D.M
    th = expand(D.theta, 2 * M + 4)
    al = expand(D.alpha, 2 * M + 4)
    g = multiply(phi_z.value, multiply(th, conj_function(al)))
    return (g, multiply(phi_z.value, th).dense(-M - 1, -1)[::-1],
            multiply(conj_function(phi_z.value), al).dense(-M - 1, -1)[::-1])


# -- symbol recovery ----------------------------------------------------------


def _certified_norm(D: BlockOperator, rebuilt: BlockOperator, tol: float) -> float:
    """||E||_2 for E = D - rebuilt, assembled as np.block would, as far as
    the verdict `<= tol` needs it: 0.0 for E all zeros, else the exact SVD
    value when tol lies inside the bracket lo <= ||E||_2 <= hi of
    _norm_bracket, else hi. A NaN in E makes the bracket NaN, which fails
    both comparisons: the result is NaN, and the SVD, which would not
    converge, never runs. Only the SVD builds E whole."""
    bracket = _norm_bracket(D, rebuilt)
    # an exact rebuild leaves E all zeros, whose 2-norm is 0.0: skip the SVD
    if bracket is None:
        return 0.0
    lo, hi = bracket
    if not lo <= tol < hi:
        return hi
    d, r = D.blocks(), rebuilt.blocks()
    E = np.block([[d[0] - r[0], d[1] - r[1]], [d[2] - r[2], d[3] - r[3]]])
    return float(np.linalg.norm(E, 2))


def _norm_bracket(D: BlockOperator, rebuilt: BlockOperator) -> tuple[float, float] | None:
    """(lo, hi) with lo <= ||E||_2 <= hi for E = D - rebuilt, None when E
    is all zeros.

    lo is the largest column or row 2-norm and hi = sqrt(||E||_1 ||E||_inf)
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 6.3).
    Both are widened by n + 4 ulps for the n-term sums, which covers the
    rounding of the sums and of the SVD, so hi is never below the computed
    SVD value and lo never above it. Every sum adds nonnegative terms only,
    so the widening holds in any order of addition.

    When all eight blocks of D and of the rebuild have their slot's layout
    (BlockOperator.sequences), the column and row sums come from E's four
    difference sequences in O(M) (_window_sums): `recover_symbol` on a
    built operator or on a payload read as views. Any other E is read in bands
    (_band_sums), which give the sums of the assembled E to the bit."""
    # a difference or a sum that overflows makes an end inf, which keeps
    # the verdict: a column or row norm beyond the float range exceeds
    # every tol
    with np.errstate(over="ignore"):
        differences = _difference_sequences(D, rebuilt)
        sums = (_band_sums(D, rebuilt) if differences is None
                else _window_sums(differences))
        if sums is None:
            return None
        cols, rows = sums
        lo = np.sqrt(np.maximum(cols[1], rows[1]))
        # a product of square roots neither overflows nor underflows first
        hi = np.sqrt(cols[0]) * np.sqrt(rows[0])
    slack = (D.dim + 4) * float(np.finfo(float).eps)
    return float(lo) * (1 - slack), float(hi) * (1 + slack)


def _difference_sequences(D: BlockOperator, rebuilt: BlockOperator) -> np.ndarray | None:
    """The (4, 2M+1) values of E = D - rebuilt block by block, each block's
    values of D minus those of the rebuild, when all eight blocks have their
    slot's layout (BlockOperator.sequences), else None. Every cell of a
    block of E is that subtraction of the same two values, so E's cells are
    these values bit for bit."""
    e = np.empty((4, 2 * D.M + 1), dtype=np.complex128)
    for row, a, b in zip(e, D.sequences(), rebuilt.sequences()):
        if a is None or b is None:
            return None
        np.subtract(a, b, out=row)
    return e


def _window_sums(e: np.ndarray):
    """The largest column and row sums of |E| and of |E|^2, as _band_sums
    gives them, from E's difference sequences e (_difference_sequences);
    None when e is all zeros.

    With n = M + 1, window a of a block is its n values from index a on,
    a = 0..M. Row i <= M of E reads window M - i of That and window i of
    GammaCheck, row n + i window i of GammaHat and window M - i of TCheck;
    column j reads window j of That and of GammaHat, column n + j window j
    of GammaCheck and of TCheck. Every window holds index M, so its sum is
    the sum of its values up to M, a reversed cumulative sum, plus the sum
    of those beyond M, a cumulative sum: no difference of prefix sums,
    which would cancel. The four sequences go through as one stacked
    array."""
    if not e.any():
        return None
    n = (e.shape[1] + 1) // 2
    x = np.empty((2, *e.shape))              # |e| and |e|^2
    np.abs(e, out=x[0])
    np.multiply(x[0], x[0], out=x[1])
    windows = np.cumsum(x[..., n - 1::-1], axis=-1)[..., ::-1]
    windows[..., 1:] += np.cumsum(x[..., n:], axis=-1)
    that, gamma_check, gamma_hat, t_check = windows.swapaxes(0, 1)
    rows = np.maximum(that[:, ::-1] + gamma_check, gamma_hat + t_check[:, ::-1])
    cols = np.maximum(that + gamma_hat, gamma_check + t_check)
    return cols.max(axis=1), rows.max(axis=1)


def _band_sums(D: BlockOperator, rebuilt: BlockOperator):
    """The largest column and row sums of |E| and of |E|^2 for
    E = D - rebuilt, each as a pair (|E|, |E|^2), or None when E is all
    zeros.

    E is read in bands of at most _BAND_ROWS rows (_residual_bands). Each
    row sum comes from its band. Each column sum adds the rows in sequence
    onto the sums of the bands above, which is numpy's order for axis 0 of
    the whole E, so the sums are those of the assembled E to the bit. A
    band of zeros adds nothing and is skipped.

    One call allocates its buffers once: two stacks of _BAND_ROWS + 1 rows
    hold the column sums so far in row 0 and |band| and |band|^2 below, and
    each column sum is one axis-0 sum of a stack's leading rows."""
    # stacks[m, 0]: column sums of |E| (m = 0) and |E|^2 (m = 1) so far
    stacks = np.empty((2, min(_BAND_ROWS, D.dim) + 1, D.dim))
    stacks[:, 0] = 0.0
    rows = np.zeros(2)            # largest row sums of |E| and |E|^2
    nonzero = False
    for band in _residual_bands(D, rebuilt):
        if not band.any():
            continue
        nonzero = True
        k = len(band) + 1
        A = np.abs(band, out=stacks[0, 1:k])
        np.multiply(A, A, out=stacks[1, 1:k])
        for m, stack in enumerate(stacks):
            rows[m] = max(rows[m], stack[1:k].sum(axis=1).max())
            stack[0] = stack[:k].sum(axis=0)
    return (stacks[:, 0].max(axis=1), rows) if nonzero else None


def _residual_bands(D: BlockOperator, rebuilt: BlockOperator):
    """The rows of E = D - rebuilt in bands of at most _BAND_ROWS rows, top
    to bottom, each written into one buffer: use a band before taking the
    next. _band_sums reads E so when a block lacks its slot's layout (a
    block assigned through its name, a dense payload)."""
    n = D.M + 1
    # each block pair with the row and column where its difference sits in E
    quadrants = tuple(zip(D.blocks(), rebuilt.blocks(), (0, 0, n, n), (0, n, 0, n)))
    buffer = np.empty((min(_BAND_ROWS, 2 * n), 2 * n), dtype=np.complex128)
    for start, stop in _row_bands(2 * n):
        band = buffer[:stop - start]
        for block, other, top, left in quadrants:
            a, b = max(start, top), min(stop, top + n)
            if a < b:
                np.subtract(block[a - top:b - top], other[a - top:b - top],
                            out=band[a - start:b - start, left:left + n])
        yield band


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
    theta conj(alpha), so the branch forms three products. theta and alpha
    are expanded to one shared reach, at least 2M + 4, and each stops at
    its floor degree (msolab.inner), so g and w end where their
    coefficients fall below roundoff. The rebuild reads the symbol as
    formed; the symbol returned drops its end coefficients of modulus at
    most TAIL_FLOOR times its norm (inner.cut_below_floor).
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
        # theta and alpha expanded to one shared reach, each cut at its
        # floor degree
        n_shared = max(expansion_degree(D.theta, 2 * M + 4),
                       expansion_degree(D.alpha, 2 * M + 4))
        th_al_bar = multiply(expand(D.theta, n_shared),
                             conj_function(expand(D.alpha, n_shared)))
        g = multiply(phi_z.value, th_al_bar)
        # w: g with degrees -M..M read off That's first row and column
        lo, hi = min(g.lo, -M), max(g.hi, M)
        w = g.dense(lo, hi)
        that = D.blocks()[0]
        w[-M - lo:M + 1 - lo] = np.concatenate([that[0, :0:-1], that[:, 0]])
        symbol = SymbolFunction(multiply(conj_function(th_al_bar),
                                         LaurentPolynomial._from_dense(lo, w)))

    # residual: rebuild and compare; clip the reach so the rebuild satisfies
    # its own guard (only relevant for noise inputs)
    max_reach = M - guard
    clipped = project_band(symbol.value, -max_reach, max_reach)
    rebuilt = build_dtto(D.theta, D.alpha, SymbolFunction(clipped), M)
    residual = _certified_norm(D, rebuilt, tol)
    if method == "boundary":
        # the ends of conj(theta) alpha w lie below roundoff at the symbol's
        # scale; they are cut after the rebuild, which keeps its bits
        symbol = SymbolFunction(cut_below_floor(symbol.value))
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
    tol = 1e-11 if validated_tolerance(tol) is None else tol
    phi_minus = _zbar_symbol(D).minus
    norm = phi_minus.norm()
    if norm <= tol:
        return AnalyticVerdict(True, None, norm)
    k, c = max(phi_minus.coeffs.items(), key=lambda kv: abs(kv[1]))
    # coefficient k of P-(z D zbar) is the pairing <D zbar, zbar^(1-k)>
    return AnalyticVerdict(False, (f"<D zbar, zbar^{1 - k}>", abs(c)), norm)
