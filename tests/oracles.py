"""Generic reference implementations of the structured fast paths.

Each function here computes the same quantity as a library routine through
the generic route it replaced: pairings of polynomial images against a
dense matrix of basis vectors, a Python loop over admissible pairs or over
the dyads of a finite-rank operator, a gather of entries of the assembled
matrix (`gather_shift_invariance_defect`), an SVD of shift residuals,
polynomial round trips through the operator (`poly_apply`: coordinates, a
matrix-vector product, a rebuild), or an SVD of the assembled rebuild
difference, or one generator family per call with its own expansions and
products (`indexed_gen_M`). The tests compare the library against them.
`conjugation_corner_maps` has no library counterpart: the operator
tests use it to check the corner identity TCheck = W1 That^T conj(W2).
`dumps_payload` is the payload text through json.dumps of the whole tree;
`distinct_write_operator_text` and `distinct_read_operator_text` are the
payload writer and reader that format or parse each distinct number of a
block once and rebuild the whole document to check its layout, and
`assembled_certified_norm` and `assembled_norm_bracket` the recovery
residual and its norm bracket on the difference E assembled whole
(`assembled_difference`). `block_degrees` and `coefficient_matrix` gather a
block's entries at an integer array of its degrees, the route
`gather_build_dtto` and `gather_zbar_predictions` take where the library
reads strided views; `fresh_block_conditions` allocates each whole block
residual anew where the library takes it in bands through one buffer, and
`sparse_to_json` is a polynomial's payload through its sparse coefficient
dict. `dense_shift_invariance_defect` is the shift check on a section
from the four block residuals (`_shift_residuals`) assembled by np.block
and transposed whole. `uncut_expand` expands an inner function to
`uncut_expansion_degree`, the larger of the reach and the cap degree,
with no cut at the floor degree where `expand` stops. Four helpers have
no library counterpart and serve the tests only: `adjoint`, the block
operator of D^H; `verify_inner`, which samples |B| on the circle from the
rational form or a truncated expansion; and `gram_defect` and
`membership_defect`, how far a basis is from orthonormal and a polynomial
from its span.
"""

from __future__ import annotations

import cmath
import json
from typing import NamedTuple

import numpy as np

from msolab.annihilate import MEMBERSHIP_TOL, FiniteRankOperator
from msolab.bases import OrthonormalBasis
from msolab.characterize import (AnalyticVerdict, DefectReport, _report,
                                 _shift_terms, _zbar_symbol,
                                 default_tolerance)
from msolab.errors import DimensionError, InputError
from msolab.inner import (BlaschkeProduct, _expand_cached, expand,
                          expansion_degree, tm_basis)
from msolab.laurent import (LaurentPolynomial, conj_function, inner_product,
                            involution_J, minus_part, monomial, multiply)
from msolab.operators import BlockOperator, SymbolFunction
from msolab.payload import (_BLOCKS, _COMPACT, BLOCK_NAMES, _read_cells,
                            write_complex)
from msolab.spaces import (SHIFT_KERNEL_TOL, admissible_for_shift, basis_Kperp,
                           conjugation_C, project, section_expansion,
                           section_shift_index)


def pairing_matrix(images, codomain) -> np.ndarray:
    """Entries <image_j, c_i> stacked into a (dim codomain, len images) matrix."""
    polys = list(images) + list(codomain.vectors)
    lo = min((p.lo for p in polys if not p.is_zero()), default=0)
    hi = max((p.hi for p in polys if not p.is_zero()), default=0)
    A = np.vstack([p.dense(lo, hi) for p in images])
    C = codomain.stacked(lo, hi)
    return C.conj() @ A.T


def pairing_build_tto(theta, alpha, phi):
    """build_tto's entries as pairings of the images against the stacked
    codomain basis."""
    phi = SymbolFunction.parse(phi)
    images = [multiply(phi.value, e) for e in tm_basis(theta)]
    return pairing_matrix(images, tm_basis(alpha))


def pairing_build_dtto(theta, alpha, phi, M) -> BlockOperator:
    """build_dtto through 2(M+1) polynomial products paired against the
    dense codomain section; its first M+1 rows are the alpha*H2 head."""
    phi = SymbolFunction.parse(phi)
    images = [multiply(phi.value, v) for v in basis_Kperp(theta, M)]
    n = M + 1
    P = pairing_matrix(images, basis_Kperp(alpha, M))
    return BlockOperator(that=P[:n, :n], gamma_check=P[:n, n:],
                         gamma_hat=P[n:, :n], t_check=P[n:, n:],
                         theta=theta, alpha=alpha, M=M, edge=phi.reach)


def block_degrees(M: int) -> list[np.ndarray]:
    """The degree each entry (i, j) of a depth-M block reads, in block order
    That, GammaCheck, GammaHat, TCheck: i - j, i + j + 1, -(i + j + 1) and
    j - i."""
    i, j = np.ogrid[:M + 1, :M + 1]
    return [i - j, i + j + 1, -(i + j + 1), j - i]


def coefficient_matrix(p: LaurentPolynomial, degrees: np.ndarray) -> np.ndarray:
    """Coefficients of p at an integer array of degrees (a Toeplitz matrix
    for degrees i - j, a Hankel matrix for degrees +-(i + j + 1))."""
    lo = int(np.min(degrees))
    return p.dense(lo, int(np.max(degrees)))[degrees - lo]


def dtto_sequences(theta: BlaschkeProduct, alpha: BlaschkeProduct, phi,
                   M: int) -> tuple[LaurentPolynomial, ...]:
    """The four sequences build_dtto reads its blocks from, in block order."""
    phi = SymbolFunction.parse(phi)
    phi_th = multiply(phi.value, section_expansion(theta, M))
    al_bar = conj_function(section_expansion(alpha, M))
    return (multiply(phi_th, al_bar), multiply(phi.value, al_bar), phi_th,
            phi.value)


def gather_build_dtto(theta: BlaschkeProduct, alpha: BlaschkeProduct, phi,
                      M: int) -> BlockOperator:
    """build_dtto with each block gathered at block_degrees (no guard)."""
    sequences = dtto_sequences(theta, alpha, phi, M)
    return BlockOperator(*(coefficient_matrix(p, degrees) for p, degrees
                           in zip(sequences, block_degrees(M))),
                         theta=theta, alpha=alpha, M=M,
                         edge=SymbolFunction.parse(phi).reach)


def _shift_residuals(D: BlockOperator) -> list[list[np.ndarray]]:
    """<D(z f), z g> - <D f, g> in the layout of characterize._shift_terms,
    each block residual a new array."""
    return [[a - b for a, b in row] for row in _shift_terms(D)]


def dense_shift_invariance_defect(D: BlockOperator, tol: float) -> DefectReport:
    """shift_invariance_defect on a block operator from the four block
    residuals assembled by np.block and transposed whole."""
    return _report("shift-invariance", np.block(_shift_residuals(D)).T, tol)


def fresh_block_conditions(D: BlockOperator, tol: float) -> list[DefectReport]:
    """check_block_conditions with a new residual and modulus per condition,
    GammaCheck's transposed after the subtraction."""
    [[r1, r4], [r3, r2]] = _shift_residuals(D)
    return [_report("that-shift-sandwich", r1, tol),
            _report("tcheck-shift-sandwich", r2, tol),
            _report("gammahat-intertwine", r3, tol),
            _report("gammacheck-intertwine", r4.T, tol)]


def gather_zbar_predictions(D: BlockOperator, phi_z: SymbolFunction):
    """characterize._zbar_predictions gathered at block_degrees and at the
    degrees -1..-(M+1)."""
    M = D.M
    th = expand(D.theta, 2 * M + 4)
    al = expand(D.alpha, 2 * M + 4)
    g = multiply(phi_z.value, multiply(th, conj_function(al)))
    minus_degrees = -np.arange(1, M + 2)
    return (coefficient_matrix(g, block_degrees(M)[0]),
            coefficient_matrix(multiply(phi_z.value, th), minus_degrees),
            coefficient_matrix(multiply(conj_function(phi_z.value), al),
                               minus_degrees))


def sparse_to_json(p: LaurentPolynomial) -> dict:
    """LaurentPolynomial.to_json through the sparse coefficient dict."""
    return {"coeffs": [[k, *write_complex(c)] for k, c in sorted(p.coeffs.items())]}


def gram_defect(basis) -> float:
    """Largest entry of |V V^H - I| over the stacked basis vectors V."""
    V = basis.stacked()
    return float(np.max(np.abs(V @ V.conj().T - np.eye(basis.dim)), initial=0.0))


def membership_defect(basis, f: LaurentPolynomial) -> float:
    """Norm of the component of f outside the span of the basis."""
    return basis.coords_and_defect(f)[1]


def dense_coords(basis, f: LaurentPolynomial) -> np.ndarray:
    """Pairings <f, v_k> against the stacked basis vectors."""
    lo, hi = basis.band()
    return basis.stacked(lo, hi).conj() @ f.dense(lo, hi)


def dense_reconstruct(basis, x) -> LaurentPolynomial:
    """sum_k x_k v_k over the stacked basis vectors."""
    lo, _ = basis.band()
    return LaurentPolynomial._from_dense(lo, np.asarray(x) @ basis.stacked())


def dense_coords_and_defect(basis, f: LaurentPolynomial):
    """Coordinates and the norm of f minus its reconstruction."""
    x = dense_coords(basis, f)
    return x, (f - dense_reconstruct(basis, x)).norm()


def loop_pair(T, t) -> complex:
    """pair as a loop over the dyads: one vector at a time, its coordinates
    and the norm of the vector minus its reconstruction, then one product
    with the assembled matrix per dyad."""
    dom, cod = T.domain_basis(), T.codomain_basis()
    A = T.assemble() if isinstance(T, BlockOperator) else T.entries
    acc = 0j
    for f, g in t.dyads:
        x, y = dom.coords(f), cod.coords(g)
        for side, basis, vec, coords in (("f", dom, f, x), ("g", cod, g, y)):
            defect = (vec - basis.reconstruct(coords)).norm()
            if defect > MEMBERSHIP_TOL * max(1.0, vec.norm()):
                raise DimensionError(
                    f"dyad vector {side} leaves the {basis.label} span by {defect:.2e}")
        acc += np.vdot(y, A @ x)
    return complex(acc)


def indexed_gen_M(index, theta, alpha, h, g) -> FiniteRankOperator:
    """Family `index` (1..6) of gen_M, built alone: theta and alpha expanded
    and every product formed again for each family."""
    th = expand(theta)
    al = expand(alpha)
    zbar_gbar = multiply(monomial(-1), conj_function(g))
    zbar_hbar = multiply(monomial(-1), conj_function(h))
    if index == 1:
        a, b = multiply(th, h), multiply(al, g)
        return FiniteRankOperator([(a, b), (-a.shift(1), b.shift(1))])
    if index == 2:
        a = multiply(multiply(al, th), h)
        b = multiply(multiply(al, th), g)
        return FiniteRankOperator([(a, b), (-zbar_gbar, zbar_hbar)])
    if index == 3:
        a = multiply(th, h)
        return FiniteRankOperator([(a.shift(1), zbar_gbar),
                                   (-a, zbar_gbar.shift(-1))])
    if index == 4:
        b = multiply(al, g)
        return FiniteRankOperator([(zbar_hbar, b.shift(1)),
                                   (-zbar_hbar.shift(-1), b)])
    if index == 5:
        a = multiply(multiply(th, al), g.shift(1))
        return FiniteRankOperator([(th, zbar_gbar), (-a, al)])
    a = multiply(multiply(al, th), g.shift(1))
    return FiniteRankOperator([(th, a), (-zbar_gbar, al)])


def _shift_candidates(V) -> list[LaurentPolynomial]:
    """The vectors whose shift identities loop_shift_invariance_defect
    tests: a section's admissible vectors, or each model basis vector
    projected onto the span of the model space's admissible vectors, one
    polynomial pairing at a time."""
    if V.kind != "model":
        return admissible_for_shift(V).vectors
    adm = svd_admissible_for_shift(V).vectors
    out = []
    for e in V:
        acc = LaurentPolynomial.zero()
        for a in adm:
            acc = acc + a.scale(inner_product(e, a))
        out.append(acc)
    return out


def loop_shift_invariance_defect(mat, domain, codomain, tol) -> DefectReport:
    """shift_invariance_defect as a double loop over the candidate vectors
    of `_shift_candidates`: the admissible pairs of the sections, the
    projected basis vectors of the model spaces."""
    targets = _shift_candidates(codomain)
    defect = 0.0
    witnesses = []
    for p, f in enumerate(_shift_candidates(domain)):
        xf = domain.coords(f)
        xzf = domain.coords(f.shift(1))
        af, azf = mat @ xf, mat @ xzf
        for q, g in enumerate(targets):
            yg = codomain.coords(g)
            yzg = codomain.coords(g.shift(1))
            dev = abs(np.vdot(yzg, azf) - np.vdot(yg, af))
            if dev > defect:
                defect = dev
            if dev > tol:
                witnesses.append((p, q, float(dev)))
    witnesses.sort(key=lambda w: -w[2])
    return DefectReport("shift-invariance", float(defect), tol, witnesses[:3])


def gather_shift_invariance_defect(D: BlockOperator, tol) -> DefectReport:
    """shift_invariance_defect on a block operator as one gather of entries
    of the assembled matrix: z v[keep[p]] = v[moved[p]] on the section, so
    the deviation of the pair (p, q) is |A[moved[q], moved[p]] -
    A[keep[q], keep[p]]|."""
    A = D.assemble()
    keep, moved = section_shift_index(D.M)
    dev = np.abs(A[np.ix_(moved, moved)] - A[np.ix_(keep, keep)]).T
    return _report("shift-invariance", dev, tol)


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

    W1 represents theta z^k -> P-( C_alpha(z^k) ) from the theta*H2 head of
    the depth-M section to its H2minus tail; W2 represents
    zbar^(j+1) -> theta * C_alpha(zbar^(j+1)) from the tail into the
    alpha*H2 head (the image theta*alpha*z^j lies in both sections; head
    coordinates are the ones the adjoint of a That block consumes). Both
    act on coordinates via x -> W conj(x) (antilinear). The rows are the
    tail rows and the head rows of one pairing against basis_Kperp(alpha, M).
    """
    cod = basis_Kperp(alpha, M)
    th = section_expansion(theta, M)
    n = M + 1

    images1 = [minus_part(conjugation_C(alpha, LaurentPolynomial.monomial(k)))
               for k in range(n)]
    W1 = pairing_matrix(images1, cod)[n:]

    images2 = [multiply(th, conjugation_C(alpha, LaurentPolynomial.monomial(-(j + 1))))
               for j in range(n)]
    W2 = pairing_matrix(images2, cod)[:n]
    return W1, W2


def svd_admissible_for_shift(V) -> OrthonormalBasis:
    """admissible_for_shift through the generic route: the kernel of
    (I - P) o M_z, P the projection onto the space, from an SVD of the
    shift residuals. A model space takes every basis vector as a
    candidate; a section first drops its top analytic layer theta z^M."""
    if V.kind == "model":
        candidates, space = V.vectors, "model"
    else:
        candidates = V.vectors[:V.depth] + V.vectors[V.depth + 1:]
        space = "model_perp"
    residuals = [v.shift(1) - project(V.inner, space, v.shift(1))
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
    return OrthonormalBasis(f"admissible[{V.label}]", vectors, kind="admissible",
                            inner=V.inner, depth=V.depth)


def adjoint(D: BlockOperator) -> BlockOperator:
    """The block operator of D^H between the swapped sections: each block
    conjugate-transposed, the antidiagonal ones swapped."""
    return BlockOperator(that=D.that.conj().T, gamma_check=D.gamma_hat.conj().T,
                         gamma_hat=D.gamma_check.conj().T, t_check=D.t_check.conj().T,
                         theta=D.alpha, alpha=D.theta, M=D.M, edge=D.edge)


def poly_apply(D: BlockOperator, f: LaurentPolynomial) -> LaurentPolynomial:
    """D applied to a function lying in its domain section: coordinates, a
    matrix-vector product, then the rebuild in the codomain section."""
    return D.codomain_basis().reconstruct(D.apply(D.domain_basis().coords(f)))


def poly_zbar_symbol(D: BlockOperator) -> SymbolFunction:
    """The zbar-corner symbol from the images D(zbar) and D*(zbar): the
    antianalytic part is P-(z D(zbar)), the analytic part J P-(D*(zbar))."""
    d_zbar = poly_apply(D, monomial(-1))
    dstar_zbar = poly_apply(adjoint(D), monomial(-1))
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
    th = expand(D.theta, 2 * D.M + 4)
    al = expand(D.alpha, 2 * D.M + 4)
    phi_z = _zbar_symbol(D)
    d_theta = poly_apply(D, th)
    dstar_alpha = poly_apply(adjoint(D), al)
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
    n_shared = max(expansion_degree(D.theta, 2 * D.M + 4),
                   expansion_degree(D.alpha, 2 * D.M + 4))
    th = expand(D.theta, n_shared)
    al = expand(D.alpha, n_shared)
    dom, cod = D.domain_basis(), D.codomain_basis()
    phi_z = _zbar_symbol(D)
    d_theta = poly_apply(D, th)
    dstar_alpha = poly_apply(adjoint(D), al)
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


def dumps_payload(op) -> str:
    """An operator payload as `build` writes it, without its newline: the
    whole tree through json.dumps, sorted and compact."""
    return json.dumps(op.to_json(), sort_keys=True, separators=(",", ":"))


def distinct_write_operator_text(op: BlockOperator) -> str:
    """dumps_payload(op) with every block through _write_distinct_cells
    and the document spliced around the block texts."""
    document = op.to_json_with(
        lambda a: _write_distinct_cells(np.ascontiguousarray(a, dtype=np.complex128)))
    return _spliced(document, document.pop("blocks"))


def _write_distinct_cells(a: np.ndarray) -> str:
    """A block's compact text with one repr per distinct float64 bit
    pattern and one "[re,im]" per distinct pair of them."""
    bits = a.view(np.uint64)
    floats, which = np.unique(bits, return_inverse=True)
    text = list(map(repr, floats.view(np.float64).tolist()))
    k = len(floats)
    which = which.reshape(-1, 2)
    codes, cell = np.unique(which[:, 0] * k + which[:, 1], return_inverse=True)
    cells = np.array([f"[{text[c // k]},{text[c % k]}]" for c in codes.tolist()],
                     dtype=object)
    rows = cells[cell.reshape(-1)].reshape(a.shape).tolist()
    return "[" + ",".join("[" + ",".join(row) + "]" for row in rows) + "]"


def distinct_read_operator_text(text: str) -> dict | None:
    """payload.read_operator_text through block substrings, a rebuilt
    document compared with the text, and distinct_read_block_text."""
    start = text.find(_BLOCKS)
    if start < 0:
        return None
    cut, blocks = start + len(_BLOCKS), {}
    for name in sorted(BLOCK_NAMES):
        key = f'"{name}":'
        end = text.find("]]]", cut) + 3
        if end < cut or not text.startswith(key, cut):
            return None
        blocks[name], cut = text[cut + len(key):end], end + 1
    head, tail = text[:start], text[cut:]
    try:
        rest = json.loads(head[:-1] + tail if head.endswith(",") else head + tail[1:])
        if not isinstance(rest, dict) or type(rest.get("M")) is not int \
                or rest["M"] < 0 or _spliced(rest, blocks) != text.rstrip(" \t\n\r"):
            return None
    except (ValueError, RecursionError):
        return None
    for name in BLOCK_NAMES:
        blocks[name] = distinct_read_block_text(blocks[name], rest["M"] + 1)
        if blocks[name] is None:
            return None
    return {**rest, "blocks": blocks}


def _spliced(document: dict, blocks: dict) -> str:
    head = json.dumps({k: v for k, v in document.items() if k < "blocks"}, **_COMPACT)
    tail = json.dumps({k: v for k, v in document.items() if k > "blocks"}, **_COMPACT)
    section = _BLOCKS + ",".join(f'"{name}":{blocks[name]}'
                                 for name in sorted(blocks)) + "}"
    return "{" + ",".join(filter(None, (head[1:-1], section, tail[1:-1]))) + "}"


def distinct_read_block_text(text: str, n: int) -> np.ndarray | None:
    """A block text read with each distinct "re,im" cell through json.loads
    once, or, when most cells are distinct, all of them as one flat list."""
    if len(text) < 6 * n * n + 2 * n + 1 or not (
            text.startswith("[[[") and text.endswith("]]]")):
        return None
    rows = text[3:-3].split("]],[[")
    if len(rows) != n:
        return None
    cells = []
    for row in rows:
        row = row.split("],[")
        if len(row) != n:
            return None
        cells += row
    distinct = dict.fromkeys(cells)
    if 2 * len(distinct) > len(cells):
        values = _read_cells(cells)
    else:
        values = _read_cells(list(distinct))
        if values is not None:
            index = dict(zip(distinct, range(len(distinct))))
            values = values[np.fromiter(map(index.__getitem__, cells), np.intp,
                                        len(cells))]
    return None if values is None else values.reshape(n, n)


def assembled_certified_norm(D: BlockOperator, rebuilt: BlockOperator,
                             tol: float) -> float:
    """characterize._certified_norm on E = D - rebuilt assembled whole by
    np.block, with the bracket of assembled_norm_bracket: NaN, without the
    SVD, for a NaN bracket."""
    bracket = assembled_norm_bracket(D, rebuilt)
    if bracket is None:
        return 0.0
    lo, hi = bracket
    if hi <= tol or lo > tol or np.isnan(hi):
        return hi
    return float(np.linalg.norm(assembled_difference(D, rebuilt), 2))


def assembled_norm_bracket(D: BlockOperator, rebuilt: BlockOperator):
    """characterize._norm_bracket from sums over the whole of |E| and |E|^2
    for E = D - rebuilt assembled whole."""
    E = assembled_difference(D, rebuilt)
    if not E.any():
        return None
    A = np.abs(E)
    with np.errstate(over="ignore"):
        sq = A * A
        lo = np.sqrt(np.maximum(sq.sum(axis=0).max(), sq.sum(axis=1).max()))
        hi = np.sqrt(A.sum(axis=0).max()) * np.sqrt(A.sum(axis=1).max())
    slack = (max(E.shape) + 4) * float(np.finfo(float).eps)
    return float(lo) * (1 - slack), float(hi) * (1 + slack)


def assembled_difference(D: BlockOperator, rebuilt: BlockOperator) -> np.ndarray:
    """D - rebuilt assembled by np.block from the blocks as held."""
    d, r = D.blocks(), rebuilt.blocks()
    return np.block([[d[0] - r[0], d[1] - r[1]], [d[2] - r[2], d[3] - r[3]]])


def uncut_expansion_degree(B: BlaschkeProduct, reach: int) -> int:
    """The reach, raised to B.cap_degree, and never cut at B.floor_degree."""
    return max(int(reach), B.cap_degree)


def uncut_expand(B: BlaschkeProduct, reach: int = 0) -> LaurentPolynomial:
    """The power series of B to uncut_expansion_degree(B, reach)."""
    return _expand_cached(B, uncut_expansion_degree(B, reach))


class InnerCheck(NamedTuple):
    ok: bool
    deviation: float
    tail_bound: float


def verify_inner(B: BlaschkeProduct, samples: int = 256, tol: float = 1e-13, *,
                 expansion_degree: int | None = None) -> InnerCheck:
    """Max deviation of |B| from 1 over uniform circle samples.

    By default the exact rational form is evaluated. Passing an expansion
    degree evaluates the truncated power series instead, which fails (with
    the tail bound reported) whenever the discarded tail is visible.
    """
    if samples < 8:
        raise InputError("at least 8 samples required")
    if expansion_degree is None:
        values = [B.evaluate(cmath.exp(2j * cmath.pi * j / samples))
                  for j in range(samples)]
        tail = 0.0
    else:
        if expansion_degree < B.degree:
            raise InputError(f"expansion degree {expansion_degree} below the "
                             f"product degree {B.degree}")
        poly = _expand_cached(B, expansion_degree)
        values = [poly.evaluate(cmath.exp(2j * cmath.pi * j / samples))
                  for j in range(samples)]
        tail = B.tail_bound_at(expansion_degree)
    deviation = max(abs(abs(v) - 1.0) for v in values)
    return InnerCheck(deviation <= tol, deviation, tail)
