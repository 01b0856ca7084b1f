"""Dense complex linear algebra kernel.

Thin, tolerance-aware wrappers over LAPACK (through numpy and scipy):
Hermitian and unitary eigendecompositions with a deterministic phase
convention, the one rule that decides two phases equal (`phase_classes`),
the matrix exponential, thin-QR coordinates of operator families from
their entries, the frame gap ||A A† - B B†|| read from them, the one rank
cut (`rank`), the least-norm maps between jump spans read from one SVD and
the one rule that accepts their unitary certificates (`SpanMap`), and the
linear assignment problem (a port of the solver scipy runs, so that
importing this module does not load scipy.optimize).  An operator is a
complex array or a canonical complex CSR matrix (`operator`); `dense` is
the one way from the second to the first, `entries` reads the stored
entries of either, and `frob`, `distance`, `nonzeros`, `support` and
`check_unitary` read either form.

The one form rule: every operator the program holds from its input is
held in its `working` form, which its dim alone decides, whatever form it
arrives in: up to SMALL_DIM a complex array, above it a canonical CSR
array of its stored entries (`from_entries`).  Only this module reads
SMALL_DIM.
Nothing keeps global state, so calls are safe from concurrent workers.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.sparse

DEFAULT_TOL = 1e-9
ROUNDING_FLOOR = 1e-12
SMALL_DIM = 32      # largest dim of an operator held as an array (16 KiB)


class LinalgError(Exception):
    pass


class NotHermitianError(LinalgError):
    pass


class NotUnitaryError(LinalgError):
    pass


class NoConvergenceError(LinalgError):
    pass


class ShapeError(LinalgError):
    pass


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def operator(a):
    """a in one of the two operator forms: a complex array (a itself when it
    is one), or for a scipy.sparse matrix a canonical complex CSR array (a
    itself when it is one, else a copy, duplicates summed)."""
    if not scipy.sparse.issparse(a):
        return np.asarray(a, dtype=complex)
    if isinstance(a, scipy.sparse.csr_array) and a.dtype == complex \
            and a.has_canonical_format:
        return a
    a = scipy.sparse.csr_array(a, dtype=complex, copy=True)
    a.sum_duplicates()
    return a


def dense(a, what: str = "an operator") -> np.ndarray:
    """a as an array: a sparse matrix's stored entries are written (not
    added, as scipy's toarray does, which turns -0.0 into +0.0) into zeros,
    so every bit is kept.  An array numpy refuses to allocate raises
    MemoryError naming `what`, the stage that needs it."""
    if not scipy.sparse.issparse(a):
        return np.asarray(a)
    try:
        out = np.zeros(a.shape, dtype=complex)
    except (ValueError, MemoryError) as exc:    # ValueError: beyond the address range
        raise MemoryError(f"{what} needs a dense {a.shape[0]} x {a.shape[1]} array, "
                          "which cannot be allocated") from exc
    rows, cols, values = entries(a)
    out[rows, cols] = values
    return out


def stored(values: np.ndarray) -> np.ndarray:
    """Whether each complex value has a nonzero bit, that is a nonzero part
    or a negative zero: the entries a model file and a CSR form keep, so
    that every bit reads back."""
    values = np.ascontiguousarray(values, dtype=complex)
    parts = values.view(np.uint64).reshape(*values.shape, 2)
    return (parts[..., 0] | parts[..., 1]) != 0


def working(a):
    """a in its working form, the form every operator the program holds
    from its input is held in: up to SMALL_DIM a complex array, above it a
    canonical CSR array of its stored entries (`from_entries`), whatever
    form a comes in; a itself when it is in that form.  Up to SMALL_DIM a
    d x d array costs less than one of scipy.sparse's constructions or
    products (some 25-50 us each); above it, a held operator's bytes follow
    from its stored entries alone.  A non-square a keeps its `operator`
    form, for its reader to refuse."""
    a = operator(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return a
    if a.shape[0] <= SMALL_DIM:
        return dense(a)
    if isinstance(a, np.ndarray) or not stored(a.data).all():
        return from_entries(*entries(a), a.shape[0])
    return a


def from_entries(rows, cols, values, d: int):
    """The working form of the d x d operator with values[e] at (rows[e],
    cols[e]), each position named once, in any order, and 0 elsewhere: up
    to SMALL_DIM the values written into a complex array, above it the
    canonical CSR array of those that are `stored`.  Every bit of every
    value is kept."""
    values = np.asarray(values, dtype=complex)
    if d <= SMALL_DIM:
        out = np.zeros((d, d), dtype=complex)
        out[rows, cols] = values
        return out
    keep = np.flatnonzero(stored(values))
    flat = np.asarray(rows, dtype=np.int64)[keep] * d + np.asarray(cols)[keep]
    if np.any(flat[1:] < flat[:-1]):
        order = np.argsort(flat, kind="stable")
        flat, keep = flat[order], keep[order]
    return scipy.sparse.csr_array(
        (values[keep], flat % d, np.searchsorted(flat, np.arange(0, d * d + 1, d))),
        shape=(d, d))


def frob(a) -> float:
    """Frobenius norm, summed as np.linalg.norm sums it (the squares of the
    real and the imaginary parts, each in one dot product) without its
    argument handling; of a sparse matrix, over its stored entries.  (An
    array is told apart by one isinstance test: scipy.sparse.issparse's abc
    check costs 0.5 us, in the some 170 calls of a simulate op at d = 27.)"""
    x = a if isinstance(a, np.ndarray) else \
        a.data if scipy.sparse.issparse(a) else np.asarray(a)
    x = x.ravel(order="K")
    if x.dtype.kind == "c":
        return math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag))
    x = x.astype(float, copy=False)
    return math.sqrt(x.dot(x))


def norms(a: np.ndarray) -> np.ndarray:
    """Column 2-norms, summed as np.linalg.norm sums them, through one
    temporary array the size of a."""
    sq = np.conjugate(a)
    np.multiply(sq, a, out=sq)
    return np.sqrt(np.add.reduce(sq.real, axis=0))


def remove_trace(m):
    """m - tr(m)/d 1 for a d x d operator m: an array in place, returned; a
    CSR matrix as a new one, its stored entries with tr(m)/d taken off the
    diagonal (`from_entries`), the diagonal's bits those the array gives."""
    d = m.shape[0]
    if isinstance(m, np.ndarray):
        m[np.diag_indices(d)] -= np.trace(m) / d
        return m
    rows, cols, values = entries(m)
    on, diagonal = rows == cols, np.zeros(d, dtype=complex)
    diagonal[rows[on]] = values[on]
    diagonal -= m.trace() / d
    return from_entries(np.append(rows[~on], np.arange(d)),
                        np.append(cols[~on], np.arange(d)), np.append(values[~on], diagonal), d)


def distance(a, b=None, traceless: bool = False) -> float:
    """||X|| for X = a - b (X = a when b is None), or with traceless
    ||X - tr(X)/d 1||, the difference taken before the norm, of operators
    in their `working` forms, which it converts nothing to: up to dim
    SMALL_DIM, where those are arrays, X is one array (a - b, or a copy of
    a); above, it is read from their `nonzeros`, at the union of their
    positions, with numpy, so an array and a CSR matrix with the same
    entries give the same bits."""
    if a.shape[0] <= SMALL_DIM:
        x = np.array(a) if b is None else a - b
        return frob(remove_trace(x) if traceless else x)
    (d, n), (_, position, x) = a.shape, nonzeros([a])
    if b is not None:
        _, other, y = nonzeros([b])
        if np.array_equal(position, other):     # one pattern
            x = x - y
        else:
            union = np.union1d(position, other)
            z = np.zeros(len(union), dtype=complex)
            z[np.searchsorted(union, position)] = x
            z[np.searchsorted(union, other)] -= y
            x, position = z, union
    if not traceless:
        return frob(x)
    on = position % (n + 1) == 0        # the diagonal's flat positions
    t = x[on].sum() / d
    # every diagonal position not stored holds -t
    return math.sqrt(frob(x[~on]) ** 2 + frob(x[on] - t) ** 2
                     + (d - np.count_nonzero(on)) * abs(t) ** 2)


def square(a) -> np.ndarray:
    """a as a complex array; ShapeError unless it is a square matrix."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected square matrix, got {a.shape}")
    return a


def threshold(tol: float) -> float:
    """tau(tol), the one threshold every decision compares its scale-free
    distance to.  Its floor is above the distances rounding leaves on
    symmetric inputs (at most 1.6e-14 measured), so rounding decides none.
    ValueError unless 0 < tol < 1 (at tau >= 2 every distance passes)."""
    tol = float(tol)
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must lie in (0, 1), got {tol!r}")
    return max(tol, ROUNDING_FLOOR)


def rank(s: np.ndarray, tol: float) -> int:
    """The one rank cut: how many singular values s (descending) exceed
    threshold(tol) times the largest."""
    return int(np.sum(s > threshold(tol) * s[:1]))


def check_unitary(gram, tol: float = DEFAULT_TOL) -> None:
    """Raise NotUnitaryError unless gram, U†U or U U† of an n x n U (an array
    or a sparse matrix), is within threshold(tol) max(1, sqrt(n)) of 1 in
    Frobenius norm; a NaN norm fails."""
    n = gram.shape[0]
    if scipy.sparse.issparse(gram):     # the diagonal less 1, and the rest
        rows, cols, values = entries(gram)
        on = rows == cols
        gap = math.sqrt(frob(values[on] - 1.0) ** 2 + frob(values[~on]) ** 2
                        + n - np.count_nonzero(on))
    else:
        gap = frob(gram - np.eye(n))
    if not gap <= threshold(tol) * max(1.0, np.sqrt(n)):
        raise NotUnitaryError("matrix is not unitary within tolerance")


def _column_phases(v: np.ndarray) -> tuple:
    """(index, moduli, factors): the (rows, columns) of each column's first
    entry of modulus above ROUNDING_FLOOR times the column's largest (row 0
    of an all-zero column), those entries' moduli, and the unit factors
    that make them real positive.  The cut is the rounding floor, not tau:
    the phase convention is fixed whatever tol a caller decides at, so
    eigenvectors and SJED destinations read the same at every --tol."""
    nrm = np.abs(v)
    index = (np.argmax(nrm > ROUNDING_FLOOR * nrm.max(axis=0), axis=0),
             np.arange(v.shape[1]))
    first = v[index]
    r = np.abs(first)   # zero only for an all-zero column, which stays as it is
    return index, r, np.where(r > 0, first / np.where(r > 0, r, 1.0), 1.0).conj()


def column_phases(v: np.ndarray) -> np.ndarray:
    """The unit factors that make each column's first non-negligible entry
    real positive."""
    return _column_phases(v)[2]


def fix_column_phases(v: np.ndarray) -> np.ndarray:
    """Rescale each column by its column_phases factor, so that its first
    non-negligible entry is real positive: that entry is set to its modulus
    exactly, which the product misses by a rounding-size imaginary part."""
    index, r, phases = _column_phases(v)
    out = v * phases
    out[index] = r
    return out


def hermitian_eigendecomposition(a):
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector columns), each column
    with its first non-negligible entry real positive.  Raises
    NotHermitianError if the input fails the Hermiticity precondition,
    decided at tau(DEFAULT_TOL).
    """
    a = square(a)
    scale = frob(a)
    if scale > 0 and frob(a - dag(a)) > threshold(DEFAULT_TOL) * max(scale, 1.0):
        raise NotHermitianError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh((a + dag(a)) / 2.0)
    return w, fix_column_phases(v)


def phase_classes(phases, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The one phase rule: phases a, b are equal when |arg e^{i(a - b)}| <=
    tau = threshold(tol).  Each phase's class: 0.0 if it equals 0; else,
    mod 2 pi, the least phase not yet classed names a class of every phase
    within tau above it, so no chain of close phases merges further."""
    tau, x = threshold(tol), np.mod(phases, 2.0 * np.pi)
    classes = np.where(np.minimum(x, 2.0 * np.pi - x) <= tau, 0.0, x)
    flat = classes.reshape(-1)
    order = np.argsort(flat, kind="stable")
    values, start = flat[order], np.count_nonzero(flat == 0.0)   # zeros sort first
    while start < len(values):
        end = np.searchsorted(values, values[start] + tau, side="right")
        flat[order[start:end]], start = values[start], end
    return classes


def unitary_eigendecomposition(u, tol: float = DEFAULT_TOL):
    """Eigenphases and eigenvectors of a unitary matrix.

    The complex Schur form of a normal matrix is diagonal and its Schur
    vectors are orthonormal, degenerate eigenspaces included.  Phases are
    returned in [0, 2pi), sorted by their `phase_classes` at tol (the zero
    class reading 0.0), in Schur order within a class.
    """
    u = square(u)
    check_unitary(dag(u) @ u, tol)
    t, v = scipy.linalg.schur(u, output="complex")
    phases = np.angle(np.diag(t))
    v = fix_column_phases(v)
    resid = frob(u @ v - v * np.exp(1j * phases))
    if resid > threshold(tol) * max(1.0, frob(u)):
        raise NoConvergenceError(f"eigen residual {resid:.2e} too large")
    classes = phase_classes(phases, tol)
    order = np.argsort(classes, kind="stable")
    return np.where(classes == 0.0, 0.0, np.mod(phases, 2.0 * np.pi))[order], v[:, order]


def matrix_exponential(m) -> np.ndarray:
    """exp(M) by scipy's scaling-and-squaring Pade method."""
    return scipy.linalg.expm(square(m))


def coordinates(rows: np.ndarray) -> np.ndarray:
    """Coordinates of vectors (the rows, overwritten) in one orthonormal
    basis of their span: R of a thin Householder QR run in place on the
    transpose.  Inner products and norms of combinations are read from R;
    vectors with no entries (or none at all) have R with no rows."""
    if not rows.size:
        return np.zeros((0, len(rows)), dtype=complex)
    geqrf, = scipy.linalg.lapack.get_lapack_funcs(("geqrf",), (rows,))
    qr, _, _, info = geqrf(rows.T, overwrite_a=True)
    if info != 0:
        raise LinalgError(f"geqrf failed with info {info}")
    return np.triu(qr[:min(qr.shape)])


def entries(a) -> tuple:
    """(rows, cols, values): the `stored` entries of a matrix in either
    form, row-major, read with numpy from an array or from the arrays of a
    sparse matrix's canonical CSR form (`operator`)."""
    a = operator(a)
    if isinstance(a, np.ndarray):
        rows, cols = np.nonzero(stored(a))
        return rows, cols, a[rows, cols]
    rows, keep = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), stored(a.data)
    if keep.all():      # as every held CSR operator's
        return rows, a.indices, a.data
    return rows[keep], a.indices[keep], a.data[keep]


def nonzeros(ops) -> tuple:
    """(k, flat, values): the nonzero entries of the arrays and 2-D
    scipy.sparse matrices ops[k] (stored zeros, signed or not, left out, as
    an array's are), each read row-major, at flat positions in their own
    operator."""
    flat, values = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    for a in ops:
        if scipy.sparse.issparse(a):
            rows, cols, data = entries(a)
            keep = data != 0
            flat.append(rows[keep] * a.shape[1] + cols[keep])
            values.append(data[keep])
        else:
            a = np.asarray(a)
            flat.append(np.flatnonzero(a))
            values.append(a.take(flat[-1]))
    return (np.repeat(np.arange(len(ops)), [len(f) for f in flat[1:]]),
            np.concatenate(flat), np.concatenate(values))


def support(a) -> tuple:
    """(rows, cols, block): the rows and the columns of a matrix, an array
    or sparse, that hold a nonzero entry, ascending, and the dense block of
    a on them, read from its `nonzeros`.  Zero rows and columns change no
    singular value or product J†J, so the block stands for a in both."""
    _, flat, data = nonzeros([a])
    rows, cols = np.divmod(flat, a.shape[1])
    r, c = np.unique(rows), np.unique(cols)
    block = np.zeros((len(r), len(c)), dtype=complex)
    block[np.searchsorted(r, rows), np.searchsorted(c, cols)] = data
    return r, c, block


def support_coordinates(rows, cols, values, nrows: int) -> np.ndarray:
    """`coordinates` of nrows vectors given by their entries: values[e] at
    position cols[e] of vector rows[e], duplicates summed.  Only the
    positions some entry names are kept; the others add nothing to the Gram
    matrix, so R changes at most by a unitary on its rows."""
    support, inverse = np.unique(cols, return_inverse=True)
    index, size = rows * len(support) + inverse, nrows * len(support)
    stack = np.empty(size, dtype=complex)
    stack.real = np.bincount(index, values.real, size)
    stack.imag = np.bincount(index, values.imag, size)
    return coordinates(stack.reshape(nrows, len(support)))


def operator_coordinates(*families) -> tuple:
    """Coordinates of every family's operators (a column each, one matrix
    per family) in one orthonormal basis of their joint span, from their
    `nonzeros`: dense or sparse matrices or vectors of one size."""
    ops = [a for family in families for a in family]
    if len({math.prod(np.shape(a)) for a in ops}) > 1:
        raise ShapeError("operators of different sizes")
    r = support_coordinates(*nonzeros(ops), len(ops))
    ends = np.cumsum([0, *map(len, families)])
    return tuple(r[:, a:b] for a, b in zip(ends[:-1], ends[1:]))


def frame_gap(a: np.ndarray, b: np.ndarray) -> tuple:
    """(||A A† - B B†||, ||A A†||, ||B B†||) for two vector families given
    by their coordinates in one orthonormal basis (the columns of a and b,
    see `coordinates`), the difference taken before its norm."""
    fa, fb = a @ dag(a), b @ dag(b)
    return frob(fa - fb), frob(fa), frob(fb)


class SpanMap:
    """The least-norm maps of targets onto the span of jumps, read from one
    SVD, and the one rule that accepts a unitary certificate of them.

    The columns of a are n jumps and those of b targets, as coordinates in
    one orthonormal basis (see `coordinates`).  tol fixes tau =
    threshold(tol) and the cut once: of a full SVD a = W S Z†, taken on
    first use, the `rank` r singular values are kept.  A zero column of a is a kernel vector exactly (its own row
    of Z†), so a zero jump keeps a zero target exactly.  A matrix u
    certifies the targets (`accept`) when u†u passes check_unitary and each
    target b_j is within tau ||b_j|| of sum_k u[j, k] a_k.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL):
        self.a, self.b, self.tol, self.tau = a, b, tol, threshold(tol)

    @cached_property
    def svd(self) -> tuple:
        """(W, S, Z†, r), r = rank(S, tau)."""
        n, live = self.a.shape[1], norms(self.a) > 0
        w, s, z = np.linalg.svd(self.a[:, live])
        zh = np.zeros((n, n), dtype=complex)
        zh[:len(z), live] = z
        zh[len(z):, ~live] = np.eye(n - len(z))
        return w, s, zh, rank(s, self.tau)

    @cached_property
    def mixing(self) -> tuple:
        """Least-norm X with b ~ a Xᵀ, read from the map X Z̄ = bᵀ W̄ S⁻¹
        the targets induce on the span, and ||b - a Xᵀ|| / ||b||."""
        w, s, zh, r = self.svd
        x = self.b.T @ w[:, :r].conj() / s[:r] @ zh[:r].conj()
        return x, frob(self.b - self.a @ x.T) / max(frob(self.b), 1e-300)

    def accept(self, u: np.ndarray):
        """u if it certifies the targets, else None."""
        try:
            check_unitary(dag(u) @ u, self.tol)
        except NotUnitaryError:
            return None
        ok = norms(self.b - self.a @ u.T) <= self.tau * norms(self.b)
        return u if np.all(ok) else None

    def certificate(self):
        """X + (1 - Z̄Zᵀ), the mixing completed by the identity on the jump
        kernel, if accepted (as for conjugates of a jump family), else None."""
        _, _, zh, r = self.svd
        return self.accept(self.mixing[0] + np.eye(len(zh)) - zh[:r].T @ zh[:r].conj())


def assign(cost, tol: float):
    """Least-cost bijection that uses only entries of cost at most tol.

    Returns pi with pi[i] the column matched to row i of the square cost
    matrix, or None when every bijection uses an entry above tol.  Solved
    as a linear assignment problem by Crouse's shortest augmenting path
    (IEEE Trans. Aerosp. Electron. Syst. 52(4), 1679, 2016), ported step
    for step from scipy's `linear_sum_assignment` with its tie rule: each
    row's search scans the columns it has not settled, first from the
    last column down, and of columns at equal path cost keeps the first
    unless a later one is unassigned.  So pi is scipy's on every matrix,
    ties included; the tests compare the two.
    """
    cost = np.asarray(cost, dtype=float)
    if cost.size == 0:
        return ()
    allowed = np.isfinite(cost) & (cost <= tol)
    # one forbidden constant above any all-allowed total keeps the solver
    # away from forbidden entries whenever an allowed bijection exists
    low = np.min(cost, where=allowed, initial=0.0)
    shifted = np.where(allowed, cost - low, 0.0)
    big = cost.shape[0] * np.max(shifted) + 1.0
    cols = _shortest_augmenting_path(np.where(allowed, shifted, big).tolist())
    if cols is None or not np.all(allowed[np.arange(len(cols)), cols]):
        return None
    return tuple(cols)


def _shortest_augmenting_path(c):
    """Column of each row in a least-cost assignment of the square list
    of rows c (floats, no NaN or -inf), or None if every assignment costs
    inf.  Row by row, a Dijkstra search over reduced costs c[i][j] - u[i]
    - v[j] finds the cheapest path to an unassigned column; the duals u, v
    are then updated and the path flipped.  The arithmetic, its order and
    the scan order are scipy's, so ties break as there."""
    n = len(c)
    inf = math.inf
    u, v = [0.0] * n, [0.0] * n
    path = [0] * n
    col4row, row4col = [-1] * n, [-1] * n
    for cur in range(n):
        spc = [inf] * n               # shortest path cost to each column
        remaining = list(range(n - 1, -1, -1))
        rows, cols = [], []           # the rows and columns scanned
        i, min_val = cur, 0.0
        while True:
            rows.append(i)
            ci, ui = c[i], u[i]
            lowest, index = inf, -1
            for it, j in enumerate(remaining):
                r = min_val + ci[j] - ui - v[j]
                if r < spc[j]:
                    path[j] = i
                    spc[j] = r
                else:
                    r = spc[j]
                if r < lowest or (r == lowest and row4col[j] < 0):
                    lowest, index = r, it
            if lowest == inf:
                return None
            min_val = lowest
            j = remaining[index]
            remaining[index] = remaining[-1]
            remaining.pop()
            cols.append(j)
            if row4col[j] < 0:
                break
            i = row4col[j]
        u[cur] += min_val
        for i in rows[1:]:
            u[i] += min_val - spc[col4row[i]]
        for j in cols:
            v[j] -= min_val - spc[j]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    return col4row
