"""Quantum-jump Monte Carlo of conditional pure states.

Piecewise-deterministic sampling with full and coarse-grained emission
records, record weights, ensemble statistics, and two-sample symmetry
hypothesis tests.  An ensemble's records are three columns
(TrajectoryEnsemble): the time and label of every jump, trajectory by
trajectory, and the offsets where each trajectory's events start; the
sampler keeps each crossing batch's rows, times and labels as arrays and
orders them by row once, at the end of its pass.

Between jumps the unnormalized state evolves with the (constant)
effective Hamiltonian, so deterministic segments use the exact
propagator; waiting times come from the norm-decay threshold
method (Dalibard, Castin & Molmer, PRL 68, 580, 1992), whose norm slope
d||phi||^2/dt = -sum_j ||J_j phi||^2 lets a safeguarded Newton iteration
find each crossing.  It starts at the log-norm secant of the step, which
is the root when sum_j J_j† J_j is a multiple of the identity and the
norm decays as one exponential: one trial per crossing batch on such
models.  A trajectory whose norm falls below its threshold
within a grid step is parked with that step's start state while the
others step on; parked trajectories from many grid steps are resolved
together in one crossing batch, which reads one table of Taylor terms
(-i H_eff)^k phi / k!, built with one matrix product, so each trial time
costs a contraction with the powers s^k and k s^(k-1) rather than a new
series expansion.  An H_eff with exact zeros off its diagonal is
applied as a vector instead: grid steps are elementwise products and the
norm and its slope are read in closed form (_MomentPropagator).

Reproducibility contract: trajectory i of an ensemble with master seed
`seed` and `first_index` draws its k-th uniform as word k mod 4 of
Philox4x64-10 (Salmon et al., SC'11) at counter (k // 4 + 1, 0, 0, 0)
under key (seed mod 2^64, first_index + i), mapped to (x >> 11) * 2^-53:
numpy's layout, so the stream equals
Generator(Philox(key=(seed mod 2^64, first_index + i))).random().  Draw
0 is the first threshold and each jump takes the next two (label,
threshold).  The key is the row's own, whatever other ensembles share
its sampler pass (sample_ensembles), so records do not depend on
batching, on the ensembles sampled beside it or on --threads.  The
rounds run in numpy for every row at once (_philox_uniforms).  Every
matrix product over a stack of rows goes through _rows_product, and the
rest of a crossing's arithmetic is per row, so a trajectory's states are
the same bits in whatever batch, chunk or pass it is sampled.

Records export as JSON lines, each built once from the repr of its slice
of the event columns and of its final state (export_records), with no
JSON encoder per line.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import linalg
from .lindblad import Representation
from .linalg import DEFAULT_TOL, dag, frob
from .sjed import SjedPartition, build_sjeds

TIME_TOL_FACTOR = 1e-9
# largest ||H_eff|| the sampler steps, far below the ~1e15 where the
# Taylor matrices (-i H_eff)^k / k! overflow
MAX_HEFF_NORM = 1e8
# stands in for a zero horizon or ||H_eff||: the grid step and the
# crossing-time tolerance stay positive
_SCALE_FLOOR = 1e-12
# Taylor terms of e^{-i H s}: with ||H|| s <= 0.45, the grid-step bound in
# sample_ensembles, the first term left out is below 0.45^22 / 22! ~ 2e-29
_TAYLOR_TERMS = 22
# the chi-squared rule: a bin expecting fewer counts is pooled
_MIN_EXPECTED = 5.0
# grid steps one ensemble may take; a stiffer model or longer horizon is
# refused before its grid is built
MAX_GRID_STEPS = 100_000
# most Philox blocks buffered per sampler pass (8 MiB of uniforms), and
# the blocks evaluated together
_FILL_CAP = 2 ** 18
_PHILOX_CHUNK = 2 ** 13
# outer-product entries ensemble_average forms at once (4 MiB)
_AVERAGE_CHUNK = 2 ** 18
# ensemble_average's bootstrap: B resampled means, drawn from one fixed seed
_BOOTSTRAP_RESAMPLES = 200
_BOOTSTRAP_SEED = 1


class StiffnessError(RuntimeError):
    pass


class MissingPermutation(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


@dataclass
class TrajectoryEnsemble:
    """Sampled trajectories: their events as three columns, their states
    at each checkpoint.

    times (float64) and labels (int) hold every jump of the ensemble,
    trajectory by trajectory and each trajectory's in time order: the
    events of trajectory i are [offsets[i], offsets[i + 1]), so offsets
    holds size + 1 ints from 0 to the number of events.  states maps each
    checkpoint time to the (size, d) array of normalized state vectors.

    stats counts the sampler's work.  jumps and draws (uniforms taken,
    size + 2 jumps) are this ensemble's own.  grid_steps,
    crossing_batches (each resolves the rows parked over any number of
    grid steps, from every start of the pass), trials (root-finding
    evaluations of a batch's table) and philox_calls (bulk evaluations of
    the streams) count the whole sampler pass: every ensemble of one
    sample_ensembles call carries the same, undivided, counts.  join sums
    each count over the chunks.
    """

    times: np.ndarray
    labels: np.ndarray
    offsets: np.ndarray
    states: dict
    horizon: float
    seed: int
    rep_fingerprint: str
    stats: dict = field(default_factory=dict, compare=False)

    @classmethod
    def join(cls, parts) -> "TrajectoryEnsemble":
        """One ensemble from chunks of it: parts sampled from one model,
        seed, state and times, each with first_index the total size of
        the parts before it, join to the ensemble sampled at once (the
        reproducibility contract); their stats are summed."""
        parts = list(parts)
        first = parts[0]
        if len({(p.horizon, p.seed, p.rep_fingerprint, tuple(p.states)) for p in parts}) > 1:
            raise ValueError("parts of different ensembles do not join")
        shifts = np.cumsum([0] + [len(p.times) for p in parts[:-1]])
        return cls(np.concatenate([p.times for p in parts]),
                   np.concatenate([p.labels for p in parts]),
                   np.concatenate([first.offsets[:1]]
                                  + [p.offsets[1:] + k for p, k in zip(parts, shifts)]),
                   {t: np.vstack([p.states[t] for p in parts]) for t in first.states},
                   first.horizon, first.seed, first.rep_fingerprint,
                   {k: sum(p.stats[k] for p in parts) for k in first.stats})

    @property
    def size(self) -> int:
        return len(self.offsets) - 1

    def count_vectors(self, nlabels: int) -> np.ndarray:
        rows = np.repeat(np.arange(self.size), np.diff(self.offsets))
        return np.bincount(rows * nlabels + self.labels,
                           minlength=self.size * nlabels).reshape(self.size, nlabels)

    def coarse_count_vectors(self, partition: SjedPartition) -> np.ndarray:
        return self.count_vectors(len(partition.jumps)) @ partition.membership


def state_vector(psi) -> np.ndarray:
    """Unit vector of a pure density matrix (or pass a vector through):
    Hermitian and of largest eigenvalue 1, each within tau(DEFAULT_TOL)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 1:
        return psi / np.linalg.norm(psi)
    w, v = linalg.hermitian_eigendecomposition(psi)
    tau = linalg.threshold(DEFAULT_TOL)
    if w[-1] < 1.0 - tau * max(1.0, abs(w[-1])) - tau:
        raise ValueError(f"state is not pure: largest eigenvalue {w[-1]}")
    return v[:, -1]


def _rows_product(rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """rows @ mat, each row's result the same bits whatever rows stand
    beside it: numpy hands a one-row product to gemv, whose sums are
    ordered unlike gemm's, so a lone row is multiplied beside a copy."""
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ mat)[:1]
    return rows @ mat


def _record_weight(rep: Representation, psi0, times, labels, horizon: float,
                   actions) -> tuple:
    """phi_T and Tr phi_T of the record whose events are (times[k],
    labels[k]), label l acting as sum_{J in actions[l]} J phi J†."""
    times = np.asarray(times, dtype=float)
    if len(times) != len(labels):
        raise ValueError(f"{len(times)} event times for {len(labels)} labels")
    if not all(0 <= j < len(actions) for j in labels):
        raise ValueError(f"labels must lie in 0..{len(actions) - 1}")
    if not (np.all(np.diff(times, prepend=0.0) >= 0.0) and np.all(times < horizon)):
        raise ValueError("event times must be ordered within [0, horizon)")
    heff = rep.effective_hamiltonian
    phi = np.asarray(psi0, dtype=complex).copy()
    t_prev = 0.0
    for t, label in zip(times.tolist(), labels):
        g = linalg.matrix_exponential(-1j * (t - t_prev) * heff)
        phi = g @ phi @ dag(g)
        phi = sum(jm @ phi @ dag(jm) for jm in actions[label])
        t_prev = t
    g = linalg.matrix_exponential(-1j * (horizon - t_prev) * heff)
    phi = g @ phi @ dag(g)
    return phi, float(np.trace(phi).real)


def record_weight(rep: Representation, psi0, times, labels, horizon: float):
    """Unnormalized conditional state and probability density of the full
    record with jumps labels[k] at times[k] up to horizon.

    phi_T = G_{T-t_n} J_{j_n} ... J_{j_1} G_{t_1}(psi0) with
    G_t(phi) = e^{-i H_eff t} phi e^{i H_eff† t}; the density is Tr phi_T.
    Times out of order or outside [0, horizon), or a label that names no
    jump, raise ValueError.
    """
    return _record_weight(rep, psi0, times, labels, horizon,
                          [(jm,) for jm in rep.jumps])


def coarse_record_weight(rep: Representation, partition: SjedPartition,
                         psi0, times, labels, horizon: float):
    """Record weight of SJED labels: each jump action replaced by its set's
    composite action."""
    return _record_weight(rep, psi0, times, labels, horizon,
                          [[partition.jumps[j] for j in s.indices]
                           for s in partition.sets])


class _MomentPropagator:
    """Evaluate e^{-i H s} phi for many states, each at its own s, and step
    rows over the grid.

    An H with every off-diagonal entry exactly zero is applied as the
    vector h of its diagonal: e^{-i H s} phi is phi * exp(-i s h), and
    ||phi(s)||^2 = sum_a |phi_a|^2 e^{2 Im(h_a) s} and its slope are read
    in closed form, so a state's table is the state itself.  Any other H
    uses the truncated series sum_k s^k (-i H)^k phi / k!, exact to
    machine precision when ||H|| * s < 1/2.  The matrices (-i H)^k / k!
    are formed once, side by side in one (d, terms * d) matrix, so the
    s-free terms (-i H)^k phi / k! of a batch of states form a table built
    with one matrix product; evaluating it at any s is then one
    contraction with the powers s^k, and its norm slope one more with
    k s^(k-1).  Either way the root finder of a crossing batch reads one
    table, of shape (n, terms, d), at every trial time.
    """

    def __init__(self, heff: np.ndarray):
        self.heff = heff
        h = np.diagonal(heff)
        self.diagonal = h if np.array_equal(heff, np.diag(h)) else None
        self.steps: dict = {}                 # step length -> step propagator
        if self.diagonal is not None:
            self.rates = 2.0 * h.imag         # d||phi_a||^2/ds over |phi_a(s)|^2
            return
        a = -1j * heff
        mats = np.empty((_TAYLOR_TERMS, len(a), len(a)), dtype=complex)
        mats[0] = np.eye(len(a))
        for k in range(1, _TAYLOR_TERMS):
            mats[k] = (mats[k - 1] @ a) / k
        # column block k maps a row phi to phi (A^k / k!)^T
        self.mats = mats.transpose(2, 0, 1).reshape(len(a), -1)
        self.powers = np.arange(_TAYLOR_TERMS)

    def top_rate(self) -> float:
        """Largest total jump rate of a normalized state: the top
        eigenvalue of sum_j J_j† J_j = i (H - H†), H's Hermitian part
        being the Hamiltonian."""
        if self.diagonal is not None:
            return float(np.max(-self.rates))
        # eigh as in state_vector: eigvalsh would map ~0.3 MB more of LAPACK
        return float(np.linalg.eigh(1j * (self.heff - dag(self.heff)))[0][-1])

    def step(self, vecs: np.ndarray, dt: float) -> np.ndarray:
        """e^{-i H dt} phi of each row, the propagator formed once per
        step length."""
        if dt not in self.steps:
            self.steps[dt] = (np.exp(-1j * dt * self.diagonal) if self.diagonal is not None
                              else linalg.matrix_exponential(-1j * dt * self.heff).T)
        if self.diagonal is not None:
            return vecs * self.steps[dt]
        return _rows_product(vecs, self.steps[dt])

    def table(self, phis: np.ndarray) -> np.ndarray:
        """Series terms (-i H)^k phi / k! of each state, shape (n, terms, d)."""
        if self.diagonal is not None:
            return phis[:, None, :]
        return _rows_product(phis, self.mats).reshape(len(phis), len(self.powers), -1)

    def evaluate(self, table: np.ndarray, ss: np.ndarray) -> np.ndarray:
        """e^{-i H s} phi of each tabled state at its own s."""
        if self.diagonal is not None:
            return table[:, 0] * np.exp(-1j * ss[:, None] * self.diagonal)
        # real powers against the real view of the table: one stacked matmul
        return (ss[:, None, None] ** self.powers @ table.view(float))[:, 0].view(complex)

    def norms(self, table: np.ndarray, ss: np.ndarray) -> tuple:
        """||phi(s)||^2 and its derivative in s of each tabled state."""
        if self.diagonal is not None:
            phi = table[:, 0]
            decay = (phi.real ** 2 + phi.imag ** 2) * np.exp(ss[:, None] * self.rates)
            # row sums, not a gemv: each row's value is its own bits
            return decay.sum(axis=1), (decay * self.rates).sum(axis=1)
        k = self.powers
        coef = np.zeros((len(ss), 2, len(k)))
        coef[:, 0] = ss[:, None] ** k
        coef[:, 1, 1:] = k[1:] * coef[:, 0, :-1]
        terms = (coef @ table.view(float)).view(complex)
        phi, dphi = terms[:, 0], terms[:, 1]
        return (np.einsum("ij,ij->i", phi.conj(), phi).real,
                2.0 * np.einsum("ij,ij->i", phi.conj(), dphi).real)

    def apply(self, phis: np.ndarray, ss: np.ndarray) -> np.ndarray:
        return self.evaluate(self.table(phis), ss)


def _crossing_times(moments: _MomentPropagator, table: np.ndarray,
                    thresholds: np.ndarray, offsets: np.ndarray,
                    end_norms: np.ndarray, dt, time_tol: float) -> tuple:
    """Times in [offsets, dt] where each tabled norm falls to its threshold.

    dt is each row's step length, or one length for all rows: a batch
    may hold rows from grid steps of different lengths.  A row's
    [offset, dt] is cut into 2^nbits equal cells, nbits halvings bringing
    its dt to time_tol, and each time is the midpoint of the cell that
    holds the root of f(s) = ||phi(s)||^2 - threshold: what bisection
    would give, and independent of the other rows and of the last bits
    of the batch's arithmetic.
    The root is found by safeguarded Newton, with value and slope read
    from the table.  Each row starts at the log-norm secant
    ln(n0 / threshold) / ln(n0 / end_norm) of its step, n0 being its start
    norm (the table's first term): exact when the norm decays as one
    exponential, as it does when sum_j J_j† J_j is a multiple of the
    identity, so such a row stops on its first trial.  The start is
    finite on every parked row, since n0 >= threshold > end_norm >= 0
    (an end norm of 0 gives a start of 0, under errstate).  Each row
    keeps a bracket lo <= root <= hi with f(lo) >= 0 > f(hi).  A Newton
    step that leaves the bracket, or is more than half as long as the
    row's previous step, becomes a bisection step, at the cell boundary
    nearest the bracket's middle.  A row stops once its bracket lies
    within one cell or its Newton step is at most time_tol / 64, and is
    frozen from then on.
    Returns the times and the number of trials.
    """
    cells = np.exp2(np.ceil(np.log2(np.maximum(2.0, dt / time_tol))))   # 2^nbits
    cell = (dt - offsets) / cells
    # the iteration runs in cells from the offset, so cell boundaries are integers
    n0 = np.einsum("ij,ij->i", table[:, 0].conj(), table[:, 0]).real
    lo, hi = np.zeros(len(n0)), cells
    last = hi - lo                       # length of each row's previous step
    found = np.empty(len(n0))            # index of the root's cell
    rows = np.arange(len(n0))
    tab, thr, width = table, thresholds, cell
    trials = 0
    # np.minimum/np.maximum stand for np.clip, which costs more per call
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.minimum(np.maximum(np.log(n0 / thresholds) / np.log(n0 / end_norms),
                                  0.0), 1.0) * cells
        while rows.size:
            trials += 1
            value, slope = moments.norms(tab, u * width)
            f = value - thr
            above = f >= 0
            lo = np.where(above, u, lo)
            hi = np.where(above, hi, u)
            step = f / (slope * width)
            x = u - step
            size = np.abs(step)
            first, final = np.floor(lo), np.ceil(hi) - 1.0   # cells the bracket meets
            one_cell = first == final
            done = one_cell | (size * width <= time_tol / 64)
            newton = (lo < x) & (x < hi) & (size <= last / 2.0)
            if done.any():
                snap = np.minimum(np.maximum(np.floor(x), first), final)
                found[rows[done]] = np.where(one_cell, first, snap)[done]
                if done.all():           # every row at once, as on a constant rate
                    break
                keep = ~done
                rows, x, lo, hi, last = rows[keep], x[keep], lo[keep], hi[keep], last[keep]
                first, final, newton, size = first[keep], final[keep], newton[keep], size[keep]
                tab, thr, width = table[rows], thresholds[rows], cell[rows]
            u = np.where(newton, x,
                         np.minimum(np.maximum(np.rint((lo + hi) / 2.0), first + 1.0), final))
            last = np.where(newton, size, (hi - lo) / 2.0)
    return offsets + (found + 0.5) * cell, trials


def _jump(amp: np.ndarray, draws: np.ndarray) -> tuple:
    """Jump labels and normalized post-jump states of a crossing batch.

    amp[i, j] is J_j phi_i.  Row i takes the first label whose cumulative
    rate share reaches draws[i] (numpy's searchsorted, side "left").  The
    last share can round below a draw just under 1 (the total is summed
    pairwise, the shares in sequence), so labels are clamped to the last.
    """
    rates = np.einsum("ija,ija->ij", amp.conj(), amp).real
    total = rates.sum(axis=1)
    if np.any(total <= 0):
        raise StiffnessError("vanishing jump rates at a crossing")
    shares = np.cumsum(rates, axis=1) / total[:, None]
    labels = np.minimum((shares < draws[:, None]).sum(axis=1), rates.shape[1] - 1)
    vecs = amp[np.arange(len(labels)), labels]
    return labels, vecs / np.linalg.norm(vecs, axis=1)[:, None]


_MASK64 = 2 ** 64 - 1
# Philox4x64 multipliers (for counter words 0 and 2) and Weyl key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _philox_uniforms(seeds: np.ndarray, keys: np.ndarray,
                     counters: np.ndarray) -> np.ndarray:
    """Uniforms of Philox4x64-10 blocks, shape (len(counters), 4).

    Block b is the generator at counter (counters[b], 0, 0, 0) under key
    (seeds[b], keys[b]), both uint64 words, its words mapped to
    (x >> 11) * 2^-53 as numpy's Generator.random does.  Blocks are
    evaluated in chunks small enough for the working arrays to stay in
    cache.
    """
    out = np.empty((len(counters), 4))
    for a in range(0, len(counters), _PHILOX_CHUNK):
        chunk = slice(a, a + _PHILOX_CHUNK)
        out[chunk] = _philox_rounds(seeds[chunk], keys[chunk], counters[chunk])
    return out


def _philox_rounds(seeds: np.ndarray, keys: np.ndarray,
                   counters: np.ndarray) -> np.ndarray:
    """The ten rounds of _philox_uniforms, in place where numpy allows.

    A round maps (c0, c1, c2, c3) to (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1,
    lo0), where hi_i:lo_i is the 128-bit product M_i c_2i; its high word
    is summed from the 32-bit halves' products in uint64 arithmetic.
    """
    k0, k1 = seeds.astype(np.uint64), keys.astype(np.uint64)
    c = np.zeros((4, len(counters)), dtype=np.uint64)
    c[0] = counters
    m_lo, m_hi = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
    for r in range(10):
        if r:
            k0 += np.uint64(_PHILOX_W[0])
            k1 += np.uint64(_PHILOX_W[1])
        x = c[0::2]                                  # a view of words 0 and 2
        x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
        p_lh, p_hl = x_lo * m_hi, x_hi * m_lo
        x_lo *= m_lo
        x_lo >>= 32
        x_lo += p_lh & 0xFFFFFFFF
        x_lo += p_hl & 0xFFFFFFFF                    # bits 32-95 of the product
        x_hi *= m_hi
        x_hi += p_lh >> 32
        x_hi += p_hl >> 32
        x_hi += x_lo >> 32                           # the high words hi0, hi1
        x *= _PHILOX_M                               # the low words lo0, lo1
        c[1] ^= x_hi[1]
        c[1] ^= k0
        c[3] ^= x_hi[0]
        c[3] ^= k1
        c = c[[1, 2, 3, 0]]
    c >>= 11
    return c.T * 2.0 ** -53


class _Streams:
    """Each row's uniforms, drawn in bulk and handed out in order.

    Row i draws the stream under key (seeds[i], keys[i]) (see the module
    docstring).  It holds 4 * blocks consecutive draws of it, starting at
    draw base[i], and used[i] draws are taken.  take(rows, k) hands the
    next k draws of each row; the rows that would run past their buffer
    are refilled together, from the block holding their next draw, with
    one Philox evaluation.
    """

    def __init__(self, seeds: np.ndarray, keys: np.ndarray, blocks: int):
        self.seeds, self.keys = seeds.astype(np.uint64), keys.astype(np.uint64)
        self.blocks = max(2, blocks)                    # 2 blocks hold any pair
        n = len(self.keys)
        self.base = np.zeros(n, dtype=np.int64)
        self.used = np.zeros(n, dtype=np.int64)
        self.calls = 0
        self.buf = self._fill(np.arange(n), self.base)

    def _fill(self, rows: np.ndarray, first_draw: np.ndarray) -> np.ndarray:
        self.calls += 1
        counters = (first_draw // 4 + 1)[:, None] + np.arange(self.blocks)
        return _philox_uniforms(np.repeat(self.seeds[rows], self.blocks),
                                np.repeat(self.keys[rows], self.blocks),
                                counters.ravel()).reshape(len(rows), 4 * self.blocks)

    def take(self, rows: np.ndarray, k: int) -> np.ndarray:
        used = self.used[rows]
        short = used + k > self.base[rows] + 4 * self.blocks
        if short.any():
            refill = rows[short]
            self.base[refill] = used[short] // 4 * 4
            self.buf[refill] = self._fill(refill, used[short])
        self.used[rows] = used + k
        return self.buf[rows[:, None], (used - self.base[rows])[:, None] + np.arange(k)]


def _grid(horizon: float, step: float, checkpoints) -> np.ndarray:
    n = max(1, int(np.ceil(horizon / step)))
    times = set(np.linspace(0.0, horizon, n + 1).tolist())
    for t in checkpoints:
        if not 0.0 <= t <= horizon:
            raise ValueError(f"checkpoint {t} outside [0, {horizon}]")
        times.add(float(t))
    return np.array(sorted(times))


def sample_ensembles(rep: Representation, starts, horizon: float, n: int,
                     checkpoint_times=(), first_index: int = 0) -> list:
    """One ensemble of n trajectories per (psi0, seed) of starts, sampled
    in one pass with ensemble-wide crossing batches.

    The pass runs the n rows of every start together: one grid walk, one
    set of propagators and one table per crossing batch, whatever the
    starts.  Waiting times use the norm-decay threshold method.  A
    frontier steps the unnormalized states over the grid with the exact
    segment propagator (one per distinct step length): an elementwise
    product when H_eff is exactly diagonal, a matrix product otherwise
    (_MomentPropagator decides once per pass).  A trajectory whose norm
    falls below its threshold within step k is parked with its state at
    the start of step k, k and its norm at the step's end, and the others
    step on.  The parked trajectories, from whatever steps and
    starts, are resolved together in one crossing batch once they are at
    least half the pass's rows, and at the horizon: its table (the
    Taylor terms, or the states themselves for a diagonal H_eff; see
    _MomentPropagator) is built once; a safeguarded Newton iteration
    reads value and slope of the norm from it and snaps each crossing to
    the middle of a cell no wider than 1e-9 times the horizon (see
    _crossing_times), and the crossing states read it too.  The batch
    then jumps at once: labels by cumulative rate share, one state
    normalization, and the rest of each row's step on a fresh table.  A
    row that crosses again within its step stays parked for the next
    batch; the others catch up to the frontier, all rows at one grid
    point taking one product per step, and are parked again where they
    cross.  Resolving at half the rows makes few batches while each
    catch-up walks only the steps since the last batch.  Measured on one
    ensemble with one BLAS thread on a 2-core x86-64 VM against a batch
    per grid step: 0.61-0.67 of its time on qubit-III at n = 200 and
    horizons 2, 20 and 100, 0.74 at n = 2000 and horizon 100, and 0.64 on
    the seeded L=3 qutrit chain at n = 80; shares from 1/8 to all of the
    rows were tried, and 1/2 was within 6% of the fastest on each of
    these.  Sweeping every row to the horizon before each batch instead
    re-walks the spread between the rows' grid points, and lost at long
    horizons.

    Every row's arithmetic is the same bits in any batch: a row's
    crossing, jump and step are what the step-by-step loop computes for
    it, so the records, and the states at each checkpoint, do not depend
    on the order of the batches or on the other starts of the pass.

    Trajectory i of a start draws from its own stream, keyed by the
    start's seed and first_index + i (see the module docstring).  All
    rows are filled at once with room for the Poisson bound on their
    jumps, from the top total jump rate (_MomentPropagator.top_rate), and
    the rows of a crossing batch that run short are refilled together.
    A grid of more than MAX_GRID_STEPS steps (about 2.2 ||H_eff||
    horizon) raises StiffnessError before it is built.
    TrajectoryEnsemble says what each ensemble's stats count.
    """
    heff = rep.effective_hamiltonian
    hnorm = frob(heff)
    if not np.isfinite(hnorm) or hnorm > MAX_HEFF_NORM:
        raise StiffnessError("effective Hamiltonian norm too large for stepping")
    step = min(0.05 * max(horizon, _SCALE_FLOOR), 0.45 / max(hnorm, _SCALE_FLOOR))
    steps = np.ceil(horizon / step)     # a float: inf near the largest horizons
    if steps > MAX_GRID_STEPS:
        raise StiffnessError(f"{steps:.3g} grid steps to horizon {horizon:g}, above "
                             f"the cap of {MAX_GRID_STEPS}")
    grid = _grid(horizon, step, checkpoint_times)
    steps = len(grid) - 1
    dts = np.diff(grid)

    # row s * n + i is trajectory i of start s
    total = len(starts) * n
    v0 = np.repeat(np.stack([state_vector(psi0) for psi0, _ in starts]), n, axis=0)
    jump_mats = np.stack([linalg.dense(j, "the sampler's jump stack")
                          for j in rep.jumps]) if rep.jumps else None
    moments = _MomentPropagator(heff)
    # a normalized state jumps at total rate <= gamma, so few rows outrun
    # room for gamma*T + 4 sqrt(gamma*T) + 4 jumps; the cap bounds memory
    gamma = moments.top_rate() if rep.jumps else 0.0
    jumps = gamma * horizon + 4.0 * np.sqrt(gamma * horizon) + 4.0
    blocks = min(np.ceil((1.0 + 2.0 * jumps) / 4.0), _FILL_CAP // max(total, 1))
    streams = _Streams(
        np.repeat(np.array([seed & _MASK64 for _, seed in starts], dtype=np.uint64), n),
        np.tile(np.uint64(first_index) + np.arange(n, dtype=np.uint64), len(starts)),
        int(blocks))
    thresholds = streams.take(np.arange(total), 1)[:, 0]
    # each crossing batch's (rows, event times, labels); the empty first
    # entry sets the columns' dtypes when no row jumps
    events: list = [(np.empty(0, dtype=int), np.empty(0), np.empty(0, dtype=int))]
    time_tol = TIME_TOL_FACTOR * max(horizon, _SCALE_FLOOR)
    stats = {"grid_steps": steps, "crossing_batches": 0, "trials": 0}

    # checkpoint grid index -> its (rows, d) states, filled as rows pass it
    want = {round(float(t), 12) for t in checkpoint_times}
    states: dict = {}
    saved: dict = {}
    for j, t in enumerate(grid.tolist()):
        if round(t, 12) in want:
            saved[j] = states[t] = np.empty(v0.shape, dtype=complex)
    if 0 in saved:
        saved[0][:] = v0
    # parked rows: (rows, states at their step's or jump's start, step,
    # offsets within the step, norms at the step's end)
    parked: list = []

    def save(j, rows, vecs):
        if j in saved and rows.size:
            nrm = np.sqrt(np.einsum("ij,ij->i", vecs.conj(), vecs).real)
            saved[j][rows] = vecs / nrm[:, None]

    def advance(j, rows, vecs):
        """Rows with states vecs at grid[j] through step j: the crossers
        are parked, the others' rows and states at grid[j + 1] returned."""
        ends = moments.step(vecs, dts[j])
        if jump_mats is not None:
            norms = np.einsum("ij,ij->i", ends.conj(), ends).real
            cross = norms < thresholds[rows]
            if cross.any():
                parked.append((rows[cross], vecs[cross], np.full(cross.sum(), j),
                               np.zeros(cross.sum()), norms[cross]))
                rows, ends = rows[~cross], ends[~cross]
        save(j + 1, rows, ends)
        return rows, ends

    def resolve(frontier):
        """One batch of every parked row; the rows that do not cross again
        within their step are returned caught up to grid[frontier]."""
        rows, origins, ks, offsets, end_norms = (np.concatenate(c) for c in zip(*parked))
        parked.clear()
        dt = dts[ks]
        table = moments.table(origins)
        tstar, trials = _crossing_times(moments, table, thresholds[rows], offsets,
                                        end_norms, dt, time_tol)
        stats["crossing_batches"] += 1
        stats["trials"] += trials
        phi_star = moments.evaluate(table, tstar - offsets)
        # jump: label by rates with the first draw, reset state, and take
        # the second draw as the new threshold
        draws = streams.take(rows, 2)
        labels, new_states = _jump(
            np.einsum("jab,ib->ija", jump_mats, phi_star), draws[:, 0])
        events.append((rows, grid[ks] + tstar, labels))
        thresholds[rows] = draws[:, 1]
        # propagate the rest of each row's step and look again
        rest = moments.apply(new_states, dt - tstar)
        nr = np.einsum("ij,ij->i", rest.conj(), rest).real
        again = nr < thresholds[rows]
        if again.any():
            parked.append((rows[again], new_states[again], ks[again], tstar[again],
                           nr[again]))
        done = ~again
        rows, rest, at = rows[done], rest[done], ks[done] + 1
        # catch up: the rows at each grid point join the group stepping on
        group_rows, group = rows[:0], rest[:0]
        for j in range(int(at.min(initial=frontier)), frontier + 1):
            join = at == j
            if join.any():
                save(j, rows[join], rest[join])
                group_rows = np.concatenate([group_rows, rows[join]])
                group = np.concatenate([group, rest[join]])
            if j < frontier and group_rows.size:
                group_rows, group = advance(j, group_rows, group)
        return group_rows, group

    rows, vecs = np.arange(total), v0
    for k in range(steps):
        rows, vecs = advance(k, rows, vecs)
        while parked and (2 * sum(len(p[0]) for p in parked) >= total or k + 1 == steps):
            back_rows, back = resolve(k + 1)
            rows, vecs = np.concatenate([rows, back_rows]), np.concatenate([vecs, back])

    # a row is parked at most once per batch, so a stable sort by row
    # leaves each row's events in time order
    rows, times, labels = (np.concatenate(c) for c in zip(*events))
    order = np.argsort(rows, kind="stable")
    times, labels = times[order], labels[order]
    bounds = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=total))])
    fingerprint = rep.fingerprint()
    out = []
    for s, (_, seed) in enumerate(starts):
        part = slice(s * n, (s + 1) * n)
        a, b = bounds[s * n], bounds[(s + 1) * n]
        ens_stats = dict(stats, jumps=int(b - a),
                         draws=int(streams.used[part].sum()), philox_calls=streams.calls)
        out.append(TrajectoryEnsemble(times[a:b], labels[a:b],
                                      bounds[s * n:(s + 1) * n + 1] - a,
                                      {t: v[part] for t, v in states.items()},
                                      horizon, seed, fingerprint, ens_stats))
    return out


def ensemble_average(ensemble: TrajectoryEnsemble, t: float):
    """Mean conditional density matrix at a checkpoint with bootstrap errors.

    Returns (mean, stderr) with stderr the entrywise bootstrap standard
    error of the mean (absolute value per entry).  Only the upper
    triangle of the states' outer products is formed, _AVERAGE_CHUNK
    entries at a time: entry (b, a) of each pure state is entry (a, b)
    conjugated, the real part bit for bit and the imaginary part exactly
    negated, so the mean's lower triangle is its upper one conjugated and
    has the same standard error.

    The B = _BOOTSTRAP_RESAMPLES resampled means of a column x of the n
    states' D = d(d+1) real upper-triangle entries are W x / n, for the
    (B, n) multinomial weights W, drawn from seed _BOOTSTRAP_SEED.  Their
    variance is x^T G x / n^2, where G is the covariance of W's columns
    over the B resamples.  So the variance is taken in one of two product
    orders, whichever costs fewer multiply-adds.  When n (B + D) < B D, G
    is formed once (n x n) and each chunk takes G X and one column-wise
    sum; at B = 200 that is
    n <= 158 for d = 27, n <= 194 for d = 81 and n <= 5 for d = 2.
    Otherwise each chunk resamples its B means in one GEMM and takes
    their variance.  The mean is the same bit for bit in both; the
    standard errors agree to rounding level between the orders, as they
    do across BLAS thread counts.
    """
    if float(t) not in ensemble.states:
        raise ValueError(f"time {t} was not recorded as a checkpoint")
    vecs = ensemble.states[float(t)]
    conj = vecs.conj()
    n, d = vecs.shape
    nboot = _BOOTSTRAP_RESAMPLES
    rng = np.random.default_rng(_BOOTSTRAP_SEED)
    weights = rng.multinomial(n, np.full(n, 1.0 / n), size=nboot).astype(float)
    covariance = n * (nboot + d * (d + 1)) < nboot * d * (d + 1)
    if covariance:
        centred = weights - weights.mean(axis=0)
        gram = (centred.T @ centred) / ((nboot - 1) * n * n)
    rows, cols = np.triu_indices(d)
    mean = np.empty((d, d), dtype=complex)
    err = np.empty((d, d))
    # a chunk's outer products and bootstrap means each hold about
    # _AVERAGE_CHUNK complex entries, and at least two columns (the last
    # chunk takes a lone last column), so no chunk's bootstrap goes to gemv
    width = max(2, _AVERAGE_CHUNK // max(n, nboot))
    edges = [*range(0, max(len(rows) - 1, 1), width), len(rows)]
    for a, b in zip(edges, edges[1:]):
        r, c = rows[a:b], cols[a:b]
        # einsum multiplies as the (n, d, d) outer product would, and a C-order
        # chunk's column means are the full array's, bit for bit
        outer = np.einsum("ia,ia->ia", vecs.take(r, axis=1), conj.take(c, axis=1),
                          order="C")
        mean[r, c] = m = outer.mean(axis=0)
        mean[c, r] = m.conj()
        # the real and imaginary parts in one real product; an entry's
        # complex standard error is sqrt(var_re + var_im)
        if covariance:
            # every row of W sums to n, so G annihilates a constant column
            # and x^T G x is that of x less its mean: centring keeps the
            # rounding relative to the spread, not to the entry
            outer -= m
            real = outer.view(float)
            var = np.maximum(np.einsum("ij,ij->j", real, gram @ real), 0.0)
        else:
            boots = (weights @ outer.view(float)) / n
            var = boots.var(axis=0, ddof=1)
        err[r, c] = err[c, r] = np.sqrt(var.reshape(-1, 2).sum(axis=1))
    return mean, err


def _merge_bins(table_a: dict, table_b: dict, n_a: int, n_b: int):
    """Both tables' counts (two rows) over their pooled keys, the bins with
    an expected count below _MIN_EXPECTED in either merged into a last one."""
    keys = sorted(set(table_a) | set(table_b))
    ab = np.array([[t.get(k, 0) for k in keys] for t in (table_a, table_b)], dtype=float)
    expected = ab.sum(axis=0) * np.array([[n_a], [n_b]]) / (n_a + n_b)
    keep = np.min(expected, axis=0) >= _MIN_EXPECTED
    rest = ab[:, ~keep].sum(axis=1, keepdims=True)
    return np.hstack([ab[:, keep], rest]) if rest.sum() > 0 else ab[:, keep]


def two_sample_chi2(table_a: dict, table_b: dict):
    """Two-sample chi-squared p-value on pooled histogram bins."""
    n_a = sum(table_a.values())
    n_b = sum(table_b.values())
    if not (n_a and n_b):   # p = 1 before _merge_bins would divide 0 by 0
        return 1.0, 0.0, 0
    a, b = _merge_bins(table_a, table_b, n_a, n_b)
    if len(a) < 2:
        return 1.0, 0.0, 0
    tot = a + b
    ea = tot * n_a / (n_a + n_b)
    eb = tot * n_b / (n_a + n_b)
    chi2 = float(np.sum((a - ea) ** 2 / ea) + np.sum((b - eb) ** 2 / eb))
    dof = len(a) - 1
    return float(special.chdtrc(dof, chi2)), chi2, dof


def _histogram(rows) -> dict:
    """Occurrences of each row of a 2-D int table, keyed by tuples of
    Python ints."""
    out: dict = {}
    for k in map(tuple, np.asarray(rows).tolist()):
        out[k] = out.get(k, 0) + 1
    return out


@functools.lru_cache(maxsize=4)
def _key_observables(d: int) -> tuple:
    """Two random Hermitian observables side by side, (d, 2d), and the
    scale max(||o||_F, 1) of each; the same draws on every call."""
    rng = np.random.default_rng(777)
    obs = []
    for _ in range(2):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs.append((a + a.conj().T) / 2)
    both = np.hstack(obs)
    scale = np.array([max(frob(o), 1.0) for o in obs])
    both.flags.writeable = scale.flags.writeable = False
    return both, scale


def _state_keys(vecs: np.ndarray, nbins: int = 6) -> np.ndarray:
    """(n, cols) bin digits of each state: its Bloch vector for d = 2, else
    its d populations and the expectations of two random observables."""
    n, d = vecs.shape
    if d == 2:
        overlap = vecs[:, 0].conj() * vecs[:, 1]
        bloch = np.stack([2 * overlap.real, 2 * overlap.imag,
                          np.abs(vecs[:, 0]) ** 2 - np.abs(vecs[:, 1]) ** 2], axis=1)
        unit = (bloch + 1.0) / 2.0
    else:
        obs, scale = _key_observables(d)
        extra = ((vecs.conj() @ obs).reshape(n, 2, d) * vecs[:, None, :]).sum(axis=2)
        unit = np.hstack([np.abs(vecs) ** 2, (extra.real / scale + 1.0) / 2.0])
    return np.clip((unit * nbins).astype(int), 0, nbins - 1)


def ensemble_symmetry_test(rep: Representation, sym, level: str,
                           ens_a: TrajectoryEnsemble, ens_b: TrajectoryEnsemble,
                           alpha_sig: float = 0.01,
                           permutation=None,
                           partition: SjedPartition | None = None):
    """Two-sample test of the symmetry of the trajectory ensemble.

    ens_a is sampled from psi0 and ens_b from U psi0 U† on independent
    streams, both with their horizon as a checkpoint.  Maps A by the
    symmetry (records by the permutation, states by conjugation) and
    compares: level "full" uses final count vectors over jump labels,
    "coarse" over SJED labels, "unlabelled" binned state coordinates.
    permutation may be an explicit tuple (a bijection of the level's
    labels 0..size-1, else SizeMismatch), None (identity after raising
    MissingPermutation is the caller's choice), or "best" to scan all
    label bijections and report the most favorable p-value.
    Returns (p_value, passed).
    """
    va = ens_a.states[ens_a.horizon] @ sym.matrix.T  # A final states, transformed
    vb = ens_b.states[ens_b.horizon]

    if level == "unlabelled":
        pval, _, _ = two_sample_chi2(_histogram(_state_keys(va)),
                                     _histogram(_state_keys(vb)))
        return pval, pval > alpha_sig

    # full and coarse levels test the joint law of the conditional state
    # and the record counts (final counts alone can be blind: constant-rate
    # models emit exchangeable Poisson counts for any initial state)
    if level == "full":
        counts_a = ens_a.count_vectors(rep.njumps)
        counts_b = ens_b.count_vectors(rep.njumps)
        size = rep.njumps
    elif level == "coarse":
        partition = partition if partition is not None else build_sjeds(rep)
        counts_a = ens_a.coarse_count_vectors(partition)
        counts_b = ens_b.coarse_count_vectors(partition)
        size = partition.nsets
    else:
        raise ValueError(f"unknown level {level!r}")

    keys_a = _state_keys(va, nbins=4)
    hb = _histogram(np.hstack([_state_keys(vb, nbins=4), counts_b]))

    def p_for(perm):
        # records map label j -> perm[j], so the mapped count at k is the
        # original count at the preimage of k
        inv = np.argsort(np.asarray(perm))
        ha = _histogram(np.hstack([keys_a, counts_a[:, inv]]))
        return two_sample_chi2(ha, hb)[0]

    if permutation == "best":
        from itertools import permutations as iterperm
        if size > 6:
            raise ValueError("exhaustive permutation scan capped at 6 labels")
        pval = max(p_for(p) for p in iterperm(range(size)))
        return pval, pval > alpha_sig
    if permutation is None:
        raise MissingPermutation(
            "no label permutation supplied; pass one, or 'best', or identity")
    perm = tuple(permutation)
    if sorted(perm) != list(range(size)):
        raise SizeMismatch(f"permutation {perm} is not a bijection of the {size} labels")
    pval = p_for(perm)
    return pval, pval > alpha_sig


def export_records(ensemble: TrajectoryEnsemble, path) -> None:
    """Line-delimited JSON export: one record per line with the final state.

    Each line is built once from the repr of its event list and of its
    final-state row, with no JSON encoder: for finite floats and ints repr
    is what json.dumps writes (it formats floats with float.__repr__).  A
    non-finite final state raises ValueError, as JSON has no spelling
    for it.
    """
    times, labels = ensemble.times.tolist(), ensemble.labels.tolist()
    bounds = ensemble.offsets.tolist()
    finals = None
    if ensemble.states:
        v = ensemble.states[max(ensemble.states)]
        if not np.isfinite(v).all():
            raise ValueError("non-finite final state: JSON cannot hold it")
        finals = np.stack([v.real, v.imag], -1).tolist()
    with open(path, "w") as fh:
        fh.writelines(
            f'{{"trajId": {i}, "events": {list(map(list, zip(times[a:b], labels[a:b])))!r}'
            + ("}\n" if finals is None else f', "finalState": {finals[i]!r}}}\n')
            for i, (a, b) in enumerate(zip(bounds, bounds[1:])))


def export_count_histogram(ensemble: TrajectoryEnsemble, nlabels: int, path) -> None:
    """CSV histogram of final count vectors."""
    hist = _histogram(ensemble.count_vectors(nlabels))
    with open(path, "w") as fh:
        fh.write(",".join(f"n{j + 1}" for j in range(nlabels)) + ",occurrences\n")
        for key in sorted(hist):
            fh.write(",".join(str(k) for k in key) + f",{hist[key]}\n")


__all__ = [
    "MissingPermutation",
    "SizeMismatch",
    "StiffnessError",
    "TrajectoryEnsemble",
    "coarse_record_weight",
    "ensemble_average",
    "ensemble_symmetry_test",
    "export_count_histogram",
    "export_records",
    "record_weight",
    "sample_ensembles",
    "state_vector",
    "two_sample_chi2",
]
