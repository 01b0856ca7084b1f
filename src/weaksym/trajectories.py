"""Quantum-jump Monte Carlo of conditional pure states.

Piecewise-deterministic sampling with full and coarse-grained emission
records, record weights, ensemble statistics, and two-sample symmetry
hypothesis tests.  Between jumps the unnormalized state evolves with the
(constant) effective Hamiltonian, so deterministic segments use the
exact propagator; waiting times come from the norm-decay threshold
method (Dalibard, Castin & Molmer, PRL 68, 580, 1992), whose norm slope
d||phi||^2/dt = -sum_j ||J_j phi||^2 lets a safeguarded Newton iteration
find each crossing.  All trajectories crossing in one grid step read one
table of Taylor terms (-i H_eff)^k phi / k!, built once per batch with
one matrix product, so each trial time costs a contraction with the
powers s^k and k s^(k-1) rather than a new series expansion.

Reproducibility contract: trajectory i of an ensemble with master seed
`seed` and `first_index` draws its k-th uniform as word k mod 4 of
Philox4x64-10 (Salmon et al., SC'11) at counter (k // 4 + 1, 0, 0, 0)
under key (seed mod 2^64, first_index + i), mapped to (x >> 11) * 2^-53:
numpy's layout, so the stream equals
Generator(Philox(key=(seed mod 2^64, first_index + i))).random().  Draw
0 is the first threshold and each jump takes the next two (label,
threshold), so records do not depend on batching or --threads.  The
rounds run in numpy for every trajectory at once (_philox_uniforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import linalg
from .lindblad import Representation
from .linalg import dag, frob
from .sjed import SjedPartition, build_sjeds

TIME_TOL_FACTOR = 1e-9
# grid steps one ensemble may take; a stiffer model or longer horizon is
# refused before its grid is built
MAX_GRID_STEPS = 100_000
# most Philox blocks buffered per ensemble (8 MiB of uniforms), and the
# blocks evaluated together
_FILL_CAP = 2 ** 18
_PHILOX_CHUNK = 2 ** 13


class StiffnessError(RuntimeError):
    pass


class MissingPermutation(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class MeasurementRecord:
    """Ordered emission events (time, label) up to a horizon."""

    events: tuple
    horizon: float
    granularity: str = "full"  # "full" | "coarse"

    def __post_init__(self):
        last = 0.0
        for t, _ in self.events:
            if t < last or t >= self.horizon:
                raise ValueError("event times must be ordered within the horizon")
            last = t

    def counts(self, nlabels: int) -> np.ndarray:
        out = np.zeros(nlabels, dtype=int)
        for _, j in self.events:
            out[j] += 1
        return out


@dataclass(frozen=True)
class Trajectory:
    initial_state: np.ndarray
    record: MeasurementRecord
    checkpoints: tuple  # ((t, pure density matrix), ...)


@dataclass
class TrajectoryEnsemble:
    """Sampled trajectories with vectorized per-time state storage."""

    records: list                  # list of event lists [(t, label), ...]
    states: dict                   # time -> (n, d) array of normalized vectors
    horizon: float
    seed: int
    rep_fingerprint: str
    coarse_labels: np.ndarray | None = None
    # sampler work: grid_steps, crossing_batches, trials (root-finding
    # evaluations of a batch's table), jumps, draws (uniforms taken) and
    # philox_calls (bulk evaluations of the streams)
    stats: dict = field(default_factory=dict, compare=False)

    @property
    def size(self) -> int:
        return len(self.records)

    def _event_labels(self) -> tuple:
        """Trajectory index and label of every event, flattened."""
        rows = np.repeat(np.arange(self.size), [len(rec) for rec in self.records])
        labels = np.array([j for rec in self.records for _, j in rec], dtype=int)
        return rows, labels

    def count_vectors(self, nlabels: int) -> np.ndarray:
        out = np.zeros((self.size, nlabels), dtype=int)
        np.add.at(out, self._event_labels(), 1)
        return out

    def coarse_count_vectors(self, nsets: int) -> np.ndarray:
        if self.coarse_labels is None:
            raise ValueError("ensemble carries no SJED label map")
        rows, labels = self._event_labels()
        out = np.zeros((self.size, nsets), dtype=int)
        np.add.at(out, (rows, np.asarray(self.coarse_labels)[labels]), 1)
        return out


def state_vector(psi, tol: float = 1e-8) -> np.ndarray:
    """Unit vector of a pure density matrix (or pass a vector through)."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim == 1:
        return psi / np.linalg.norm(psi)
    w, v = linalg.hermitian_eigendecomposition(psi, 1e-6)
    if w[-1] < 1.0 - tol * max(1.0, abs(w[-1])) - tol:
        raise ValueError(f"state is not pure: largest eigenvalue {w[-1]}")
    return v[:, -1]


def drift(rep: Representation, psi) -> np.ndarray:
    """Deterministic flow of the conditional state between jumps.

    B(psi) = -i H_eff psi + i psi H_eff† - psi Tr(...), traceless by
    construction.
    """
    psi = np.asarray(psi, dtype=complex)
    heff = rep.effective_hamiltonian
    raw = -1j * (heff @ psi) + 1j * (psi @ dag(heff))
    return raw - psi * np.trace(raw)


def jump_rates(rep: Representation, psi, tol: float = 1e-12):
    """Per-jump rates Tr[J psi J†] with normalized destinations.

    Destinations are omitted for rates below tol.
    """
    psi = np.asarray(psi, dtype=complex)
    out = []
    for j in rep.jumps:
        jpj = j @ psi @ dag(j)
        rate = float(np.trace(jpj).real)
        if rate > tol:
            out.append((rate, jpj / rate))
        else:
            out.append((rate, None))
    return out


def _segment_propagator(heff: np.ndarray, dt: float) -> np.ndarray:
    return linalg.matrix_exponential(-1j * dt * heff)


def _record_weight(rep: Representation, psi0, record: MeasurementRecord,
                   actions) -> tuple:
    """phi_T and Tr phi_T with event label l acting as sum_{J in actions[l]} J phi J†."""
    heff = rep.effective_hamiltonian
    phi = np.asarray(psi0, dtype=complex).copy()
    t_prev = 0.0
    for t, label in record.events:
        g = _segment_propagator(heff, t - t_prev)
        phi = g @ phi @ dag(g)
        acc = np.zeros_like(phi)
        for jm in actions[label]:
            acc += jm @ phi @ dag(jm)
        phi = acc
        t_prev = t
    g = _segment_propagator(heff, record.horizon - t_prev)
    phi = g @ phi @ dag(g)
    return phi, float(np.trace(phi).real)


def record_weight(rep: Representation, psi0, record: MeasurementRecord):
    """Unnormalized conditional state and probability density of a record.

    phi_T = G_{T-t_n} J_{j_n} ... J_{j_1} G_{t_1}(psi0) with
    G_t(phi) = e^{-i H_eff t} phi e^{i H_eff† t}; the density is Tr phi_T.
    """
    if record.granularity != "full":
        raise ValueError("record_weight expects a full record")
    return _record_weight(rep, psi0, record, [(jm,) for jm in rep.jumps])


def coarse_record_weight(rep: Representation, partition: SjedPartition,
                         psi0, record: MeasurementRecord):
    """Record weight with jump actions replaced by SJED composite actions."""
    return _record_weight(rep, psi0, record,
                          [[partition.jumps[j] for j in s.indices]
                           for s in partition.sets])


def transform_record(record: MeasurementRecord, permutation) -> MeasurementRecord:
    """Relabel events by a permutation, times unchanged."""
    events = []
    for t, j in record.events:
        if j >= len(permutation):
            raise SizeMismatch(f"label {j} outside permutation of size {len(permutation)}")
        events.append((t, permutation[j]))
    return MeasurementRecord(tuple(events), record.horizon, record.granularity)


class _MomentPropagator:
    """Evaluate e^{-i H s} phi for many states, each at its own s.

    Uses the truncated series sum_k s^k (-i H)^k phi / k!, exact to machine
    precision when ||H|| * s < 1/2.  The matrices (-i H)^k / k! are formed
    once, side by side in one (d, terms * d) matrix, so the s-free terms
    (-i H)^k phi / k! of a batch of states form a table built with one
    matrix product; evaluating it at any s is then one contraction with
    the powers s^k, and its norm slope one more with k s^(k-1).  The
    root finder of a crossing batch reads one table at every trial time.
    """

    def __init__(self, heff: np.ndarray, terms: int = 22):
        a = -1j * heff
        mats = np.empty((terms, len(a), len(a)), dtype=complex)
        mats[0] = np.eye(len(a))
        for k in range(1, terms):
            mats[k] = (mats[k - 1] @ a) / k
        # column block k maps a row phi to phi (A^k / k!)^T
        self.mats = mats.transpose(2, 0, 1).reshape(len(a), -1)
        self.powers = np.arange(terms)

    def table(self, phis: np.ndarray) -> np.ndarray:
        """Series terms (-i H)^k phi / k! of each state, shape (n, terms, d)."""
        return (phis @ self.mats).reshape(len(phis), len(self.powers), -1)

    def evaluate(self, table: np.ndarray, ss: np.ndarray) -> np.ndarray:
        """e^{-i H s} phi of each tabled state at its own s."""
        # real powers against the real view of the table: one stacked matmul
        return (ss[:, None, None] ** self.powers @ table.view(float))[:, 0].view(complex)

    def norms(self, table: np.ndarray, ss: np.ndarray) -> tuple:
        """||phi(s)||^2 and its derivative in s of each tabled state."""
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
                    end_norms: np.ndarray, dt: float, time_tol: float) -> tuple:
    """Times in [offsets, dt] where each tabled norm falls to its threshold.

    [offset, dt] is cut into 2^nbits equal cells, nbits halvings bringing
    dt to time_tol, and each time is the midpoint of the cell that holds
    the root of f(s) = ||phi(s)||^2 - threshold: what bisection would
    give, and independent of the last bits of the batch's arithmetic.
    The root is found by safeguarded Newton, with value and slope read
    from the table.  Each row starts at the secant between its start
    norm (the table's first term) and end_norms, and keeps a bracket
    lo <= root <= hi with f(lo) >= 0 > f(hi).  A Newton step that leaves
    the bracket, or is more than half as long as the row's previous step,
    becomes a bisection step, at the cell boundary nearest the bracket's
    middle.  A row stops once its bracket lies within one cell or its
    Newton step is at most time_tol / 64, and is frozen from then on.
    Returns the times and the number of trials.
    """
    nbits = int(np.ceil(np.log2(max(2.0, dt / time_tol))))
    cell = (dt - offsets) / 2.0 ** nbits
    # the iteration runs in cells from the offset, so cell boundaries are integers
    n0 = np.einsum("ij,ij->i", table[:, 0].conj(), table[:, 0]).real
    lo, hi = np.zeros(len(n0)), np.full(len(n0), 2.0 ** nbits)
    last = hi - lo                       # length of each row's previous step
    found = np.empty(len(n0))            # index of the root's cell
    rows = np.arange(len(n0))
    tab, thr, width = table, thresholds, cell
    trials = 0
    # np.minimum/np.maximum stand for np.clip, which costs more per call
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.minimum(np.maximum((n0 - thresholds) / (n0 - end_norms), 0.0), 1.0) \
            * 2.0 ** nbits
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


def _philox_uniforms(seed: int, keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Uniforms of Philox4x64-10 blocks, shape (len(counters), 4).

    Block b is the generator at counter (counters[b], 0, 0, 0) under key
    (seed mod 2^64, keys[b]), its words mapped to (x >> 11) * 2^-53 as
    numpy's Generator.random does.  Blocks are evaluated in chunks small
    enough for the working arrays to stay in cache.
    """
    out = np.empty((len(counters), 4))
    for a in range(0, len(counters), _PHILOX_CHUNK):
        chunk = slice(a, a + _PHILOX_CHUNK)
        out[chunk] = _philox_rounds(seed, keys[chunk], counters[chunk])
    return out


def _philox_rounds(seed: int, keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The ten rounds of _philox_uniforms, in place where numpy allows.

    A round maps (c0, c1, c2, c3) to (hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1,
    lo0), where hi_i:lo_i is the 128-bit product M_i c_2i; its high word
    is summed from the 32-bit halves' products in uint64 arithmetic.
    """
    k0, k1 = seed & _MASK64, keys.astype(np.uint64)
    c = np.zeros((4, len(counters)), dtype=np.uint64)
    c[0] = counters
    m_lo, m_hi = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & _MASK64
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
        c[1] ^= np.uint64(k0)
        c[3] ^= x_hi[0]
        c[3] ^= k1
        c = c[[1, 2, 3, 0]]
    c >>= 11
    return c.T * 2.0 ** -53


class _Streams:
    """Each trajectory's uniforms, drawn in bulk and handed out in order.

    Row i holds 4 * blocks consecutive draws of its stream (see the module
    docstring), starting at draw base[i], and used[i] draws are taken.
    take(rows, k) hands the next k draws of each row; the rows that would
    run past their buffer are refilled together, from the block holding
    their next draw, with one Philox evaluation.
    """

    def __init__(self, seed: int, first_index: int, n: int, blocks: int):
        self.seed, self.blocks = seed, max(2, blocks)   # 2 blocks hold any pair
        self.keys = np.uint64(first_index) + np.arange(n, dtype=np.uint64)
        self.base = np.zeros(n, dtype=np.int64)
        self.used = np.zeros(n, dtype=np.int64)
        self.calls = 0
        self.buf = self._fill(np.arange(n), self.base)

    def _fill(self, rows: np.ndarray, first_draw: np.ndarray) -> np.ndarray:
        self.calls += 1
        counters = (first_draw // 4 + 1)[:, None] + np.arange(self.blocks)
        return _philox_uniforms(self.seed, np.repeat(self.keys[rows], self.blocks),
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


def sample_ensemble(rep: Representation, psi0, horizon: float, n: int,
                    seed: int = 0, checkpoint_times=(),
                    partition: SjedPartition | None = None,
                    first_index: int = 0) -> TrajectoryEnsemble:
    """Sample n trajectories in vectorized lock-step.

    Waiting times use the norm-decay threshold method: the unnormalized
    state evolves with the exact segment propagator (one per distinct
    step length), and the trajectories whose norm falls below their
    threshold within one grid step form a batch.  Its Taylor table (see
    _MomentPropagator) is built once; a safeguarded Newton iteration reads
    value and slope of the norm from it and snaps each crossing to the
    middle of a cell no wider than 1e-9 times the horizon (see
    _crossing_times), and the crossing states read it too.  The batch then
    jumps at once: labels by cumulative rate share, one state
    normalization, and the rest of the step on a fresh table; the
    trajectories that cross again form the next batch.

    Draws: the k-th uniform of trajectory i is word k mod 4 of
    Philox4x64-10 at counter (k // 4 + 1, 0, 0, 0) under key
    (seed mod 2^64, first_index + i), as (x >> 11) * 2^-53; draw 0 is
    its first threshold, and each jump takes a (label, threshold) pair.
    All rows are filled at once with room for the Poisson bound on their
    jumps, and the rows of a crossing batch that run short are refilled
    together.  The ensemble's stats count grid steps, crossing batches,
    root-finding trials, jumps, uniforms drawn (n + 2 jumps) and Philox
    evaluations.  A grid of more than MAX_GRID_STEPS steps (about
    2.2 ||H_eff|| horizon) raises StiffnessError before it is built.
    """
    heff = rep.effective_hamiltonian
    hnorm = frob(heff)
    if not np.isfinite(hnorm) or hnorm > 1e8:
        raise StiffnessError("effective Hamiltonian norm too large for stepping")
    step = min(0.05 * max(horizon, 1e-12), 0.45 / max(hnorm, 1e-12))
    steps = int(np.ceil(horizon / step))
    if steps > MAX_GRID_STEPS:
        raise StiffnessError(f"{steps} grid steps to horizon {horizon:g}, above "
                             f"the cap of {MAX_GRID_STEPS}")
    grid = _grid(horizon, step, checkpoint_times)
    if partition is None:
        partition = build_sjeds(rep)

    v0 = state_vector(psi0)
    phis = np.tile(v0, (n, 1))
    jump_mats = np.stack(rep.jumps) if rep.jumps else None
    # a normalized state jumps at total rate <= gamma, so few rows outrun
    # room for gamma*T + 4 sqrt(gamma*T) + 4 jumps; the cap bounds memory.
    # eigh as in state_vector: a first eigvalsh call maps ~0.3 MB more of
    # LAPACK into the process
    gamma = float(np.linalg.eigh(sum(dag(j) @ j for j in rep.jumps))[0][-1]) \
        if rep.jumps else 0.0
    jumps = gamma * horizon + 4.0 * np.sqrt(gamma * horizon) + 4.0
    blocks = min(np.ceil((1.0 + 2.0 * jumps) / 4.0), _FILL_CAP // max(n, 1))
    streams = _Streams(seed, first_index, n, int(blocks))
    thresholds = streams.take(np.arange(n), 1)[:, 0]
    records: list = [[] for _ in range(n)]
    states: dict = {}
    want = {round(float(t), 12) for t in checkpoint_times}
    time_tol = TIME_TOL_FACTOR * max(horizon, 1e-12)
    moments = _MomentPropagator(heff)
    props: dict = {}                      # step length -> segment propagator
    stats = {"grid_steps": len(grid) - 1, "crossing_batches": 0, "trials": 0,
             "jumps": 0}

    if round(0.0, 12) in want:
        states[0.0] = phis.copy()

    for k in range(len(grid) - 1):
        t0, t1 = grid[k], grid[k + 1]
        dt = t1 - t0
        if dt not in props:
            props[dt] = _segment_propagator(heff, dt).T
        start = phis.copy()
        phis = phis @ props[dt]
        norms = np.einsum("ij,ij->i", phis.conj(), phis).real
        crossing = np.where(norms < thresholds)[0] if jump_mats is not None \
            else np.array([], dtype=int)
        if crossing.size:
            offsets = np.zeros(crossing.size)      # jump-segment start within step
            seg_start = start[crossing]
            end_norms = norms[crossing]
            idxs = crossing
            while idxs.size:
                table = moments.table(seg_start)
                tstar, trials = _crossing_times(moments, table, thresholds[idxs],
                                                offsets, end_norms, dt, time_tol)
                stats["crossing_batches"] += 1
                stats["trials"] += trials
                stats["jumps"] += idxs.size
                phi_star = moments.evaluate(table, tstar - offsets)
                # jump: label by rates with the first draw, reset state, and
                # take the second draw as the new threshold
                draws = streams.take(idxs, 2)
                labels, new_states = _jump(
                    np.einsum("jab,ib->ija", jump_mats, phi_star), draws[:, 0])
                for i, t, label in zip(idxs, (t0 + tstar).tolist(), labels.tolist()):
                    records[i].append((t, label))
                thresholds[idxs] = draws[:, 1]
                # propagate the remainder of the step and look again
                rest = moments.apply(new_states, dt - tstar)
                nr = np.einsum("ij,ij->i", rest.conj(), rest).real
                phis[idxs] = rest
                again = nr < thresholds[idxs]
                idxs = idxs[again]
                seg_start = new_states[again]
                offsets = tstar[again]
                end_norms = nr[again]
        key = round(float(t1), 12)
        if key in want:
            nrm = np.sqrt(np.einsum("ij,ij->i", phis.conj(), phis).real)
            states[float(t1)] = phis / nrm[:, None]

    stats["draws"] = int(streams.used.sum())
    stats["philox_calls"] = streams.calls
    return TrajectoryEnsemble(records=records, states=states, horizon=horizon,
                              seed=seed, rep_fingerprint=rep.fingerprint(),
                              coarse_labels=partition.coarse_labels(), stats=stats)


def sample_trajectory(rep: Representation, psi0, horizon: float,
                      seed: int = 0, trajectory_index: int = 0,
                      checkpoint_times=(),
                      partition: SjedPartition | None = None) -> Trajectory:
    """Sample one trajectory (same stream as its slot in an ensemble)."""
    ens = sample_ensemble(rep, psi0, horizon, 1, seed=seed,
                          checkpoint_times=checkpoint_times,
                          partition=partition, first_index=trajectory_index)
    psi0m = np.asarray(psi0, dtype=complex)
    if psi0m.ndim == 1:
        psi0m = np.outer(psi0m, psi0m.conj())
    record = MeasurementRecord(tuple(ens.records[0]), horizon, "full")
    checkpoints = []
    for t in sorted(ens.states):
        v = ens.states[t][0]
        checkpoints.append((t, np.outer(v, v.conj())))
    return Trajectory(psi0m, record, tuple(checkpoints))


def coarse_record(record: MeasurementRecord, partition: SjedPartition) -> MeasurementRecord:
    """Map full labels to SJED labels."""
    labels = partition.coarse_labels()
    events = tuple((t, int(labels[j])) for t, j in record.events)
    return MeasurementRecord(events, record.horizon, "coarse")


def ensemble_average(ensemble: TrajectoryEnsemble, t: float,
                     n_bootstrap: int = 200, seed: int = 1):
    """Mean conditional density matrix at a checkpoint with bootstrap errors.

    Returns (mean, stderr) with stderr the entrywise bootstrap standard
    error of the mean (absolute value per entry).
    """
    if float(t) not in ensemble.states:
        raise ValueError(f"time {t} was not recorded as a checkpoint")
    vecs = ensemble.states[float(t)]
    n, d = vecs.shape
    mats = np.einsum("ia,ib->iab", vecs, vecs.conj()).reshape(n, d * d)
    mean = mats.mean(axis=0).reshape(d, d)
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=n_bootstrap)
    boots = (counts @ mats) / n
    err = boots.std(axis=0, ddof=1).reshape(d, d)
    return mean, np.abs(err)


def _merge_bins(table_a: dict, table_b: dict, n_a: int, n_b: int,
                min_expected: float = 5.0):
    keys = sorted(set(table_a) | set(table_b))
    a = np.array([table_a.get(k, 0) for k in keys], dtype=float)
    b = np.array([table_b.get(k, 0) for k in keys], dtype=float)
    tot = a + b
    expected_a = tot * n_a / (n_a + n_b)
    expected_b = tot * n_b / (n_a + n_b)
    keep = np.minimum(expected_a, expected_b) >= min_expected
    a_kept = a[keep].tolist()
    b_kept = b[keep].tolist()
    rest_a = a[~keep].sum()
    rest_b = b[~keep].sum()
    if rest_a + rest_b > 0:
        a_kept.append(rest_a)
        b_kept.append(rest_b)
    return np.array(a_kept), np.array(b_kept)


def two_sample_chi2(table_a: dict, table_b: dict, min_expected: float = 5.0):
    """Two-sample chi-squared p-value on pooled histogram bins."""
    n_a = sum(table_a.values())
    n_b = sum(table_b.values())
    if not (n_a and n_b):   # p = 1 before _merge_bins would divide 0 by 0
        return 1.0, 0.0, 0
    a, b = _merge_bins(table_a, table_b, n_a, n_b, min_expected)
    if len(a) < 2:
        return 1.0, 0.0, 0
    tot = a + b
    ea = tot * n_a / (n_a + n_b)
    eb = tot * n_b / (n_a + n_b)
    chi2 = float(np.sum((a - ea) ** 2 / ea) + np.sum((b - eb) ** 2 / eb))
    dof = len(a) - 1
    return float(special.chdtrc(dof, chi2)), chi2, dof


def _histogram(keys) -> dict:
    out: dict = {}
    for k in keys:
        out[k] = out.get(k, 0) + 1
    return out


def _bloch_key(vecs: np.ndarray, nbins: int = 6):
    x = 2 * (vecs[:, 0].conj() * vecs[:, 1]).real
    y = 2 * (vecs[:, 0].conj() * vecs[:, 1]).imag
    z = (np.abs(vecs[:, 0]) ** 2 - np.abs(vecs[:, 1]) ** 2)
    def digit(c):
        return np.clip(((c + 1.0) / 2.0 * nbins).astype(int), 0, nbins - 1)
    return list(zip(digit(x), digit(y), digit(z)))


def _state_keys(vecs: np.ndarray, nbins: int = 6):
    n, d = vecs.shape
    if d == 2:
        return _bloch_key(vecs, nbins)
    pops = np.abs(vecs) ** 2
    rng = np.random.default_rng(777)
    obs = []
    for _ in range(2):
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        obs.append((a + a.conj().T) / 2)
    extra = [np.einsum("ia,ab,ib->i", vecs.conj(), o, vecs).real / max(frob(o), 1.0)
             for o in obs]
    cols = [np.clip((pops[:, k] * nbins).astype(int), 0, nbins - 1)
            for k in range(d)]
    cols += [np.clip(((e + 1.0) / 2.0 * nbins).astype(int), 0, nbins - 1)
             for e in extra]
    return list(zip(*cols))


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
    permutation may be an explicit tuple, None (identity after raising
    MissingPermutation is the caller's choice), or "best" to scan all
    label bijections and report the most favorable p-value.
    Returns (p_value, passed).
    """
    if partition is None:
        partition = build_sjeds(rep)
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
        counts_a = ens_a.coarse_count_vectors(partition.nsets)
        counts_b = ens_b.coarse_count_vectors(partition.nsets)
        size = partition.nsets
    else:
        raise ValueError(f"unknown level {level!r}")

    keys_a = _state_keys(va, nbins=4)
    keys_b = _state_keys(vb, nbins=4)
    hb = _histogram([key + tuple(row) for key, row in zip(keys_b, counts_b)])

    def p_for(perm):
        # records map label j -> perm[j], so the mapped count at k is the
        # original count at the preimage of k
        inv = np.argsort(np.asarray(perm))
        mapped = counts_a[:, inv]
        ha = _histogram([key + tuple(row) for key, row in zip(keys_a, mapped)])
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
    pval = p_for(tuple(permutation))
    return pval, pval > alpha_sig


def export_records(ensemble: TrajectoryEnsemble, path) -> None:
    """Line-delimited export: one record per line with the final state."""
    import json

    tfinal = max(ensemble.states) if ensemble.states else None
    with open(path, "w") as fh:
        for i, rec in enumerate(ensemble.records):
            entry = {
                "trajId": i,
                "events": [[t, int(j)] for t, j in rec],
            }
            if tfinal is not None:
                v = ensemble.states[tfinal][i]
                entry["finalState"] = [[float(c.real), float(c.imag)] for c in v]
            fh.write(json.dumps(entry) + "\n")


def export_count_histogram(ensemble: TrajectoryEnsemble, nlabels: int, path) -> None:
    """CSV histogram of final count vectors."""
    counts = ensemble.count_vectors(nlabels)
    hist = _histogram([tuple(row) for row in counts])
    with open(path, "w") as fh:
        fh.write(",".join(f"n{j + 1}" for j in range(nlabels)) + ",occurrences\n")
        for key in sorted(hist):
            fh.write(",".join(str(k) for k in key) + f",{hist[key]}\n")


__all__ = [
    "MeasurementRecord",
    "MissingPermutation",
    "SizeMismatch",
    "StiffnessError",
    "Trajectory",
    "TrajectoryEnsemble",
    "coarse_record",
    "coarse_record_weight",
    "drift",
    "ensemble_average",
    "ensemble_symmetry_test",
    "export_count_histogram",
    "export_records",
    "jump_rates",
    "record_weight",
    "sample_ensemble",
    "sample_trajectory",
    "state_vector",
    "transform_record",
    "two_sample_chi2",
]
