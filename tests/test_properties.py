"""Property tests of the condition hierarchy on representations that are
symmetric by construction."""

import numpy as np
from hypothesis import given, strategies as st

from weaksym import linalg
from weaksym.lindblad import Representation
from weaksym.linalg import dag, frob
from weaksym.sjed import (
    build_sjeds,
    composite_choi,
    partition_from_groups,
    remix_within_sets,
)
from weaksym.symmetry import SymmetryOperator, build_symmetry_report


@st.composite
def symmetric_models(draw):
    """(representation, symmetry, remixed, split) with jumps closed under U.

    U has order dividing `order`; the jumps are the U-orbits of a few
    full-rank jumps and of rank-one jumps sharing one destination, the
    Hamiltonian is the U-average of a random one.  Remixing inside the
    SJEDs keeps conditions I and II but generally breaks condition III.
    A split model is checked with every jump in an SJED of its own;
    when U is a multiple of the identity its orbits repeat jumps, and the
    SJED matching then has ties.
    """
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(1, 3))
    steps = draw(st.lists(st.integers(0, order - 1), min_size=dim, max_size=dim))
    n_full = draw(st.integers(0, 2))
    n_reset = draw(st.integers(0 if n_full else 1, 2))
    remixed = draw(st.booleans())
    split = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    v = linalg.random_unitary(rng, dim)
    u = v @ np.diag(np.exp(2j * np.pi * np.array(steps) / order)) @ dag(v)
    powers = [np.linalg.matrix_power(u, k) for k in range(order)]
    h = gaussian(dim, dim)
    h = sum(p @ (h + dag(h)) @ dag(p) for p in powers)
    dest = gaussian(dim)
    seeds = [gaussian(dim, dim) for _ in range(n_full)]
    seeds += [np.outer(dest, gaussian(dim).conj()) for _ in range(n_reset)]
    rep = Representation(h, tuple(p @ j @ dag(p) for p in powers for j in seeds))
    if remixed:
        rep = rep.with_jumps(remix_within_sets(build_sjeds(rep), rng))
    return rep, SymmetryOperator.from_matrix(u), remixed, split


@given(symmetric_models())
def test_symmetric_models_keep_the_hierarchy(model):
    rep, sym, remixed, split = model
    partition = partition_from_groups(rep, [[k] for k in range(rep.njumps)]) \
        if split else None
    report = build_symmetry_report(rep, sym, partition=partition)
    assert report.consistent
    assert report.condition_I.holds
    assert report.condition_II.holds or (remixed and split)
    assert report.condition_III.holds or remixed


@given(symmetric_models(), st.data())
def test_relabelling_relabels_the_certificates(model, data):
    rep, sym, _, _ = model
    sigma = data.draw(st.permutations(range(rep.njumps)))
    relabelled = rep.with_jumps([rep.jumps[s] for s in sigma])
    a = build_symmetry_report(rep, sym)
    b = build_symmetry_report(relabelled, sym)
    assert a.verdicts() == b.verdicts()
    if a.condition_III.holds:
        # jump i of the relabelled model is jump sigma[i]; both certificates
        # must send it to the same operator (the same index unless two
        # jumps coincide up to phase)
        for i, s in enumerate(sigma):
            image_a = np.exp(1j * a.condition_III.phases[s]) \
                * rep.jumps[a.condition_III.permutation[s]]
            image_b = np.exp(1j * b.condition_III.phases[i]) \
                * relabelled.jumps[b.condition_III.permutation[i]]
            assert frob(image_a - image_b) < 1e-8 * frob(image_a)
    if a.condition_II.holds:
        pa, pb = build_sjeds(rep), build_sjeds(relabelled)
        original = {frozenset(s.indices): k for k, s in enumerate(pa.sets)}
        for k, s in enumerate(pb.sets):
            ka = original[frozenset(sigma[i] for i in s.indices)]
            choi_a = composite_choi(pa, a.condition_II.permutation[ka])
            choi_b = composite_choi(pb, b.condition_II.permutation[k])
            assert frob(choi_a - choi_b) < 1e-8 * frob(choi_a)
