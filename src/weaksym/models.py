"""Built-in example models.

Each builder returns a Model bundling a representation, its named
symmetry unitaries, an optional explicit SJED grouping, and the expected
condition verdicts used by the command-line checker.  Parameters default
to generic values where the model family leaves them free; constraints
are noted in the docstrings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import linalg
from .lindblad import Representation

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# the parameter constraints (unit rows, |c1|^2 + |c2|^2 = 1/2) are met to
# the rounding of the numbers given
_CONSTRAINT_TOL = linalg.ROUNDING_FLOOR
# parameters within tau(DEFAULT_TOL) of a more symmetric case would take
# that case's verdicts at the default --tol, not the ones `expect` records
_GENERIC_TOL = linalg.threshold(linalg.DEFAULT_TOL)


@dataclass(frozen=True)
class Model:
    name: str
    rep: Representation
    symmetries: dict
    sjed_groups: tuple | None = None
    expect: dict = field(default_factory=dict)
    description: str = ""
    parameters: dict = field(default_factory=dict)


def _kron(a, b) -> np.ndarray:
    """np.kron of two matrices, formed as one broadcast product."""
    a, b = np.asarray(a), np.asarray(b)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _k_plus(gz, gx):
    return np.sqrt(gz) * SZ + np.sqrt(gx) * SX


def _k_minus(gz, gx):
    return np.sqrt(gz) * SZ - np.sqrt(gx) * SX


def qubit_weak(omega=1.0, gamma_z=1.0, gamma_x=1.0) -> Model:
    """Single qubit, jumps along z and x: weakly symmetric under parity."""
    rep = Representation(omega * SZ,
                         (np.sqrt(gamma_z) * SZ, np.sqrt(gamma_x) * SX),
                         ("Jz", "Jx"))
    return Model(
        "qubit-weak", rep, {"parity": SZ.copy()},
        expect={"parity": (True, True, True)},
        description="dephasing plus bit flips; parity acts as Jz -> Jz, Jx -> -Jx",
        parameters=dict(omega=omega, gamma_z=gamma_z, gamma_x=gamma_x),
    )


def qubit_iii(omega=1.0, gamma_z=1.0, gamma_x=1.0) -> Model:
    """Single qubit with the two balanced jump mixtures swapped by parity."""
    j1 = _k_plus(gamma_z, gamma_x) / np.sqrt(2)
    j2 = _k_minus(gamma_z, gamma_x) / np.sqrt(2)
    rep = Representation(omega * SZ, (j1, j2), ("Jp", "Jm"))
    return Model(
        "qubit-III", rep, {"parity": SZ.copy()},
        expect={"parity": (True, True, True)},
        description="record-level symmetric: parity swaps the two jumps",
        parameters=dict(omega=omega, gamma_z=gamma_z, gamma_x=gamma_x),
    )


def qubit_ii(omega=1.0, gamma_z=1.0, gamma_x=1.0, c1=None, c2=None) -> Model:
    """Single qubit with a split jump: trajectory-symmetric, record-asymmetric.

    Constraint |c1|^2 + |c2|^2 = 1/2 with both nonzero.
    """
    if c1 is None:
        c1 = 0.6 / np.sqrt(2)
    if c2 is None:
        c2 = 0.8 / np.sqrt(2)
    if abs(abs(c1) ** 2 + abs(c2) ** 2 - 0.5) > _CONSTRAINT_TOL:
        raise ValueError("need |c1|^2 + |c2|^2 = 1/2")
    kp = _k_plus(gamma_z, gamma_x)
    km = _k_minus(gamma_z, gamma_x)
    rep = Representation(omega * SZ, (c1 * kp, c2 * kp, km / np.sqrt(2)),
                         ("Jp1", "Jp2", "Jm"))
    return Model(
        "qubit-II", rep, {"parity": SZ.copy()},
        expect={"parity": (True, True, False)},
        description="proportional pair plus partner jump; only the SJED actions are swapped",
        parameters=dict(omega=omega, gamma_z=gamma_z, gamma_x=gamma_x,
                        c1=complex(c1), c2=complex(c2)),
    )


def qubit_i(omega=1.0, gamma_z=1.0, gamma_x=1.0, a=0.8, b=0.6) -> Model:
    """Single qubit breaking trajectory symmetry: |a| != |b|, |a|^2+|b|^2 = 1."""
    if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > _CONSTRAINT_TOL \
            or abs(abs(a) - abs(b)) < _GENERIC_TOL:
        raise ValueError("need |a|^2 + |b|^2 = 1 and |a| != |b|")
    j1 = a * np.sqrt(gamma_z) * SZ + b * np.sqrt(gamma_x) * SX
    j2 = np.conj(b) * np.sqrt(gamma_z) * SZ - np.conj(a) * np.sqrt(gamma_x) * SX
    rep = Representation(omega * SZ, (j1, j2), ("Ja", "Jb"))
    return Model(
        "qubit-I", rep, {"parity": SZ.copy()},
        expect={"parity": (True, False, False)},
        description="unbalanced jump mixing: only the master operator is symmetric",
        parameters=dict(omega=omega, gamma_z=gamma_z, gamma_x=gamma_x, a=a, b=b),
    )


def qubit_nonunique(omega=1.0, gamma_z=1.0, gamma_x=1.0, theta=np.pi / 6) -> Model:
    """Four proportional-pair jumps with a non-unique mixing-matrix certificate."""
    c1 = np.cos(theta) / np.sqrt(2)
    c2 = np.sin(theta) / np.sqrt(2)
    kp = _k_plus(gamma_z, gamma_x)
    km = _k_minus(gamma_z, gamma_x)
    rep = Representation(omega * SZ, (c1 * kp, c2 * kp, c1 * km, c2 * km),
                         ("Jp1", "Jp2", "Jm1", "Jm2"))
    return Model(
        "qubit-nonunique", rep, {"parity": SZ.copy()},
        expect={"parity": (True, True, True)},
        description="two proportional pairs swapped by parity; unitary certificate has documented freedom",
        parameters=dict(omega=omega, gamma_z=gamma_z, gamma_x=gamma_x, theta=theta),
    )


def _two_qubit_ops():
    """Single-qubit operators embedded in the two-qubit space.

    Basis per qubit is ordered (|1>, |0>), so n = diag(1, 0) counts the
    excited state and the joint basis is (|11>, |10>, |01>, |00>).
    """
    eye = np.eye(2, dtype=complex)
    n = np.diag([1.0, 0.0]).astype(complex)
    nbar = np.diag([0.0, 1.0]).astype(complex)
    sp = np.array([[0, 1], [0, 0]], dtype=complex)   # |1><0|
    sm = np.array([[0, 0], [1, 0]], dtype=complex)   # |0><1|
    def on1(op):
        return _kron(op, eye)
    def on2(op):
        return _kron(eye, op)
    return {
        "sx1": on1(SX), "sx2": on2(SX),
        "sm1": on1(sm), "sp1": on1(sp),
        "sm2": on2(sm), "sp2": on2(sp),
        "n1": on1(n), "nbar1": on1(nbar),
        "n2": on2(n), "nbar2": on2(nbar),
    }


def _two_qubit_h(omega1, omega2):
    o = _two_qubit_ops()
    return omega1 * o["sx1"] + omega2 * o["sx2"]


def twoqubit_weak(omega1=1.0, omega2=np.sqrt(2.0)) -> Model:
    """Two coupled qubits, weakly symmetric under the double flip."""
    o = _two_qubit_ops()
    j1 = o["sm1"] @ o["nbar2"] + o["sp1"] @ o["n2"]
    j2 = o["sm1"] @ o["nbar2"] - o["sp1"] @ o["n2"]
    j3 = o["nbar1"] @ o["sm2"] + o["n1"] @ o["sp2"]
    j4 = o["nbar1"] @ o["sm2"] - o["n1"] @ o["sp2"]
    rep = Representation(_two_qubit_h(omega1, omega2), (j1, j2, j3, j4))
    u = _kron(SX, SX)
    return Model(
        "twoqubit-weak", rep, {"flip": u},
        expect={"flip": (True, True, True)},
        description="every jump is an eigenoperator of the double flip",
        parameters=dict(omega1=omega1, omega2=omega2),
    )


def twoqubit_iii(omega1=1.0, omega2=np.sqrt(2.0)) -> Model:
    """Two qubits with reset jumps permuted pairwise by the double flip."""
    o = _two_qubit_ops()
    j1 = o["sm1"] @ o["nbar2"]
    j2 = o["sp1"] @ o["n2"]
    j3 = o["nbar1"] @ o["sm2"]
    j4 = o["n1"] @ o["sp2"]
    rep = Representation(_two_qubit_h(omega1, omega2), (j1, j2, j3, j4))
    return Model(
        "twoqubit-III", rep, {"flip": _kron(SX, SX)},
        expect={"flip": (True, True, True)},
        description="reset jumps to |00> and |11>; flip swaps them in two 2-cycles",
        parameters=dict(omega1=omega1, omega2=omega2),
    )


def twoqubit_ii(omega1=1.0, omega2=np.sqrt(2.0),
                a1=0.8, a2=0.6, b1=0.28, b2=0.96) -> Model:
    """Two qubits with mixed reset SJEDs: trajectory-symmetric only.

    Constraints |a1|^2+|a2|^2 = |b1|^2+|b2|^2 = 1 and |a1| != |b1|; the
    defaults also keep (b1, b2) away from (a2, a1) and (a1, -a2) up to
    phase, which would sneak the record-level symmetry back in.
    """
    if abs(abs(a1) ** 2 + abs(a2) ** 2 - 1) > _CONSTRAINT_TOL \
            or abs(abs(b1) ** 2 + abs(b2) ** 2 - 1) > _CONSTRAINT_TOL \
            or abs(abs(a1) - abs(b1)) < _GENERIC_TOL:
        raise ValueError("need unit rows and |a1| != |b1|")
    o = _two_qubit_ops()
    d0 = o["sm1"] @ o["nbar2"]   # -> |00>
    d0b = o["nbar1"] @ o["sm2"]  # -> |00>
    d1 = o["n1"] @ o["sp2"]      # -> |11>
    d1b = o["sp1"] @ o["n2"]     # -> |11>
    j1 = a1 * d0 + a2 * d0b
    j2 = np.conj(a2) * d0 - np.conj(a1) * d0b
    j3 = b1 * d1 + b2 * d1b
    j4 = np.conj(b2) * d1 - np.conj(b1) * d1b
    rep = Representation(_two_qubit_h(omega1, omega2), (j1, j2, j3, j4))
    return Model(
        "twoqubit-II", rep, {"flip": _kron(SX, SX)},
        expect={"flip": (True, True, False)},
        description="two reset SJEDs with destinations |00> and |11>, swapped by the flip",
        parameters=dict(omega1=omega1, omega2=omega2, a1=a1, a2=a2, b1=b1, b2=b2),
    )


def twoqubit_i(omega1=1.0, omega2=np.sqrt(2.0),
               a1=0.8, b1=0.6, a2=0.28, b2=0.96) -> Model:
    """Two qubits mixing opposite destinations: master-level symmetry only.

    Constraints |a1|^2+|b1|^2 = |a2|^2+|b2|^2 = 1 and |a1| != |b1|; the
    defaults also keep (b1, a1) away from (a2, b2) and (b2, -a2) up to
    phase so no accidental trajectory symmetry appears.
    """
    if abs(abs(a1) ** 2 + abs(b1) ** 2 - 1) > _CONSTRAINT_TOL \
            or abs(abs(a2) ** 2 + abs(b2) ** 2 - 1) > _CONSTRAINT_TOL \
            or abs(abs(a1) - abs(b1)) < _GENERIC_TOL:
        raise ValueError("need unit rows and |a1| != |b1|")
    o = _two_qubit_ops()
    d0 = o["sm1"] @ o["nbar2"]   # |00><10|
    d0b = o["nbar1"] @ o["sm2"]  # |00><01|
    d1 = o["n1"] @ o["sp2"]      # |11><10|
    d1b = o["sp1"] @ o["n2"]     # |11><01|
    j1 = a1 * d0 + b1 * d1
    j2 = np.conj(b1) * d0 - np.conj(a1) * d1
    j3 = a2 * d0b + b2 * d1b
    j4 = np.conj(b2) * d0b - np.conj(a2) * d1b
    rep = Representation(_two_qubit_h(omega1, omega2), (j1, j2, j3, j4))
    return Model(
        "twoqubit-I", rep, {"flip": _kron(SX, SX)},
        expect={"flip": (True, False, False)},
        description="jumps mix the two reset destinations; trajectory symmetry is broken",
        parameters=dict(omega1=omega1, omega2=omega2, a1=a1, b1=b1, a2=a2, b2=b2),
    )


def _site_op(op, site, length) -> scipy.sparse.csr_array:
    """Operator acting on one site of a qutrit chain (0-based site index),
    1 x op x 1 as a CSR matrix."""
    eye = [scipy.sparse.eye_array(3 ** n, dtype=complex) for n in (site, length - site - 1)]
    return scipy.sparse.kron(scipy.sparse.kron(eye[0], scipy.sparse.csr_array(op)), eye[1],
                             format="csr")


def _translation_unitary(length) -> scipy.sparse.csr_array:
    """U moving the content of site k to site k+1 (periodic): the last
    base-3 digit of a basis index becomes its first."""
    dim = 3 ** length
    idx = np.arange(dim)
    return scipy.sparse.csr_array(
        (np.ones(dim, dtype=complex), (idx % 3 * 3 ** (length - 1) + idx // 3, idx)),
        shape=(dim, dim))


def _site_rotation(theta):
    """Rotation of the (|1>, |2>) subspace of one qutrit."""
    u = np.eye(3, dtype=complex)
    u[1, 1] = np.cos(theta)
    u[2, 2] = np.cos(theta)
    u[2, 1] = np.sin(theta)
    u[1, 2] = -np.sin(theta)
    return u


def qutrit_chain(length=4, thetas=None, omega=1.0, rot_angles=None) -> Model:
    """Periodic qutrit chain with per-site two-state emission into the vacuum,
    every operator a CSR matrix built with scipy.sparse.kron.

    Site alpha carries the jump pair
        J_alpha^(1) = |vac><vac| (c1_alpha cos(theta_alpha) + c2_alpha sin(theta_alpha)),
        J_alpha^(2) = |vac><vac| (c1_alpha sin(theta_alpha) - c2_alpha cos(theta_alpha)),
    with c1 = |0><1| and c2 = |0><2| on that site.  All jumps reset to the
    global vacuum, so the per-site grouping is carried explicitly.

    Symmetries: "translation" (one-site shift), "rotation" (per-site
    rotation by rot_angles), and "combined" = translation composed with
    the angle-aligning rotation by theta_{alpha+1} - theta_alpha, which
    permutes the labelled jumps exactly.
    """
    if length != int(length) or length < 1:
        raise ValueError(f"length must be a whole number >= 1, got {length!r}")
    length = int(length)
    if thetas is None:
        thetas = np.deg2rad(30.0 * np.arange(length))
    thetas = np.asarray(thetas, dtype=float)
    if len(thetas) != length:
        raise ValueError("need one angle per site")
    dim = 3 ** length
    pvac = scipy.sparse.csr_array(([1.0 + 0j], ([0], [0])), shape=(dim, dim))
    c1 = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    c2 = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)

    jumps = []
    labels = []
    groups = []
    for site in range(length):
        th = thetas[site]
        c1s = _site_op(c1, site, length)
        c2s = _site_op(c2, site, length)
        jumps.append(pvac @ (np.cos(th) * c1s + np.sin(th) * c2s))
        jumps.append(pvac @ (np.sin(th) * c1s - np.cos(th) * c2s))
        labels += [f"J{site + 1}a", f"J{site + 1}b"]
        groups.append((2 * site, 2 * site + 1))

    number_op = np.diag([0.0, 1.0, 1.0]).astype(complex)
    h = omega * sum(_site_op(number_op, s, length) for s in range(length))

    u_t = _translation_unitary(length)
    if rot_angles is None:
        rot_angles = [thetas[(s + 1) % length] - thetas[s] for s in range(length)]
    rot_angles = np.asarray(rot_angles, dtype=float)
    u_rot = _site_op(_site_rotation(rot_angles[0]), 0, length)
    for s in range(1, length):
        u_rot = u_rot @ _site_op(_site_rotation(rot_angles[s]), s, length)
    u_rot = linalg.operator(u_rot)
    u_combined = linalg.operator(u_t @ u_rot)

    rep = Representation(h, tuple(jumps), tuple(labels))
    # translation alone permutes labelled jumps only when consecutive angles
    # differ by a multiple of 90 degrees
    diffs = np.diff(np.append(thetas, thetas[0]))
    rem = np.remainder(diffs, np.pi / 2)
    generic = bool(np.any(np.minimum(rem, np.pi / 2 - rem) > _GENERIC_TOL))
    return Model(
        "qutrit-chain", rep,
        {"translation": u_t, "rotation": u_rot, "combined": u_combined},
        sjed_groups=tuple(groups),
        expect={
            "translation": (True, True, not generic),
            "combined": (True, True, True),
        },
        description="translation permutes the per-site SJEDs cyclically; the "
                    "aligned combined symmetry permutes the jumps themselves",
        parameters=dict(length=length, omega=omega,
                        thetas=[float(t) for t in thetas],
                        rot_angles=[float(t) for t in rot_angles]),
    )


BUILDERS = {
    "qubit-weak": qubit_weak,
    "qubit-III": qubit_iii,
    "qubit-II": qubit_ii,
    "qubit-I": qubit_i,
    "qubit-nonunique": qubit_nonunique,
    "twoqubit-weak": twoqubit_weak,
    "twoqubit-III": twoqubit_iii,
    "twoqubit-II": twoqubit_ii,
    "twoqubit-I": twoqubit_i,
    "qutrit-chain": qutrit_chain,
}


def get_model(name: str, **kwargs) -> Model:
    if name not in BUILDERS:
        raise KeyError(f"unknown example {name!r}; known: {sorted(BUILDERS)}")
    return BUILDERS[name](**kwargs)
