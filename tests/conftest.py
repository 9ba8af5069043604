import functools

import numpy as np
import pytest

from sparsegs.builder import ConstructionParams, assemble_global
from sparsegs.lattice import PatchEmbedding, build_heavy_hex, build_path, embed_patches
from sparsegs.paulis import PauliString, PauliSum, index_in
from sparsegs.subspace import connected_bits


def random_pauli_sum(rng, n, n_terms, real=True):
    terms = []
    for _ in range(n_terms):
        xm = int(rng.integers(0, 1 << n))
        zm = int(rng.integers(0, 1 << n))
        c = float(rng.normal()) if real else complex(rng.normal(), rng.normal())
        terms.append((c, PauliString(xm, zm, n)))
    return PauliSum(terms, n)


def grouped_pauli_sum(rng, n, n_masks, per_mask):
    """Several terms on each of a few x-masks, with coefficients in
    {+-1/2, +-1} so that net elements can cancel exactly.  Every other
    x-mask carries no Y (its z-masks avoid its x bits) and only +-1
    coefficients, so its real elements cancel often."""
    terms = []
    for g, xm in enumerate(rng.choice(1 << n, size=n_masks, replace=False)):
        zms = rng.choice(1 << n, size=per_mask, replace=False)
        scale = [-1.0, -0.5, 0.5, 1.0]
        if g % 2 == 0:
            zms, scale = np.unique(zms & ~xm), [-1.0, 1.0]
        for zm in zms:
            terms.append((float(rng.choice(scale)), PauliString(int(xm), int(zm), n)))
    return PauliSum(terms, n)


def without_odd_y(h):
    """h without its terms that carry an odd number of Y factors, so every
    net weight alpha_k i^|Y_k| of a real-coefficient sum is real."""
    return PauliSum([(c, s) for c, s in h.terms if (s.x_mask & s.z_mask).bit_count() % 2 == 0],
                    h.n_qubits)


@functools.cache
def layout_instance(layout):
    """(hamiltonian, certificate) of a `sparsegs generate --seed 9` bundle:
    the 49-qubit flagship, or the 16-qubit path patch, bare or coupled."""
    if layout == "flagship":
        g = build_heavy_hex(3, 2)
        return assemble_global(g, embed_patches(g, 3, 16, seed=9),
                               ConstructionParams(obfuscation_seed=9))
    emb = PatchEmbedding((tuple(range(16)),), ())
    return assemble_global(build_path(16), emb, ConstructionParams(obfuscation_seed=9),
                           couple=layout == "path16-coupled")


@functools.cache
def flagship_ball(depth):
    """The flagship's initial configuration and its first `depth`
    neighbourhoods, sorted and read-only; 1, 16, 116, 580, 2,531 and
    10,121 configurations at depths 0 to 5."""
    h, cert = layout_instance("flagship")
    if depth == 0:
        ball = np.array([cert.initial_config.bits], dtype=np.uint64)
    else:
        inner = flagship_ball(depth - 1)
        ball = np.union1d(inner, connected_bits(h, inner))
    ball.flags.writeable = False
    return ball


def to_width(h, width):
    """(h', shift): h moved onto the top h.n_qubits qubits of a
    `width`-qubit register, so that configurations shifted left by `shift`
    reach the word's high bits; width None leaves h as it is."""
    if width is None:
        return h, np.uint64(0)
    s = width - h.n_qubits
    terms = [(c, PauliString(p.x_mask << s, p.z_mask << s, width)) for c, p in h.terms]
    return PauliSum(terms, width), np.uint64(s)


def kron_dense(h):
    """Independent dense oracle: Kronecker products per term, no bit tricks."""
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, s in h.terms:
        m += coeff * s.dense()
    return m


def support_covered(basis, cert):
    """How many certificate-support configurations the basis holds."""
    support = np.array([c.bits for c in cert.support], dtype=np.uint64)
    return int((index_in(basis, support) >= 0).sum())


@pytest.fixture(scope="session")
def patch_instance():
    """Obfuscated bare 16-qubit main patch: (hamiltonian, certificate)."""
    g = build_path(16)
    emb = PatchEmbedding((tuple(range(16)),), ())
    params = ConstructionParams(mode="main", obfuscation_seed=7)
    return assemble_global(g, emb, params, couple=False)
