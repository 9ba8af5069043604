import numpy as np
import pytest

from sparsegs.builder import ConstructionParams, assemble_global
from sparsegs.lattice import PatchEmbedding, build_path
from sparsegs.paulis import PauliString, PauliSum


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


def kron_dense(h):
    """Independent dense oracle: Kronecker products per term, no bit tricks."""
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for coeff, s in h.terms:
        m += coeff * s.dense()
    return m


@pytest.fixture(scope="session")
def patch_instance():
    """Obfuscated bare 16-qubit main patch: (hamiltonian, certificate)."""
    g = build_path(16)
    emb = PatchEmbedding((tuple(range(16)),), ())
    params = ConstructionParams(mode="main", obfuscation_seed=7)
    return assemble_global(g, emb, params, couple=False)
