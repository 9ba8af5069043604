"""Construction of the synthetic sparse-ground-state Hamiltonian families.

Both families start from the same 8x8 core matrix whose ground state sits
at energy zero but is qualitatively different from the ground state of
every leading principal submatrix (a level crossing at the last step).
The warmup family realizes the core block densely on three qubits; the
main family spreads it over the Hamming-weight-1 configurations of the
even positions of a 16-qubit line, which makes every term a one- or
two-qubit Pauli.

The published core constants are 8-decimal roundings of an exact choice:
b = -cos(phi), c = -sin(phi) with tan(2 phi) = 4 (this makes (-c, b) an
exact eigenvector of the leading 2x2 block, which is what kills
perturbative selection), and a shifts the lowest eigenvalue to zero.
CoreBlockParams defaults to the machine-precision values; the rounded
literals are available as CoreBlockParams.printed().
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lattice import LayoutGraph, PatchEmbedding, classify_edges, validate_embedding
from .paulis import (
    Configuration,
    PauliString,
    PauliSum,
    add_scaled,
    apply_sum_to_vector,
    conjugate_by_x_layer,
    decompose_dense_block,
)

_PHI = np.arctan(4.0) / 2
B_EXACT = -np.cos(_PHI)
C_EXACT = -np.sin(_PHI)

_DIAG_STEPS = (0.5, 0.0, 2.0, 2.0, 1.0, 1.0, 1.0, 0.0)
CERTIFICATE_REL_TOL = 1e-7  # verify_certificate's residual bound per unit coefficient 1-norm


def _core_matrix(a: float, b: float, c: float) -> np.ndarray:
    m = np.zeros((8, 8))
    for i, step in enumerate(_DIAG_STEPS):
        m[i, i] = a + step
    for i in range(2, 7):
        m[i, i + 1] = m[i + 1, i] = 1.0
    m[0, 1] = m[1, 0] = 1.0
    m[0, 2] = m[2, 0] = b
    m[1, 2] = m[2, 1] = c
    return m


A_EXACT = float(-np.linalg.eigvalsh(_core_matrix(0.0, B_EXACT, C_EXACT))[0])


@dataclass(frozen=True)
class CoreBlockParams:
    """Scalars of the core matrix.  Defaults are the exact values; the
    8-decimal published roundings shift the perturbative-stall numerators
    from ~1e-16 up to ~1e-10."""

    a: float = A_EXACT
    b: float = B_EXACT
    c: float = C_EXACT

    @classmethod
    def printed(cls) -> "CoreBlockParams":
        return cls(a=0.90694271, b=-0.78820544, c=-0.61541221)


def build_core_block(p: CoreBlockParams | None = None) -> np.ndarray:
    """The banded 8x8 core matrix; lowest eigenvalue 0 at default params."""
    p = p or CoreBlockParams()
    return _core_matrix(p.a, p.b, p.c)


def _phase_fix(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


def partial_ground_states(m: np.ndarray) -> list[np.ndarray]:
    """Lowest eigenvector of each leading principal submatrix, i = 1..dim.

    Phase-fixed so the largest-magnitude entry is positive.
    """
    out = []
    for i in range(1, m.shape[0] + 1):
        _, vecs = np.linalg.eigh(m[:i, :i])
        out.append(_phase_fix(vecs[:, 0]))
    return out


def level_crossing_sweep(p: CoreBlockParams | None, etas) -> np.ndarray:
    """Eigenvalues (ascending) of the core matrix with entries (6,7)/(7,6)
    replaced by eta, one row per eta."""
    m = build_core_block(p)
    rows = []
    for eta in etas:
        mm = m.copy()
        mm[6, 7] = mm[7, 6] = eta
        rows.append(np.linalg.eigvalsh(mm))
    return np.asarray(rows)


@dataclass(frozen=True)
class ConstructionParams:
    m1: float = 0.1
    m2: float = 0.01
    j1: float = 1.0
    mode: str = "main"
    obfuscation_seed: int = 0
    obfuscation_mask: int | None = None  # explicit mask wins over the seed; 0 means no mask

    def __post_init__(self):
        if abs(self.m1) > 1:
            raise ValueError("|m1| must be <= 1 (coupling factor loses p.s.d. beyond)")
        if self.m2 < 0 or self.j1 < 0:
            raise ValueError("m2 and j1 must be nonnegative")
        if self.mode not in ("main", "warmup"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class GroundStateCertificate:
    """Exact ground-state data carried alongside a generated Hamiltonian."""

    energy: float
    support: list[Configuration]
    amplitudes: np.ndarray
    initial_config: Configuration
    patch_support_size: int
    n_qubits: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=float)
        if len(self.support) != self.amplitudes.size:
            raise ValueError("support/amplitude length mismatch")
        nrm = np.linalg.norm(self.amplitudes)
        if abs(nrm - 1.0) > 1e-9:
            raise ValueError("certificate amplitudes must be unit-normalized")
        if self.initial_config not in set(self.support):
            raise ValueError("initial_config must be a support configuration")

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """(bits, amps) of the certificate state, sorted by bits."""
        bits = np.array([cfg.bits for cfg in self.support], dtype=np.uint64)
        order = np.argsort(bits)
        return bits[order], self.amplitudes[order].astype(complex)

    def initial_overlap_sq(self) -> float:
        i = self.support.index(self.initial_config)
        return float(self.amplitudes[i] ** 2)

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "energy": self.energy,
            "patch_support_size": self.patch_support_size,
            "initial_config": self.initial_config.to_hex(),
            "support": [cfg.to_hex() for cfg in self.support],
            "amplitudes": [float(x) for x in self.amplitudes],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "GroundStateCertificate":
        n = d["n_qubits"]
        return cls(
            energy=d["energy"],
            support=[Configuration.from_hex(s, n) for s in d["support"]],
            amplitudes=np.array(d["amplitudes"], dtype=float),
            initial_config=Configuration.from_hex(d["initial_config"], n),
            patch_support_size=d["patch_support_size"],
            n_qubits=n,
        )


@dataclass
class PatchResult:
    """A patch Hamiltonian plus its local ground-state data (pre-obfuscation)."""

    terms: list
    support_bits: list[int]
    amplitudes: np.ndarray
    x0_bits: int


def _core_ground(p: CoreBlockParams) -> np.ndarray:
    vals, vecs = np.linalg.eigh(build_core_block(p))
    if vals[0] > 1e-6:
        raise ValueError("core block ground energy is far from zero")
    return _phase_fix(vecs[:, 0])


def _hop_terms(qp: int, qq: int, w: float, n: int) -> list:
    """(w/2)(X_p X_q + Y_p Y_q): moves one set bit between p and q."""
    both = (1 << qp) | (1 << qq)
    return [
        (w / 2, PauliString(both, 0, n)),
        (w / 2, PauliString(both, both, n)),
    ]


def _number_terms(q: int, w: float, n: int) -> list:
    """w * (I - Z_q)/2."""
    return [
        (w / 2, PauliString(0, 0, n)),
        (-w / 2, PauliString(0, 1 << q, n)),
    ]


def build_main_patch(
    path, p: CoreBlockParams, m1: float, m2: float, n_total: int
) -> PatchResult:
    """Patch Hamiltonian on a 16-qubit line.

    The support configurations are the weight-1 patterns on even path
    positions; odd positions carry a mirror copy of the core block plus
    the degeneracy-breaking term, so the one-excitation block is
    [[A, m1*A], [m1*A, A + 2*m2*I]] and the whole operator is a hard-core
    hopping Hamiltonian with p.s.d. one-particle matrix, hence p.s.d.
    """
    path = list(path)
    if len(path) != 16 or len(set(path)) != 16:
        raise ValueError("main patch needs 16 distinct qubits")
    A = build_core_block(p)
    h = np.zeros((16, 16))
    for i in range(8):
        for j in range(8):
            h[2 * i, 2 * j] += A[i, j]
            h[2 * i + 1, 2 * j + 1] += A[i, j] + (2 * m2 if i == j else 0.0)
            h[2 * j + 1, 2 * i] += m1 * A[j, i]
            h[2 * i, 2 * j + 1] += m1 * A[j, i]
    terms = []
    for i in range(16):
        for j in range(i + 1, 16):
            if h[i, j] != 0.0:
                terms += _hop_terms(path[i], path[j], h[i, j], n_total)
        if h[i, i] != 0.0:
            terms += _number_terms(path[i], h[i, i], n_total)
    g = _core_ground(p)
    support = [1 << path[2 * i] for i in range(8)]
    return PatchResult(terms, support, g.copy(), support[0])


def build_warmup_patch(
    patch_qubits, p: CoreBlockParams, m1: float, m2: float, n_total: int
) -> PatchResult:
    """Warmup patch: (I + m1 X_c) (x) core block + m2 (I - Z_c).

    The first three patch qubits carry the dense core block, the last is
    the coupling qubit c.  The published form fixes m1 = 1.
    """
    patch_qubits = list(patch_qubits)
    if len(patch_qubits) != 4 or len(set(patch_qubits)) != 4:
        raise ValueError("warmup patch needs 4 distinct qubits")
    if abs(m1) > 1:
        raise ValueError("|m1| > 1 loses positive semidefiniteness")
    core, coupling = patch_qubits[:3], patch_qubits[3]
    block = decompose_dense_block(build_core_block(p), core, n_total)
    terms = []
    cbit = 1 << coupling
    for coeff, s in block.terms:
        terms.append((coeff, s))
        terms.append((m1 * coeff, PauliString(s.x_mask | cbit, s.z_mask, n_total)))
    terms += _number_terms(coupling, 2 * m2, n_total)
    g = _core_ground(p)
    support = []
    for j in range(8):
        bits = 0
        for b in range(3):
            if (j >> b) & 1:
                bits |= 1 << core[b]
        support.append(bits)
    return PatchResult(terms, support, g.copy(), support[0])


WARMUP_INT = np.array(
    [
        [0, 0, 0, 0],
        [0, 2.02, 1 + 1j, 1 + 1j],
        [0, 1 - 1j, 2.02, 1 + 1j],
        [0, 1 - 1j, 1 - 1j, 2.02],
    ],
    dtype=complex,
)

MAIN_INT = np.array(
    [
        [0, 0, 0, 0],
        [0, 1.01, 0, 1],
        [0, 0, 0, 0],
        [0, 1, 0, 1.01],
    ],
    dtype=float,
)


def _interaction_terms(
    mode: str, control: int, other: int, j1: float, n: int
) -> list:
    """Two-qubit coupling on an edge; the control qubit is listed first,
    so the nonzero block sits on control = 1 and annihilates every
    support configuration."""
    m = MAIN_INT if mode == "main" else WARMUP_INT
    block = decompose_dense_block(np.asarray(m, dtype=complex) * j1, [control, other], n)
    return list(block.terms)


def _draw_mask(params: ConstructionParams, n: int) -> int:
    if params.obfuscation_mask is not None:
        if params.obfuscation_mask < 0 or params.obfuscation_mask >> n:
            raise ValueError("explicit obfuscation mask does not fit layout")
        return params.obfuscation_mask
    rng = np.random.default_rng(params.obfuscation_seed)
    bits = rng.integers(0, 2, size=n)
    return int(sum(int(b) << q for q, b in enumerate(bits)))


def assemble_global(
    g: LayoutGraph,
    emb: PatchEmbedding,
    params: ConstructionParams,
    *,
    couple: bool = True,
) -> tuple[PauliSum, GroundStateCertificate]:
    """Sum the patch Hamiltonians, add the edge couplings, obfuscate.

    With couple=False no edge interaction is added (the bare-patch
    reduction used by the single-patch benchmark instances).
    """
    path_len = 16 if params.mode == "main" else 4
    validate_embedding(g, emb, path_len)
    n = g.n_qubits

    build_patch = build_main_patch if params.mode == "main" else build_warmup_patch
    core = CoreBlockParams()
    patches = [build_patch(path, core, params.m1, params.m2, n) for path in emb.paths]

    terms = []
    for pr in patches:
        terms += pr.terms

    if couple:
        s1 = emb.s1_qubits() if params.mode == "main" else None
        for u, v in sorted(classify_edges(g, emb, params.mode)):
            if params.mode == "main":
                control, other = (u, v) if u in s1 else (v, u)
            else:
                control, other = u, v
            terms += _interaction_terms(params.mode, control, other, params.j1, n)

    h = PauliSum(terms, n)
    mask = _draw_mask(params, n)
    h = conjugate_by_x_layer(h, mask)

    support_bits = [0]
    amps = np.array([1.0])
    for pr in patches:
        support_bits = [sb | pb for sb in support_bits for pb in pr.support_bits]
        amps = np.outer(amps, pr.amplitudes).ravel()
    x0 = 0
    for pr in patches:
        x0 |= pr.x0_bits

    cert = GroundStateCertificate(
        energy=0.0,
        support=[Configuration(b ^ mask, n) for b in support_bits],
        amplitudes=amps,
        initial_config=Configuration(x0 ^ mask, n),
        patch_support_size=8,
        n_qubits=n,
    )
    return h, cert


@dataclass
class CertificateReport:
    passed: bool
    residual: float
    tolerance: float
    coeff_one_norm: float


def verify_certificate(h: PauliSum, cert: GroundStateCertificate) -> CertificateReport:
    """Check ||(H - E) |Psi>|| <= CERTIFICATE_REL_TOL * sum_k |alpha_k|."""
    bits, amps = cert.state()
    _, resid = add_scaled(*apply_sum_to_vector(h, bits, amps), bits, amps, -cert.energy)
    residual = float(np.linalg.norm(resid))
    one_norm = h.coeff_one_norm()
    tol = CERTIFICATE_REL_TOL * one_norm
    return CertificateReport(residual <= tol, residual, tol, one_norm)


# -- instance bundles -------------------------------------------------------

HAMILTONIAN_FILE = "hamiltonian.json"
CERTIFICATE_FILE = "certificate.json"
METADATA_FILE = "metadata.json"


def instance_hash(text: str) -> str:
    """The hash of a bundle file's text: the first 16 hex digits of its
    SHA-256.  Of hamiltonian.json's text, it names the instance."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# metadata.json's key for the hash of each hashed bundle file
_HASHED_FILES = ((HAMILTONIAN_FILE, "instance_hash"), (CERTIFICATE_FILE, "certificate_hash"))


def save_bundle(
    path: Path | str,
    h: PauliSum,
    cert: GroundStateCertificate,
    metadata: dict,
) -> str:
    """Write hamiltonian + certificate + metadata, with the hash of each of
    the first two in the metadata; returns the instance hash."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    texts = {HAMILTONIAN_FILE: json.dumps(h.to_json_dict(), indent=1, sort_keys=True),
             CERTIFICATE_FILE: json.dumps(cert.to_json_dict(), indent=1, sort_keys=True)}
    meta = dict(metadata)
    for name, key in _HASHED_FILES:
        (path / name).write_text(texts[name])
        meta[key] = instance_hash(texts[name])
    (path / METADATA_FILE).write_text(json.dumps(meta, indent=1, sort_keys=True))
    return meta["instance_hash"]


def load_bundle(path: Path | str):
    """Returns (hamiltonian, certificate, metadata).  Raises ValueError when
    the hash of hamiltonian.json's or certificate.json's text is missing
    from metadata.json or differs from it, or when H is not Hermitian (a
    complex coefficient): every eigensolve reads one triangle of the
    projection."""
    path = Path(path)
    meta = json.loads((path / METADATA_FILE).read_text())
    texts = {name: (path / name).read_text() for name, _ in _HASHED_FILES}
    for name, key in _HASHED_FILES:
        if meta.get(key) != instance_hash(texts[name]):
            raise ValueError(f"{path / name} does not match the bundle's {key}")
    h = PauliSum.from_json_dict(json.loads(texts[HAMILTONIAN_FILE]))
    if not h.is_hermitian():
        raise ValueError(f"{path / HAMILTONIAN_FILE} holds a non-Hermitian H")
    cert = GroundStateCertificate.from_json_dict(json.loads(texts[CERTIFICATE_FILE]))
    return h, cert, meta
