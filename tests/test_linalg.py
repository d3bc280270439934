"""Core linear-algebra primitives: projections, ranks, subspaces, PSD tooling."""

import numpy as np
import pytest

import oracles
from filternorm import Tolerances
from filternorm.linalg import (
    dagger,
    gap_split,
    hermitian_basis,
    hermitian_sqrt_pinv,
    identity_projection,
    image_basis,
    kernel_basis,
    mirror_hermitian,
    orthogonal_complement,
    projection_from_matrix,
    projector_onto,
    psd_check,
    rank_eps,
    same_subspace,
    subspace_intersection,
)


def random_rank_deficient(n, r, rng):
    """Random n x n complex matrix of exact rank r."""
    a = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    b = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return a @ b


def test_tolerances_reject_nonpositive_values():
    """Every tolerance field must be strictly positive."""
    with pytest.raises(ValueError):
        Tolerances(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerances(psd_abs=-1e-9)
    with pytest.raises(ValueError):
        Tolerances(sinkhorn_max_iters=0)


def test_dagger_is_conjugate_transpose():
    """dagger flips both axes and conjugates."""
    m = np.array([[1.0 + 2.0j, 3.0], [0.0, -1.0j]])
    assert np.abs(dagger(m) - m.conj().T).max() == 0.0


def test_mirror_hermitian_is_exactly_symmetric():
    """Mirrored matrices satisfy M == M* with zero residual."""
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = mirror_hermitian(m)
        assert np.abs(h - h.conj().T).max() == 0.0


def test_mirror_hermitian_keeps_the_bits_of_the_triangle_formula():
    """Every size from 1 to 20 gives the bytes of ``tril + tril* + Re diag``.

    Signed zeros are drawn on purpose: the formula turns each negative zero
    positive, and the byte comparison sees what ``array_equal`` would not.
    """
    rng = np.random.default_rng(13)
    specials = np.array([0.0, -0.0, 1.5, -2.25, 1e-300, -5e-324])
    for n in range(1, 21):
        for trial in range(6):
            parts = [rng.choice(specials, size=(n, n)) if trial % 2 else
                     rng.standard_normal((n, n)) for _ in range(2)]
            m = np.empty((n, n), dtype=complex)
            m.real, m.imag = parts
            want = oracles.mirror_tril(m)
            got = mirror_hermitian(m)
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()
        real = rng.standard_normal((n, n))
        assert mirror_hermitian(real).tobytes() == oracles.mirror_tril(real + 0j).tobytes()


def test_mirror_hermitian_rejects_bad_input():
    """Non-finite entries, non-square and non-matrix inputs raise ValueError."""
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        m = np.eye(3, dtype=complex)
        m[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            mirror_hermitian(m)
    with pytest.raises(ValueError, match="square"):
        mirror_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError, match="2-dimensional"):
        mirror_hermitian(np.ones((2, 2, 2)))


def test_hermitian_basis_trace_orthonormal():
    """The basis is Hermitian, trace-orthonormal, and has dim^2 elements."""
    for dim in (1, 2, 3, 4):
        basis = hermitian_basis(dim)
        assert basis.shape == (dim * dim, dim, dim)
        for b in basis:
            assert np.abs(b - b.conj().T).max() < 1e-14
        gram = np.einsum("aij,bij->ab", basis.conj(), basis)
        assert np.abs(gram - np.eye(dim * dim)).max() < 1e-14


def test_rank_plus_kernel_dimension_is_column_count():
    """rank_eps(M) + kernel_basis(M) columns == number of columns of M."""
    rng = np.random.default_rng(1)
    cases = [
        np.zeros((3, 3)),
        np.eye(4),
        random_rank_deficient(5, 2, rng),
        random_rank_deficient(4, 4, rng),
        rng.standard_normal((3, 6)) + 1j * rng.standard_normal((3, 6)),
        rng.standard_normal((6, 3)),
    ]
    for m in cases:
        assert rank_eps(m) + kernel_basis(m).shape[1] == m.shape[1]


def test_rank_matches_construction():
    """rank_eps recovers the construction rank of random products."""
    rng = np.random.default_rng(2)
    for n, r in [(3, 1), (4, 2), (5, 5), (6, 3)]:
        assert rank_eps(random_rank_deficient(n, r, rng)) == r


def test_image_basis_is_orthonormal_and_spans():
    """image_basis columns are orthonormal and reproduce the column space."""
    rng = np.random.default_rng(3)
    m = random_rank_deficient(5, 3, rng)
    b = image_basis(m)
    assert b.shape == (5, 3)
    assert np.abs(b.conj().T @ b - np.eye(3)).max() < 1e-12
    # every column of m projects onto itself
    proj = b @ b.conj().T
    assert np.abs(proj @ m - m).max() < 1e-10


def test_kernel_basis_annihilates():
    """M @ kernel_basis(M) vanishes."""
    rng = np.random.default_rng(4)
    m = random_rank_deficient(5, 2, rng)
    kb = kernel_basis(m)
    assert kb.shape == (5, 3)
    assert np.abs(m @ kb).max() < 1e-10


def test_projector_idempotent_and_exactly_hermitian():
    """Projections satisfy |P^2 - P| < 1e-10 and |P - P*| == 0."""
    rng = np.random.default_rng(5)
    for n, r in [(2, 1), (4, 2), (6, 5)]:
        basis = image_basis(random_rank_deficient(n, r, rng))
        p = projector_onto(basis)
        assert p.rank == r
        assert np.abs(p.matrix @ p.matrix - p.matrix).max() < 1e-10
        assert np.abs(p.matrix - p.matrix.conj().T).max() == 0.0


def test_projector_rejects_non_orthonormal_basis():
    """Raw spanning sets must go through image_basis first."""
    bad = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ValueError):
        projector_onto(bad)


def test_projection_from_matrix_and_same_subspace():
    """Rotating a basis inside its span leaves the projection unchanged."""
    rng = np.random.default_rng(6)
    b = image_basis(random_rank_deficient(5, 2, rng))
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    p = projector_onto(b)
    q = projector_onto(b @ u)
    assert same_subspace(p, q)
    other = projector_onto(image_basis(random_rank_deficient(5, 2, rng)))
    assert not same_subspace(p, other)
    assert same_subspace(projection_from_matrix(p.matrix), p)


def test_orthogonal_complement_completes_identity():
    """P plus the projector on its complement is the identity."""
    rng = np.random.default_rng(7)
    p = projector_onto(image_basis(random_rank_deficient(5, 3, rng)))
    comp = orthogonal_complement(p)
    assert comp.shape == (5, 2)
    total = p.matrix + comp @ comp.conj().T
    assert np.abs(total - np.eye(5)).max() < 1e-12
    assert np.abs(p.matrix @ comp).max() < 1e-12


def test_identity_projection_fields():
    """identity_projection is the full-space projector."""
    p = identity_projection(3)
    assert p.rank == 3 and p.dim == 3
    assert np.abs(p.matrix - np.eye(3)).max() == 0.0


def test_subspace_intersection_symmetric():
    """Intersection has the same span regardless of argument order."""
    rng = np.random.default_rng(8)
    shared = rng.standard_normal((6, 1)) + 1j * rng.standard_normal((6, 1))
    a = image_basis(np.concatenate([shared, rng.standard_normal((6, 2))], axis=1))
    b = image_basis(np.concatenate([shared, rng.standard_normal((6, 2))], axis=1))
    ab = subspace_intersection(a, b)
    ba = subspace_intersection(b, a)
    assert ab.shape[1] == 1 and ba.shape[1] == 1
    pa = projector_onto(ab)
    pb = projector_onto(ba)
    assert same_subspace(pa, pb)
    # the intersection contains the shared direction
    s = shared / np.linalg.norm(shared)
    assert np.abs(pa.matrix @ s - s).max() < 1e-8


def test_subspace_intersection_disjoint_and_nested():
    """Disjoint spans intersect trivially; nested spans give the smaller one."""
    e = np.eye(5, dtype=complex)
    assert subspace_intersection(e[:, :2], e[:, 2:4]).shape[1] == 0
    inner = subspace_intersection(e[:, :3], e[:, :2])
    assert inner.shape[1] == 2
    assert same_subspace(projector_onto(inner), projector_onto(e[:, :2]))


def test_psd_check_accepts_and_rejects():
    """psd_check passes PSD matrices, tolerates tiny dips, rejects indefinite ones."""
    rng = np.random.default_rng(9)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    psd = g @ g.conj().T
    assert psd_check(psd)
    assert psd_check(np.zeros((3, 3)))
    assert psd_check(psd - 1e-12 * np.linalg.norm(psd) * np.eye(4))
    indef = psd - 2.0 * np.trace(psd).real / 4 * np.eye(4)
    assert not psd_check(indef)


def test_hermitian_sqrt_pinv_contracts():
    """sqrt @ pinv_sqrt @ sqrt reproduces sqrt within 1e-8, full and deficient rank."""
    rng = np.random.default_rng(10)
    for n, r in [(3, 3), (5, 2), (4, 1)]:
        g = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        m = g @ g.conj().T
        sqrt, pinv_sqrt = hermitian_sqrt_pinv(m)
        assert np.abs(sqrt @ pinv_sqrt @ sqrt - sqrt).max() < 1e-8
        assert np.abs(sqrt @ sqrt - m).max() < 1e-8 * max(1.0, np.abs(m).max())
        # sqrt * pinv_sqrt is the projection onto the image
        p = projection_from_matrix(m)
        assert np.abs(sqrt @ pinv_sqrt - p.matrix).max() < 1e-8


def test_rank_respects_relative_cutoff():
    """Singular values below rank_rel of the top do not count."""
    m = np.diag([1.0, 1e-6, 1e-12])
    assert rank_eps(m) == 2
    assert rank_eps(m, Tolerances(rank_rel=1e-15)) == 3


def test_gap_split_cuts_at_the_widest_gap_below_the_numerical_rank():
    """A PSD spectrum 1, .7, .03, 3e-9, 3e-9, 1e-13 cuts at rank 3, not at its
    rank_rel rank 5; a full-rank matrix is not cut, and an exact (even
    negative) zero is a gap like any other."""
    rng = np.random.default_rng(19)
    U, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    for spectrum, want in [
        ([1.0, 0.7, 0.03, 3e-9, 3e-9, 1e-13], 3),
        ([1.0, 0.5, 1e-6, 1e-7, 1e-8, 2e-9], 6),
        ([0.8, 0.2, 0.0, 0.0, 0.0, 0.0], 2),
        ([1.0, 1e-3, 1e-10, 1e-11, 0.0, 0.0], 2),
    ]:
        mat = (U * np.array(spectrum)) @ U.conj().T
        assert rank_eps(mat) >= want
        image, kernel = gap_split(mat)
        assert image.shape == (6, want) and kernel.shape == (6, 6 - want)
        assert np.abs(image.conj().T @ kernel).max(initial=0.0) < 1e-12
        assert np.abs(image @ image.conj().T - U[:, :want] @ U[:, :want].conj().T).max() < 1e-9
    image, kernel = gap_split(np.diag([0.8, 0.2, -0.0]).astype(complex))
    assert image.shape[1] == 2 and kernel.shape[1] == 1
