import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from diracboost.tensor import (
    ID2,
    PAULI_X,
    PAULI_Z,
    TRACE_TOL,
    SubsystemLayout,
    check_state,
    hermitian_eigenvalues,
    kron,
    outer,
    partial_trace,
    partial_transpose,
)

PAIR = SubsystemLayout(("A", "B"))
QUAD = SubsystemLayout(("PA", "SA", "PB", "SB"))


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = a + a.conj().T
    return h / np.trace(h).real


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def bell_density():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / np.sqrt(2.0)
    return outer(v)


# --------------------------------------------------------------------------
# reference implementations, deliberately index-based and independent of the
# reshape/swap tricks used by the module
# --------------------------------------------------------------------------


def reference_partial_trace(rho, layout, keep):
    n = len(layout.labels)
    kept_axes = [i for i, tag in enumerate(layout.labels) if tag in set(keep)]
    traced_axes = [i for i in range(n) if i not in kept_axes]
    dk = 2 ** len(kept_axes)
    out = np.zeros((dk, dk), dtype=complex)

    def flat(bits):
        idx = 0
        for b in bits:
            idx = 2 * idx + b
        return idx

    for row in range(dk):
        for col in range(dk):
            row_bits = [(row >> (len(kept_axes) - 1 - k)) & 1 for k in range(len(kept_axes))]
            col_bits = [(col >> (len(kept_axes) - 1 - k)) & 1 for k in range(len(kept_axes))]
            acc = 0.0 + 0.0j
            for t in range(2 ** len(traced_axes)):
                t_bits = [(t >> (len(traced_axes) - 1 - k)) & 1 for k in range(len(traced_axes))]
                full_row = [0] * n
                full_col = [0] * n
                for k, ax in enumerate(kept_axes):
                    full_row[ax] = row_bits[k]
                    full_col[ax] = col_bits[k]
                for k, ax in enumerate(traced_axes):
                    full_row[ax] = t_bits[k]
                    full_col[ax] = t_bits[k]
                acc += rho[flat(full_row), flat(full_col)]
            out[row, col] = acc
    return out


def reference_partial_transpose(rho, layout, target):
    n = len(layout.labels)
    ax = layout.axis(target)
    d = layout.dim
    out = np.zeros_like(np.asarray(rho, dtype=complex))

    def bit(idx, axis):
        return (idx >> (n - 1 - axis)) & 1

    def with_bit(idx, axis, b):
        mask = 1 << (n - 1 - axis)
        return (idx & ~mask) | (b << (n - 1 - axis))

    for row in range(d):
        for col in range(d):
            r2 = with_bit(row, ax, bit(col, ax))
            c2 = with_bit(col, ax, bit(row, ax))
            out[r2, c2] = rho[row, col]
    return out


# --------------------------------------------------------------------------
# layout
# --------------------------------------------------------------------------


def test_layout_rejects_duplicate_tags():
    with pytest.raises(ValueError, match="unique"):
        SubsystemLayout(("A", "A"))


def test_layout_rejects_empty():
    with pytest.raises(ValueError):
        SubsystemLayout(())


def test_layout_dim_and_axis():
    assert QUAD.dim == 16
    assert QUAD.axis("PA") == 0
    assert QUAD.axis("SB") == 3
    with pytest.raises(ValueError, match="unknown subsystem tag"):
        QUAD.axis("XX")


# --------------------------------------------------------------------------
# kron
# --------------------------------------------------------------------------


def test_kron_identities():
    assert_allclose(kron(ID2, ID2), np.eye(4))


def test_kron_block_structure():
    # sigma_x (x) sigma_z puts +/-sigma_z blocks on the anti-diagonal
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[2, 0] = 1.0
    expected[1, 3] = expected[3, 1] = -1.0
    assert_allclose(kron(PAULI_X, PAULI_Z), expected)


def test_kron_basis_index_bookkeeping():
    """First factor is the most significant bit of the flat index."""
    e = [np.eye(2)[:, i] for i in range(2)]
    for i in range(2):
        for j in range(2):
            vec = kron(e[i], e[j])
            expected = np.zeros(4)
            expected[2 * i + j] = 1.0
            assert_allclose(vec, expected)


def test_kron_associative():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-14)


def test_kron_equals_np_kron_bit_for_bit():
    rng = np.random.default_rng(158)

    def c(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    cases = [
        (c(4), c(4)), (c(2), c(8)), (rng.normal(size=4), c(2)),
        (c(4, 4), c(4, 4)), (c(2, 3), c(3, 2)), (PAULI_X, ID2),
        (c(2), c(2), c(4)), (c(2, 2), c(2, 2), c(4, 4)), (-PAULI_Z, c(2, 2) * 0.0, c(2, 2)),
        # unequal ranks: the lower-rank factor gets leading length-1 axes, as in np.kron
        (c(2), c(2, 2)), (c(2, 3), c(4)), (c(3, 2, 2), c(2)), (c(2), c(2, 2), c(2, 1, 3)),
    ]
    for factors in cases:
        expected = np.asarray(factors[0], dtype=complex)
        for f in factors[1:]:
            expected = np.kron(expected, np.asarray(f, dtype=complex))
        got = kron(*factors)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def test_kron_needs_a_factor():
    with pytest.raises(ValueError):
        kron()


# --------------------------------------------------------------------------
# partial trace
# --------------------------------------------------------------------------


def test_partial_trace_matches_index_sum_oracle():
    rng = np.random.default_rng(42)
    for _ in range(4):
        rho = random_hermitian(rng, 16)
        for keep in (("PA",), ("SA", "SB"), ("PA", "SA", "SB"), ("PB",)):
            got = partial_trace(rho, QUAD, keep)
            want = reference_partial_trace(rho, QUAD, keep)
            assert_allclose(got, want, atol=1e-13)


def iterated_partial_trace(rho, layout, keep):
    """The definition: one np.trace per traced qubit, the last qubit first."""
    n = len(layout.labels)
    cur = rho.reshape([2] * (2 * n))
    left = n
    for i in reversed(range(n)):
        if layout.labels[i] not in keep:
            cur = np.trace(cur, axis1=i, axis2=i + left)
            left -= 1
    return cur.reshape(2**left, 2**left)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_partial_trace_equals_iterated_traces_for_every_keep_subset(n):
    layout = SubsystemLayout(tuple(f"q{i}" for i in range(n)))
    rng = np.random.default_rng(170 + n)
    for _ in range(5):
        rho = random_density(rng, 2**n)
        for size in range(n + 1):
            for keep in itertools.combinations(layout.labels, size):
                assert_allclose(
                    partial_trace(rho, layout, keep), iterated_partial_trace(rho, layout, keep),
                    rtol=0.0, atol=1e-15,
                )


def test_partial_trace_removes_product_factor():
    rng = np.random.default_rng(3)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    rho = kron(a, b)
    assert_allclose(partial_trace(rho, PAIR, ("A",)), a, atol=1e-14)
    assert_allclose(partial_trace(rho, PAIR, ("B",)), b, atol=1e-14)


def test_partial_trace_bell_reductions_are_maximally_mixed():
    rho = bell_density()
    for tag in ("A", "B"):
        assert_allclose(partial_trace(rho, PAIR, (tag,)), np.eye(2) / 2, atol=1e-14)


def test_partial_trace_preserves_trace_and_linearity():
    rng = np.random.default_rng(7)
    x = random_hermitian(rng, 16)
    y = random_hermitian(rng, 16)
    rx = partial_trace(x, QUAD, ("SA",))
    ry = partial_trace(y, QUAD, ("SA",))
    assert abs(np.trace(rx) - np.trace(x)) < 1e-13
    combo = partial_trace(0.3 * x + 0.7j * y, QUAD, ("SA",))
    assert_allclose(combo, 0.3 * rx + 0.7j * ry, atol=1e-13)


def test_partial_trace_keep_order_follows_layout():
    rng = np.random.default_rng(8)
    rho = random_hermitian(rng, 16)
    assert_allclose(
        partial_trace(rho, QUAD, ("SB", "SA")),
        partial_trace(rho, QUAD, ("SA", "SB")),
        atol=0,
    )


def test_partial_trace_empty_keep_gives_total_trace():
    rng = np.random.default_rng(9)
    rho = random_hermitian(rng, 4)
    out = partial_trace(rho, PAIR, ())
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - np.trace(rho)) < 1e-14


def test_partial_trace_keep_everything_is_identity():
    rng = np.random.default_rng(10)
    rho = random_hermitian(rng, 4)
    assert_allclose(partial_trace(rho, PAIR, ("A", "B")), rho, atol=0)


def test_partial_trace_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown subsystem tags"):
        partial_trace(np.eye(4) / 4, PAIR, ("Q",))
    with pytest.raises(ValueError, match="does not match layout"):
        partial_trace(np.eye(8) / 8, PAIR, ("A",))


# --------------------------------------------------------------------------
# partial transpose
# --------------------------------------------------------------------------


def test_partial_transpose_matches_index_oracle():
    rng = np.random.default_rng(21)
    for _ in range(4):
        rho = random_hermitian(rng, 16)
        for tag in QUAD.labels:
            assert_allclose(
                partial_transpose(rho, QUAD, tag),
                reference_partial_transpose(rho, QUAD, tag),
                atol=0,
            )


def test_partial_transpose_product_state():
    rng = np.random.default_rng(22)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    rho = kron(a, b)
    assert_allclose(partial_transpose(rho, PAIR, "A"), kron(a.T, b), atol=0)


def test_partial_transpose_bell_spectrum():
    """The transposed Bell state has eigenvalues (1/2, 1/2, 1/2, -1/2)."""
    pt = partial_transpose(bell_density(), PAIR, "A")
    vals = hermitian_eigenvalues(pt)
    assert_allclose(vals, [0.5, 0.5, 0.5, -0.5], atol=1e-14)


def test_partial_transpose_is_involution_and_keeps_diagonal():
    rng = np.random.default_rng(23)
    rho = random_hermitian(rng, 16)
    twice = partial_transpose(partial_transpose(rho, QUAD, "SA"), QUAD, "SA")
    assert_allclose(twice, rho, atol=0)
    once = partial_transpose(rho, QUAD, "SA")
    assert_allclose(np.diag(once), np.diag(rho), atol=0)
    assert abs(np.trace(once) - np.trace(rho)) < 1e-14


def test_partial_transpose_rejects_unknown_tag():
    with pytest.raises(ValueError, match="unknown subsystem tag"):
        partial_transpose(np.eye(4) / 4, PAIR, "Q")


# --------------------------------------------------------------------------
# hermitian eigenvalues
# --------------------------------------------------------------------------


def test_hermitian_eigenvalues_pauli_z():
    assert_allclose(hermitian_eigenvalues(PAULI_Z), [1.0, -1.0], atol=1e-15)


def test_hermitian_eigenvalues_maximally_mixed():
    assert_allclose(hermitian_eigenvalues(np.eye(4) / 4), [0.25] * 4, atol=1e-15)


def test_hermitian_eigenvalues_sorted_descending_and_sum_to_trace():
    rng = np.random.default_rng(31)
    for _ in range(5):
        h = random_hermitian(rng, 8)
        vals = hermitian_eigenvalues(h)
        assert np.all(np.diff(vals) <= 1e-14)
        assert abs(np.sum(vals) - np.trace(h).real) < 1e-12
        assert np.max(np.abs(vals.imag)) == 0.0 if np.iscomplexobj(vals) else True


def test_hermitian_eigenvalues_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(bad)
    with pytest.raises(ValueError, match="square"):
        hermitian_eigenvalues(np.zeros((2, 3)))


def test_hermitian_eigenvalues_accepts_small_residue():
    h = np.eye(2, dtype=complex)
    h[0, 1] = 1e-12
    vals = hermitian_eigenvalues(h)
    assert_allclose(vals, [1.0, 1.0], atol=1e-11)


# --------------------------------------------------------------------------
# outer
# --------------------------------------------------------------------------


def test_outer_projector_properties():
    rng = np.random.default_rng(41)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    v /= np.linalg.norm(v)
    rho = outer(v)
    assert_allclose(rho, rho.conj().T, atol=0)
    assert_allclose(rho @ rho, rho, atol=1e-14)
    assert abs(np.trace(rho) - 1.0) < 1e-14


# --------------------------------------------------------------------------
# check_state
# --------------------------------------------------------------------------


def test_check_state_norm_rule_is_trace_tol_wide():
    """|psi|^2 may miss 1 by up to TRACE_TOL, on either side; a real vector comes back complex."""
    e0 = np.zeros(16)
    for miss in (0.5 * TRACE_TOL, -0.5 * TRACE_TOL):
        e0[0] = np.sqrt(1.0 + miss)
        psi = check_state(e0)
        assert psi.dtype == complex
        assert_allclose(psi, e0, rtol=0, atol=0)
    for miss in (2.0 * TRACE_TOL, -2.0 * TRACE_TOL):
        e0[0] = np.sqrt(1.0 + miss)
        with pytest.raises(ValueError, match="unit norm"):
            check_state(e0)
