import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm

from fermisect import verify
from fermisect.fock import (
    MAX_MODES,
    DimensionTooLarge,
    QuasiOperator,
    _quasi_pattern,
    build_space,
    random_canonical_transform,
    expectations,
)
from oracle_reference import matrix_by_terms

DRAWS = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def _anticommutator(a, b):
    return (a @ b + b @ a).toarray()


def _ladder(space):
    """``a_j`` and ``bdag_j`` of every mode, each a `QuasiOperator` unit row."""
    a = [QuasiOperator(e, np.zeros(space.n_anti)).matrix(space) for e in np.eye(space.n_particle)]
    bdag = [QuasiOperator(np.zeros(space.n_particle), e).matrix(space) for e in np.eye(space.n_anti)]
    return a, bdag


def test_dimensions():
    assert build_space(1, 1).dimension == 4
    assert build_space(2, 2).dimension == 16
    assert build_space(12, 0).dimension == 4096
    for n_particle, n_anti in [(7, 6), (13, 0), (0, 13)]:
        with pytest.raises(DimensionTooLarge, match="13 modes"):
            build_space(n_particle, n_anti)


@pytest.mark.parametrize("n_particle,n_anti", [(-1, 0), (0, -1)])
def test_negative_mode_count_raises(n_particle, n_anti):
    with pytest.raises(ValueError, match="nonnegative"):
        build_space(n_particle, n_anti)


@pytest.mark.parametrize("n_particle,n_anti", [(2.5, 0), (0, 1.0), ("2", 0), (None, 1)])
def test_non_integer_mode_count_raises(n_particle, n_anti):
    with pytest.raises(ValueError, match="integers"):
        build_space(n_particle, n_anti)


def test_integer_like_mode_counts_are_python_ints():
    space = build_space(np.int64(2), np.uint8(1))
    assert space == build_space(2, 1)
    assert type(space.n_particle) is int and type(space.n_anti) is int


@pytest.mark.parametrize("n_modes,message", [(-1, "nonnegative"), (1.5, "integers")])
def test_bad_transform_mode_count_raises_the_space_message(n_modes, message):
    with pytest.raises(ValueError, match=message):
        random_canonical_transform(n_modes, 0)


@pytest.mark.parametrize("alpha,beta", [(1, 1), (2, 2), (3, 1), (0, 0)])
def test_coefficient_lengths_must_match_the_space(alpha, beta):
    op = QuasiOperator(alpha=np.ones(alpha), beta=np.ones(beta))
    with pytest.raises(ValueError, match="coefficient lengths"):
        op.matrix(build_space(2, 1))


def test_car_identities_exact():
    space = build_space(2, 2)
    eye = np.eye(space.dimension)
    a, bdag = _ladder(space)
    ops = [op.conj().T for op in a] + bdag
    for i, ci in enumerate(ops):
        ai = ci.conj().T
        for j, cj in enumerate(ops):
            aj = cj.conj().T
            target = eye if i == j else 0.0
            assert np.max(np.abs(_anticommutator(ai, cj) - target)) <= 1e-13
            assert np.max(np.abs(_anticommutator(ai, aj))) <= 1e-13
            assert np.max(np.abs(_anticommutator(ci, cj))) <= 1e-13


def test_vacuum_is_annihilated():
    space = build_space(2, 1)
    vac = space.vacuum()
    a, bdag = _ladder(space)
    for j in range(2):
        assert np.linalg.norm(a[j] @ vac) == 0
    assert np.linalg.norm(bdag[0].conj().T @ vac) == 0


def test_vacuum_uniqueness():
    # the joint kernel of all annihilators is one-dimensional
    space = build_space(2, 1)
    a, bdag = _ladder(space)
    stack = sparse.vstack(a + [bdag[0].conj().T]).toarray()
    _, s, vh = np.linalg.svd(stack)
    null_dim = np.sum(s < 1e-12) + (vh.shape[0] - len(s))
    assert null_dim == 1


def test_number_conservation_in_vacuum():
    space = build_space(3, 3)
    a, _ = _ladder(space)
    for j in range(3):
        n_op = a[j].conj().T @ a[j]
        assert expectations(space, [n_op])[0] == 0


def test_pure_particle_quasi_op_preserves_vacuum():
    space = build_space(2, 2)
    c = QuasiOperator(alpha=np.array([0.6, 0.8j]), beta=np.zeros(2))
    mat = c.matrix(space)
    assert abs(expectations(space, [mat.conj().T, mat])[0]) == 0


def test_single_mode_mixing_occupation():
    # c = cos(t) a + e^{i phi} sin(t) bdag: <cdag c> = sin(t)^2
    space = build_space(1, 1)
    for theta, phi in [(0.3, 0.0), (1.1, 2.0), (np.pi / 2, -0.7)]:
        c = QuasiOperator(
            alpha=np.array([np.cos(theta)]),
            beta=np.array([np.exp(1j * phi) * np.sin(theta)]),
        )
        mat = c.matrix(space)
        val = expectations(space, [mat.conj().T, mat])[0]
        assert val.real == pytest.approx(np.sin(theta) ** 2, abs=1e-12)
        assert abs(val.imag) <= 1e-14
        assert np.sum(np.abs(c.alpha) ** 2) + np.sum(np.abs(c.beta) ** 2) == pytest.approx(1.0)


def test_occupation_equals_beta_row_norm_without_canonicity():
    # <cdag c> = sum |beta|^2 for arbitrary rows; no normalization needed
    rng = np.random.default_rng(5)
    space = build_space(3, 3)
    for _ in range(5):
        c = QuasiOperator(
            alpha=rng.normal(size=3) + 1j * rng.normal(size=3),
            beta=rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        mat = c.matrix(space)
        val = expectations(space, [mat.conj().T, mat])[0]
        assert val.real == pytest.approx(float(np.sum(np.abs(c.beta) ** 2)), rel=1e-12)


def test_random_canonical_transform_is_canonical():
    for seed in range(10):
        ops = random_canonical_transform(4, seed)
        assert len(ops) == 4
        space = build_space(4, 4)
        eye = np.eye(space.dimension)
        mats = [op.matrix(space) for op in ops]
        for i, mi in enumerate(mats):
            for j, mj in enumerate(mats):
                target = eye if i == j else 0.0
                assert np.max(np.abs(_anticommutator(mi, mj.conj().T.tocsr()) - target)) <= 1e-12
                assert np.max(np.abs(_anticommutator(mi, mj))) <= 1e-12


def test_random_canonical_transform_reproducible():
    ops = random_canonical_transform(2, seed=7)
    again = random_canonical_transform(2, seed=7)
    assert np.array_equal(ops[0].alpha, again[0].alpha)
    assert np.array_equal(ops[0].beta, again[0].beta)
    # frozen regression snapshot
    assert ops[0].alpha == pytest.approx(
        np.array([-0.03731572 - 0.23997918j, 0.27016142 - 0.38477088j]), abs=1e-8
    )
    assert ops[0].beta == pytest.approx(
        np.array([-0.47461813 - 0.55615369j, -0.43019859 + 0.01848214j]), abs=1e-8
    )


def test_zero_generator_identity_transform():
    # expm(0) = 1: directly check the identity rows satisfy the convention
    u = expm(np.zeros((4, 4), dtype=complex))
    c = QuasiOperator(alpha=u[0, :2], beta=np.conj(u[0, 2:]))
    space = build_space(2, 2)
    a, _ = _ladder(space)
    diff = (c.matrix(space) - a[0]).toarray()
    assert np.max(np.abs(diff)) == 0


def test_transform_mode_cap():
    with pytest.raises(DimensionTooLarge):
        random_canonical_transform(7, 0)


def _assert_same_csr(got, want):
    assert type(got) is type(want) and got.shape == want.shape
    assert got.has_sorted_indices
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


_coefficient = st.one_of(
    st.just(0j),
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
)


@DRAWS
@given(n_particle=st.integers(0, 6), n_anti=st.integers(0, 6), data=st.data())
def test_quasi_operator_matrix_equals_term_sum_by_bytes(n_particle, n_anti, data):
    op = QuasiOperator(
        alpha=np.array(data.draw(st.lists(_coefficient, min_size=n_particle, max_size=n_particle)),
                       dtype=complex),
        beta=np.array(data.draw(st.lists(_coefficient, min_size=n_anti, max_size=n_anti)),
                      dtype=complex),
    )
    space = build_space(n_particle, n_anti)
    _assert_same_csr(op.matrix(space), matrix_by_terms(op, space))


@pytest.mark.parametrize("n_particle,n_anti", [(0, 0), (1, 0), (0, 2), (3, 3), (6, 6)])
def test_zero_quasi_operator_matrix_equals_term_sum(n_particle, n_anti):
    op = QuasiOperator(alpha=np.zeros(n_particle), beta=np.zeros(n_anti, dtype=complex))
    space = build_space(n_particle, n_anti)
    mat = op.matrix(space)
    assert mat.nnz == 0
    _assert_same_csr(mat, matrix_by_terms(op, space))


def test_canonical_transform_matrices_equal_term_sum():
    for seed in range(0, 100, 7):
        n_modes = 2 + seed % 3
        space = build_space(n_modes, n_modes)
        for op in random_canonical_transform(n_modes, seed):
            _assert_same_csr(op.matrix(space), matrix_by_terms(op, space))


def test_matrix_equals_kron_term_sum_for_every_mode_count():
    # unit rows (each ladder operator alone) and one random row for every
    # split of up to MAX_MODES modes, against the Kronecker-built reference
    rng = np.random.default_rng(19)
    for n in range(MAX_MODES + 1):
        for n_particle in range(n + 1):
            space = build_space(n_particle, n - n_particle)
            rows = list(np.eye(n)) + [rng.normal(size=n) + 1j * rng.normal(size=n)]
            for row in rows:
                op = QuasiOperator(alpha=row[:n_particle], beta=row[n_particle:])
                _assert_same_csr(op.matrix(space), matrix_by_terms(op, space))


@DRAWS
@given(n_particle=st.integers(0, 4), n_anti=st.integers(0, 4), blocks=st.integers(1, 5),
       data=st.data())
def test_stacked_matrix_is_the_block_diagonal_of_its_rows(n_particle, n_anti, blocks, data):
    def rows(width):
        row = st.lists(_coefficient, min_size=width, max_size=width)
        return np.array(data.draw(st.lists(row, min_size=blocks, max_size=blocks)),
                        dtype=complex).reshape(blocks, width)

    alpha, beta = rows(n_particle), rows(n_anti)
    space = build_space(n_particle, n_anti)
    singles = [QuasiOperator(a, b).matrix(space) for a, b in zip(alpha, beta)]
    stacked = QuasiOperator(alpha, beta).matrix(space)
    _assert_same_csr(stacked, sparse.block_diag(singles, format="csr"))
    if blocks == 1:
        _assert_same_csr(stacked, singles[0])


def test_stacked_vacuum_expectations_equal_the_one_block_calls_by_bits():
    for n_modes, seeds in [(2, range(0, 12)), (3, range(12, 15)), (4, range(15, 16))]:
        space = build_space(n_modes, n_modes)
        ops = [random_canonical_transform(n_modes, seed) for seed in seeds]
        c_ops, f_ops = [op[0] for op in ops], [op[-1] for op in ops]
        c_mat, f_mat = (QuasiOperator(np.array([op.alpha for op in stack]),
                                      np.array([op.beta for op in stack])).matrix(space)
                        for stack in (c_ops, f_ops))
        got = expectations(space, [c_mat.conj().T, c_mat, f_mat.conj().T, f_mat])
        want = []
        for c, f in zip(c_ops, f_ops):
            c1, f1 = c.matrix(space), f.matrix(space)
            (value,) = expectations(space, [c1.conj().T, c1, f1.conj().T, f1])
            want.append(value)
        assert [type(value) for value in got] == [complex] * len(seeds)
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


@pytest.mark.parametrize("blocks", [1, 3])
def test_expectations_of_a_stacked_state_equal_each_block_by_bits(blocks):
    rng = np.random.default_rng(27)
    space = build_space(2, 1)
    c_rows, f_rows = rng.normal(size=(2, blocks, 3)) + 1j * rng.normal(size=(2, blocks, 3))
    shape = (blocks, space.dimension)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def ops(c_row, f_row):
        c_mat, f_mat = (QuasiOperator(row[..., :2], row[..., 2:]).matrix(space)
                        for row in (c_row, f_row))
        return [c_mat.conj().T, f_mat, c_mat]

    got = expectations(space, ops(c_rows, f_rows), states.reshape(-1))
    want = []
    for c_row, f_row, s in zip(c_rows, f_rows, states):
        vec = s
        for op in reversed(ops(c_row, f_row)):
            vec = op @ vec
        want.append(complex(s.conj() @ vec))
    assert isinstance(got, list) and len(got) == blocks
    assert [type(value) for value in got] == [complex] * blocks
    assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


@pytest.mark.parametrize("alpha_shape,beta_shape", [((2, 2), (3, 1)), ((2, 2), (1,)),
                                                    ((2, 3), (2, 1)), ((2, 2, 2), (2, 2, 1))])
def test_stacks_must_match_each_other_and_the_space(alpha_shape, beta_shape):
    op = QuasiOperator(alpha=np.ones(alpha_shape), beta=np.ones(beta_shape))
    with pytest.raises(ValueError, match="coefficient lengths"):
        op.matrix(build_space(2, 1))


def test_criterion_5_peak_memory_is_bounded():
    # the stacks of criterion 5 hold at most verify._STACK_STATES basis states; one stack
    # per mode count would peak at about 3.5 MB
    verify.criterion_wick_oracle()  # caches and lazy imports outside the measurement
    tracemalloc.start()
    try:
        assert verify.criterion_wick_oracle().passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_cached_operators_are_read_only():
    space = build_space(2, 1)
    for arr in _quasi_pattern(2, 1):
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2
    op = QuasiOperator(alpha=np.array([0.5, 2.0j]), beta=np.array([-1.5 + 1j]))
    mat = op.matrix(space)
    want = op.matrix(space)
    mat.data *= 2
    mat.indices[:] = 0
    mat.indptr[:] = 0
    _assert_same_csr(op.matrix(space), want)
