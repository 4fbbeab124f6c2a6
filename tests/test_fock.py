import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from fermisect import verify
from fermisect.fock import (
    MAX_MODES,
    QuasiOperator,
    _action_table,
    build_space,
    expectations,
    number_correlations,
    random_canonical_transform,
)
from oracle_reference import jordan_wigner, matrix_by_terms

DRAWS = settings(max_examples=40, derandomize=True, deadline=None, database=None)


def _anticommutator(x, y, states):
    """``{x, y}`` applied to each state of a stack."""
    return x.act(y.act(states)) + y.act(x.act(states))


def _basis(space):
    return np.eye(space.dimension, dtype=complex)


def _matrix(op, space):
    """The dense matrix of ``op``: column k is its action on basis state k."""
    return op.act(_basis(space)).T


def _ladder(space):
    """``a_j`` and ``bdag_j`` of every mode, each a `QuasiOperator` unit row."""
    a = [QuasiOperator(e, np.zeros(space.n_anti)) for e in np.eye(space.n_particle)]
    bdag = [QuasiOperator(np.zeros(space.n_particle), e) for e in np.eye(space.n_anti)]
    return a, bdag


def test_dimensions():
    assert build_space(1, 1).dimension == 4
    assert build_space(2, 2).dimension == 16
    assert build_space(12, 0).dimension == 4096
    for n_particle, n_anti in [(7, 6), (13, 0), (0, 13)]:
        with pytest.raises(ValueError, match="13 modes"):
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
    # the rows fix the space, so a row or a stack of rows of other lengths refuses the states
    # of the 2+1-mode space
    space = build_space(2, 1)
    for stack in ((), (2,)):
        op = QuasiOperator(alpha=np.ones(stack + (alpha,)), beta=np.ones(stack + (beta,)))
        with pytest.raises(ValueError, match="stack of vectors of the space of"):
            op.act(_basis(space)[:2])


def test_rows_of_more_than_max_modes_are_refused():
    # before the states are read, and before the default vacuum is built
    for n_particle, n_anti in [(13, 0), (7, 6), (0, 13)]:
        op = QuasiOperator(alpha=np.ones(n_particle), beta=np.ones(n_anti))
        with pytest.raises(ValueError, match="^13 modes exceeds the 12-mode cap$"):
            op.act(np.ones((1, 2)))
        with pytest.raises(ValueError, match="^13 modes exceeds the 12-mode cap$"):
            expectations([op.adjoint, op])
    op = QuasiOperator(alpha=np.ones(MAX_MODES), beta=np.zeros(0))
    assert expectations([op.adjoint, op]) == [0j]


def test_car_identities_exact():
    space = build_space(2, 2)
    basis = _basis(space)
    a, bdag = _ladder(space)
    ops = [op.adjoint for op in a] + bdag
    for i, ci in enumerate(ops):
        ai = ci.adjoint
        for j, cj in enumerate(ops):
            aj = cj.adjoint
            target = basis if i == j else 0.0
            assert np.max(np.abs(_anticommutator(ai, cj, basis) - target)) <= 1e-13
            assert np.max(np.abs(_anticommutator(ai, aj, basis))) <= 1e-13
            assert np.max(np.abs(_anticommutator(ci, cj, basis))) <= 1e-13


def test_vacuum_is_annihilated():
    space = build_space(2, 1)
    vac = space.vacuum()[None]
    a, bdag = _ladder(space)
    for j in range(2):
        assert np.linalg.norm(a[j].act(vac)) == 0
    assert np.linalg.norm(bdag[0].adjoint.act(vac)) == 0


def test_vacuum_uniqueness():
    # the joint kernel of all annihilators is one-dimensional
    space = build_space(2, 1)
    a, bdag = _ladder(space)
    stack = np.vstack([_matrix(op, space) for op in a + [bdag[0].adjoint]])
    _, s, vh = np.linalg.svd(stack)
    null_dim = np.sum(s < 1e-12) + (vh.shape[0] - len(s))
    assert null_dim == 1


def test_number_conservation_in_vacuum():
    space = build_space(3, 3)
    a, _ = _ladder(space)
    for j in range(3):
        assert expectations([a[j].adjoint, a[j]])[0] == 0


def test_pure_particle_quasi_op_preserves_vacuum():
    c = QuasiOperator(alpha=np.array([0.6, 0.8j]), beta=np.zeros(2))
    assert abs(expectations([c.adjoint, c])[0]) == 0


def test_single_mode_mixing_occupation():
    # c = cos(t) a + e^{i phi} sin(t) bdag: <cdag c> = sin(t)^2
    for theta, phi in [(0.3, 0.0), (1.1, 2.0), (np.pi / 2, -0.7)]:
        c = QuasiOperator(
            alpha=np.array([np.cos(theta)]),
            beta=np.array([np.exp(1j * phi) * np.sin(theta)]),
        )
        val = expectations([c.adjoint, c])[0]
        assert val.real == pytest.approx(np.sin(theta) ** 2, abs=1e-12)
        assert abs(val.imag) <= 1e-14
        assert np.sum(np.abs(c.alpha) ** 2) + np.sum(np.abs(c.beta) ** 2) == pytest.approx(1.0)


def test_occupation_equals_beta_row_norm_without_canonicity():
    # <cdag c> = sum |beta|^2 for arbitrary rows; no normalization needed
    rng = np.random.default_rng(5)
    for _ in range(5):
        c = QuasiOperator(
            alpha=rng.normal(size=3) + 1j * rng.normal(size=3),
            beta=rng.normal(size=3) + 1j * rng.normal(size=3),
        )
        val = expectations([c.adjoint, c])[0]
        assert val.real == pytest.approx(float(np.sum(np.abs(c.beta) ** 2)), rel=1e-12)


def test_random_canonical_transform_is_canonical():
    # the CAR on a stack of random states of the 4+4-mode space
    rng = np.random.default_rng(31)
    space = build_space(4, 4)
    states = rng.normal(size=(16, space.dimension)) + 1j * rng.normal(size=(16, space.dimension))
    for seed in range(10):
        ops = random_canonical_transform(4, seed)
        assert len(ops) == 4
        for i, ci in enumerate(ops):
            for j, cj in enumerate(ops):
                target = states if i == j else 0.0
                got = _anticommutator(ci, cj.adjoint, states)
                assert np.max(np.abs(got - target)) <= 1e-12
                assert np.max(np.abs(_anticommutator(ci, cj, states))) <= 1e-12


def test_random_canonical_transform_rows_are_unitary_and_equal_expm():
    # the rows (alpha, conj(beta)) are the first n rows of exp(gen), gen drawn as the function
    # draws it; scipy's expm is the independent reference for the eigh-based exponential
    for seed in range(100):
        n_modes = 1 + seed % 6
        rows = np.array([np.concatenate([op.alpha, np.conj(op.beta)])
                         for op in random_canonical_transform(n_modes, seed)])
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(n_modes))) <= 1e-13
        rng = np.random.default_rng(seed)
        raw = rng.normal(size=(2 * n_modes,) * 2) + 1j * rng.normal(size=(2 * n_modes,) * 2)
        assert np.max(np.abs(rows - expm(0.5 * (raw - raw.conj().T))[:n_modes])) <= 1e-14


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
    assert np.max(np.abs(_matrix(c, space) - _matrix(a[0], space))) == 0


def test_transform_mode_cap():
    with pytest.raises(ValueError, match="random canonical transforms capped at parity 6"):
        random_canonical_transform(7, 0)


def _sampled_basis(space, count=32):
    """Every basis index up to ``count`` states, else the first, the last and a random spread."""
    if space.dimension <= count:
        return np.arange(space.dimension)
    rng = np.random.default_rng(space.dimension)
    return np.unique(np.r_[0, space.dimension - 1,
                           rng.choice(space.dimension, count - 2, replace=False)])


def _assert_acts_as_term_sum(op, space, count=256):
    """``op`` and its adjoint on basis states equal the Kron-built term sum's columns, by bytes.

    Each entry is one signed coefficient, so the two agree bit for bit: signed zeros turn
    into 0.0 on both sides.
    """
    cols = _sampled_basis(space, count)
    basis = np.zeros((len(cols), space.dimension), dtype=complex)
    basis[np.arange(len(cols)), cols] = 1.0
    want = matrix_by_terms(op)
    for acting, mat in ((op, want), (op.adjoint, want.conj().T.tocsc())):
        got = acting.act(basis)
        expected = np.ascontiguousarray(mat[:, cols].toarray().T)
        assert got.dtype == expected.dtype == complex and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


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
    _assert_acts_as_term_sum(op, space, count=64)


@pytest.mark.parametrize("n_particle,n_anti", [(0, 0), (1, 0), (0, 2), (3, 3), (6, 6)])
def test_zero_quasi_operator_matrix_equals_term_sum(n_particle, n_anti):
    op = QuasiOperator(alpha=np.zeros(n_particle), beta=np.zeros(n_anti, dtype=complex))
    space = build_space(n_particle, n_anti)
    states = np.ones((2, space.dimension), dtype=complex)
    assert not op.act(states).any() and not op.adjoint.act(states).any()
    _assert_acts_as_term_sum(op, space, count=64)


def test_canonical_transform_matrices_equal_term_sum():
    for seed in range(0, 100, 7):
        n_modes = 2 + seed % 3
        space = build_space(n_modes, n_modes)
        for op in random_canonical_transform(n_modes, seed):
            _assert_acts_as_term_sum(op, space)


def test_matrix_equals_kron_term_sum_for_every_mode_count():
    # for every split of up to MAX_MODES modes: each mode's cached source indices and signs
    # are the entries of its Kronecker-built ladder operator, and a random row acts on basis
    # states as the term sum of those operators
    rng = np.random.default_rng(19)
    for n in range(MAX_MODES + 1):
        create = jordan_wigner(n)
        for n_particle in range(n + 1):
            for dagger in (False, True):
                source, sign = _action_table(n_particle, n - n_particle, dagger)
                for j in range(n):
                    # a_j and bdag_j; adag_j and b_j under dagger
                    ladder = create[j] if (j >= n_particle) != dagger else create[j].T.tocsr()
                    entries = ladder.getnnz(axis=1) == 1
                    assert ladder.getnnz(axis=1).max(initial=0) <= 1
                    assert np.array_equal(sign[j] != 0, entries)
                    rows = np.flatnonzero(entries)
                    assert np.array_equal(ladder.indices, source[j, rows])
                    assert np.array_equal(ladder.data, sign[j, rows])
            space = build_space(n_particle, n - n_particle)
            row = rng.normal(size=n) + 1j * rng.normal(size=n)
            _assert_acts_as_term_sum(QuasiOperator(row[:n_particle], row[n_particle:]), space,
                                     count=32)


@DRAWS
@given(n_particle=st.integers(0, 4), n_anti=st.integers(0, 4), blocks=st.integers(1, 5),
       data=st.data())
def test_stacked_matrix_is_the_block_diagonal_of_its_rows(n_particle, n_anti, blocks, data):
    # a stack of rows acts on a stack of states as each row on its own state, and a single
    # row acts on every state of a stack as on that state alone, bit for bit
    def rows(width):
        row = st.lists(_coefficient, min_size=width, max_size=width)
        return np.array(data.draw(st.lists(row, min_size=blocks, max_size=blocks)),
                        dtype=complex).reshape(blocks, width)

    alpha, beta = rows(n_particle), rows(n_anti)
    space = build_space(n_particle, n_anti)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (blocks, space.dimension)
    states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for op in (QuasiOperator(alpha, beta), QuasiOperator(alpha, beta).adjoint):
        stacked = op.act(states)
        singles = [QuasiOperator(a, b, op.dagger).act(s[None])
                   for a, b, s in zip(alpha, beta, states)]
        assert stacked.tobytes() == np.concatenate(singles).tobytes()
        shared = QuasiOperator(alpha[0], beta[0], op.dagger)
        alone = [shared.act(s[None]) for s in states]
        assert shared.act(states).tobytes() == np.concatenate(alone).tobytes()


def test_stacked_vacuum_expectations_equal_the_one_block_calls_by_bits():
    for n_modes, seeds in [(2, range(0, 12)), (3, range(12, 15)), (4, range(15, 16))]:
        ops = [random_canonical_transform(n_modes, seed) for seed in seeds]
        c_ops, f_ops = [op[0] for op in ops], [op[-1] for op in ops]
        c_stack, f_stack = (QuasiOperator(np.array([op.alpha for op in stack]),
                                          np.array([op.beta for op in stack]))
                            for stack in (c_ops, f_ops))
        got = expectations([c_stack.adjoint, c_stack, f_stack.adjoint, f_stack])
        want = []
        for c, f in zip(c_ops, f_ops):
            (value,) = expectations([c.adjoint, c, f.adjoint, f])
            want.append(value)
        assert [type(value) for value in got] == [complex] * len(seeds)
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def test_no_operator_expects_the_norm():
    # with no rows to fix a space, the default vacuum is the 0-mode one: <0|0> = 1 in any space
    states = np.arange(6).reshape(2, 3) * (1 + 1j)
    assert expectations([]) == [1 + 0j]
    assert expectations([], states) == [complex(np.vdot(s, s)) for s in states]


def test_number_correlations_of_a_canonical_row_with_itself_are_n_times_one_minus_n():
    # a canonical row makes c^dagger c a projector, so <n n> - <n>^2 = n (1 - n)
    for n_modes in range(1, 7):
        for c in random_canonical_transform(n_modes, seed=n_modes):
            (n,) = expectations([c.adjoint, c])
            (got,) = number_correlations(c, c)
            assert abs(got - n * (1 - n)) <= 1e-12


@pytest.mark.parametrize("random_states", [False, True])
def test_stacked_number_correlations_equal_the_one_row_calls_by_bits(random_states):
    # each value is its own four-point expectation less its singles, bit for bit
    rng = np.random.default_rng(3)
    for n_modes, seeds in [(2, range(0, 12)), (3, range(12, 15))]:
        ops = [random_canonical_transform(n_modes, seed) for seed in seeds]
        c_ops, f_ops = [op[0] for op in ops], [op[-1] for op in ops]
        c_stack, f_stack = (QuasiOperator(np.array([op.alpha for op in stack]),
                                          np.array([op.beta for op in stack]))
                            for stack in (c_ops, f_ops))
        shape = (len(seeds), 4**n_modes)
        states = rng.normal(size=shape) + 1j * rng.normal(size=shape) if random_states else None
        got = number_correlations(c_stack, f_stack, states)
        want = []
        for b, (c, f) in enumerate(zip(c_ops, f_ops)):
            state = None if states is None else states[b]
            (four,) = expectations([c.adjoint, c, f.adjoint, f], state)
            (n_c,), (n_f,) = (expectations([op.adjoint, op], state) for op in (c, f))
            want.append(four - n_c * n_f)
            assert number_correlations(c, f, state) == [want[-1]]
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
        c, f = (QuasiOperator(row[..., :2], row[..., 2:]) for row in (c_row, f_row))
        return [c.adjoint, f, c]

    got = expectations(ops(c_rows, f_rows), states)
    want = []
    for c_row, f_row, s in zip(c_rows, f_rows, states):
        vec = s[None]
        for op in reversed(ops(c_row, f_row)):
            vec = op.act(vec)
        want.append(complex(s.conj() @ vec[0]))
    assert isinstance(got, list) and len(got) == blocks
    assert [type(value) for value in got] == [complex] * blocks
    assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
    if blocks == 1:
        assert expectations(ops(c_rows, f_rows), states[0]) == got


@pytest.mark.parametrize("alpha_shape,beta_shape", [((2, 2), (3, 1)), ((2, 2), (1,)),
                                                    ((2, 3), (2, 1)), ((2, 2, 2), (2, 2, 1))])
def test_stacks_must_match_each_other_and_the_space(alpha_shape, beta_shape):
    # a (2, 3)/(2, 1) pair is a stack of two rows of a 3+1-mode space, so the states of the
    # 2+1-mode space refuse it; the other pairs are not one 2-D stack of rows
    op = QuasiOperator(alpha=np.ones(alpha_shape), beta=np.ones(beta_shape))
    if len(alpha_shape) == 2 and alpha_shape[:-1] == beta_shape[:-1]:
        message = "stack of vectors of the space of"
    else:
        message = "^alpha and beta must be rows or stacks of rows of one"
    with pytest.raises(ValueError, match=message):
        op.act(_basis(build_space(2, 1))[:2])


def test_operator_stacks_must_match_the_state_stack():
    space = build_space(2, 1)
    op = QuasiOperator(alpha=np.ones((2, 2)), beta=np.ones((2, 1)))
    with pytest.raises(ValueError, match="2 coefficient rows for a stack of 3 states"):
        op.act(_basis(space)[:3])
    with pytest.raises(ValueError, match="2 coefficient rows for a stack of 3 states"):
        expectations([op.adjoint, op], _basis(space)[:3])
    for states in (space.vacuum(), np.ones((2, 4)), np.ones((1, 2, 8))):
        with pytest.raises(ValueError, match="stack of vectors of the space"):
            op.act(states)


def test_criterion_5_peak_memory_is_bounded():
    # the stacks of criterion 5 hold at most verify._STACK_STATES basis states, and each
    # operator adds one term per mode into its output: about 0.27 MB.  Gathering every
    # mode's term at once peaked at about 0.95 MB, one stack per mode count at about 0.78 MB
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
    for dagger in (False, True):
        for arr in _action_table(2, 1, dagger):
            with pytest.raises(ValueError, match="read-only"):
                arr *= 2
    op = QuasiOperator(alpha=np.array([0.5, 2.0j]), beta=np.array([-1.5 + 1j]))
    out = op.act(_basis(space))
    want = out.copy()
    out *= 2
    assert op.act(_basis(space)).tobytes() == want.tobytes()
