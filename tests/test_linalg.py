from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cghz import linalg, oracle
from cghz.errors import InputError
from cghz.states import BlockConfig
from fisher_reference import fisher_dense
from test_oracle import DYADIC_P, SMALL_SHAPES, assert_matches_literal_state

sparse = linalg.sparse


def dense(op):
    """The dense matrix of an operator given as entries."""
    mat = np.zeros((op.dim, op.dim), dtype=op.vals.dtype)
    mat[op.rows, op.cols] = op.vals
    return mat


def swapaxes_partial_transpose(mat, qubits):
    """Reference: the named qubits' row and column tensor axes swapped on the full matrix."""
    q = len(mat).bit_length() - 1
    t = mat.reshape((2,) * (2 * q))
    for k in set(qubits):
        t = np.swapaxes(t, k, q + k)
    return t.reshape(mat.shape)


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return v


class TestTraceNorm:
    def test_identity(self):
        assert linalg.trace_norm(sparse(np.eye(2))) == pytest.approx(2.0, abs=1e-14)

    def test_diag_signs(self):
        assert linalg.trace_norm(sparse(np.diag([1.0, -1.0]))) == pytest.approx(2.0, abs=1e-14)

    def test_rank_one_offdiagonal(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1.0
        assert linalg.trace_norm(sparse(m)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_svd(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        ref = np.sum(np.linalg.svd(m, compute_uv=False))
        assert linalg.trace_norm(sparse(m)) == pytest.approx(ref, rel=1e-12)

    def test_multiplicative_under_kron(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            prod = linalg.trace_norm(linalg.kron_all([sparse(a), sparse(b)]))
            assert prod == pytest.approx(linalg.trace_norm(sparse(a)) * linalg.trace_norm(sparse(b)), rel=1e-10)


class TestPartialTranspose:
    def test_all_qubits_is_full_transpose(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        np.testing.assert_allclose(dense(linalg.partial_transpose(sparse(m), [0, 1, 2])), m.T)

    def test_empty_set_is_identity(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_array_equal(dense(linalg.partial_transpose(sparse(m), [])), m)

    def test_bell_eigenvalues(self):
        rho = np.outer(bell_state(), bell_state().conj())
        pt = dense(linalg.partial_transpose(sparse(rho), [1]))
        evals = np.sort(np.linalg.eigvalsh(pt))
        np.testing.assert_allclose(evals, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution_and_trace(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        pt = linalg.partial_transpose(sparse(m), [1])
        np.testing.assert_allclose(dense(linalg.partial_transpose(pt, [1])), m)
        assert np.trace(dense(pt)) == pytest.approx(np.trace(m))

    def test_out_of_range_index(self):
        with pytest.raises(InputError):
            linalg.partial_transpose(sparse(np.eye(4)), [2])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
    def test_matches_the_swapaxes_reference(self, q, seed, data):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((2**q, 2**q)) * (rng.random((2**q, 2**q)) < 0.4)
        qubits = data.draw(st.lists(st.integers(0, q - 1), max_size=q))
        np.testing.assert_array_equal(dense(linalg.partial_transpose(sparse(m), qubits)), swapaxes_partial_transpose(m, qubits))


class TestEigHermitian:
    def test_diagonal(self):
        evals, _ = linalg.eig_hermitian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(evals, [1.0, 3.0])

    def test_pauli_x(self):
        evals, evecs = linalg.eig_hermitian(linalg.PAULI_X)
        np.testing.assert_allclose(evals, [-1.0, 1.0])
        # eigenvectors are |-+> up to phase
        for col, sign in zip(evecs.T, (-1, 1)):
            np.testing.assert_allclose(linalg.PAULI_X @ col, sign * col, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(4)
        g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        herm = g + g.conj().T
        evals, evecs = linalg.eig_hermitian(herm)
        rebuilt = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.max(np.abs(rebuilt - herm)) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InputError):
            linalg.eig_hermitian(m)

    def test_density_eigenvalues_sum_to_one(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        rho = g @ g.conj().T
        rho /= np.trace(rho)
        evals, _ = linalg.eig_hermitian(rho)
        assert float(np.sum(evals)) == pytest.approx(1.0, abs=1e-10)


class TestKron:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 2), min_size=0, max_size=4), st.integers(0, 2**32 - 1))
    def test_matches_numpy_kron(self, qubits, seed):
        rng = np.random.default_rng(seed)
        ops = [rng.standard_normal((2**k, 2**k)) * (rng.random((2**k, 2**k)) < 0.6) for k in qubits]
        ref = np.ones((1, 1))
        for op in ops:
            ref = np.kron(ref, op)
        out = linalg.kron_all([sparse(op) for op in ops])
        assert len(set(zip(out.rows.tolist(), out.cols.tolist()))) == out.vals.size and np.all(out.vals != 0)
        np.testing.assert_array_equal(dense(out), ref)

    def test_identity(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_xx_flips_00(self):
        xx = np.kron(linalg.PAULI_X, linalg.PAULI_X)
        v = np.zeros(4)
        v[0b00] = 1.0
        np.testing.assert_allclose(xx @ v, [0, 0, 0, 1])

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_trace_multiplicative(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert np.trace(np.kron(a, b)) == pytest.approx(np.trace(a) * np.trace(b))


def test_qubit_count_rejects_non_powers():
    with pytest.raises(InputError):
        linalg.qubit_count(6)
    assert linalg.qubit_count(8) == 3


def random_block(rng, size, hermitian, path=False):
    """A random complex block; with path=True only the diagonal and the first off-diagonals are nonzero."""
    block = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    if path:
        block = np.triu(np.tril(block, 1), -1)
    return block + block.conj().T if hermitian else block


def permuted_direct_sum(rng, blocks):
    """The direct sum of the blocks with its rows and columns under one random permutation."""
    n = sum(len(b) for b in blocks)
    total = np.zeros((n, n), dtype=complex)
    start = 0
    for b in blocks:
        total[start : start + len(b), start : start + len(b)] = b
        start += len(b)
    perm = rng.permutation(n)
    return total[np.ix_(perm, perm)]


block_sizes = st.one_of(
    st.lists(st.just(1), min_size=1, max_size=12),
    st.lists(st.integers(1, 6), min_size=1, max_size=10),
    st.integers(1, 24).map(lambda s: [s]),
)


class TestDirectSumBlocks:
    @settings(max_examples=80, deadline=None)
    @given(block_sizes, st.booleans(), st.integers(0, 2**32 - 1))
    def test_hermitian_direct_sum(self, sizes, path, seed):
        # path blocks are connected through a chain of entries only, so under
        # the permutation the first-neighbour pointers of a block rarely share a root
        rng = np.random.default_rng(seed)
        mat = permuted_direct_sum(rng, [random_block(rng, s, hermitian=True, path=path) for s in sizes])
        found = [s for index, _ in linalg.direct_sum_blocks(sparse(mat)) for s in [index.shape[1]] * index.shape[0]]
        assert found == sorted(sizes)
        evals = linalg.eigvals_hermitian(sparse(mat))
        assert np.max(np.abs(evals - np.linalg.eigvalsh(mat))) <= 1e-12 * max(1.0, np.max(np.abs(evals)))
        ref = np.sum(np.linalg.svd(mat, compute_uv=False))
        assert abs(linalg.trace_norm(sparse(mat)) - ref) <= 1e-12 * ref

    @settings(max_examples=40, deadline=None)
    @given(block_sizes, st.booleans(), st.integers(0, 2**32 - 1))
    def test_non_hermitian_direct_sum(self, sizes, path, seed):
        rng = np.random.default_rng(seed)
        mat = permuted_direct_sum(rng, [random_block(rng, s, hermitian=False, path=path) for s in sizes])
        ref = np.sum(np.linalg.svd(mat, compute_uv=False))
        assert abs(linalg.trace_norm(sparse(mat)) - ref) <= 1e-12 * ref

    def test_one_sided_entry_joins_two_blocks(self):
        # M[i, j] != 0 while M[j, i] == 0: only the symmetrised pattern sees the link
        rng = np.random.default_rng(8)
        mat = permuted_direct_sum(rng, [random_block(rng, s, hermitian=True) for s in (3, 1, 2, 4)])
        zero_pairs = np.argwhere(mat == 0)
        i, j = zero_pairs[len(zero_pairs) // 2]
        mat[i, j] = 0.5
        assert mat[j, i] == 0
        for one_sided in (mat, mat.T):
            assert sum(len(index) for index, _ in linalg.direct_sum_blocks(sparse(one_sided))) == 3
        ref = np.sum(np.linalg.svd(mat, compute_uv=False))
        assert abs(linalg.trace_norm(sparse(mat)) - ref) <= 1e-12 * ref
        with pytest.raises(InputError):
            linalg.eigvals_hermitian(sparse(mat))

    @settings(max_examples=40, deadline=None)
    @given(block_sizes, st.integers(0, 2**32 - 1))
    def test_blocks_list_their_indices(self, sizes, seed):
        # the stacks put back at their index lists rebuild the matrix, and an
        # index without entries is a block of size 1 holding 0
        rng = np.random.default_rng(seed)
        mat = permuted_direct_sum(rng, [random_block(rng, s, hermitian=False) * (s > 1) for s in sizes])
        rebuilt = np.zeros_like(mat)
        seen = []
        for index, stack in linalg.direct_sum_blocks(sparse(mat)):
            assert np.all(np.diff(index, axis=1) > 0)
            rebuilt[index[:, :, None], index[:, None, :]] = stack
            seen.extend(index.ravel().tolist())
        assert sorted(seen) == list(range(len(mat)))
        np.testing.assert_array_equal(rebuilt, mat)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(InputError):
            linalg.sparse(np.ones((2, 3)))
        with pytest.raises(InputError):
            linalg.sparse(np.ones(4))


def repeated_row_block(rng, size, distinct, zeros, ulp_pair, complex_):
    """A block whose rows are `distinct` random rows, each at random positions, with `zeros` rows set to 0.

    With ulp_pair the second random row is the first with one entry one ulp
    further from zero.  Every nonzero row is dense, so the block is one
    direct-sum block.
    """
    base = rng.standard_normal((distinct, size)) + (1j * rng.standard_normal((distinct, size)) if complex_ else 0)
    if ulp_pair and distinct > 1:
        base[1] = base[0]
        base[1, 0] += np.spacing(base[0, 0].real)
    block = base[rng.permutation(np.arange(size) % distinct)]
    block[rng.permutation(size)[:zeros]] = 0
    return block


def distinct_rows(block):
    return len({row.tobytes() for row in block})


merge_blocks = st.lists(
    # block size, distinct rows, zero rows, a pair of rows one ulp apart
    st.tuples(st.integers(2, 5), st.integers(1, 5), st.integers(0, 2), st.booleans()),
    min_size=1,
    max_size=8,
)


class TestMergedRows:
    @settings(max_examples=80, deadline=None)
    @given(merge_blocks, st.booleans(), st.integers(0, 2**32 - 1))
    def test_merge_keeps_the_singular_values(self, blocks, complex_, seed):
        # the SVD sees each stack with its blocks' bitwise-equal rows merged,
        # and a stack with a block of distinct rows as it is
        rng = np.random.default_rng(seed)
        mat = permuted_direct_sum(
            rng, [repeated_row_block(rng, s, min(d, s), min(z, s - 1), ulp, complex_) for s, d, z, ulp in blocks]
        )
        mat = mat if complex_ else mat.real.copy()
        op = sparse(mat)
        stacks = [stack for _, stack in linalg.direct_sum_blocks(op)]
        widths = [max(distinct_rows(block) for block in stack) for stack in stacks]
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            value = linalg.trace_norm(op)
        seen = [call.args[0] for call in svd.call_args_list]
        assert len(seen) == len(stacks)
        for got, stack, u in zip(seen, stacks, widths):
            k, s, _ = stack.shape
            if u == s:
                assert got.shape == stack.shape and got.tobytes() == stack.tobytes()
            else:
                assert got.shape == (k, u, s)
        ref = np.sum(np.linalg.svd(mat, compute_uv=False))
        assert abs(value - ref) <= 1e-12 * ref
        if all(u == stack.shape[1] for stack, u in zip(stacks, widths)):
            assert value == float(sum(np.sum(np.linalg.svd(stack, compute_uv=False)) for stack in stacks))
        # at 8 entries per run the row comparisons and gathers go in many runs
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "ENTRY_RUN", 8)
            assert linalg.trace_norm(op) == value

    @pytest.mark.parametrize("complex_", [False, True])
    def test_rows_one_ulp_apart_stay_apart(self, complex_):
        rng = np.random.default_rng(5)
        block = repeated_row_block(rng, 4, 2, 0, True, complex_)
        block = block if complex_ else block.real.copy()
        assert distinct_rows(block) == 2
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            value = linalg.trace_norm(sparse(block))
        assert svd.call_args.args[0].shape == (1, 2, 4)
        assert abs(value - np.sum(np.linalg.svd(block, compute_uv=False))) <= 1e-12 * value

    def test_equal_blocks_merge_apart(self):
        # three copies of one rank-one block: every row of the stack is the
        # same, but rows of different blocks never merge
        row = np.random.default_rng(7).standard_normal(4)
        mat = np.kron(np.eye(3), np.outer(np.ones(4), row))
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            value = linalg.trace_norm(sparse(mat))
        assert svd.call_args.args[0].shape == (3, 1, 4)
        assert value == pytest.approx(6 * np.linalg.norm(row), rel=1e-14)

    @pytest.mark.parametrize("dtype", [bool, np.int64, np.float32, np.complex64])
    def test_merged_rows_of_any_dtype(self, dtype):
        # the merged rows carry square roots of counts, so integer rows become floats
        mat = np.kron(np.eye(2), np.ones((5, 5))).astype(dtype)
        assert linalg.trace_norm(sparse(mat)) == pytest.approx(10.0, rel=1e-6)

    def test_rows_with_equal_keys_stay_apart(self):
        # a sign flip adds 2^63 times an odd weight to a row's key, so two flips
        # leave it unchanged: only the bits tell the row and its partner apart
        rng = np.random.default_rng(6)
        row = rng.standard_normal(6)
        partner = row * [-1, -1, 1, 1, 1, 1]
        mat = np.array([row, partner, partner, row, row, partner])
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            value = linalg.trace_norm(sparse(mat))
        assert svd.call_args.args[0].shape[1] >= 2
        assert abs(value - np.sum(np.linalg.svd(mat, compute_uv=False))) <= 1e-12 * value


def unsplit_fisher(rho, gen):
    """2 sum_jk (l_k - l_j)^2/(l_k + l_j) |<k|A|j>|^2 from one eigendecomposition of the whole rho."""
    evals, evecs = np.linalg.eigh(rho)
    evals = np.clip(evals, 0.0, None)
    a_elems = evecs.conj().T @ gen @ evecs
    lam_sum = evals[:, None] + evals[None, :]
    lam_diff = evals[:, None] - evals[None, :]
    weights = np.where(lam_sum > oracle.FISHER_PAIR_SKIP, lam_diff**2 / np.where(lam_sum > 0, lam_sum, 1.0), 0.0)
    return float(2.0 * np.sum(weights * np.abs(a_elems) ** 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 16), st.integers(0, 2**32 - 1))
def test_fisher_on_the_state_blocks_matches_the_unsplit_sum(n, seed):
    # a diagonal rho splits into n blocks of size 1; the generator couples them
    rng = np.random.default_rng(seed)
    weights = rng.random(n)
    weights[rng.random(n) < 0.3] = 0.0
    weights[0] += 0.1
    rho = np.diag(weights / weights.sum())
    gen = random_block(rng, n, hermitian=True)
    gen[rng.random((n, n)) < 0.5] = 0.0
    gen = np.triu(gen) + np.triu(gen, 1).conj().T
    ref = unsplit_fisher(rho, gen)
    assert abs(fisher_dense(sparse(rho), sparse(gen)) - ref) <= 1e-12 * max(1.0, ref)


def mixed_size_blocks(sizes, seed):
    """A state that is a permuted direct sum of PSD blocks of these sizes, some of them zero, and a generator coupling them."""
    rng = np.random.default_rng(seed)
    blocks = []
    for s in sizes:
        g = random_block(rng, s, hermitian=False)
        blocks.append(g @ g.conj().T * (rng.random() < 0.8))
    rho = permuted_direct_sum(rng, blocks)
    rho[0, 0] += 0.1
    rho /= np.trace(rho).real
    n = len(rho)
    gen = random_block(rng, n, hermitian=True)
    gen[rng.random((n, n)) < 0.5] = 0.0
    gen = np.triu(gen) + np.triu(gen, 1).conj().T
    return rho, gen


@settings(max_examples=60, deadline=None)
@given(block_sizes, st.integers(0, 2**32 - 1))
def test_fisher_between_blocks_of_different_sizes(sizes, seed):
    rho, gen = mixed_size_blocks(sizes, seed)
    ref = unsplit_fisher(rho, gen)
    assert abs(fisher_dense(sparse(rho), sparse(gen)) - ref) <= 1e-12 * max(1.0, ref)


@settings(max_examples=40, deadline=None)
@given(block_sizes, st.integers(0, 2**32 - 1), st.sampled_from(SMALL_SHAPES), DYADIC_P)
def test_runs_of_eight_entries_change_no_result(sizes, seed, shape, p):
    # the oracle's full-length passes read linalg.ENTRY_RUN when called; at 8
    # entries the state assembly and the Fisher block pairs go in many runs
    rho, gen = mixed_size_blocks(sizes, seed)
    ref = unsplit_fisher(rho, gen)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "ENTRY_RUN", 8)
        assert_matches_literal_state(BlockConfig(*shape), p)
        value = fisher_dense(sparse(rho), sparse(gen))
    assert abs(value - ref) <= 1e-12 * max(1.0, ref)
