from functools import reduce

import numpy as np
import pytest

from cghz.channels import depolarize_all
from cghz.errors import InputError, ResourceLimitError
from cghz.states import BlockConfig, cghz, ghz, random_orthogonal_pair

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def doublet_representative(k, m):
    """Canonical member of the doublet {k, ~k}: lower Hamming weight, ties by lower integer."""
    comp = (~k) & ((1 << m) - 1)
    wk, wc = bin(k).count("1"), bin(comp).count("1")
    if wk != wc:
        return k if wk < wc else comp
    return min(k, comp)


def logical_hadamard(m):
    """Unitary acting as the 2x2 Hadamard inside every doublet {|k>, |~k>}.

    Maps |GHZ_m^+> to |0>^m and |GHZ_m^-> to |1>^m; squares to the identity.
    The canonical doublet member (see doublet_representative) plays the role
    of |0> in each 2x2 block.
    """
    dim = 1 << m
    u = np.zeros((dim, dim), dtype=complex)
    r = 1 / np.sqrt(2)
    for k in range(dim):
        rep = doublet_representative(k, m)
        comp = (~rep) & (dim - 1)
        if k != rep:
            continue
        u[rep, rep] = r
        u[comp, rep] = r
        u[rep, comp] = r
        u[comp, comp] = -r
    return u


class TestGhz:
    def test_single_qubit(self):
        np.testing.assert_allclose(ghz(1, +1), [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_two_qubit_minus(self):
        v = ghz(2, -1)
        np.testing.assert_allclose(v, [1 / np.sqrt(2), 0, 0, -1 / np.sqrt(2)])

    @pytest.mark.parametrize("m", range(1, 7))
    def test_signs_orthogonal(self, m):
        assert abs(np.vdot(ghz(m, +1), ghz(m, -1))) < 1e-14

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            ghz(13)

    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_a_qubit(self, m):
        with pytest.raises(InputError):
            ghz(m)


class TestCghz:
    def test_single_block_collapses_to_all_zero(self):
        v = cghz(BlockConfig(1, 3))
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_allclose(v, expected, atol=1e-14)

    def test_two_by_two_expansion(self):
        # the cross terms cancel: (G+ G+ + G- G-)/sqrt2 = (|0000> + |1111>)/sqrt2
        v = cghz(BlockConfig(2, 2))
        nonzero = {i: v[i] for i in range(16) if abs(v[i]) > 1e-14}
        assert set(nonzero) == {0b0000, 0b1111}
        for amp in nonzero.values():
            assert amp == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize("n_blocks", [2, 3, 4])
    def test_m1_is_ghz_in_rotated_basis(self, n_blocks):
        # |0> -> |+>, |1> -> |-> per qubit maps GHZ_N onto the m=1 state
        rotated = reduce(np.kron, [HADAMARD] * n_blocks) @ ghz(n_blocks, +1)
        fid = abs(np.vdot(cghz(BlockConfig(n_blocks, 1)), rotated))
        assert fid == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cfg", [BlockConfig(2, 2), BlockConfig(3, 2), BlockConfig(2, 3)])
    def test_unit_norm(self, cfg):
        assert np.linalg.norm(cghz(cfg)) == pytest.approx(1.0, abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(InputError):
            BlockConfig(0, 2)


class TestLogicalHadamard:
    def test_m1_is_hadamard(self):
        np.testing.assert_allclose(logical_hadamard(1), HADAMARD, atol=1e-14)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_maps_ghz_to_logical_basis(self, m):
        u = logical_hadamard(m)
        zero = np.zeros(2**m)
        zero[0] = 1.0
        one = np.zeros(2**m)
        one[-1] = 1.0
        np.testing.assert_allclose(u @ ghz(m, +1), zero, atol=1e-12)
        np.testing.assert_allclose(u @ ghz(m, -1), one, atol=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_unitary_and_involutive(self, m):
        u = logical_hadamard(m)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2**m))) < 1e-12
        assert np.max(np.abs(u @ u - np.eye(2**m))) < 1e-12

    def test_block_diagonalizes_decohered_state(self):
        # after the per-block rotation the noisy state has no matrix elements
        # between different doublet sectors
        cfg = BlockConfig(2, 2)
        psi = cghz(cfg)
        rho = depolarize_all(np.outer(psi, psi.conj()), 0.9)
        u = np.kron(logical_hadamard(2), logical_hadamard(2))
        rot = u @ rho @ u.conj().T

        def sector(idx):
            labels = []
            for block in range(2):
                bits = (idx >> (2 * (1 - block))) & 0b11
                rep = doublet_representative(bits, 2)
                labels.append(rep)
            return tuple(labels)

        for i in range(16):
            for j in range(16):
                if sector(i) != sector(j):
                    assert abs(rot[i, j]) < 1e-12


class TestRandomOrthogonalPair:
    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_orthonormal(self, seed):
        a, b = random_orthogonal_pair(3, seed)
        assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(a, b)) < 1e-12

    def test_deterministic(self):
        a1, b1 = random_orthogonal_pair(2, 99)
        a2, b2 = random_orthogonal_pair(2, 99)
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(b1, b2)

    def test_cap(self):
        with pytest.raises(InputError):
            random_orthogonal_pair(7, 0)

    @pytest.mark.parametrize("m", [0, -1])
    def test_needs_a_qubit(self, m):
        with pytest.raises(InputError):
            random_orthogonal_pair(m, 0)

    def test_haar_first_moment(self):
        # mean of |<0|a>|^2 is 2^-m; Beta(1, d-1) variance gives the standard error
        m, samples = 2, 10_000
        d = 2**m
        vals = np.array([abs(random_orthogonal_pair(m, seed)[0][0]) ** 2 for seed in range(samples)])
        se = np.sqrt((d - 1) / (d**2 * (d + 1)) / samples)
        assert abs(vals.mean() - 1 / d) < 3 * se
