from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cghz import circuits
from cghz.circuits import (
    Circuit,
    LocalGate,
    MSGate,
    ZLayer,
    export_circuit,
    gate_counts,
    local_unitary,
    parse_circuit,
    phase_matrix,
    preparation_fidelity,
    simulate,
    synthesize_block_phase,
    synthesize_preparation,
)
from cghz.errors import InputError, ResourceLimitError
from cghz.states import BlockConfig, cghz

QUARTER = Fraction(1, 4)


def reference_phase_matrix(circuit):
    """Per-pair Fraction accumulation of the XX phases, the direct definition."""
    flags = [1] * circuit.n
    xi = [[Fraction(0)] * circuit.n for _ in range(circuit.n)]
    for g in circuit.gates:
        if isinstance(g, LocalGate):
            raise InputError("phase algebra is undefined for circuits with local gates")
        if isinstance(g, ZLayer):
            for q in g.qubits:
                flags[q] = -flags[q]
        else:
            for k in range(circuit.n):
                for l in range(k + 1, circuit.n):
                    xi[k][l] += g.xi * flags[k] * flags[l]
    for k in range(circuit.n):
        for l in range(k + 1, circuit.n):
            xi[k][l] %= 2
            xi[l][k] = xi[k][l]
    return circuits.PhaseMatrix(n=circuit.n, xi=tuple(tuple(row) for row in xi))


@st.composite
def ms_z_circuits(draw):
    """MS/ZLayer circuits on 1..8 qubits: angles over unrelated denominators
    1..64 up to |xi| = 3, Z layers that may be empty or repeat qubits."""
    n = draw(st.integers(1, 8))
    ms = st.integers(1, 64).flatmap(lambda d: st.integers(-3 * d, 3 * d).map(lambda k: MSGate(Fraction(k, d))))
    z = st.lists(st.integers(0, n - 1), max_size=2 * n).map(lambda qs: ZLayer(tuple(qs)))
    return Circuit(n, tuple(draw(st.lists(st.one_of(ms, z), max_size=12))))


def reference_simulate(circuit, state):
    """Gate by gate: an MS pulse as its n(n-1)/2 pair rotations, a Z layer qubit by qubit."""
    n = circuit.n
    psi = np.asarray(state, dtype=complex).copy()
    idx = np.arange(2**n)
    for g in circuit.gates:
        if isinstance(g, MSGate):
            xi = float(g.xi % 2) * np.pi
            c, s = np.cos(xi), np.sin(xi)
            for k in range(n):
                for l in range(k + 1, n):
                    flip = (1 << (n - 1 - k)) | (1 << (n - 1 - l))
                    psi = c * psi + 1j * s * psi[idx ^ flip]
        elif isinstance(g, ZLayer):
            phase = np.ones(2**n, dtype=complex)
            for q in g.qubits:
                bit = (idx >> (n - 1 - q)) & 1
                phase *= np.where(bit == 0, 1j, -1j)
            psi = phase * psi
        else:
            t = np.tensordot(local_unitary(g.name), psi.reshape((2,) * n), axes=([1], [g.qubit]))
            psi = np.moveaxis(t, 0, g.qubit).reshape(-1)
    return psi


def random_circuit(rng, n):
    """MS, Z and local gates on n qubits: MS numerators up to 2^93, Z layers
    that may be empty or repeat qubits, named and parametric local gates."""
    gates = []
    for _ in range(int(rng.integers(1, 13))):
        kind, den = int(rng.integers(3)), int(rng.integers(1, 65))
        if kind == 0:
            num = int(rng.integers(-4 * den, 4 * den + 1)) + (int(rng.integers(-3, 4)) << 90)
            gates.append(MSGate(Fraction(num, den)))
        elif kind == 1:
            gates.append(ZLayer(tuple(int(q) for q in rng.integers(0, n, int(rng.integers(0, 2 * n + 1))))))
        else:
            names = ["I", "X", "Y", "Z", "H", "S", "SDG", f"P{Fraction(int(rng.integers(-9, 10)), den)}"]
            gates.append(LocalGate(names[int(rng.integers(len(names)))], int(rng.integers(n))))
    return Circuit(n, tuple(gates))


class TestPhaseMatrix:
    def test_single_ms(self):
        xi = phase_matrix(Circuit(3, (MSGate(Fraction(1, 8)),)))
        for k in range(3):
            for l in range(k + 1, 3):
                assert xi[k, l] == Fraction(1, 8)

    def test_zlayer_flips_touching_pairs(self):
        c = Circuit(3, (ZLayer((1,)), MSGate(Fraction(1, 8))))
        xi = phase_matrix(c)
        assert xi[0, 2] == Fraction(1, 8)
        assert xi[0, 1] == Fraction(-1, 8) % 2
        assert xi[1, 2] == Fraction(-1, 8) % 2

    def test_half_split_cancels_across_groups(self):
        # MS(xi/2); Z(first half); MS(xi/2) gives xi inside halves, 0 across
        half = Fraction(1, 8)
        c = Circuit(4, (MSGate(half), ZLayer((0, 1)), MSGate(half)))
        xi = phase_matrix(c)
        assert xi[0, 1] == Fraction(1, 4)
        assert xi[2, 3] == Fraction(1, 4)
        for k in (0, 1):
            for l in (2, 3):
                assert xi[k, l] == 0

    def test_rejects_local_gates(self):
        with pytest.raises(InputError):
            phase_matrix(Circuit(2, (LocalGate("H", 0),)))

    @settings(max_examples=300, deadline=None)
    @given(ms_z_circuits())
    @example(Circuit(1, ()))
    @example(Circuit(3, (ZLayer(()), ZLayer((1, 1, 2)), ZLayer((0,)))))
    @example(Circuit(2, (MSGate(Fraction(-7, 3)), ZLayer((1, 1)), MSGate(Fraction(5, 64)))))
    def test_matches_per_pair_reference(self, circuit):
        xi = phase_matrix(circuit)
        assert xi == reference_phase_matrix(circuit)
        assert all(type(v) is Fraction and 0 <= v < 2 for row in xi.xi for v in row)

    def test_symmetry_and_zero_diagonal(self):
        xi = phase_matrix(synthesize_block_phase(BlockConfig(3, 2)))
        for k in range(6):
            assert xi[k, k] == 0
            for l in range(6):
                assert xi[k, l] == xi[l, k]


def assert_block_phase_pattern(cfg):
    xi = phase_matrix(synthesize_block_phase(cfg))
    n = cfg.qubits
    for k in range(n):
        for l in range(k + 1, n):
            expected = QUARTER if k // cfg.m == l // cfg.m else Fraction(0)
            assert xi[k, l] == expected, (cfg, k, l, xi[k, l])


class TestSynthesizeBlockPhase:
    def test_base_case(self):
        c = synthesize_block_phase(BlockConfig(1, 3))
        assert c.gates == (MSGate(QUARTER),)

    def test_two_blocks_matches_hand_construction(self):
        c = synthesize_block_phase(BlockConfig(2, 2))
        assert c.gates == (
            MSGate(Fraction(1, 8)),
            ZLayer((2, 3)),
            MSGate(Fraction(1, 8)),
        )

    @pytest.mark.parametrize(
        "m, n_blocks",
        [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 4, 8)]
        # the 48-64-qubit couplers of the benchmark's design workload
        + [(4, 16), (2, 32), (3, 20), (4, 12)],
    )
    def test_exact_phase_pattern(self, n_blocks, m):
        assert_block_phase_pattern(BlockConfig(n_blocks, m))

    def test_open_z_parity_is_closed_form(self):
        # block b toggles once per layer whose mask (t-1)^t has odd overlap
        # with b; the masks telescope, so the count's parity is popcount(b)
        for n_blocks in range(1, 301):
            T, layers = circuits._walsh_layers(n_blocks)
            toggles = [0] * n_blocks
            for blocks in layers:
                for b in blocks:
                    toggles[b] += 1
            odd = [b for b in range(n_blocks) if toggles[b] % 2]
            assert odd == [b for b in range(n_blocks) if (b & (T - 1)).bit_count() & 1]
            _, fin = circuits.correction_layers(BlockConfig(n_blocks, 1))
            assert [g.qubit for g in fin if g.name == "Z"] == odd

    def test_four_blocks_counts(self):
        c = synthesize_block_phase(BlockConfig(4, 2))
        ms, zl, phase = gate_counts(c)
        assert (ms, zl) == (4, 3)
        assert all(g.xi == Fraction(1, 16) for g in c.gates if isinstance(g, MSGate))
        assert phase == QUARTER

    def test_eight_blocks_counts(self):
        ms, zl, phase = gate_counts(synthesize_block_phase(BlockConfig(8, 3)))
        assert (ms, zl, phase) == (8, 7, QUARTER)

    def test_non_power_of_two_rounds_up(self):
        # a 3-row orthogonal +-1 schedule does not exist; the pulse count
        # rounds to 4, keeping the budget at pi/4
        ms, zl, phase = gate_counts(synthesize_block_phase(BlockConfig(3, 2)))
        assert (ms, zl, phase) == (4, 3, QUARTER)

    @pytest.mark.parametrize("n_blocks", [2, 4, 8, 16])
    def test_linear_scaling(self, n_blocks):
        ms, _, _ = gate_counts(synthesize_block_phase(BlockConfig(n_blocks, 2)))
        assert ms == n_blocks


class TestGateCounts:
    def test_empty(self):
        assert gate_counts(Circuit(2, ())) == (0, 0, Fraction(0))

    @pytest.mark.parametrize("n_blocks", [1, 2, 4, 8])
    def test_preparation_counts_power_of_two(self, n_blocks):
        cfg = BlockConfig(n_blocks, 2)
        ms, zl, phase = gate_counts(synthesize_preparation(cfg))
        assert ms == n_blocks + 1
        assert zl == n_blocks - 1
        assert phase == Fraction(1, 2)

    @pytest.mark.parametrize("cfg", [BlockConfig(3, 2), BlockConfig(5, 1), BlockConfig(2, 4)])
    def test_total_phase_always_half_pi(self, cfg):
        assert gate_counts(synthesize_preparation(cfg))[2] == Fraction(1, 2)


class TestSimulate:
    def test_empty_circuit(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        v /= np.linalg.norm(v)
        np.testing.assert_array_equal(simulate(Circuit(3, ()), v), v)
        # local gates alone never leave the computational basis
        local = Circuit(3, (LocalGate("H", 0), LocalGate("P1/3", 2), LocalGate("SDG", 1), LocalGate("Y", 0)))
        np.testing.assert_array_equal(simulate(local, v), reference_simulate(local, v))

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            simulate(Circuit(13, ()))

    def test_ms_quarter_makes_ghz_like_state(self):
        # every bipartition of MS(pi/4)|0000> carries exactly two Schmidt
        # values of 1/2: GHZ up to local unitaries
        psi = simulate(Circuit(4, (MSGate(QUARTER),)))
        for cut in range(1, 4):
            mat = psi.reshape(2**cut, 2 ** (4 - cut))
            svals = np.linalg.svd(mat, compute_uv=False) ** 2
            svals = np.sort(svals)[::-1]
            np.testing.assert_allclose(svals[:2], [0.5, 0.5], atol=1e-12)
            np.testing.assert_allclose(svals[2:], 0, atol=1e-12)
            entropy = -sum(s * np.log2(s) for s in svals if s > 1e-12)
            assert entropy == pytest.approx(1.0, abs=1e-10)

    def test_local_gate_application(self):
        psi = simulate(Circuit(2, (LocalGate("X", 0), LocalGate("H", 1))))
        expected = np.zeros(4, dtype=complex)
        expected[0b10] = expected[0b11] = 1 / np.sqrt(2)
        np.testing.assert_allclose(psi, expected, atol=1e-14)

    def test_phase_algebra_consistency_on_random_circuits(self):
        # a MS/ZLayer circuit equals (open Z layers) x (pairwise XX rotations
        # by the accumulated phases), up to nothing at all: check on a basis
        rng = np.random.default_rng(5)
        for trial in range(6):
            n = int(rng.integers(2, 5))
            gates = []
            z_open = [0] * n
            for _ in range(int(rng.integers(2, 6))):
                if rng.random() < 0.5:
                    sub = tuple(int(q) for q in np.flatnonzero(rng.integers(0, 2, n)))
                    if not sub:
                        continue
                    gates.append(ZLayer(sub))
                    for q in sub:
                        z_open[q] += 1
                else:
                    gates.append(MSGate(Fraction(int(rng.integers(1, 8)), 16)))
            circuit = Circuit(n, tuple(gates))
            xi = phase_matrix(circuit)
            rebuilt_gates = []
            for k in range(n):
                for l in range(k + 1, n):
                    if xi[k, l]:
                        rebuilt_gates.append((k, l, float(xi[k, l]) * np.pi))
            overlaps = []
            for basis_idx in [0, 1, (1 << n) - 1]:
                start = np.zeros(2**n, dtype=complex)
                start[basis_idx] = 1.0
                direct = simulate(circuit, start)
                # rebuilt: pairwise rotations, then the open Z layers
                idx = np.arange(2**n)
                rebuilt = start.copy()
                for k, l, angle in rebuilt_gates:
                    flip = (1 << (n - 1 - k)) | (1 << (n - 1 - l))
                    rebuilt = np.cos(angle) * rebuilt + 1j * np.sin(angle) * rebuilt[idx ^ flip]
                for q, count in enumerate(z_open):
                    if count == 0:
                        continue
                    bit = (idx >> (n - 1 - q)) & 1
                    rebuilt = np.where(bit == 0, 1j**count, (-1j) ** count) * rebuilt
                overlaps.append(np.vdot(rebuilt, direct))
            # unit modulus with one common global phase
            for ov in overlaps:
                assert abs(ov) == pytest.approx(1.0, abs=1e-10)
            assert np.ptp(np.angle(np.array(overlaps) / overlaps[0])) < 1e-10

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_reference_simulation(self, n):
        rng = np.random.default_rng(100 + n)
        zero = np.zeros(2**n, dtype=complex)
        zero[0] = 1.0
        for _ in range(8):
            start = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            start /= np.linalg.norm(start)
            circuit = random_circuit(rng, n)
            for state in (zero, start):
                want = reference_simulate(circuit, state)
                np.testing.assert_allclose(simulate(circuit, state), want, rtol=0, atol=1e-12)
        # run boundaries: a leading Z layer, a local gate between two MS runs,
        # a qubit listed three times, and a trailing Z layer
        fixed = Circuit(n, (ZLayer((0,)), MSGate(Fraction(1, 8)), LocalGate("H", n - 1), MSGate(Fraction(3, 7)),
                            ZLayer((n - 1,) * 3), MSGate(Fraction(-1, 5)), ZLayer((0, n - 1))))
        for state in (zero, start):
            np.testing.assert_allclose(simulate(fixed, state), reference_simulate(fixed, state), rtol=0, atol=1e-12)

    def test_repeated_zlayer_qubits_and_huge_angles(self):
        start = np.full(8, 1 / np.sqrt(8), dtype=complex)
        # Z twice on one qubit is -1; MS angles equal mod 2 act alike
        twice = simulate(Circuit(3, (ZLayer((1, 0, 1)),)), start)
        np.testing.assert_allclose(twice, -simulate(Circuit(3, (ZLayer((0,)),)), start), atol=1e-15)
        huge = simulate(Circuit(3, (MSGate(Fraction((1 << 200) + 1, 8)),)), start)
        np.testing.assert_allclose(huge, simulate(Circuit(3, (MSGate(Fraction(1, 8)),)), start), atol=1e-14)
        np.testing.assert_allclose(simulate(parse_circuit("QUBITS 3\nMS 1e400\n"), start), start, atol=1e-14)


class TestPreparation:
    @pytest.mark.parametrize(
        "cfg",
        [
            BlockConfig(2, 2),
            BlockConfig(2, 3),
            BlockConfig(4, 2),
            BlockConfig(1, 1),
            BlockConfig(1, 4),
            BlockConfig(2, 1),
            BlockConfig(3, 2),
            BlockConfig(3, 3),
            BlockConfig(4, 1),
            BlockConfig(5, 2),
            BlockConfig(2, 5),
            BlockConfig(8, 1),
            BlockConfig(4, 3),
            # qubit counts 3 and 7 mod 4 exercise the remaining branch-pair
            # rotation table rows
            BlockConfig(3, 1),
            BlockConfig(1, 3),
            BlockConfig(7, 1),
            BlockConfig(3, 4),
        ],
    )
    def test_reaches_target_exactly(self, cfg):
        assert preparation_fidelity(cfg) >= 1 - 1e-10

    def test_correction_layers_are_local_only(self):
        mid, fin = circuits.correction_layers(BlockConfig(3, 2))
        assert all(isinstance(g, LocalGate) for g in mid + fin)

    def test_simulated_state_is_cghz(self):
        cfg = BlockConfig(2, 3)
        psi = simulate(synthesize_preparation(cfg))
        assert abs(np.vdot(cghz(cfg), psi)) == pytest.approx(1.0, abs=1e-12)


class TestTextFormat:
    def test_round_trip_preparation(self):
        for cfg in (BlockConfig(2, 2), BlockConfig(3, 1), BlockConfig(4, 2), BlockConfig(256, 4)):
            c = synthesize_preparation(cfg)
            assert parse_circuit(export_circuit(c)) == c

    def test_round_trip_is_textually_stable(self):
        for cfg in (BlockConfig(2, 3), BlockConfig(256, 4)):
            text = export_circuit(synthesize_preparation(cfg))
            assert export_circuit(parse_circuit(text)) == text

    def test_format_lines(self):
        c = Circuit(3, (MSGate(Fraction(1, 8)), ZLayer((0, 2)), LocalGate("SDG", 1)))
        assert export_circuit(c) == "QUBITS 3\nMS 1/8\nZ 0 2\nL SDG 1\n"

    def test_parse_rejects_garbage(self):
        with pytest.raises(InputError):
            parse_circuit("QUBITS 2\nFOO 1\n")
        with pytest.raises(InputError):
            parse_circuit("MS 1/8\n")
        with pytest.raises(InputError):
            parse_circuit("QUBITS 2\nL NOPE 0\n")
        with pytest.raises(InputError):
            parse_circuit("QUBITS -1\n")
        with pytest.raises(InputError, match="bad header"):
            parse_circuit("QUBITSX 3\nMS 1/4\n")
        with pytest.raises(InputError, match="bad header"):
            parse_circuit("QUBITS 3 junk\nMS 1/4\n")

    @pytest.mark.parametrize(
        "text", ["QUBITS 2\nZ 1 x\n", "QUBITS 2\nL X q\n", "QUBITS 2\nMS abc\n", "QUBITS 2\nMS 1/0\n"]
    )
    def test_parse_rejects_malformed_numbers(self, text):
        with pytest.raises(InputError, match="bad number"):
            parse_circuit(text)

    def test_huge_and_zero_denominator_phases(self):
        assert parse_circuit("QUBITS 1\nL P1e400 0\n").gates == (LocalGate("P1e400", 0),)
        np.testing.assert_array_equal(local_unitary("P1e400"), np.eye(2))
        with pytest.raises(InputError, match="bad phase gate name"):
            local_unitary("P1/0")
        with pytest.raises(InputError, match="bad phase gate name"):
            parse_circuit("QUBITS 1\nL P1/0 0\n")

    def test_repeated_lines_parse_like_single_lines(self):
        body = ["MS 1/8", "Z 0 2", "L H 1", "Z 0 2", "MS 1/8", "L P3/8 2", "L H 1", "MS -5/3", "Z 1 1", "L P3/8 0"] * 30
        text = "QUBITS 3\n" + "\n".join(body) + "\n"
        parsed = parse_circuit(text)
        assert parsed.gates == tuple(parse_circuit(f"QUBITS 3\n{ln}\n").gates[0] for ln in body)
        assert export_circuit(parsed) == text

    def test_malformed_line_after_repeats(self):
        text = "QUBITS 2\n" + "MS 1/8\nZ 0 1\nL H 0\n" * 500 + "Z 0 x\nMS 1/8\nZ 0 x\n"
        with pytest.raises(InputError, match=r"bad number in line 'Z 0 x'"):
            parse_circuit(text)

    def test_first_bad_gate_in_gate_order_is_reported(self):
        good, first, second = ZLayer((0, 1)), ZLayer((0, 7)), LocalGate("X", 9)
        with pytest.raises(InputError, match=r"ZLayer\(qubits=\(0, 7\)\) addresses qubits \[7\] outside 0\.\.1"):
            Circuit(2, (good,) * 50 + (first, second, first))
        with pytest.raises(InputError, match=r"LocalGate\(name='X', qubit=9\) addresses qubits \[9\]"):
            Circuit(2, (good, second, good, first))

    def test_gate_names_resolve(self):
        for name in ("I", "X", "Y", "Z", "H", "S", "SDG", "P1/4", "P-3/8"):
            u = local_unitary(name)
            assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12

    def test_circuit_validates_indices(self):
        with pytest.raises(InputError, match=r"addresses qubits \[5\] outside 0\.\.1"):
            Circuit(2, (ZLayer((0, 5)),))
        with pytest.raises(InputError, match=r"\[-1\]"):
            Circuit(2, (ZLayer((-1,)),))
        with pytest.raises(InputError, match=r"\[2\]"):
            Circuit(2, (LocalGate("X", 2),))
        Circuit(2, (ZLayer(()), ZLayer((1, 0, 1)), LocalGate("X", 1)))
