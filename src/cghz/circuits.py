"""Ion-trap preparation circuits: global MS gates, Z-layer sign conjugation,
Walsh-scheduled intra-block phase synthesis, exact phase accounting, and a
state-vector simulator that holds each run of MS gates and Z layers in the
X basis, where an MS pulse is a phase and a Z layer a bit flip.

Gates
-----
MS(xi)      global Molmer-Sorensen pulse prod_{k<l} exp(i xi X_k X_l); the
            angle is stored as an exact rational multiple of pi.
ZLayer(G)   exp(i (pi/2) sum_{k in G} sigma_z^k).  Conjugating a later MS
            gate by it flips the sign of xi on every pair with exactly one
            member in G, which is how interactions are cancelled.
Local(g, q) named single-qubit gate on qubit q.  Names: I, X, Y, Z, H, S,
            SDG, plus parametric phases "P<r>" with r a rational number,
            meaning diag(1, exp(i pi r)).

Text format (one gate per line, bit-exact round trip):

    QUBITS <n>
    MS <xi/pi as rational>
    Z <qubit> <qubit> ...
    L <name> <qubit>

Synthesis
---------
The block coupler schedules T = 2^ceil(log2 N) global MS pulses of angle
pi/(4T) whose accumulated pair phases follow Walsh sign codes, with a
Z layer between consecutive pulses toggling the blocks whose code bit
flips.  Walsh rows are orthogonal, so inter-block phases cancel exactly
while every intra-block pair accumulates pi/4.  The toggle masks (t-1)^t
take log2 T distinct values and telescope: block b's sign at pulse t is
(-1)^popcount(b & t).  The full preparation is MS(pi/4), a local layer
rotating the resulting product-pair branches onto the z basis with a
phase tuned so the two GHZ branches interleave correctly, the coupler,
and a final local layer that undoes the open Z layers and rotates each
block's branch pair onto the logical basis.  The construction is exact;
simulation reproduces the concatenated GHZ state to machine precision.
phase_matrix certifies the pair phases exactly by integer sums over
qubit classes (a coupler block is one), O(G n + U^2 G) for G gates.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .errors import InputError
from .states import BlockConfig, cghz


@dataclass(frozen=True)
class MSGate:
    xi: Fraction  # units of pi


@dataclass(frozen=True)
class ZLayer:
    qubits: tuple


@dataclass(frozen=True)
class LocalGate:
    name: str
    qubit: int


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple

    def __post_init__(self):
        if self.n < 0:
            raise InputError(f"circuit needs a non-negative qubit count, got {self.n}")
        for g in dict.fromkeys(self.gates):  # each distinct gate once, in gate order
            if isinstance(g, ZLayer):
                inside = not g.qubits or (min(g.qubits) >= 0 and max(g.qubits) < self.n)
                bad = [] if inside else [q for q in g.qubits if not 0 <= q < self.n]
            elif isinstance(g, LocalGate):
                bad = [] if 0 <= g.qubit < self.n else [g.qubit]
            else:
                bad = []
            if bad:
                raise InputError(f"gate {g} addresses qubits {bad} outside 0..{self.n - 1}")


@dataclass(frozen=True)
class PhaseMatrix:
    """Symmetric matrix of accumulated pairwise XX phases, exact rationals of pi mod 2."""

    n: int
    xi: tuple  # tuple of tuples of Fraction

    def __getitem__(self, pair):
        k, l = pair
        return self.xi[k][l]


_LOCAL_GATES = {
    "I": np.eye(2, dtype=complex),
    "X": linalg.PAULI_X,
    "Y": linalg.PAULI_Y,
    "Z": linalg.PAULI_Z,
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "SDG": np.array([[1, 0], [0, -1j]], dtype=complex),
}


def local_unitary(name):
    """2x2 matrix for a named local gate, including parametric phases P<r>."""
    if name in _LOCAL_GATES:
        return _LOCAL_GATES[name]
    if name.startswith("P"):
        try:
            r = Fraction(name[1:]) % 2  # exact, so huge numerators stay finite
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad phase gate name {name!r}") from exc
        return np.array([[1, 0], [0, np.exp(1j * math.pi * float(r))]], dtype=complex)
    raise InputError(f"unknown local gate {name!r}")


def phase_matrix(circuit: Circuit):
    """Effective pairwise XX phases of an MS/ZLayer circuit, exact mod 2 pi.

    Each Z layer toggles a per-qubit sign flag; an MS(xi) then contributes
    xi times the product of the two flags to every pair.  Qubits whose flag
    histories (bit g: negative at MS gate g) agree form one class.  A class
    pair sums the angles' integer numerators over their common denominator,
    signed by the XOR of the histories: O(G n + U^2 G) for G gates and U <= n
    classes.  Local gates have no phase-algebra meaning and are rejected.
    """
    n = circuit.n
    history, angles = [0] * n, []
    for g in circuit.gates:
        if isinstance(g, LocalGate):
            raise InputError("phase algebra is undefined for circuits with local gates")
        if isinstance(g, ZLayer):
            for q in g.qubits:
                history[q] ^= -1 << len(angles)  # negative from the next MS gate on
        else:
            angles.append(g.xi)
    den = math.lcm(*(a.denominator for a in angles))
    nums = [a.numerator * (den // a.denominator) for a in angles]
    classes = {}
    cls = [classes.setdefault(h & ((1 << len(nums)) - 1), len(classes)) for h in history]
    table = [[Fraction(sum(-v if (a ^ b) >> g & 1 else v for g, v in enumerate(nums)) % (2 * den), den)
              for b in classes] for a in classes]
    zero = Fraction(0)
    xi = tuple(tuple(zero if k == l else table[cls[k]][cls[l]] for l in range(n)) for k in range(n))
    return PhaseMatrix(n=n, xi=xi)


def _walsh_layers(N):
    """(pulse count T, block tuples toggled between consecutive pulses).

    The mask (t-1)^t depends only on the trailing zeros of t, so the T-1
    layers repeat log2 T distinct tuples, each built once.
    """
    T = 1 << (N - 1).bit_length()
    sets = {}
    for t in range(1, T):
        mask = (t - 1) ^ t
        if mask not in sets:
            sets[mask] = tuple(b for b in range(N) if (b & mask).bit_count() & 1)
    return T, [sets[(t - 1) ^ t] for t in range(1, T)]


def _pair_rotation(k4):
    """Gates mapping the branch pair (|+> +/- nu |->)/sqrt2 to (|0>, |1>), nu = (-i)^k4.

    Returns (gate names in application order, phase picked up by each branch)
    with phases as Fractions of pi.
    """
    k4 = k4 % 4
    if k4 == 0:
        return (), Fraction(0), Fraction(0)
    if k4 == 2:
        return ("X",), Fraction(0), Fraction(0)
    if k4 == 3:  # nu = i: apply S then H
        return ("S", "H"), Fraction(1, 4), Fraction(-1, 4)
    # nu = -i: apply SDG then H
    return ("SDG", "H"), Fraction(-1, 4), Fraction(1, 4)


def synthesize_block_phase(cfg: BlockConfig):
    """Circuit whose pair phases are exactly pi/4 within blocks and 0 across.

    Power-of-two N uses exactly N MS pulses and N-1 Z layers; other N round
    the pulse count up to the next power of two (the Walsh schedule needs
    orthogonal sign rows, which do not exist for odd pulse counts), keeping
    the count linear and the total MS phase at pi/4 regardless.
    """
    N, m = cfg.N, cfg.m
    T, layers = _walsh_layers(N)
    pulse = MSGate(Fraction(1, 4 * T))
    zlayer = {blocks: ZLayer(tuple(b * m + j for b in blocks for j in range(m))) for blocks in set(layers)}
    gates = [pulse]
    for blocks in layers:
        gates += [zlayer[blocks], pulse]
    return Circuit(n=cfg.qubits, gates=tuple(gates))


def correction_layers(cfg: BlockConfig):
    """(intermediate layer, final layer) of local gates for the preparation.

    Derived exactly: the MS(pi/4) pulse leaves each qubit in one of two
    orthogonal branch states depending on the GHZ branch; the intermediate
    layer rotates that pair onto the z basis and adds the per-qubit phase
    that sets the inter-branch phase to N pi/2, which makes the coupler
    output land on the concatenated-GHZ coefficient lattice.  The final
    layer cancels the open Z layers of the coupler, rotates each block's
    branch pair onto the logical basis, and applies the per-qubit phase
    closing the residual logical phase.
    """
    N, m = cfg.N, cfg.m
    n = cfg.qubits
    # intermediate layer: branch rotation for nu = (-i)^n, then phase delta
    rot_a, a_plus, a_minus = _pair_rotation(n)
    delta = (Fraction(N + 1, 2) - n * (a_minus - a_plus)) / n % 2
    mid = [LocalGate(name, q) for q in range(n) for name in rot_a + ((f"P{delta}",) if delta else ())]
    # final layer: undo open Z layers (the toggle masks telescope, so block b < T
    # is left with parity popcount(b & (T-1)) = popcount(b)), rotate block pairs,
    # close logical phase
    fin = [LocalGate("Z", b * m + j) for b in range(N) if b.bit_count() & 1 for j in range(m)]
    rot_c, b_plus, b_minus = _pair_rotation(m)
    fin += [LocalGate(name, q) for q in range(n) for name in rot_c]
    phase = (Fraction(-1, 2) - m * (b_minus - b_plus)) % 2 / m % 2
    fin += [LocalGate(f"P{phase}", q) for q in range(n) if phase]
    return tuple(mid), tuple(fin)


def synthesize_preparation(cfg: BlockConfig):
    """Full preparation: MS(pi/4), correction layer, block coupler, final layer.

    Total MS phase is exactly pi/2; for power-of-two N the circuit has N+1
    MS pulses and N-1 Z layers.
    """
    mid, fin = correction_layers(cfg)
    coupler = synthesize_block_phase(cfg)
    gates = (MSGate(Fraction(1, 4)),) + mid + coupler.gates + fin
    return Circuit(n=cfg.qubits, gates=gates)


def simulate(circuit: Circuit, state=None):
    """Apply the circuit to a state vector (default |0...0>), gate by gate.

    Local gates are contracted on their qubit.  A run of consecutive MS gates
    and Z layers is applied in the X basis: H on every qubit where the run
    starts and again where it ends.  There ZLayer(G) is i^|G| (G counted with
    multiplicity) times the flip x -> x ^ mask(G), the XOR of the qubits' bits,
    and, as sum_{k<l} X_k X_l = ((sum_k X_k)^2 - n)/2, MS(xi) is the phase
    exp(i pi xi ((n - 2w)^2 - n)/2) on the popcount w of x, each angle reduced
    mod 2 exactly.
    """
    linalg.check_qubit_budget(circuit.n, what="circuit simulation")
    n = circuit.n
    if state is None:
        psi = np.zeros(2**n, dtype=complex)
        psi[0] = 1.0
    else:
        psi = np.asarray(state, dtype=complex).copy()
        if psi.shape != (2**n,):
            raise InputError(f"state has dimension {psi.shape}, circuit needs {2**n}")
    index = np.arange(2**n)
    weight = linalg.popcount(index, n)
    in_run = False
    for g in circuit.gates + (None,):  # None ends a trailing run
        steps = []
        if in_run != isinstance(g, (MSGate, ZLayer)):  # a run starts or ends
            in_run = not in_run
            steps = [("H", q) for q in range(n)]
        if isinstance(g, LocalGate):
            steps.append((g.name, g.qubit))
        for name, q in steps:
            t = np.tensordot(local_unitary(name), psi.reshape((2,) * n), axes=([1], [q]))
            psi = np.moveaxis(t, 0, q).reshape(-1)
        if isinstance(g, ZLayer):
            mask = 0
            for q in g.qubits:
                mask ^= 1 << (n - 1 - q)
            psi = (1, 1j, -1, -1j)[len(g.qubits) % 4] * psi[index ^ mask]
        elif isinstance(g, MSGate):
            angles = [float(g.xi * (((n - 2 * w) ** 2 - n) // 2) % 2) for w in range(n + 1)]
            psi *= np.exp(1j * math.pi * np.array(angles))[weight]
    return psi


def preparation_fidelity(cfg: BlockConfig, circuit=None):
    """|<cghz| circuit |0...0>| for the synthesized preparation."""
    if circuit is None:
        circuit = synthesize_preparation(cfg)
    psi = simulate(circuit)
    return float(abs(np.vdot(cghz(cfg), psi)))


def gate_counts(circuit: Circuit):
    """(ms_count, zlayer_count, total_ms_phase) with the phase an exact Fraction of pi."""
    ms = sum(1 for g in circuit.gates if isinstance(g, MSGate))
    zl = sum(1 for g in circuit.gates if isinstance(g, ZLayer))
    phase = sum((abs(g.xi) for g in circuit.gates if isinstance(g, MSGate)), Fraction(0))
    return ms, zl, phase


def export_circuit(circuit: Circuit):
    """Line-oriented text form, each distinct gate formatted once; parse_circuit inverts it bit-exactly."""
    lines = dict.fromkeys(circuit.gates)
    for g in lines:
        if isinstance(g, MSGate):
            lines[g] = f"MS {g.xi}"
        elif isinstance(g, ZLayer):
            lines[g] = "Z " + " ".join(map(str, g.qubits))
        else:
            lines[g] = f"L {g.name} {g.qubit}"
    return "\n".join([f"QUBITS {circuit.n}", *map(lines.__getitem__, circuit.gates)]) + "\n"


def parse_circuit(text):
    """Inverse of export_circuit; each distinct line is parsed once and its gate object shared."""
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    if not lines or not lines[0].startswith("QUBITS"):
        raise InputError("circuit text must start with a QUBITS header")
    try:
        kind, count = lines[0].split()  # exactly two tokens
        n = int(count)
    except ValueError as exc:
        raise InputError(f"bad header {lines[0]!r}") from exc
    if kind != "QUBITS":
        raise InputError(f"bad header {lines[0]!r}")
    gates, names = dict.fromkeys(lines[1:]), set()
    try:
        for ln in gates:  # first occurrences in line order, so the first bad line is reported
            parts = ln.split()
            kind = parts[0]
            if kind == "MS":
                if len(parts) != 2:
                    raise InputError(f"bad MS line {ln!r}")
                gates[ln] = MSGate(Fraction(parts[1]))
            elif kind == "Z":
                gates[ln] = ZLayer(tuple(map(int, parts[1:])))
            elif kind == "L":
                if len(parts) != 3:
                    raise InputError(f"bad L line {ln!r}")
                if parts[1] not in names:
                    local_unitary(parts[1])  # validate each distinct name once
                    names.add(parts[1])
                gates[ln] = LocalGate(parts[1], int(parts[2]))
            else:
                raise InputError(f"unknown gate line {ln!r}")
    except InputError:
        raise
    except (ValueError, ZeroDivisionError) as exc:  # int() or Fraction() of a malformed number
        raise InputError(f"bad number in line {ln!r}") from exc
    return Circuit(n=n, gates=tuple(map(gates.__getitem__, lines[1:])))
