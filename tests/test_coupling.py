import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritsim import cli
from qutritsim import coupling as cp
from qutritsim import circuits as cc
from qutritsim import decompositions as dc
from qutritsim import linalg as la
from qutritsim.verify import _random_circuit as random_circuit


def test_coupling_map_validation():
    with pytest.raises(ValueError):
        cp.CouplingMap(2, [(0, 0)])
    with pytest.raises(ValueError):
        cp.CouplingMap(2, [(0, 5)])
    m = cp.CouplingMap(3, [(0, 1), (1, 2)])
    assert m.has(0, 1) and not m.has(1, 0)
    assert m.neighbors(1) == {0, 2}


@pytest.mark.parametrize("n, edges", [(5.9, [(1, 0)]), (5.0, [(1, 0)]), (True, []),
                                      (5, [(1.7, 0)]), (5, [(1, 0.0)]), (5, [(True, 2)]),
                                      (5, [(1, "2")]), (None, [])])
def test_coupling_map_numbers_must_be_integers(n, edges):
    # int() built CouplingMap(5.9, [(1.7, 0.2), (True, 2)]) as a 5-qubit
    # map with edges (1, 0) and (1, 2)
    with pytest.raises(ValueError, match="must be an integer"):
        cp.CouplingMap(n, edges)


def test_numpy_integer_coupling_maps_hold_ints():
    want = cp.preset_map("ibmqx4")
    for dtype in (np.int64, np.int32, np.uint8):
        m = cp.CouplingMap(dtype(5), np.array(sorted(want.edges), dtype=dtype))
        assert m == want and hash(m) == hash(want)
        assert type(m.n_qubits) is int and all(type(q) is int for e in m.edges for q in e)
    assert cp.CouplingMap.from_json({"n_qubits": 5.0, "edges": [[1.0, 0]]}).n_qubits == 5


def test_presets():
    m5 = cp.preset_map("ibmqx4")
    assert m5.n_qubits == 5 and len(m5.edges) == 6
    m20 = cp.preset_map("tokyo")
    assert m20.n_qubits == 20
    assert all(m20.has(b, a) for a, b in m20.edges)  # bidirected
    m6 = cp.preset_map("tokyo-6q")
    assert m6.n_qubits == 6
    # the subregion stays connected
    seen = {0}
    frontier = [0]
    while frontier:
        q = frontier.pop()
        for nb in m6.neighbors(q):
            if nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    assert seen == set(range(6))
    with pytest.raises(ValueError):
        cp.preset_map("nope")


def test_reverse_cnot_exact():
    frag = cp.reverse_cnot(0, 1)
    assert sum(1 for g in frag if g.name == "cnot") == 1
    assert sum(1 for g in frag if g.name == "h") == 4
    u = cc.unitary_of(cc.Circuit(2, frag))
    want = cc.unitary_of(cc.Circuit(2, [("cnot", (), (0, 1))]))
    assert np.abs(u - want).max() < 1e-12
    # truth table: |10> -> |11>
    psi = np.zeros(4); psi[2] = 1
    out = cc.simulate_state(cc.Circuit(2, frag), psi)
    want_psi = np.zeros(4); want_psi[3] = 1
    assert np.abs(out - want_psi).max() < 1e-12


def test_route_legal_passthrough():
    m = cp.preset_map("ibmqx4")
    c = cc.Circuit(5, [("cnot", (), (1, 0))])
    r = cp.route_circuit(c, m)
    assert [g.name for g in r.gates] == ["cnot"]
    assert cp.validate(r, m) == []


def test_route_direction_flip():
    m = cp.preset_map("ibmqx4")
    c = cc.Circuit(2, [("cnot", (), (0, 1))])  # only (1,0) exists
    r = cp.route_circuit(c, m)
    assert len(r.gates) == 5
    u = cc.unitary_of(r)
    want = np.kron(cc.unitary_of(c), np.eye(8))
    assert np.abs(u - want).max() < 1e-12
    assert cp.validate(r, m) == []


def test_route_relay_through_common_neighbour():
    m = cp.preset_map("ibmqx4")
    # qubits 0 and 3 are not adjacent; 2 is a common neighbour
    c = cc.Circuit(4, [("cnot", (), (0, 3))])
    r = cp.route_circuit(c, m)
    assert cp.validate(r, m) == []
    u = cc.unitary_of(r)
    want = np.kron(cc.unitary_of(c), np.eye(2))
    assert np.abs(u - want).max() < 1e-12


def test_route_no_route():
    m = cp.CouplingMap(4, [(0, 1), (2, 3)])
    with pytest.raises(cp.RoutingError):
        cp.route_circuit(cc.Circuit(4, [("cnot", (), (0, 3))]), m)


def test_route_random_circuits_preserve_unitary():
    m = cp.preset_map("ibmqx4")
    rng = np.random.default_rng(23)
    for _ in range(200):
        c = random_circuit(rng, 4, int(rng.integers(1, 21)))
        r = cp.route_circuit(c, m)
        assert cp.validate(r, m) == []
        u = cc.unitary_of(r)
        want = np.kron(cc.unitary_of(c), np.eye(2))
        assert la.equal_up_to_global_phase(u, want, 1e-9)


def test_validate_reports_violation():
    m = cp.preset_map("ibmqx4")
    c = cc.Circuit(5, [("cnot", (), (0, 1))])
    v = cp.validate(c, m)
    assert len(v) == 1 and "cnot(0, 1)" in v[0]


def test_placement():
    m = cp.preset_map("ibmqx4")
    c = cc.Circuit(2, [("cnot", (), (0, 1))])
    r = cp.route_circuit(c, m, placement={0: 3, 1: 4})
    assert cp.validate(r, m) == []
    with pytest.raises(cp.RoutingError):
        cp.route_circuit(c, m, placement={0: 1, 1: 1})
    with pytest.raises(cp.RoutingError):
        cp.route_circuit(c, m, placement={0: -1, 1: 0})


def test_sequence_placement_is_the_equal_dict():
    # entry q of a list or tuple places wire q, as key q of a dict does
    m, c = cp.preset_map("ibmqx4"), dc.ls_channel_circuit()
    want = cp.route_circuit(c, m, {0: 4, 1: 0, 2: 1, 3: 2})
    assert len(want.gates) == 68 and cp.validate(want, m) == []
    for placement in ([4, 0, 1, 2], (4, 0, 1, 2)):
        assert cp.route_circuit(c, m, placement).gates == want.gates
    for bad, message in (([4, 0, 1], "cover every logical wire"),
                         ((4, 0, 1, 2, 3), "cover every logical wire"),
                         ([4, 0, 0, 2], "injective"),
                         ((4, 0, 1, 5), "outside the coupling map"),
                         ([4, 0, -1, 2], "outside the coupling map")):
        with pytest.raises(cp.RoutingError, match=message):
            cp.route_circuit(c, m, bad)
        with pytest.raises(cp.RoutingError, match=message):  # as the equal dict
            cp.route_circuit(c, m, dict(enumerate(bad)))


@pytest.mark.parametrize("bad", [[4.9, 0.2, 1.0, 2.7], [4.0, 0, 1, 2], [4, False, True, 2],
                                 [4, 0, 1, "2"], [4, 0, 1, None], [4, 0, 1, np.float64(2)]])
def test_placement_values_must_be_integers(bad):
    # int() read [4.9, 0.2, 1.0, 2.7] as [4, 0, 1, 2] and True as qubit 1
    m, c = cp.preset_map("ibmqx4"), dc.ls_channel_circuit()
    for placement in (bad, tuple(bad), dict(enumerate(bad))):
        with pytest.raises(cp.RoutingError, match="placement: a wire must be an integer"):
            cp.route_circuit(c, m, placement)


@pytest.mark.parametrize("bad", [{0.0: 4, True: 0, 2: 1, 3: 2}, {0: 4, 1: 0, 2.0: 1, 3: 2},
                                 {0: 4, 1: 0, 2: 1, 3.5: 2}, {0: 4, 1: 0, 2: 1, "3": 2},
                                 {0: 4, 1: 0, 2: 1, None: 2}])
def test_placement_keys_must_be_integers(bad):
    # the keys name logical wires: {0.0: 4, True: 0, 2: 1, 3: 2} used to
    # pass the cover check and route as {0: 4, 1: 0, 2: 1, 3: 2}
    m, c = cp.preset_map("ibmqx4"), dc.ls_channel_circuit()
    with pytest.raises(cp.RoutingError, match="placement: a wire must be an integer"):
        cp.route_circuit(c, m, bad)


def test_numpy_integer_placements_route_as_ints():
    m, c = cp.preset_map("ibmqx4"), dc.ls_channel_circuit()
    want = cp.route_circuit(c, m, [4, 0, 1, 2])
    for dtype in (np.int64, np.int32, np.uint8):
        placement = np.array([4, 0, 1, 2], dtype=dtype)
        wires = np.arange(4, dtype=dtype)
        for p in (placement, list(placement), dict(enumerate(placement)),
                  dict(zip(wires, placement))):
            got = cp.route_circuit(c, m, p)
            assert got.gates == want.gates
            assert all(type(q) is int for g in got.gates for q in g.qubits)


@st.composite
def placements(draw):
    """A random circuit of 2-4 wires, a valid placement of it on the 5
    qubits of ibmqx4 and a variant of that placement: the same, or short,
    long, repeated, negative, outside the map, with a float or bool entry,
    or a dict with an extra key.  Both come as a list, tuple, dict or numpy
    array (the extra key as a dict)."""
    n = draw(st.integers(2, 4))
    c = random_circuit(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), n,
                       draw(st.integers(0, 12)))
    valid = list(draw(st.permutations(range(5)))[:n])
    wires, j = list(valid), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["same", "short", "long", "repeated", "negative", "outside",
                                 "float", "bool", "extra key"]))
    if kind == "short":
        wires = wires[:-1]
    elif kind == "long":
        wires.append(draw(st.integers(0, 4)))
    elif kind not in ("same", "extra key"):
        wires[j] = {"repeated": wires[j - 1], "negative": -1 - j, "outside": 5 + j,
                    "float": draw(st.sampled_from([float(wires[j]), wires[j] + 0.5])),
                    "bool": draw(st.booleans())}[kind]
    form = draw(st.sampled_from([list, tuple, lambda w: dict(enumerate(w)), np.array]))
    if kind == "extra key":
        return c, form(valid), {**dict(enumerate(wires)), n + j: draw(st.integers(0, 4))}
    return c, form(valid), form(wires)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(placements())
def test_route_circuit_and_remapped_share_one_placement_rule(case):
    # route_circuit rejects exactly the placements remapped rejects
    # (circuits.placed_wires); where both accept, they agree on the unitary
    c, valid, variant = case
    m = cp.preset_map("ibmqx4")
    for placement in (valid, variant):
        try:
            routed = cp.route_circuit(c, m, placement)
        except cp.RoutingError:
            routed = None
        try:
            ref = c.remapped(placement, m.n_qubits)
        except ValueError:
            ref = None
        assert (routed is None) == (ref is None), placement
        assert routed is not None or placement is not valid
        if routed is not None:
            assert cp.validate(routed, m) == []
            assert la.equal_up_to_global_phase(cc.unitary_of(routed), cc.unitary_of(ref), 1e-9)


def test_map_json_roundtrip(tmp_path):
    m = cp.preset_map("ibmqx4")
    p = tmp_path / "map.json"
    p.write_text(__import__("json").dumps(m.to_json()))
    back = cli._load_coupling(str(p))
    assert back.edges == m.edges and back.n_qubits == m.n_qubits


def test_equal_maps_share_legalizations_and_outputs_stay_apart(tmp_path):
    preset = cp.preset_map("ibmqx4")
    path = tmp_path / "map.json"
    path.write_text(json.dumps(preset.to_json()))
    loaded = cli._load_coupling(str(path))
    assert loaded is not preset and loaded == preset
    c = dc.ls_channel_circuit()
    placement = {0: 2, 1: 1, 2: 3, 3: 0}
    a = cp.route_circuit(c, preset, placement)
    b = cp.route_circuit(c, loaded, placement)
    assert a.gates == b.gates and a.gates is not b.gates
    assert cp.validate(b, loaded) == []
    # one memoized fragment per edge, whichever of the equal maps asks
    relay = cp._legal_cnot(0, 3, preset)
    assert cp._legal_cnot(0, 3, loaded) is relay and isinstance(relay, tuple)
    relay_gates, b_gates = list(relay), list(b.gates)
    a.gates.append(cc.Gate("h", (), (0,)))
    a.gates[0] = cc.Gate("z", (), (4,))
    assert b.gates == b_gates
    assert list(cp._legal_cnot(0, 3, preset)) == relay_gates
    assert cp.route_circuit(c, preset, placement).gates == b_gates
