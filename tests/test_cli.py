import csv
import itertools
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qutritsim import channels as ch
from qutritsim import choi as cj
from qutritsim import circuits as cc
from qutritsim import cli
from qutritsim import coupling as cp
from qutritsim import decompositions as dc
from qutritsim import encoding as enc
from qutritsim import linalg as la
from qutritsim import tomography as tg

from test_tomography import _noise, _property


def run(args):
    return cli.main(args)


def test_apply_analytic_wh(tmp_path):
    assert run(["apply", "--channel", "wh", "--method", "analytic",
                "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "apply_wh_analytic.json").read_text())
    assert len(obj["outputs"]) == 9
    first = la.matrix_from_json(obj["outputs"][0]["matrix"])
    assert np.abs(first - np.diag([0.0, 0.5, 0.5])).max() < 1e-12


def test_apply_identity_circuit_exact(tmp_path):
    assert run(["apply", "--channel", "id", "--method", "circuit",
                "--shots", "0", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "apply_id_circuit.json").read_text())
    from qutritsim import decompositions as dc
    for rec in obj["outputs"]:
        i = rec["input"]
        got = la.matrix_from_json(rec["matrix"])
        assert np.abs(got - dc.basis_density(i)).max() < 1e-9
        assert abs(rec["leakage"]) < 1e-10


def test_apply_ls_circuit_matches_analytic(tmp_path):
    assert run(["apply", "--channel", "ls", "--method", "circuit",
                "--shots", "0", "--noise", "zero", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "apply_ls_circuit.json").read_text())
    from qutritsim import decompositions as dc
    for rec in obj["outputs"]:
        got = la.matrix_from_json(rec["matrix"])
        want = ch.ls_apply(dc.basis_density(rec["input"]))
        assert np.abs(got - want).max() < 1e-9


def test_choi_analytic_eigenvalues(tmp_path):
    assert run(["choi", "--channel", "wh", "--choi-method", "analytic",
                "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "choi_wh_analytic.json").read_text())
    w = obj["eigenvalues"]
    assert np.abs(np.array(w[:3]) - 1 / 3).max() < 1e-9
    assert np.abs(np.array(w[3:])).max() < 1e-9
    assert abs(obj["fidelity_vs_analytic"] - 1) < 1e-12


def test_choi_linear_exact_mode(tmp_path):
    assert run(["choi", "--channel", "wh", "--choi-method", "linear",
                "--shots", "0", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "choi_wh_linear.json").read_text())
    assert abs(obj["fidelity_vs_analytic"] - 1) < 1e-9


def test_choi_direct_sampled_and_sweep(tmp_path):
    assert run(["choi", "--channel", "ls", "--choi-method", "direct",
                "--shots", "200000", "--noise", "zero", "--seed", "7",
                "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "choi_ls_direct.json").read_text())
    assert obj["fidelity_vs_analytic"] >= 0.99
    assert run(["sweep", "--channel", "ls",
                "--choi-file", str(tmp_path / "choi_ls_direct.json"),
                "--grid", "11", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep_ls.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 36 + 1  # header, pairs, summary
    body = [r.split(",") for r in rows[1:-1]]
    assert all(float(r[4]) >= 0.99 for r in body)


def test_sweep_analytic_choi_all_ones(tmp_path):
    assert run(["choi", "--channel", "wh", "--choi-method", "analytic",
                "--out", str(tmp_path)]) == 0
    assert run(["sweep", "--channel", "wh",
                "--choi-file", str(tmp_path / "choi_wh_analytic.json"),
                "--grid", "5", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep_wh.csv").read_text().strip().splitlines()
    for r in rows[1:]:
        parts = r.split(",")
        assert float(parts[2]) > 1 - 1e-9 and float(parts[4]) > 1 - 1e-9


def test_exit_codes(tmp_path):
    assert run(["apply", "--channel", "wh", "--method", "analytic",
                "--config", str(tmp_path / "missing.json")]) == cli.EXIT_CONFIG
    # routing error: coupling map that cannot host the circuit
    bad = tmp_path / "bad_map.json"
    bad.write_text(json.dumps(cp.CouplingMap(4, [(0, 1), (2, 3)]).to_json()))
    assert run(["apply", "--channel", "ls", "--method", "circuit", "--shots", "0",
                "--coupling", str(bad), "--out", str(tmp_path)]) == cli.EXIT_ROUTING


def test_routing_error_names_circuit_map_and_qubit(tmp_path, capsys):
    # the 6-wire direct circuit on the 5-qubit map, default placement
    assert run(["choi", "--channel", "ls", "--choi-method", "direct", "--shots", "0",
                "--coupling", "ibmqx4", "--out", str(tmp_path)]) == cli.EXIT_ROUTING
    err = capsys.readouterr().err
    assert err.startswith("routing error: placement outside the coupling map")
    assert "6-wire circuit" in err and "physical qubit 5" in err
    assert "map has 5 qubits" in err and "no placement fits" in err


VERIFY_NAMES = [
    "spin1_dilation_unitary", "spin1_dilation_channel", "covariance_identity",
    "coefficient_table_rederivation", "w_tilde_decomposition", "quasi_toffoli_circuits",
    "cnot_reversal", "permutation_factorization_pattern", "circuit_induced_channels",
    "choi_two_route_agreement", "choi_roundtrip", "spin1_kraus_rank",
    "routing_preserves_semantics",
]


def test_verify_passes(capsys):
    assert run(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines[:-1]] == [f"[PASS] {n}" for n in VERIFY_NAMES]
    assert "[PASS] spin1_kraus_rank: rank 3" in lines
    assert lines[-1] == "13/13 invariants passed"


@pytest.mark.parametrize("command", ["apply", "choi", "sweep"])
def test_unwritable_out_path_is_a_config_error(tmp_path, capsys, command):
    args = [command, "--channel", "ls"]
    if command == "sweep":
        assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
        args += ["--choi-file", str(tmp_path / "choi_ls_analytic.json")]
    afile = tmp_path / "afile"
    afile.write_text("")
    for out in (afile, afile / "sub"):  # an existing file, a path under a file
        capsys.readouterr()
        assert run(args + ["--out", str(out)]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
    assert afile.read_text() == ""


_IBMQX4_EDGES = "[[1, 0], [2, 0], [2, 1], [3, 2], [3, 4], [4, 2]]"


@pytest.mark.parametrize("text", [
    '{"n_qubits": 5, "edges": 5}', "[1, 2]",
    '{"n_qubits": null, "edges": []}', '{"n_qubits": 5, "edges": [null]}',
    # numbers that are not JSON integers are rejected, never truncated
    f'{{"n_qubits": 5.9, "edges": {_IBMQX4_EDGES}}}',
    f'{{"n_qubits": "5", "edges": {_IBMQX4_EDGES}}}',
    '{"n_qubits": true, "edges": []}',
    f'{{"n_qubits": 1e999, "edges": {_IBMQX4_EDGES}}}',
    '{"n_qubits": 5, "edges": [[1.7, 0.2], [2, 0], [2, 1], [3, 2], [3, 4], [4, 2]]}',
    '{"n_qubits": 5, "edges": [["1", 0], [2, 0], [2, 1], [3, 2], [3, 4], [4, 2]]}',
    '{"n_qubits": 5, "edges": [[true, 0], [2, 0], [2, 1], [3, 2], [3, 4], [4, 2]]}',
    # only the two keys: an unknown key is an error, as in noise files
    '{"n_qubits": 5, "edges": [[1, 0]], "x": 1}',
])
def test_malformed_coupling_json_is_a_config_error(tmp_path, capsys, text):
    bad = tmp_path / "coupling.json"
    bad.write_text(text)
    assert run(["verify", "--coupling", str(bad)]) == cli.EXIT_CONFIG
    assert run(["apply", "--channel", "ls", "--method", "circuit", "--shots", "0",
                "--coupling", str(bad), "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "bad coupling spec" in capsys.readouterr().err


def test_verify_fault_injection(tmp_path, capsys):
    # corrupted coupling map: routing suite must fail by name, exit code 1
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps({"n_qubits": 4, "edges": [[0, 1]]}))
    assert run(["verify", "--coupling", str(bad)]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[FAIL] routing_preserves_semantics" in out


def test_verify_large_coupling_fails_without_allocating(capsys):
    # tokyo routes onto 20 qubits: the routing check must report the register
    # size instead of building a 2^20-dimensional reference unitary
    assert run(["verify", "--coupling", "tokyo"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "[FAIL] routing_preserves_semantics: 20-qubit routed register" in out


def test_outputs_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["apply", "--channel", "wh", "--method", "circuit",
                    "--shots", "256", "--seed", "5", "--out", str(out)]) == 0
    assert (a / "apply_wh_circuit.json").read_bytes() == \
        (b / "apply_wh_circuit.json").read_bytes()


def test_apply_with_coupling_preset(tmp_path):
    # circuit method routed onto the bundled 5-qubit map, exact mode
    assert run(["apply", "--channel", "wh", "--method", "circuit", "--shots", "0",
                "--coupling", "ibmqx4", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "apply_wh_circuit.json").read_text())
    from qutritsim import decompositions as dc
    for rec in obj["outputs"]:
        got = la.matrix_from_json(rec["matrix"])
        want = ch.wh_apply(dc.basis_density(rec["input"]))
        assert np.abs(got - want).max() < 1e-9
        assert abs(rec["leakage"]) < 1e-9


def test_choi_direct_with_coupling_preset(tmp_path):
    assert run(["choi", "--channel", "wh", "--choi-method", "direct",
                "--shots", "0", "--coupling", "tokyo-6q",
                "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "choi_wh_direct.json").read_text())
    assert abs(obj["fidelity_vs_analytic"] - 1) < 1e-8


def test_consolidated_config(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "channel": "wh", "method": "analytic", "out": str(tmp_path)}))
    assert run(["apply", "--config", str(cfgfile)]) == 0
    assert (tmp_path / "apply_wh_analytic.json").exists()


def _run_config(tmp_path, capsys, obj, *extra):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(obj))
    code = run(["choi", "--config", str(cfgfile), "--out", str(tmp_path), *extra])
    return code, capsys.readouterr().err


def test_config_shots_not_integer_is_config_error(tmp_path, capsys):
    for bad in ("x", "5"):  # a string holding an integer is still a string
        code, err = _run_config(tmp_path, capsys, {"shots": bad})
        assert code == cli.EXIT_CONFIG and "config error:" in err


def test_config_seed_not_integer_is_config_error(tmp_path, capsys):
    for bad in ("x", "5"):
        code, err = _run_config(tmp_path, capsys, {"seed": bad})
        assert code == cli.EXIT_CONFIG and "config error:" in err


def test_seed_negative_is_config_error_and_large_seeds_unmasked(tmp_path, capsys):
    args = ["choi", "--choi-method", "direct", "--shots", "1000"]
    assert run(args + ["--seed", "-1", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not any(tmp_path.glob("choi_*"))
    # seeds equal modulo 2^63 draw different streams
    files = []
    for seed in (5, 2 ** 63 + 5, 2 ** 63 - 1, 2 ** 64 - 1):
        out = tmp_path / str(seed)
        assert run(args + ["--seed", str(seed), "--out", str(out)]) == 0
        files.append((out / "choi_ls_direct.json").read_text())
    assert len(set(files)) == len(files)


def test_shots_above_int64_is_config_error(tmp_path, capsys):
    # counts are int64, so 2^63 shots cannot be sampled
    for method in ("direct", "linear"):
        args = ["choi", "--choi-method", method, "--out", str(tmp_path)]
        assert run(args + ["--shots", str(2 ** 63)]) == cli.EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err
    code, err = _run_config(tmp_path, capsys, {"choi_method": "direct", "shots": 2 ** 64})
    assert code == cli.EXIT_CONFIG and "config error:" in err
    assert not any(tmp_path.glob("choi_*"))
    # the largest int64 is still a valid shot count
    out = tmp_path / "max"
    assert run(["choi", "--choi-method", "direct", "--shots", str(cc.MAX_SHOTS),
                "--out", str(out)]) == 0
    assert json.loads((out / "choi_ls_direct.json").read_text())["fidelity_vs_analytic"] > 0.999


def test_sweep_grid_below_two_is_config_error(tmp_path, capsys):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
    code = run(["sweep", "--channel", "ls", "--grid", "1",
                "--choi-file", str(tmp_path / "choi_ls_analytic.json"),
                "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [tg.MAX_SWEEP_GRID + 1, 10 ** 12])
def test_sweep_grid_above_budget_is_config_error(tmp_path, capsys, grid):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    code = run(["sweep", "--channel", "ls", "--grid", str(grid),
                "--choi-file", str(tmp_path / "choi_ls_analytic.json"),
                "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep_ls.csv").exists()


def test_sweep_choi_file_not_nine_by_nine_is_config_error(tmp_path, capsys):
    path = tmp_path / "choi4.json"
    path.write_text(json.dumps({"channel": "ls", "ordering": "input_output",
                                **la.matrix_to_json(np.eye(4) / 4)}))
    code = run(["sweep", "--channel", "ls", "--choi-file", str(path),
                "--grid", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep_ls.csv").exists()


@pytest.mark.parametrize("omega", [
    np.zeros((9, 9)),                        # trace zero
    2 * np.eye(9) / 9,                       # trace two
    np.eye(9) / 9 + 0.01 * np.triu(np.ones((9, 9)), 1),  # not Hermitian
    np.diag([0.2] * 5 + [0.1] * 3 + [-0.1]),  # trace one, an eigenvalue -0.1
])
def test_sweep_rejects_choi_file_that_is_not_a_state(tmp_path, capsys, omega):
    path = tmp_path / "choi.json"
    path.write_text(json.dumps({"channel": "ls", **la.matrix_to_json(omega)}))
    code = run(["sweep", "--channel", "ls", "--choi-file", str(path),
                "--grid", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bad choi file:")
    assert not (tmp_path / "sweep_ls.csv").exists()


def _entry(part, value):
    """Edit of the analytic ls Choi JSON with its first `part` entry set to value."""
    def edit(obj):
        obj[part][0][0] = value
    return edit


def _all_re_strings(obj):
    obj["re"] = [[str(x) for x in row] for row in obj["re"]]


@pytest.mark.parametrize("edit", [
    lambda obj: obj.update(rows=9.7),
    lambda obj: obj.update(rows=True),
    lambda obj: obj.update(rows="9"),
    lambda obj: obj.update(cols=9.7),
    lambda obj: obj.update(cols=True),
    lambda obj: obj.update(cols="9"),
    _entry("re", True),
    _entry("re", "0.1"),
    _entry("im", False),
    _entry("im", "0"),
    _all_re_strings,
])
def test_sweep_rejects_choi_file_with_non_number_fields(tmp_path, capsys, edit):
    obj = {"channel": "ls", **la.matrix_to_json(cj.named_choi("ls"))}
    edit(obj)
    path = tmp_path / "choi.json"
    path.write_text(json.dumps(obj))
    code = run(["sweep", "--channel", "ls", "--choi-file", str(path),
                "--grid", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bad choi file:")
    assert not (tmp_path / "sweep_ls.csv").exists()


def test_written_json_is_one_json_dumps_of_the_object(tmp_path):
    assert run(["choi", "--channel", "wh", "--choi-method", "linear", "--shots", "100",
                "--out", str(tmp_path)]) == 0
    text = (tmp_path / "choi_wh_linear.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False)
    obj = {"b": [1.5, -0.0, 1e-300, None], "a": {"z": "ls", "y": True}, "c": 0}
    path = cli._write_json({"out": str(tmp_path)}, "x.json", obj)
    with open(path) as f:
        assert f.read() == '{"a": {"y": true, "z": "ls"}, "b": [1.5, -0.0, 1e-300, null], "c": 0}'


_entries = st.lists(st.floats(-1, 1), min_size=81, max_size=81)


@_property
@given(re=_entries, im=_entries, bad=st.sampled_from([np.nan, np.inf, -np.inf]),
       part=st.sampled_from(["re", "im"]), i=st.integers(0, 8), j=st.integers(0, 8))
def test_written_choi_state_reads_back_bit_identical_and_non_finite_is_refused(
        tmp_path_factory, re, im, bad, part, i, j):
    a = np.reshape(re, (9, 9)) + 1j * np.reshape(im, (9, 9))
    rho = a @ la.dagger(a) + np.eye(9)
    rho /= np.trace(rho).real
    out = tmp_path_factory.mktemp("json")
    obj = cj.choi_to_json(rho)
    with open(cli._write_json({"out": str(out)}, "choi.json", obj)) as f:
        loaded = json.load(f)
    assert repr(loaded["re"]) == repr(obj["re"]) and repr(loaded["im"]) == repr(obj["im"])
    back = cj.choi_from_json(loaded)
    assert np.array_equal(back.real, rho.real) and np.array_equal(back.imag, rho.imag)
    obj[part][i][j] = bad
    with pytest.raises(cli.ConfigError, match="not JSON compliant"):
        cli._write_json({"out": str(out)}, "bad.json", obj)
    assert not (out / "bad.json").exists()


@pytest.mark.parametrize("method", ["analytic", "linear", "direct"])
def test_choi_eigenvalues_and_leakages_come_from_the_one_estimate(tmp_path, monkeypatch,
                                                                  method):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p1": 0.004, "p2": 0.04, "gamma": 0.004, "readout_flip": 0.02}))
    calls, estimate = [], cj.estimate
    monkeypatch.setattr(cj, "estimate", lambda *args: calls.append(args) or estimate(*args))
    for k, (name, shots, nz) in enumerate(itertools.product(
            ("ls", "wh"), ("0", "8192"), ("zero", str(noise)))):
        out = tmp_path / str(k)
        calls.clear()
        assert run(["choi", "--choi-method", method, "--channel", name, "--shots", shots,
                    "--noise", nz, "--seed", "5", "--out", str(out)]) == 0
        obj = json.loads((out / f"choi_{name}_{method}.json").read_text())
        omega = cj.choi_from_json(obj)
        w = np.array(obj["eigenvalues"])
        assert np.all(np.diff(w) <= 0) and abs(w.sum() - 1) < 1e-12
        assert np.abs(w - np.linalg.eigvalsh(omega)[::-1]).max() < 1e-12
        assert len(calls) == (method != "analytic")
        want = [] if method == "analytic" else estimate(*calls[0])[1]
        assert obj["leakages"] == want and len(want) == {"analytic": 0, "linear": 9,
                                                         "direct": 1}[method]
        assert all(0 <= x <= 1 for x in want)


@pytest.mark.parametrize("noise", [{"p1": True}, {"p2": "0.1"}])
def test_noise_file_value_not_a_real_number_is_config_error(tmp_path, capsys, noise):
    path = tmp_path / "noise.json"
    path.write_text(json.dumps(noise))
    code = run(["choi", "--channel", "ls", "--choi-method", "direct", "--shots", "0",
                "--noise", str(path), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bad noise spec")
    assert not (tmp_path / "choi_ls_direct.json").exists()


def _sweep_choi_files(tmp_path):
    """An analytic, a sampled linear and a noisy direct Choi file, all wh."""
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p2": 0.05, "readout_flip": 0.01}))
    runs = {"analytic": [], "linear": ["--shots", "8192", "--seed", "3"],
            "direct": ["--shots", "100000", "--seed", "3", "--noise", str(noise)]}
    for method, args in runs.items():
        assert run(["choi", "--channel", "wh", "--choi-method", method, *args,
                    "--out", str(tmp_path)]) == 0
    return [tmp_path / f"choi_wh_{method}.json" for method in runs]


def test_sweep_rows_equal_the_library_per_pair(tmp_path, monkeypatch):
    # at grid 2000 the 36 pairs hold 72000 points, over MAX_SWEEP_GRID: two stacks
    stacks = []
    score = tg._score_segments
    monkeypatch.setattr(tg, "_score_segments", lambda *args: stacks.append(args) or score(*args))
    for path in _sweep_choi_files(tmp_path):
        omega = cj.choi_from_json(json.loads(path.read_text()))
        for grid in (2, 3, 101, 2000):
            stacks.clear()
            assert run(["sweep", "--channel", "wh", "--choi-file", str(path),
                        "--grid", str(grid), "--out", str(tmp_path)]) == 0
            assert len(stacks) == -(-36 // (tg.MAX_SWEEP_GRID // grid))
            assert all(len(args[0]) * grid <= tg.MAX_SWEEP_GRID for args in stacks)
            with open(tmp_path / "sweep_wh.csv", newline="") as f:
                rows = list(csv.reader(f))
            want = [[str(a), str(b)] + [f"{x:.10f}" for x in tg.channel_fidelity_sweep(
                omega, ch.wh_apply, a, b, grid)]
                for a, b in itertools.combinations(range(1, 10), 2)]
            assert rows[1:37] == want, (path.name, grid)


def test_noise_file_huge_integer_is_config_error(tmp_path, capsys):
    # float() of a 401-digit int raised OverflowError: a traceback and exit 1
    path = tmp_path / "noise.json"
    path.write_text('{"p1": 1' + "0" * 400 + "}")
    code = run(["choi", "--noise", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG and err.count("\n") == 1
    assert err.startswith("config error: bad noise spec") and "p1 must be in [0, 1]" in err
    assert not (tmp_path / "choi_ls_analytic.json").exists()


def test_choi_file_huge_integer_is_config_error(tmp_path, capsys):
    # float() of a 401-digit int raised OverflowError: a traceback and exit 1
    obj = json.loads(open(_analytic_choi_file(tmp_path)).read())
    obj["re"][0][0] = 10 ** 400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    code = run(["sweep", "--grid", "3", "--choi-file", str(path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG and err.count("\n") == 1
    assert err.startswith("config error: bad choi file") and "entries must be finite" in err
    assert not (tmp_path / "sweep_ls.csv").exists()


def _clear_caches():
    for cached in (cli._outcome_table, cc._gate_superop, cj._analytic_spectrum,
                   dc._basis_states, cc._gate_matrix, cc._real_matrix, cc._front, cc._slabs,
                   cc._move, cp._legal_cnot, tg._lambda_grid):
        cached.cache_clear()


def test_cold_and_warm_caches_write_identical_files(tmp_path):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p1": 0.005, "p2": 0.05, "gamma": 0.01, "readout_flip": 0.02}))
    runs = []
    for shots, nz in itertools.product(("0", "100000"), ("zero", str(noise))):
        common = ["--shots", shots, "--noise", nz, "--seed", "3"]
        for name, method in itertools.product(("ls", "wh"), ("linear", "direct")):
            runs.append(["choi", "--channel", name, "--choi-method", method, *common])
        runs.append(["apply", "--channel", "ls", "--method", "circuit",
                     "--coupling", "ibmqx4", *common])
    assert run(["choi", "--channel", "wh", "--choi-method", "direct", "--shots", "100000",
                "--noise", str(noise), "--seed", "3", "--out", str(tmp_path / "in")]) == 0
    runs.append(["sweep", "--channel", "wh", "--grid", "11",
                 "--choi-file", str(tmp_path / "in" / "choi_wh_direct.json")])
    for k, args in enumerate(runs):
        _clear_caches()
        for state in ("cold", "warm"):
            assert run(args + ["--out", str(tmp_path / state / str(k))]) == 0
        (cold,), (warm,) = ((tmp_path / state / str(k)).iterdir() for state in ("cold", "warm"))
        assert cold.name == warm.name and cold.read_bytes() == warm.read_bytes(), args


def _count_simulations(monkeypatch):
    """Count simulate_state and simulate_density calls at their use site,
    tomography.measured_states."""
    calls = []
    for name in ("simulate_state", "simulate_density"):
        def counted(*args, _fn=getattr(tg, name), **kwargs):
            calls.append(_fn)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tg, name, counted)
    return calls


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("method", ["linear", "direct"])
def test_repeated_configuration_simulates_nothing(tmp_path, monkeypatch, method, noisy):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p1": 0.003, "p2": 0.03, "gamma": 0.003, "readout_flip": 0.01}))
    args = ["choi", "--channel", "wh", "--choi-method", method, "--shots", "1000",
            "--noise", str(noise) if noisy else "zero", "--out", str(tmp_path)]
    cli._outcome_table.cache_clear()
    calls = _count_simulations(monkeypatch)
    assert run(args + ["--seed", "1"]) == 0
    assert calls  # the cold item simulated its configuration
    calls.clear()
    for seed in ("2", "3"):
        assert run(args + ["--seed", seed]) == 0
    assert calls == []
    # apply --method circuit reads the linear table
    assert run(["apply", "--channel", "wh", "--method", "circuit"] + args[5:]) == 0
    assert (calls == []) == (method == "linear")


@pytest.mark.parametrize("noise, simulator", [
    (None, cc.simulate_state),
    ({"readout_flip": 0.03}, cc.simulate_state),
    ({"p1": 0.003, "p2": 0.03, "gamma": 0.003, "readout_flip": 0.01}, cc.simulate_density),
], ids=["zero", "readout_only", "gate"])
@pytest.mark.parametrize("method", ["linear", "direct"])
def test_cold_item_runs_state_vectors_unless_a_gate_is_noisy(tmp_path, monkeypatch, method,
                                                             noise, simulator):
    # readout error never touches the state, so only gate noise runs densities
    spec = "zero"
    if noise is not None:
        spec = tmp_path / "noise.json"
        spec.write_text(json.dumps(noise))
    cli._outcome_table.cache_clear()
    calls = _count_simulations(monkeypatch)
    assert run(["choi", "--channel", "wh", "--choi-method", method, "--shots", "1000",
                "--noise", str(spec), "--out", str(tmp_path)]) == 0
    assert calls and set(calls) == {simulator}


def _density_route_table(circuit, preps, measure, noise):
    """The exact table through the noiseless density route: U rho U+ of each
    prep and then of the circuit on |0...0><0...0|, the partial trace onto
    the measured wires, then outcome_tables."""
    n = circuit.n_qubits
    rho0 = np.zeros((2 ** n, 2 ** n), dtype=complex)
    rho0[0, 0] = 1.0

    def evolve(c, rho):
        u = cc.unitary_of(c)
        return u @ rho @ u.conj().T

    inputs = np.stack([rho0 if p is None else evolve(p, rho0) for p in preps])
    return tg.outcome_tables(la.partial_trace(evolve(circuit, inputs), [2] * n, measure), noise)


@pytest.mark.parametrize("name", ["ls", "wh"])
def test_readout_only_table_equals_density_route(name):
    noise = cc.NoiseConfig(readout_flip=0.03)
    circuit = cli._CHANNEL_CIRCUITS[name]()
    preps = [dc.prep_basis_circuit(i).remapped([2, 3], 4) for i in range(1, 10)]
    for got, c, p, measure in (
            (cj.linear_tables(circuit, noise), circuit, preps, (2, 3)),
            (cj.direct_tables(circuit, noise), cj.choi_direct_circuit(circuit), [None],
             (0, 1, 2, 3))):
        want = _density_route_table(c, p, measure, noise)
        assert got.shape == want.shape and np.abs(got - want).max() < 2e-15


def test_cached_outcome_table_is_read_only():
    for method, shape in (("linear", (9, 9, 4)), ("direct", (1, 81, 16))):
        table = cli._outcome_table("ls", method, None, cc.NoiseConfig(p2=0.02))
        assert table.shape == shape and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1.0
        assert table is cli._outcome_table("ls", method, None, cc.NoiseConfig(p2=0.02))


def test_exact_linear_includes_readout_error(tmp_path):
    # exact mode is the infinite-shot limit: readout flips lower the fidelity
    path = tmp_path / "noise.json"
    path.write_text(json.dumps({"readout_flip": 0.05}))
    assert run(["choi", "--channel", "ls", "--choi-method", "linear", "--shots", "0",
                "--noise", str(path), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "choi_ls_linear.json").read_text())
    assert obj["fidelity_vs_analytic"] < 1 - 1e-3
    noise = cc.NoiseConfig(readout_flip=0.05)
    results = _ref_outputs(_ref_circuit_tables("ls", None, 0, 0, noise), "linear")
    want = la.project_to_density(cj.choi_linear([rho3 for rho3, _ in results]))
    assert np.abs(cj.choi_from_json(obj) - want).max() < 1e-12


def _readout_leakages(f):
    """Exact leakage of the nine basis inputs through the identity channel
    when each measured bit flips with probability f: |11> is reached
    from |00> by two flips, from |01> or |10> by one, and a superposition
    of two such basis states averages their leakages."""
    one, two = f * (1 - f), f * f
    return [two, one, one, f / 2, f / 2, one, f / 2, f / 2, one]


@pytest.mark.parametrize("f", [0.01, 0.1, 0.3])
def test_exact_readout_leakage_is_closed_form(tmp_path, f):
    # readout error is applied exactly once: twice is one flip of 2 f (1 - f),
    # so input 1 would leak (2 f (1 - f))^2, 0.0324 at f = 0.1
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"readout_flip": f}))
    assert run(["apply", "--method", "circuit", "--channel", "id", "--shots", "0",
                "--noise", str(noise), "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / "apply_id_circuit.json").read_text())
    got = [o["leakage"] for o in obj["outputs"]]
    assert np.abs(np.array(got) - _readout_leakages(f)).max() < 1e-12


@pytest.mark.parametrize("args", [
    ["apply", "--method", "circuit"],
    ["choi", "--choi-method", "linear"],
])
def test_no_weight_in_qutrit_subspace_is_config_error(tmp_path, capsys, args):
    # every readout bit flipped: input |00> reconstructs as |11> exactly
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"readout_flip": 1.0}))
    code = run(args + ["--channel", "id", "--shots", "0", "--noise", str(noise),
                       "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("config error: no weight left in the qutrit subspace")
    assert err.count("\n") == 1
    assert not any(tmp_path.glob("apply_*")) and not any(tmp_path.glob("choi_*"))


def test_config_grid_not_integer_is_config_error(tmp_path, capsys):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cfgfile = tmp_path / "cfg.json"
    for bad in ("x", "5"):
        cfgfile.write_text(json.dumps({"grid": bad}))
        code = run(["sweep", "--config", str(cfgfile), "--channel", "ls",
                    "--choi-file", str(tmp_path / "choi_ls_analytic.json"),
                    "--out", str(tmp_path)])
        assert code == cli.EXIT_CONFIG
        assert "config error:" in capsys.readouterr().err


def test_config_unknown_key_is_config_error(tmp_path, capsys):
    code, err = _run_config(tmp_path, capsys, {"chanel": "wh"})
    assert code == cli.EXIT_CONFIG and "chanel" in err
    assert not (tmp_path / "choi_ls_analytic.json").exists()


def test_sweep_rejects_choi_file_of_other_channel(tmp_path, capsys):
    assert run(["choi", "--channel", "wh", "--out", str(tmp_path)]) == 0
    code = run(["sweep", "--channel", "ls",
                "--choi-file", str(tmp_path / "choi_wh_analytic.json"),
                "--grid", "3", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "sweep_ls.csv").exists()


def _run_process(args, stdin="", pass_fds=(), module="qutritsim.cli"):
    """Run the CLI (python -m module) in a child process, whose file
    descriptors a test may feed or close without touching the test
    runner's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", module, *args],
                          input=stdin, capture_output=True, text=True,
                          env=env, pass_fds=pass_fds, timeout=120)


def test_python_m_qutritsim_runs_the_cli(tmp_path):
    proc = _run_process(["choi", "--channel", "ls", "--choi-method", "analytic",
                         "--out", str(tmp_path)], module="qutritsim")
    assert proc.returncode == 0, proc.stderr
    obj = json.loads((tmp_path / "choi_ls_analytic.json").read_text())
    assert np.array_equal(cj.choi_from_json(obj), cj.named_choi("ls"))


@pytest.mark.parametrize("key, stdin", [
    ("noise", json.dumps({"p1": 0.01})),
    ("coupling", json.dumps(cp.preset_map("ibmqx4").to_json())),
])
def test_config_integer_path_does_not_read_stdin(tmp_path, key, stdin):
    # open(0) would read a valid spec from stdin, then close descriptor 0
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({key: 0}))
    proc = _run_process(["choi", "--config", str(cfgfile), "--out", str(tmp_path)],
                        stdin=stdin)
    assert proc.returncode == cli.EXIT_CONFIG
    assert "config error:" in proc.stderr
    assert not (tmp_path / "choi_ls_analytic.json").exists()


def test_config_integer_choi_file_is_config_error(tmp_path):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
    cfgfile = tmp_path / "cfg.json"
    with open(tmp_path / "choi_ls_analytic.json") as f:
        cfgfile.write_text(json.dumps({"choi_file": f.fileno()}))
        proc = _run_process(["sweep", "--channel", "ls", "--grid", "3", "--config",
                             str(cfgfile), "--out", str(tmp_path)],
                            pass_fds=(f.fileno(),))
    assert proc.returncode == cli.EXIT_CONFIG
    assert "config error:" in proc.stderr
    assert not (tmp_path / "sweep_ls.csv").exists()


@pytest.mark.parametrize("out", [0, None])
def test_config_out_not_a_string_is_config_error(tmp_path, capsys, out):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"out": out}))
    assert run(["choi", "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["apply", "choi"])
def test_config_out_with_nul_byte_is_config_error(tmp_path, capsys, command):
    # os.makedirs raises ValueError, not OSError, for an embedded NUL
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"out": str(tmp_path / "a") + "\u0000b"}))
    assert run([command, "--config", str(cfgfile)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert os.listdir(tmp_path) == ["cfg.json"]


# --- one reader for the four input files, within a memory budget ----------
# each argv reads its input file before any experiment runs; every subcommand
# reads and checks --noise and --coupling, sweep and verify included.  _CHOI
# stands for a valid analytic Choi file, so only the input under test is bad.
_CHOI = "<analytic choi file>"
_INPUTS = {
    "config": (["choi", "--config"], "config error: bad config file:"),
    "noise": (["choi", "--choi-method", "linear", "--noise"], "config error: bad noise spec"),
    "coupling": (["choi", "--choi-method", "linear", "--coupling"],
                 "config error: bad coupling spec"),
    "choi_file": (["sweep", "--grid", "3", "--choi-file"], "config error: bad choi file:"),
    "sweep_noise": (["sweep", "--grid", "3", "--choi-file", _CHOI, "--noise"],
                    "config error: bad noise spec"),
    "sweep_coupling": (["sweep", "--grid", "3", "--choi-file", _CHOI, "--coupling"],
                       "config error: bad coupling spec"),
    "verify_noise": (["verify", "--noise"], "config error: bad noise spec"),
}


def _analytic_choi_file(tmp_path):
    path = tmp_path / "choi_ls_analytic.json"
    path.write_text(json.dumps(dict(cj.choi_to_json(cj.named_choi("ls")), channel="ls")))
    return str(path)
_MALFORMED = {
    "deep": b"[" * 2 ** 15 + b"]" * 2 ** 15,
    "oversize": b"[" + b"0," * 2 ** 22 + b"0]",  # 8 MiB: reading it whole breaks the peak
    "not_utf8": b'{"p1": "\xff"}',
    "empty": b"",
    "directory": None,
}


@pytest.mark.parametrize("kind", _MALFORMED)
@pytest.mark.parametrize("option", _INPUTS)
def test_malformed_input_file_exits_2_within_budget(tmp_path, capsys, option, kind):
    argv, message = _INPUTS[option]
    argv = [_analytic_choi_file(tmp_path) if a == _CHOI else a for a in argv]
    path = tmp_path / "input"
    if _MALFORMED[kind] is None:
        path.mkdir()
    else:
        path.write_bytes(_MALFORMED[kind])
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = run(argv + [str(path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith(message) and err.count("\n") == 1 and "Traceback" not in err
    assert peak < 4 * 2 ** 20
    assert not out.exists()


@pytest.mark.parametrize("size", [cli.MAX_INPUT_BYTES, cli.MAX_INPUT_BYTES + 1])
def test_input_file_budget_is_exact(tmp_path, capsys, size):
    text = json.dumps({"channel": "wh"})
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(text + " " * (size - len(text)))
    code = run(["choi", "--config", str(cfgfile), "--out", str(tmp_path)])
    if size <= cli.MAX_INPUT_BYTES:
        assert code == 0 and (tmp_path / "choi_wh_analytic.json").exists()
    else:
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: bad config file: file is larger")


def test_empty_config_path_is_config_error(tmp_path, capsys):
    assert run(["choi", "--config", "", "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: bad config file:")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("key", ["noise", "coupling"])
@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_nonexistent_noise_or_coupling_is_config_error(tmp_path, capsys, command, key,
                                                       via_config):
    missing = str(tmp_path / "missing.json")
    out = tmp_path / "out"
    args = [command, "--out", str(out)]
    if command == "sweep":
        args += ["--grid", "3", "--choi-file", _analytic_choi_file(tmp_path)]
    if via_config:
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({key: missing}))
        args += ["--config", str(cfgfile)]
    else:
        args += ["--" + key, missing]
    assert run(args) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: bad {key} spec")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert not out.exists()


# argv-borne config errors, each caught before any file is read or written
_ARGV_ERRORS = {
    "long_channel": ["choi", "--channel", "x" * 60000],
    "seed_line_break": ["choi", "--seed", "a\nb"],
    "unknown_flag": ["choi", "--bogus", "1"],
    "sweep_flag_on_choi": ["choi", "--grid", "3"],
    "trailing_flag": ["choi", "--out"],
    "flag_as_value": ["choi", "--out", "--seed", "3"],
    "stray_positional": ["choi", "stray"],
    "unknown_command": ["bogus"],
    "no_command": [],
    "float_shots": ["choi", "--shots", "1e3"],
}


@pytest.mark.parametrize("option, obj", [
    ("--config", {"channel": "x" * 60000}),
    ("--noise", {"p1": "x" * 60000}),
    ("--noise", {"p1\nsecond line": 0.1}),  # a key with a line break
    *(pytest.param(None, argv, id=f"argv-{name}") for name, argv in _ARGV_ERRORS.items()),
])
def test_config_error_is_one_bounded_line(tmp_path, capsys, monkeypatch, option, obj):
    # option None: obj is the whole argv, run where the default out "." is tmp_path
    monkeypatch.chdir(tmp_path)
    argv = obj
    if option is not None:
        (tmp_path / "input.json").write_text(json.dumps(obj))
        argv = ["choi", option, "input.json", "--out", "out"]
    assert run(argv) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    err = captured.err
    assert err.startswith("config error: ") and err.endswith("\n") and err.count("\n") == 1
    assert len(err) <= len("config error: ") + cli.MAX_ERROR_CHARS + 1
    assert captured.out == ""
    assert os.listdir(tmp_path) == ([] if option is None else ["input.json"])


# --- the argv grammar: one flag table for argv, --config files and --help ---
_COMMON_FLAGS = {"--channel", "--method", "--choi-method", "--shots", "--seed", "--noise",
                 "--coupling", "--out", "--config"}
_COMMAND_FLAGS = {"apply": _COMMON_FLAGS, "choi": _COMMON_FLAGS, "verify": _COMMON_FLAGS,
                  "sweep": _COMMON_FLAGS | {"--choi-file", "--grid"}}


def _flag_cases(tmp_path):
    """{config key: (argv before the flag, value)} for every key of the flag
    table, each run where the value shows in the output file: file values
    are absolute paths, int values JSON ints.  The Choi file is a sampled
    one, so the sweep grid shows in its sweep."""
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p2": 0.05, "readout_flip": 0.01}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"channel": "wh"}))
    assert run(["choi", "--choi-method", "linear", "--shots", "100", "--out", str(tmp_path)]) == 0
    choi_file = str(tmp_path / "choi_ls_linear.json")
    linear = ["choi", "--choi-method", "linear"]
    return {
        "channel": (["choi"], "wh"),
        "method": (["apply", "--shots", "0"], "circuit"),
        "choi_method": (["choi", "--shots", "100"], "linear"),
        "shots": (linear, 100),
        "seed": (linear, 7),
        "noise": (linear, str(noise)),
        "coupling": (linear + ["--shots", "0"], "ibmqx4"),
        "out": (["choi"], "sub"),
        "grid": (["sweep", "--choi-file", choi_file], 3),
        "choi_file": (["sweep", "--grid", "3"], choi_file),
        "config": (["choi"], str(config)),
    }


def _outputs(directory):
    """{relative path: bytes} of every file under directory."""
    return {os.path.relpath(os.path.join(root, name), directory):
            open(os.path.join(root, name), "rb").read()
            for root, _, names in os.walk(directory) for name in names}


def _run_in(path, monkeypatch, argv):
    """run(argv) with path, a fresh directory, as the working directory."""
    path.mkdir()
    monkeypatch.chdir(path)
    return run(argv)


def test_flag_cases_cover_the_flag_table(tmp_path):
    assert set(_flag_cases(tmp_path)) == set(cli._FLAGS["sweep"].values())
    assert {c: set(flags) for c, flags in cli._FLAGS.items()} == _COMMAND_FLAGS


@pytest.mark.parametrize("key", sorted(set(cli._FLAGS["sweep"].values())))
def test_flag_forms_and_config_file_write_identical_files(tmp_path, monkeypatch, key):
    before, value = _flag_cases(tmp_path)[key]
    flag = "--" + key.replace("_", "-")
    forms = {"spaced": before + [flag, str(value)], "equals": before + [f"{flag}={value}"]}
    if key != "config":
        config = tmp_path / f"config_{key}.json"
        config.write_text(json.dumps({key: value}))
        forms["config"] = before + ["--config", str(config)]
    outputs = []
    for form, argv in forms.items():
        assert _run_in(tmp_path / form, monkeypatch, argv) == 0
        outputs.append(_outputs(tmp_path / form))
    assert outputs[0] and all(o == outputs[0] for o in outputs)
    # and the flag changes the output: the run without it writes other
    # bytes (sweep needs a Choi file)
    assert _run_in(tmp_path / "without", monkeypatch, before) == (2 if key == "choi_file" else 0)
    assert _outputs(tmp_path / "without") != outputs[0]


@pytest.mark.parametrize("first, last", [
    (["--channel", "wh"], ["--channel", "ls"]),
    (["--shots", "5"], ["--shots=100"]),
    (["--seed=3"], ["--seed", "7"]),
])
def test_repeated_flag_last_one_wins(tmp_path, monkeypatch, first, last):
    argv = ["choi", "--choi-method", "linear"]
    assert _run_in(tmp_path / "both", monkeypatch, argv + first + last) == 0
    assert _run_in(tmp_path / "last", monkeypatch, argv + last) == 0
    assert _outputs(tmp_path / "both") == _outputs(tmp_path / "last")


@pytest.mark.parametrize("flag_first", [True, False])
def test_explicit_flag_beats_config_file(tmp_path, monkeypatch, flag_first):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"channel": "wh", "shots": 5, "choi_method": "linear"}))
    flags, from_file = ["--channel", "ls", "--shots", "100"], ["--config", str(config)]
    argv = ["choi", *(flags + from_file if flag_first else from_file + flags)]
    assert _run_in(tmp_path / "merged", monkeypatch, argv) == 0
    assert _run_in(tmp_path / "flags", monkeypatch,
                   ["choi", "--choi-method", "linear", "--channel", "ls", "--shots", "100"]) == 0
    assert _outputs(tmp_path / "merged") == _outputs(tmp_path / "flags")
    assert list(_outputs(tmp_path / "merged")) == ["choi_ls_linear.json"]


@pytest.mark.parametrize("command", [None, *_COMMAND_FLAGS])
@pytest.mark.parametrize("help_flag", ["-h", "--help"])
def test_help_exits_0_and_lists_exactly_the_accepted_flags(tmp_path, monkeypatch, capsys,
                                                           command, help_flag):
    monkeypatch.chdir(tmp_path)
    prefix = [] if command is None else [command, "--channel", "wh"]
    assert run(prefix + [help_flag, "--bogus"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith("usage: qutritsim ")
    listed = set(re.findall(r"--[a-z][a-z-]*", captured.out))
    assert listed == {"--help"} | _COMMAND_FLAGS.get(command, set())
    if command is None:
        assert all(c in captured.out for c in _COMMAND_FLAGS)
    assert os.listdir(tmp_path) == []


def test_help_and_argv_errors_through_python_m_qutritsim(tmp_path):
    proc = _run_process(["--help"], module="qutritsim")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: qutritsim ")
    assert proc.stderr == ""
    proc = _run_process(["choi", "--bogus", "1", "--out", str(tmp_path)], module="qutritsim")
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == "" and os.listdir(tmp_path) == []


# Values and flags the argv fuzz draws from: every flag of the table, the
# help flags and near misses, valid values and boundary tokens.  Never the
# 20-qubit --coupling tokyo, which is a resource error after routing; the
# only --choi-file that exists is an analytic Choi file.
_FUZZ_FLAGS = sorted(cli._FLAGS["sweep"]) + ["-h", "--help", "--bogus", "--cho", "-x", "-", "--"]
_FUZZ_VALUES = ["-", "--", "=", "", " ", "0", "3", "-5", "-1", "8192", "1e3", "1.5", "nan", "NaN",
                "inf", "-inf", "9" * 40, str(2 ** 64), "9" * 5000, "x" * 600, "a\nb", "\r\n",
                "\u03be\u03c8", "caf\u00e9", "\x00", "ls", "wh", "id", "analytic", "circuit",
                "linear", "direct", "zero", "ibmqx4", "tokyo-6q", "{}", "<choi file>"]
_fuzz_token = st.one_of(
    st.tuples(st.sampled_from(_FUZZ_FLAGS), st.sampled_from(_FUZZ_VALUES)),
    st.builds(lambda f, v: (f"{f}={v}",), st.sampled_from(_FUZZ_FLAGS),
              st.sampled_from(_FUZZ_VALUES)),
    st.tuples(st.sampled_from(_FUZZ_FLAGS + _FUZZ_VALUES)))
# verify runs the whole invariant suite (about 0.2 s a run): the tests above
# cover its flags
_fuzz_argv = st.tuples(st.sampled_from(["apply", "choi", "sweep", "", "-h", "--help", "bogus"]),
                       st.lists(_fuzz_token, max_size=6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_fuzz_argv)
def test_argv_fuzz_exits_0_or_2_with_one_line(tmp_path, monkeypatch, capsys, drawn):
    command, tokens = drawn
    choi_file = _analytic_choi_file(tmp_path)
    example = tmp_path / f"example_{len(os.listdir(tmp_path))}"
    example.mkdir()
    monkeypatch.chdir(example)  # a relative --out stays under tmp_path
    argv = [command, "--out", str(example)] + [
        t.replace("<choi file>", choi_file) for token in tokens for t in token]
    capsys.readouterr()
    code = run(argv)
    captured = capsys.readouterr()
    assert code in (0, cli.EXIT_CONFIG), argv
    assert "Traceback" not in captured.err
    if code == cli.EXIT_CONFIG:
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), argv
        assert len(captured.err) <= len("config error: ") + cli.MAX_ERROR_CHARS + 1
    else:
        assert captured.err == ""


# The noise-file fuzz writes --noise files from a grammar: objects over the
# four keys and an unknown one, whose values are JSON texts in and out of
# [0, 1], signed zeros, subnormals, 1e999 (an inf), the NaN and Infinity
# literals, 400-digit ints, bools, strings, null, lists and nested objects;
# other JSON values; and an empty, a non-UTF-8 and an over-budget file and a
# directory.  choi --choi-method analytic simulates nothing, but
# _merge_config reads the noise file for every command.
_noise_scalar = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.floats(-0.5, 1.5).map(repr),
    st.sampled_from(["0", "1", "2", "-1", "-0", "-0.0", "1.0", "5e-324", "-5e-324",
                     "2.2250738585072014e-308", "1e999", "-1e999", "NaN", "Infinity",
                     "-Infinity", "1" + "0" * 400, "-" + "9" * 400, "0." + "0" * 400 + "1",
                     "true", "false", "null", '"0.1"', '""']))
_noise_nested = st.deferred(lambda: st.one_of(
    st.lists(_noise_value, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
    _noise_object))
# scalars twice as often as lists and objects
_noise_value = st.one_of(_noise_scalar, _noise_scalar, _noise_nested)
# each of the four keys or not, and now and then an unknown key
_noise_object = st.builds(
    lambda known, extra: "{" + ", ".join(f'"{k}": {v}' for k, v in (known | extra).items()) + "}",
    st.fixed_dictionaries({}, optional={k: _noise_value for k in ("p1", "p2", "gamma",
                                                                  "readout_flip")}),
    st.sampled_from([{}, {}, {}, {"bogus": "0.1"}]))
_noise_file = st.one_of(
    _noise_object.map(str.encode),
    _noise_object.map(str.encode),
    _noise_value.map(str.encode),
    st.sampled_from([b"", b'{"p1": "\xff"}', b"\xfe\xff{}",
                     b'{"p1": 0.1' + b" " * cli.MAX_INPUT_BYTES + b"}", None]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_noise_file)
def test_noise_file_fuzz_exits_0_or_2_with_one_line(tmp_path, capsys, data):
    example = tmp_path / f"example_{len(os.listdir(tmp_path))}"
    example.mkdir()
    path = example / "noise"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    capsys.readouterr()
    code = run(["choi", "--choi-method", "analytic", "--noise", str(path),
                "--out", str(example)])
    captured = capsys.readouterr()
    assert code in (0, cli.EXIT_CONFIG), data
    assert "Traceback" not in captured.err
    if code == cli.EXIT_CONFIG:
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), data
        assert len(captured.err) <= len("config error: ") + cli.MAX_ERROR_CHARS + 1
    else:
        assert captured.err == ""


# The Choi-file fuzz writes --choi-file files from a grammar: the analytic
# ls file with one mutation (one to three entries replaced by huge ints,
# 1e308-sized numbers, 1e999, the NaN and Infinity literals, bools,
# strings, null or containers; a row cut short or dropped; wrong rows or
# cols; an unknown ordering; a non-PSD, non-Hermitian or trace-2 matrix; a
# channel mismatch; a key dropped), other JSON values, and an empty, a
# non-UTF-8 and an over-budget file and a directory.
_CHOI_ENTRIES = ["1" + "0" * 400, "-" + "9" * 400, "1" + "0" * 308, "1e308", "-1e308", "1e999",
                 "-1e999", "NaN", "Infinity", "-Infinity", "true", "false", "null", '"0.1"',
                 '""', "[]", "{}", "5e-324", "-0.0", "2", "0.5"]
_CHOI_SIZES = ["0", "-1", "8", "10", "9.0", "9.5", '"9"', "true", "null", "1e999", "1" + "0" * 400]
_LS_CHOI = cj.named_choi("ls")
_CHOI_MATRICES = [2 * _LS_CHOI, np.diag([1.5, -0.5] + [0.0] * 7),
                  _LS_CHOI + 1e-3 * np.eye(9, k=1), _LS_CHOI]


@st.composite
def _choi_file(draw):
    kind = draw(st.sampled_from(["entry", "entry", "ragged", "size", "ordering", "matrix",
                                 "channel", "key", "file"]))
    if kind == "file":
        return draw(st.sampled_from([
            b"", b"\xfe\xff{}", b'{"re": "\xff"}', b"[]", b"9", b'"ls"', b"null", b"NaN",
            json.dumps(cj.choi_to_json(_LS_CHOI)).encode() + b" " * cli.MAX_INPUT_BYTES, None]))
    obj = dict(cj.choi_to_json(_LS_CHOI), channel="ls")
    raw = []    # JSON texts put in place of the strings "@0@", "@1@", ...
    if kind == "entry":
        for _ in range(draw(st.integers(1, 3))):
            part, i, j = draw(st.sampled_from(["re", "im"])), draw(st.integers(0, 8)), \
                draw(st.integers(0, 8))
            obj[part][i][j] = f"@{len(raw)}@"
            raw.append(draw(st.sampled_from(_CHOI_ENTRIES)))
    elif kind == "ragged":
        rows = obj[draw(st.sampled_from(["re", "im"]))]
        i = draw(st.integers(0, 8))
        if draw(st.booleans()):
            del rows[i]
        else:
            rows[i].pop()
    elif kind == "size":
        obj[draw(st.sampled_from(["rows", "cols"]))] = "@0@"
        raw.append(draw(st.sampled_from(_CHOI_SIZES)))
    elif kind == "ordering":
        obj["ordering"] = draw(st.sampled_from(["output_input", "", "INPUT_OUTPUT", None, 1]))
    elif kind == "matrix":
        obj.update(la.matrix_to_json(draw(st.sampled_from(_CHOI_MATRICES))))
    elif kind == "channel":
        obj["channel"] = draw(st.sampled_from(["wh", "id", "", None, 5]))
    else:
        del obj[draw(st.sampled_from(sorted(obj)))]
    text = json.dumps(obj)
    for k, value in enumerate(raw):
        text = text.replace(f'"@{k}@"', value)
    return text.encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_choi_file())
def test_choi_file_fuzz_exits_0_or_2_with_one_line(tmp_path, capsys, data):
    example = tmp_path / f"example_{len(os.listdir(tmp_path))}"
    example.mkdir()
    path = example / "choi"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    capsys.readouterr()
    code = run(["sweep", "--grid", "3", "--choi-file", str(path), "--out", str(example)])
    captured = capsys.readouterr()
    assert code in (0, cli.EXIT_CONFIG), data
    assert "Traceback" not in captured.err
    if code == cli.EXIT_CONFIG:
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), data
        assert len(captured.err) <= len("config error: ") + cli.MAX_ERROR_CHARS + 1
    else:
        assert captured.err == ""


# The coupling-file fuzz writes --coupling files from a grammar: n_qubits
# as small, large, huge and negative ints, integral and fractional floats,
# bools, strings, null, containers, 1e999 and NaN; edges as the complete
# graph, a line, random pairs (self-loops and out-of-range wires among
# them, a pair now and then repeated), pairs with one bad entry (ragged,
# nested, a float, a bool, a string, null) or a value that is no list of
# pairs; a key dropped or an extra key; other JSON values; and an empty, a
# non-UTF-8 and an over-budget file and a directory.  choi --choi-method
# linear --shots 0 routes onto the map and builds the exact table.  No
# size is 9 or 10: a map the reader accepts has at most 8 qubits, or at
# least 11, which fails on the dense budget before anything is simulated
# (a 10-qubit linear experiment peaks near 219 MB).  A map with a CNOT
# whose wires have no common neighbour, or with fewer than 4 qubits, exits 3.
# valid sizes in range twice as often as the rest
_COUPLING_SIZES = ["4", "5", "6", "8"] * 4 + [
    "1", "3", "11", "20", "4.0", "5.0", "4.5", "0", "-1", "true", "false", '"5"', "null", "[5]",
    '{"n": 5}', "1e999", "NaN", "1" + "0" * 400, "-" + "9" * 400]
_COUPLING_BAD_PAIRS = ["[1]", "[]", "[1, 2, 3]", "[1, [2]]", "[[1, 2]]", "[1.5, 2]", "[true, 2]",
                       '["1", 2]', "[null, 2]", '{"0": 1}', '"01"', "1", "[1e999, 2]",
                       "[1, " + "9" * 400 + "]"]
_COUPLING_BAD_EDGES = ["5", "{}", '"01"', "null", "true", '{"0": 1}', "[[[0, 1]]]"]


@st.composite
def _coupling_file(draw):
    if draw(st.integers(0, 5)) == 5:
        return draw(st.sampled_from([
            b"", b"\xfe\xff{}", b'{"n_qubits": "\xff", "edges": []}', b"[]", b"5",
            b'"ibmqx4"', b"null", b'{"n_qubits": 5, "edges": []}' + b" " * cli.MAX_INPUT_BYTES,
            None]))
    size = draw(st.sampled_from(_COUPLING_SIZES))
    digits = re.fullmatch(r"(\d+)(\.\d+)?", size)
    n = min(int(digits.group(1)), 20) if digits else 5  # the wires the edges are drawn on
    kind = draw(st.sampled_from(["complete", "complete", "line", "random", "random", "bad",
                                 "value"]))
    if kind == "complete":
        pairs = [f"[{a}, {b}]" for a in range(n) for b in range(n) if a != b]
    elif kind == "line":  # both directions: CNOT (0, 3) has no common neighbour
        pairs = [f"[{a}, {a + 1}]" for a in range(n - 1)] + \
            [f"[{a + 1}, {a}]" for a in range(n - 1)]
    else:
        wire = st.integers(-1, n)
        pairs = [f"[{a}, {b}]" for a, b in draw(st.lists(st.tuples(wire, wire), max_size=12))]
    if kind == "bad":
        pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(_COUPLING_BAD_PAIRS)))
    if pairs and draw(st.booleans()):
        pairs.append(draw(st.sampled_from(pairs)))
    edges = (draw(st.sampled_from(_COUPLING_BAD_EDGES)) if kind == "value"
             else "[" + ", ".join(pairs) + "]")
    keys = {"n_qubits": size, "edges": edges}
    change = draw(st.sampled_from([""] * 9 + ["n_qubits", "edges", "extra"]))
    if change == "extra":
        keys["placement"] = "[0, 1, 2, 3]"
    elif change:
        del keys[change]
    return ("{" + ", ".join(f'"{k}": {v}' for k, v in keys.items()) + "}").encode()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_coupling_file())
def test_coupling_file_fuzz_exits_0_2_or_3_with_one_line(tmp_path, capsys, data):
    example = tmp_path / f"example_{len(os.listdir(tmp_path))}"
    example.mkdir()
    path = example / "coupling"
    if data is None:
        path.mkdir()
    else:
        path.write_bytes(data)
    capsys.readouterr()
    code = run(["choi", "--choi-method", "linear", "--shots", "0", "--coupling", str(path),
                "--out", str(example)])
    captured = capsys.readouterr()
    assert code in (0, cli.EXIT_CONFIG, cli.EXIT_ROUTING), data
    assert "Traceback" not in captured.err
    if code == 0:
        assert captured.err == ""
    else:
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), data
        assert len(captured.err) <= len("routing error: ") + cli.MAX_ERROR_CHARS + 1


# --- both Choi experiments as one batch against the per-input loop ---------
# _ref_circuits are the circuits that choi.estimate of the cached table
# replaces, each routed onto the coupling map as a whole: for the linear
# experiment prep_i + channel for each of the nine inputs, read out on
# (2, 3); for the direct one the 6-qubit Choi-state circuit, read out on
# (0, 1, 2, 3).  Each circuit's exact collect table is sampled in input order from
# the one stream of SeedSequence(seed, spawn_key=(1,)), then reconstructed
# and post-selected on its own (shots = 0: the exact table, readout error
# and all).  The direct circuit needs six wires, so where the linear check
# routes onto ibmqx4 the direct one routes onto tokyo-6q.
_DIRECT_LAYOUT = {None: None, "ibmqx4": "tokyo-6q"}


def _ref_circuits(name, method, cmap):
    channel = cli._CHANNEL_CIRCUITS[name]()
    if method == "linear":
        circuits, measure = [], (2, 3)
        for i in range(1, 10):
            full = cc.Circuit(4)
            full.extend(dc.prep_basis_circuit(i).remapped([2, 3], 4).gates)
            full.extend(channel.gates)
            circuits.append(full)
    else:
        circuits, measure = [cj.choi_direct_circuit(channel)], (0, 1, 2, 3)
    return [c if cmap is None else cp.route_circuit(c, cmap) for c in circuits], measure


def _estimate_stream(seed):
    return np.random.SeedSequence(seed, spawn_key=(1,))


def _ref_circuit_tables(name, cmap, shots, seed, noise, method="linear"):
    """Per circuit: the exact collect table, sampled table by table from
    the one estimate stream."""
    circuits, measure = _ref_circuits(name, method, cmap)
    rng = np.random.default_rng(_estimate_stream(seed))
    return [cc.sample_table(tg.collect(c, 0, seed, noise, measure), shots, rng)
            for c in circuits]


def _ref_outputs(tables, method):
    project = enc.project_qutrit if method == "linear" else enc.project_two_qutrits
    return [project(tg.reconstruct_state(t)) for t in tables]


def _check_batched_outputs(name, layout, shots, seed, noise):
    for method, lay in (("linear", layout), ("direct", _DIRECT_LAYOUT[layout])):
        cmap = cp.preset_map(lay) if lay else None
        table = cli._outcome_table(name, method, cmap, noise)
        states, leakages = cj.estimate(table, shots, seed)
        tables = _ref_circuit_tables(name, cmap, shots, seed, noise, method)
        want = _ref_outputs(tables, method)
        assert len(states) == len(leakages) == len(want) == len(table)
        for rho_g, leak_g, (rho_w, leak_w) in zip(states, leakages, want):
            if shots == 0:
                assert np.abs(rho_g - rho_w).max() < 1e-12
                assert abs(leak_g - leak_w) < 1e-12
            else:
                assert np.array_equal(rho_g, rho_w) and leak_g == leak_w
        if shots > 0:
            # the tables behind them: same counts from the same stream
            sampled = cc.sample_table(table, shots, np.random.default_rng(_estimate_stream(seed)))
            assert sampled.shape == table.shape
            assert np.array_equal(sampled, np.stack(tables))


@pytest.mark.parametrize("name", ["ls", "wh"])
def test_exact_linear_on_ibmqx4_matches_analytic(tmp_path, name):
    # the nine input preparations are routed with the channel circuit
    assert run(["choi", "--channel", name, "--choi-method", "linear", "--shots", "0",
                "--coupling", "ibmqx4", "--out", str(tmp_path)]) == 0
    obj = json.loads((tmp_path / f"choi_{name}_linear.json").read_text())
    assert obj["fidelity_vs_analytic"] >= 1 - 1e-9


@pytest.mark.parametrize("layout", [None, "ibmqx4"])
@pytest.mark.parametrize("name", ["ls", "wh", "id"])
def test_circuit_outputs_match_per_input_loop(name, layout):
    noisy = cc.NoiseConfig(p1=0.01, p2=0.05, gamma=0.02, readout_flip=0.02)
    for noise in (cc.NoiseConfig(), noisy):
        for shots in (0, 2048):
            _check_batched_outputs(name, layout, shots, 17, noise)


@_property
@given(name=st.sampled_from(["ls", "wh", "id"]), layout=st.sampled_from([None, "ibmqx4"]),
       seed=st.integers(0, 2 ** 31 - 1), noise=st.one_of(st.just(cc.NoiseConfig()), _noise),
       shots=st.sampled_from([0, 1, 512, 8192]))
def test_circuit_outputs_match_per_input_loop_property(name, layout, seed, noise, shots):
    _check_batched_outputs(name, layout, shots, seed, noise)


# 20 qubits, all-to-all on wires 0-5: every channel routes without a SWAP,
# but route_circuit widens the register to the whole device
_WIDE_MAP = {"n_qubits": 20, "edges": [[a, b] for a in range(6) for b in range(6) if a != b]}


@pytest.mark.parametrize("args", [
    ["choi", "--choi-method", "direct", "--shots", "100"],
    ["choi", "--choi-method", "linear", "--shots", "100"],
    ["apply", "--method", "circuit", "--shots", "0"],
])
def test_register_above_dense_budget_is_resource_error(tmp_path, capsys, args):
    cmap = tmp_path / "wide.json"
    cmap.write_text(json.dumps(_WIDE_MAP))
    tracemalloc.start()
    try:
        code = run(args + ["--channel", "ls", "--coupling", str(cmap), "--out", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("resource error: 20-qubit register") and err.count("\n") == 1
    assert peak < 2 ** 24  # a single 20-qubit state vector would be 16 MiB
    assert not any(tmp_path.glob("apply_*")) and not any(tmp_path.glob("choi_*"))


# --- the reported fidelity against a recomputation from the written file ----
# analytic_fidelity builds the analytic side once per channel; what a Choi
# file and a sweep report must still be choi_fidelity of the written matrix
# exactly, on every path that reaches it.


@pytest.mark.parametrize("method, layout", [("linear", None), ("linear", "ibmqx4"),
                                            ("direct", None), ("direct", "tokyo-6q")])
def test_reported_fidelity_equals_recomputation_from_file(tmp_path, method, layout):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps({"p1": 0.004, "p2": 0.04, "gamma": 0.004, "readout_flip": 0.02}))
    for k, (name, shots, nz) in enumerate(itertools.product(
            ("ls", "wh"), ("0", "8192"), ("zero", str(noise)))):
        out = tmp_path / str(k)
        args = ["--channel", name, "--shots", shots, "--noise", nz, "--seed", "5",
                "--out", str(out)]
        assert run(["choi", "--choi-method", method, *args]
                   + (["--coupling", layout] if layout else [])) == 0
        path = out / f"choi_{name}_{method}.json"
        obj = json.loads(path.read_text())
        want = cj.choi_fidelity(cj.named_choi(name), cj.choi_from_json(obj))
        assert obj["fidelity_vs_analytic"] == want, (name, shots, nz)
        assert run(["sweep", "--choi-file", str(path), "--grid", "3", *args]) == 0
        with open(out / f"sweep_{name}.csv", newline="") as f:
            summary = list(csv.reader(f))[-1]
        assert summary == ["choi", "choi"] + [f"{want:.10f}"] * 3


# --- the Choi file against the chain of public functions -------------------
# cmd_choi runs unchecked cores (linalg._spectrum and _rebuild,
# choi._assemble) on the arrays its estimate built.  A test-local chain of
# the checked public functions, estimate -> choi_linear or states[0] ->
# density_spectrum -> rebuild -> analytic_fidelity, must write the same
# file, bit for bit, so the cores cannot drift from the checked path.
_CHAIN_CIRCUITS = {"ls": dc.ls_channel_circuit, "wh": dc.wh_channel_circuit,
                   "id": lambda: cc.Circuit(4)}
_CHAIN_NOISE = {"p1": 0.004, "p2": 0.04, "gamma": 0.004, "readout_flip": 0.02}


@pytest.mark.parametrize("method, layout", [("linear", None), ("linear", "ibmqx4"),
                                            ("linear", "tokyo-6q"), ("direct", None),
                                            ("direct", "tokyo-6q")])
def test_choi_file_equals_the_public_function_chain(tmp_path, method, layout):
    noise = tmp_path / "noise.json"
    noise.write_text(json.dumps(_CHAIN_NOISE))
    cmap = layout and cp.preset_map(layout)
    tables = {"linear": cj.linear_tables, "direct": cj.direct_tables}[method]
    for k, (name, shots, noisy) in enumerate(itertools.product(
            ("ls", "wh", "id"), (0, 8192), (False, True))):
        out = tmp_path / str(k)
        assert run(["choi", "--choi-method", method, "--channel", name, "--shots", str(shots),
                    "--seed", "11", "--noise", str(noise) if noisy else "zero",
                    "--out", str(out)] + (["--coupling", layout] if layout else [])) == 0
        nz = cc.NoiseConfig(**_CHAIN_NOISE) if noisy else cc.NoiseConfig()
        states, leakages = cj.estimate(tables(_CHAIN_CIRCUITS[name](), nz, cmap), shots, 11)
        p, v = la.density_spectrum(cj.choi_linear(states) if method == "linear" else states[0])
        omega = (v * p) @ la.dagger(v)
        want = dict(cj.choi_to_json(omega), channel=name, method=method,
                    fidelity_vs_analytic=cj.analytic_fidelity(name, omega),
                    eigenvalues=p.tolist(), leakages=leakages)
        got = (out / f"choi_{name}_{method}.json").read_text()
        assert got == json.dumps(want, sort_keys=True, allow_nan=False), (name, shots, noisy)


# --- rewriting an existing output ------------------------------------------
# _write_output overwrites an existing file in place and cuts it to the new
# length instead of truncating it to zero first.  Whatever sat at the output
# path before, the result must be byte for byte the output of a fresh run.

_WRITERS = {
    "apply": (["apply", "--method", "circuit", "--channel", "ls", "--shots", "8192",
               "--seed", "3"], "apply_ls_circuit.json"),
    "choi_linear": (["choi", "--choi-method", "linear", "--channel", "ls", "--shots", "8192",
                     "--seed", "3"], "choi_ls_linear.json"),
    "choi_direct": (["choi", "--choi-method", "direct", "--channel", "wh",
                     "--shots", "100000", "--seed", "3"], "choi_wh_direct.json"),
    "sweep": (["sweep", "--channel", "ls", "--grid", "5"], "sweep_ls.csv"),
}


def _writer_args(tmp_path, writer):
    """The arguments (without --out) and output name of one writer; a sweep
    reads a sampled linear Choi file written under tmp_path/in."""
    args, name = _WRITERS[writer]
    if writer == "sweep":
        choi_args, choi_name = _WRITERS["choi_linear"]
        assert run(choi_args + ["--out", str(tmp_path / "in")]) == 0
        args = args + ["--choi-file", str(tmp_path / "in" / choi_name)]
    return args, name


def _longer_valid(text: bytes, writer) -> bytes:
    """A valid output of the same kind, longer than text: the JSON object
    indented, or the CSV with its data rows twice."""
    if writer == "sweep":
        header, _, rows = text.partition(b"\r\n")
        return header + b"\r\n" + rows + rows
    return json.dumps(json.loads(text), sort_keys=True, indent=2).encode()


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_existing_output_is_rewritten_to_the_fresh_bytes(tmp_path, writer):
    args, name = _writer_args(tmp_path, writer)
    assert run(args + ["--out", str(tmp_path / "fresh")]) == 0
    fresh = tmp_path / "fresh" / name
    want = fresh.read_bytes()
    junk = bytes(range(256)) * 256  # 64 KiB, no line ends of the output's kind
    for k, old in enumerate([junk, _longer_valid(want, writer), b"x"]):
        assert len(old) != len(want)
        path = tmp_path / str(k) / name
        path.parent.mkdir()
        path.write_bytes(old)
        path.chmod(0o600)
        inode = os.stat(path).st_ino
        assert run(args + ["--out", str(path.parent)]) == 0
        assert path.read_bytes() == want, (k, len(old))
        st = os.stat(path)
        assert st.st_ino == inode and st.st_mode & 0o777 == 0o600  # the same file


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_new_output_has_mode_0o666_less_umask(tmp_path, writer):
    args, name = _writer_args(tmp_path, writer)
    for k, mask in enumerate((0o022, 0o077, 0o027, 0o000)):
        old = os.umask(mask)
        try:
            assert run(args + ["--out", str(tmp_path / str(k))]) == 0
        finally:
            os.umask(old)
        assert os.stat(tmp_path / str(k) / name).st_mode & 0o777 == 0o666 & ~mask


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_directory_at_output_path_is_a_config_error_and_left_alone(tmp_path, capsys, writer):
    args, name = _writer_args(tmp_path, writer)
    target = tmp_path / "out" / name
    target.mkdir(parents=True)
    (target / "kept").write_bytes(b"kept")
    capsys.readouterr()
    assert run(args + ["--out", str(target.parent)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write") and "Is a directory" in err
    assert err.count("\n") == 1
    assert [p.name for p in target.iterdir()] == ["kept"]
    assert (target / "kept").read_bytes() == b"kept"


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_output_through_a_device_or_a_pipe_is_written(tmp_path, writer):
    # a device or a FIFO has no length to cut: writing to it still succeeds
    args, name = _writer_args(tmp_path, writer)
    assert run(args + ["--out", str(tmp_path / "fresh")]) == 0
    os.makedirs(tmp_path / "null")
    os.symlink(os.devnull, tmp_path / "null" / name)
    assert run(args + ["--out", str(tmp_path / "null")]) == 0
    os.makedirs(tmp_path / "fifo")
    os.mkfifo(tmp_path / "fifo" / name)
    got = []
    reader = threading.Thread(target=lambda: got.append((tmp_path / "fifo" / name).read_bytes()),
                              daemon=True)
    reader.start()
    try:
        assert run(args + ["--out", str(tmp_path / "fifo")]) == 0
    finally:
        reader.join(timeout=60)
    assert not reader.is_alive()
    assert got == [(tmp_path / "fresh" / name).read_bytes()]


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_non_finite_value_leaves_an_older_output_unchanged(tmp_path, capsys, monkeypatch,
                                                           writer):
    args, name = _writer_args(tmp_path, writer)
    path = tmp_path / "out" / name
    path.parent.mkdir()
    path.write_bytes(b"older output")
    os.utime(path, ns=(10 ** 9, 10 ** 9))
    if writer == "sweep":  # a Choi file with a NaN entry is refused on reading
        choi_file = tmp_path / "nan_choi.json"
        obj = json.loads((tmp_path / "in" / _WRITERS["choi_linear"][1]).read_text())
        obj["re"][2][3] = float("nan")
        choi_file.write_text(json.dumps(obj))
        args = args[:-1] + [str(choi_file)]
        message = "config error: bad choi file"
    else:  # every sampled estimate reports NaN leakages
        estimate = cj.estimate
        monkeypatch.setattr(cj, "estimate", lambda *a: (estimate(*a)[0], [float("nan")] * 9))
        message = f"config error: cannot write {name!r}: Out of range float values"
    capsys.readouterr()
    assert run(args + ["--out", str(path.parent)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(message)
    assert path.read_bytes() == b"older output"
    assert os.stat(path).st_mtime_ns == 10 ** 9


@pytest.mark.skipif(not (os.path.isdir("/proc/self/fd") and os.path.exists("/dev/full")),
                    reason="needs /proc/self/fd and /dev/full")
def test_repeated_runs_leak_no_file_descriptors(tmp_path, monkeypatch):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path / "in")]) == 0
    choi_file = str(tmp_path / "in" / "choi_ls_analytic.json")
    (tmp_path / "dir" / "choi_ls_analytic.json").mkdir(parents=True)
    (tmp_path / "afile").write_text("")
    full = tmp_path / "full"  # the file opens, then writing it fails with ENOSPC
    full.mkdir()
    os.symlink("/dev/full", full / "apply_ls_circuit.json")
    nan = tmp_path / "nan"
    nan.mkdir()
    calls = [
        (["choi", "--channel", "ls", "--out", str(tmp_path / "ok")], 0),
        (["choi", "--channel", "ls", "--choi-method", "linear", "--shots", "64",
          "--out", str(tmp_path / "ok")], 0),
        (["apply", "--channel", "ls", "--method", "circuit", "--shots", "64",
          "--out", str(tmp_path / "ok")], 0),
        (["sweep", "--channel", "ls", "--grid", "2", "--choi-file", choi_file,
          "--out", str(tmp_path / "ok")], 0),
        (["choi", "--channel", "ls", "--out", str(tmp_path / "dir")], cli.EXIT_CONFIG),
        (["choi", "--channel", "ls", "--out", str(tmp_path / "afile")], cli.EXIT_CONFIG),
        (["apply", "--channel", "ls", "--method", "circuit", "--shots", "64",
          "--out", str(full)], cli.EXIT_CONFIG),
        (["choi", "--channel", "wh", "--choi-method", "direct", "--shots", "64",
          "--out", str(nan)], cli.EXIT_CONFIG),
    ]
    fidelity = cj.analytic_fidelity  # NaN for wh, the last call's channel only
    monkeypatch.setattr(cj, "analytic_fidelity",
                        lambda name, omega: float("nan") if name == "wh" else fidelity(name, omega))
    for args, code in calls:  # warm every cache before counting
        assert run(args) == code, args
    before = len(os.listdir("/proc/self/fd"))
    for k in range(200):
        args, code = calls[k % len(calls)]
        assert run(args) == code, args
    assert len(os.listdir("/proc/self/fd")) == before
    assert not any(nan.iterdir())


# --- the out directory is created only when it is missing --------------------
@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_out_directory_is_created_only_when_missing(tmp_path, monkeypatch, writer):
    args, name = _writer_args(tmp_path, writer)
    makedirs, made = os.makedirs, []

    def spy(path, *a, **kw):
        made.append(path)
        return makedirs(path, *a, **kw)

    monkeypatch.setattr(os, "makedirs", spy)
    nested = tmp_path / "new" / "a" / "b"
    assert run(args + ["--out", str(nested)]) == 0
    assert made[0] == str(nested)  # makedirs then calls itself for each parent
    want = (nested / name).read_bytes()
    made.clear()
    assert run(args + ["--out", str(nested)]) == 0  # the directory exists now
    assert made == []
    assert (nested / name).read_bytes() == want


@pytest.mark.parametrize("command", ["apply", "choi"])
def test_empty_out_is_a_config_error(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    assert run([command, "--channel", "ls", "--out", ""]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: cannot write")
    assert os.listdir(tmp_path) == []
