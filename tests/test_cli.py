import json
import os
import subprocess
import sys

import numpy as np
import pytest

from qutritsim import channels as ch
from qutritsim import cli
from qutritsim import coupling as cp
from qutritsim import linalg as la


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


def test_verify_passes(capsys):
    assert run(["verify"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] spin1_dilation_unitary" in out
    assert "spin1_kraus_rank: rank 3" in out
    assert "[FAIL]" not in out


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
    code, err = _run_config(tmp_path, capsys, {"shots": "x"})
    assert code == cli.EXIT_CONFIG and "config error:" in err


def test_config_seed_not_integer_is_config_error(tmp_path, capsys):
    code, err = _run_config(tmp_path, capsys, {"seed": "x"})
    assert code == cli.EXIT_CONFIG and "config error:" in err


def test_sweep_grid_below_two_is_config_error(tmp_path, capsys):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
    code = run(["sweep", "--channel", "ls", "--grid", "1",
                "--choi-file", str(tmp_path / "choi_ls_analytic.json"),
                "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err


def test_config_grid_not_integer_is_config_error(tmp_path, capsys):
    assert run(["choi", "--channel", "ls", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"grid": "x"}))
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


def _run_process(args, stdin="", pass_fds=()):
    """Run the CLI in a child process, whose file descriptors a test may
    feed or close without touching the test runner's."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "qutritsim.cli", *args],
                          input=stdin, capture_output=True, text=True,
                          env=env, pass_fds=pass_fds, timeout=120)


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
