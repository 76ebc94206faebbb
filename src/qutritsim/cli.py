"""Experiment driver: apply channels to the basis inputs, build Choi
matrices, sweep pairwise fidelities, and run the invariant suite.

argv is a command and its flags, each --flag VALUE or --flag=VALUE under
its exact name in one flag table, _FLAGS; the last of a repeated flag wins.
_parse_argv splits it, and _merge_config decides what a valid run is, for
every subcommand alike: it merges the flags over a --config file, checks
each option and resolves --noise to a NoiseConfig and --coupling to a
CouplingMap or None, so each cmd_* only reads the typed cfg.  The driver
caches each configuration's exact outcome table; the experiments themselves
(input preparation, routing and readout wires) are choi.linear_tables and
choi.direct_tables, and choi.estimate samples and reconstructs either.

All outputs are JSON or CSV, deterministic given (config, seed), and
written by _write_output.  A JSON output is one line, keys sorted, floats
as repr (each parses back to the same double), finite values only; what it
promises is its parsed value, not its bytes.  Exit codes: 0 success, 1
verification failure, 2 configuration error (an argv that _parse_argv
cannot read and a reconstructed state with no weight in the qutrit
subspace included) or a register above the dense simulation budget, 3
routing error.  An input file over 64 KiB, not UTF-8, not JSON, or nested
past the decoder's depth is a configuration error too: one reader,
_read_json, reads all four.  Every error is one stderr line of at most
MAX_ERROR_CHARS characters.

A process pays a cold start before its first item: importing, and without
.pyc files compiling, the modules below (about 10 us per source line),
then building its first configuration's cached table.  qbench's setup_s
measures exactly that: import and compile of src/, the workload's set-up
and the first (cold-table) item.  verify is imported by cmd_verify alone,
on demand, so apply, choi and sweep never compile it.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import os
import stat
import sys

import numpy as np

from . import channels as ch
from . import choi as cj
from . import circuits as cc
from . import coupling as cp
from . import decompositions as dc
from . import encoding as enc
from . import linalg as la
from . import tomography as tg

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_ROUTING = 3


class ConfigError(ValueError):
    pass


_ANALYTIC = {"ls": ch.ls_apply, "wh": ch.wh_apply, "id": lambda rho: rho.copy()}

_CHANNEL_CIRCUITS = {"ls": dc.ls_channel_circuit, "wh": dc.wh_channel_circuit,
                     "id": lambda: cc.Circuit(4)}

# Allowed values of each choice option, for _merge_config and --help
_CHOICES = {"channel": tuple(_CHANNEL_CIRCUITS), "method": ("analytic", "circuit"),
            "choi_method": ("analytic", "linear", "direct")}

# Largest number of cached outcome tables, a memory budget: an entry is at
# most one (1, 81, 16) float64 table, about 10 KiB, so 64 take under 1 MiB.
MAX_CACHED_EXPERIMENTS = 64


@functools.lru_cache(maxsize=MAX_CACHED_EXPERIMENTS)
def _outcome_table(channel, method, layout, noise) -> np.ndarray:
    """The exact, read-only outcome table of one configuration, readout
    error included, built once per process for each (channel, method,
    layout, noise); it depends on no seed, so an item only samples it.
    method "linear" (also behind apply --method circuit) is the (9, 9, 4)
    table of choi.linear_tables, "direct" the (1, 81, 16) table of
    choi.direct_tables.  noise is the NoiseConfig that _merge_config resolved
    (one shared NoiseConfig() for None or "zero"), so every noiseless item
    shares one entry.
    """
    return {"linear": cj.linear_tables, "direct": cj.direct_tables}[method](
        _CHANNEL_CIRCUITS[channel](), noise, layout)


# Largest input file, a memory budget: the largest valid input, a CLI-written
# 9x9 Choi file, is under 5 KiB (the tokyo map under 1 KiB).  A 256 KiB read
# request makes reading a small noise file 2.5 times slower: keep it small.
MAX_INPUT_BYTES = 2 ** 16


def _read_json(path, what, parse):
    """parse(JSON value of the file at path), read in one call of at most
    MAX_INPUT_BYTES + 1 bytes, strict UTF-8.  Any failure to read, decode or
    parse it is ConfigError("bad <what>: ...")."""
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_INPUT_BYTES + 1)
        if len(data) > MAX_INPUT_BYTES:
            raise ValueError(f"file is larger than {MAX_INPUT_BYTES} bytes")
        return parse(json.loads(data.decode("utf-8")))
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


_NO_NOISE = cc.NoiseConfig()


def _load_noise(spec) -> cc.NoiseConfig:
    if spec is None or spec == "zero":
        return _NO_NOISE
    return _read_json(spec, f"noise spec {spec!r}", lambda obj: cc.NoiseConfig(**obj))


def _load_coupling(spec):
    if spec is None:
        return None
    try:
        return cp.preset_map(spec)
    except ValueError:
        return _read_json(spec, f"coupling spec {spec!r}", cp.CouplingMap.from_json)


_DEFAULTS = {
    "channel": "ls", "method": "analytic", "choi_method": "analytic",
    "shots": 8192, "seed": 0, "noise": "zero", "coupling": None,
    "out": ".", "grid": 101, "choi_file": None,
}


def _int_option(cfg, key, minimum, maximum) -> None:
    try:
        iv = cfg[key] = la.json_int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from exc
    if iv < minimum:
        raise ConfigError(f"{key} must be >= {minimum}")
    if maximum is not None and iv > maximum:
        raise ConfigError(f"{key} must be <= {maximum}")


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    config = args.pop("config", None)
    if config is not None:
        loaded = _read_json(config, "config file", lambda obj: obj)
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys {unknown}")
        cfg.update(loaded)
    cfg.update(args)
    for key, allowed in _CHOICES.items():
        if cfg[key] not in allowed:
            raise ConfigError(f"unknown {key.replace('_', ' ')} {cfg[key]!r}")
    _int_option(cfg, "shots", 0, cc.MAX_SHOTS)
    _int_option(cfg, "seed", 0, None)
    _int_option(cfg, "grid", 2, tg.MAX_SWEEP_GRID)
    for key in ("noise", "coupling", "choi_file", "out"):
        v = cfg[key]
        # open() takes an int as a file descriptor: only strings are paths
        if not isinstance(v, str) and (v is not None or key == "out"):
            raise ConfigError(f"{key} must be a string, got {v!r}")
    cfg["noise"] = _load_noise(cfg["noise"])
    cfg["coupling"] = _load_coupling(cfg["coupling"])
    return cfg


def _write_output(cfg, filename, data: bytes) -> str:
    """Write data to filename in the out directory, creating the directory
    only when opening the file finds it missing; an out path that cannot
    hold it (an existing file, a path under a file, a directory at the
    file's name, no permission, a NUL byte, a full device) is a config
    error.  Returns the path.

    An existing file is rewritten in place and then, if it was longer, cut
    to the new length, not truncated to zero first: on ext4 closing a file
    truncated to zero and rewritten starts writeback, which costs more than
    the whole write.
    A new file gets mode 0o666 less the umask, as open(path, "w") gives;
    a device or a pipe at the path (/dev/null, a FIFO) is written, not cut.
    A write that fails part way can leave a torn file, as truncating could."""
    path = os.path.join(cfg["out"], filename)
    flags = os.O_WRONLY | os.O_CREAT
    try:
        try:
            # an empty out names no directory: "" fails to open, and so
            # does os.makedirs("")
            fd = os.open(path if cfg["out"] else "", flags, 0o666)
        except FileNotFoundError:
            os.makedirs(cfg["out"], exist_ok=True)
            fd = os.open(path, flags, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            st = os.fstat(fd)
            # a device or pipe has no length; a file no longer than data needs no cut
            if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    return path


def _write_json(cfg, filename, obj) -> str:
    """Write obj as one line of JSON, keys sorted, floats as repr (no indent,
    so CPython's C encoder runs).  obj is encoded before the file is opened:
    a non-finite value is a config error and leaves no file."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"cannot write {filename!r}: {exc}") from exc
    return _write_output(cfg, filename, text.encode())


def _estimate(cfg, method):
    """cj.estimate of the cached outcome table of cfg and method (linear, direct)."""
    return cj.estimate(_outcome_table(cfg["channel"], method, cfg["coupling"], cfg["noise"]),
                       cfg["shots"], cfg["seed"])


def cmd_apply(cfg) -> str:
    """Write Phi(rho_i) for the nine basis inputs, with leakage values."""
    name = cfg["channel"]
    if cfg["method"] == "analytic":
        results = [(_ANALYTIC[name](dc.basis_density(i)), 0.0) for i in range(1, 10)]
    else:
        results = zip(*_estimate(cfg, "linear"))
    outputs = [{"input": i, "matrix": la.matrix_to_json(rho3), "leakage": leak}
               for i, (rho3, leak) in enumerate(results, start=1)]
    return _write_json(cfg, f"apply_{name}_{cfg['method']}.json",
                       {"channel": name, "method": cfg["method"],
                        "shots": cfg["shots"], "seed": cfg["seed"], "outputs": outputs})


def cmd_choi(cfg) -> str:
    """Write the Choi matrix, its fidelity against the analytic one, its
    eigenvalues and the leakages of its estimate (none for analytic).  One
    density_spectrum gives an estimate's projection (project_to_density,
    bit for bit) and its eigenvalues.  Every array here is built by the
    package, so the unchecked cores run (linalg's boundary rule)."""
    name = cfg["channel"]
    method = cfg["choi_method"]
    if method == "analytic":
        omega, leakages = cj.named_choi(name), []
        p, _ = la._spectrum(omega)
    else:
        states, leakages = _estimate(cfg, method)
        p, v = la._spectrum(cj._assemble(states) if method == "linear" else states[0])
        omega = la._rebuild(p, v)
    obj = cj.choi_to_json(omega)
    obj["channel"] = name
    obj["method"] = method
    obj["fidelity_vs_analytic"] = cj.analytic_fidelity(name, omega)
    obj["eigenvalues"] = p.tolist()
    obj["leakages"] = leakages
    return _write_json(cfg, f"choi_{name}_{method}.json", obj)


def cmd_sweep(cfg) -> str:
    """36-row CSV over unordered distinct basis-state pairs, plus the overall
    Choi fidelity as a summary row.  Each row is
    tomography.channel_fidelity_sweep of its pair, bit for bit: the nine
    endpoint outputs of the Choi matrix and the reference are built once,
    and the pairs are scored by the same scorer, as many per stack as fit
    in MAX_SWEEP_GRID grid points."""
    name = cfg["channel"]
    if not cfg.get("choi_file"):
        raise ConfigError("sweep needs --choi-file (output of the choi command)")
    obj, omega = _read_json(cfg["choi_file"], "choi file",
                            lambda obj: (obj, cj.choi_from_json(obj)))
    if obj.get("channel", name) != name:
        raise ConfigError(f"choi file is for channel {obj['channel']!r}, not {name!r}")
    grid = cfg["grid"]
    got, want = tg._endpoint_outputs(omega, _ANALYTIC[name],
                                     [dc.basis_density(i) for i in range(1, 10)])
    pairs = np.array(list(itertools.combinations(range(9), 2)))
    per_stack = tg.MAX_SWEEP_GRID // grid
    rows = [["pair_a", "pair_b", "min", "max", "mean"]]
    for start in range(0, len(pairs), per_stack):
        stack = pairs[start:start + per_stack]
        stats = tg._score_segments(got[stack], want[stack], grid)
        rows += [[a + 1, b + 1, *(f"{x:.10f}" for x in row)]
                 for (a, b), *row in zip(stack.tolist(), *stats)]
    overall = cj.analytic_fidelity(name, omega)
    rows.append(["choi", "choi", f"{overall:.10f}", f"{overall:.10f}", f"{overall:.10f}"])
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return _write_output(cfg, f"sweep_{name}.csv", buf.getvalue().encode())


def cmd_verify(cfg) -> int:
    from . import verify as vf  # on demand: see the module docstring
    results = vf.run_all(cfg["coupling"])
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failed = sum(not ok for _, ok, _ in results)
    print(f"{len(results) - failed}/{len(results)} invariants passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY


# The flag table, {command: {--flag: config key}}: only sweep takes choi_file and grid
_FLAGS = {command: {"--" + key.replace("_", "-"): key for key in (*_DEFAULTS, "config")
                    if command == "sweep" or key not in ("choi_file", "grid")}
          for command in ("apply", "choi", "sweep", "verify")}


def _help(command) -> str:
    """The --help text of command, or of qutritsim for None, from the flag table."""
    flags = [f"  {flag} {'{' + ','.join(_CHOICES[key]) + '}' if key in _CHOICES else key.upper()}"
             for flag, key in _FLAGS.get(command, {}).items()] or ["COMMAND -h lists its flags"]
    return "\n".join([f"usage: qutritsim {command or '{' + ','.join(_FLAGS) + '}'}"
                      " [--FLAG VALUE | --FLAG=VALUE]...", "  -h, --help", *flags])


def _parse_argv(argv):
    """(command, {config key: value}) of argv, the dict None for -h or --help
    (the command too, before a command).  A VALUE that looks like a flag ("-"
    then a non-digit) is missing; int() converts shots, seed and grid."""
    command, *tokens = argv or [""]
    if command in ("-h", "--help"):
        return None, None
    if command not in _FLAGS:
        raise ConfigError(f"command must be one of {', '.join(_FLAGS)}, got {command!r}")
    flags, args, tokens = _FLAGS[command], {}, iter(tokens)
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        flag, eq, value = token.partition("=")
        if flag not in flags:
            raise ConfigError(f"{command} does not take {token!r}")
        if not eq:
            value = next(tokens, None)
            if value is None or len(value) > 1 and value[0] == "-" and not value[1].isdecimal():
                raise ConfigError(f"{flag} needs a value")
        key = flags[flag]
        try:
            args[key] = int(value) if key in ("shots", "seed", "grid") else value
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {value!r}") from None
    return command, args


# Longest error message printed.  Messages echo input values (a channel name,
# a noise value, a key, a path) that may fill the whole 64 KiB input budget
# or hold a line break; one short line stays readable and greppable.
MAX_ERROR_CHARS = 500


def _fail(kind, exc, code) -> int:
    """Print exc as one stderr line '<kind> error: ...'; return code."""
    text = str(exc).replace("\r", "\\r").replace("\n", "\\n")
    cut = text[:MAX_ERROR_CHARS - 3] + "..." if len(text) > MAX_ERROR_CHARS else text
    print(f"{kind} error: {cut}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        command, args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(_help(command))
            return EXIT_OK
        cfg = _merge_config(args)
        if command == "verify":
            return cmd_verify(cfg)
        print({"apply": cmd_apply, "choi": cmd_choi, "sweep": cmd_sweep}[command](cfg))
        return EXIT_OK
    except (ConfigError, enc.DegenerateProjectionError) as exc:
        return _fail("config", exc, EXIT_CONFIG)
    except cp.RoutingError as exc:
        return _fail("routing", exc, EXIT_ROUTING)
    except cc.ResourceError as exc:
        return _fail("resource", exc, EXIT_CONFIG)


if __name__ == "__main__":
    sys.exit(main())
