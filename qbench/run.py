"""qutritsim benchmark: one workload per run, a closed loop with one client.

    python3 qbench/run.py --workload tomo_linear --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; qutritsim is imported from its src/
directory and nowhere else.  The run sets up (import, input generation,
one untimed warm-up item) five times and reports the median as setup_s,
then runs items until --seconds have passed and at least 100 items are
done, checks every item's output, and computes the output fingerprint.
With --trace 1 it runs half the time untraced and half traced and reports
the per-layer metrics of layer_map.json instead of the end-to-end ones.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Details
(environment, fingerprint, errors, spans) go to qbench/out/.
"""

import os

# one BLAS thread: on a small machine a threaded 64x64 eigh only fights the
# scheduler.  Must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (NOISE_GRID, PAIRS, WORKLOADS, analytic_chois,  # noqa: E402
                       run_cli)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
MODULES = ("channels", "choi", "circuits", "cli", "coupling", "decompositions", "tomography")
MIN_ITEMS = 100  # p90 needs at least 10 samples beyond it
SETUP_REPS = 5
WINDOWS = 10
FINGERPRINT_SEED = 20190513


def import_qutritsim():
    """Fresh import of qutritsim from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "qutritsim" or n.startswith("qutritsim.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("qutritsim")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"qutritsim imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module("qutritsim." + m) for m in MODULES})


def set_up(name, seed, workdir, reps):
    """Import, generate inputs and run one warm-up item, ``reps`` times;
    returns the last set-up and the median calibrated and raw set-up
    times."""
    times, raw = [], []
    cal = calibrate.kernel_ms()
    for _ in range(reps):
        t0 = time.perf_counter()
        q = import_qutritsim()
        wl = WORKLOADS[name]()
        wl.setup(q, seed, workdir)
        wl.check(0, wl.item(0))
        raw.append(time.perf_counter() - t0)
        cal_next = calibrate.kernel_ms()
        times.append(raw[-1] * calibrate.scale(cal, cal_next))
        cal = cal_next
    return q, wl, statistics.median(times), statistics.median(raw)


def closed_loop(wl, first, seconds, min_items, tracer=None):
    """Items first, first+1, ... until ``seconds`` have passed and at least
    ``min_items`` ran.  ``lat`` holds each item's calibrated time and
    ``raw`` its wall time.  A failed item is counted, never fatal."""
    lat, raw, fids, errors = [], [], [], []
    k = first
    end = time.perf_counter() + seconds
    cal = calibrate.kernel_ms()
    while time.perf_counter() < end or len(lat) < min_items:
        if tracer is not None:
            tracer.item, tracer.active = k, True
        t0 = time.perf_counter()
        try:
            try:
                out = wl.item(k)
            finally:
                raw.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.active = False
                cal_next = calibrate.kernel_ms()
                lat.append(raw[-1] * calibrate.scale(cal, cal_next))
                cal = cal_next
            fids.append(wl.check(k, out))
        except Exception as exc:  # counted in error_frac; the run goes on
            errors.append(f"item {k}: {type(exc).__name__}: {exc}")
        k += 1
    return SimpleNamespace(lat=lat, raw=raw, fids=fids, errors=errors, first=first, next=k)


def items_per_s(lat):
    """Median over WINDOWS consecutive equal windows of items per second of
    item time; the median keeps a burst of outside load from moving it."""
    w = max(len(lat) // WINDOWS, 1)
    return statistics.median(w / sum(lat[i:i + w]) for i in range(0, len(lat) - w + 1, w))


def fidelity_mean(fids, cycle):
    """Mean over whole input cycles, so the mix does not depend on where
    the clock stopped."""
    whole = len(fids) // cycle * cycle
    return float(np.mean(fids[:whole] if whole else fids))


def fingerprint(q, workdir):
    """Rounded hash of the exact-mode linear and direct Choi matrices of ls
    and wh, one fixed-seed noisy direct estimate, and the 36 sweep rows of
    that estimate.  Values are rounded to 1e-10, so a 1e-15 reordering
    passes and a 1e-9 change does not.  Also checks the exact-mode matrices
    against the analytic ones."""
    analytic = analytic_chois(q)
    parts, worst = [], 0.0
    for channel in ("ls", "wh"):
        for method in ("linear", "direct"):
            path = run_cli(q, ["choi", "--channel", channel, "--choi-method", method,
                               "--shots", "0", "--out", workdir])
            with open(path) as f:
                omega = q.choi.choi_from_json(json.load(f))
            worst = max(worst, float(np.abs(omega - analytic[channel]).max()))
            parts.append(omega)
    noise = os.path.join(workdir, "fingerprint_noise.json")
    with open(noise, "w") as f:
        json.dump(NOISE_GRID[1], f)
    path = run_cli(q, ["choi", "--channel", "ls", "--choi-method", "direct", "--shots", "100000",
                       "--seed", str(FINGERPRINT_SEED), "--noise", noise, "--out", workdir])
    with open(path) as f:
        noisy = q.choi.choi_from_json(json.load(f))
    parts.append(noisy)
    parts.append(np.array([q.tomography.channel_fidelity_sweep(noisy, q.channels.ls_apply, a, b)
                           for a, b in PAIRS]))
    h = hashlib.sha256()
    for p in parts:
        p = np.asarray(p, dtype=complex)
        for v in (np.round(p.real, 10) + 0.0, np.round(p.imag, 10) + 0.0):  # +0.0 folds -0.0
            h.update(";".join(f"{x:.10f}" for x in v.ravel()).encode())
    return h.hexdigest()[:16], worst


def _read(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    direct = _read(os.path.join(git, ref))
    if direct:
        return direct
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def environment():
    cpu = "unknown"
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "commit": git_commit()}


def timing(lat, setup_s):
    return {
        "items_per_s": (items_per_s(lat), "1/s"),
        "latency_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms"),
        "latency_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def end_to_end(loop, wl, setup_s):
    return {
        **timing(loop.lat, setup_s),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "fidelity_mean": (fidelity_mean(loop.fids, wl.cycle), "1"),
    }


def run(workload, seed, seconds, trace, min_items=MIN_ITEMS, setup_reps=SETUP_REPS):
    """One benchmark run; prints the report and returns the result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        q, wl, setup_s, setup_raw = set_up(workload, seed, workdir, 1 if trace else setup_reps)
        tracer = None
        if trace:
            plain = closed_loop(wl, 1, seconds / 2, min(min_items, 10))
            tracer = Tracer()
            tracer.install()
            try:
                loop = closed_loop(wl, plain.next, seconds / 2, min(min_items, 10), tracer)
            finally:
                tracer.uninstall()
            scales = {loop.first + i: c / r for i, (c, r) in enumerate(zip(loop.lat, loop.raw))}
            metrics = tracer.layer_metrics(len(loop.lat), scales)
            base = items_per_s(plain.lat)
            metrics["trace.overhead_pct"] = (100 * (base - items_per_s(loop.lat)) / base,
                                             tracer.unit("trace.overhead_pct"))
            loop.errors += plain.errors
            attempted = len(loop.lat) + len(plain.lat)
        else:
            loop = closed_loop(wl, 1, seconds, min_items)
            metrics = end_to_end(loop, wl, setup_s)
            attempted = len(loop.lat)
        errors = list(loop.errors)
        try:
            fp, fp_dev = fingerprint(q, workdir)
        except Exception as exc:  # a broken program fails the run, with a result
            fp, fp_dev = "unavailable", float("nan")
            errors.append(f"fingerprint: {type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(loop.errors)
    if not fp_dev <= 1e-9 and fp != "unavailable":
        errors.append(f"exact-mode Choi differs from analytic by {fp_dev:.3e}")
    env = environment()
    tag = f"{workload}_s{seed}_t{int(trace)}"
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, f"spans_{tag}.txt.gz"))

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload} seed {seed} trace {int(trace)}: closed loop, 1 client, "
          f"{attempted} items attempted ({len(loop.lat)} timed samples), {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    raw = timing(loop.raw, setup_raw)
    print("raw wall clock, uncalibrated: " + ", ".join(f"{k} {v:.4f} {u}" for k, (v, u) in raw.items()))
    print(f"  {'error_frac':40s} {failed / attempted:14.6f} 1")
    print(f"fingerprint {fp} (exact-mode Choi max deviation from analytic {fp_dev:.2e})")
    for e in errors[:5]:
        print(f"error: {e}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(os.path.join(OUT_DIR, f"result_{tag}.json"), "w") as f:
        json.dump(dict(result, env=env, fingerprint=fp, error_frac=failed / attempted,
                       raw_wall_clock={k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
                       errors=errors[:50]), f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qutritsim")):
        print(f"qutritsim sources not found under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    try:
        run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import qutritsim: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
