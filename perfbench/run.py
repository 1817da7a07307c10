"""stabilab benchmark: time per validated report, on four workloads.

One run sets up a workload, then repeats passes of it for ``--seconds``;
a pass produces the workload's reports and checks them (see
workloads.py). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload ridge-tail --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, measured untraced:
``run_ref`` (median pass time in units of a reference loop timed during
the pass, see :class:`HostClock`), ``setup_s`` (median time to import
stabilab and validate the workload, over one in-process and four
fresh-interpreter set-ups, in seconds at a nominal host speed) and
``peak_rss_mib``. The wall seconds of both, ``run_s`` for the median
pass, are printed beside them. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics: each layer's
share of the traced pass time, its call count, the named counters and the
tracing overhead. ``--workload all`` runs every workload both ways in
child processes and prints one table.

BLAS and OpenMP are pinned to one thread before numpy is imported. Result
files and the spans of traced passes go to perfbench/out/.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ridge-tail", "sgd-tail", "rerm-lp", "mc-tail")
DEFAULT_SEED = 20250815
SETUP_SAMPLES = 5
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
REFERENCE_INTERVAL_S = 0.02
REFERENCE_LOOP = 3000
# setup_s is reported in seconds at the host speed where one HostClock
# unit takes this long.
NOMINAL_UNIT_S = 0.0002


def timed_setup(workload: str, seed: int, clock):
    """Import stabilab and validate the workload.

    Returns the pass, the wall seconds and the seconds at the nominal host
    speed (``NOMINAL_UNIT_S`` per :class:`HostClock` unit).
    """
    clock.start()
    start = time.perf_counter()
    try:
        import workloads

        run_pass = workloads.setup(workload, seed, str(OUT))
    finally:
        seconds = time.perf_counter() - start
        sampling, unit = clock.stop()
    return run_pass, seconds - sampling, (seconds - sampling) / unit * NOMINAL_UNIT_S


def fresh_setup_seconds(workload: str, seed: int):
    """Set-up (wall, nominal) seconds in a new interpreter, as every run pays."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    wall, nominal = done.stdout.strip().splitlines()[-1].split()
    return float(wall), float(nominal)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _openblas_call(name: str, restype):
    """Call an OpenBLAS query in the library numpy loaded, or return None."""
    try:
        with open("/proc/self/maps") as fh:
            libraries = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in (f"scipy_openblas_{name}64_", f"openblas_{name}64_", f"openblas_{name}"):
            fn = getattr(library, symbol, None)
            if fn is not None:
                fn.restype = restype
                return fn()
    return None


def environment() -> dict:
    """Versions and thread settings; BLAS as numpy loaded it at run time."""
    import numpy as np

    config = _openblas_call("get_config", ctypes.c_char_p)
    if config is None:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{build['name']} {build['version']} (build)"
    else:
        blas = " ".join(config.decode().split())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_call("get_num_threads", ctypes.c_int),
        "nproc": os.cpu_count(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
    }


def pin_status(workload: str, seed: int, digest: str, env: dict) -> str:
    """'match', 'mismatch' or 'unpinned' against perfbench/pins.json."""
    from stabilab.lab import ARTIFACT_VERSION

    key = f"{ARTIFACT_VERSION} blas_threads={env['blas_threads']} numpy {env['numpy']} {env['blas']}"
    pins = json.loads((HERE / "pins.json").read_text())
    pinned = pins.get(key, {}).get(f"{workload} seed={seed}")
    if pinned is None:
        return "unpinned"
    return "match" if pinned == digest else "mismatch"


class HostClock:
    """The host's speed over a pass or a set-up, as a reference unit of time.

    On a shared host the same pass can take twice as long in one minute as
    in the next, as other tenants load the cores: on a 2-vCPU x86_64 VM a
    fixed pure-Python loop read 0.13 s in some minutes and 0.23 s in
    others. So every ``REFERENCE_INTERVAL_S`` of an untraced pass or a
    set-up, SIGALRM runs a fixed pure-Python loop and times it. The median
    of these samples is the unit, taken over the same seconds as the work
    it measures; the work's time divided by it is its time at a fixed host
    speed. The loop calls no stabilab code, so a change to stabilab moves
    the work's time but not the unit. The samples' own time is taken out
    of the work's time. Of three loops tried (pure Python, numpy on 512 KiB,
    numpy on 8 MiB), the pure-Python one followed the workloads best.
    """

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples.clear()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_INTERVAL_S, REFERENCE_INTERVAL_S)

    def stop(self):
        """Stop sampling; return (seconds spent sampling, the unit)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if not self.samples:
            self._sample(None, None)
            return 0.0, self.samples[0]
        return sum(self.samples), statistics.median(self.samples)


class Passes:
    """Runs passes, times them and records which ones failed."""

    def __init__(self, run_pass, clock):
        self.run_pass = run_pass
        self.clock = clock
        self.times = {"untraced": [], "traced": []}  # seconds per pass
        self.refs = []  # untraced pass times in HostClock units
        self.digests = []
        self.failed = 0

    def run(self, tracer=None, timed=True) -> None:
        pass_id = len(self.digests)
        start = time.perf_counter()
        try:
            if tracer is None:
                self.clock.start()
                try:
                    digest, problems = self.run_pass()
                finally:
                    sampling, unit = self.clock.stop()
            else:
                tracer.install()
                try:
                    digest, problems = tracer.run_pass(pass_id, self.run_pass)
                finally:
                    tracer.uninstall()
        except Exception:
            traceback.print_exc()
            digest, problems = None, ["raised"]
        seconds = time.perf_counter() - start
        if timed and tracer is None:
            self.times["untraced"].append(seconds - sampling)
            self.refs.append((seconds - sampling) / unit)
        elif timed:
            self.times["traced"].append(seconds)
        if self.digests and digest != self.digests[0]:
            problems = problems + [f"digest {digest} differs from the first pass"]
        self.digests.append(digest)
        if problems:
            self.failed += 1
            print(f"pass {pass_id} failed: {problems}", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return len(self.digests)


def measure(args) -> int:
    if not (SRC / "stabilab" / "__init__.py").is_file():
        print(f"no stabilab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    clock = HostClock()
    run_pass, *first_setup = timed_setup(args.workload, args.seed, clock)
    if args.setup_only:
        print(*map(repr, first_setup))
        return 0
    setups = [tuple(first_setup)] + [
        fresh_setup_seconds(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    env = environment()
    passes = Passes(run_pass, clock)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    # A warm-up pass, checked but not timed, keeps first-call costs out of
    # the median. Then repeat passes (an untraced and a traced one when
    # tracing) until one more, at the mean time so far, would end past
    # --seconds, counted from the warm-up's start.
    minimum = MIN_TRACED_PASSES if tracer else MIN_PASSES
    start = time.perf_counter()
    passes.run(timed=False)
    loop_start = time.perf_counter()
    while True:
        passes.run()
        if tracer is not None:
            passes.run(tracer)
        done = len(passes.times["untraced"])
        now = time.perf_counter()
        if done >= minimum and now - start + (now - loop_start) / done > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = passes.digests[0]
    pin = pin_status(args.workload, args.seed, digest, env)
    if pin == "mismatch":
        passes.failed = passes.attempted
    untraced = passes.times["untraced"]
    q1, run_s, q3 = quartiles(untraced)
    ref_q1, run_ref, ref_q3 = quartiles(passes.refs)
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        f"env {json.dumps(env, sort_keys=True)}",
        f"digest {digest} pin {pin}",
        f"failed_share {passes.failed / passes.attempted} ({passes.failed}/{passes.attempted} passes)",
        f"run_s {run_s:.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, {len(untraced)} untraced passes)",
        f"run_ref {run_ref:.1f} ref (q1 {ref_q1:.1f}, q3 {ref_q3:.1f}; "
        f"run_s / run_ref = {run_s / run_ref * 1e3:.4f} ms)",
    ]
    if tracer is None:
        metrics = {
            "run_ref": (run_ref, "ref"),
            "setup_s": (statistics.median(nominal for _, nominal in setups), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        lines.append(f"setup_s samples {[round(nominal, 4) for _, nominal in setups]}")
        lines.append(f"setup wall seconds {[round(wall, 4) for wall, _ in setups]}")
    else:
        metrics, table = traced_metrics(tracer, passes, run_s)
        lines += table
        tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    result = {
        "correct": passes.failed == 0,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "digest": digest,
        "pin": pin,
        "pass_seconds": passes.times,
        "pass_refs": passes.refs,
        "run_s": run_s,
        "setup_seconds": [wall for wall, _ in setups],
        "setup_nominal_seconds": [nominal for _, nominal in setups],
        **result,
    }
    record_path(args.workload, args.seed, args.trace).write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


def traced_metrics(tracer, passes, run_s):
    from tracing import ALL_LAYERS

    traced = passes.times["traced"]
    self_s, calls = tracer.self_times()
    total = sum(self_s.values())
    traced_run_s = statistics.median(traced)
    metrics = {}
    table = [
        f"traced run_s {traced_run_s:.4f} s over {len(traced)} traced passes; "
        f"layer self_s sum to {total / len(traced):.4f} s, the mean traced pass"
    ]
    for layer in ALL_LAYERS:
        share = 100.0 * self_s[layer] / total
        metrics[f"{layer}.self_share"] = (share, "%")
        metrics[f"{layer}.calls"] = (calls[layer] / len(traced), "count")
        table.append(
            f"  {layer:<16} self_s {self_s[layer] / len(traced):9.4f} s  "
            f"{share:6.2f} %  calls {calls[layer] / len(traced):g}"
        )
    for name, (value, unit) in tracer.count_metrics(len(traced)).items():
        metrics[name] = (value, unit)
        table.append(f"  {name} {value:g}")
    metrics["trace.run_s"] = (traced_run_s, "s")
    metrics["trace.overhead_s"] = (traced_run_s - run_s, "s")
    table.append(f"trace.overhead_s {traced_run_s - run_s:.4f} s")
    if tracer.missing:
        table.append(f"entry points not found: {tracer.missing}")
    return metrics, table


def record_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_all(args) -> int:
    """Every workload, untraced and traced, each in its own process."""
    records = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [sys.executable, __file__, "--workload", workload]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            done = subprocess.run(command + ["--trace", str(trace)], timeout=900)
            if done.returncode != 0:
                print(f"{workload} trace {trace} exited with {done.returncode}", file=sys.stderr)
                return done.returncode
            record = json.loads(record_path(workload, args.seed, trace).read_text())
            records.setdefault(workload, {})["traced" if trace else "untraced"] = record
    print()
    print(
        f"{'workload':<12} {'run_s (q1, q3, passes)':>32} {'run_ref':>9} "
        f"{'setup_s':>9} {'peak_rss_mib':>14} {'failed_share':>13}"
    )
    for workload, runs in records.items():
        untraced = runs["untraced"]
        m = {name: entry["value"] for name, entry in untraced["metrics"].items()}
        q1, _, q3 = quartiles(untraced["pass_seconds"]["untraced"])
        passes = len(untraced["pass_seconds"]["untraced"])
        failed = sum(r["failed"] for r in runs.values())
        attempted = sum(r["attempted"] for r in runs.values())
        print(
            f"{workload:<12} {untraced['run_s']:9.4f} s ({q1:.4f}, {q3:.4f}, {passes:2d}) "
            f"{m['run_ref']:9.1f} {m['setup_s']:7.4f} s {m['peak_rss_mib']:10.2f} MiB {failed / attempted:13.3f}"
        )
    path = OUT / f"all-seed{args.seed}.json"
    path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"records in {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time one set-up in this interpreter, print the seconds and exit",
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        OUT.mkdir(exist_ok=True)
        return run_all(args)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
