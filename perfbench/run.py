"""eltsim benchmark: one command, four workloads, every metric by name and unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {cold_cli,sweep_map,dense_profile,verify_box}
                             --seed N --seconds S --trace {0,1}

One client drives eltsim in a closed loop: it sends the next operation only
after the previous one has returned and its output has been checked. The
warm workloads run every operation in one long-lived worker process
(``worker.py``); ``cold_cli`` starts a fresh ``python -m eltsim.cli`` per
operation. Inputs come from ``--seed`` alone and live in a temporary
directory under the checkout that is removed at the end.

``--trace 0`` prints the end-to-end metrics. Operation times appear twice:
in seconds, and divided by the time of a reference measured beside them
(unit ref: a kernel, or for ``cold_cli`` an interpreter start, see
``calibration.py``); the JSON line carries the latter,
which the shared machine's drift in speed hardly moves. ``--trace 1`` runs
each operation twice, untraced and then with every public eltsim function
rebound to a timer (``tracing.py``), and prints per-layer self time and call
counts. The last line of output is one JSON object: correct, attempted,
failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from importlib import metadata

import calibration
from workloads import WORKLOADS, Op, Outcome

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_IMPORTS = 5  # fresh `import eltsim.cli` interpreters timed for setup_s
IMPORTTIME_RUNS = 3
WARMUP_OPS = 2  # warm workloads: operations run before timing starts
TRACE_MIN_OPS = 5
CALIBRATE_EVERY_S = 0.25
KERNEL_REPEATS = 3  # kernel runs per calibration on a warm workload; a cold one starts one interpreter
KERNEL_WINDOW_S = 2.0  # an operation is divided by the median kernel time within this distance
MAX_PASS_S = 75.0  # a pass and its set-up stay well within three minutes
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Layers the traced run reports, each with the end-to-end metric and
# workload that a change to it should move.
LAYER_FUNCTIONS = {
    "params.load_config": "work_per_ref on sweep_map",
    "params.derive": "work_per_ref on sweep_map",
    "closedform.build_ztable": "work_per_ref on sweep_map",
    "closedform.build_coefficients": "work_per_ref on sweep_map; calls = solves per operation",
    "closedform.psi12": "work_per_ref on sweep_map",
    "closedform.psi21": "work_per_ref on sweep_map",
    "intensity.elt_intensity": "work_per_ref on sweep_map and dense_profile",
    "intensity.default_grid": "work_per_ref on sweep_map and dense_profile",
    "intensity.aggregate_visibility": "work_per_ref on sweep_map",
    "intensity.branch_intensity": "work_per_ref on dense_profile",
    "gaussians.chain_exotic": "work_per_ref on dense_profile",
    "gaussians.chain_nonexotic": "work_per_ref on dense_profile",
    "gaussians.GaussianForm.evaluate": "work_per_ref on dense_profile",
    "marking.post_slit_state": "work_per_ref on dense_profile",
    "marking.measure_internal": "work_per_ref on dense_profile",
    "marking.reduce_center_of_mass": "work_per_ref on dense_profile",
    "oracle.looped_path_value": "work_per_ref on verify_box",
    "verification.ztable_consistency": "work_per_ref on verify_box",
    "verification.coefficient_terms": "work_per_ref on verify_box",
    "verification.closed_vs_chain": "work_per_ref on verify_box",
    "verification.chain_vs_quadrature": "work_per_ref on verify_box",
    "cli.profile_csv": "work_per_ref on dense_profile",
    "cli.write_manifest": "work_per_ref on dense_profile and sweep_map",
    "cli.main": "work_per_ref on dense_profile and sweep_map (row formatting)",
}
IMPORT_LAYERS = ("numpy", "scipy", "eltsim")  # setup_s and cold_cli; nothing on warm workloads


def log(line: str):
    print(line, flush=True)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ---- set-up ------------------------------------------------------------------


def time_import(root: str, env: dict, extra=()) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *extra, "-c", "import eltsim.cli"],
        cwd=root, env=env, capture_output=True, text=True, timeout=60,
    )
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"import eltsim.cli failed: {done.stderr.strip()[-500:]}")
    return wall, done.stderr


def import_layers(importtime: str) -> dict[str, float]:
    """Seconds of `import eltsim.cli` spent importing numpy, scipy and the rest,
    from `-X importtime`. A module is charged to the outermost numpy or scipy
    import it happens under, so what scipy pulls in counts as scipy."""
    entries = []  # (depth, top-level package, self us); children print before their parent
    for line in importtime.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            own, _, name = line[len("import time:"):].split("|")
            entries.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip().split(".")[0], int(own)))
    spent = Counter()
    ancestors = []  # (depth, package), outermost first
    for depth, package, own in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        chain = [p for _, p in ancestors] + [package]
        if chain[0] == "eltsim":
            spent[next((p for p in chain if p in ("numpy", "scipy")), "eltsim")] += own
        ancestors.append((depth, package))
    return {layer: spent[layer] / 1e6 for layer in IMPORT_LAYERS}


# ---- clients -----------------------------------------------------------------


class WarmClient:
    """A worker process that runs cli.main per request, one request at a time."""

    def __init__(self, root: str, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), root],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], trace: bool = False) -> dict:
        return self._ask({"argv": argv, "trace": trace})

    def kernel_seconds(self) -> float:
        return self._ask("calibrate")["kernel_s"]

    def _ask(self, request) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait(timeout=30)}")
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def run_cold(root: str, env: dict, argv: list[str], trace: bool) -> dict:
    """One operation in a fresh interpreter, timed from spawn to exit."""
    start = time.perf_counter()
    if trace:
        client = WarmClient(root, env)
        try:
            reply = client.run(argv, trace=True)
        finally:
            client.close()
        reply["wall_s"] = time.perf_counter() - start
        return reply
    done = subprocess.run(
        [sys.executable, "-m", "eltsim.cli", *argv], cwd=root, env=env, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - start
    exception = None
    if done.returncode == 1 and "Traceback" in done.stderr:
        exception = done.stderr.strip().splitlines()[-1].split(":")[0]
    return {"wall_s": wall, "exit": None if exception else done.returncode, "exception": exception,
            "stdout": done.stdout, "stderr": done.stderr[-2000:]}


# ---- one pass over a workload --------------------------------------------------


def execute(op: Op, run, cleanup: bool = True) -> dict:
    """Run one operation through ``run`` (argv -> reply), check it, and remove
    its files unless it is to run again."""
    reply = run(op.argv)
    outcome = Outcome(reply["exit"], reply["exception"], reply["stdout"])
    problem = op.check(outcome)
    bytes_out = sum(os.path.getsize(p) for p in op.outputs if p.endswith((".csv", ".txt", ".json")) and os.path.exists(p))
    for path in op.outputs if cleanup else ():
        if os.path.exists(path):
            os.remove(path)
    return {"wall_s": reply["wall_s"], "work": op.work, "problem": problem, "argv": op.argv,
            "outcome": "ok" if outcome.exit == 0 else (outcome.exception or f"exit {outcome.exit}"),
            "cause": op.verdict.get("cause"), "bytes_out": bytes_out,
            "self_s": reply.get("self_s"), "calls": reply.get("calls")}


def run_pass(root: str, env: dict, tmp: str, workload: str, seed: int, seconds: float) -> dict:
    """Operations of one workload for ``seconds`` (and at least its min_ops),
    with the reference timed before an operation at most every
    CALIBRATE_EVERY_S seconds: the kernel in the worker, or for a cold
    workload the start of a fresh interpreter."""
    cold, min_ops = WORKLOADS[workload].cold, WORKLOADS[workload].min_ops
    ops = WORKLOADS[workload].stream(random.Random(seed), tmp)
    client = None if cold else WarmClient(root, env)
    run = (lambda argv: run_cold(root, env, argv, False)) if cold else client.run
    if cold:
        kernel, repeats = (lambda: calibration.start_seconds(root, env)), 1
    else:
        kernel, repeats = client.kernel_seconds, KERNEL_REPEATS
    samples, kernels = [], []  # kernels: (time, kernel seconds)
    try:
        for _ in range(0 if cold else WARMUP_OPS):
            execute(next(ops), run)
        start = time.perf_counter()
        while True:
            now = time.perf_counter()
            if (now - start >= seconds and len(samples) >= min_ops) or now - start >= MAX_PASS_S:
                break
            if not kernels or now - kernels[-1][0] >= CALIBRATE_EVERY_S:
                kernels += [(now, kernel()) for _ in range(repeats)]
            sample = execute(next(ops), run)
            sample["start"] = now
            samples.append(sample)
    finally:
        if client is not None:
            client.close()
    for sample in samples:
        near = [k for t, k in kernels if abs(t - sample["start"]) <= KERNEL_WINDOW_S]
        sample["wall_ref"] = sample["wall_s"] / statistics.median(near)
    return {"samples": samples, "kernel_s": statistics.median(k for _, k in kernels),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0}


def run_traced(root: str, env: dict, tmp: str, workload: str, seed: int, seconds: float) -> tuple[list, list]:
    """Each operation twice, untraced and traced in alternating order, for
    ``seconds`` in all; a warm workload uses one worker for both, so that the
    two runs of an operation see the same process and the same machine."""
    cold = WORKLOADS[workload].cold
    ops = WORKLOADS[workload].stream(random.Random(seed), tmp)
    client = None if cold else WarmClient(root, env)
    if cold:
        runs = (lambda argv: run_cold(root, env, argv, False), lambda argv: run_cold(root, env, argv, True))
    else:
        runs = (client.run, lambda argv: client.run(argv, trace=True))
    untraced, traced = [], []
    try:
        for _ in range(0 if cold else WARMUP_OPS):
            op = next(ops)
            execute(op, runs[0], cleanup=False)
            execute(op, runs[1])
        start = time.perf_counter()
        for n in itertools.count():
            elapsed = time.perf_counter() - start
            if (elapsed >= seconds and len(traced) >= TRACE_MIN_OPS) or elapsed >= MAX_PASS_S:
                break
            op = next(ops)
            order = (0, 1) if n % 2 == 0 else (1, 0)
            first = execute(op, runs[order[0]], cleanup=False)
            second = execute(op, runs[order[1]])
            untraced.append(first if order[0] == 0 else second)
            traced.append(second if order[0] == 0 else first)
    finally:
        if client is not None:
            client.close()
    return untraced, traced


def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (the median when
    fewer than twenty samples exist): (value, percentile, samples beyond)."""
    n = len(walls)
    p = next((p for p in TAIL_PERCENTILES if n * (1.0 - p / 100.0) >= 10), 50.0)
    value = statistics.quantiles(walls, n=1000, method="inclusive")[round(p * 10) - 1] if n > 1 else walls[0]
    return value, p, sum(1 for w in walls if w > value)


# ---- environment -----------------------------------------------------------------


def environment(root: str, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "eltsim")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        rev = done.stdout.strip() or None

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": sys.version.split()[0], "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16], "seed": seed,
    }


# ---- reporting -----------------------------------------------------------------------


def metric(metrics: dict, name: str, value: float, unit: str, note: str = ""):
    metrics[name] = {"value": value, "unit": unit}
    log(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def report_failures(samples: list[dict]):
    for s in samples:
        if s["problem"]:
            log(f"FAILED operation {' '.join(s['argv'][:1])}: {s['problem']}")


def end_to_end(workload: str, setup: list[float], result: dict) -> dict:
    """Wall times go into the JSON divided by the reference's time (unit
    ref, see calibration.py); the seconds are printed beside them."""
    samples = result["samples"]
    n = len(samples)
    unit = WORKLOADS[workload].unit
    metrics = {}
    metric(metrics, "setup_s", statistics.median(setup), "s", f"median of {len(setup)} fresh `import eltsim.cli`")
    for scale in ("wall_s", "wall_ref"):
        walls = [s[scale] for s in samples]
        value, p, beyond = tail(walls)
        rate = sum(s["work"] for s in samples) / sum(walls)
        if scale == "wall_s":
            log(f"wall_s.p50 = {statistics.median(walls)!r} s  ({n} operations)")
            log(f"wall_s.tail = {value!r} s  (p{p:g}, {beyond} of {n} samples beyond)")
            log(f"{unit}_per_s = {rate!r} 1/s")
        else:
            metric(metrics, "wall_ref.p50", statistics.median(walls), "ref", f"{n} operations")
            # printed, not in the JSON: verify_box's p95 is set by heavy quadrature
            # configurations that the machine's drift hardly slows, so dividing by
            # the kernel spreads it (quartile distance over median up to 0.24)
            log(f"wall_ref.tail = {value!r} ref  (p{p:g}, {beyond} of {n} samples beyond)")
            metric(metrics, "work_per_ref", rate, "1/ref", f"{unit} per reference time")
    log(f"kernel_s = {result['kernel_s']!r} s  (median reference time, the unit ref)")
    outcomes = Counter(s["outcome"] for s in samples)
    metric(metrics, "ok_pct", 100.0 * outcomes["ok"] / n, "%", "operations that exited 0")
    errors = {k: v for k, v in sorted(outcomes.items()) if k != "ok"}
    log(f"error_rate = {(n - outcomes['ok']) / n!r}  (by outcome: {json.dumps(errors)}; attempted {n})")
    causes = Counter(s["cause"] for s in samples if s["cause"])
    if causes:
        log(f"verify_fail_causes = {json.dumps(dict(sorted(causes.items())))}")
    metric(metrics, "peak_rss_mb", result["peak_rss_mb"], "MB", "largest RSS of the workload's processes")
    return metrics


def per_layer(imports: list[dict], untraced: list[dict], samples: list[dict]) -> dict:
    n = len(samples)
    metrics = {}
    for layer in IMPORT_LAYERS:
        metric(metrics, f"import.{layer}_s", statistics.median(i[layer] for i in imports), "s",
               f"-X importtime, median of {len(imports)}; moves setup_s and cold_cli")
    self_s, calls = Counter(), Counter()
    for s in samples:
        self_s.update(s["self_s"])
        calls.update(s["calls"])
    for name, moves in LAYER_FUNCTIONS.items():
        metric(metrics, f"{name}.self_s", self_s[name] / n, "s", f"per operation; moves {moves}")
        metric(metrics, f"{name}.calls", calls[name] / n, "count", "per operation")
    others = sorted((name for name in self_s if name not in LAYER_FUNCTIONS), key=lambda k: -self_s[k])
    for name in others:
        log(f"{name}.self_s = {self_s[name] / n!r} s  (calls {calls[name] / n:g} per operation)")
    metric(metrics, "cli.bytes_out", sum(s["bytes_out"] for s in samples) / n, "count", "bytes written per operation")
    p50_untraced = statistics.median(s["wall_s"] for s in untraced)
    p50_traced = statistics.median(s["wall_s"] for s in samples)
    metric(metrics, "trace.overhead_s", p50_traced - p50_untraced, "s",
           f"traced wall_s.p50 {p50_traced:.6g} s minus untraced {p50_untraced:.6g} s")
    metric(metrics, "trace.unattributed_pct", 100.0 * self_s["cli.main"] / n / p50_untraced, "%",
           "cli.main self time per operation over the untraced wall_s.p50: time no deeper layer accounts for")
    return metrics


# ---- main ---------------------------------------------------------------------------


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run the clean-up below when stopped
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "eltsim", "cli.py")):
        print(f"error: no eltsim source under {os.path.join(root, 'src')}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    env = child_env(root)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        log(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        log("env " + json.dumps(environment(root, args.seed)))
        time_import(root, env)  # compiles bytecode and warms the file cache
        if args.trace:
            imports = [import_layers(time_import(root, env, ("-X", "importtime"))[1]) for _ in range(IMPORTTIME_RUNS)]
            untraced, traced = run_traced(root, env, tmp, args.workload, args.seed, args.seconds)
            samples = untraced + traced
            metrics = per_layer(imports, untraced, traced)
        else:
            setup = [time_import(root, env)[0] for _ in range(SETUP_IMPORTS)]
            result = run_pass(root, env, tmp, args.workload, args.seed, args.seconds)
            samples = result["samples"]
            metrics = end_to_end(args.workload, setup, result)
        report_failures(samples)
        failed = sum(1 for s in samples if s["problem"])
        print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
