"""Closed-loop benchmark of hamfam's exact certificates and complex flows.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 50 --trace 0

One process, one thread, one caller: each operation starts when the previous
one returns.  A run makes one warm-up pass over the workload's operations,
then repeats the pass until ``--seconds`` have gone by, timing every
operation.  Outputs are checked outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  Both sets are
named, with their units, in ``BENCHMARK.json``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
report, with provenance and the aggregated spans, goes to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOAD_NAMES = ("certify", "flow")
SETUP_PROBES = 11
PROCESS_PROBES = 3
PROBE_TIMEOUT_S = 60

# the child of the setup_s probe: it imports only the workloads module (and
# through it hamfam), not this harness
SETUP_CHILD = ("import sys, workloads; "
               "workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])); "
               "print('ready', flush=True)")


def metric_units() -> tuple[dict, dict]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in bench[kind]}
                  for kind in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    return env


# -- fresh-interpreter probes ---------------------------------------------------

def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning an interpreter until it reports ready."""
    cmd = [sys.executable, "-c", SETUP_CHILD, workload, str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(),
                          cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(PROBE_TIMEOUT_S)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe failed (exit {code}): {line!r}")
    return ready


def import_probe() -> tuple[float, float]:
    """(hamfam, numpy) cumulative import seconds from ``-X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import hamfam"], capture_output=True, text=True,
                          env=child_env(), cwd=ROOT, timeout=PROBE_TIMEOUT_S,
                          check=True)
    found = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        name = fields[-1].strip()
        if name in ("hamfam", "numpy") and name not in found:
            found[name] = int(fields[1]) / 1e6
    return found["hamfam"], found.get("numpy", 0.0)


def cli_probe(gate) -> float:
    """Wall seconds of one ``hamfam verify --family autonomous5`` process."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hamfam.cli", "verify",
                           "--family", "autonomous5"], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT,
                          timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - start
    gate.record("hamfam verify --family autonomous5",
                None if proc.returncode == 0 else
                f"exit {proc.returncode}: {proc.stdout[-200:]}")
    return wall


# -- the closed loop -----------------------------------------------------------------

class OpError:
    """An operation raised; kept as its result so the gate counts it."""

    def __init__(self, exc: BaseException):
        self.text = f"raised {type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, OpError) and self.text == other.text


def timed_pass(ops):
    """Run every operation once: (wall, per-op seconds, results, context)."""
    ctx = {}
    times, results = [], []
    start = time.perf_counter()
    for op in ops:
        t = time.perf_counter()
        try:
            result = op.run(ctx)
        except Exception as exc:  # a failing operation must not stop the loop
            result = OpError(exc)
        times.append(time.perf_counter() - t)
        results.append(result)
    return time.perf_counter() - start, times, results, ctx


class Record:
    """What a run keeps from its passes, in memory that does not grow with
    their number: the first pass's outputs and context, each operation's
    fastest time, and which operations ever reproduced a different output.
    The first pass warms caches and gives the outputs the gate checks.

    Timings use each operation's fastest time over the passes: the CPU speed
    of a shared machine drifts in phases of seconds, and an operation's
    fastest repetition is far steadier from run to run than a median over
    passes, while it still moves with the work the operation does."""

    def __init__(self, ops):
        from workloads import fingerprint
        self._fingerprint = fingerprint
        self.ops = ops
        _, _, self.first, self.ctx = timed_pass(ops)
        self.reference = [fingerprint(r) for r in self.first]
        self.best = [math.inf] * len(ops)
        self.runs = 1
        self.differs: set[int] = set()

    def timed_pass(self) -> float:
        wall, times, results, _ = timed_pass(self.ops)
        self.runs += 1
        self.best = list(map(min, self.best, times))
        for i, result in enumerate(results):
            if self._fingerprint(result) != self.reference[i]:
                self.differs.add(i)
        return wall


class Gate:
    """Counts attempted and failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, name: str, reason: str | None, weight: int = 1) -> None:
        self.attempted += weight
        if reason is None:
            return
        self.failed += weight
        self.failures.append(f"{name}: {reason}")


def gate_operations(workload, record: Record, gate: Gate) -> None:
    """Check the first pass's outputs; every later pass must reproduce them.
    A verdict counts once for each run of the operation."""
    for i, op in enumerate(workload.ops):
        result = record.first[i]
        if isinstance(result, OpError):
            reason = result.text
        else:
            try:
                reason = op.check(result, record.ctx)
            except Exception as exc:  # a check that cannot run is a failure
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and i in record.differs:
            reason = "output differs between passes"
        gate.record(op.name, reason, record.runs)


def gate_mutations(workload, gate: Gate) -> None:
    from workloads import MUTATION_DIGESTS, mutation_digest, residual_is_zero
    for name, make_residual in workload.mutations.items():
        residual = make_residual()
        digest = mutation_digest(residual)
        if residual_is_zero(residual):
            reason = "sign-flip mutation passed: the certificate is vacuous"
        elif digest != MUTATION_DIGESTS[name]:
            reason = f"mutation residual digest {digest} differs from the " \
                     f"recorded {MUTATION_DIGESTS[name]}"
        else:
            reason = None
        gate.record(f"{name} sign-flip control", reason)


# -- metrics -----------------------------------------------------------------------

def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def provenance(args, samples: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hamfam")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "samples": samples,
    }


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


# -- the two kinds of run ------------------------------------------------------------

def run_untraced(args, workload, gate: Gate, units: dict):
    # the first probe writes the bytecode caches and is not counted; the
    # rest are spread evenly over the passes, so that the median samples the
    # machine over the whole run rather than in one burst
    setup_probe(args.workload, args.seed)
    probes = []
    start = time.perf_counter()
    record = Record(workload.ops)
    walls = []
    while not walls or time.perf_counter() - start < args.seconds:
        walls.append(record.timed_pass())
        if len(probes) * args.seconds \
                < SETUP_PROBES * (time.perf_counter() - start):
            probes.append(setup_probe(args.workload, args.seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += [setup_probe(args.workload, args.seed)
               for _ in range(SETUP_PROBES - len(probes))]

    gate_operations(workload, record, gate)
    gate_mutations(workload, gate)
    best = record.best
    metrics = {
        "setup_s": statistics.median(probes),
        "pass_s": sum(best),
        "op_p90_ms": p90(best) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    samples = {"setup_probes": len(probes), "passes": len(walls),
               "ops_per_pass": len(workload.ops),
               "op_samples": len(walls) * len(workload.ops)}
    groups = {}
    for op, t in zip(workload.ops, best):
        groups[op.group] = groups.get(op.group, 0.0) + t
    oracle = record.ctx.get("oracle_err")
    extra = {**{f"pass_s[{g}]": t for g, t in groups.items()},
             "pass_median_s": statistics.median(walls),
             "oracle_err": max(oracle) if oracle else None,
             "pinned": record.ctx.get("pinned", [])}
    return metrics, samples, extra, {}


def run_traced(args, workload, gate: Gate, units: dict):
    import hamfam
    from tracing import Tracer

    counts = [name for name, unit in units.items() if unit == "count"]

    imports = [import_probe() for _ in range(PROCESS_PROBES + 1)][1:]
    cli_walls = [cli_probe(gate) for _ in range(PROCESS_PROBES)]

    tracer = Tracer(hamfam)
    start = time.perf_counter()
    record = Record(workload.ops)
    untraced, snaps = [], []
    while not snaps or time.perf_counter() - start < args.seconds:
        untraced.append(record.timed_pass())
        tracer.install()
        try:
            tracer.begin()
            snaps.append(tracer.end(record.timed_pass()))
        finally:
            tracer.uninstall()

    gate_operations(workload, record, gate)
    gate_mutations(workload, gate)
    for name in counts:
        if len({snap[name] for snap in snaps}) != 1:
            gate.record(f"trace count {name}", "differs between passes")

    metrics = {name: statistics.median(snap[name] for snap in snaps)
               for name in snaps[0]}
    for name in counts:
        metrics[name] = snaps[0][name]
    metrics["trace.untraced_wall_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - metrics["trace.untraced_wall_s"])
    metrics["import.hamfam_s"] = statistics.median(i[0] for i in imports)
    metrics["import.numpy_s"] = statistics.median(i[1] for i in imports)
    metrics["cli.verify_process_s"] = statistics.median(cli_walls)
    samples = {"traced_passes": len(snaps), "untraced_passes": len(untraced),
               "ops_per_pass": len(workload.ops),
               "import_probes": len(imports), "cli_probes": len(cli_walls)}
    busy = sum(v for k, v in snaps[-1].items() if k.endswith(".busy_s"))
    extra = {"self_time_check_s": busy + snaps[-1]["trace.remainder_s"]
             - snaps[-1]["trace.wall_s"]}
    return metrics, samples, extra, {"spans": tracer.span_tree()}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "hamfam", "__init__.py")):
        print("error: src/hamfam not found; run from the repository root",
              file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    from tracing import TARGETS
    from workloads import WORKLOADS

    end_to_end, per_layer = metric_units()
    units = per_layer if args.trace else end_to_end
    workload = WORKLOADS[args.workload](args.seed)
    gate = Gate()
    runner = run_traced if args.trace else run_untraced
    metrics, samples, extra, detail = runner(args, workload, gate, units)
    if metrics.keys() != units.keys() or TARGETS.keys() != per_layer.keys():
        raise RuntimeError("the measured metrics, tracing.TARGETS and "
                           "BENCHMARK.json name different metrics")

    report = {
        "provenance": provenance(args, samples),
        "fail_ratio": gate.failed / gate.attempted,
        "failures": gate.failures,
        "metrics": metrics, **extra, **detail,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"samples={json.dumps(samples)}")
    for name, value in metrics.items():
        target = f"-> {TARGETS[name]}" if args.trace else ""
        print(f"  {name:32s} {fmt(value):>14s} {units[name]:6s} {target}")
    for name, value in extra.items():
        print(f"  {name:32s} {fmt(value):>14s}")
    print(f"  fail_ratio {gate.failed}/{gate.attempted}")
    for line in gate.failures:
        print(f"  FAIL {line}")
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json")
    with open(out, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
