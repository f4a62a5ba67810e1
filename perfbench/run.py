"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cert-401 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from any directory; the package is imported from the `src/` next to
this directory, never from an installed copy.  One workload runs in this
process, single-threaded: numpy and BLAS thread variables are set to 1
before numpy loads, and HMOLS_BUDGET is removed (searches get --budget).
`--workload all` runs each workload in its own process, one after
another.

The process runs passes over the workload's fixed list of operations
while another pass fits in --seconds (at least one, and two when the first
ends within --seconds).  With --trace 0 the
last line of stdout is {"correct", "attempted", "failed", "metrics"} with
the end-to-end metrics of BENCHMARK.json.  With --trace 1 it runs a
pass as is, a pass with every public function wrapped (see spans.py) and
another pass as is, and reports the per-layer metrics of the wrapped
pass instead, with its overhead against the last pass.  Lines before
it give the metrics as text and a `perfbench-info` JSON line with the
environment, sample counts and every failed operation with its cause.
"""

from __future__ import annotations

import os
import sys
import time

T0 = time.perf_counter()

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HMOLS_BUDGET", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("cert-401", "search-mix", "plan-exec")


def import_package():
    """Import hmols from this checkout's src/, or exit without a result."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import hmols
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import hmols from {ROOT / 'src'}: {exc}")
    if Path(hmols.__file__).resolve().parent.parent != (ROOT / "src").resolve():
        sys.exit(f"perfbench: hmols came from {hmols.__file__}, not {ROOT / 'src'}")
    import workloads
    return workloads


def environment() -> dict:
    import numpy
    rev = None
    if (ROOT / ".git").exists():  # a checkout without one has no revision
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {"git_revision": rev, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "loadavg": os.getloadavg()}


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def scaled_setup(raw_s: float) -> float:
    """Set-up time at the reference machine speed (see speed.py)."""
    import speed
    return raw_s * speed.NOMINAL_S / statistics.median(speed.kernel_s() for _ in range(5))


def setup_only(args) -> None:
    """One fresh-process set-up, for the set-up time repeats."""
    wl = import_package()
    workdir = Path(args.setup_only)
    wl.WORKLOADS[args.workload](workdir, args.seed, args.smoke).setup()
    print(json.dumps({"setup_s": scaled_setup(time.perf_counter() - T0)}))


def repeat_setups(args, count: int) -> list[float]:
    times = []
    for _ in range(count):
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
                   args.workload, "--seed", str(args.seed), "--setup-only", tmp]
            if args.smoke:
                cmd.append("--smoke")
            res = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {res.stderr.strip()[-300:]}")
        times.append(json.loads(res.stdout.splitlines()[-1])["setup_s"])
    return times


def run_workload(args) -> int:
    wl = import_package()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = wl.WORKLOADS[args.workload](workdir, args.seed, args.smoke)
        workload.setup()
        setup_s = scaled_setup(time.perf_counter() - T0)
        passes = []
        if args.trace:
            import spans as tracing
            passes.append(_pass(wl, workload))  # warms the process up
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = _pass(wl, workload, tracer)
            finally:
                tracer.uninstall()
            passes += [traced, _pass(wl, workload)]
            tracer.write(WORK / f"trace-{args.workload}-{args.seed}.jsonl")
            layer = tracer.layer_metrics()
            layer["trace.overhead_ratio"] = sum(traced.op_times) / sum(passes[-1].op_times) - 1
            units = dict(tracing.METRICS)
            metrics = {name: {"value": layer[name], "unit": units[name]}
                       for name in (m["name"] for m in spec()["per_layer"])}
        else:
            start = time.perf_counter()
            while True:
                passes.append(_pass(wl, workload))
                elapsed = time.perf_counter() - start
                # a repeat pass costs its operations; the first pass's full
                # output checks are not repeated.  Two passes at least when
                # the first ends in time, so every operation has a repeat.
                if elapsed + sum(passes[-1].raw_times) > args.seconds and \
                        (len(passes) > 1 or elapsed > args.seconds):
                    break
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            setups = [setup_s] + repeat_setups(args, SETUP_REPEATS - 1)
            metrics = end_to_end(passes, statistics.median(setups), peak_mb)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, passes, metrics)


def _pass(wl, workload, tracer=None):
    p = wl.Pass(tracer)
    workload.run_pass(p)
    return p


def op_medians(passes) -> list[float]:
    """Each operation's median time over the passes that ran it."""
    times = [p.op_times for p in passes]
    return [statistics.median(t[i] for t in times if i < len(t))
            for i in range(max(map(len, times)))]


def end_to_end(passes, setup_s: float, peak_mb: float) -> dict:
    """run_s adds up each operation's median over the passes; the latency
    quantiles pool every operation of every pass."""
    pooled = [t for p in passes for t in p.op_times]
    searches = sum(p.searches for p in passes)
    values = {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(op_medians(passes)), "s"),
        "op_p50_s": (statistics.median(pooled), "s"),
        "op_p90_s": (quantile(pooled, 0.9), "s"),
        "found_ratio": (sum(p.found for p in passes) / searches if searches else 0.0,
                        "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
        "out_mb": (statistics.median(p.out_bytes for p in passes) / 1e6, "MB"),
    }
    return {m["name"]: {"value": values[m["name"]][0], "unit": values[m["name"]][1]}
            for m in spec()["end_to_end"]}


def report(args, passes, metrics) -> int:
    ops = [t for p in passes for t in p.op_times]
    failures = [f"pass {i + 1} op {op}: {cause}" for i, p in enumerate(passes)
                for op, cause in sorted(p.failures.items())]
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    p90 = quantile(ops, 0.9)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(passes), "ops_per_pass": passes[0].attempted,
            "op_samples": len(ops), "op_samples_above_p90": sum(t > p90 for t in ops),
            "searches_per_pass": passes[0].searches, "found_per_pass": passes[0].found,
            "raw_run_s": statistics.median(sum(p.raw_times) for p in passes),
            "failed_share": failed / attempted if attempted else 0.0,
            "failures": failures, "env": environment()}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for f in failures:
        print(f"{args.workload} FAILED {f}", file=sys.stderr)
    print("perfbench-info " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = res.stdout.splitlines()
        sys.stdout.write("".join(ln + "\n" for ln in lines[:-1]))
        sys.stderr.write(res.stderr)
        if res.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited {res.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced inputs, for the benchmark's own tests")
    ap.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_only:
        setup_only(args)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
