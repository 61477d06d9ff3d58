#!/usr/bin/env python3
"""altprod benchmark: generates inputs, runs worker processes, reports metrics.

Run from the root of a checkout:

    python3 benchmark/run.py --workload cli-cold40 --seed 1 --seconds 28 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 28 --trace 1

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer metrics.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

Each timed pass runs in a fresh worker process (benchmark/worker.py) with
``PYTHONPATH=src``, because the constant memo, the Bernoulli cache and the
default registry are global to a process: a fresh process is the only honest
cold start.  Cold passes repeat, one process each, while another pass still
fits in ``--seconds``; the warm workload runs an untimed warm-up pass and then
repeats its passes inside one process while another still fits in
``--seconds``.  Where every pass of a run runs the same items (all workloads
but cli-cold40), the pass time is the sum of each item's median; on
cli-cold40 it is the median pass.  Every time is scaled to one host speed by
the reference slices the worker times between items (benchmark/yardstick.py).
Every output is checked afterwards against mpmath (benchmark/oracle.py),
outside the measured processes.

The traced run measures one untraced and one traced pass, each in its own
process (plus a workers=1 pass on cli-cold40 for the pool baseline), and fails
loudly when a function predicted to do work on the workload never ran, or a
function predicted idle ran.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle as orc  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import TARGETS, metric_name  # noqa: E402
from yardstick import reference, scaled  # noqa: E402

# Set-up is timed this many times before the passes and as many after, so
# its median spans the run rather than one moment of a drifting machine.
SETUP_TRIALS = 5
# Reference slices timed before and after each set-up trial.
SETUP_REF_REPS = 2
# Every process the run starts must end this long after the run began, so
# the run exits well inside three minutes even if the program hangs.
RUN_LIMIT_S = 165
# Sum of self times over the traced wall, per pool thread: spans cover the
# whole pass on sequential workloads; the pool's idle tails, one per batch,
# are the only gap (0.07 to 0.16 of it in probes).
COVERAGE_TOLERANCE = {"sequential": 0.03, "pool": 0.35}
SETUP_CODE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import altprod\n"
    "altprod.default_registry()\n"
    "print(time.perf_counter() - t0)\n"
)


class BenchError(Exception):
    pass


def _run_python(args, env, cwd, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to run {args[0]}")
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"{args[0]} did not finish within the run's {RUN_LIMIT_S} s") from err
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


class Runner:
    """Starts the worker processes of one workload run inside the checkout."""

    def __init__(self, root: str, workdir: str, name: str, seed: int, deadline: float):
        self.workdir = workdir
        self.name = name
        self.seed = seed
        self.deadline = deadline
        self.cold = wl.WORKLOADS[name]["cold"]
        self.src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=self.src, PYTHONHASHSEED="0")
        self.launches = 0

    def setup_times(self) -> list:
        """Set-up times at the yardstick's reference speed, each taken between
        two reference slices."""
        times, ref = [], reference(SETUP_REF_REPS)[0]
        for _ in range(SETUP_TRIALS):
            t = float(_run_python(["-c", SETUP_CODE], self.env, self.workdir, self.deadline))
            after = reference(SETUP_REF_REPS)[0]
            times.append(scaled(t, (ref + after) / 2))
            ref = after
        return times

    def worker(self, *, seconds: float, pass_index: int = 0, trace: bool = False,
               **override) -> dict:
        """Run one worker process on the pass's generated inputs."""
        self.launches += 1
        inputs = dict(wl.generate(self.name, self.seed, pass_index), **override)
        files = {k: os.path.join(self.workdir, f"{k}{self.launches}")
                 for k in ("registry", "in", "out")}
        with open(files["registry"], "w", encoding="utf-8") as fh:
            fh.write(inputs.pop("registry_text"))
        with open(files["in"], "w", encoding="utf-8") as fh:
            json.dump(dict(inputs, src=self.src, registry=files["registry"], cold=self.cold,
                           seconds=seconds, trace=trace), fh)
        _run_python([os.path.join(HERE, "worker.py"), files["in"], files["out"]], self.env,
                    self.workdir, self.deadline)
        with open(files["out"], encoding="utf-8") as fh:
            result = json.load(fh)
        result["inputs"] = inputs
        return result

    def timed(self, seconds: float) -> list:
        """Worker results for the run's timed passes: one process per cold
        pass while another still fits, or one warm process."""
        if not self.cold:
            return [self.worker(seconds=seconds)]
        results, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            results.append(self.worker(seconds=seconds, pass_index=len(results)))
            now = time.perf_counter()
            if (now - start) + (now - t0) > seconds:
                return results


def _check(oracle, result):
    for p in result["passes"]:
        oracle.check(p["outputs"], result["inputs"])


def pass_scale(p: dict, key: str = "wall_s") -> float:
    """Factor that brings a pass's wall or CPU times to the yardstick's
    reference speed: REF_S over the mean reference slice, each gap's slices
    weighted by the time of the items next to them."""
    ref = sum(i["wall_s"] * i[f"ref_{key}"] for i in p["items"]) / p["wall_s"]
    return scaled(1.0, ref)


def pass_time(passes: list, key: str) -> float:
    """The run's median pass time at the yardstick's reference speed.  When
    every pass ran the same items in the same order, an item costs the same in
    each, so the pass is the sum of its items' medians, and a burst of load on
    one item of one pass drops out."""
    if len({tuple(i["key"] for i in p["items"]) for p in passes}) > 1:
        return statistics.median(p[key] * pass_scale(p, key) for p in passes)
    times = {}
    for p in passes:
        scale = pass_scale(p, key)
        for i in p["items"]:
            times.setdefault(i["key"], []).append(i[key] * scale)
    return sum(statistics.median(t) for t in times.values())


def end_to_end(runner: Runner, seconds: float, oracle) -> dict:
    setup = runner.setup_times()
    results = runner.timed(seconds)
    setup += runner.setup_times()
    passes = [p for r in results for p in r["passes"]]
    for r in results:
        _check(oracle, r)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": pass_time(passes, "wall_s"),
        "cpu_s": pass_time(passes, "cpu_s"),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "pass_frac": 1.0 - oracle.failed / max(1, oracle.attempted),
        "_passes": len(passes),
        "_speed": statistics.median(pass_scale(p) for p in passes),
        "_raw_wall_s": statistics.median(p["wall_s"] for p in passes),
    }


def per_layer(runner: Runner, name: str, oracle) -> dict:
    plain = runner.worker(seconds=0)
    traced = runner.worker(seconds=0, trace=True)
    pool = plain["inputs"]["kind"] == "verify_all"
    serial = runner.worker(seconds=0, workers=1) if pool else None
    for r in (plain, traced, serial):
        if r is not None:
            _check(oracle, r)

    trace = traced["trace"]
    stats, counters = trace["stats"], trace["counters"]
    calls = {n: c for n, (c, _) in stats.items()}
    silent = sorted(n for n in wl.FIRES[name] if not calls.get(n))
    busy = sorted(n for n in wl.ZERO[name] if calls.get(n))
    if silent or busy:
        raise BenchError(f"trace predictions broken on {name}: never ran {silent}, "
                         f"ran although predicted idle {busy}")

    wall = traced["passes"][0]["wall_s"]

    def scaled_wall(result):
        p = result["passes"][0]
        return p["wall_s"] * pass_scale(p)

    m = {}
    for module, attr in TARGETS:
        fn = metric_name(module, attr)
        rec = stats.get(fn, [0, 0.0])
        m[f"{fn}.calls"], m[f"{fn}.self_s"] = rec[0], rec[1]
    width = plain["inputs"]["workers"] if pool else 1
    spans = sum(s for n, (_, s) in stats.items() if n != "harness.verify_all")
    coverage = spans / (wall * width)
    tolerance = COVERAGE_TOLERANCE["pool" if pool else "sequential"]
    if not 1 - tolerance <= coverage <= 1.0 + 1e-6:
        raise BenchError(f"self times cover {coverage:.3f} of the traced wall on {name}, "
                         f"outside the stated tolerance {tolerance}")
    rounds = counters["method_rounds"]
    logs = counters["logs_under_partial"]
    ratio = orc.err_ratio_min(trace["limit_returns"])
    m.update({
        "accel.richardson_limit.nodes": counters["richardson_nodes"],
        "accel.euler_transform_sum.terms": counters["euler_terms"],
        "accel.useful_round_frac": m["accel.estimate_limit.calls"] / rounds if rounds else 0.0,
        "products.useful_log_frac": counters["distinct_factors"] / logs if logs else 0.0,
        "harness.recheck_s": counters["recheck_s"],
        "harness.verify_all.queue_wait_s": counters["queue_wait_s"],
        "harness.pool_speedup": scaled_wall(serial) / scaled_wall(plain) if pool else 0.0,
        "accel.err_ratio_min": ratio if ratio is not None else 0.0,
        "trace.overhead": scaled_wall(traced) / scaled_wall(plain),
        "trace.coverage": coverage,
    })
    return m


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool, spec: dict,
                 deadline: float) -> dict:
    workdir = os.path.join(root, ".bench_run", f"{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    oracle = orc.Oracle()
    try:
        runner = Runner(root, workdir, name, seed, deadline)
        if trace:
            values = per_layer(runner, name, oracle)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(runner, seconds, oracle)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    print(f"workload {name} seed {seed} trace {int(trace)}")
    if not trace:
        print(f"  {values['_passes']} passes; host speed {values['_speed']:.3f} of the "
              f"reference; unscaled median pass {values['_raw_wall_s']:.4f} s")
    for metric in wanted:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:<40} {value:>14.6g} {metric['unit']}")
    print(f"digest {name} {oracle.digest()}")
    for problem in oracle.problems:
        print(f"FAILED {problem}")
    return {"correct": oracle.failed == 0, "attempted": oracle.attempted,
            "failed": oracle.failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="altprod benchmark")
    ap.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM then unwinds like an error: subprocess.run kills and waits for
    # the running worker, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "altprod", "__init__.py")):
        print("benchmark: no altprod source under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results.append(run_workload(root, name, args.seed, args.seconds,
                                        bool(args.trace), spec, deadline))
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 3
    finally:
        try:
            os.rmdir(os.path.join(root, ".bench_run"))
        except OSError:
            pass  # another run still uses it, or it was never made
    if len(results) == 1:
        summary = results[0]
    else:
        summary = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}:{k}": v for n, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
