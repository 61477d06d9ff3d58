"""One benchmark process: import altprod, run a workload's passes, write JSON.

Usage: python3 benchmark/worker.py <inputs.json> <result.json>

run.py starts a fresh worker for every cold pass, so the
constant memo, the Bernoulli cache and the default registry start empty.
A warm workload runs one untimed pass first and then repeats timed passes
in the same process while another one fits the time budget, which the
untimed pass also spends.  A pass is a list of
items (a record, a constant, a table, or a verify_all call on a batch of
records); each is timed with a reference slice of the yardstick before and
after it.  Outputs of every timed pass are written out for run.py's mpmath
oracle; nothing is checked here, inside the measured process.
"""

import json
import os
import resource
import sys
import time

from yardstick import LEAD_SLICES, reference, slices_after


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def _raw(raw) -> list:
    """An mpf tuple as [signed mantissa text, binary exponent]."""
    sign, man, exp, _ = raw
    return [str(-man if sign else man), exp]


def _operation(fn):
    try:
        return fn(), None
    except Exception as err:  # a failed operation is counted, not fatal
        return None, f"{type(err).__name__}: {err}"


def _report(r) -> dict:
    return {"id": r.id, "lhs": r.lhs_value, "rhs": r.rhs_value, "passed": r.passed,
            "digits": r.target_digits, "reason": r.reason}


def make_items(altprod, inputs, registry) -> list:
    """The workload's pass as (key, closure) items; each closure returns its
    outputs as JSON data.  The key names work that costs the same in every
    pass of a warm run."""
    harness, constants, nk = altprod.harness, altprod.constants, altprod.numkernel
    kind, ids, digits = inputs["kind"], inputs["ids"], inputs["digits"]

    def verify(rec_id):
        def run():
            rep, err = _operation(lambda: harness.verify(rec_id, digits, registry=registry))
            return [_report(rep) if err is None else {"id": rec_id, "error": err}]
        return (rec_id, run)

    def decimal_digits(cid, cd):
        def run():
            text, err = _operation(lambda: constants.decimal_digits(cid, cd))
            return [{"constant": cid, "digits": cd, "text": text, "error": err}]
        return (cid, run)

    def table(rec_id, p, show):
        def run():
            ns = inputs["n_values"][rec_id]
            rows, err = _operation(
                lambda: harness.convergence_table(rec_id, ns, p, registry=registry))
            if err is not None:
                return [{"table": rec_id, "error": err}]
            return [{"table": rec_id, "n": row.n, "digits": row.digits, "shown": show,
                     "text": nk.truncated_decimal(row.partial, show),
                     "raw": _raw(row.partial.raw)} for row in rows]
        return (rec_id, run)

    def verify_all(batch):
        # a registry of the batch's records, in the seeded order
        sub = harness.Registry(tuple(registry.get(rec_id) for rec_id in batch))

        def run():
            reps, err = _operation(lambda: harness.verify_all(
                digits, registry=sub, workers=inputs["workers"]))
            if err is not None:
                return [{"id": rec_id, "error": err} for rec_id in batch]
            return [_report(r) for r in reps]
        return ("+".join(batch), run)

    if kind == "verify_all":
        n = inputs["batch"]
        return [verify_all(ids[i:i + n]) for i in range(0, len(ids), n)]
    if kind == "verify":
        return [verify(rec_id) for rec_id in ids]
    if kind == "series":
        cd = inputs["constant_digits"]
        return ([decimal_digits(cid, cd) for cid in inputs["constants"]]
                + [verify(rec_id) for rec_id in ids])
    if kind == "table":
        # rows rendered as `altprod table` renders them
        p, show = nk.bits_for_digits(digits), min(digits, 12)
        return [table(rec_id, p, show) for rec_id in ids]
    raise ValueError(f"unknown workload kind {kind!r}")


def timed_pass(items, threads: int) -> dict:
    """Run every item once, timing each and the reference slices around it,
    run by as many threads as the workload's pool has."""
    outputs, timings = [], []
    n = LEAD_SLICES
    ref = reference(n, threads)
    for key, run in items:
        c0, t0 = _cpu_seconds(), time.perf_counter()
        outputs += run()
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - c0
        m = slices_after(wall / threads)
        after = reference(m, threads)
        timings.append({"key": key, "wall_s": wall, "cpu_s": cpu,
                        "ref_wall_s": (n * ref[0] + m * after[0]) / (n + m),
                        "ref_cpu_s": (n * ref[1] + m * after[1]) / (n + m)})
        ref, n = after, m
    return {"wall_s": sum(t["wall_s"] for t in timings),
            "cpu_s": sum(t["cpu_s"] for t in timings), "items": timings, "outputs": outputs}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        inputs = json.load(fh)
    import altprod
    import altprod.harness

    src = os.path.realpath(inputs["src"])
    if not os.path.realpath(altprod.__file__).startswith(src + os.sep):
        print(f"altprod was imported from {altprod.__file__}, not {src}", file=sys.stderr)
        return 2
    registry = altprod.harness.load_registry(inputs["registry"])
    items = make_items(altprod, inputs, registry)

    start = time.perf_counter()  # the warm-up counts against the budget
    if not inputs["cold"]:
        for _, run in items:  # untimed pass: fills the constant memo
            run()
    tracer = None
    if inputs["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    passes = []
    while True:
        t0 = time.perf_counter()
        passes.append(timed_pass(items, inputs["ref_threads"]))
        now = time.perf_counter()
        # warm passes repeat in-process while another one still fits the budget
        if inputs["cold"] or (now - start) + (now - t0) > inputs["seconds"]:
            break
    if tracer is not None:
        tracer.uninstall()
    result = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.report() if tracer is not None else None,
    }
    if tracer is not None:
        result["trace"]["limit_returns"] = [
            [name, p, _raw(v), _raw(e)]
            for name, p, v, e in result["trace"]["limit_returns"]
        ]
    with open(sys.argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
