"""Workload definitions and seeded input generation for the altprod benchmark.

The benchmark owns its inputs: the identity records below are written to a
generated registry file, which the program reads through
``harness.load_registry`` exactly as ``altprod verify all --registry`` does.
Keeping the records here (rather than reading the packaged registry) pins the
benchmark's inputs when a later change edits the package data.

The seed only permutes work that the workload already contains, and jitters
convergence-table indices by at most 2%, so the amount of work per run is
stable across seeds while the inputs are not identical.  Every pass of a run
gets the same inputs, except on ``cli-cold40``: there the record order decides
which constants two pool threads compute twice, so each pass gets its own
permutation, derived from the seed and the pass index, and a run's median
covers several orders.
"""

import random

# (id, lhs, rhs, method) -- the sixteen verifiable identities.
RECORDS = (
    ("KT1", "product KT1", "exp(7*zeta3/(4*pi^2) + 1/4)", "RICHARDSON"),
    ("KT2", "product KT2", "exp(7*zeta3/(4*pi^2) - 1/4)", "RICHARDSON"),
    ("KT3", "product KT3", "exp(2*catalan/pi - 1/2)", "RICHARDSON"),
    ("KT4", "product KT4", "exp(2*catalan/pi + 1/2)", "RICHARDSON"),
    ("MELZAK", "product MELZAK", "pi*e/2", "RICHARDSON"),
    ("HOLCOMBE", "product HOLCOMBE", "pi", "RICHARDSON"),
    ("GS53R", "product GS53R", "exp(7*zeta3/pi^2)", "RICHARDSON"),
    ("GS55R", "product GS55R", "exp(4*catalan/pi)", "RICHARDSON"),
    ("ADAMCHIK_E_HALF", "product ADAMCHIK_E 1/2",
     "(pi/4)*exp(1/2 + 7*zeta3/pi^2)", "RICHARDSON"),
    ("D1", "product BD_D 1", "glaisher^6/(2^(1/6)*sqrt(pi))", "RICHARDSON"),
    ("DHALF", "product BD_D 1/2",
     "2^(1/6)*sqrt(pi)*glaisher^3*exp(catalan/pi)/gamma(1/4)", "RICHARDSON"),
    ("DGAMMA_ONE", "dfunc GAMMA_SERIES 1", "glaisher^6/(2^(1/6)*sqrt(pi))", "EULER"),
    ("DGAMMA_HALF", "dfunc GAMMA_SERIES 1/2",
     "2^(1/6)*sqrt(pi)*glaisher^3*exp(catalan/pi)/gamma(1/4)", "EULER"),
    ("CS_RATIO", "csratio", "2^(-1/8)*pi^(-1/4)*exp(catalan/(2*pi))", "BARNES_CLOSED"),
    ("LERCH_CUBE", "lerch -2 1", "7*zeta3/(4*pi^2)", "HURWITZ_SPLIT"),
    ("LERCH_CATALAN", "lerch -1 1/2", "catalan/pi", "HURWITZ_SPLIT"),
)
ALL_IDS = tuple(r[0] for r in RECORDS)
PRODUCT_IDS = tuple(r[0] for r in RECORDS if r[1].startswith("product "))
SERIES_IDS = ("DGAMMA_ONE", "DGAMMA_HALF", "CS_RATIO", "LERCH_CUBE", "LERCH_CATALAN")
CONSTANT_IDS = ("PI", "E", "EULER_GAMMA", "CATALAN", "ZETA3", "LN_GLAISHER")
TABLE_IDS = ("KT1", "KT3", "MELZAK", "GS53R", "D1")

# Every workload's reason is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "cli-cold40": {
        "kind": "verify_all", "ids": ALL_IDS, "digits": 40, "workers": 2, "batch": 4,
        "cold": True,
    },
    "products-warm100": {
        "kind": "verify", "ids": PRODUCT_IDS, "digits": 100, "cold": False,
    },
    "series-cold": {
        "kind": "series", "ids": SERIES_IDS, "digits": 40,
        "constants": CONSTANT_IDS, "constant_digits": 150, "cold": True,
    },
    "table-walk": {
        "kind": "table", "ids": TABLE_IDS, "digits": 30, "cold": True,
    },
}

# The per-layer model: functions that must do work on a workload, and
# functions predicted never to be called there.  The traced run fails
# loudly when either prediction breaks.
_CORE = {"numkernel.ln_rational", "numkernel.exp"}
FIRES = {
    "cli-cold40": _CORE | {
        "numkernel.truncated_decimal", "products.limit", "products.log_partial",
        "accel.estimate_limit", "accel.richardson_limit", "accel.euler_transform_sum",
        "constants.constant", "zetagamma.ln_gamma", "zetagamma.hurwitz_zeta_sderiv",
        "zetagamma.ln_barnesG", "eulerfuncs.D", "eulerfuncs.phi_sderiv",
        "exprlang.eval_expr", "harness.verify", "harness.verify_all",
    },
    "products-warm100": _CORE | {
        "numkernel.truncated_decimal", "products.limit", "products.log_partial",
        "accel.estimate_limit", "accel.richardson_limit", "constants.constant",
        "exprlang.eval_expr", "harness.verify",
    },
    "series-cold": _CORE | {
        "numkernel.truncated_decimal", "accel.euler_transform_sum",
        "constants.constant", "constants.decimal_digits", "zetagamma.ln_gamma",
        "zetagamma.hurwitz_zeta_sderiv", "zetagamma.ln_barnesG", "eulerfuncs.D",
        "eulerfuncs.phi_sderiv", "exprlang.eval_expr", "harness.verify",
    },
    "table-walk": _CORE | {
        "numkernel.truncated_decimal", "products.limit", "products.log_partial",
        "accel.estimate_limit", "accel.richardson_limit", "harness.convergence_table",
    },
}
ZERO = {
    "cli-cold40": {"harness.convergence_table", "constants.decimal_digits"},
    "products-warm100": {
        "harness.convergence_table", "constants.decimal_digits",
        "accel.euler_transform_sum", "zetagamma.hurwitz_zeta_sderiv",
        "zetagamma.ln_barnesG", "eulerfuncs.D", "eulerfuncs.phi_sderiv",
        "harness.verify_all",
    },
    "series-cold": {
        "products.limit", "products.log_partial", "accel.estimate_limit",
        "accel.richardson_limit", "harness.convergence_table", "harness.verify_all",
    },
    "table-walk": {
        "harness.verify", "harness.verify_all", "exprlang.eval_expr",
        "constants.constant", "constants.decimal_digits", "accel.euler_transform_sum",
        "eulerfuncs.D", "eulerfuncs.phi_sderiv", "zetagamma.ln_barnesG",
    },
}


def registry_text(ids) -> str:
    """Registry file text holding the given records, in the given order."""
    by_id = {r[0]: r for r in RECORDS}
    blocks = []
    for rec_id in ids:
        _, lhs, rhs, method = by_id[rec_id]
        blocks.append(f'id = {rec_id}\nlhs = {lhs}\nrhs = "{rhs}"\nmethod = {method}\n')
    return "\n".join(blocks)


def table_indices(rng: random.Random) -> list:
    """One small index and one per decade up to 10^4, each up to 2% below
    the decade so the factor-log walk length barely moves with the seed."""
    ns = [rng.randrange(1, 10)]
    for j in range(1, 5):
        top = 10**j
        ns.append(top - rng.randrange(max(1, top // 50)))
    rng.shuffle(ns)
    return ns


def generate(name: str, seed: int, pass_index: int = 0) -> dict:
    """The inputs of one pass of a workload run, determined by the seed and,
    on the pooled workload, the pass index."""
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{pass_index}" if "workers" in wl else f"{name}:{seed}")
    ids = list(wl["ids"])
    rng.shuffle(ids)
    inputs = {"workload": name, "kind": wl["kind"], "ids": ids, "digits": wl["digits"],
              "registry_text": registry_text(ids), "ref_threads": wl.get("workers", 1)}
    if wl["kind"] == "verify_all":
        inputs["workers"] = wl["workers"]
        inputs["batch"] = wl["batch"]
    if wl["kind"] == "series":
        consts = list(wl["constants"])
        rng.shuffle(consts)
        inputs["constants"] = consts
        inputs["constant_digits"] = wl["constant_digits"]
    if wl["kind"] == "table":
        index_rng = random.Random(f"{name}:{seed}")
        inputs["n_values"] = {rec_id: table_indices(index_rng) for rec_id in TABLE_IDS}
    return inputs
