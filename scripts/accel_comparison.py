#!/usr/bin/env python3
"""Compare the limit-extraction methods on one product record: terms used,
digits actually achieved against the closed form, and wall time. This is
the measurement behind shipping RICHARDSON as every product record's
default — the doubling-order scheme reaches 40+ digits from ~64 terms,
while WYNN plateaus far short on these log-type tails. EULER gives no
estimate at all on the catalog products: it sums the differences of the
log partials as an alternating series, and on these products they do not
alternate, so every round fails with "differences of partial sums are not
alternating".

Example:
    python scripts/accel_comparison.py KT3 --digits 40 --max-terms 2048
"""

import argparse
import sys
import time

from altprod import exprlang as ex
from altprod import harness as hz
from altprod import numkernel as nk
from altprod import products as pr
from altprod.accel import METHODS
from altprod.numkernel import NonConvergenceError


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("id", nargs="?", default="KT3", help="registry id with a product LHS")
    ap.add_argument("--digits", type=int, default=40)
    ap.add_argument("--max-terms", type=int, default=2048)
    args = ap.parse_args()

    reg = hz.default_registry()
    form = reg.lhs_form(args.id)
    if form[0] != "product":
        print(f"{args.id} has no product LHS", file=sys.stderr)
        return 2
    spec = form[1]
    p = nk.bits_for_digits(args.digits)
    reference = ex.eval_expr(reg.rhs_tree(args.id), p + 64)

    print(f"{args.id}: target {args.digits} digits, term cap {args.max_terms}")
    print(f"{'method':<12} {'terms':>6} {'digits':>7} {'ms':>7}  note")
    for method in METHODS:
        t0 = time.perf_counter()
        note = ""
        try:
            est = pr.limit(spec, p, args.digits, method=method,
                           max_terms_cap=args.max_terms)
            value, terms = est.value, est.terms_used
        except NonConvergenceError as err:
            note = str(err)
            if err.best is None:
                print(f"{method:<12} {'-':>6} {'-':>7} "
                      f"{(time.perf_counter() - t0) * 1000:>7.0f}  {note}")
                continue
            value, terms = err.best.value, err.best.terms_used
        ms = (time.perf_counter() - t0) * 1000
        digits = min(nk.agreement_digits(value, reference), nk.digits_for_bits(p))
        print(f"{method:<12} {terms:>6} {digits:>7} {ms:>7.0f}  {note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
