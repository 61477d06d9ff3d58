"""Span tracer that wraps altprod's public functions from the outside.

Every binding of each traced function is replaced: the defining module's
attribute, names other modules imported with ``from ... import`` (for
example ``products.estimate_limit`` and ``eulerfuncs.euler_transform_sum``),
the package namespace, and the class attribute
``ProductEvalSession.log_partial``.  Each thread keeps its own span stack,
so the pool threads of ``verify_all`` attribute time correctly.

A span's self time is its duration minus the durations of its direct
children.  Besides calls and self time the tracer keeps the counters that
the per-layer metrics need (Richardson nodes, Euler terms, useful rounds and
factor logs, re-check time, pool queue wait, product-limit returns).
"""

import functools
import inspect
import sys
import threading
from time import perf_counter

# (module, attribute) of every traced function; "Class.method" for methods.
TARGETS = (
    ("numkernel", "ln_rational"),
    ("numkernel", "exp"),
    ("numkernel", "truncated_decimal"),
    ("products", "limit"),
    ("products", "ProductEvalSession.log_partial"),
    ("accel", "estimate_limit"),
    ("accel", "richardson_limit"),
    ("accel", "euler_transform_sum"),
    ("accel", "wynn_epsilon_limit"),
    ("constants", "constant"),
    ("constants", "decimal_digits"),
    ("zetagamma", "ln_gamma"),
    ("zetagamma", "hurwitz_zeta_sderiv"),
    ("zetagamma", "ln_barnesG"),
    ("eulerfuncs", "D"),
    ("eulerfuncs", "phi_sderiv"),
    ("exprlang", "eval_expr"),
    ("harness", "verify"),
    ("harness", "convergence_table"),
    ("harness", "verify_all"),
)

# Direct children of harness.verify that evaluate one side of the identity;
# run at bits_for_digits(D) + 64 or more they are the +64-bit re-check.
_SIDE_FUNCTIONS = {
    "products.limit", "eulerfuncs.D", "eulerfuncs.phi_sderiv", "exprlang.eval_expr",
    "zetagamma.ln_barnesG", "zetagamma.ln_gamma", "numkernel.exp",
}
_METHODS = {"accel.richardson_limit", "accel.euler_transform_sum", "accel.wynn_epsilon_limit"}


def metric_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class _ThreadState:
    def __init__(self):
        self.stack = []  # frames: [child_seconds, re-check bits or None]
        self.stats = {}  # name -> [calls, self_seconds]
        self.in_estimate = 0
        self.in_log_partial = 0
        self.counters = dict.fromkeys(
            ("richardson_nodes", "euler_terms", "method_rounds", "logs_under_partial",
             "recheck_s", "queue_wait_s"), 0)


class Tracer:
    def __init__(self, package: str = "altprod"):
        self.package = package
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []
        self._patches = []
        self._bits_for_digits = None
        self._default_digits = None
        self._pool_t0 = None
        self._pool_thread = None
        self.sessions = {}  # id(session) -> [session, max upper index, k_start]
        self.limit_returns = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._threads.append(st)
        return st

    # -- installation ----------------------------------------------------------

    def install(self):
        mods = [m for n, m in sorted(sys.modules.items())
                if m is not None and (n == self.package or n.startswith(self.package + "."))]
        self._bits_for_digits = sys.modules[f"{self.package}.numkernel"].bits_for_digits
        verify = sys.modules[f"{self.package}.harness"].verify
        self._default_digits = inspect.signature(verify).parameters["target_digits"].default
        for modname, attr in TARGETS:
            owner = sys.modules[f"{self.package}.{modname}"]
            name = metric_name(modname, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                self._patch(cls, meth, fn, self._wrap(name, fn))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(name, fn)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, key, fn, wrapper)
            for m in mods:
                for key, value in vars(m).items():
                    if value is fn:
                        raise RuntimeError(f"{m.__name__}.{key} escaped the tracer")

    def _patch(self, owner, key, original, wrapper):
        setattr(owner, key, wrapper)
        self._patches.append((owner, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn):
        params = list(inspect.signature(fn).parameters)
        p_index = params.index("p") if "p" in params else None
        enter = getattr(self, "_enter_" + name.replace(".", "_"), None)
        leave = getattr(self, "_leave_" + name.replace(".", "_"), None)
        is_side = name in _SIDE_FUNCTIONS
        is_method = name in _METHODS
        state = self._state
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = getattr(local, "st", None) or state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [0.0, None]
            if is_method and st.in_estimate:
                st.counters["method_rounds"] += 1
            if enter is not None:
                enter(st, frame, args, kwargs, parent)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                rec = st.stats.get(name)
                if rec is None:
                    rec = st.stats[name] = [0, 0.0]
                rec[0] += 1
                rec[1] += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                    if is_side and parent[1] is not None:
                        p = args[p_index] if len(args) > p_index else kwargs["p"]
                        if p >= parent[1]:
                            st.counters["recheck_s"] += dt
                if leave is not None:
                    leave(st, args, kwargs)
            if name == "accel.euler_transform_sum":
                st.counters["euler_terms"] += result.terms_used
            elif name == "products.limit":
                self.limit_returns.append(
                    (args[0].name, args[1] if len(args) > 1 else kwargs["p"],
                     result.value.raw, result.error_estimate.raw))
            return result

        return traced

    # per-function hooks, looked up by metric name

    def _enter_harness_verify_all(self, st, frame, args, kwargs, parent):
        self._pool_t0 = perf_counter()
        self._pool_thread = threading.get_ident()

    def _leave_harness_verify_all(self, st, args, kwargs):
        self._pool_t0 = None

    def _enter_harness_verify(self, st, frame, args, kwargs, parent):
        digits = args[1] if len(args) > 1 else kwargs.get("target_digits", self._default_digits)
        frame[1] = self._bits_for_digits(digits) + 64
        t0 = self._pool_t0
        if parent is None and t0 is not None and threading.get_ident() != self._pool_thread:
            st.counters["queue_wait_s"] += perf_counter() - t0

    def _enter_accel_estimate_limit(self, st, frame, args, kwargs, parent):
        st.in_estimate += 1

    def _leave_accel_estimate_limit(self, st, args, kwargs):
        st.in_estimate -= 1

    def _enter_accel_richardson_limit(self, st, frame, args, kwargs, parent):
        bound = dict(zip(("seq", "p", "max_terms", "order"), args), **kwargs)
        st.counters["richardson_nodes"] += min(bound["order"], bound["max_terms"] - 1) + 1

    def _enter_products_log_partial(self, st, frame, args, kwargs, parent):
        session, n = args[0], (args[1] if len(args) > 1 else kwargs["n"])
        if n >= 0:  # the program rejects n < 0 itself
            upper = session.spec.upper_index(n)
            entry = self.sessions.get(id(session))
            if entry is None:
                self.sessions[id(session)] = [session, upper, session.spec.k_start]
            elif upper > entry[1]:
                entry[1] = upper
        st.in_log_partial += 1

    def _leave_products_log_partial(self, st, args, kwargs):
        st.in_log_partial -= 1

    def _enter_numkernel_ln_rational(self, st, frame, args, kwargs, parent):
        if st.in_log_partial:
            st.counters["logs_under_partial"] += 1

    # -- results ---------------------------------------------------------------------

    def report(self) -> dict:
        """Calls and self time per function, summed over threads, and counters."""
        stats, counters = {}, {}
        for st in self._threads:
            for name, (calls, self_s) in st.stats.items():
                rec = stats.setdefault(name, [0, 0.0])
                rec[0] += calls
                rec[1] += self_s
            for key, value in st.counters.items():
                counters[key] = counters.get(key, 0) + value
        counters["distinct_factors"] = sum(
            max(0, upper - k_start + 1) for _, upper, k_start in self.sessions.values())
        return {"stats": stats, "counters": counters, "limit_returns": self.limit_returns}
