"""Layer tracing from outside the program: wrap public functions of tyang.

``install()`` replaces each traced function and method with a recording
wrapper in every ``tyang.*`` namespace that holds it (modules bind many of
them with ``from ... import``), including module-level dicts such as the
CLI's pipeline table, then checks that no unwrapped alias is left.

Two kinds of wrapper:

* spans, for layer boundaries: calls, inclusive seconds and self seconds
  (inclusive minus the time of directly nested spans);
* counters, for the hot leaf kernels (``poly_eval`` alone sees hundreds of
  thousands of calls per scenario): calls and summed seconds, without a
  span stack, so their time stays inside the enclosing span's self time.
"""

import sys
import types
from time import perf_counter

# metric prefix -> "module:qualname" of each function it covers
SPANS = {
    "superlinalg.check_identity_2var": ["tyang.superlinalg:check_identity_2var"],
    "superlinalg.eval_mat": ["tyang.superlinalg:RFMatrix.eval_mat"],
    "superlinalg.kron_ops": ["tyang.superlinalg:kron_ops"],
    "superlinalg.rf_matmul": ["tyang.superlinalg:RFMatrix.__matmul__"],
    "superlinalg.rfmat_inverse": ["tyang.superlinalg:rfmat_inverse"],
    "superlinalg.rfmat_kernel": ["tyang.superlinalg:rfmat_kernel"],
    "superlinalg.algebra_closure": ["tyang.superlinalg:algebra_closure"],
    "exactalg.rational_roots": ["tyang.exactalg:rational_roots"],
    "yangian.verify_rtt": ["tyang.yangian:verify_rtt"],
    "yangian.inverse_series_action": ["tyang.yangian:inverse_series_action"],
    "yangian.full_at": ["tyang.yangian:TAction.full_at", "tyang.yangian:TPrimeAction.full_at"],
    "yangian.realize_mixed": ["tyang.yangian:realize_mixed"],
    "yangian.r_matrix_at": ["tyang.yangian:r_matrix_at"],
    "yangian.flip_at": ["tyang.yangian:flip_at"],
    "twisted.verify_b": ["tyang.twisted:verify_b"],
    "twisted.b_from_T": ["tyang.twisted:b_from_T"],
    "twisted.full_at": ["tyang.twisted:BAction.full_at"],
    "twisted.classify_rank1": ["tyang.twisted:classify_rank1"],
    "twisted.irreducible_burnside": ["tyang.twisted:irreducible_burnside"],
    "daha.principal_series": ["tyang.daha:principal_series"],
    "daha.verify_daha": ["tyang.daha:verify_daha"],
    "daha.sf_presentation": ["tyang.daha:sf_presentation"],
    "drinfeld.drinfeld_BC": ["tyang.drinfeld:drinfeld_BC"],
    "drinfeld.bchi_expansion_check": ["tyang.drinfeld:bchi_expansion_check"],
    "drinfeld.appendix_identities": ["tyang.drinfeld:appendix_identities"],
    "drinfeld.q_operator": ["tyang.drinfeld:q_operator"],
    "cli.main": ["tyang.cli:main"],
    # Every pipeline function, so that cli.main's self time is the CLI's
    # own work: argument parsing, expectations and the JSON report.
    "cli.pipeline": ["tyang.cli:pipe_" + p for p in (
        "verify_yangian", "verify_twisted", "classify", "reduce", "daha", "drinfeld", "appendix")],
}

COUNTERS = {
    "kernel." + name: ["tyang._kernel:" + name]
    for name in ("mat_mul", "mat_rref", "poly_mul", "poly_gcd", "poly_divmod", "poly_eval")
}


RATFUN_INIT = "tyang.exactalg:RatFun.__init__"


def originals():
    """The functions the tracer replaces, as currently bound in tyang."""
    targets = [t for table in (SPANS, COUNTERS) for ts in table.values() for t in ts]
    return [_resolve(t) for t in targets + [RATFUN_INIT]]


def _resolve(target):
    modname, qualname = target.split(":")
    obj = sys.modules[modname]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _tyang_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tyang" or name.startswith("tyang."))]


def _slots(originals):
    """Every (container, key, kind) in tyang's namespaces that holds an original.

    Looks at module globals, one level into module-level dicts and lists,
    class dicts of tyang classes (unwrapping static and class methods),
    and defaults and closure cells of tyang functions.
    """
    ids = {id(o) for o in originals}
    found = []

    def look(container, key, value, kind):
        if id(value) in ids:
            found.append((container, key, kind))
        elif isinstance(value, (staticmethod, classmethod)) and id(value.__func__) in ids:
            found.append((container, key, kind + "-descriptor"))

    def look_function(fn, where):
        for i, d in enumerate(fn.__defaults__ or ()):
            look(fn, i, d, "default:" + where)
        for k, d in (fn.__kwdefaults__ or {}).items():
            look(fn, k, d, "kwdefault:" + where)
        for i, cell in enumerate(fn.__closure__ or ()):
            try:
                look(fn, i, cell.cell_contents, "closure:" + where)
            except ValueError:  # empty cell
                pass

    for mod in _tyang_modules():
        for key, value in list(vars(mod).items()):
            look(mod, key, value, "global")
            if isinstance(value, dict):
                for k, v in list(value.items()):
                    look(value, k, v, "dict")
            elif isinstance(value, list):
                for i, v in enumerate(value):
                    look(value, i, v, "list")
            elif isinstance(value, types.FunctionType) and value.__module__ == mod.__name__:
                look_function(value, key)
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for k, v in list(vars(value).items()):
                    look(value, k, v, "class")
                    if isinstance(v, types.FunctionType) and v.__module__ == mod.__name__:
                        look_function(v, f"{value.__name__}.{k}")
    return found


class Tracer:
    """Per-process accumulators for the traced run; see the module docstring."""

    def __init__(self):
        self.spans = {}      # name -> [calls, inclusive s, self s]
        self.counters = {}   # name -> [calls, s]
        self.grid_points = 0
        self.grid_points_planned = 0
        self.madds = 0
        self.ratfun_new = 0
        self._stack = []     # child-time accumulators of the open spans
        self._active = {}    # name -> open activations, so recursion counts once
        self.patched = 0

    def span(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack, active = self._stack, self._active

        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            active[name] = active.get(name, 0) + 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                if not active[name]:
                    stats[1] += dt
                stats[2] += dt - child[0]
                if stack:
                    stack[-1][0] += dt

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        return wrapper

    def counter(self, name, fn):
        stats = self.counters.setdefault(name, [0, 0.0])

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                stats[1] += perf_counter() - t0
                stats[0] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _grid_check(self, fn):
        """check_identity_2var with its callbacks as child spans.

        Each lhs_eval call is one grid point evaluated; the planned points
        are (d_u + 1)(d_v + 1) from the degree bound.  With both callbacks
        as spans, the check's self time is grid placement plus the compare.
        """
        lhs_span = self.span("superlinalg.grid.lhs_eval", lambda f, u, v: f(u, v))
        rhs_span = self.span("superlinalg.grid.rhs_eval", lambda f, u, v: f(u, v))
        tracer = self

        def check(lhs_eval, rhs_eval, deg_bound, *args, **kwargs):
            tracer.grid_points_planned += (deg_bound[0] + 1) * (deg_bound[1] + 1)

            def lhs(u, v):
                tracer.grid_points += 1
                return lhs_span(lhs_eval, u, v)

            return fn(lhs, lambda u, v: rhs_span(rhs_eval, u, v), deg_bound, *args, **kwargs)

        return check

    def _mat_mul(self, fn):
        tracer = self

        def mat_mul(A, B):
            tracer.madds += len(A) * len(B) * (len(B[0]) if B else 0)
            return fn(A, B)

        return mat_mul

    def _ratfun_init(self, fn):
        tracer = self

        def __init__(rf, num, den=None, _reduced=False):
            if not _reduced:
                tracer.ratfun_new += 1
            fn(rf, num, den, _reduced)

        return __init__

    def install(self):
        """Wrap every traced function everywhere it is bound; returns self."""
        import tyang.cli  # noqa: F401  (loads every tyang module)

        plan = []  # (original, replacement)
        for table, make in ((SPANS, self.span), (COUNTERS, self.counter)):
            for name, targets in table.items():
                for target in targets:
                    fn = _resolve(target)
                    if name == "superlinalg.check_identity_2var":
                        wrapped = make(name, self._grid_check(fn))
                    elif name == "kernel.mat_mul":
                        wrapped = make(name, self._mat_mul(fn))
                    else:
                        wrapped = make(name, fn)
                    plan.append((fn, wrapped))
        init = _resolve(RATFUN_INIT)
        plan.append((init, self._ratfun_init(init)))

        replacement = {id(orig): new for orig, new in plan}
        originals = [orig for orig, _ in plan]
        for container, key, kind in _slots(originals):
            if kind.startswith(("default", "kwdefault", "closure")) or kind.endswith("descriptor"):
                raise RuntimeError(f"cannot patch {kind} slot {key!r} holding a traced function")
            if isinstance(container, (dict, list)):
                container[key] = replacement[id(container[key])]
            else:
                setattr(container, key, replacement[id(getattr(container, key))])
            self.patched += 1
        left = _slots(originals)
        if left:
            raise RuntimeError(f"unwrapped aliases remain after patching: {left}")
        return self

    def metrics(self):
        """The per-layer numbers of this process, by metric name."""
        out = {}
        for name, (calls, incl, own) in self.spans.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = incl
            out[name + ".self_s"] = own
        for name, (calls, secs) in self.counters.items():
            out[name + ".calls"] = calls
            out[name + ".s"] = secs
        out["kernel.mat_mul.madds_computed"] = self.madds
        out["exactalg.ratfun_new.calls"] = self.ratfun_new
        out["superlinalg.grid_points"] = self.grid_points
        out["superlinalg.grid_points_planned"] = self.grid_points_planned
        out["cli.self_s"] = out["cli.main.self_s"]
        return out
