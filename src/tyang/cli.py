"""Scenario runner: declarative verification pipelines with JSON reports.

A scenario file names a pipeline and describes its inputs with small
constructor blocks; the runner executes the pipeline's checks in a fixed
order and emits a deterministic report (timings are opt-in because they
would break byte-for-byte reproducibility).
"""

import argparse
import json
import sys
import time
from functools import cache, partial
from itertools import chain, repeat

from tyang import daha as daha_mod
from tyang import drinfeld as drinfeld_mod
from tyang import twisted as twisted_mod
from tyang import yangian as yangian_mod
from tyang.exactalg import Poly, RootSearchBound, rat, rf_to_json
from tyang.glmn import ParitySeq, gl_from_json, make_Lab, make_vector_rep


class InputError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Declarative constructors.

def _rat_list(values):
    return [rat(v) for v in values]


def _json_bool(value):
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _json_int(value, field=None):
    """A JSON integer; a float, a bool or a numeric string is refused, never
    truncated or converted.  field names the value in the message."""
    if isinstance(value, bool) or not isinstance(value, int):
        head = f"{field} must be" if field else "expected"
        raise TypeError(f"{head} a JSON integer, got {value!r}")
    return value


def _json_signs(values, field):
    """A ps or eps list, every entry a JSON integer."""
    return [_json_int(x, f"each {field} entry") for x in values]


def _parity_seq(values):
    return ParitySeq(_json_signs(values, "ps"))


def _eps(ps, values):
    return twisted_mod.TwistedContext(ps, _json_signs(values, "eps")).eps


def _reduction_mode(mode):
    if mode not in ("over", "under", "star"):
        raise ValueError(f"unknown reduction mode {mode!r}")
    return mode


def _star_index(kappa, a):
    a = _json_int(a, "a")
    if not 1 <= a < kappa:
        raise ValueError(f"star reduction needs 1 <= a < kappa = {kappa}, got {a}")
    return a


def _center_poly(l, max_dim, terms):
    """A polynomial in y_1..y_l as {exponent tuple: coefficient}; a monomial
    of total degree above max_dim is refused, as l itself is."""
    poly = {}
    for term in terms:
        mono = tuple(_json_int(e, "each exponent") for e in term["mono"])
        if len(mono) != l or min(mono) < 0:
            raise ValueError(f"monomial {list(mono)} is not {l} nonnegative exponents")
        if sum(mono) > max_dim:
            raise ValueError(f"monomial degree {sum(mono)} exceeds the safety cap {max_dim}")
        poly[mono] = rat(term["coeff"])
    return poly


# Readers: each walks one constructor block once and returns (size, build),
# the size of what the block describes and a function that builds it.  The
# builders look up the library functions when they run, after the cap.

def _kind(spec):
    if not isinstance(spec, dict):
        raise TypeError(f"a constructor block must be a JSON object, got {type(spec).__name__}")
    return spec.get("type")


def build_gl_module(spec):
    """((dim, kappa), build) for a gl(m|n) module block."""
    kind = _kind(spec)
    if kind == "vector":
        ps = _parity_seq(spec["ps"])
        return (ps.kappa, ps.kappa), lambda: make_vector_rep(ps)
    if kind == "Lab":
        s1, a, b = _json_int(spec["s1"], "s1"), rat(spec["a"]), rat(spec["b"])
        return (2, 2), lambda: make_Lab(s1, a, b)
    if kind == "gl-json":
        data = spec["data"]
        return (len(data["parities"]), len(data["ps"])), lambda: gl_from_json(data)
    raise InputError(f"unknown gl module constructor {kind!r}")


def build_taction(spec):
    """((dim, kappa), build) for a T(u) block."""
    kind = _kind(spec)
    if kind == "evaluation":
        shape, module = build_gl_module(spec["module"])
        z = rat(spec.get("z", 0))
        return shape, lambda: yangian_mod.evaluation_action(module(), z)
    if kind == "tensor":
        (dl, kappa), left = build_taction(spec["left"])
        (dr, _), right = build_taction(spec["right"])
        return (dl * dr, kappa), lambda: yangian_mod.tensor_action(left(), right())
    if kind == "trivial":
        ps = _parity_seq(spec["ps"])
        return (1, ps.kappa), lambda: yangian_mod.trivial_action(ps)
    if kind == "dual":
        shape, of = build_taction(spec["of"])
        return shape, lambda: yangian_mod.dual_action(of())
    raise InputError(f"unknown action constructor {kind!r}")


def build_baction(spec):
    """((dim, kappa), build) for a B(u) block."""
    kind = _kind(spec)
    if kind == "from-T":
        shape, t = build_taction(spec["t"])
        eps, gamma = _json_signs(spec["eps"], "eps"), spec.get("gamma")

        def from_t():
            T = t()
            return twisted_mod.b_from_T(T, twisted_mod.TwistedContext(T.ps, eps, gamma))
        return shape, from_t
    if kind == "c-gamma":
        ctx = twisted_mod.TwistedContext(_parity_seq(spec["ps"]), _json_signs(spec["eps"], "eps"))
        gamma = rat(spec["gamma"])
        return (1, ctx.kappa), lambda: twisted_mod.c_gamma(ctx, gamma)
    if kind == "tensor":
        (dt, kappa), t = build_taction(spec["t"])
        (db, _), w = build_baction(spec["b"])
        return (dt * db, kappa), lambda: twisted_mod.b_tensor(t(), w())
    if kind == "b-json":
        data = spec["data"]
        return (len(data["parities"]), len(data["ctx"]["s"])), lambda: twisted_mod.b_from_json(data)
    if kind == "corrupt-sign":
        shape, base = build_baction(spec["base"])
        i, j = _json_int(spec["i"], "i"), _json_int(spec["j"], "j")
        kappa = shape[1]
        if not (1 <= i <= kappa and 1 <= j <= kappa):
            raise ValueError(f"corrupt-sign needs 1 <= i, j <= kappa = {kappa}, got i = {i}, j = {j}")

        def corrupt():
            B = base()
            return twisted_mod.BAction(B.ctx, B.space, B.cleared().negate_block((i, j)))
        return shape, corrupt
    raise InputError(f"unknown twisted constructor {kind!r}")


def _daha_params(spec):
    return daha_mod.DahaParams(_json_int(spec["l"], "l"), rat(spec["theta1"]), rat(spec["theta2"]))


def build_daha_module(spec):
    """((dimension factors, l), build) for a Hecke module block."""
    kind = _kind(spec)
    if kind == "char":
        params = _daha_params(spec)
        signs = [_json_int(spec.get(key, 1), key) for key in ("sign_sigma", "sign_zeta")]
        return ([1], params.l), lambda: daha_mod.char_module(params, *signs)
    if kind == "principal":
        params, lam = _daha_params(spec), _rat_list(spec["lambda"])
        if len(lam) != params.l:
            raise ValueError(f"lambda has {len(lam)} entries, not l = {params.l}")
        # The signed permutations: 2^l l! basis vectors.
        return ((2 * i for i in range(1, params.l + 1)), params.l), lambda: daha_mod.principal_series(params, lam)
    if kind == "daha-json":
        data = spec["data"]
        dim, l = _json_int(data["dim"], "dim"), _json_int(data["l"], "l")
        return ([dim], l), lambda: daha_mod.daha_from_json(data)
    raise InputError(f"unknown hecke module constructor {kind!r}")


def _build(reader, inputs, key, *args, guard=None):
    """Read inputs[key] with reader(*args, inputs[key]); a missing or
    malformed field is an InputError naming the reader and the field.

    Every read of a scenario's inputs goes through here, so bad input exits 2
    while the checks that run afterwards stay unwrapped.  With a guard, the
    reader returns (size, build): guard(size) may refuse the size, and only
    then does build() run.
    """
    try:
        value = reader(*args, inputs[key])
        if guard is None:
            return value
        size, build = value
        guard(size)
        return build()
    except InputError:
        raise
    except (KeyError, RecursionError, TypeError, ValueError, ZeroDivisionError) as e:
        raise InputError(f"{reader.__name__} on inputs[{key!r}]: {type(e).__name__}: {e}") from e


# ---------------------------------------------------------------------------
# Serialization helpers for report payloads.

def _poly_str(p: Poly):
    return [str(c) for c in p.coeffs]


def _witness_json(w):
    """The report form of a Grid2Witness, or None."""
    if w is None:
        return None
    return {
        "point": [str(w.point[0]), str(w.point[1])],
        "label": w.label,
        "lhs": [[str(x) for x in row] for row in w.lhs],
        "rhs": [[str(x) for x in row] for row in w.rhs],
    }


# ---------------------------------------------------------------------------
# Pipelines.  Each returns a list of check dicts.

def _check(cid, anchor, ok, witness=None, data=None):
    rec = {"id": cid, "anchor": anchor, "status": "pass" if ok else "fail"}
    if witness is not None:
        rec["witness"] = witness
    if data is not None:
        rec["data"] = data
    return rec


HIGHEST_ANCHOR = "upper series annihilate, diagonal series are scalar"


def _highest(weight, family, vector):
    """(weight(family, vector), None) for a highest vector, else (None, the
    failed highest-weight check); a vector of the wrong length is bad input."""
    if len(vector) != family.dim:
        raise InputError(f"the vector has {len(vector)} entries, not dim = {family.dim}")
    try:
        return weight(family, vector), None
    except yangian_mod.NotHighest as e:
        return None, _check("highest-weight", HIGHEST_ANCHOR, False, {"detail": str(e)})


def pipe_verify_yangian(inputs, max_dim):
    T = _build(build_taction, inputs, "t", guard=partial(_guard_dim, max_dim=max_dim))
    checks = []
    w = yangian_mod.verify_rtt(T)
    checks.append(_check("exchange-relation", "series exchange relation on two auxiliary spaces", w is None, _witness_json(w)))
    # N_T N_T' = c_T D_T c_T' D_T' 1 over Z[u], the product of the two cleared forms.
    den, f, scalar = yangian_mod.scalar_product(T.cleared(), yangian_mod.inverse_series_action(T).cleared())
    checks.append(_check("inverse-product", "series times inverse series is the identity", scalar and f == den))
    if "xi" in inputs:
        xi = _build(_rat_list, inputs, "xi")
        lams, failed = _highest(yangian_mod.highest_lweight, T, xi)
        checks.append(failed or _check("highest-weight", HIGHEST_ANCHOR, True,
                                       data={"lambda": [rf_to_json(l) for l in lams]}))
        if not failed:
            res = yangian_mod.lambda_prime_check(T, xi, lams)
            checks.append(_check("inverse-weight-formula", "closed form of the inverse-series eigenvalues", res is None,
                                 None if res is None else {"detail": str(res)}))
    return checks


def pipe_verify_twisted(inputs, max_dim):
    B = _build(build_baction, inputs, "b", guard=partial(_guard_dim, max_dim=max_dim))
    checks = []
    rep = twisted_mod.verify_b(B)
    checks.append(_check("reflection-equation", "quartic exchange relation with both spectral arguments",
                         rep.reflection is None, _witness_json(rep.reflection)))
    checks.append(_check("unitarity-scalar", "product at opposite arguments is an even scalar",
                         rep.scalar_ok,
                         None if rep.scalar_ok else {"detail": "non-scalar product"},
                         data={"f": rf_to_json(rep.f)}))
    if "eta" in inputs:
        eta = _build(_rat_list, inputs, "eta")
        mu, failed = _highest(twisted_mod.highest_bweight, B, eta)
        checks.append(failed or _check("highest-weight", HIGHEST_ANCHOR, True,
                                       data={"mu": [rf_to_json(m) for m in mu.mus]}))
        if not failed:
            bad = twisted_mod.verma_conditions(mu, rep.unitarity)
            checks.append(_check("weight-symmetry", "highest-weight symmetry constraints", bad is None,
                                 None if bad is None else {"index": bad}))
    return checks


def _guard_rank_one(size, max_dim):
    """The rank-one classification reads kappa = 2 only."""
    if size[1] != 2:
        raise InputError(f"classify needs kappa = 2, got kappa = {size[1]}")
    _guard_dim(size, max_dim)


def pipe_classify(inputs, max_dim):
    B = _build(build_baction, inputs, "b", guard=partial(_guard_rank_one, max_dim=max_dim))
    eta = _build(_rat_list, inputs, "eta")
    mu, failed = _highest(twisted_mod.highest_bweight, B, eta)
    if failed:
        return [failed]
    checks = []
    bad = twisted_mod.verma_conditions(mu, twisted_mod.unitarity_entry(B))
    checks.append(_check("weight-symmetry", "highest-weight symmetry constraints", bad is None,
                         None if bad is None else {"index": bad}))
    cert = twisted_mod.classify_rank1(mu)
    data = {"case": cert.case, "status": cert.status}
    if cert.P is not None:
        data["P"] = _poly_str(cert.P)
    if cert.gamma is not None:
        data["gamma"] = str(cert.gamma)
    checks.append(_check("rank1-certificate", "finite-dimensionality certificate polynomial",
                         cert.status == "verified", None, data))
    verdict = twisted_mod.irreducible_burnside(B)
    checks.append(_check("irreducibility", "span closure of the expansion coefficients",
                         verdict.status in ("irreducible", "reducible"),
                         None, {"verdict": verdict.status, "closure": verdict.closure_dim}))
    return checks


def _guard_reduce(size, mode, max_dim):
    """An over or under reduction drops one index, so it needs kappa >= 2."""
    if mode != "star" and size[1] < 2:
        raise ValueError(f"{mode} reduction needs kappa >= 2, got kappa = {size[1]}")
    _guard_dim(size, max_dim)


def pipe_reduce(inputs, max_dim):
    mode = _build(_reduction_mode, inputs, "mode")
    B = _build(build_baction, inputs, "b", guard=partial(_guard_reduce, mode=mode, max_dim=max_dim))
    if mode == "star":
        a = _build(_star_index, inputs, "a", B.kappa)
    else:
        a = _build(_json_int, inputs, "a") if "a" in inputs else None
    checks = []
    try:
        red = twisted_mod.reduce_rank(B, mode, a)
    except twisted_mod.EmptySubspace as e:
        return [_check("reduction-exists", "singular subspace of the reduction", False, {"detail": str(e)})]
    checks.append(_check("reduction-exists", "singular subspace of the reduction", True,
                         data={"dim": red.dim}))
    rep = twisted_mod.verify_b(red)
    checks.append(_check("reduced-relations", "relations of the lower-rank family on the subspace",
                         rep.ok, _witness_json(rep.reflection)))
    if mode == "star":
        checks.append(_check("tilde-shift", "spectral shift of the diagonal combinations",
                             twisted_mod.star_tilde_shift(B, red, a)))
    return checks


def pipe_daha(inputs, max_dim):
    M = _build(build_daha_module, inputs, "m", guard=lambda size: _guard_letters(*size, max_dim))
    poly = _build(_center_poly, inputs, "center", M.params.l, max_dim) if "center" in inputs else None
    checks = []
    bad = daha_mod.verify_daha(M)
    checks.append(_check("relations", "defining relations of the degenerate Hecke algebra", bad is None,
                         None if bad is None else {"relation": bad}))
    if M.params.kind == "BC":
        _ys, fail = daha_mod.sf_presentation(M)
        checks.append(_check("transformed-presentation", "anticommuting family and its bracket formula",
                             fail is None, None if fail is None else {"relation": fail}))
    if poly is not None:
        bad = daha_mod.center_check(M, poly)
        checks.append(_check("center", "symmetric polynomials in the squares are central", bad is None,
                             None if bad is None else {"generator": bad}))
    return checks


def pipe_drinfeld(inputs, max_dim):
    ps = _build(_parity_seq, inputs, "ps")
    eps = _build(_eps, inputs, "eps", ps)
    epsilon = _build(_json_int, inputs, "epsilon") if "epsilon" in inputs else 1
    kwargs = {key: _build(rat, inputs, key) for key in ("chi", "gamma") if key in inputs}
    expansion = _build(_json_bool, inputs, "expansion") if "expansion" in inputs else True
    M = _build(build_daha_module, inputs, "m", guard=lambda size: _guard_letters(*size, max_dim, ps.kappa))
    # One series product and one set of sign relations serve both checks;
    # the expansion check rebuilds the product if chi or gamma is off default.
    product = drinfeld_mod.reflection_product(M, ps, eps, epsilon, **kwargs)
    checks = []
    try:
        D = drinfeld_mod.drinfeld_BC(M, ps, eps, epsilon, **kwargs, product=product)
    except drinfeld_mod.WellDefinednessFailure as e:
        return [_check("well-defined", "series coefficients preserve the quotient subspace", False,
                       {"witness": str(e.witness)})]
    checks.append(_check("well-defined", "series coefficients preserve the quotient subspace", True,
                         data={"dim": D.dim}))
    if D.action is not None:
        rep = twisted_mod.verify_b(D.action)
        checks.append(_check("reduced-relations", "reflection and scalar conditions on the functor output",
                             rep.ok, _witness_json(rep.reflection), data={"f": rf_to_json(rep.f)}))
    if expansion:
        res = drinfeld_mod.bchi_expansion_check(M, ps, eps, epsilon, product=product)
        checks.append(_check("expansion", "first three series coefficients in closed form", res is None,
                             None if res is None else {"order": res[0], "entry": list(res[1])}))
    return checks


def pipe_appendix(inputs, max_dim):
    ps = _build(_parity_seq, inputs, "ps")
    eps = _build(_eps, inputs, "eps", ps)
    l = _build(_json_int, inputs, "l")
    _guard_letters((), l, max_dim, ps.kappa)
    bad = drinfeld_mod.appendix_identities(ps, eps, l)
    return [_check("operator-identities", "coupling-operator identities on the tensor power",
                   bad is None, None if bad is None else {"identity": bad})]


PIPELINE_FUNCS = {
    "verify-yangian": pipe_verify_yangian,
    "verify-twisted": pipe_verify_twisted,
    "classify": pipe_classify,
    "reduce": pipe_reduce,
    "daha": pipe_daha,
    "drinfeld": pipe_drinfeld,
    "appendix": pipe_appendix,
}

PIPELINES = tuple(PIPELINE_FUNCS)


def _guard_letters(factors, l, max_dim, kappa=None):
    """Refuse l outside 1..max_dim, then a carrier M x V^(l+1), dim M the
    product of factors and kappa = dim V (M alone if kappa is None), above
    max_dim.  The work grows with l even where the carrier does not."""
    if l < 1:
        raise InputError("l must be at least 1")
    if l > max_dim:
        raise InputError(f"l = {l} exceeds the safety cap {max_dim}")
    _guard_dim(factors if kappa is None else chain(factors, repeat(kappa, l + 1)), max_dim)


def _guard_dim(factors, max_dim):
    """Refuse a carrier whose dimension, the product of the positive integer
    factors, exceeds max_dim.  The product stops at the first partial
    product above the cap, so a huge dimension is never formed."""
    factors = iter(factors)
    dim = 1
    for f in factors:
        dim *= f
        if dim > max_dim:
            at_least = "at least " if next(factors, None) is not None else ""
            raise InputError(f"module dimension {at_least}{dim} exceeds the safety cap {max_dim}")


def run_scenario(path, only=None, max_dim=64, timings=False):
    """Execute one scenario file; returns (report dict, exit code)."""
    try:
        with open(path) as fh:
            scenario = json.load(fh)
    except (OSError, RecursionError) as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    if not isinstance(scenario, dict):
        raise InputError(f"a scenario must be a JSON object, got {type(scenario).__name__}")
    for field in ("name", "pipeline", "inputs"):
        if field not in scenario:
            raise InputError(f"scenario is missing the {field!r} field")
    pipeline = scenario["pipeline"]
    func = PIPELINE_FUNCS.get(pipeline) if isinstance(pipeline, str) else None
    if func is None:
        raise InputError(f"unknown pipeline {pipeline!r}")
    if not isinstance(scenario["inputs"], dict):
        raise InputError("the 'inputs' field must be a JSON object")
    expectations = _expectations(scenario.get("expectations", {}))
    expected = expectations.get("checks", {})
    t0 = time.monotonic()
    try:
        checks = func(scenario["inputs"], max_dim)
    except (RootSearchBound, drinfeld_mod.ParameterConstraint) as e:
        raise InputError(str(e)) from e
    elapsed = time.monotonic() - t0
    if only is not None:
        checks = [c for c in checks if c["id"] == only]
        if not checks:
            raise InputError(f"no check with id {only!r} in pipeline {pipeline!r}")
    checks.sort(key=lambda c: c["id"])
    overall = "pass" if all(c["status"] == "pass" for c in checks) else "fail"
    report = {
        "scenario": scenario["name"],
        "pipeline": pipeline,
        "checks": checks,
        "overall": overall,
    }
    if expectations:
        if only is not None:
            # The other checks did not run, and overall would count them.
            expectations = {"checks": {cid: f for cid, f in expected.items() if cid == only}}
        mismatches = _expectation_mismatches(expectations, report)
        report["expectations"] = "pass" if not mismatches else mismatches
        if mismatches:
            report["overall"] = "fail"
    if timings:
        report["elapsed_seconds"] = round(elapsed, 3)
    return report, 0 if report["overall"] == "pass" else 1


def _expectations(block):
    """A scenario's expectations block, checked and returned: a JSON object
    with no keys but 'overall', "pass" or "fail", and 'checks', an object
    mapping check ids to objects of expected fields."""
    if not isinstance(block, dict):
        raise InputError(f"'expectations' must be a JSON object, got {type(block).__name__}")
    unknown = sorted(set(block) - {"overall", "checks"})
    if unknown:
        raise InputError(f"'expectations' has unknown keys {unknown}; it takes 'overall' and 'checks'")
    overall = block.get("overall", "pass")
    if overall not in ("pass", "fail"):
        raise InputError(f"the expected 'overall' must be \"pass\" or \"fail\", got {overall!r}")
    checks = block.get("checks", {})
    if not isinstance(checks, dict) or not all(isinstance(f, dict) for f in checks.values()):
        raise InputError("the expected 'checks' must be an object mapping check ids to objects")
    return block


def _expectation_mismatches(expect, report):
    out = []
    if "overall" in expect and expect["overall"] != report["overall"]:
        out.append({"field": "overall", "expected": expect["overall"], "got": report["overall"]})
    for cid, fields in expect.get("checks", {}).items():
        rec = next((c for c in report["checks"] if c["id"] == cid), None)
        if rec is None:
            out.append({"field": cid, "expected": "present", "got": "missing"})
            continue
        for key, val in fields.items():
            data = rec.get("data") or {}
            got = data.get(key) if key in data else rec.get(key)
            if got != val:
                out.append({"field": f"{cid}.{key}", "expected": val, "got": got})
    return out


@cache
def _parser():
    """The command-line parser, built on the first call and kept for the
    process, so a caller that runs many scenarios in one process builds it
    once."""
    parser = argparse.ArgumentParser(prog="tyang", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run one scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--out", help="write the report here instead of stdout")
    runp.add_argument("--only", help="run only the check with this id")
    runp.add_argument("--max-dim", type=int, default=64, help="safety cap on carrier dimensions")
    runp.add_argument("--timings", action="store_true", help="include wall-clock timing (non-reproducible)")
    sub.add_parser("list", help="list the available pipelines")
    return parser


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        for p in PIPELINES:
            print(p)
        return 0
    if args.command != "run":
        parser.print_help()
        return 2
    try:
        report, code = run_scenario(args.scenario, args.only, args.max_dim, args.timings)
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
