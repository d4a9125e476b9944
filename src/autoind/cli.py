"""Command-line front end: JSON in, JSON out, deterministic.

Exit codes: 0 on success, 2 on a domain error (reported as
``{"error": {"kind": .., "detail": ..}}``), 1 on malformed input.  The
``verify`` verb runs the seeded property suites and prints one line per
property.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import Coordinate, json_int
from .errors import DomainError
from .satake import (
    MAX_FIBER_RANK,
    CyclicAlgebra,
    SatakeParam,
    SphericalRepE,
    ai_fiber,
    bc_fiber,
    bc_map,
    delta_map,
)
from .hecke import DEGREE_BUDGET, SymLaurent, ai_transfer, bc_transfer
from .reps import Elliptic, factor_from_json, lift_unitary
from .adelic import GlobalDiscrete, InducedGlobal, Place, global_ai_lift, separate


def _coords(docs):
    return tuple(Coordinate.from_json(c) for c in docs)


def _rep_from_doc(doc) -> SphericalRepE:
    """Accept either the full schema or the flat {d,r,s,zeta?,y} form."""
    if "blocks" in doc:
        return SphericalRepE.from_json(doc)
    alg = CyclicAlgebra.from_json(doc)
    y = _coords(doc["y"])
    if len(y) % alg.r:
        raise ValueError("coordinate count must be divisible by r")
    m = len(y) // alg.r
    blocks = tuple(SatakeParam(y[i * m : (i + 1) * m]) for i in range(alg.r))
    return SphericalRepE(alg, blocks)


def cmd_lift_spherical(doc, args):
    return delta_map(_rep_from_doc(doc)).to_json()


def cmd_bc_spherical(doc, args):
    alg = CyclicAlgebra.from_json(doc["algebra"] if "algebra" in doc else doc)
    y = SatakeParam(_coords(doc["y"] if "y" in doc else doc["coords"]))
    return bc_map(y, alg).to_json()


def cmd_fibers(doc, args):
    direction = doc.get("direction", "ai")
    if direction == "ai":
        alg = CyclicAlgebra.from_json(doc["algebra"])
        pi = SatakeParam.from_json(doc["param"])
        fib = sorted(
            ai_fiber(pi, alg, args.max_rank),
            key=lambda z: tuple(b.coords for b in z.blocks),
        )
        return {"count": len(fib), "fiber": [z.to_json() for z in fib]}
    if direction == "bc":
        z = _rep_from_doc(doc["rep"])
        fib = sorted(bc_fiber(z, args.max_rank), key=lambda y: y.coords)
        return {"count": len(fib), "fiber": [y.to_json() for y in fib]}
    raise ValueError(f"unknown fiber direction {direction!r}")


def cmd_hecke_ai(doc, args):
    alg = CyclicAlgebra.from_json(doc["algebra"])
    f = SymLaurent.from_json(doc["f"])
    return ai_transfer(f, alg, args.degree_budget).to_json()


def cmd_hecke_bc(doc, args):
    alg = CyclicAlgebra.from_json(doc["algebra"])
    factors = [SymLaurent.from_json(g) for g in doc["factors"]]
    return bc_transfer(factors, alg, args.degree_budget).to_json()


def cmd_lift_unitary(doc, args):
    tau = factor_from_json(doc["tau"] if "tau" in doc else doc)
    return lift_unitary(tau).to_json()


def cmd_lift_elliptic(doc, args):
    e = factor_from_json(doc["elliptic"] if "elliptic" in doc else doc)
    if not isinstance(e, Elliptic):
        raise ValueError("expected an elliptic expression")
    return lift_unitary(e).to_json()


# ---------------------------------------------------------------------------
# Global documents


def _places_from_doc(doc):
    d = json_int(doc["d"], "d")
    return d, tuple(Place(p["label"], d, json_int(p["f"], "f")) for p in doc["places"])


def _gd_from_json(doc, d, places) -> GlobalDiscrete:
    side = doc.get("side", "E")
    orbit = json_int(doc["r"], "r") if "r" in doc else json_int(doc["x"], "x")
    locals_ = {}
    for v in places:
        raw = doc["locals"][v.label]
        if side == "E":
            blocks = tuple(SatakeParam(_coords(b)) for b in raw["blocks"])
            locals_[v.label] = SphericalRepE(v.algebra, blocks)
        else:
            locals_[v.label] = SatakeParam(_coords(raw["coords"]))
    q, translate = json_int(doc.get("q", 1), "q"), json_int(doc.get("translate", 0), "translate")
    return GlobalDiscrete(doc["label"], side, d, orbit, q, places, locals_, translate)


def _gd_to_json(g: GlobalDiscrete):
    out = {
        "label": g.label,
        "side": g.side,
        "q": g.q,
        "translate": g.translate,
        "r" if g.side == "E" else "x": g.orbit,
        "locals": {},
    }
    for v in g.places:
        z = g.cusp_locals[v.label]
        if g.side == "E":
            out["locals"][v.label] = {
                "blocks": [[c.to_json() for c in b.coords] for b in z.blocks]
            }
        else:
            out["locals"][v.label] = {"coords": [c.to_json() for c in z.coords]}
    return out


def cmd_global_lift(doc, args):
    d, places = _places_from_doc(doc)
    Pi = _gd_from_json(doc["rep"], d, places)
    lift = global_ai_lift(Pi)
    return {
        "d": d,
        "places": [v.to_json() for v in places],
        "factors": [_gd_to_json(f) for f in lift.factors],
    }


def cmd_separate(doc, args):
    d, places = _places_from_doc(doc)

    def induced(sub):
        rep = _gd_from_json(sub["rep"], d, places)
        return InducedGlobal((rep,) * json_int(sub.get("l", 1), "l"))

    v = separate(induced(doc["pi"]), induced(doc["pi_prime"]))
    return {"distinct": v.distinct, "l": v.l, "gamma": v.gamma}


def cmd_verify(args, parser) -> int:
    from .verify import SUITES, run_suite  # compute verbs need not import it

    if args.suite != "all" and args.suite not in SUITES:
        parser.error(f"unknown suite {args.suite!r}; choose from all, {', '.join(SUITES)}")
    results = run_suite(args.suite, seed=args.seed, cases=args.cases)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return 1 if failed else 0


HANDLERS = {
    "lift-spherical": cmd_lift_spherical,
    "bc-spherical": cmd_bc_spherical,
    "fibers": cmd_fibers,
    "hecke-ai": cmd_hecke_ai,
    "hecke-bc": cmd_hecke_bc,
    "lift-unitary": cmd_lift_unitary,
    "lift-elliptic": cmd_lift_elliptic,
    "global-lift": cmd_global_lift,
    "separate": cmd_separate,
}


def _int_at_least(floor: int):
    """An argparse type: an int of at least ``floor``, else a usage error."""

    def parse(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() refuses the text
    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="autoind",
        description="Exact Satake-level lifting calculus for GL(n) over "
        "unramified cyclic extensions",
    )
    sub = ap.add_subparsers(dest="verb", required=True)
    for verb in HANDLERS:
        p = sub.add_parser(verb)
        p.add_argument("--input", "-i", default=None, help="JSON file (default stdin)")
        if verb == "fibers":
            p.add_argument("--max-rank", type=_int_at_least(1), default=MAX_FIBER_RANK)
        if verb in ("hecke-ai", "hecke-bc"):
            p.add_argument("--degree-budget", type=_int_at_least(0), default=DEGREE_BUDGET)
    pv = sub.add_parser("verify")
    pv.add_argument("--suite", default="all")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--cases", type=_int_at_least(1), default=None)
    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "verify":
        return cmd_verify(args, parser)
    try:
        if args.input:
            with open(args.input) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": {"kind": "BadInput", "detail": str(exc)}}))
        return 1
    if not isinstance(doc, dict):
        detail = f"expected a JSON object, got {type(doc).__name__}"
        print(json.dumps({"error": {"kind": "BadInput", "detail": detail}}))
        return 1
    try:
        out = HANDLERS[args.verb](doc, args)
    except DomainError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": exc.detail}}))
        return 2
    except (
        AttributeError, KeyError, ValueError, TypeError, IndexError, ZeroDivisionError
    ) as exc:
        print(json.dumps({"error": {"kind": "BadInput", "detail": repr(exc)}}))
        return 1
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
