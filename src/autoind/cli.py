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
from importlib import import_module

from .errors import DomainError


def _lift_spherical(satake, doc):
    return satake.delta_map(satake.SphericalRepE.from_json(doc)).to_json()


def _bc_spherical(satake, doc):
    alg = satake.CyclicAlgebra.from_json(doc["algebra"] if "algebra" in doc else doc)
    y = satake.SatakeParam.from_json({"coords": doc["y"]} if "y" in doc else doc)
    return satake.bc_map(y, alg).to_json()


def _fibers(satake, doc):
    direction = doc.get("direction", "ai")
    if direction == "ai":
        alg = satake.CyclicAlgebra.from_json(doc["algebra"])
        pi = satake.SatakeParam.from_json(doc["param"])
        fib = sorted(
            satake.ai_fiber(pi, alg), key=lambda z: tuple(b.coords for b in z.blocks)
        )
    elif direction == "bc":
        z = satake.SphericalRepE.from_json(doc["rep"])
        fib = sorted(satake.bc_fiber(z), key=lambda y: y.coords)
    else:
        raise ValueError(f"unknown fiber direction {direction!r}")
    return {"count": len(fib), "fiber": [x.to_json() for x in fib]}


def _hecke_ai(hecke, doc):
    alg = hecke.CyclicAlgebra.from_json(doc["algebra"])
    return hecke.ai_transfer(hecke.SymLaurent.from_json(doc["f"]), alg).to_json()


def _hecke_bc(hecke, doc):
    alg = hecke.CyclicAlgebra.from_json(doc["algebra"])
    factors = [hecke.SymLaurent.from_json(g) for g in doc["factors"]]
    return hecke.bc_transfer(factors, alg).to_json()


def _lift_unitary(reps, doc):
    return reps.lift_unitary(reps.factor_from_json(doc["tau"] if "tau" in doc else doc)).to_json()


def _lift_elliptic(reps, doc):
    e = reps.factor_from_json(doc["elliptic"] if "elliptic" in doc else doc)
    if not isinstance(e, reps.Elliptic):
        raise ValueError("expected an elliptic expression")
    return reps.lift_unitary(e).to_json()


def _global_lift(adelic, doc):
    d, places = adelic.Place.all_from_json(doc)
    return adelic.global_ai_lift(adelic.GlobalDiscrete.from_json(doc["rep"], d, places)).to_json()


def _separate(adelic, doc):
    d, places = adelic.Place.all_from_json(doc)
    pi, pi_prime = (
        adelic.InducedGlobal.isotypic_from_json(doc[k], d, places) for k in ("pi", "pi_prime")
    )
    return adelic.separate(pi, pi_prime).to_json()


# verb -> (library module, handler).  ``main`` imports the module only when
# it dispatches, so a verb loads only the layers it uses.
VERBS = {
    "lift-spherical": ("satake", _lift_spherical),
    "bc-spherical": ("satake", _bc_spherical),
    "fibers": ("satake", _fibers),
    "hecke-ai": ("hecke", _hecke_ai),
    "hecke-bc": ("hecke", _hecke_bc),
    "lift-unitary": ("reps", _lift_unitary),
    "lift-elliptic": ("reps", _lift_elliptic),
    "global-lift": ("adelic", _global_lift),
    "separate": ("adelic", _separate),
}


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
    for verb in VERBS:
        p = sub.add_parser(verb)
        p.add_argument("--input", "-i", default=None, help="JSON file (default stdin)")
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
    except RecursionError:
        print(json.dumps({"error": {"kind": "BadInput", "detail": "document nested too deeply"}}))
        return 1
    if not isinstance(doc, dict):
        detail = f"expected a JSON object, got {type(doc).__name__}"
        print(json.dumps({"error": {"kind": "BadInput", "detail": detail}}))
        return 1
    module, handler = VERBS[args.verb]
    library = import_module(f".{module}", __package__)
    try:
        out = handler(library, doc)
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
