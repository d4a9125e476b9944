"""Command-line front end: JSON in, JSON out, deterministic.

Exit codes: 0 on success, 2 on a domain error (reported as
``{"error": {"kind": .., "detail": ..}}``) or a usage error (reason on
stderr), 1 on malformed input.  :func:`parse_args` reads argv by the fixed
grammar of ``USAGE``, with no ``argparse`` to import.  The ``verify`` verb runs
the seeded property suites and prints one line per property.
"""

from __future__ import annotations

import gc
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


USAGE = """usage: autoind VERB [--input FILE | -i FILE | --input=FILE]
       autoind verify [--suite SUITE] [--seed N] [--cases N]"""


def _usage_error(reason: str):
    print(f"{USAGE}\nautoind: error: {reason}", file=sys.stderr)
    raise SystemExit(2)


def parse_args(argv: list) -> tuple:
    """``(verb, options)`` from argv by the grammar of ``USAGE``: ``-h`` or
    ``--help`` prints the help and exits 0, a usage error exits 2."""
    if "-h" in argv or "--help" in argv:
        print(f"{USAGE}\n\nVERB is one of {', '.join(VERBS)}; FILE is JSON (default stdin).")
        raise SystemExit(0)
    if not argv:
        _usage_error("the following arguments are required: verb")
    verb, words = argv[0], iter(argv[1:])
    if verb == "verify":
        options = {"--suite": "all", "--seed": 0, "--cases": None}
    elif verb in VERBS:
        options = {"--input": None}
    else:
        choices = ", ".join([*VERBS, "verify"])
        _usage_error(f"argument verb: invalid choice: {verb!r} (choose from {choices})")
    for word in words:
        name, eq, value = word.partition("=")
        name = "--input" if name == "-i" else name
        if name not in options:
            _usage_error(f"unrecognized arguments: {word}")
        value = value if eq else next(words, None)
        if value is None:
            _usage_error(f"argument {name}{'/-i' * (name == '--input')}: expected one argument")
        if name in ("--seed", "--cases"):
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument {name}: invalid int value: {value!r}")
            if name == "--cases" and value < 1:
                _usage_error(f"argument --cases: must be at least 1, got {value}")
        options[name] = value
    return verb, options


def cmd_verify(options) -> int:
    from .verify import SUITES, run_suite  # compute verbs need not import it

    suite = options["--suite"]
    if suite != "all" and suite not in SUITES:
        _usage_error(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    results = run_suite(suite, seed=options["--seed"], cases=options["--cases"])
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} properties passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    verb, options = parse_args(sys.argv[1:] if argv is None else list(argv))
    if verb == "verify":
        return cmd_verify(options)
    try:
        if options["--input"] is not None:  # "" is a path like any other
            with open(options["--input"]) as fh:
                doc = json.load(fh)
        else:
            doc = json.load(sys.stdin)
        if not isinstance(doc, dict):
            raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, or no UTF-8 JSON object
        detail = "document nested too deeply" if isinstance(exc, RecursionError) else str(exc)
        print(json.dumps({"error": {"kind": "BadInput", "detail": detail}}))
        return 1
    module, handler = VERBS[verb]
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


def run():
    """The process entry (``python -m autoind.cli``, the ``autoind`` script; tests call
    :func:`main`): the heap is frozen on exit, so shutdown's collections skip it."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()  # not os._exit: streams must still flush and atexit handlers run


if __name__ == "__main__":
    run()
