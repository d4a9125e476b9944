"""The benchmark workloads: op streams, ops and their correctness oracles.

An op is one exact identity instance checked, or one CLI request with its
response checked.  ``request`` is the timed part of an op and ``check`` the
untimed part; together they return ``"ok"`` or ``"wrong"`` (a result the
oracle rejects) and let unexpected exceptions propagate.  The runner counts
both, and breaches of the per-op time cap, as failed ops.

The oracles do not read coefficient normal forms: transfer identities are
checked by exact evaluation (QCyclo equality is a zero test), and Satake
multisets are compared as sorted lists of rationals computed here.
"""

from __future__ import annotations

import io
import json
import os
import random
import signal
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import gen
from autoind import adelic, arith, hecke, reps, satake

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# ---------------------------------------------------------------------------
# Plain data -> library objects


def coordinate(c):
    a, n, p, q = c
    return arith.Coordinate(Fraction(a, n), Fraction(p, q))


def coefficient(c):
    num, den, k, o = c
    x = arith.QCyclo.rational(Fraction(num, den))
    if o > 1:
        x = x * arith.QCyclo.from_coordinate(arith.Coordinate(Fraction(k, o), Fraction(0)))
    return x


def laurent(f):
    n, shift, terms = f
    return hecke.SymLaurent(n, shift, {lam: coefficient(c) for lam, c in terms})


def algebra(alg):
    return satake.CyclicAlgebra(*alg)


def param(coords):
    return satake.SatakeParam(tuple(coordinate(c) for c in coords))


def spherical(alg, blocks):
    return satake.SphericalRepE(algebra(alg), tuple(param(b) for b in blocks))


def atom(a):
    uid, side, size, d, orbit, payload = a
    return reps.CuspidalAtom(
        uid, side, size, d, orbit, coordinate(payload) if payload else None
    )


def factor(f):
    kind, a, k = f[0], atom(f[1]), f[2]
    if kind == "elliptic":
        return reps.Elliptic(a, k, f[3], f[4])
    speh = reps.Speh(reps.EssDiscrete(a, k, Fraction(*f[3])), f[4])
    return reps.TwistedPair(speh, Fraction(*f[5])) if kind == "pair" else speh


def product(fs):
    return reps.Product(tuple(factor(f) for f in fs))


def places(d, pls):
    return tuple(adelic.Place(v, d, f) for v, f in pls)


def global_discrete(gd, pls, translate=0):
    label, d, r, q, locals_ = gd
    return adelic.GlobalDiscrete(
        label, "E", d, r, q, pls,
        {v.label: spherical((d, v.e, v.f), locals_[v.label]) for v in pls},
        translate,
    )


# ---------------------------------------------------------------------------
# Independent multiset oracles (rationals only)


def rational(c):
    """A plain coordinate as ``(zeta mod 1, qexp)``."""
    a, n, p, q = c
    return (Fraction(a, n) % 1, Fraction(p, q))


def point(doc):
    """A JSON coordinate as ``(zeta mod 1, qexp)``."""
    return (Fraction(*doc["zeta"]) % 1, Fraction(*doc["qexp"]))


def points(docs):
    return sorted(point(doc) for doc in docs)


def keys(coords):
    """Library coordinates as sorted points, read through their JSON form."""
    return points(c.to_json() for c in coords)


def lifted(points, s):
    """The lifting map on rationals: canonical s-th roots spread by zeta_s^j."""
    return sorted(((z / s + Fraction(j, s)) % 1, e / s) for z, e in points for j in range(s))


def powered(points, k):
    return sorted(((k * z) % 1, k * e) for z, e in points)


def staircase(points, q, qscale):
    half = Fraction(q - 1, 2)
    return [(z, e + qscale * (j - half)) for z, e in points for j in range(q)]


def rotated(blocks, j):
    j %= len(blocks)
    return blocks[j:] + blocks[:j]


def run_capped(fn, cap):
    """Run ``fn()`` under a SIGALRM wall-time cap; raise TimeoutError on a breach."""

    def alarm(signum, frame):
        raise TimeoutError(f"op exceeded {cap} s")

    old = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """An endless seeded op stream, cut into cycles of ``cycle`` ops.

    A run measures whole cycles until ``--seconds`` have passed and at least
    ``min_ops`` ops are done.  ``warmup_ops`` ops from a different stream
    make the warm-up pass; the first ``trace_ops`` ops of the timed stream
    make the traced pass.
    """

    name = ""
    cycle = 1
    probes = 1  # reference probes after each op (see ``run.measure``)
    min_ops = 1
    warmup_ops = 1
    trace_ops = 1
    cap_s = 30.0

    def stream(self, seed, part):
        raise NotImplementedError

    def request(self, case):
        """The timed part of an op."""
        raise NotImplementedError

    def request_inprocess(self, case):
        """``request`` without leaving this process (for the traced run)."""
        return self.request(case)

    def check(self, case, response):
        """The untimed part of an op: ``"ok"`` or ``"wrong"``."""
        return response

    def tag(self, case):
        """Bucket label for the adelic layers (number of places), or None."""
        return None


def _rng(workload, seed, part):
    # string seeds hash with sha512, so streams are stable across processes
    return random.Random(f"{workload}:{part}:{seed}")


class HeckeTransfer(Workload):
    """crit2 / crit3 oracle instances: both sides evaluated and compared exactly."""

    name = "hecke-transfer"
    cycle = 120
    min_ops = 120
    warmup_ops = 24
    trace_ops = 120

    def __init__(self):
        self.shapes = gen.hecke_shapes(self.cycle)

    def stream(self, seed, part):
        rng = _rng(self.name, seed, part)
        while True:
            for shape in self.shapes:
                yield gen.reroll_instance(rng, shape)

    def request(self, case):
        kind, alg, coords, laurents = case
        A = algebra(alg)
        if kind == "ai":
            f = laurent(laurents)
            y = spherical(alg, coords)
            lhs = hecke.satake_eval(f, satake.delta_map(y))
            rhs = hecke.satake_eval(hecke.ai_transfer(f, A), y.flatten())
        else:
            y = param(coords)
            factors = [laurent(g) for g in laurents]
            z = satake.bc_map(y, A)
            lhs = arith.QCyclo.rational(1)
            for g, b in zip(factors, z.blocks):
                lhs = lhs * hecke.satake_eval(g, b)
            rhs = hecke.satake_eval(hecke.bc_transfer(factors, A), y)
        return "ok" if lhs == rhs else "wrong"


LIFT_KINDS = ("maps", "ai-fiber", "square", "adelic", "maps", "bc-fiber", "generic", "adelic")


class LiftGlobal(Workload):
    """Satake maps and fibers, the reps square and genericity, and the adelic layer."""

    name = "lift-global"
    cycle = 6 * len(LIFT_KINDS)
    min_ops = 6 * len(LIFT_KINDS)
    warmup_ops = 3 * len(LIFT_KINDS)
    trace_ops = 12 * len(LIFT_KINDS)
    cap_s = 10.0

    def stream(self, seed, part):
        rng = _rng(self.name, seed, part)
        serial = adelic_ops = 0
        while True:
            for kind in LIFT_KINDS:
                serial += 1
                if kind == "maps":
                    args = gen.satake_maps_instance(rng)
                elif kind == "ai-fiber":
                    args = gen.ai_fiber_instance(rng)
                elif kind == "bc-fiber":
                    args = gen.bc_fiber_instance(rng)
                elif kind == "square":
                    args = (gen.unitary_product(rng, rng.choice((2, 3, 4)), f"{part}{serial}"),)
                elif kind == "generic":
                    args = (gen.symbolic_product(rng, rng.choice((2, 3, 4, 6)), f"{part}{serial}"),)
                else:
                    # 1, 2 and 3 places in turn
                    args = gen.adelic_instance(rng, 1 + adelic_ops % 3, f"{part}{serial}")
                    adelic_ops += 1
                yield (kind, args)

    def tag(self, case):
        return len(case[1][1]) if case[0] == "adelic" else None

    def request(self, case):
        kind, args = case
        return getattr(self, "_" + kind.replace("-", "_"))(*args)

    def _maps(self, alg, blocks):
        s = alg[2]
        y = spherical(alg, blocks)
        flat = [rational(c) for b in blocks for c in b]
        z = satake.delta_map(y)
        if keys(z.coords) != lifted(flat, s):
            return "wrong"
        back = satake.bc_map(z, algebra(alg))
        want = powered(lifted(flat, s), s)
        if any(keys(b.coords) != want for b in back.blocks):
            return "wrong"
        ok, _ = satake.check_ia_bc_compat(y)
        return "ok" if ok else "wrong"

    def _ai_fiber(self, alg, blocks):
        s = alg[2]
        y = spherical(alg, blocks)
        pi = satake.delta_map(y)
        fiber = satake.ai_fiber(pi, algebra(alg))
        want = keys(pi.coords)
        members = [tuple(keys(b.coords) for b in z.blocks) for z in fiber]
        if any(lifted([p for b in m for p in b], s) != want for m in members):
            return "wrong"
        mine = tuple(sorted(rational(c) for c in b) for b in blocks)
        return "ok" if mine in members else "wrong"

    def _bc_fiber(self, alg, coords):
        s = alg[2]
        z = satake.bc_map(param(coords), algebra(alg))
        fiber = satake.bc_fiber(z)
        block = powered([rational(c) for c in coords], s)
        members = [keys(x.coords) for x in fiber]
        if any(powered(m, s) != block for m in members):
            return "wrong"
        return "ok" if sorted(rational(c) for c in coords) in members else "wrong"

    def _square(self, fs):
        tau = product(fs)
        lhs = reps.specialize(reps.lift_unitary(tau))
        rhs = satake.delta_map(reps.specialize(tau))
        return "ok" if lhs == rhs else "wrong"

    def _generic(self, fs):
        tau = product(fs)
        pi = reps.lift_unitary(tau)
        generic = all(
            f[3] == (f[2],) if f[0] == "elliptic" else f[4] == 1 for f in fs
        )
        if reps.is_generic(tau) != generic or reps.is_generic(pi) != generic:
            return "wrong"
        fiber = reps.fiber_unitary(pi, tau)
        if tau not in fiber or any(reps.lift_unitary(x) != pi for x in fiber):
            return "wrong"
        return "ok"

    def _adelic(self, d, pls, delta, l, j, other, lemma):
        pls = places(d, pls)
        Pi = global_discrete(delta, pls)
        if adelic.check_global_compat(Pi) is not True:
            return "wrong"
        lift = adelic.global_ai_lift(Pi)
        for v in pls:
            if keys(lift.local(v).coords) != lifted(keys(Pi.local(v).flatten().coords), v.f):
                return "wrong"
        verdict = adelic.separate(
            adelic.InducedGlobal((Pi,) * l), adelic.InducedGlobal((Pi.translated(j),) * l)
        )
        if verdict.distinct or verdict.l != l or Pi.translated(verdict.gamma) != Pi.translated(j):
            return "wrong"
        verdict = adelic.separate(
            adelic.InducedGlobal((Pi,) * l),
            adelic.InducedGlobal((global_discrete(other, pls),) * l),
        )
        if not verdict.distinct:
            return "wrong"
        for core, lc, lp, ld in lemma:
            g = gcd(lc, lp)
            if not adelic.lemma46_local_identity(
                param(core * (lp // g)), lc, param(core * (lc // g)), lp, ld
            ):
                return "wrong"
        return "ok"


# ---------------------------------------------------------------------------
# cli-oneshot

VERBS = (
    "lift-spherical",
    "bc-spherical",
    "fibers",
    "hecke-ai",
    "hecke-bc",
    "lift-unitary",
    "lift-elliptic",
    "global-lift",
    "separate",
)
SPECIAL_ROUNDS = (5, 11)  # of every 12 rounds: domain-error and malformed documents
# Verbs that end in a traceback on non-object JSON (``[]``).  A benchmark op
# must not fail, so these verbs get truncated JSON as their malformed
# document, and ``CliOneshot.tracebacks`` probes the defect once per run.
NONOBJECT_TRACEBACK = ("fibers", "lift-unitary", "lift-elliptic")


def coord_json(c):
    return {"zeta": [c[0], c[1]], "qexp": [c[2], c[3]]}


def point_json(point):
    z, e = point
    return {"zeta": [z.numerator, z.denominator], "qexp": [e.numerator, e.denominator]}


def alg_json(alg):
    return {"d": alg[0], "r": alg[1], "s": alg[2]}


def laurent_json(f):
    n, shift, terms = f
    out = []
    for lam, (num, den, k, o) in terms:
        coeffs = [[0, 1]] * k + [[num, den]]
        coef = {"terms": [{"qexp": [0, 1], "conductor": o, "coeffs": coeffs}]}
        out.append({"exps": list(lam), "coef": coef})
    return {"nvars": n, "shift": shift, "terms": out}


def atom_json(a):
    uid, side, size, d, orbit, payload = a
    doc = {"id": uid, "side": side, "size": size, "d": d, "r" if side == "E" else "x": orbit}
    if payload:
        doc["payload"] = coord_json(payload)
    return doc


def factor_json(f):
    if f[0] == "elliptic":
        return {"kind": "elliptic", "atom": atom_json(f[1]), "k": f[2], "levi": list(f[3]), "translate": f[4]}
    doc = {"kind": f[0], "atom": atom_json(f[1]), "k": f[2], "twist": list(f[3]), "translate": 0, "q": f[4]}
    if f[0] == "pair":
        doc["alpha"] = list(f[5])
    return doc


def global_json(gd, pls, translate=0):
    label, d, r, q, locals_ = gd
    return {
        "label": label,
        "side": "E",
        "r": r,
        "q": q,
        "translate": translate,
        "locals": {v: {"blocks": [[coord_json(c) for c in b] for b in locals_[v]]} for v, _ in pls},
    }


def small_ai(rng):
    """A hecke-ai request: crit2 shapes cut to <= 4 variables, degree <= 4, orders <= 6."""
    d = rng.choice((2, 3))
    alg = gen.algebra(rng, d)
    m = rng.randint(1, 4 // d)
    f = gen.symlaurent(rng, m * d, maxdeg=4)
    return alg, f, gen.spherical(rng, alg, m, max_order=6)


def small_bc(rng):
    alg = gen.algebra(rng, rng.choice((2, 3)))
    n = rng.randint(1, 2)
    y = tuple(gen.coordinate(rng, 6) for _ in range(n))
    return alg, tuple(gen.symlaurent(rng, n, maxdeg=3) for _ in range(alg[1])), y


class CliOneshot(Workload):
    """One fresh ``python -m autoind.cli <verb>`` per request, round-robin over the verbs.

    Rounds 5 and 11 of every 12 carry the special documents: domain errors
    (exit 2 expected; verbs without a domain error get a valid document) and
    malformed documents (exit 1 expected), alternating over the verbs.  The
    malformed document is non-object JSON (``[]``) in even cycles of 12
    rounds and truncated JSON in odd ones; the verbs of
    ``NONOBJECT_TRACEBACK`` always get truncated JSON.  Only the request is
    timed; its response is checked afterwards.
    """

    name = "cli-oneshot"
    cycle = len(VERBS)
    probes = 5
    min_ops = 12 * len(VERBS)
    warmup_ops = len(VERBS)
    trace_ops = 12 * len(VERBS)
    cap_s = 30.0

    def stream(self, seed, part):
        rng = _rng(self.name, seed, part)
        i = 0
        while True:
            rnd, v = divmod(i, len(VERBS))
            verb = VERBS[v]
            slot = rnd % 12
            expect = "ok"
            if slot in SPECIAL_ROUNDS:
                odd = (v + SPECIAL_ROUNDS.index(slot)) % 2
                expect = "malformed" if odd else "domain"
            text, info = self._document(rng, verb, expect, i, f"{part}{i}")
            if expect == "malformed":
                nonobject = rnd // 12 % 2 == 0 and verb not in NONOBJECT_TRACEBACK
                text = "[]" if nonobject else text[: len(text) // 2]
                info = None
            elif expect == "domain" and info is not None and info[0] != "domain":
                expect = "ok"
            yield (verb, expect, text, info)
            i += 1

    def _document(self, rng, verb, expect, i, serial):
        """Returns the JSON text and what its check needs; ``serial`` makes labels unique."""
        domain = expect == "domain"
        if verb == "lift-spherical":
            alg, blocks = gen.satake_maps_instance(rng)
            doc = dict(alg_json(alg), y=[coord_json(c) for b in blocks for c in b])
            return json.dumps(doc), ("lift", alg, blocks)
        if verb == "bc-spherical":
            alg, coords = gen.bc_fiber_instance(rng)
            doc = {"algebra": alg_json(alg), "y": [coord_json(c) for c in coords]}
            return json.dumps(doc), ("bc", alg, coords)
        if verb == "fibers":
            if domain:
                # a random field-case parameter whose q-exponents differ is never twist-stable
                d = rng.choice((2, 3))
                coords = [(rng.randrange(12), 12, e, 1) for e in range(d)]
                doc = {"direction": "ai", "algebra": alg_json((d, 1, d)),
                       "param": {"coords": [coord_json(c) for c in coords]}}
                return json.dumps(doc), ("domain",)
            if i // len(VERBS) % 2 == 0:
                alg, blocks = gen.ai_fiber_instance(rng)
                pi = lifted([rational(c) for b in blocks for c in b], alg[2])
                doc = {"direction": "ai", "algebra": alg_json(alg),
                       "param": {"coords": [point_json(p) for p in pi]}}
                return json.dumps(doc), ("ai-fiber", alg, blocks)
            alg, coords = gen.bc_fiber_instance(rng)
            block = powered([rational(c) for c in coords], alg[2])
            rows = [[point_json(p) for p in block]]
            doc = {"direction": "bc", "rep": {"algebra": alg_json(alg), "blocks": rows * alg[1]}}
            return json.dumps(doc), ("bc-fiber", alg, coords)
        if verb == "hecke-ai":
            alg, f, blocks = small_ai(rng)
            if domain:
                f = gen.symlaurent(rng, f[0] + 1, maxdeg=4)
                return json.dumps({"algebra": alg_json(alg), "f": laurent_json(f)}), ("domain",)
            return json.dumps({"algebra": alg_json(alg), "f": laurent_json(f)}), ("hecke-ai", alg, f, blocks)
        if verb == "hecke-bc":
            alg, factors, y = small_bc(rng)
            if domain:
                factors = factors + factors[:1]
                doc = {"algebra": alg_json(alg), "factors": [laurent_json(g) for g in factors]}
                return json.dumps(doc), ("domain",)
            doc = {"algebra": alg_json(alg), "factors": [laurent_json(g) for g in factors]}
            return json.dumps(doc), ("hecke-bc", alg, factors, y)
        if verb == "lift-unitary":
            fs = gen.unitary_product(rng, rng.choice((2, 3, 4)), serial)
            if domain:
                # lifting is defined on E-side data only
                uid, _, size, d, _, payload = fs[0][1]
                fs = ((fs[0][0], (uid, "F", size, d, d, payload)) + fs[0][2:],) + fs[1:]
            doc = {"tau": {"kind": "product", "factors": [factor_json(f) for f in fs]}}
            return json.dumps(doc), ("domain",) if domain else ("square", fs)
        if verb == "lift-elliptic":
            d = rng.choice((2, 3, 4, 6))
            r = gen.divisor(rng, d)
            k = rng.randint(1, 3)
            # lifting is defined on E-side data only
            a = (f"e{serial}", "F" if domain else "E", rng.randint(1, 2), d, r, None)
            f = ("elliptic", a, k, rng.choice(gen.compositions(k)), rng.randrange(d // r))
            return json.dumps({"elliptic": factor_json(f)}), ("domain",) if domain else ("elliptic", f)
        d, pls, delta, l, j, other, _ = gen.adelic_instance(rng, rng.randint(1, 3), serial)
        if domain:
            # local data of a Galois-stable datum (r = d) must be stable under sigma;
            # two different blocks at a place with two blocks are not
            d, pls = 2, (("v0", 1),)
            # (random coordinates have |qexp| <= 6, so the blocks differ)
            block = tuple(gen.coordinate(rng, 12) for _ in range(2))
            delta = (f"B{serial}", 2, 2, 1, {"v0": (block, ((0, 1, 100, 1), (0, 1, 101, 1)))})
        head = {"d": d, "places": [{"label": v, "f": f} for v, f in pls]}
        if verb == "global-lift":
            doc = dict(head, rep=global_json(delta, pls))
            return json.dumps(doc), ("domain",) if domain else ("global", pls, delta)
        twin = domain or i // len(VERBS) % 2 == 0
        second = global_json(delta, pls, j) if twin else global_json(other, pls)
        doc = dict(head, pi={"rep": global_json(delta, pls), "l": l}, pi_prime={"rep": second, "l": l})
        return json.dumps(doc), ("domain",) if domain else ("separate", pls, delta, l, j if twin else None)

    # requests -------------------------------------------------------------

    def request(self, case):
        """One fresh CLI process; returns ``(exit code, stdout, stderr)``."""
        verb, _, text, _ = case
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "autoind.cli", verb],
            input=text, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=self.cap_s,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def request_inprocess(self, case):
        """The same request through ``cli.main``."""
        from autoind import cli

        verb, _, text, _ = case
        out = io.StringIO()
        stdin = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with redirect_stdout(out):
                code = cli.main([verb])
        finally:
            sys.stdin = stdin
        return code, out.getvalue(), ""

    def tracebacks(self):
        """The verbs of ``NONOBJECT_TRACEBACK`` that still fail on ``[]``, in process."""
        out = []
        for verb in NONOBJECT_TRACEBACK:
            case = (verb, "malformed", "[]", None)
            try:
                response = self.request_inprocess(case)
            except Exception:
                out.append(verb)
                continue
            if self.check(case, response) != "ok":
                out.append(verb)
        return out

    def tag(self, case):
        info = case[3]
        return len(info[1]) if info and info[0] in ("global", "separate") else None

    def check(self, case, response):
        verb, expect, _, info = case
        code, stdout, stderr = response
        if "Traceback (most recent call last)" in stderr:
            return "error"
        try:
            body = json.loads(stdout)
        except json.JSONDecodeError:
            return "error"
        if not isinstance(body, dict):
            return "error"
        if expect != "ok":
            want = 2 if expect == "domain" else 1
            return "ok" if code == want and "kind" in body.get("error", {}) else "error"
        if code != 0:
            return "error"
        return "ok" if self._verify(info, body) else "wrong"

    def _verify(self, info, body):
        kind = info[0]
        if kind == "lift":
            _, alg, blocks = info
            return points(body["coords"]) == lifted([rational(c) for b in blocks for c in b], alg[2])
        if kind == "bc":
            _, alg, coords = info
            want = powered([rational(c) for c in coords], alg[2])
            rows = [points(b) for b in body["blocks"]]
            return len(rows) == alg[1] and all(r == want for r in rows)
        if kind == "ai-fiber":
            _, alg, blocks = info
            want = lifted([rational(c) for b in blocks for c in b], alg[2])
            members = [tuple(points(b) for b in z["blocks"]) for z in body["fiber"]]
            mine = tuple(sorted(rational(c) for c in b) for b in blocks)
            return (
                body["count"] == len(members)
                and mine in members
                and all(lifted([p for b in m for p in b], alg[2]) == want for m in members)
            )
        if kind == "bc-fiber":
            _, alg, coords = info
            block = powered([rational(c) for c in coords], alg[2])
            members = [points(y["coords"]) for y in body["fiber"]]
            return (
                body["count"] == len(members)
                and sorted(rational(c) for c in coords) in members
                and all(powered(m, alg[2]) == block for m in members)
            )
        if kind == "hecke-ai":
            _, alg, f, blocks = info
            y = spherical(alg, blocks)
            g = hecke.SymLaurent.from_json(body)
            return hecke.satake_eval(laurent(f), satake.delta_map(y)) == hecke.satake_eval(g, y.flatten())
        if kind == "hecke-bc":
            _, alg, factors, coords = info
            y = param(coords)
            z = satake.bc_map(y, algebra(alg))
            lhs = arith.QCyclo.rational(1)
            for f, b in zip(factors, z.blocks):
                lhs = lhs * hecke.satake_eval(laurent(f), b)
            return lhs == hecke.satake_eval(hecke.SymLaurent.from_json(body), y)
        if kind == "square":
            tau = product(info[1])
            return reps.specialize(reps.factor_from_json(body)) == satake.delta_map(reps.specialize(tau))
        if kind == "elliptic":
            _, (_, (uid, _, size, d, r, _), k, levi, _) = info
            want = sorted(
                (f"ai:{uid}", "F", size * (d // r), d, r, k, tuple(levi), i) for i in range(r)
            )
            got = sorted(
                (f["atom"]["id"], f["atom"]["side"], f["atom"]["size"], f["atom"]["d"],
                 f["atom"]["x"], f["k"], tuple(f["levi"]), f["translate"])
                for f in body["factors"]
            )
            return all(f["kind"] == "elliptic" for f in body["factors"]) and got == want
        if kind == "global":
            return self._verify_global(info, body)
        _, pls, delta, l, j = info
        if j is None:
            return body["distinct"] is True
        if body["distinct"] is not False or body["l"] != l:
            return False
        for v, _ in pls:
            blocks = tuple(tuple(sorted(rational(c) for c in b)) for b in delta[4][v])
            if rotated(blocks, body["gamma"]) != rotated(blocks, j):
                return False
        return True

    def _verify_global(self, info, body):
        """Placewise: the induced F-side product equals the lift of Pi's local datum."""
        _, pls, (_, _, r, q, locals_) = info
        factors = body["factors"]
        if len(factors) != r or any(f["side"] != "F" or f["x"] != r or f["q"] != q for f in factors):
            return False
        for v, fv in pls:
            speh = staircase([rational(c) for b in locals_[v] for c in b], q, fv)
            want = lifted(speh, fv)
            got = []
            for f in factors:
                # the translate twists by zeta_v^translate, zeta_v of order f_v
                shift = Fraction(f["translate"], fv)
                cusp = [((z + shift) % 1, e) for z, e in points(f["locals"][v]["coords"])]
                got.extend(staircase(cusp, q, 1))
            if sorted(got) != want:
                return False
        return True


WORKLOADS = {w.name: w for w in (HeckeTransfer, LiftGlobal, CliOneshot)}
