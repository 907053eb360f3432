"""Command line front end.

Verbs: decompose, size, sdepth, bound, check, verify-sum, polarize, corpus.
Exit codes: 0 success, 1 usage or domain error, 2 parse error, 3 resource
limit, 4 invariant violation found by a checking verb.  Component indices
in output are 1-based.  Reports are deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bound import (BoundReport, CheckReport, check_size_inequality,
                    build_split, sdepth_lower_bound, verify_direct_sum)
from .core import MonomialIdeal, RingCtx, render_monomial
from .corpus import FAMILIES, CorpusSpec, generate_corpus
from .decomposition import Decomposition, decompose
from .errors import (DomainError, ExponentCapError, ParseError,
                     ResourceLimitError, RingMismatchError, StanleyError)
from .parsing import parse_ideal
from .sdepth import DEFAULT_POINT_CAP, sdepth_module
from .size import size

USAGE_EXIT = 1
PARSE_EXIT = 2
RESOURCE_EXIT = 3
VIOLATION_EXIT = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_ideal(args) -> MonomialIdeal:
    if args.ideal is not None and args.file is not None:
        raise DomainError("give ideal text or --file, not both")
    if args.ideal is not None:
        text = args.ideal
    elif args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        raise DomainError("an ideal is required, as text or via --file")
    ring = RingCtx(args.ring) if args.ring is not None else None
    return parse_ideal(text, ring)


def _deadline(args) -> float | None:
    """When the command's depth searches must stop, on time.monotonic()."""
    if args.sdepth_timeout_ms is None:
        return None
    return time.monotonic() + args.sdepth_timeout_ms / 1000.0


def _emit_json(args, payload: dict) -> None:
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _decomposition_json(D: Decomposition) -> list:
    out = []
    for comp in D.components:
        out.append([render_monomial(D.ring.variable(i, e), D.ring)
                    for i, e in comp.powers])
    return out


def _bound_json(D: Decomposition, rep: BoundReport) -> dict:
    ring = D.ring

    def term_json(t):
        return {
            "tau": [j + 1 for j in t.subset],
            "w": render_monomial(t.multiplier, ring),
            "ideal_part": t.ideal_part,
            "quotient_part": t.quotient_part,
            "total": t.total,
            "degenerate": t.degenerate,
        }

    return {
        "value": rep.value,
        "per_pivot": [{"pivot": pb.pivot + 1, "value": pb.value,
                       "base": pb.base, "terms": len(pb.terms),
                       "skipped": len(pb.skipped)}
                      for pb in rep.per_pivot],
        "terms": [term_json(t) for t in rep.best().terms],
    }


def _check_json(rep: CheckReport) -> dict:
    D = rep.decomposition
    return {
        "ideal": rep.ideal.render(),
        "n": rep.ideal.ring.n,
        "s": D.s,
        "decomposition": _decomposition_json(D),
        "size": {
            "h": rep.size.h,
            "v": rep.size.v,
            "size": rep.size.size,
            "witness": [j + 1 for j in rep.size.witness],
        },
        "hypothesis": {
            "satisfied": rep.hypothesis.satisfied,
            "violations": [{"i": i + 1, "tau": [j + 1 for j in subset]}
                           for i, subset in rep.hypothesis.violations],
        },
        "bound": _bound_json(D, rep.bound),
        "sdepth_exact": rep.sdepth_exact,
        "inequality_holds": rep.inequality_holds,
    }


def _render_point(p) -> str:
    return "(" + ",".join(str(e) for e in p) + ")"


# ---------------------------------------------------------------------------
# verbs
# ---------------------------------------------------------------------------

def _cmd_decompose(args) -> int:
    I = _load_ideal(args)
    D = decompose(I)
    print(f"I = {I.render()}   (ring of {I.ring.n})")
    print(f"s = {D.s}")
    for k, comp in enumerate(D.components):
        print(f"Q{k + 1}: {comp.render(D.ring)}")
    _emit_json(args, {"ideal": I.render(), "n": I.ring.n, "s": D.s,
                      "decomposition": _decomposition_json(D)})
    return 0


def _cmd_size(args) -> int:
    I = _load_ideal(args)
    D = decompose(I)
    rep = size(I, decomposition=D)
    print(f"I = {I.render()}")
    print(f"n = {rep.n}  s = {rep.s}  h = {rep.h}  v = {rep.v}")
    print(f"size = {rep.size}")
    print("witness: " + ", ".join(f"Q{j + 1}" for j in rep.witness))
    _emit_json(args, {"ideal": I.render(), "n": rep.n, "s": rep.s,
                      "decomposition": _decomposition_json(D),
                      "size": {"h": rep.h, "v": rep.v, "size": rep.size,
                               "witness": [j + 1 for j in rep.witness]}})
    return 0


def _cmd_sdepth(args) -> int:
    deadline = _deadline(args)
    I = _load_ideal(args)
    if args.module == "quotient":
        pair, label = (I, MonomialIdeal.unit(I.ring)), "sdepth(S/I)"
    else:
        pair, label = (MonomialIdeal.zero(I.ring), I), "sdepth(I)"
    result = sdepth_module(*pair, cap_points=args.sdepth_cap_points,
                           deadline=deadline)
    print(f"I = {I.render()}")
    print(f"{label} = {result.value}   (ring of {I.ring.n}, caps g = {result.g})")
    print(f"witness partition, {len(result.intervals)} intervals:")
    shown = result.intervals if len(result.intervals) <= 40 else result.intervals[:40]
    for iv in shown:
        print(f"  [{_render_point(iv.lower)}, {_render_point(iv.upper)}]  dim {iv.dim}")
    if len(result.intervals) > 40:
        print(f"  ... {len(result.intervals) - 40} more")
    _emit_json(args, {
        "ideal": I.render(), "n": I.ring.n, "module": args.module,
        "sdepth": result.value, "g": list(result.g),
        "intervals": [{"lower": list(iv.lower), "upper": list(iv.upper),
                       "dim": iv.dim} for iv in result.intervals]})
    return 0


def _parse_pivot(value: str, s: int) -> list:
    if value == "all":
        return list(range(s))
    try:
        p = int(value)
    except ValueError:
        raise DomainError(f"pivot must be an index or 'all', got {value!r}")
    if not 1 <= p <= s:
        raise DomainError(f"pivot {p} outside 1..{s}")
    return [p - 1]


def _cmd_bound(args) -> int:
    deadline = _deadline(args)
    I = _load_ideal(args)
    D = decompose(I)
    pivots = _parse_pivot(args.pivot, D.s)
    pivot = None if len(pivots) == D.s else pivots[0]
    rep = sdepth_lower_bound(I, pivot=pivot, decomposition=D,
                             cap_points=args.sdepth_cap_points,
                             deadline=deadline)
    print(f"I = {I.render()}   s = {D.s}")
    for pb in rep.per_pivot:
        print(f"pivot {pb.pivot + 1}: bound {pb.value}  "
              f"(base n-r = {pb.base}, {len(pb.terms)} terms, "
              f"{len(pb.skipped)} skipped)")
    best = rep.best()
    print(f"lower bound for sdepth(S/I): {rep.value}  (pivot {best.pivot + 1})")
    _emit_json(args, {"ideal": I.render(), "n": I.ring.n, "s": D.s,
                      "bound": _bound_json(D, rep)})
    return 0


def _cmd_check(args) -> int:
    deadline = _deadline(args)
    I = _load_ideal(args)
    rep = check_size_inequality(I, cap_points=args.sdepth_cap_points,
                                deadline=deadline)
    print(f"I = {I.render()}   (ring of {rep.ideal.ring.n}, s = {rep.decomposition.s})")
    print(f"size = {rep.size.size}  (h = {rep.size.h}, v = {rep.size.v})")
    print("hypothesis: " + ("satisfied" if rep.hypothesis.satisfied else
                            f"violated ({len(rep.hypothesis.violations)} pairs)"))
    print(f"bound = {rep.bound.value}  (best pivot {rep.bound.best().pivot + 1})")
    print(f"sdepth(S/I) = {rep.sdepth_exact}")
    print(f"sdepth >= bound: {'yes' if rep.sdepth_ge_bound else 'NO'}   "
          f"bound >= size: {'yes' if rep.bound_ge_size else 'no'}   "
          f"sdepth >= size: {'yes' if rep.inequality_holds else 'no'}")
    print("OK" if rep.ok else "INVARIANT VIOLATION")
    _emit_json(args, _check_json(rep))
    return 0 if rep.ok else VIOLATION_EXIT


def _cmd_verify_sum(args) -> int:
    I = _load_ideal(args)
    D = decompose(I)
    pivots = _parse_pivot(args.pivot, D.s)
    results = []
    all_ok = True
    print(f"I = {I.render()}   s = {D.s}, degree cap {args.degree_cap}")
    for p in pivots:
        rep = verify_direct_sum(build_split(D, p), degree_cap=args.degree_cap)
        all_ok = all_ok and rep.ok
        note = " (cap below max generator degree)" if rep.cap_warning else ""
        print(f"pivot {p + 1}: {rep.checked} monomials, "
              f"{'ok' if rep.ok else f'{len(rep.violations)} violations'}{note}")
        for m, reason in rep.violations[:10]:
            print(f"  {render_monomial(m, D.ring)}: {reason}")
        results.append({"pivot": p + 1, "checked": rep.checked, "ok": rep.ok,
                        "cap_warning": rep.cap_warning,
                        "violations": [
                            {"monomial": render_monomial(m, D.ring),
                             "reason": reason}
                            for m, reason in rep.violations]})
    _emit_json(args, {"ideal": I.render(), "n": I.ring.n, "s": D.s,
                      "degree_cap": args.degree_cap, "results": results})
    return 0 if all_ok else VIOLATION_EXIT


def _cmd_polarize(args) -> int:
    I = _load_ideal(args)
    P, added = I.polarize()
    print(f"I = {I.render()}   (ring of {I.ring.n})")
    print(f"polarized = {P.render()}   (ring of {P.ring.n}, added {added})")
    _emit_json(args, {"ideal": I.render(), "n": I.ring.n,
                      "polarized": P.render(), "polarized_n": P.ring.n,
                      "added": added})
    return 0


def _parse_range(text: str) -> tuple:
    if ".." in text:
        lo, hi = text.split("..", 1)
    else:
        lo = hi = text
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise DomainError(f"expected N or LO..HI, got {text!r}")
    if lo < 1 or hi < lo:
        raise DomainError(f"bad range {text!r}")
    return lo, hi


def _cmd_corpus(args) -> int:
    deadline = _deadline(args)
    spec = CorpusSpec(seed=args.seed, count=args.count, family=args.family,
                      n_range=_parse_range(args.n),
                      gens_range=_parse_range(args.gens),
                      max_exponent=args.max_exponent)
    ideals = generate_corpus(spec)
    results = []
    failures = []
    slacks = []
    for k, I in enumerate(ideals):
        rep = check_size_inequality(I, cap_points=args.sdepth_cap_points,
                                    deadline=deadline)
        results.append(_check_json(rep))
        slacks.append(rep.sdepth_exact - rep.size.size)
        status = "ok" if rep.ok else "VIOLATION"
        if not rep.ok:
            failures.append(k)
        print(f"[{k}] {I.render()}  size={rep.size.size} "
              f"bound={rep.bound.value} sdepth={rep.sdepth_exact} "
              f"hyp={'y' if rep.hypothesis.satisfied else 'n'} {status}")
    print(f"corpus: {len(ideals)} ideals, {len(failures)} violations, "
          f"min slack {min(slacks) if slacks else None}")
    _emit_json(args, {
        "spec": {"seed": spec.seed, "count": spec.count, "family": spec.family,
                 "n": list(spec.n_range), "gens": list(spec.gens_range),
                 "max_exponent": spec.max_exponent},
        "results": results,
        "summary": {"count": len(ideals), "failures": failures,
                    "min_slack": min(slacks) if slacks else None}})
    return VIOLATION_EXIT if failures else 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_ideal_args(sub) -> None:
    sub.add_argument("ideal", nargs="?", default=None,
                     help="ideal text, e.g. 'x1^2, x2*x3'")
    sub.add_argument("--file", default=None, help="read the ideal text from a file")
    sub.add_argument("--ring", type=int, default=None,
                     help="number of variables (else inferred)")
    sub.add_argument("--json", default=None, help="write a JSON report here")


def _add_sdepth_args(sub) -> None:
    sub.add_argument("--sdepth-cap-points", type=int, default=DEFAULT_POINT_CAP,
                     help="largest poset size searched (default %(default)s)")
    sub.add_argument("--sdepth-timeout-ms", type=int, default=None,
                     help="time budget for all depth searches of the command")


def build_parser() -> _Parser:
    parser = _Parser(prog="stanley",
                     description="Monomial ideal decompositions, size, "
                                 "Stanley depth, and lower bounds.")
    subs = parser.add_subparsers(dest="verb", required=True)

    sub = subs.add_parser("decompose", help="irredundant irreducible decomposition")
    _add_ideal_args(sub)
    sub.set_defaults(fn=_cmd_decompose)

    sub = subs.add_parser("size", help="the size invariant")
    _add_ideal_args(sub)
    sub.set_defaults(fn=_cmd_size)

    sub = subs.add_parser("sdepth", help="exact Stanley depth with a witness")
    _add_ideal_args(sub)
    _add_sdepth_args(sub)
    sub.add_argument("--module", choices=("quotient", "ideal"), default="quotient",
                     help="S/I (default) or the ideal itself")
    sub.set_defaults(fn=_cmd_sdepth)

    sub = subs.add_parser("bound", help="recursive lower bound for sdepth(S/I)")
    _add_ideal_args(sub)
    _add_sdepth_args(sub)
    sub.add_argument("--pivot", default="all", help="1-based pivot index or 'all'")
    sub.set_defaults(fn=_cmd_bound)

    sub = subs.add_parser("check", help="size vs bound vs exact Stanley depth")
    _add_ideal_args(sub)
    _add_sdepth_args(sub)
    sub.set_defaults(fn=_cmd_check)

    sub = subs.add_parser("verify-sum", help="verify the summand decomposition")
    _add_ideal_args(sub)
    sub.add_argument("--pivot", default="all", help="1-based pivot index or 'all'")
    sub.add_argument("--degree-cap", type=int, default=6,
                     help="check monomials up to this total degree")
    sub.set_defaults(fn=_cmd_verify_sum)

    sub = subs.add_parser("polarize", help="polarize into a squarefree ideal")
    _add_ideal_args(sub)
    sub.set_defaults(fn=_cmd_polarize)

    sub = subs.add_parser("corpus", help="run check over a seeded random corpus")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--count", type=int, default=10)
    sub.add_argument("--family", choices=FAMILIES, default="general")
    sub.add_argument("--n", default="2..4", help="variable count, N or LO..HI")
    sub.add_argument("--gens", default="2..4", help="generator count, N or LO..HI")
    sub.add_argument("--max-exponent", type=int, default=3)
    sub.add_argument("--json", default=None, help="write a JSON report here")
    _add_sdepth_args(sub)
    sub.set_defaults(fn=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ExponentCapError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return PARSE_EXIT
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return RESOURCE_EXIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (DomainError, RingMismatchError, StanleyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
