"""Command-line front end: reproducible verification runs with JSON artifacts.

Each handler returns ``(code, payload, text)`` and prints nothing; ``text`` is
``None`` for commands that always print JSON. ``main`` alone serializes the
payload, writes the ``--certificates``/``--dump`` file and prints.

Each handler imports the library layers it runs, so a command loads only
those; importing this module loads none of them.

Exit status: 0 when all requested checks pass, 1 on a verification failure,
2 on usage errors. ``run`` is the process entry point (``python -m
mzvkit.cli`` and the ``mzvkit`` script): ``main``, then a frozen collector.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from math import comb

DEFAULT_ORDER_EQ2 = 12
DEFAULT_ORDER_EQ3 = 8
# The largest value of each size argument that is one number, keyed
# "<noun> of <argument>", whose peak RSS (ru_maxrss of the CLI process)
# stays under 1 GB. Measured peaks and their growth:
#   --eq 3:    131/279/621 MB at orders 14/15/16, 2.2x per order (17 runs
#              out of a 1 GB address-space limit past 1010 MB);
#   --eq 2:    308/690/952/1000 MB at 10240/16000/19000/19500, N^1.9;
#   lemmas:    17/112/683/998 MB at 120/480/960/1100, N^2.6;
#   corollary: 87/200/491/1374 MB at weights 13/14/15/16 with
#              --certificates (15: 25-27 s; 16: 243 s, a 96 MB file, run
#              with no limit before the skip set came from the lower
#              weights, and since then 926 MB in process before the
#              CLI's payload is built);
#   span:      170/377/805/1763 MB at 15/16/17/18 as JSON, 168/356 as text
#              at 17/18 (the cap holds for both);
#   dual:      413/812/1609 MB at index weights 5*10^6, 10^7, 2*10^7.
# --eq all runs each identity, so it takes the smallest order.
MAX_SIZE = {
    "order of --eq 2": 19000,
    "order of --eq 3": 16,
    "order of --eq lemmas": 1100,
    "weight of verify corollary": 15,
    "weight of span": 17,
    "weight of dual": 10**7,
}
MAX_SIZE["order of --eq all"] = min(v for k, v in MAX_SIZE.items() if k.startswith("order"))
# an index of larger weight, and a derive or delta output that could be
# longer, is refused before any word is built
MAX_OUTPUT_LETTERS = 10**8

Result = tuple[int, object, str | None]


def _order(args, fallback: int) -> int:
    """The truncation order: --order, else fallback. The library rejects an
    order below its minimum with ValueError (exit 2)."""
    return fallback if args.order is None else args.order


def _check_size(what: str, size: int | None) -> int | None:
    """size, refused past MAX_SIZE[what] before anything of it is built."""
    limit = MAX_SIZE[what]
    if size is not None and size > limit:
        noun, of = what.split(" of ", 1)
        raise ValueError(f"{noun} {size} of {of} exceeds {limit}, the largest "
                         "whose peak memory stays under 1 GB")
    return size


def _index(text: str) -> tuple[int, ...]:
    """Parse an index '(k1,...,kd)' whose word, of k1 + ... + kd letters,
    stays within MAX_OUTPUT_LETTERS."""
    from .maps import index_from_str

    parts = index_from_str(text)
    if sum(parts) > MAX_OUTPUT_LETTERS:
        raise ValueError(f"index of weight {sum(parts)} exceeds the bound of "
                         f"{MAX_OUTPUT_LETTERS} letters")
    return parts


def _parse_word_or_index(text: str) -> str:
    from .maps import index_to_word
    from .ncpoly import check_word

    if text.startswith("("):
        return index_to_word(_index(text))
    return check_word(text)


# One-line encoding whose item separators are ",\x00". JSON escapes every
# control character inside a string, so each "\x00" is a separator.
_encode = json.JSONEncoder(separators=(",\x00", ": ")).encode
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _lay(o, ind: str, out: list[str]) -> list[str]:
    """Append to out the indent=2 layout of o, whose line is indented by ind."""
    inner = ind + "  "
    if not (isinstance(o, (dict, list, tuple)) and o):
        out.append(_encode(o))  # a scalar, {} or []
    elif isinstance(o, dict):
        for i, (k, v) in enumerate(o.items()):  # json converts a non-string key
            key = _encode(k) if isinstance(k, str) else _encode({k: 0})[1:-4]
            out.append(f"{',' if i else '{'}\n{inner}{key}: ")
            _lay(v, inner, out)
        out.append(f"\n{ind}}}")
    elif all(type(d) is dict and d and _SCALARS.issuperset(map(type, d.values())) for d in o):
        # a record list is one block: with each "\x00" a newline and indent,
        # "},\n" + deep + "{" occurs only between two dicts (no scalar ends in "}")
        deep = inner + "  "
        body = _encode(o)[2:-2].replace("\x00", "\n" + deep)
        body = body.replace(f"}},\n{deep}{{", f"\n{inner}}},\n{inner}{{\n{deep}")
        out.append(f"[\n{inner}{{\n{deep}{body}\n{inner}}}\n{ind}]")
    else:
        for i, v in enumerate(o):
            out.append(f"{',' if i else '['}\n{inner}")
            _lay(v, inner, out)
        out.append(f"\n{ind}]")
    return out


def _dump(obj) -> str:
    """obj as the json module writes it with indent=2, byte for byte, in one pass."""
    return "".join(_lay(obj, "", []))


# -- subcommand handlers ----------------------------------------------

def cmd_verify_theorem(args) -> Result:
    _check_size(f"order of --eq {args.eq}", args.order)
    from . import identities

    reports = []
    if args.eq in ("2", "all"):
        reports.append(identities.verify_duality_zeta(_order(args, DEFAULT_ORDER_EQ2)))
    if args.eq in ("3", "all"):
        reports.append(identities.verify_duality_k1(_order(args, DEFAULT_ORDER_EQ3)))
    if args.eq in ("lemmas", "all"):
        reports.extend(identities.verify_proof_steps(_order(args, DEFAULT_ORDER_EQ3)))
    lines = []
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name} (order {r.order})"
        if not r.passed:
            line += f"  first failure at {r.failing_monomial}: {r.failing_diff}"
        lines.append(line)
    code = 0 if all(r.passed for r in reports) else 1
    return code, [r.to_dict() for r in reports], "\n".join(lines)


def cmd_verify_corollary(args) -> Result:
    k = _check_size("weight of verify corollary", args.weight)
    from . import span

    if args.m is None and args.l is None:
        cases = span.corollary_check_all(k)
    elif args.m is None or args.l is None:
        raise ValueError("--m and --l must be given together")
    else:
        cases = [(args.m, args.l, span.corollary_check(k, args.m, args.l))]
    certs = [
        {"k": k, "m": m, "l": l, "certificate": cert.to_dict()}
        for m, l, cert in cases
    ]
    # a target of 0 is certified by the empty combination and proves nothing
    zeros = sum(cert.target.is_zero() for _, _, cert in cases)
    return 0, certs, (f"PASS  corollary at weight {k}: {len(cases)} case(s) certified, "
                      f"{zeros} of them with target 0")


def cmd_dual(args) -> Result:
    from .maps import dual_index, index_to_str

    parts = _index(args.index)
    _check_size("weight of dual", sum(parts))
    d = index_to_str(dual_index(parts))
    return 0, {"dual": d}, d


def cmd_derive(args) -> Result:
    from .maps import derivation
    from .ncpoly import NcPoly

    word = _parse_word_or_index(args.arg)
    n, size = args.n, max(len(word), 1)
    # d_n writes up to 2^(n-1) words of len(word) + n letters per letter (its
    # generator alone is 2^(n-1) words of n + 1 letters); n > 27 exceeds the
    # bound for any word, so 2**(n-1) is never computed for a huge n
    if n > 27 or size * 2 ** (n - 1) * (size + n) > MAX_OUTPUT_LETTERS:
        raise ValueError(f"d_{n} on a length-{len(word)} word may exceed "
                         f"{MAX_OUTPUT_LETTERS} letters")
    return 0, derivation(n, NcPoly.word(word)).to_dict(), None


def cmd_delta(args) -> Result:
    from .ncpoly import NcPoly
    from .series import delta_subst

    word = _parse_word_or_index(args.word)
    n, size = args.order, max(len(word), 1)
    # Delta_t multiplies the letters' images left to right; the first i make at most
    # C(n + i, i) words of n + i letters, so all prefixes hold C(n + size + 1, size) *
    # (n + size) letters at most. That C is C(n + size + 1, k), k = min(n + 1, size), at
    # least 2^k as n + size + 1 >= 2k: k > 27 exceeds the bound without a huge comb.
    # A negative order is refused by the library (exit 2)
    k = min(n + 1, size)
    if n >= 0 and (k > 27 or comb(n + size + 1, k) * (n + size) > MAX_OUTPUT_LETTERS):
        raise ValueError(f"Delta_{args.var} to order {n} of a length-{len(word)} "
                         f"word may exceed {MAX_OUTPUT_LETTERS} letters")
    return 0, delta_subst(args.var, NcPoly.word(word), n).to_dict(), None


def _eval_result(r) -> Result:
    payload = {"value": f"{r.value:.12f}", "cutoff": r.cutoff, "tail_bound": f"{r.tail_bound:.12f}"}
    return 0, payload, f"value={r.value:.12f} tail_bound={r.tail_bound:.12f}"


def cmd_eval(args) -> Result:
    from .numeric import zeta_eval

    return _eval_result(zeta_eval(_index(args.index), args.cutoff))


def cmd_residual(args) -> Result:
    from .ncpoly import NcPoly
    from .numeric import z_eval

    with open(args.file) as fh:
        p = NcPoly.from_dict(json.load(fh))
    return _eval_result(z_eval(p, args.cutoff))


def cmd_span(args) -> Result:
    k = _check_size("weight of span", args.weight)
    from .span import span_basis

    basis = span_basis(k)
    text = f"weight {basis.weight}: {len(basis.generators)} generators"
    if args.format == "text" and not args.out:
        return 0, None, text  # no JSON is written, so none is built
    payload = {
        "weight": basis.weight,
        "generators": [
            {"n": g.n, "word": g.word, "image": g.image.to_dict()}
            for g in basis.generators
        ],
    }
    return 0, payload, text


# -- parser -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzvkit",
        description="Exact verification toolkit for derivation and duality "
        "relations of multiple zeta values.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    vsub = p_verify.add_subparsers(dest="what", required=True)

    p_thm = vsub.add_parser("theorem", help="truncated-series identities")
    p_thm.add_argument("--order", type=int, default=None)
    p_thm.add_argument("--eq", choices=("2", "3", "lemmas", "all"), default="all")
    p_thm.set_defaults(func=cmd_verify_theorem)

    p_cor = vsub.add_parser("corollary", help="span membership certificates")
    p_cor.add_argument("--weight", type=int, required=True)
    p_cor.add_argument("--m", type=int, default=None)
    p_cor.add_argument("--l", type=int, default=None)
    p_cor.add_argument("--certificates", dest="out", metavar="PATH", default=None)
    p_cor.set_defaults(func=cmd_verify_corollary)

    p_dual = sub.add_parser("dual", help="dual of an admissible index")
    p_dual.add_argument("index")
    p_dual.set_defaults(func=cmd_dual)

    p_der = sub.add_parser("derive", help="apply the n-th derivation")
    p_der.add_argument("n", type=int)
    p_der.add_argument("arg", metavar="WORD|INDEX")
    p_der.set_defaults(func=cmd_derive)

    p_delta = sub.add_parser("delta", help="apply Delta_t to a word")
    p_delta.add_argument("--var", choices=("u", "v", "w"), required=True)
    p_delta.add_argument("--order", type=int, required=True)
    p_delta.add_argument("word", metavar="WORD|INDEX")
    p_delta.set_defaults(func=cmd_delta)

    p_eval = sub.add_parser("eval", help="numeric zeta value")
    p_eval.add_argument("index")
    p_eval.add_argument("--cutoff", type=int, required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_res = sub.add_parser("residual", help="numeric Z of an NcPoly JSON file")
    p_res.add_argument("file")
    p_res.add_argument("--cutoff", type=int, required=True)
    p_res.set_defaults(func=cmd_residual)

    p_span = sub.add_parser("span", help="derivation span generators")
    p_span.add_argument("--weight", type=int, required=True)
    p_span.add_argument("--dump", dest="out", metavar="PATH", default=None)
    p_span.set_defaults(func=cmd_span)

    return parser


def _falsification():
    """span.NotInSpanError once span is loaded, which only verify corollary
    does; before that no exception is one, and an except clause naming ()
    catches nothing."""
    span = sys.modules.get(f"{__package__}.span")
    return () if span is None else span.NotInSpanError


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        code, payload, text = args.func(args)
        if args.format == "json" or text is None:
            text = _dump(payload)
        if out:  # the bytes --format json prints, encoded once
            with open(out, "w") as fh:
                print(text if args.format == "json" else _dump(payload), file=fh)
        print(text)
    except _falsification() as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nested too deeply for Python's recursion limit "
              f"({sys.getrecursionlimit()})", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: input too large to fit in memory", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def run(argv=None) -> int:
    """main(argv)'s exit code, for a process that exits next. The collector
    is frozen once main is done, so interpreter exit does not traverse the
    objects still alive, none of them in a cycle to collect; atexit
    handlers, stream flushes and module teardown still run."""
    try:
        return main(argv)
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
