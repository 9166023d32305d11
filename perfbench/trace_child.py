"""Traced mzvkit CLI child.

Usage: python trace_child.py OUT.json CLI_ARG...

Wraps the library's public layer functions and methods from outside the
package, runs `mzvkit.cli.main(CLI_ARG...)` once in this fresh process (so
every cache starts cold), and writes per-name and per-layer aggregates of
the recorded spans to OUT.json. Exits with the CLI's own exit status.

Each span is (name, start, end, parent index), kept in memory until the
CLI returns. A span's self time is its duration minus the time covered by
its child spans; a layer's inclusive time counts only its outermost spans.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps

_perf = time.perf_counter
SPANS: list = []
_stack = [-1]
COUNTERS: dict[str, int] = {}


def _wrap(name, fn, after=None):
    @wraps(fn)
    def traced(*args, **kwargs):
        idx = len(SPANS)
        SPANS.append(None)
        parent = _stack[-1]
        _stack.append(idx)
        start = _perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = _perf()
            _stack.pop()
            SPANS[idx] = (name, start, end, parent)
        if after is not None:
            after(args, out)
        return out

    return traced


def _record_solver(args, _out):
    solver = args[0]
    COUNTERS["span.generators"] = COUNTERS.get("span.generators", 0) + len(
        solver.basis.generators
    )
    COUNTERS["span.rank"] = COUNTERS.get("span.rank", 0) + solver.rank


def install():
    """Wrap every traced name. A name that the library no longer has makes
    this raise, so the traced child fails instead of reporting zeros."""
    import mzvkit
    from mzvkit import cli, identities, maps, ncpoly, numeric, series, span

    modules = [mzvkit, cli, identities, maps, ncpoly, numeric, series, span]
    functions = {
        maps: ["derivation", "tau", "dn_generator"],
        series: [
            "delta_subst",
            "delta_exp",
            "geometric_inverse",
            "delta_on_series",
            "divide_by_v_minus_w",
        ],
        identities: [
            "compare_series",
            "sum_word",
            "conjecture_lhs_series",
            "conjecture_lhs_split_form",
            "duality_k1_lhs",
            "duality_gf",
            "verify_duality_zeta",
            "verify_duality_k1",
            "verify_proof_steps",
            "lemma2_swapped_control",
        ],
        span: [
            "span_basis",
            "duality_target",
            "corollary_check",
            "corollary_check_all",
        ],
        numeric: ["zeta_eval", "z_eval"],
        cli: ["main"],
    }
    methods = [
        ("ncpoly.add", ncpoly.NcPoly, "__add__", None),
        ("ncpoly.neg", ncpoly.NcPoly, "__neg__", None),
        ("ncpoly.mul", ncpoly.NcPoly, "__mul__", None),
        ("ncpoly.scale", ncpoly.NcPoly, "scale", None),
        ("series.add", series.Series3, "__add__", None),
        ("series.mul", series.Series3, "__mul__", None),
        ("span.build", span.SpanSolver, "__init__", _record_solver),
        ("span.membership", span.SpanSolver, "membership", None),
    ]
    # A function is replaced in every module namespace that holds it, so
    # names imported into identities, span or cli are traced as well.
    replace = {}
    for module, names in functions.items():
        layer = module.__name__.rsplit(".", 1)[-1]
        for attr in names:
            fn = getattr(module, attr)
            replace[id(fn)] = _wrap(f"{layer}.{attr}", fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in replace:
                setattr(module, attr, replace[id(value)])
    for name, cls, attr, after in methods:
        setattr(cls, attr, _wrap(name, vars(cls)[attr], after))


def summarize(spans) -> dict:
    """Per-name calls and self time; per-layer self and inclusive time."""
    n = len(spans)
    covered = [0.0] * n
    masks = [0] * n
    bits: dict[str, int] = {}
    by_name: dict[str, dict] = {}
    layers: dict[str, dict] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        layer = name.split(".", 1)[0]
        bit = bits.setdefault(layer, 1 << len(bits))
        above = masks[parent] if parent >= 0 else 0
        masks[i] = above | bit
        agg = by_name.setdefault(name, {"calls": 0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += dur - covered[i]
        lay = layers.setdefault(layer, {"self_s": 0.0, "incl_s": 0.0})
        lay["self_s"] += dur - covered[i]
        if not above & bit:
            lay["incl_s"] += dur
    return {"spans": n, "by_name": by_name, "layers": layers}


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    install()
    from mzvkit import cli, series

    code = cli.main(cli_args)
    summary = summarize(SPANS)
    cache = getattr(series, "_delta_word", None)
    if hasattr(cache, "cache_info"):
        info = cache.cache_info()
        COUNTERS["series.delta_word.hits"] = info.hits
        COUNTERS["series.delta_word.misses"] = info.misses
    roots = [s for s in SPANS if s[3] < 0]
    summary["in_process_s"] = sum(end - start for _, start, end, _ in roots)
    summary["counters"] = COUNTERS
    with open(out_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
