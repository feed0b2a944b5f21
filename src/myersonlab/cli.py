"""Command-line harness around the experiment suite.

Each subcommand runs one experiment and writes its report as JSON (default)
or CSV rows (curves: JSON only). Every JSON report is the bytes of
json.dumps(report, sort_keys=True, indent=2); curves writes them without
json's pure-Python indenting encoder. Exit status: 0 for a pass verdict, 2 for
fail, 1 for input errors including usage errors and precondition violations.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import suppress

from . import lab
from .dist import ProductDist, ValueDist, _curve, ironing_intervals, monopoly
from .feasible import FeasibleSet, feasible_from_json


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _declared_n(obj) -> int | None:
    """The bidder count a feasible-system document declares, peeked before the system is built."""
    with suppress(KeyError, TypeError, IndexError):  # a malformed count is left to the parser
        n = len(obj["vectors"][0]) if obj["type"] == "vertices" else obj["n"]
        if type(n) is int:
            return n
    return None


def _load_system(path: str, n: int) -> FeasibleSet:
    """The feasible system in a JSON file, refused unbuilt when it declares other than n bidders."""
    obj = _load_json(path)
    declared = _declared_n(obj)
    if declared is not None and declared != n:
        raise ValueError(f"prior has {n} bidders, system has {declared}")
    return feasible_from_json(obj)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _csv(report: lab.Report) -> str:
    """A header, then one CSV line per metric: experiment, params, metric, value, verdict."""
    par = ";".join(f"{k}={v}" for k, v in sorted(report.params.items()))
    text = io.StringIO()
    out = csv.writer(text, lineterminator="\n")
    out.writerow(["experiment", "params", "metric", "value", "verdict"])
    out.writerows([report.experiment, par, name, repr(value), report.verdict]
                  for name, value in sorted(report.metrics.items()))
    return text.getvalue()[:-1]  # _emit ends the last line


def _finish(report: lab.Report, args) -> int:
    text = _csv(report) if args.format == "csv" else json.dumps(report.to_json(), sort_keys=True, indent=2)
    _emit(text, args.out)
    return 0 if report.passed else 2


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--out", metavar="PATH", default=None)


def _cmd_nonmonotone(args) -> int:
    return _finish(lab.run_nonmonotone(args.eps), args)


def _cmd_copies(args) -> int:
    return _finish(lab.run_copies(args.k), args)


def _cmd_embed(args) -> int:
    obj = _load_json(args.feasible)
    if (_declared_n(obj) or 0) > lab.EMBED_MAX_N:  # refuse before building the family
        raise lab.PreconditionError(f"embedding limited to n <= {lab.EMBED_MAX_N}")
    fs = feasible_from_json(obj)
    return _finish(lab.embed_counterexample(fs, args.eps), args)


def _cmd_approx_monotone(args) -> int:
    dd = ProductDist.from_json(_load_json(args.dd))
    dtilde = ProductDist.from_json(_load_json(args.dtilde))
    fs = _load_system(args.feasible, dd.n)
    return _finish(lab.check_approx_monotone(dd, dtilde, args.eps, fs, args.uniform), args)


def _cmd_lipschitz_lb(args) -> int:
    return _finish(lab.run_lipschitz_lb(args.n, args.k, args.eps), args)


def _cmd_sample_complexity(args) -> int:
    d = ProductDist.from_json(_load_json(args.dist))
    fs = _load_system(args.feasible, d.n)
    return _finish(
        lab.run_sample_complexity(
            fs, d, args.eps, args.delta, args.constant, args.trials, args.seed
        ),
        args,
    )


def _cmd_lb_family(args) -> int:
    return _finish(
        lab.run_lb_family(args.n, args.k, args.eps, args.budget, args.trials, args.seed),
        args,
    )


_CURVES = '{\n  "ironed_curve": %s,\n  "ironing_intervals": %s,\n  "monopoly": %s,\n  "revenue_curve": %s\n}'


def _pairs(rows) -> str:
    """A list of [x, y] float pairs one level deep, as json.dumps(..., indent=2) writes it: each
    float by its repr, as json writes every finite float."""
    if not rows:
        return "[]"
    return "[%s\n  ]" % ",".join(["\n    [\n      %r,\n      %r\n    ]" % (x, y) for x, y in rows])


def _cmd_curves(args) -> int:
    """The bytes of json.dumps(report, sort_keys=True, indent=2), for the report with keys
    ironed_curve, ironing_intervals, monopoly and revenue_curve. json's indenting encoder runs in
    Python, so the three pair lists are written by _pairs, and only the monopoly dict is dumped."""
    d = ValueDist.from_json(_load_json(args.dist))
    price, revenue = monopoly(d)
    text = _CURVES % (
        _pairs(d._hull.tolist()),
        _pairs(ironing_intervals(d)),
        json.dumps({"price": price, "revenue": revenue}, sort_keys=True, indent=2).replace("\n", "\n  "),
        _pairs(_curve(d.support, d._above).T.tolist()),
    )
    _emit(text, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other input error; 2 is the fail verdict.

    add_subparsers builds the subcommand parsers from this class too.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="myersonlab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("nonmonotone", help="rank-2 counterexample revenues")
    sp.add_argument("--eps", type=float, default=0.1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_nonmonotone)

    sp = sub.add_parser("copies", help="gadget copies with additive gap")
    sp.add_argument("--k", type=int, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_copies)

    sp = sub.add_parser("embed", help="embed the gadget into a non-matroid system")
    sp.add_argument("--feasible", required=True, metavar="FILE")
    sp.add_argument("--eps", type=float, default=0.1)
    _add_common(sp)
    sp.set_defaults(func=_cmd_embed)

    sp = sub.add_parser("approx-monotone", help="approximate-monotonicity inequality")
    sp.add_argument("--dd", required=True, metavar="FILE")
    sp.add_argument("--dtilde", required=True, metavar="FILE")
    sp.add_argument("--feasible", required=True, metavar="FILE")
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--uniform", action="store_true")
    _add_common(sp)
    sp.set_defaults(func=_cmd_approx_monotone)

    sp = sub.add_parser("lipschitz-lb", help="revenue gap of a close prior pair")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    _add_common(sp)
    sp.set_defaults(func=_cmd_lipschitz_lb)

    sp = sub.add_parser("sample-complexity", help="dominated-empirical learning trials")
    sp.add_argument("--feasible", required=True, metavar="FILE")
    sp.add_argument("--dist", required=True, metavar="FILE")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.1)
    sp.add_argument("--constant", type=float, default=2.0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_sample_complexity)

    sp = sub.add_parser("lb-family", help="indistinguishable prior family regret")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--trials", type=int, default=20)
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(func=_cmd_lb_family)

    sp = sub.add_parser("curves", help="dump revenue and ironed curves of a distribution")
    sp.add_argument("--dist", required=True, metavar="FILE")
    sp.add_argument("--out", metavar="PATH", default=None)  # JSON only: no --format
    sp.set_defaults(func=_cmd_curves)

    return p


_PARSER = build_parser()  # parse_args leaves it unchanged and returns a fresh Namespace


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
