"""Write what the benchmark's workloads compute, byte for byte, so that two trees can be diffed.

    PYTHONPATH=src:bench python tests/report_bits.py OUT_DIR

Into OUT_DIR it writes the reports of every PaperCli subcommand on the
inputs of bench/workloads.py at seeds 0-3, op 0: each in JSON and in CSV
(`<seed>-<name>.json`, `.csv`), except curves, which writes JSON only, and
each subcommand's exit status in `status.txt`. It then writes the float.hex
of every output of 50 ExactRevenue ops and of 20 DenseLearn ops at seed 1,
one line per op (`exact-revenue.txt`, `dense-learn.txt`), and two trial
loops whose outcomes vary (`trial-loops.txt`): sample-complexity at 1, 50,
51, 52 and 120 trials,
and lb-family at 40 trials of 300 samples. The same two loops straddle the
edges of the blocks of counts and of auctions in `block-edges.txt`:
sample-complexity at 63, 64, 65 and 400 trials, next to blocks of 64
trials, and lb-family at
400 trials of 1,500 samples, where each member meets hundreds of new
counts. Next come the curves reports
of five edge priors (`curves-<name>.json`): one atom, an atom at 0.0, a
prior ironed from its top atom down, 2,000 atoms, and values and masses
whose repr has an exponent. Then come the revenue-drop reports on inputs
the benchmark does not use, each in JSON and in CSV
(`lab-<name>.json`, `.csv`), with their exit statuses in `lab-status.txt`:
nonmonotone at three eps, copies at three k, embed on four
downward-closed non-matroids (3 to 6 bidders; their witnesses between them
have an intersection bidder, bidders outside the pair and bystanders
inside it) at two eps, and approx-monotone with and without --uniform on
a pair that passes. Last, `refusals.txt` holds the exit status and
stderr of each input of REFUSED, one line each; an exception that escapes
main, which the command line would print as a traceback, is written as
its type and message. The package and
the workloads are imported from PYTHONPATH, so one copy of this script
serves any checkout: `diff -r` of the directories written with two
checkouts' src and bench shows whether they compute the same bits. Inputs
go to a temporary directory; nothing under bench/ changes. pytest does not
collect this file.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import numpy as np
from tracing import NullTracer
from workloads import DenseLearn, ExactRevenue, PaperCli

from myersonlab.cli import main as cli_main
from myersonlab.dist import ProductDist, ValueDist, make_discrete
from myersonlab.feasible import minimum_non_matroid, uniform_matroid
from myersonlab.lab import run_lb_family, run_sample_complexity
from myersonlab.learn import SampleMatrix


def bits(x) -> str:
    """Every float in x as float.hex, through sequences, arrays, priors and sample matrices."""
    if isinstance(x, float):  # np.float64 too
        return float(x).hex()
    if isinstance(x, np.ndarray):
        return bits(x.tolist())
    if isinstance(x, ValueDist):
        return bits((x.support, x.probs))
    if isinstance(x, SampleMatrix):
        return bits(x.values)
    if isinstance(x, (tuple, list)):
        return "[" + " ".join(map(bits, x)) + "]"
    return repr(x)


def cli_reports(out: Path) -> None:
    status = []
    for seed in range(4):
        with tempfile.TemporaryDirectory() as tmp:
            w = PaperCli(seed, 1, Path(tmp), NullTracer())
            seeds = {"sample-complexity": w.seeds[0][0], "lb-family": w.seeds[0][1]}
            for name, argv in w.suite:
                if name in seeds:
                    argv = argv + ["--seed", str(seeds[name])]
                for fmt in ("json",) if name == "curves" else ("json", "csv"):
                    extra = [] if name == "curves" else ["--format", fmt]
                    code = cli_main(argv + extra + ["--out", str(out / f"{seed}-{name}.{fmt}")])
                    status.append(f"{seed} {name} {fmt} {code}")
    (out / "status.txt").write_text("\n".join(status) + "\n", encoding="utf-8")


def op_bits(out: Path, name: str, cls, ops: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        w = cls(1, ops, Path(tmp), NullTracer())
        lines = [bits(w.run_op(i)) for i in range(ops)]
    (out / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def trial_loops(out: Path) -> None:
    d = ProductDist((make_discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3]),
                     make_discrete([0.1, 0.6, 0.8], [0.5, 0.2, 0.3])))
    fs = uniform_matroid(2, 1)
    reports = [run_sample_complexity(fs, d, 0.1, 0.1, 0.15, t, 3) for t in (1, 50, 51, 52, 120)]
    reports.append(run_lb_family(3, 1, 0.01, 300, 40, 5))
    lines = [bits([r.verdict, sorted(r.metrics.items())]) for r in reports]
    (out / "trial-loops.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def block_edges(out: Path) -> None:
    d = ProductDist((make_discrete([0.2, 0.5, 0.9], [0.3, 0.4, 0.3]),
                     make_discrete([0.1, 0.6, 0.8], [0.5, 0.2, 0.3])))
    fs = uniform_matroid(2, 1)
    reports = [run_sample_complexity(fs, d, 0.1, 0.1, 0.15, t, 3) for t in (63, 64, 65, 400)]
    reports.append(run_lb_family(2, 1, 0.01, 1500, 400, 3))
    lines = [bits([r.verdict, sorted(r.metrics.items())]) for r in reports]
    (out / "block-edges.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def curves_edges(out: Path) -> None:
    rng = np.random.default_rng(0)
    values = np.sort(rng.choice(np.arange(1, 100_000), size=2000, replace=False)) / 100_000
    weights = rng.integers(1, 10, size=2000)
    priors = {
        "one-atom": ([0.5], [1.0]),
        "atom-at-zero": ([0.0, 0.3, 1.0], [0.5, 0.3, 0.2]),
        "fully-ironed": ([0.1, 0.2, 0.3, 0.4, 1.0], [0.71, 0.03, 0.03, 0.03, 0.2]),
        "2000-atoms": (values.tolist(), (weights / weights.sum()).tolist()),
        "exponent-form": ([5e-324, 2.5e-07, 1e-05, 0.5], [0.5, 1e-05, 0.25, 0.24999]),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for name, (support, probs) in priors.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps({"support": support, "probs": probs}), encoding="utf-8")
            cli_main(["curves", "--dist", str(path), "--out", str(out / f"curves-{name}.json")])


def closure(n: int, tops) -> dict:
    """The JSON document of the downward closure of the sets in tops, on n bidders."""
    sets = {c for top in tops for r in range(len(top) + 1) for c in combinations(top, r)}
    return {"type": "sets", "n": n, "sets": sorted(map(list, sets))}


DESIGN = [{"support": [0.2, 0.6, 1.0], "probs": [0.3, 0.4, 0.3]},
          {"support": [0.1, 0.5, 0.9], "probs": [0.5, 0.3, 0.2]},
          {"support": [0.3, 0.7], "probs": [0.6, 0.4]}]
DOMINATING = [{"support": [0.2, 0.6, 1.0], "probs": [0.28, 0.4, 0.32]},
              {"support": [0.1, 0.5, 0.9], "probs": [0.48, 0.31, 0.21]},
              {"support": [0.3, 0.7], "probs": [0.58, 0.42]}]  # close at eps 0.19, uniformly at 0.05, at n 3, k 2
FILES = {  # written to the temporary directory as <name>.json, and named in argv by name
    "minimum-non-matroid": minimum_non_matroid().to_json(),
    "intersection-4": closure(4, [(0, 2, 3), (0, 1)]),  # witness (0, 2, 3), (0, 1)
    "outsider-5": closure(5, [(0, 1, 2), (0, 3)]),  # witness (0, 1, 2), (0, 3); bidder 4 outside
    "bystanders-6": closure(6, [(1, 4, 5), (0, 2, 3, 4)]),  # witness (0, 2, 3, 4), (1, 4, 5)
    "matroid-3-2": {"type": "uniform_matroid", "n": 3, "k": 2},
    "not-downward-closed": {"type": "sets", "n": 2, "sets": [[], [0, 1]]},
    "fractional": {"type": "all_or_nothing", "n": 2, "k": 1},
    "eleven-bidders": {"type": "uniform_matroid", "n": 11, "k": 2},
    "design": DESIGN,
    "dominating": DOMINATING,
    "design-2": DESIGN[:2],
}
APPROX = ["approx-monotone", "--dd", "dominating", "--dtilde", "design", "--feasible"]
LAB = {  # name -> argv of a report that passes
    **{f"nonmonotone-{eps}": ["nonmonotone", "--eps", eps] for eps in ("0.01", "0.25", "0.49")},
    **{f"copies-{k}": ["copies", "--k", k] for k in ("2", "3", "7")},
    **{f"embed-{fs}-{eps}": ["embed", "--feasible", fs, "--eps", eps]
       for fs in ("minimum-non-matroid", "intersection-4", "outsider-5", "bystanders-6") for eps in ("0.1", "0.9")},
    **{f"approx-{fs}": APPROX + [fs, "--eps", "0.5"] for fs in ("matroid-3-2", "minimum-non-matroid")},
    **{f"approx-{fs}-uniform": APPROX + [fs, "--eps", "0.5", "--uniform"]
       for fs in ("matroid-3-2", "minimum-non-matroid")},
}


def with_files(argv: list[str], tmp: str) -> list[str]:
    return [str(Path(tmp) / f"{a}.json") if a in FILES else a for a in argv]


def lab_reports(out: Path) -> None:
    status = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, obj in FILES.items():
            (Path(tmp) / f"{name}.json").write_text(json.dumps(obj), encoding="utf-8")
        for name, argv in LAB.items():
            for fmt in ("json", "csv"):
                code = cli_main(with_files(argv, tmp) + ["--format", fmt, "--out", str(out / f"lab-{name}.{fmt}")])
                status.append(f"{name} {fmt} {code}")
    (out / "lab-status.txt").write_text("\n".join(status) + "\n", encoding="utf-8")


SYSTEMS = {
    "matroid": {"type": "uniform_matroid", "n": 2, "k": 1},
    "eighths": {"type": "vertices", "vectors": [[0, 0], [0.125, 0.125]]},  # rank 1/4
}
REFUSED = {  # name -> (system, argv) of sample-complexity on a two-bidder prior, or (None, argv) with FILES
    "eps-1e-300": ("matroid", ["--eps", "1e-300"]),
    "eps-1e-10-delta-1e-320": ("matroid", ["--eps", "1e-10", "--delta", "1e-320"]),
    "constant-1e307": ("matroid", ["--constant", "1e307"]),
    "eps-1e-160": ("matroid", ["--eps", "1e-160"]),
    "delta-1e-320": ("matroid", ["--delta", "1e-320"]),
    "constant-1e16": ("matroid", ["--constant", "1e16"]),
    "log-factors-part": ("eighths", ["--eps", "0.9", "--delta", "0.5"]),
    "log-factors-part-constant-1000": ("eighths", ["--eps", "0.9", "--delta", "0.5", "--constant", "1000"]),
    "lb-family-budget-0": (None, ["lb-family", "--n", "2", "--k", "1", "--eps", "0.01", "--budget", "0"]),
    "approx-not-dominated": (None, ["approx-monotone", "--dd", "design", "--dtilde", "dominating",
                                    "--feasible", "matroid-3-2", "--eps", "0.5"]),
    "approx-not-close": (None, APPROX + ["matroid-3-2", "--eps", "0.1"]),
    "approx-not-uniformly-close": (None, APPROX + ["matroid-3-2", "--eps", "0.04", "--uniform"]),
    "approx-dtilde-of-two-bidders": (None, ["approx-monotone", "--dd", "dominating", "--dtilde", "design-2",
                                            "--feasible", "matroid-3-2", "--eps", "0.5"]),
    "approx-system-of-two-bidders": (None, ["approx-monotone", "--dd", "design-2", "--dtilde", "design-2",
                                            "--feasible", "intersection-4", "--eps", "0.5"]),
    **{f"embed-{fs}": (None, ["embed", "--feasible", fs])
       for fs in ("matroid-3-2", "not-downward-closed", "fractional", "eleven-bidders")},
}


def refusals(out: Path) -> None:
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        prior = Path(tmp) / "prior.json"
        prior.write_text(json.dumps([{"support": [0.2, 0.5, 0.9], "probs": [0.3, 0.4, 0.3]}] * 2), encoding="utf-8")
        for system, obj in {**SYSTEMS, **FILES}.items():
            (Path(tmp) / f"{system}.json").write_text(json.dumps(obj), encoding="utf-8")
        for name, (system, argv) in REFUSED.items():
            if system is not None:
                argv = ["sample-complexity", "--feasible", str(Path(tmp) / f"{system}.json"),
                        "--dist", str(prior)] + argv
            argv = with_files(argv, tmp)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    status = cli_main(argv)
                except Exception as exc:  # a traceback on the command line
                    status = f"raised {type(exc).__name__}: {exc}"
            lines.append(f"{name} {status} {err.getvalue()!r}")
    (out / "refusals.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: report_bits.py OUT_DIR")
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    cli_reports(out)
    op_bits(out, "exact-revenue", ExactRevenue, 50)
    op_bits(out, "dense-learn", DenseLearn, 20)
    trial_loops(out)
    block_edges(out)
    curves_edges(out)
    lab_reports(out)
    refusals(out)


if __name__ == "__main__":
    main()
