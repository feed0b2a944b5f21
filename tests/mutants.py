"""Run mutants of src/ against the tests, one at a time, and say which the tests kill.

    python tests/mutants.py

Each entry of MUTANTS names a file under src/, an exact snippet of it, the
snippet's replacement, the test files to run and the reason the mutant is
wrong. For each entry, in order and never in parallel, the script copies
src/, tests/ and pyproject.toml to a temporary directory, replaces the
snippet there, runs `pytest -x -q` on the listed files with a timeout and
prints `killed` with the first failing test, or `survived`. A snippet that
does not occur exactly once stops the script with an error, so an entry
that no longer applies to the code fails loudly. An entry whose `status`
is "inapplicable" is listed with its reason and not run; one marked
"equivalent" is run, and must survive. The exit status is 0 when every
run entry is killed, or survives with an equivalent mark, and 1
otherwise. pytest does not collect this file.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 600  # seconds for one mutant's test run
AUCTION = "src/myersonlab/auction.py"
DIST = "src/myersonlab/dist.py"
LEARN = "src/myersonlab/learn.py"
LAB = "src/myersonlab/lab.py"
CLI = "src/myersonlab/cli.py"
TESTS = ["tests/test_auction.py"]
LOOP_TESTS = ["tests/test_lab.py", "tests/test_learn.py", "tests/test_cli.py"]

MUTANTS = [
    {
        "name": "charging-losers",
        "file": AUCTION,
        "snippet": "    pay[x <= 0.0] = 0.0\n",
        "replacement": "",
        "tests": TESTS,
        "reason": "a bidder allocated nothing still pays its line's step sum",
    },
    {
        "name": "last-argmax",
        "file": AUCTION,
        "snippet": "    best = score.argmax(axis=-1)\n",
        "replacement": "    best = score.shape[-1] - 1 - score[..., ::-1].argmax(axis=-1)\n",
        "tests": TESTS,
        "reason": "welfare ties go to the last vertex in tie order, not the first",
    },
    {
        "name": "no-forced-fallback",
        "file": AUCTION,
        "snippet": "    if forced.any():\n",
        "replacement": "    if False:\n",
        "tests": TESTS,
        "reason": "a point where every vertex sums to -inf is not decided again on plain welfare",
    },
    {
        "name": "off-by-one-payment-mask",
        "file": AUCTION,
        "snippet": "    pay[x <= 0.0] = 0.0\n",
        "replacement": "    pay[1:][x[:-1] <= 0.0] = 0.0\n",
        "tests": TESTS,
        "reason": "the no-allocation mask reads the cell below, so a first winning cell pays nothing",
    },
    {
        "name": "value-dependent-tie-order",
        "file": AUCTION,
        "snippet": "    best = score.argmax(axis=-1)\n",
        "replacement": "    best = np.where(np.asarray(cells[0]) % 2 == 1, score.shape[-1] - 1 - "
                       "score[..., ::-1].argmax(axis=-1), score.argmax(axis=-1))\n",
        "tests": TESTS,
        "reason": "ties break first-to-last or last-to-first by bidder 0's cell, so by its value",
    },
    {
        "name": "no-cell-0-rule",
        "file": AUCTION,
        "snippet": "    np.copyto(terms[:, 0], -np.inf, where=x[:, 0] > 0.0)\n",
        "replacement": "",
        "tests": TESTS,
        "reason": "a bidder below its prior's lowest atom can win, at virtual value 0",
    },
    {
        "name": "raw-virtual-values",
        "file": AUCTION,
        "snippet": "            phis[i, 1 : len(d._runs) + 1, t] = d._slopes[d._runs]\n",
        "replacement": "            phis[i, 1 : len(d._runs) + 1, t] = ((d.support * d._above[:-1]"
                       " - np.append(d.support[1:], 0.0) * d._above[1:]) / d.probs)[d._runs]\n",
        "tests": TESTS,
        "reason": "each run scores the unironed virtual value of its first atom",
    },
    {
        "name": "threshold-from-last-atom",
        "file": AUCTION,
        "snippet": "            thresholds[i, : len(d._runs), t] = d.support[d._runs]\n",
        "replacement": "            thresholds[i, : len(d._runs), t] = "
                       "d.support[np.append(d._runs[1:], len(d.support)) - 1]\n",
        "tests": TESTS,
        "reason": "a run's threshold is its last atom's value, so values inside a run change cell",
    },
    {
        "name": "grid-on-reversed-axes",
        "file": AUCTION,
        "snippet": "np.arange(c).reshape((-1,) + (1,) * (n - 1 - i))",
        "replacement": "np.arange(c).reshape((-1,) + (1,) * i)",
        "tests": TESTS,
        "reason": "bidder i's cells lie on grid axis n - 1 - i, so the outcome tables are transposed",
    },
    {
        "name": "contraction-in-reversed-order",
        "file": AUCTION,
        "snippet": "        for m, t in zip(masses, table.shape):\n"
                   "            table = m[:t] @ table.reshape(t, -1)",
        "replacement": "        for m, t in reversed(list(zip(masses, table.shape))):\n"
                       "            table = np.tensordot(m[:t], table, axes=(0, table.ndim - 2))",
        "tests": TESTS,
        "reason": "the outcome tables are contracted last bidder first, so expectations round another way",
    },
    {
        "name": "cells-below-strictly",
        "file": AUCTION,
        "snippet": "    return (a._thresholds <= values[:, None]).sum(axis=1)\n",
        "replacement": "    return (a._thresholds < values[:, None]).sum(axis=1)\n",
        "tests": TESTS,
        "reason": "a value equal to a run's first atom falls in the cell below it",
    },
    {
        "name": "zero-threshold-pads",
        "file": AUCTION,
        "snippet": "    thresholds = np.full(phis.shape, np.nan)",
        "replacement": "    thresholds = np.zeros(phis.shape)",
        "tests": TESTS,
        "reason": "every value reaches a bidder's pads past its last run, so it lands in a cell beyond them",
    },
    {
        "name": "block-reads-its-neighbours-slice",
        "file": AUCTION,
        "snippet": "own = tuple(map(slice, cells)) + (t,)\n",
        "replacement": "own = tuple(map(slice, cells)) + ((t + 1) % len(priors),)\n",
        "tests": TESTS,
        "reason": "each auction of a block reads the ranks and outcomes of the prior after it",
    },
    {
        "name": "pay-steps-without-the-block-axis",
        "file": AUCTION,
        "snippet": "    steps = steps.reshape(steps.shape[:1] + (1,) * (x.ndim - steps.ndim) + steps.shape[1:])\n",
        "replacement": "    steps = steps.reshape((-1,) + (1,) * (x.ndim - 1))\n",
        "tests": TESTS,
        "reason": "a block's threshold steps are flattened over its priors, so they no longer line up with x",
    },
    {
        "name": "intervals-from-their-own-start",
        "file": DIST,
        "snippet": "(q0 < q)",
        "replacement": "(q0 <= q)",
        "tests": ["tests/test_curves.py"],
        "reason": "a raw breakpoint at a hull segment's left end can mark the segment ironed",
    },
    {
        "name": "below-summed-right-to-left",
        "file": DIST,
        "snippet": "            below = list(accumulate(masses, initial=0.0))\n",
        "replacement": "            below = [0.0] + [sum(masses[j::-1]) for j in range(len(masses))]\n",
        "tests": ["tests/test_curves.py"],
        "reason": "a short prior's running sums of its lowest atoms are added top down, so they round another way",
    },
    {
        "name": "sampler-searches-right",
        "file": LEARN,
        "snippet": "dj._below[1:-1].searchsorted(col[order])",
        "replacement": "dj._below[1:-1].searchsorted(col[order], side=\"right\")",
        "tests": ["tests/test_learn.py"],
        "reason": "a uniform equal to a partial sum takes the atom above it",
    },
    {
        "name": "no-sample-count-guard",
        "file": LEARN,
        "snippet": "        raise ValueError(\"trials must be at least 1\")\n"
                   "    if count < 1:\n"
                   "        raise ValueError(\"sample count must be at least 1\")\n",
        "replacement": "        raise ValueError(\"trials must be at least 1\")\n",
        "tests": LOOP_TESTS,
        "reason": "a trial loop of 0 samples a trial learns from nothing, where it should be refused",
    },
    {
        "name": "full-last-block",
        "file": LEARN,
        "snippet": "sizes = ((min(block, trials - start), d.n)",
        "replacement": "sizes = ((block, d.n)",
        "tests": LOOP_TESTS,
        "reason": "the last block draws a whole block of trials, past the trials asked for",
    },
    {
        "name": "four-times-larger-blocks",
        "file": LEARN,
        "snippet": "    block = max(1, min(_TRIALS, _BLOCK // masses.size))\n",
        "replacement": "    block = max(1, min(_TRIALS, 4 * _BLOCK // masses.size))\n",
        "tests": LOOP_TESTS,
        "reason": "a block of counts holds four times _BLOCK numbers",
    },
    {
        "name": "one-block-per-loop",
        "file": LEARN,
        "snippet": "    block = max(1, min(_TRIALS, _BLOCK // masses.size))\n",
        "replacement": "    block = trials\n",
        "tests": LOOP_TESTS,
        "reason": "a loop draws every trial's counts at once, so its memory grows with the trials",
    },
    {
        "name": "block-one-trial-past-the-cap",
        "file": LEARN,
        "snippet": "min(_TRIALS, _BLOCK",
        "replacement": "min(_TRIALS + 1, _BLOCK",
        "tests": LOOP_TESTS,
        "reason": "a block of counts, and so of learned priors and auctions, holds _TRIALS + 1 trials",
    },
    {
        "name": "masses-padded-on-the-right",
        "file": LEARN,
        "snippet": "np.concatenate((np.zeros(width - len(dj.probs)), dj.probs))",
        "replacement": "np.concatenate((dj.probs, np.zeros(width - len(dj.probs))))",
        "tests": LOOP_TESTS,
        "reason": "a narrower prior's counts sit under the wrong atoms, and its last pad takes the rest",
    },
    {
        "name": "sampled-zeros-not-merged",
        "file": LEARN,
        "snippet": "masses[head], vals[head] = bottom + (cum[head] - bottom), 0.0",
        "replacement": "masses[head], vals[head] = bottom, 0.0",
        "tests": LOOP_TESTS,
        "reason": "the samples at 0.0 add no mass to the learned prior's bottom atom",
    },
    {
        "name": "members-share-one-stream",
        "file": LAB,
        "snippet": "_trial_counts(member, sample_budget, trials, seed, mi)",
        "replacement": "_trial_counts(member, sample_budget, trials, seed)",
        "tests": ["tests/test_lab.py"],
        "reason": "every lb-family member learns from the same stream, so the members' trials are not independent",
    },
    {
        "name": "curves-floats-by-16g",
        "file": CLI,
        "snippet": "\"\\n    [\\n      %r,\\n      %r\\n    ]\"",
        "replacement": "\"\\n    [\\n      %.16g,\\n      %.16g\\n    ]\"",
        "tests": ["tests/test_cli.py"],
        "reason": "a float of 17 significant digits loses its last, and 1.0 is written as 1",
    },
    {
        "name": "curves-empty-list-indented",
        "file": CLI,
        "snippet": "        return \"[]\"\n",
        "replacement": "        return \"[\\n  ]\"\n",
        "tests": ["tests/test_cli.py"],
        "reason": "an empty pair list is written as json writes a non-empty one",
    },
    {
        "name": "curves-monopoly-one-space",
        "file": CLI,
        "snippet": ".replace(\"\\n\", \"\\n  \")",
        "replacement": ".replace(\"\\n\", \"\\n \")",
        "tests": ["tests/test_cli.py"],
        "reason": "the monopoly dict is indented one space less than json's",
    },
    {
        "name": "gap-sign-flipped",
        "file": LAB,
        "snippet": "gap=on_design - on_dominating",
        "replacement": "gap=on_dominating - on_design",
        "tests": ["tests/test_lab.py"],
        "reason": "a construction reports its revenue drop as a negative gap",
    },
    {
        "name": "drop-verdict-non-strict",
        "file": LAB,
        "snippet": "on_dominating < on_design)",
        "replacement": "on_dominating <= on_design)",
        "tests": ["tests/test_lab.py"],
        "reason": "a construction whose revenue does not drop at all passes",
    },
    {
        "name": "approx-slack-added",
        "file": LAB,
        "snippet": "on_dominating >= on_design - slack - VERDICT_TOL",
        "replacement": "on_dominating >= on_design + slack - VERDICT_TOL",
        "tests": ["tests/test_lab.py"],
        "reason": "approx-monotone asks revenue to rise by the slack, where it may fall by as much",
    },
    {
        "name": "approx-without-tolerance",
        "file": LAB,
        "snippet": "on_dominating >= on_design - slack - VERDICT_TOL",
        "replacement": "on_dominating >= on_design - slack",
        "tests": ["tests/test_lab.py"],
        "reason": "a drop of exactly the slack, rounded a few ulps past it, fails approx-monotone",
    },
]


def mutated(m: dict) -> str:
    """The source of m's file with its snippet replaced; refused unless the snippet occurs exactly once."""
    source = (ROOT / m["file"]).read_text(encoding="utf-8")
    found = source.count(m["snippet"])
    if found != 1:
        sys.exit(f"mutant {m['name']}: its snippet occurs {found} times in {m['file']}, not once")
    return source.replace(m["snippet"], m["replacement"])


def first_failure(output: str) -> str:
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split()[1]
    return "(no test named; see pytest's output)"


def run(m: dict) -> tuple[str, str]:
    """Apply one mutant to a fresh copy of the tree and run its tests: (outcome, first failing test)."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        (tree / m["file"]).write_text(mutated(m), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *m["tests"]]
        try:
            done = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return "killed", f"(timeout after {TIMEOUT} s)"
    if done.returncode == 0:
        return "survived", ""
    return "killed", first_failure(done.stdout)


def main() -> int:
    for m in MUTANTS:  # every snippet must apply before any mutant runs
        if m.get("status") != "inapplicable":
            mutated(m)
    bad, start = 0, time.perf_counter()
    for m in MUTANTS:
        if m.get("status") == "inapplicable":
            print(f"{m['name']:32} inapplicable  {m['reason']}")
            continue
        t0 = time.perf_counter()
        outcome, test = run(m)
        equivalent = m.get("status") == "equivalent"
        bad += (outcome == "survived") != equivalent
        mark = " (marked equivalent)" if equivalent else ""
        print(f"{m['name']:32} {outcome:9} {time.perf_counter() - t0:6.1f} s  {test}{mark}", flush=True)
    print(f"{bad} mutants not as expected, {time.perf_counter() - start:.1f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
