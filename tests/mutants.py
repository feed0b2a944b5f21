"""Run the auction kernel's mutants against the tests, one at a time, and say which the tests kill.

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
TESTS = ["tests/test_auction.py"]

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
        "snippet": "    terms[:, 0][verts.T > 0.0] = -np.inf\n",
        "replacement": "",
        "tests": TESTS,
        "reason": "a bidder below its prior's lowest atom can win, at virtual value 0",
    },
    {
        "name": "raw-virtual-values",
        "file": AUCTION,
        "snippet": "        phis[i, 1 : len(starts) + 1] = d._slopes[starts]\n",
        "replacement": "        phis[i, 1 : len(starts) + 1] = ((d.support * d._above[:-1]"
                       " - np.append(d.support[1:], 0.0) * d._above[1:]) / d.probs)[starts]\n",
        "tests": TESTS,
        "reason": "each run scores the unironed virtual value of its first atom",
    },
    {
        "name": "threshold-from-last-atom",
        "file": AUCTION,
        "snippet": "        thresholds[i, : len(starts)] = d.support[starts]\n",
        "replacement": "        thresholds[i, : len(starts)] = "
                       "d.support[np.append(starts[1:], len(d.support)) - 1]\n",
        "tests": TESTS,
        "reason": "a run's threshold is its last atom's value, so values inside a run change cell",
    },
    {
        "name": "grid-on-reversed-axes",
        "file": AUCTION,
        "snippet": "np.arange(len(r) + 1).reshape((-1,) + (1,) * (n - 1 - i))",
        "replacement": "np.arange(len(r) + 1).reshape((-1,) + (1,) * i)",
        "tests": TESTS,
        "reason": "bidder i's cells lie on grid axis n - 1 - i, so the outcome tables are transposed",
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
            print(f"{m['name']:28} inapplicable  {m['reason']}")
            continue
        t0 = time.perf_counter()
        outcome, test = run(m)
        equivalent = m.get("status") == "equivalent"
        bad += (outcome == "survived") != equivalent
        mark = " (marked equivalent)" if equivalent else ""
        print(f"{m['name']:28} {outcome:9} {time.perf_counter() - t0:6.1f} s  {test}{mark}", flush=True)
    print(f"{bad} mutants not as expected, {time.perf_counter() - start:.1f} s in all")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
