"""The benchmark's workloads: inputs made from a seed, one op, and its checks.

Every op of a workload does the same steps on inputs of the same size, so
op times do not fall into classes. Inputs for all ops are made during
set-up; the program receives only those inputs. `check` and `sizes` run
outside the timed section.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from math import prod, sqrt
from pathlib import Path

import numpy as np

from myersonlab import (
    ProductDist,
    all_or_nothing,
    allocate,
    dominated_empirical,
    dominates,
    draw_samples,
    expected_revenue,
    expected_virtual_welfare,
    from_independent_sets,
    make_discrete,
    minimum_non_matroid,
    myerson,
    payments,
    required_samples,
    uniform_matroid,
    virtual_table,
)
from myersonlab import lab
from myersonlab.cli import main as cli_main
from myersonlab.dist import discretize_uniform_with_atom, min_closeness_eps

import reference as ref

TOL = 1e-9


class OpFailed(RuntimeError):
    """The program reported failure for an op (a nonzero exit status)."""


def arrays(d) -> tuple[np.ndarray, np.ndarray]:
    return np.asarray(d.support), np.asarray(d.probs)


def random_atoms(rng, atoms: int, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values from {1, ..., grid-1}/grid with random integer weights."""
    support = np.sort(rng.choice(np.arange(1, grid), size=atoms, replace=False)) / grid
    weights = rng.integers(1, 10, size=atoms).astype(float)
    return support, weights / weights.sum()


def lift(rng, support, probs) -> tuple[np.ndarray, np.ndarray]:
    """A dominating copy: values pushed up by an increasing map, mass moved up one atom."""
    s = rng.uniform(0.05, 0.3)
    moved = rng.uniform(0.1, 0.5) * probs[:-1]
    big = probs.copy()
    big[:-1] -= moved
    big[1:] += moved
    return 1.0 - (1.0 - support) * (1.0 - s), big


def uniform_matroid_vertices(n: int, k: int) -> list[tuple[int, ...]]:
    return [x for x in product((0, 1), repeat=n) if sum(x) <= k]


MIN_NON_MATROID_VERTICES = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 1)]


class ExactRevenue:
    """Myerson's auction for a fresh 3-bidder prior, evaluated exactly on four systems.

    Each op turns the raw atoms of a design prior D~ (3 bidders, 10 atoms
    each) and of a dominating prior D into distributions, then for each
    system builds myerson(D~, fs) and computes its expected revenue on D~
    and on D and its expected virtual welfare.
    """

    BIDDERS, ATOMS, GRID = 3, 10, 1000
    nominal_ops_per_s = 2.2

    def __init__(self, seed: int, ops: int, workdir: Path, tracer):
        self.tracer = tracer
        t = tracer
        self.systems = [  # (name, system, reference vertices, is a matroid)
            ("uniform_matroid(3,1)", t.call("feasible.uniform_matroid", uniform_matroid, 3, 1),
             uniform_matroid_vertices(3, 1), True),
            ("uniform_matroid(3,2)", t.call("feasible.uniform_matroid", uniform_matroid, 3, 2),
             uniform_matroid_vertices(3, 2), True),
            ("minimum_non_matroid", t.call("feasible.minimum_non_matroid", minimum_non_matroid),
             MIN_NON_MATROID_VERTICES, False),
            ("all_or_nothing(3,2)", t.call("feasible.all_or_nothing", all_or_nothing, 3, 2),
             [(0, 0, 0), (2 / 3, 2 / 3, 2 / 3)], False),
        ]
        rng = np.random.default_rng(seed)
        self.inputs = []
        for _ in range(ops):
            small = [random_atoms(rng, self.ATOMS, self.GRID) for _ in range(self.BIDDERS)]
            big = [lift(rng, s, p) for s, p in small]
            self.inputs.append((small, big))

    def run_op(self, i: int):
        t = self.tracer
        small, big = self.inputs[i]
        dtilde = ProductDist(tuple(t.call("dist.make_discrete", make_discrete, s, p) for s, p in small))
        d = ProductDist(tuple(t.call("dist.make_discrete", make_discrete, s, p) for s, p in big))
        out = []
        for _, fs, _, _ in self.systems:
            a = t.call("auction.myerson", myerson, dtilde, fs)
            out.append((
                t.call("auction.expected_revenue", expected_revenue, a, dtilde),
                t.call("auction.expected_revenue", expected_revenue, a, d),
                t.call("auction.virtual_welfare", expected_virtual_welfare, a),
            ))
        return dtilde, d, out

    def check(self, i: int, result) -> list[str]:
        small, big = self.inputs[i]
        _, _, out = result
        errors = []
        if not ref.dominates(big, small):
            errors.append("input: D does not dominate D~")
        for (name, _, verts, matroid), (rev_small, rev_big, welfare) in zip(self.systems, out):
            opt = ref.optimal_revenue(small, verts)
            if abs(rev_small - opt) > TOL:
                errors.append(f"{name}: revenue on D~ {rev_small!r}, reference optimum {opt!r}")
            if abs(welfare - opt) > TOL:
                errors.append(f"{name}: virtual welfare {welfare!r}, reference optimum {opt!r}")
            if matroid and rev_big < rev_small - TOL:
                errors.append(f"{name}: revenue on D {rev_big!r} below revenue on D~ {rev_small!r}")
        return errors

    def sizes(self, i: int, result) -> dict[str, float]:
        dtilde, d, _ = result
        profiles = 2 * prod(len(x.support) for x in dtilde) + prod(len(x.support) for x in d)
        return {"auction.profiles": profiles * len(self.systems)}


class DenseLearn:
    """One dominated-empirical learning trial on a near-continuous two-bidder prior.

    Each bidder's prior is uniform on [0, 1] binned at 1/1000 plus one atom
    (1,001 atoms). An op draws N samples (N from required_samples), learns
    the dominated empirical prior L, computes the virtual table of each
    learned coordinate, dominates(D, L) and min_closeness_eps(D, L), builds
    myerson(L) over a single item, and allocates and charges a batch of bids
    drawn from D.
    """

    STEP, EPS, DELTA, CONSTANT, BIDS = 0.001, 0.08, 0.1, 1.0, 8
    # The priors are fixed, so the seed moves only the samples and the bids
    # and op cost does not depend on it. Each atom sits on a bin edge, so it
    # never merges with a bin midpoint.
    ATOMS = ((0.55, 0.1), (0.8, 0.1))  # (value, mass) per bidder
    nominal_ops_per_s = 5.5

    def __init__(self, seed: int, ops: int, workdir: Path, tracer):
        self.tracer = t = tracer
        rng = np.random.default_rng(seed)
        priors = [t.call("dist.discretize_uniform_with_atom", discretize_uniform_with_atom, v, m, self.STEP)
                  for v, m in self.ATOMS]
        self.prior = ProductDist(tuple(priors))
        self.prior_arrays = [arrays(p) for p in priors]
        self.fs = t.call("feasible.uniform_matroid", uniform_matroid, len(priors), 1)
        self.count = t.call("learn.required_samples", required_samples, "downward_closed",
                            self.fs.n, self.fs.rank, self.EPS, self.DELTA, self.CONSTANT)
        self.sample_seeds = [int(s) for s in rng.integers(0, 2**62, size=ops)]
        cols = []
        for support, probs in self.prior_arrays:
            idx = np.searchsorted(np.cumsum(probs), rng.random((ops, self.BIDS)), side="left")
            cols.append(support[np.minimum(idx, len(support) - 1)])
        self.bids = [[(float(cols[0][i, b]), float(cols[1][i, b])) for b in range(self.BIDS)]
                     for i in range(ops)]

    def run_op(self, i: int):
        t = self.tracer
        samples = t.call("learn.draw_samples", draw_samples, self.prior, self.count, self.sample_seeds[i])
        learned = t.call("learn.dominated_empirical", dominated_empirical, samples, self.DELTA)
        tables = [t.call("curves.virtual_table", virtual_table, li) for li in learned]
        dom = t.call("dist.dominates", dominates, self.prior, learned)
        eps = t.call("dist.closeness", min_closeness_eps, self.prior, learned, self.fs.n, self.fs.rank)
        auction = t.call("auction.myerson", myerson, learned, self.fs)
        allocs = [t.call("auction.allocate", allocate, auction, b) for b in self.bids[i]]
        pays = [t.call("auction.payments", payments, auction, b) for b in self.bids[i]]
        return samples, learned, tables, dom, eps, allocs, pays

    def check(self, i: int, result) -> list[str]:
        samples, learned, tables, dom, eps, allocs, pays = result
        learned_arrays = [arrays(li) for li in learned]
        errors = []
        phis = []
        for j, (support, probs) in enumerate(learned_arrays):
            col = np.asarray(samples.values[:, j])
            if len(col) != self.count or not np.isin(col, self.prior_arrays[j][0]).all():
                errors.append(f"bidder {j}: samples are not {self.count} values from the prior's support")
            points, cdf = ref.dominated_empirical_cdf(col, self.fs.n, self.DELTA)
            if not np.isin(support, points).all():
                errors.append(f"bidder {j}: learned support has values that are not samples or 0")
            gap = np.abs(ref.cdf_at(support, probs, points) - cdf).max()
            if gap > TOL:
                errors.append(f"bidder {j}: learned CDF off the reference by {gap!r}")
            phi = ref.ironed_virtual_values(support, probs)
            phis.append(phi)
            slopes = np.asarray(tables[j].slopes, dtype=float)
            if tuple(tables[j].thresholds) != tuple(learned[j].support):
                errors.append(f"bidder {j}: virtual table thresholds are not the learned support")
            elif np.abs(slopes - phi).max() > TOL * max(1.0, np.abs(phi).max()):
                errors.append(f"bidder {j}: virtual table slopes off the reference hull")
            if np.diff(slopes).min(initial=0.0) < -1e-12:
                errors.append(f"bidder {j}: virtual table slopes decrease")
        if dom != ref.dominates(self.prior_arrays, learned_arrays):
            errors.append(f"dominates(D, L) is {dom}, reference disagrees")
        want = ref.min_closeness_eps(self.prior_arrays, learned_arrays, self.fs.n, self.fs.rank)
        if abs(eps - want) > TOL * max(1.0, want):
            errors.append(f"min_closeness_eps {eps!r}, reference {want!r}")
        if not errors:
            for bid, x, p in zip(self.bids[i], allocs, pays):
                errors += self._check_bid(learned_arrays, phis, bid, x, p)
        return errors

    @staticmethod
    def _check_bid(learned_arrays, phis, bid, x, pay) -> list[str]:
        """Single item: the winner maximizes ironed virtual welfare and pays its threshold atom."""
        phi_bid = [float(ref.virtual_value_at(s, phi, [v])[0]) for (s, _), phi, v in
                   zip(learned_arrays, phis, bid)]
        if x not in ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)):
            return [f"bid {bid}: allocation {x} is not a vertex"]
        best = max(0.0, *phi_bid)
        got = sum(xi * ph for xi, ph in zip(x, phi_bid) if xi > 0.0)
        if got < best - TOL:
            return [f"bid {bid}: allocation {x} has virtual welfare {got!r} below {best!r}"]
        errors = []
        for i, (xi, vi, pi) in enumerate(zip(x, bid, pay)):
            if not -TOL <= pi <= vi * xi + TOL:
                errors.append(f"bid {bid}: payment {pi!r} of bidder {i} outside [0, {vi * xi!r}]")
            if xi == 0.0:
                continue
            # the payment is the lowest own atom at which bidder i still wins;
            # margins within 1e-12 of a virtual-value tie count either way
            atoms, phi = learned_arrays[i][0], phis[i]
            rival = max(0.0, phi_bid[1 - i])
            k = int(np.searchsorted(atoms, pi - TOL))
            if k >= len(atoms) or abs(atoms[k] - pi) > TOL or atoms[k] > vi + TOL:
                errors.append(f"bid {bid}: payment {pi!r} of bidder {i} is not an own atom below the bid")
            elif phi[k] < rival - 1e-12 or (k > 0 and phi[k - 1] > rival + 1e-12):
                errors.append(f"bid {bid}: payment {pi!r} of bidder {i} is not the lowest winning atom")
        return errors

    def sizes(self, i: int, result) -> dict[str, float]:
        samples, learned = result[0], result[1]
        atoms = sum(len(li.support) for li in learned)
        merged = sum(len(np.union1d(d.support, li.support)) for d, li in zip(self.prior, learned))
        return {
            "learn.samples": samples.count * samples.n,
            "learn.learned_atoms": atoms,
            "curves.atoms": atoms,
            # dominates checks each merged point; closeness adds its left limit
            "dist.checkpoints": 3 * merged,
            "auction.bids": len(self.bids[i]),
        }


def exchange_holds(family: set[frozenset], big: frozenset, small: frozenset) -> bool:
    return any(small | {x} in family for x in big - small)


class PaperCli:
    """The paper's experiments through `myersonlab.cli.main`, one suite per op.

    Inputs are JSON files written during set-up and the same for every op;
    only the randomized subcommands get a fresh seed per op.
    """

    EMBED_BIDDERS = 10
    CURVE_ATOMS, CURVE_GRID = 2000, 100_000
    COPIES_K = 6
    LIPSCHITZ_N, LIPSCHITZ_K = 4, 2
    APPROX_EPS, APPROX_SHIFT = 0.2, 0.002
    SC_TRIALS, LB_TRIALS = 100, 16
    nominal_ops_per_s = 3.3

    def __init__(self, seed: int, ops: int, workdir: Path, tracer):
        self.tracer = t = tracer
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.gadget_eps = int(rng.integers(5, 21)) / 100
        self.lipschitz_eps = int(rng.integers(1, 21)) / 1000

        def write(name: str, obj) -> str:
            path = workdir / name
            path.write_text(json.dumps(obj), encoding="utf-8")
            return str(path)

        def dist(support, probs):
            return t.call("dist.make_discrete", make_discrete, support, probs)

        # The minimum non-matroid on bidders 0-2 next to a rank-2 uniform
        # matroid on the other seven, relabelled by the seed. Random
        # downward-closed families are not used: on about a third of them
        # embed_counterexample reports no gap and exits 2 (see CHANGES.md).
        label = [int(x) for x in rng.permutation(self.EMBED_BIDDERS)]
        gadget = [(), (0,), (1,), (2,), (1, 2)]
        rest = [c for r in range(3) for c in combinations(range(3, self.EMBED_BIDDERS), r)]
        self.family = {frozenset(label[i] for i in g + u) for g in gadget for u in rest}
        embed_fs = t.call("feasible.from_independent_sets", from_independent_sets, self.EMBED_BIDDERS,
                          [sorted(s) for s in self.family])
        embed_file = write("embed-feasible.json", embed_fs.to_json())

        self.approx_small = []
        approx_big = []
        for _ in range(3):
            support, probs = random_atoms(rng, 4, 20)
            moved = self.APPROX_SHIFT * probs[:-1]
            big = probs.copy()
            big[:-1] -= moved
            big[1:] += moved
            self.approx_small.append((support, probs))
            approx_big.append(dist(support, big))
        dtilde_file = write("approx-dtilde.json",
                            ProductDist(tuple(dist(s, p) for s, p in self.approx_small)).to_json())
        dd_file = write("approx-dd.json", ProductDist(tuple(approx_big)).to_json())
        mnm_file = write("min-non-matroid.json",
                         t.call("feasible.minimum_non_matroid", minimum_non_matroid).to_json())

        self.sc_prior = [random_atoms(rng, 3, 10) for _ in range(2)]
        sc_dist_file = write("sc-prior.json",
                             ProductDist(tuple(dist(s, p) for s, p in self.sc_prior)).to_json())
        sc_fs_file = write("sc-feasible.json", {"type": "uniform_matroid", "n": 2, "k": 1})

        self.curve = random_atoms(rng, self.CURVE_ATOMS, self.CURVE_GRID)
        curve_file = write("curve-dist.json", dist(*self.curve).to_json())

        self.seeds = [[int(s) for s in pair] for pair in rng.integers(0, 2**31, size=(ops, 2))]
        if tracer.traced:
            # lab builds auctions beneath several subcommands; span those calls
            # too, so that auction.myerson_s is not hidden inside cli.*_s
            real = lab.myerson
            lab.myerson = lambda *a: t.call("auction.myerson", real, *a)
        self.suite = [
            ("nonmonotone", ["nonmonotone", "--eps", repr(self.gadget_eps)]),
            ("copies", ["copies", "--k", str(self.COPIES_K)]),
            ("embed", ["embed", "--feasible", embed_file]),
            ("approx-monotone", ["approx-monotone", "--dd", dd_file, "--dtilde", dtilde_file,
                                 "--feasible", mnm_file, "--eps", repr(self.APPROX_EPS)]),
            ("lipschitz-lb", ["lipschitz-lb", "--n", str(self.LIPSCHITZ_N), "--k", str(self.LIPSCHITZ_K),
                              "--eps", repr(self.lipschitz_eps)]),
            ("sample-complexity", ["sample-complexity", "--feasible", sc_fs_file, "--dist", sc_dist_file,
                                   "--eps", "0.1", "--delta", "0.1", "--constant", "1",
                                   "--trials", str(self.SC_TRIALS)]),
            ("lb-family", ["lb-family", "--n", "4", "--k", "2", "--eps", "0.01", "--budget", "1",
                           "--trials", str(self.LB_TRIALS)]),
            ("curves", ["curves", "--dist", curve_file]),
        ]

    def report(self, i: int, name: str) -> Path:
        """Each op writes its own reports, so a subcommand that writes none fails the check."""
        return self.workdir / f"report-{i}-{name}.json"

    def run_op(self, i: int):
        t = self.tracer
        seeds = {"sample-complexity": self.seeds[i][0], "lb-family": self.seeds[i][1]}
        for name, argv in self.suite:
            argv = argv + ["--out", str(self.report(i, name))]
            if name in seeds:
                argv = argv + ["--seed", str(seeds[name])]
            status = t.call(f"cli.{name}", cli_main, argv)
            if status != 0:
                raise OpFailed(f"{name} exited with status {status}")
        return None

    def check(self, i: int, result) -> list[str]:
        errors = []
        reports = {}
        for name, _ in self.suite:
            path = self.report(i, name)
            try:
                reports[name] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                errors.append(f"{name}: report does not parse: {exc}")
            path.unlink(missing_ok=True)
        if errors:
            return errors

        def near(name: str, got, want, what: str, tol: float = TOL) -> None:
            if not abs(got - want) <= tol:
                errors.append(f"{name}: {what} {got!r}, expected {want!r}")

        m = reports["nonmonotone"]["metrics"]
        e = self.gadget_eps
        near("nonmonotone", m["revenue_on_design_prior"], 0.5 * (1 - e) ** 2 + 2 * e, "design revenue")
        near("nonmonotone", m["revenue_on_dominating"], 2 * e, "dominating revenue")

        m = reports["copies"]["metrics"]
        copies = self.COPIES_K // 2
        if m["copies"] != copies:
            errors.append(f"copies: {m['copies']} copies, expected {copies}")
        near("copies", m["gap"], 0.5 * 0.9**2 * copies, "gap")

        m = reports["embed"]["metrics"]
        big, small = frozenset(m["violating_set"]), frozenset(m["violating_smaller_set"])
        if not (big in self.family and small in self.family and len(big) == len(small) + 1
                and not exchange_holds(self.family, big, small)):
            errors.append(f"embed: ({sorted(big)}, {sorted(small)}) is not an exchange violation")

        m = reports["approx-monotone"]["metrics"]
        near("approx-monotone", m["revenue_on_design_prior"],
             ref.optimal_revenue(self.approx_small, MIN_NON_MATROID_VERTICES), "design revenue")

        m = reports["lipschitz-lb"]["metrics"]
        n, k, e = self.LIPSCHITZ_N, self.LIPSCHITZ_K, self.lipschitz_eps
        # all-or-nothing sells only when every bidder bids 1, at price 1
        lo = 1.0 / (2 * n)
        shift = e / (4.0 * n * sqrt(k))
        near("lipschitz-lb", m["difference"], k * ((1 - lo + shift) ** n - (1 - lo) ** n), "difference")

        m = reports["sample-complexity"]["metrics"]
        near("sample-complexity", m["opt"],
             ref.optimal_revenue(self.sc_prior, uniform_matroid_vertices(2, 1)), "opt")

        m = reports["lb-family"]["metrics"]
        if m["family_size"] != 2**4:
            errors.append(f"lb-family: family of {m['family_size']}, expected 16")

        c = reports["curves"]
        raw, hull = np.asarray(c["revenue_curve"]), np.asarray(c["ironed_curve"])
        slopes = np.diff(hull[:, 1]) / np.diff(hull[:, 0])
        if np.diff(slopes).max(initial=0.0) > 1e-9:
            errors.append("curves: ironed curve is not concave")
        if (np.interp(raw[:, 0], hull[:, 0], hull[:, 1]) < raw[:, 1] - 1e-12).any():
            errors.append("curves: ironed curve below the revenue curve")
        near("curves", c["monopoly"]["revenue"], ref.monopoly_revenue(*self.curve), "monopoly revenue", 1e-12)
        return errors

    def sizes(self, i: int, result) -> dict[str, float]:
        return {}


WORKLOADS = {"exact-revenue": ExactRevenue, "dense-learn": DenseLearn, "paper-cli": PaperCli}
