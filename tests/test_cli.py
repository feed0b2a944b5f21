"""Command-line interface: subcommands, formats, and exit codes."""

import csv
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from myersonlab import cli
from myersonlab.cli import build_parser, main
from myersonlab.dist import _GATE, make_discrete


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def minnon_file(tmp_path):
    return write_json(
        tmp_path / "fs.json",
        {"type": "sets", "n": 3, "sets": [[], [0], [1], [2], [1, 2]]},
    )


@pytest.fixture
def gadget_dist_file(tmp_path):
    bc = {"support": [0.1, 1.0], "probs": [0.9, 0.1]}
    pm = {"support": [0.5], "probs": [1.0]}
    return write_json(tmp_path / "dtilde.json", [pm, bc, bc])


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNonmonotone:
    def test_json_report(self, capsys):
        code, out, _ = run(capsys, ["nonmonotone", "--eps", "0.1"])
        assert code == 0
        obj = json.loads(out)
        assert obj["experiment"] == "nonmonotone"
        assert obj["metrics"]["gap"] == pytest.approx(0.405, abs=1e-9)
        assert obj["verdict"] == "pass"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["nonmonotone", "--eps", "0.1", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "experiment,params,metric,value,verdict"
        assert any(line.startswith("nonmonotone,eps=0.1,gap,") for line in lines[1:])

    def test_byte_reproducible(self, capsys):
        _, out1, _ = run(capsys, ["nonmonotone", "--eps", "0.1"])
        _, out2, _ = run(capsys, ["nonmonotone", "--eps", "0.1"])
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["nonmonotone", "--eps", "0.1", "--out", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"


class TestCopies:
    def test_k4(self, capsys):
        code, out, _ = run(capsys, ["copies", "--k", "4"])
        assert code == 0
        assert json.loads(out)["metrics"]["gap"] == pytest.approx(0.81, abs=1e-9)

    @pytest.mark.parametrize("k,gap", [(12, 2.43), (14, 2.835), (40, 8.1)])
    def test_exact_at_any_k(self, capsys, k, gap):
        code, out, _ = run(capsys, ["copies", "--k", str(k)])
        assert code == 0
        assert json.loads(out)["metrics"]["gap"] == pytest.approx(gap, abs=1e-9)


class TestEmbed:
    def test_minnon(self, capsys, minnon_file):
        code, out, _ = run(capsys, ["embed", "--feasible", minnon_file])
        assert code == 0
        assert json.loads(out)["metrics"]["gap"] == pytest.approx(0.135, abs=1e-9)

    def test_csv_rows_have_five_fields(self, capsys, minnon_file):
        code, out, _ = run(capsys, ["embed", "--feasible", minnon_file, "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert len(rows) == 7 and rows[0] == ["experiment", "params", "metric", "value", "verdict"]
        assert all(len(row) == 5 for row in rows)
        assert ["embed", "eps=0.1;n=3", "violating_set", "[1, 2]", "pass"] in rows

    def test_matroid_input_is_an_input_error(self, capsys, tmp_path):
        fs = write_json(tmp_path / "m.json", {"type": "uniform_matroid", "n": 3, "k": 2})
        code, _, err = run(capsys, ["embed", "--feasible", fs])
        assert code == 1
        assert "matroid" in err

    @pytest.mark.parametrize(
        "obj",
        [
            {"type": "uniform_matroid", "n": 16, "k": 8},
            {"type": "sets", "n": 11, "sets": [[]]},
            {"type": "all_or_nothing", "n": 12, "k": 3},
            {"type": "vertices", "vectors": [[0.0] * 11]},
        ],
    )
    def test_too_many_bidders_refused_before_the_family_is_built(
        self, capsys, tmp_path, monkeypatch, obj
    ):
        def unbuilt(*args):
            raise AssertionError("the family was built")

        for name in ("uniform_matroid", "from_independent_sets", "all_or_nothing", "from_vertices"):
            monkeypatch.setattr(f"myersonlab.feasible.{name}", unbuilt)
        code, out, err = run(capsys, ["embed", "--feasible", write_json(tmp_path / "fs.json", obj)])
        assert (code, out, err) == (1, "", "error: embedding limited to n <= 10\n")

    def test_negative_bidder_count(self, capsys, tmp_path):
        fs = write_json(tmp_path / "fs.json", {"type": "sets", "n": -1, "sets": [[]]})
        code, out, err = run(capsys, ["embed", "--feasible", fs])
        assert (code, out, err) == (1, "", "error: bidder count n=-1 is negative\n")

    @pytest.mark.parametrize("n", ["16", 16.0, None])
    def test_malformed_bidder_count_falls_through(self, capsys, tmp_path, n):
        fs = write_json(tmp_path / "fs.json", {"type": "uniform_matroid", "n": n, "k": 1})
        code, _, err = run(capsys, ["embed", "--feasible", fs])
        assert code == 1
        assert err.startswith("error: malformed 'uniform_matroid' feasible system")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["embed", "--feasible", "/nonexistent.json"])
        assert code == 1
        assert err


class TestApproxMonotone:
    def test_identical_pair(self, capsys, tmp_path, gadget_dist_file, minnon_file):
        code, out, _ = run(
            capsys,
            [
                "approx-monotone",
                "--dd", gadget_dist_file,
                "--dtilde", gadget_dist_file,
                "--feasible", minnon_file,
                "--eps", "0.2",
            ],
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_gadget_pair_violates_precondition(self, capsys, tmp_path, gadget_dist_file, minnon_file):
        pm = {"support": [0.5], "probs": [1.0]}
        one = {"support": [1.0], "probs": [1.0]}
        dd = write_json(tmp_path / "dd.json", [pm, one, one])
        code, _, err = run(
            capsys,
            [
                "approx-monotone",
                "--dd", dd,
                "--dtilde", gadget_dist_file,
                "--feasible", minnon_file,
                "--eps", "0.1",
            ],
        )
        assert code == 1
        assert "closeness" in err


class TestLipschitzLb:
    def test_frozen_instance(self, capsys):
        code, out, _ = run(capsys, ["lipschitz-lb", "--n", "2", "--k", "1", "--eps", "0.01"])
        assert code == 0
        obj = json.loads(out)
        assert obj["metrics"]["difference"] == pytest.approx(1.8766e-3, abs=1e-7)


class TestSampleComplexity:
    def test_small_run(self, capsys, tmp_path, minnon_file):
        d = {"support": [0.5], "probs": [1.0]}
        dist = write_json(tmp_path / "d.json", [d, d, d])
        code, out, _ = run(
            capsys,
            [
                "sample-complexity",
                "--feasible", minnon_file,
                "--dist", dist,
                "--eps", "0.1",
                "--delta", "0.1",
                "--constant", "1",
                "--trials", "10",
                "--seed", "0",
            ],
        )
        assert code == 0
        assert json.loads(out)["metrics"]["failure_frequency"] == 0.0


class TestLbFamily:
    def test_small_run(self, capsys):
        code, out, _ = run(
            capsys,
            ["lb-family", "--n", "4", "--k", "2", "--eps", "0.01",
             "--budget", "1", "--trials", "5", "--seed", "0"],
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["metrics"]["hellinger_sq"] <= obj["metrics"]["hellinger_sq_bound"]

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_budget_below_one_refused(self, capsys, budget):
        argv = ["lb-family", "--n", "2", "--k", "1", "--eps", "0.01", "--budget", budget, "--trials", "3"]
        assert run(capsys, argv) == (1, "", "error: sample count must be at least 1\n")


# the curves report of make_discrete([0.4, 0.5, 1.0], [0.8, 0.1, 0.1]), byte for byte
IRONED_THREE_ATOMS = """\
{
  "ironed_curve": [
    [
      0.0,
      0.0
    ],
    [
      0.1,
      0.1
    ],
    [
      1.0,
      0.4
    ]
  ],
  "ironing_intervals": [
    [
      0.1,
      1.0
    ]
  ],
  "monopoly": {
    "price": 0.4,
    "revenue": 0.4
  },
  "revenue_curve": [
    [
      0.0,
      0.0
    ],
    [
      0.1,
      0.1
    ],
    [
      0.2,
      0.1
    ],
    [
      1.0,
      0.4
    ]
  ]
}
"""


@st.composite
def curve_priors(draw):
    """Priors of 1-3 atoms or of more than _GATE, values from 0.0 and 1.0, values whose repr has an
    exponent, and five-digit values; masses from weights 1 to 100,000, so some are 1e-05 or less."""
    m = draw(st.integers(1, 3) | st.integers(_GATE + 1, 300))
    value = st.sampled_from([0.0, 1.0, 5e-324, 1e-05, 2.5e-07]) | st.integers(1, 99_999).map(lambda v: v / 100_000)
    values = draw(st.lists(value, min_size=m, max_size=m, unique=True))
    weights = draw(st.lists(st.integers(1, 100_000), min_size=m, max_size=m))
    return make_discrete(values, [w / sum(weights) for w in weights])


class TestCurves:
    def test_report_bytes(self, capsys, tmp_path):
        # sorted keys, indent 2 and each float's shortest repr; the breakpoint
        # (0.2, 0.1) lies below the hull, which irons (0.1, 1.0)
        dist = write_json(tmp_path / "d.json", {"support": [0.4, 0.5, 1.0], "probs": [0.8, 0.1, 0.1]})
        assert run(capsys, ["curves", "--dist", dist]) == (0, IRONED_THREE_ATOMS, "")

    def test_dump(self, capsys, tmp_path):
        dist = write_json(tmp_path / "d.json", {"support": [0.1, 1.0], "probs": [0.9, 0.1]})
        code, out, _ = run(capsys, ["curves", "--dist", dist])
        assert code == 0
        obj = json.loads(out)
        assert obj["revenue_curve"] == [[0.0, 0.0], [0.1, 0.1], [1.0, 0.1]]
        assert obj["ironing_intervals"] == []
        assert obj["monopoly"]["price"] == 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_format_flag_is_a_usage_error(self, capsys, tmp_path, fmt):
        dist = write_json(tmp_path / "d.json", {"support": [0.5], "probs": [1.0]})
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--dist", dist, "--format", fmt])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (1, "")
        assert "unrecognized arguments: --format" in err

    def test_out_flag_writes_file(self, capsys, tmp_path):
        dist = write_json(tmp_path / "d.json", {"support": [0.5], "probs": [1.0]})
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, ["curves", "--dist", dist, "--out", str(target)])
        assert (code, out) == (0, "")
        assert json.loads(target.read_text())["monopoly"] == {"price": 0.5, "revenue": 0.5}

    def test_long_prior_matches_the_full_chain(self, capsys, tmp_path):
        # 2,000 atoms, so iron thins the curve on arrays before the chain
        rng = np.random.default_rng(0)
        values = np.sort(rng.choice(np.arange(1, 100_000), size=2000, replace=False)) / 100_000
        weights = rng.integers(1, 10, size=2000)
        d = make_discrete(values, weights / weights.sum())
        dist = write_json(tmp_path / "d.json", d.to_json())
        code, out, _ = run(capsys, ["curves", "--dist", dist])
        obj = json.loads(out)
        assert code == 0
        raw = oracles.revenue_curve(d)
        hull = oracles.iron(raw)
        assert [tuple(map(float.hex, p)) for p in d._hull] == [tuple(map(float.hex, p)) for p in hull]
        assert obj["revenue_curve"] == [list(p) for p in raw]
        assert obj["ironed_curve"] == [list(p) for p in hull]
        assert obj["ironing_intervals"] == [list(iv) for iv in oracles.ironing_intervals(d)]
        assert obj["ironing_intervals"]
        assert out == oracles.curves_report(d) + "\n"

    @given(d=curve_priors())
    @example(d=make_discrete([0.4, 0.5, 1.0], [0.8, 0.1, 0.1]))  # ironed
    @example(d=make_discrete([0.1, 0.2, 0.3, 0.4, 1.0], [0.71, 0.03, 0.03, 0.03, 0.2]))  # all ironed
    @example(d=make_discrete([0.0, 1.0], [0.5, 0.5]))  # no ironing interval: "[]"
    @example(d=make_discrete([5e-324], [1.0]))
    @settings(max_examples=80, deadline=None)
    def test_report_is_the_bytes_of_json_dumps(self, tmp_path_factory, d):
        path = tmp_path_factory.getbasetemp() / "curves-prior.json"
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["curves", "--dist", write_json(path, d.to_json())]) == 0
        assert out.getvalue() == oracles.curves_report(d) + "\n"


def parser_state(parser):
    """Help text, defaults and actions of the parser and of each subcommand's parser."""
    subs = parser._subparsers._group_actions[0].choices
    return [
        (p.format_help(), p._defaults, [(a.dest, a.default, a.required) for a in p._actions])
        for p in (parser, *subs.values())
    ]


class TestParserReuse:
    def test_reused_parser_leaks_nothing(self, capsys, monkeypatch, tmp_path, minnon_file):
        # main parses with one parser per process: each call in a row must print
        # what the same call prints through a freshly built parser
        d = {"support": [0.2, 0.5, 0.9], "probs": [0.3, 0.3, 0.4]}
        dist = write_json(tmp_path / "d.json", [d, d, d])
        sc = ["sample-complexity", "--feasible", minnon_file, "--dist", dist, "--trials", "4"]
        calls = [
            ["nonmonotone", "--eps", "0.2"],
            ["copies", "--format", "csv"],  # usage error: --k is missing
            sc + ["--seed", "5"],
            sc,
            sc + ["--format", "csv"],
            sc,
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        shared_parser = cli._PARSER
        shared = [outcome(argv) for argv in calls]
        fresh = []
        for argv in calls:
            monkeypatch.setattr(cli, "_PARSER", build_parser())
            fresh.append(outcome(argv))
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 0, 0, 0]
        assert "error: the following arguments are required: --k" in shared[1][2]
        assert [json.loads(shared[j][1])["seed"] for j in (2, 3, 5)] == [5, 0, 0]
        assert shared[4][1].startswith("experiment,params,metric,value,verdict\n")
        assert shared_parser.format_help() == build_parser().format_help()
        assert parser_state(shared_parser) == parser_state(build_parser())


class TestErrors:
    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, ["curves", "--dist", str(bad)])
        assert code == 1
        assert err

    @pytest.mark.parametrize(
        "obj", [{"support": 5, "probs": [1]}, [{"support": [0.5], "probs": [1.0]}]]
    )
    def test_malformed_dist_shape(self, capsys, tmp_path, obj):
        dist = write_json(tmp_path / "d.json", obj)
        code, out, err = run(capsys, ["curves", "--dist", dist])
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("subcommand", ["curves", "approx-monotone", "sample-complexity"])
    def test_lowest_mass_lost_in_tail_sum(self, capsys, tmp_path, minnon_file, subcommand):
        d = {"support": [0.1, 0.5, 0.9], "probs": [1e-20, 0.5, 0.5]}
        one = write_json(tmp_path / "one.json", d)
        dist = write_json(tmp_path / "d.json", [d, d, d])
        argv = {
            "curves": ["curves", "--dist", one],
            "approx-monotone": ["approx-monotone", "--dd", dist, "--dtilde", dist,
                                "--feasible", minnon_file, "--eps", "0.1"],
            "sample-complexity": ["sample-complexity", "--dist", dist,
                                  "--feasible", minnon_file, "--trials", "1"],
        }[subcommand]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "lost" in err

    @pytest.mark.parametrize(
        "obj", [[{"type": "uniform_matroid", "n": 3, "k": 2}], {"type": "sets", "n": 3, "sets": 5}]
    )
    def test_malformed_feasible_shape(self, capsys, tmp_path, obj):
        fs = write_json(tmp_path / "fs.json", obj)
        code, _, err = run(capsys, ["embed", "--feasible", fs])
        assert code == 1
        assert err.startswith("error:")

    def test_vectors_that_are_not_a_list_of_lists(self, capsys, tmp_path):
        # read one character at a time, "01" would be the 1-bidder system {{}, {0}}
        fs = write_json(tmp_path / "fs.json", {"type": "vertices", "vectors": "01"})
        dist = write_json(tmp_path / "d.json", [{"support": [0.5], "probs": [1.0]}])
        code, out, err = run(capsys, ["sample-complexity", "--feasible", fs, "--dist", dist, "--trials", "1"])
        assert (code, out) == (1, "")
        assert err == "error: vertices must be a list of at least one vertex, each a list of numbers\n"

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"support": ["0.5"], "probs": [1]}, "support[0] is '0.5', not a number"),
            ({"support": [True], "probs": [1]}, "support[0] is True, not a number"),
            ({"support": [0.2, 0.6], "probs": [0.5, "0.5"]}, "probs[1] is '0.5', not a number"),
            ({"support": [0.5], "probs": [None]}, "probs[0] is None, not a number"),
        ],
    )
    def test_prior_entries_must_be_numbers(self, capsys, tmp_path, obj, message):
        dist = write_json(tmp_path / "d.json", obj)
        assert run(capsys, ["curves", "--dist", dist]) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "obj, n, message",
        [
            ({"type": "vertices", "vectors": [["1", "0"]]}, 2, "vectors[0][0] is '1', not a number"),
            ({"type": "vertices", "vectors": [[True, False]]}, 2, "vectors[0][0] is True, not a number"),
            ({"type": "sets", "n": 3, "sets": [[True], [2]]}, 3, "sets[0][0] is True, not a number"),
            ({"type": "all_or_nothing", "n": 2, "k": True}, 2, "k is True, not a number"),
            ({"type": "uniform_matroid", "n": True, "k": 1}, 1, "n is True, not a number"),
        ],
    )
    def test_system_entries_must_be_numbers(self, capsys, tmp_path, obj, n, message):
        fs = write_json(tmp_path / "fs.json", obj)
        dist = write_json(tmp_path / "d.json", [{"support": [0.5, 1.0], "probs": [0.5, 0.5]}] * n)
        argv = ["sample-complexity", "--feasible", fs, "--dist", dist, "--trials", "1"]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("vectors, bidder", [([[1, 0]], 0), ([[1, 1], [0, 1]], 1), ([[0.5, 0.5]], 0)])
    def test_sample_complexity_refuses_a_bidder_every_vertex_serves(self, capsys, tmp_path, vectors, bidder):
        # the optimum's revenue and ironed virtual welfare would part, which the library flags as a bug
        fs = write_json(tmp_path / "fs.json", {"type": "vertices", "vectors": vectors})
        dist = write_json(tmp_path / "d.json", [{"support": [0.5, 1.0], "probs": [0.5, 0.5]}] * 2)
        argv = ["sample-complexity", "--feasible", fs, "--dist", dist, "--trials", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: every vertex serves bidder {bidder}, even below") and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["lb-family", "--n", "4", "--k", "2", "--eps", "0.01", "--budget", "1",
             "--trials", "0"],
            ["sample-complexity", "--trials", "0"],
        ],
    )
    def test_zero_trials(self, capsys, tmp_path, minnon_file, argv):
        if argv[0] == "sample-complexity":
            d = {"support": [0.5], "probs": [1.0]}
            dist = write_json(tmp_path / "d.json", [d, d, d])
            argv = argv + ["--feasible", minnon_file, "--dist", dist]
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", "error: trials must be at least 1\n")

    @pytest.mark.parametrize(
        "argv",
        [["embed", "--eps", eps] for eps in ("0", "1", "1.5", "-0.5", "inf", "nan")]
        + [
            ["lb-family", "--n", "3", "--k", "1", "--budget", "1", "--trials", "2", "--eps", eps]
            for eps in ("-0.01", "nan")
        ],
    )
    def test_eps_out_of_range(self, capsys, minnon_file, argv):
        if argv[0] == "embed":
            argv = argv + ["--feasible", minnon_file]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: eps {float(argv[argv.index('--eps') + 1])!r} outside")

    def test_enumeration_cap_names_the_cap_in_a_short_line(self, capsys):
        # the instance has a cell-profile count of thousands of digits, past
        # what Python prints as a decimal by default
        argv = ["lipschitz-lb", "--n", "20000", "--k", "1", "--eps", "0.01"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and len(lines[0]) < 200 and "exceed cap 10000000" in lines[0]

    def test_lb_family_rank_zero(self, capsys):
        # the system refuses k = 0 before anything divides by n * k
        argv = ["lb-family", "--n", "4", "--k", "0", "--eps", "0.01", "--budget", "1"]
        code, out, err = run(capsys, argv + ["--trials", "2"])
        assert (code, out, err) == (1, "", "error: rank k=0 outside 1..4\n")

    @pytest.mark.parametrize(
        "vectors, flags",
        [
            ([[1, 0], [0, 1]], ["--eps", "1e-300"]),
            ([[1, 0], [0, 1]], ["--eps", "1e-10", "--delta", "1e-320"]),
            ([[1, 0], [0, 1]], ["--constant", "1e307"]),
            ([[1, 0], [0, 1]], ["--eps", "1e-160"]),
            ([[1, 0], [0, 1]], ["--delta", "1e-320"]),
            # rank 1/4: ln(nk / eps) < 0 < ln(nk / (eps delta)), so the count is at most 0
            ([[0, 0], [0.125, 0.125]], ["--eps", "0.9", "--delta", "0.5"]),
            ([[0, 0], [0.125, 0.125]], ["--eps", "0.9", "--delta", "0.5", "--constant", "1000"]),
        ],
    )
    def test_sample_count_that_is_not_positive_and_finite(self, capsys, tmp_path, vectors, flags):
        fs = write_json(tmp_path / "fs.json", {"type": "vertices", "vectors": vectors})
        dist = write_json(tmp_path / "d.json", [{"support": [0.2, 0.5, 0.9], "probs": [0.3, 0.4, 0.3]}] * 2)
        code, out, err = run(capsys, ["sample-complexity", "--feasible", fs, "--dist", dist, *flags])
        assert (code, out) == (1, "")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error: ") and " sample count at n=2, k=" in err
        assert err.endswith(", not a positive finite number\n")

    @pytest.mark.parametrize("flag", [["--constant", "inf"], ["--eps", "nan"]])
    def test_non_finite_sample_parameters(self, capsys, tmp_path, minnon_file, flag):
        d = {"support": [0.5], "probs": [1.0]}
        dist = write_json(tmp_path / "d.json", [d, d, d])
        argv = ["sample-complexity", "--feasible", minnon_file, "--dist", dist, "--trials", "1"]
        code, out, err = run(capsys, argv + flag)
        assert (code, out) == (1, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["copies"],
            ["copies", "--k", "abc"],
            ["copies", "--k", "4", "--format", "xml"],
            ["copies", "--k", "14", "--trials", "200"],
            ["curves", "--dist", "d.json", "--dump-curves", "c.json"],
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        # 2 is the fail verdict, so argparse's own usage status would mislead
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["sample-complexity", "approx-monotone"])
    def test_system_of_other_bidders_refused_before_it_is_built(
        self, capsys, tmp_path, monkeypatch, subcommand
    ):
        # a million-bidder system would take seconds and gigabytes to build
        def unbuilt(*args):
            raise AssertionError("the system was built")

        monkeypatch.setattr("myersonlab.feasible.all_or_nothing", unbuilt)
        d = {"support": [0.2, 0.5, 0.9], "probs": [0.3, 0.3, 0.4]}
        dist = write_json(tmp_path / "d.json", [d, d])
        fs = write_json(tmp_path / "fs.json", {"type": "all_or_nothing", "n": 1_000_000, "k": 1})
        argv = {
            "sample-complexity": ["sample-complexity", "--dist", dist, "--trials", "1"],
            "approx-monotone": ["approx-monotone", "--dd", dist, "--dtilde", dist, "--eps", "0.1"],
        }[subcommand]
        start = time.perf_counter()
        code, out, err = run(capsys, argv + ["--feasible", fs])
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", "error: prior has 2 bidders, system has 1000000\n")

    def test_error_without_a_message_names_its_type(self, capsys, monkeypatch):
        def exhausted(eps):
            raise MemoryError

        monkeypatch.setattr("myersonlab.lab.run_nonmonotone", exhausted)
        assert run(capsys, ["nonmonotone"]) == (1, "", "error: MemoryError\n")

    def test_sample_count_too_large_to_draw(self, capsys, tmp_path, monkeypatch):
        # trials draw per-atom counts, so 1.06e15 samples a trial are cheap; a count
        # past 2**63 - 1 does not fit the draw's integers and is refused by name
        d = {"support": [0.2, 0.5, 0.9], "probs": [0.3, 0.3, 0.4]}
        dist = write_json(tmp_path / "d.json", [d, d])
        fs = write_json(tmp_path / "item.json", {"type": "uniform_matroid", "n": 2, "k": 1})
        argv = ["sample-complexity", "--feasible", fs, "--dist", dist, "--trials", "2"]
        code, out, err = run(capsys, argv + ["--constant", "1e12"])
        assert (code, err) == (0, "")
        assert json.loads(out)["metrics"]["samples_per_trial"] == 1059663473309608
        too_many = "exceeds 2**63 - 1, the most a draw can take\n"
        monkeypatch.setattr("myersonlab.lab.opt_revenue", None)  # refused before the optimum is computed
        code, out, err = run(capsys, argv + ["--constant", "1e16"])
        assert (code, out, err) == (1, "", f"error: sample count 10596634733096071168 {too_many}")
        argv = ["lb-family", "--n", "2", "--k", "1", "--eps", "0.01", "--budget", str(10**20)]
        assert run(capsys, argv) == (1, "", f"error: sample count {10**20} {too_many}")
        argv[-1] = str(2**63 - 1)  # the largest count a draw takes
        assert run(capsys, argv + ["--trials", "1"])[0] == 0

    def test_uniform_matroid_too_large_to_list(self, capsys, tmp_path):
        # the prior's 24 bidders match the system's, so the system itself refuses;
        # embed refuses more than ten bidders before building anything
        fs = write_json(tmp_path / "fs.json", {"type": "uniform_matroid", "n": 24, "k": 12})
        dist = write_json(tmp_path / "d.json", [{"support": [0.5], "probs": [1.0]}] * 24)
        code, out, err = run(capsys, ["sample-complexity", "--feasible", fs, "--dist", dist])
        assert (code, out) == (1, "")
        assert err.startswith("error: uniform matroid n=24 k=12 has 9740686 sets")

    def test_fail_verdict_exit_code(self, capsys, tmp_path):
        # starving the learner of samples makes every trial miss the optimum
        grid = {"support": [round(0.1 * j, 10) for j in range(1, 11)], "probs": [0.1] * 10}
        dist = write_json(tmp_path / "grid.json", [grid, grid])
        fs = write_json(tmp_path / "item.json", {"type": "uniform_matroid", "n": 2, "k": 1})
        code, out, _ = run(
            capsys,
            [
                "sample-complexity",
                "--feasible", fs,
                "--dist", dist,
                "--eps", "0.02",
                "--delta", "0.1",
                "--constant", "0.001",
                "--trials", "10",
                "--seed", "0",
            ],
        )
        assert code == 2
        assert json.loads(out)["verdict"] == "fail"


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def floats(*in_range):
    """A few in-range values and the out-of-range and non-finite ones every flag must survive."""
    return st.sampled_from([*in_range, "0", "-0.5", "nan", "inf", "-inf", "5e-324", "1e-300", "1e307"])


# in-range values and integer ranges small enough that no example builds a
# large sample matrix or learning loop
FLAGS = {
    "nonmonotone": {"eps": floats("0.1", "0.3")},
    "copies": {"k": ints(-2, 10**400)},  # past 2^1024 copies, floats overflow
    "embed": {"feasible": st.just("fs"), "eps": floats("0.1", "0.3")},
    "approx-monotone": {
        "dd": st.just("prior"), "dtilde": st.just("prior"), "feasible": st.just("fs"),
        "eps": floats("0.2", "1.0"),
    },
    "lipschitz-lb": {"n": ints(1, 6), "k": ints(-2, 8), "eps": floats("0.01", "0.5")},
    "sample-complexity": {
        "feasible": st.just("fs"), "dist": st.just("prior"), "eps": floats("0.2", "0.5"),
        "delta": floats("0.2", "0.5"), "constant": floats("0.05", "0.5"),
        "trials": ints(-2, 20), "seed": ints(0, 3),
    },
    "lb-family": {
        "n": ints(1, 6), "k": ints(-2, 8), "eps": floats("0.001", "0.01"),
        "budget": ints(-2, 20), "trials": ints(-2, 20), "seed": ints(0, 3),
    },
    "curves": {"dist": st.just("one")},
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    bc = {"support": [0.1, 1.0], "probs": [0.9, 0.1]}
    minnon = {"type": "sets", "n": 3, "sets": [[], [0], [1], [2], [1, 2]]}
    return {
        "fs": write_json(root / "fs.json", minnon),
        "prior": write_json(root / "prior.json", [{"support": [0.5], "probs": [1.0]}, bc, bc]),
        "one": write_json(root / "one.json", bc),
    }


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_every_invocation_exits_cleanly(input_files, data):
    command = data.draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command != "curves":  # curves writes JSON only
        argv += ["--format", data.draw(st.sampled_from(["json", "csv"]))]
    for flag, values in FLAGS[command].items():
        value = data.draw(values, label=flag)
        if value is not None:
            # --flag=value, so that argparse does not read "-inf" as a flag
            argv.append(f"--{flag}={input_files.get(value, value)}")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


SMALL_RUNS = {  # each subcommand's flags on small inputs; file flags name an input_files entry
    "nonmonotone": ["--eps", "0.1"],
    "copies": ["--k", "4"],
    "embed": ["--feasible", "fs"],
    "approx-monotone": ["--dd", "prior", "--dtilde", "prior", "--feasible", "fs", "--eps", "0.2"],
    "lipschitz-lb": ["--n", "2", "--k", "1", "--eps", "0.01"],
    "sample-complexity": ["--feasible", "fs", "--dist", "prior", "--constant", "0.5", "--trials", "2"],
    "lb-family": ["--n", "4", "--k", "2", "--eps", "0.01", "--budget", "1", "--trials", "2"],
    "curves": ["--dist", "one"],
}


def builtin(x) -> bool:
    """Whether x holds only built-in values: bool, int, float, str or None, in lists and str-keyed dicts."""
    if type(x) is list:
        return all(map(builtin, x))
    if type(x) is dict:
        return all(type(k) is str and builtin(v) for k, v in x.items())
    return type(x) in (bool, int, float, str, type(None))


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_every_report_holds_builtin_values(capsys, monkeypatch, input_files, command):
    # a numpy scalar prints like a float in JSON, but repr writes it as np.float64(...) in CSV
    dumped, real = [], json.dumps

    def dumps(obj, **kwargs):
        dumped.append(obj)
        return real(obj, **kwargs)

    monkeypatch.setattr(cli.json, "dumps", dumps)
    argv = [command] + [input_files.get(a, a) for a in SMALL_RUNS[command]]
    code, out, err = run(capsys, argv)
    assert code in (0, 2) and err == ""
    assert len(dumped) == 1 and builtin(dumped[0])
    if command != "curves":  # curves writes JSON only
        assert builtin(dumped[0]["params"]) and builtin(dumped[0]["metrics"])
        code, out, err = run(capsys, argv + ["--format", "csv"])
        assert code in (0, 2) and err == ""
        rows = out.splitlines()[1:]
        assert len(rows) == len(dumped[0]["metrics"]) and not any("np." in row for row in rows)
