"""Command-line interface: subcommands, formats, and exit codes."""

import csv
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from myersonlab.cli import main
from myersonlab.curves import revenue_curve
from myersonlab.dist import make_discrete


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


class TestCurves:
    def test_dump(self, capsys, tmp_path):
        dist = write_json(tmp_path / "d.json", {"support": [0.1, 1.0], "probs": [0.9, 0.1]})
        code, out, _ = run(capsys, ["curves", "--dist", dist])
        assert code == 0
        obj = json.loads(out)
        assert obj["revenue_curve"] == [[0.0, 0.0], [0.1, 0.1], [1.0, 0.1]]
        assert obj["ironing_intervals"] == []
        assert obj["monopoly"]["price"] == 1.0

    def test_dump_curves_flag_writes_file(self, capsys, tmp_path):
        dist = write_json(tmp_path / "d.json", {"support": [0.5], "probs": [1.0]})
        target = tmp_path / "curves.json"
        code, _, _ = run(capsys, ["curves", "--dist", dist, "--dump-curves", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["ironed_curve"] == [[0.0, 0.0], [1.0, 0.5]]


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
        assert obj["ironed_curve"] == [list(p) for p in oracles.iron(revenue_curve(d)).breakpoints]
        assert obj["ironing_intervals"] == [list(iv) for iv in oracles.ironing_intervals(d)]
        assert obj["ironing_intervals"]


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
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error:") and "trials" in err

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
        ],
    )
    def test_usage_errors_exit_1(self, capsys, argv):
        # 2 is the fail verdict, so argparse's own usage status would mislead
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

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
    return st.sampled_from([*in_range, "0", "-0.5", "nan", "inf", "-inf"])


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
    "lipschitz-lb": {"n": ints(1, 6), "k": ints(2, 8), "eps": floats("0.01", "0.5")},
    "sample-complexity": {
        "feasible": st.just("fs"), "dist": st.just("prior"), "eps": floats("0.2", "0.5"),
        "delta": floats("0.2", "0.5"), "constant": floats("0.05", "0.5"),
        "trials": ints(-2, 20), "seed": ints(0, 3),
    },
    "lb-family": {
        "n": ints(1, 6), "k": ints(2, 8), "eps": floats("0.001", "0.01"),
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
