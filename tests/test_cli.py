import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cghz
from cghz import spectral
from cghz.cli import main
from cghz.circuits import parse_circuit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_coherence_value(self, capsys):
        code, out, _ = run(capsys, "eval", "coherence", "--N", "10", "--m", "1", "--p", "0.9")
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert row[:5] == ["coherence", "10", "1", "0.9", "analytic"]
        assert float(row[5]) == pytest.approx(0.9**10, rel=1e-12)

    def test_threshold_macroscopic(self, capsys):
        code, out, _ = run(capsys, "eval", "threshold", "--m", "10", "--p", "0.9")
        assert code == 0
        value = int(out.splitlines()[1].split(",")[5])
        assert value >= 10**12

    def test_threshold_record_ignores_n(self, capsys):
        # the threshold is the largest distillable N, so --N leaves its record as it is
        without = run(capsys, "eval", "threshold", "--m", "3", "--p", "0.9")
        given = run(capsys, "eval", "threshold", "--N", "10", "--m", "3", "--p", "0.9")
        rows = [out.splitlines()[1].split(",") for _, out, _ in (without, given)]
        assert [code for code, _, _ in (without, given)] == [0, 0]
        assert rows[0][1] == rows[1][1] == ""
        # every cell but the runtime
        assert rows[0][:6] == rows[1][:6]

    def test_negativity_initial_value(self, capsys):
        code, out, _ = run(capsys, "eval", "negativity", "--N", "2", "--m", "2", "--p", "1")
        assert code == 0
        assert float(out.splitlines()[1].split(",")[5]) == pytest.approx(0.5, abs=1e-12)

    def test_engine_all_agrees(self, capsys):
        code, out, _ = run(
            capsys, "eval", "fisher", "--N", "2", "--m", "2", "--p", "0.9", "--engine", "all"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(",max_discrepancy")
        rows = [ln.split(",") for ln in lines[1:]]
        assert {r[4] for r in rows} == {"spectral", "oracle"}
        vals = [float(r[5]) for r in rows]
        assert abs(vals[0] - vals[1]) < 1e-8
        assert all(float(r[7]) <= 1e-8 for r in rows)

    def test_rate_time_noise_input(self, capsys):
        import math

        code, out, _ = run(
            capsys, "eval", "coherence", "--N", "2", "--m", "1", "--kappa", "0.5", "--t", "0.2"
        )
        assert code == 0
        expected = math.exp(-0.1) ** 2
        assert float(out.splitlines()[1].split(",")[5]) == pytest.approx(expected, rel=1e-12)

    def test_json_envelope(self, capsys):
        code, out, _ = run(
            capsys, "eval", "coherence", "--N", "2", "--m", "1", "--p", "0.9", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["records"][0]["value"] == pytest.approx(0.81)
        assert "version" in doc and "command" in doc

    def test_json_command_is_the_argv_given_to_main(self, capsys, monkeypatch):
        # an in-process caller's own sys.argv must not leak into the record
        monkeypatch.setattr("sys.argv", ["host", "--unrelated"])
        argv = ["eval", "coherence", "--N", "2", "--m", "1", "--p", "0.9", "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["command"] == " ".join(argv)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "eval.csv"
        code, out, _ = run(
            capsys, "eval", "negativity", "--N", "3", "--m", "1", "--p", "0.9",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        lines = path.read_text().splitlines()
        assert lines[0].startswith("quantity,")
        assert lines[1].split(",")[0] == "negativity"


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "nonsense", "--N", "2", "--m", "1", "--p", "0.9")
        assert code == 1
        assert err

    def test_missing_noise(self, capsys):
        code, _, err = run(capsys, "eval", "coherence", "--N", "2", "--m", "1")
        assert code == 1
        assert "usage error" in err

    def test_resource_cap(self, capsys):
        code, _, err = run(
            capsys, "eval", "coherence", "--N", "10", "--m", "2", "--p", "0.9",
            "--engine", "oracle",
        )
        assert code == 2
        assert "resource error" in err

    def test_unsupported_engine_for_quantity(self, capsys):
        code, _, err = run(
            capsys, "eval", "negativity", "--N", "2", "--m", "1", "--p", "0.9",
            "--engine", "analytic",
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flag, value", [("--n-list", "2,x"), ("--m", "1,y"), ("--p", "0.9,z"), ("--n-range", "2:8:0")]
    )
    def test_malformed_sweep_axis(self, capsys, flag, value):
        axes = {"--n-list": "2,3", "--m": "1", "--p": "0.9"}
        if flag == "--n-range":
            del axes["--n-list"]
        axes[flag] = value
        argv = [token for pair in axes.items() for token in pair]
        code, _, err = run(capsys, "sweep", "coherence", *argv)
        assert code == 1
        assert err.startswith("usage error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ("eval", "coherence", "--N", "2", "--m", "1", "--p", "0.5", "--kappa", "1", "--t", "1"),
                "usage error: give --p or (--kappa and --t), not both",
            ),
            (
                ("eval", "threshold", "--m", "3", "--p", "0.9", "--threshold-cap", "0"),
                "usage error: --threshold-cap must be >= 2",
            ),
            (
                ("random-compare", "--m", "3", "--p", "0.9", "--samples", "-3"),
                "usage error: --samples must be >= 0",
            ),
            (
                ("random-compare", "--m", "0", "--samples", "2", "--p", "0.9"),
                "usage error: random-compare is specified for 1 <= m <= 4, got 0",
            ),
            (
                ("random-compare", "--m", "-1", "--samples", "2", "--p", "0.9"),
                "usage error: random-compare is specified for 1 <= m <= 4, got -1",
            ),
            # exp(-kappa t) = exp(-1) is a valid p; the signs alone are rejected
            (
                ("eval", "coherence", "--N", "2", "--m", "1", "--kappa", "-1", "--t", "-1"),
                "input error: kappa and t must be nonnegative",
            ),
            # only random-compare draws random numbers, so only it takes --seed
            (
                ("eval", "coherence", "--N", "3", "--m", "2", "--p", "0.9", "--seed", "3"),
                "usage error: unrecognized arguments: --seed 3",
            ),
            (
                ("sweep", "coherence", "--n-list", "2,3", "--m", "1", "--p", "0.9", "--seed", "3"),
                "usage error: unrecognized arguments: --seed 3",
            ),
            (
                ("synthesize", "--N", "2", "--m", "2", "--seed", "3"),
                "usage error: unrecognized arguments: --seed 3",
            ),
        ],
        ids=["p-with-rate", "threshold-cap", "samples", "random-m-zero", "random-m-negative", "negative-rate",
             "eval-seed", "sweep-seed", "synthesize-seed"],
    )
    def test_malformed_option_value(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize(
        "command",
        [
            ("eval", "negativity", "--N", "3", "--m", "1", "--p", "0.9"),
            ("sweep", "negativity", "--n-list", "2,3", "--m", "1", "--p", "0.9"),
        ],
    )
    def test_engine_disagreement(self, capsys, monkeypatch, command):
        # engines are looked up on their module at call time, so the patched
        # attribute is what the CLI runs
        true_negativity = spectral.negativity
        monkeypatch.setattr(spectral, "negativity", lambda cfg, p: true_negativity(cfg, p) + 1e-6)
        code, _, err = run(capsys, *command, "--engine", "all")
        assert code == 3
        assert "consistency error" in err


def test_one_parser_serves_every_call(capsys):
    # the parser is built once per process; a usage error must leave nothing
    # behind that a later call could see
    calls = [
        ("eval", "nonsense", "--N", "2", "--m", "1", "--p", "0.9"),
        ("sweep", "coherence", "--n-list", "2,3", "--m", "1,2", "--p", "0.9"),
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    src = str(Path(cghz.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "cghz.cli", *argv], capture_output=True, text=True, env=env)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in in_process] == [1, 0]
    assert in_process == fresh


class TestJsonRecords:
    def test_eval_records_are_numeric(self, capsys):
        code, out, _ = run(
            capsys, "eval", "negativity", "--N", "3", "--m", "1", "--p", "0.9",
            "--engine", "all", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["seed"] is None
        records = doc["records"]
        assert [r["engine"] for r in records] == ["spectral", "oracle"]
        for r in records:
            assert list(r) == ["quantity", "N", "m", "p", "engine", "value", "runtime", "max_discrepancy"]
            assert (r["quantity"], r["N"], r["m"], r["p"]) == ("negativity", 3, 1, 0.9)
            assert isinstance(r["value"], float)
            assert isinstance(r["runtime"], float)
            assert isinstance(r["max_discrepancy"], float)

    def test_threshold_record_value_is_text(self, capsys):
        code, out, _ = run(capsys, "eval", "threshold", "--m", "3", "--p", "0.5", "--json")
        assert code == 0
        (record,) = json.loads(out)["records"]
        assert (record["N"], record["value"]) == ("", "2")
        assert isinstance(record["runtime"], float)

    def test_sweep_records_are_csv_cells(self, capsys):
        argv = ("sweep", "negativity", "--n-list", "2,13", "--m", "1", "--p", "0.9", "--engine", "all")
        _, csv_text, _ = run(capsys, *argv)
        docs = []
        for _ in range(2):
            code, out, _ = run(capsys, *argv, "--json")
            assert code == 0
            docs.append(json.loads(out))
        header, *rows = csv_text.splitlines()
        assert header == "quantity,N,m,p,engine,value,error,max_discrepancy"
        records = docs[0]["records"]
        assert records == [dict(zip(header.split(","), row.split(","))) for row in rows]
        assert all(isinstance(cell, str) for r in records for cell in r.values())
        failed = [r for r in records if r["N"] == "13" and r["engine"] == "oracle"]
        assert failed[0]["value"] == "" and failed[0]["error"].startswith("oracle: ")
        # only the wall-clock timestamp differs between runs
        for doc in docs:
            del doc["timestamp"]
        assert docs[0] == docs[1]


class TestSweep:
    def test_deterministic_output(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            code, _, _ = run(
                capsys, "sweep", "negativity", "--n-range", "2:8", "--m", "1,2",
                "--p", "0.9", "--fit", "--out", str(path),
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_header_and_order(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        run(
            capsys, "sweep", "coherence", "--n-range", "2:4", "--m", "2,1",
            "--p", "0.9", "--out", str(path),
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "quantity,N,m,p,engine,value,error"
        m_col = [int(ln.split(",")[2]) for ln in lines[1:]]
        assert m_col == sorted(m_col)

    def test_fit_block_appended(self, tmp_path, capsys):
        path = tmp_path / "fit.csv"
        run(
            capsys, "sweep", "negativity", "--n-range", "6:20", "--m", "1",
            "--p", "0.9", "--fit", "--out", str(path),
        )
        fit_lines = [ln for ln in path.read_text().splitlines() if ln.startswith("#fit")]
        assert len(fit_lines) == 1
        assert "gamma=" in fit_lines[0]

    def test_decay_rates_ordered_by_block_size(self, tmp_path, capsys):
        path = tmp_path / "neg.csv"
        run(
            capsys, "sweep", "negativity", "--n-range", "6:20", "--m", "1,2,3",
            "--p", "0.9", "--fit", "--out", str(path),
        )
        gammas = []
        for ln in path.read_text().splitlines():
            if ln.startswith("#fit"):
                gammas.append(float(ln.split("gamma=")[1].split(",")[0]))
        assert len(gammas) == 3
        assert gammas[0] > gammas[1] > gammas[2]

    def test_engine_all_discrepancy_column(self, tmp_path, capsys):
        path = tmp_path / "all.csv"
        code, _, _ = run(
            capsys, "sweep", "fisher", "--n-range", "2:3", "--m", "1,2",
            "--p", "0.9", "--engine", "all", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",max_discrepancy")
        for ln in lines[1:]:
            disc = ln.split(",")[7]
            assert float(disc) <= 1e-8

    def test_partial_failure_recorded(self, tmp_path, capsys):
        # oracle rows beyond the dense cap carry an error but the run continues
        path = tmp_path / "partial.csv"
        code, _, _ = run(
            capsys, "sweep", "negativity", "--n-list", "2,13", "--m", "1",
            "--p", "0.9", "--engine", "oracle", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()[1:]
        # error cells never break the column count
        assert all(len(ln.split(",")) == 7 for ln in lines)
        ok = [ln for ln in lines if ln.split(",")[1] == "2"]
        failed = [ln for ln in lines if ln.split(",")[1] == "13"]
        assert ok[0].split(",")[5] != ""
        assert "oracle" in failed[0].split(",")[6]

    def test_fit_on_power_of_two_axis(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "coherence", "--n-pow2", "4:10", "--m", "3", "--p", "0.9", "--fit"
        )
        assert code == 0
        fit_lines = [ln for ln in out.splitlines() if ln.startswith("#fit")]
        assert len(fit_lines) == 1
        assert fit_lines[0].endswith(",window=256:1024")

    def test_fit_window_prints_exact_integer_bounds(self, capsys):
        # N = 2^20 = 1048576 has more digits than a %g format keeps
        code, out, _ = run(
            capsys, "sweep", "coherence", "--n-pow2", "16:20", "--m", "3", "--p", "0.99", "--fit"
        )
        assert code == 0
        fit_lines = [ln for ln in out.splitlines() if ln.startswith("#fit")]
        assert len(fit_lines) == 1
        assert fit_lines[0].endswith(",window=262144:1048576")

    def test_log2_block_sizes(self, tmp_path, capsys):
        path = tmp_path / "log2.csv"
        run(
            capsys, "sweep", "coherence", "--n-pow2", "4:8", "--m", "log2",
            "--p", "0.9", "--out", str(path),
        )
        lines = path.read_text().splitlines()[1:]
        for ln in lines:
            cells = ln.split(",")
            assert int(cells[2]) == max(1, (int(cells[1]) - 1).bit_length())


class TestRandomCompare:
    def test_reference_sample_and_summary(self, tmp_path, capsys):
        path = tmp_path / "rc.csv"
        code, out, _ = run(
            capsys, "random-compare", "--m", "3", "--samples", "50", "--p", "0.9",
            "--seed", "11", "--out", str(path),
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "sample,value"
        from cghz.analytic import coherence_norm_block

        assert float(lines[1].split(",")[1]) == pytest.approx(coherence_norm_block(3, 0.9), abs=1e-10)
        assert "pairs exceeding the cghz value: 0" in out

    def test_noiseless_all_equal(self, capsys):
        code, out, _ = run(
            capsys, "random-compare", "--m", "2", "--samples", "10", "--p", "1", "--json"
        )
        assert code == 0
        doc = json.loads(out)
        summary = doc["records"][0]
        assert doc["seed"] == summary["seed"] == 0
        assert summary["exceed_count"] == 0
        assert summary["max_random"] == pytest.approx(1.0, abs=1e-9)

    def test_deterministic_per_seed(self, tmp_path, capsys):
        outs = []
        for name in ("x.csv", "y.csv"):
            path = tmp_path / name
            run(
                capsys, "random-compare", "--m", "3", "--samples", "25", "--p", "0.9",
                "--seed", "3", "--out", str(path),
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestSynthesize:
    def test_emits_parseable_circuit(self, tmp_path, capsys):
        path = tmp_path / "circ.txt"
        code, out, _ = run(capsys, "synthesize", "--N", "2", "--m", "2", "--out", str(path),
                           "--verify")
        assert code == 0
        circuit = parse_circuit(path.read_text())
        assert circuit.n == 4
        assert "fidelity=1.000000000000" in out

    def test_counts_without_verification(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--N", "8", "--m", "4")
        assert code == 0
        assert "ms=9 zlayers=7 phase=1/2*pi" in out.splitlines()[-1]

    def test_verification_cap_warns_but_succeeds(self, capsys):
        code, out, err = run(capsys, "synthesize", "--N", "8", "--m", "4", "--verify")
        assert code == 0
        assert "verification skipped" in err

    def test_verification_reaches_the_dense_cap(self, capsys):
        code, out, err = run(capsys, "synthesize", "--N", "12", "--m", "1", "--verify")
        assert (code, err) == (0, "")
        assert "fidelity=1.000000000000" in out.splitlines()[-1]
        code, out, err = run(capsys, "synthesize", "--N", "13", "--m", "1", "--verify")
        assert code == 0
        assert err == "warning: verification skipped, 13 qubits exceed the cap of 12\n"
        assert "fidelity=" not in out

    def test_single_block_base_case(self, capsys):
        code, out, _ = run(capsys, "synthesize", "--N", "1", "--m", "3")
        assert code == 0
        ms_lines = [ln for ln in out.splitlines() if ln.startswith("MS")]
        assert len(ms_lines) == 2  # GHZ pulse + single coupler pulse
