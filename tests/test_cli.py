import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import bosonbunch
from bosonbunch import UnitaryMatrix, save_matrix
from bosonbunch.cli import main


@pytest.fixture()
def beamsplitter_path(tmp_path):
    path = tmp_path / "bs.json"
    save_matrix(path, UnitaryMatrix(np.array([[1, 1], [1, -1]]) / np.sqrt(2)))
    return str(path)


def test_haar_writes_unitary_and_prints_defect(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(["haar", "--dim", "8", "--seed", "7", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "unitarity defect" in printed
    assert float(printed.split(":")[1]) <= 1e-12
    doc = json.loads(out.read_text())
    assert doc["rows"] == 8 and doc["seed"] == 7


def test_haar_same_seed_same_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["haar", "--dim", "5", "--seed", "3", "--out", str(a)]) == 0
    assert main(["haar", "--dim", "5", "--seed", "3", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_haar_rejects_dim_zero(tmp_path, capsys):
    assert main(["haar", "--dim", "0", "--seed", "1", "--out", str(tmp_path / "x.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_permanent_identity_all_methods(tmp_path, capsys):
    path = tmp_path / "eye.json"
    save_matrix(path, np.eye(3, dtype=complex))
    for method in ("naive", "ryser", "glynn"):
        assert main(["permanent", "--matrix", str(path), "--method", method]) == 0
        assert capsys.readouterr().out.strip() == "1+0j"


def test_permanent_ones(tmp_path, capsys):
    path = tmp_path / "ones.json"
    save_matrix(path, np.ones((2, 2), dtype=complex))
    assert main(["permanent", "--matrix", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "2+0j"


def test_permanent_repeated_reports_gray_steps(tmp_path, capsys):
    path = tmp_path / "block.json"
    save_matrix(path, np.ones((3, 2), dtype=complex))
    assert main(["permanent", "--matrix", str(path), "--method", "repeated", "--multiplicities", "2,1"]) == 0
    out = capsys.readouterr().out
    assert "gray_steps: 2" in out


def test_permanent_repeated_validates_multiplicities(tmp_path, capsys):
    path = tmp_path / "block.json"
    save_matrix(path, np.ones((3, 2), dtype=complex))
    assert main(["permanent", "--matrix", str(path), "--method", "repeated", "--multiplicities", "2,2"]) == 2


def test_permanent_naive_guard_is_usage_error(tmp_path):
    path = tmp_path / "big.json"
    save_matrix(path, np.eye(11, dtype=complex))
    assert main(["permanent", "--matrix", str(path), "--method", "naive"]) == 2


@pytest.fixture()
def nan_matrix_path(tmp_path):
    path = tmp_path / "nan.json"
    re = [[float("nan"), 0.0], [0.0, 1.0]]
    path.write_text(json.dumps({"rows": 2, "cols": 2, "re": re, "im": [[0.0, 0.0], [0.0, 0.0]]}))
    return str(path)


def test_permanent_rejects_non_finite_matrix(nan_matrix_path, capsys):
    assert main(["permanent", "--matrix", nan_matrix_path]) == 2
    assert "finite" in capsys.readouterr().err


def test_sample_rejects_non_finite_unitary(nan_matrix_path, capsys):
    assert main(["sample", "--unitary", nan_matrix_path, "-n", "1", "--count", "1", "--seed", "0"]) == 2
    assert "finite" in capsys.readouterr().err


def test_import_leaves_scipy_unloaded():
    # scipy.stats costs over a second at import; only chi_square_fit needs it
    src = os.path.dirname(os.path.dirname(bosonbunch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, bosonbunch; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_permanent_missing_file_is_usage_error(tmp_path):
    assert main(["permanent", "--matrix", str(tmp_path / "nope.json")]) == 2


def test_sample_hong_ou_mandel(beamsplitter_path, capsys):
    assert main(["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "100", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 101
    header = json.loads(lines[0])
    assert header["count"] == 100
    for line in lines[1:]:
        doc = json.loads(line)
        assert doc["config"] in ([2, 0], [0, 2])


def test_sample_count_zero_header_only(beamsplitter_path, capsys):
    assert main(["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "0", "--seed", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 1


def test_sample_fixed_seed_is_byte_identical(beamsplitter_path, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (a, b):
        assert main(
            ["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "50", "--seed", "9", "--out", str(out)]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_csv_format(beamsplitter_path, capsys):
    assert main(
        ["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "3", "--seed", "1", "--format", "csv"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "idx,ports,config,ops"
    assert len(lines) == 4


def test_sample_json_format(beamsplitter_path, capsys):
    assert main(
        ["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "3", "--seed", "1", "--format", "json"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3
    assert len(doc["samples"]) == 3


def test_sample_formats_carry_the_same_records(tmp_path, capsys):
    path = tmp_path / "u4.json"
    save_matrix(path, bosonbunch.haar_unitary(4, seed=6))
    outputs = {}
    for fmt in ("jsonl", "json", "csv"):
        args = ["sample", "--unitary", str(path), "-n", "3", "--count", "6", "--seed", "12"]
        assert main(args + ["--format", fmt]) == 0
        outputs[fmt] = capsys.readouterr().out
    jsonl = [json.loads(line) for line in outputs["jsonl"].splitlines()]
    doc = json.loads(outputs["json"])
    assert doc.pop("samples") == jsonl[1:]
    assert doc == jsonl[0]
    rows = outputs["csv"].splitlines()
    assert rows[0] == ",".join(jsonl[1])
    for row, rec in zip(rows[1:], jsonl[1:], strict=True):
        idx, ports, config, ops = row.split(",")
        assert int(idx) == rec["idx"] and int(ops) == rec["ops"]
        assert [int(v) for v in ports.split()] == rec["ports"]
        assert [int(v) for v in config.split()] == rec["config"]


def test_sample_rejects_too_many_bosons(beamsplitter_path):
    assert main(["sample", "--unitary", beamsplitter_path, "-n", "3", "--count", "1", "--seed", "1"]) == 2


@pytest.fixture()
def four_port_path(tmp_path):
    path = tmp_path / "u4.json"
    save_matrix(path, bosonbunch.haar_unitary(4, seed=6))
    return str(path)


@pytest.mark.parametrize("bosons", ["5", "0"])
def test_sample_rejects_impossible_counts_without_samples(four_port_path, bosons, capsys):
    assert main(["sample", "--unitary", four_port_path, "-n", bosons, "--count", "0", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bosons" in captured.err


def test_verify_rejects_more_bosons_than_ports(four_port_path, capsys):
    assert main(["verify", "--unitary", four_port_path, "-n", "5", "--samples", "10", "--seed", "1"]) == 2
    assert "5 bosons on 4 ports" in capsys.readouterr().err


def test_sample_output_digest_is_pinned(tmp_path):
    # any reordering of the floating-point work that flips a single pick changes these bytes
    path, out = tmp_path / "u12.json", tmp_path / "s.jsonl"
    save_matrix(path, bosonbunch.haar_unitary(12, seed=2024))
    args = ["sample", "--unitary", str(path), "-n", "12", "--count", "100", "--seed", "77"]
    assert main(args + ["--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "f2b6809680bfc392ea0a831d8ea9d979946f3b4fbc83fc1caabe6834493e4715"


def test_dist_small_table(capsys):
    assert main(["dist", "-n", "2", "-m", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,P_exact,P,B"
    assert lines[1].startswith("1,2/3,")
    assert lines[2].startswith("2,1/3,")


def test_dist_single_boson(capsys):
    assert main(["dist", "-n", "1", "-m", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("1,1,")


def test_dist_figure_case_normalizes(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["dist", "-n", "50", "-m", "100", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 51
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert abs(total - 1.0) < 1e-12


def test_dist_plot_data_writes_figure_series(tmp_path):
    out = tmp_path / "dist.csv"
    assert main(["dist", "-n", "50", "-m", "100", "--out", str(out), "--plot-data"]) == 0
    fig_lines = (tmp_path / "dist.csv.fig.csv").read_text().strip().splitlines()
    assert fig_lines[0] == "n,P_exact,P,B,region"
    regions = [line.rsplit(",", 1)[1] for line in fig_lines[1:]]
    assert "left-tail" in regions and "core" in regions and "right-tail" in regions


def test_dist_rejects_inverted_counts():
    assert main(["dist", "-n", "5", "-m", "2"]) == 2


def test_bounds_report(capsys):
    assert main(["bounds", "-n", "20", "-m", "60", "--epsilon", "0.05"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_equiv"] == 15.0
    assert doc["sample_lower_log2"] <= doc["sample_upper_log2"]
    assert "formulas" in doc


def test_bounds_rejects_bad_epsilon():
    assert main(["bounds", "-n", "20", "-m", "60", "--epsilon", "1.5"]) == 2


def test_verify_beamsplitter_passes(beamsplitter_path, capsys):
    assert main(["verify", "--unitary", beamsplitter_path, "-n", "2", "--samples", "10000", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "tvd:" in out and "verdict: pass" in out


def test_verify_undersampled_run_fails_with_code_1(tmp_path, capsys):
    from bosonbunch import haar_unitary

    path = tmp_path / "u3.json"
    save_matrix(path, haar_unitary(3, seed=8))
    # 25 samples over 6 configurations cannot track the distribution to 0.02
    assert main(["verify", "--unitary", str(path), "-n", "2", "--samples", "25", "--seed", "4"]) == 1
    assert "verdict: fail" in capsys.readouterr().out


def test_verify_refuses_infeasible_enumeration(tmp_path):
    path = tmp_path / "u30.json"
    from bosonbunch import haar_unitary

    save_matrix(path, haar_unitary(30, seed=1))
    assert main(["verify", "--unitary", path.as_posix(), "-n", "30", "--samples", "10", "--seed", "1"]) == 2


def test_usage_error_exit_code():
    assert main(["sample", "--unitary"]) == 2
    assert main(["nonsense"]) == 2
