import hashlib
import importlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import time

import numpy as np
import pytest

import bosonbunch
from bosonbunch import UnitaryMatrix, cli, fingerprint, load_unitary, save_matrix
from bosonbunch.cli import main
import helpers
from helpers import platform_note


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


def test_haar_requires_a_seed(tmp_path, capsys):
    out = tmp_path / "u.json"
    assert main(["haar", "--dim", "4", "--out", str(out)]) == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


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
    assert main(["permanent", "--matrix", str(path), "--multiplicities", "2,1"]) == 0
    out = capsys.readouterr().out
    assert "gray_steps: 2" in out


def test_permanent_repeated_refuses_past_the_state_ceiling(tmp_path, capsys):
    # 31 distinct columns: 2**30 states, which would run for hours
    path = tmp_path / "ones.json"
    save_matrix(path, np.ones((31, 31), dtype=complex))
    argv = ["permanent", "--matrix", str(path), "--multiplicities", ",".join("1" * 31)]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and "expansion states exceed" in captured.err


def test_permanent_repeated_validates_multiplicities(tmp_path, capsys):
    path = tmp_path / "block.json"
    save_matrix(path, np.ones((3, 2), dtype=complex))
    assert main(["permanent", "--matrix", str(path), "--multiplicities", "2,2"]) == 2


@pytest.mark.parametrize("tokens", ["2.0,1", " 2,+1"], ids=["float", "signed"])
def test_permanent_repeated_reads_multiplicities_as_the_library_does(tmp_path, capsys, tokens):
    path = tmp_path / "block.json"
    save_matrix(path, np.random.default_rng(4).standard_normal((3, 2)).astype(complex))
    argv = ["permanent", "--matrix", str(path), "--multiplicities"]
    outputs = []
    for multiplicities in ("2,1", tokens):
        assert main([*argv, multiplicities]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize(
    "tokens, message",
    [
        ("1.5,1", "multiplicities must hold integers only"),
        ("a,1", "--multiplicities must be comma-separated numbers"),
        ("2,", "--multiplicities must be comma-separated numbers"),
        ("", "--multiplicities must be comma-separated numbers"),
    ],
    ids=["fraction", "word", "empty-token", "empty"],
)
def test_permanent_repeated_refuses_bad_multiplicities(tmp_path, capsys, tokens, message):
    path = tmp_path / "block.json"
    save_matrix(path, np.ones((3, 2), dtype=complex))
    assert main(["permanent", "--matrix", str(path), "--multiplicities", tokens]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("method", ["naive", "ryser", "glynn"])
def test_permanent_refuses_multiplicities_outside_method_repeated(tmp_path, capsys, method):
    path = tmp_path / "ones.json"
    save_matrix(path, np.ones((2, 2), dtype=complex))
    argv = ["permanent", "--matrix", str(path), "--method", method, "--multiplicities", "7,7"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not allowed with argument --method" in captured.err


def test_permanent_repeated_output_is_pinned(tmp_path, capsys):
    path = tmp_path / "block.json"
    save_matrix(path, np.ones((3, 2), dtype=complex))
    assert main(["permanent", "--matrix", str(path), "--multiplicities", "2,1"]) == 0
    assert capsys.readouterr().out == "6-1.61539800405e-15j\ngray_steps: 2\n"


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


@pytest.mark.parametrize(
    "header", [{"rows": 1.9}, {"rows": "1"}, {"cols": 1.9}, {"seed": 1.5}, {"seed": -3}, {"seed": "x"}]
)
def test_sample_rejects_header_fields_that_are_not_counts(tmp_path, header, capsys):
    path = tmp_path / "u.json"
    path.write_text(json.dumps({"rows": 1, "cols": 1, "re": [[1.0]], "im": [[0.0]], **header}))
    assert main(["sample", "--unitary", str(path), "-n", "1", "--count", "1", "--seed", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{next(iter(header))} must" in captured.err


def test_import_leaves_scipy_unloaded():
    # scipy is a test dependency only, and scipy.stats costs over a second at import
    src = os.path.dirname(os.path.dirname(bosonbunch.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, bosonbunch; print('scipy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks `import *`
    package = os.path.dirname(bosonbunch.__file__)
    for info in pkgutil.iter_modules([package]):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"bosonbunch.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"bosonbunch.{info.name}.__all__ names missing {name!r}"
    # the package re-exports each module's __all__ and declares no name itself
    modules = ("errors", "matrices", "permanent", "portstats", "sampler", "validate")
    declared = [name for m in modules for name in importlib.import_module(f"bosonbunch.{m}").__all__]
    assert bosonbunch.__all__ == declared
    assert len(set(declared)) == len(declared), "a public name is declared by two modules"
    star = {}
    exec("from bosonbunch import *", star)
    for name in declared:
        assert star[name] is getattr(bosonbunch, name)


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


def test_sample_runtime_failure_exits_one_with_no_output(beamsplitter_path, monkeypatch, capsys):
    def diverge(*args):
        raise RuntimeError("the chain diverged")

    monkeypatch.setattr(cli, "sample_batch", diverge)
    assert main(["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "3", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: the chain diverged\n"


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [["sample", "-n", "2", "--count", "3", "--seed", "1"], ["dist", "-n", "3", "-m", "4"]],
    ids=["sample", "dist"],
)
def test_closed_stdout_is_a_runtime_failure(beamsplitter_path, argv, monkeypatch, capsys):
    if argv[0] == "sample":
        argv = [*argv, "--unitary", beamsplitter_path]
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(argv) == 1
    assert capsys.readouterr().err == "failure: [Errno 32] Broken pipe\n"


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


def test_sample_jsonl_header_and_record_fields(beamsplitter_path, capsys):
    assert main(["sample", "--unitary", beamsplitter_path, "-n", "2", "--count", "4", "--seed", "9"]) == 0
    header, *docs = map(json.loads, capsys.readouterr().out.splitlines())
    assert list(header) == ["unitary_sha256", "n_bosons", "n_ports", "master_seed", "count"]
    assert header["n_bosons"] == 2 and header["n_ports"] == 2
    assert header["master_seed"] == 9 and header["count"] == 4
    assert len(header["unitary_sha256"]) == 64
    assert header["unitary_sha256"] == fingerprint(load_unitary(beamsplitter_path))
    assert len(docs) == 4
    for i, doc in enumerate(docs):
        assert list(doc) == ["idx", "ports", "config", "ops"]
        assert doc["idx"] == i
        assert len(doc["ports"]) == 2
        assert sum(doc["config"]) == 2
        assert doc["ops"] >= 0


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


SAMPLE_DIGESTS = {
    ("jsonl", 100): "f2b6809680bfc392ea0a831d8ea9d979946f3b4fbc83fc1caabe6834493e4715",
    ("jsonl", 0): "8b1a2675c1b3c7fa15683937ba8c3eeec5cc37ef1e907b3fd60c16c36e5d08cf",
    ("json", 100): "55ac5c5dfcfad9aea2343395863c88a45fad9135d82ac462e0b705e9463a9352",
    ("json", 0): "18e6e5673b9c22e59a7fa8d1ab81c2cb3209345b58bff5a48d6a98aabfddb345",
    ("csv", 100): "89406b8733f422708221b2b98c8d9bd8ae599457a49a6256da1f1580ccad8d76",
    ("csv", 0): "e335e7fd99a0e94704d8f0de7cf0b973e88d2fa80c00cb7056b3f20e4edf5a7b",
}


@pytest.mark.parametrize("fmt, count", SAMPLE_DIGESTS)
def test_sample_output_digest_is_pinned(tmp_path, fmt, count):
    # any reordering of the floating-point work that flips a single pick changes these bytes
    path, out = tmp_path / "u12.json", tmp_path / f"s.{fmt}"
    save_matrix(path, bosonbunch.haar_unitary(12, seed=2024))
    args = ["sample", "--unitary", str(path), "-n", "12", "--count", str(count), "--seed", "77"]
    assert main(args + ["--format", fmt, "--out", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == SAMPLE_DIGESTS[fmt, count], platform_note()


def test_platform_note_names_the_simd_target_and_the_blas_core(monkeypatch):
    # a failed pin should say which numpy inner loops and BLAS kernel ran
    note = platform_note()
    assert isinstance(note, str)
    assert "simd_extensions" in note and "openblas core" in note
    monkeypatch.setattr(helpers, "CORENAME_SYMBOLS", ("no_such_symbol",))
    assert platform_note().endswith("openblas core unknown")


def test_sample_rejects_negative_count_without_output(four_port_path, tmp_path, capsys):
    out = tmp_path / "s.jsonl"
    args = ["sample", "--unitary", four_port_path, "-n", "2", "--count", "-1", "--seed", "1"]
    assert main(args + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count" in captured.err
    assert not out.exists()


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
    assert list(tmp_path.iterdir()) == [out]
    fig_lines = out.read_text().strip().splitlines()
    assert fig_lines[0] == "n,P_exact,P,B,region"
    regions = [line.rsplit(",", 1)[1] for line in fig_lines[1:]]
    assert "left-tail" in regions and "core" in regions and "right-tail" in regions


def test_dist_plot_data_output_is_pinned(tmp_path):
    # both tables byte for byte: the plain one and the figure series with its regions
    outs = [tmp_path / "dist.csv", tmp_path / "fig.csv"]
    assert main(["dist", "-n", "50", "-m", "100", "--out", str(outs[0])]) == 0
    assert main(["dist", "-n", "50", "-m", "100", "--out", str(outs[1]), "--plot-data"]) == 0
    digests = [hashlib.sha256(p.read_bytes()).hexdigest() for p in outs]
    assert digests == [
        "f69c1eccfb6a89e6151eeaa04bf7fd97356bb6d427291cd35fc0efdacfb7f954",
        "04067916f08e016d460d37a428186626ba0d689b032509ca690ea7c81e6a17c6",
    ]


def test_dist_plot_data_without_out_writes_stdout(capsys):
    assert main(["dist", "-n", "5", "-m", "10", "--plot-data"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "n,P_exact,P,B,region" and len(lines) == 6
    assert all(line.rsplit(",", 1)[1] in ("left-tail", "core", "right-tail") for line in lines[1:])
    assert captured.err == ""


def test_dist_refuses_a_density_too_small_for_the_crossings(tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(["dist", "-n", "1", "-m", str(10**17), "--out", str(out), "--plot-data"]) == 2
    assert "rho must exceed 2**-53" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.fixture()
def str_digits_640():
    # Python's smallest integer-to-string limit, so a 50-row table already passes it
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no integer-to-string digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield
    sys.set_int_max_str_digits(limit)


# the largest exact denominator has 673 digits
PAST_THE_DIGIT_LIMIT = ["dist", "-n", "50", "-m", str(10**15)]


def test_dist_past_the_digit_limit_writes_nothing_to_stdout(str_digits_640, capsys):
    assert main(PAST_THE_DIGIT_LIMIT) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Exceeds the limit (640 digits)" in captured.err


def test_dist_past_the_digit_limit_creates_no_file(str_digits_640, tmp_path, capsys):
    out = tmp_path / "d.csv"
    assert main(PAST_THE_DIGIT_LIMIT + ["--out", str(out)]) == 2
    assert main(PAST_THE_DIGIT_LIMIT + ["--out", str(out), "--plot-data"]) == 2
    assert "Exceeds the limit (640 digits)" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dist_rejects_inverted_counts():
    assert main(["dist", "-n", "5", "-m", "2"]) == 2


def test_bounds_report(capsys):
    assert main(["bounds", "-n", "20", "-m", "60", "--epsilon", "0.05"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n_equiv"] == 15.0
    assert doc["sample_lower_log2"] <= doc["sample_upper_log2"]
    assert "formulas" in doc


def test_bounds_stdout_is_pinned(capsys):
    # the whole report as printed: keys, their order, values and formulas
    assert main(["bounds", "-n", "20", "-m", "60", "--epsilon", "0.05"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "4e5fe505ab36e915b8c26b05bbdb014030a2272b089b7f68bf1bb729206061d7"


def test_bounds_rejects_bad_epsilon():
    assert main(["bounds", "-n", "20", "-m", "60", "--epsilon", "1.5"]) == 2


@pytest.mark.parametrize(
    "n, m, epsilon",
    [("3", "5", "1e-320"), ("2", "1000", "1e-306"), ("1", "1000000", "1e-320")],
)
def test_bounds_refuse_an_epsilon_too_small_to_bound(n, m, epsilon, capsys):
    # 2 / epsilon or N / (rho epsilon) would overflow, or rho epsilon underflow to 0
    assert main(["bounds", "-n", n, "-m", m, "--epsilon", epsilon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "epsilon" in captured.err


def test_verify_beamsplitter_passes(beamsplitter_path, monkeypatch, capsys):
    # scipy is a test dependency only: with every import of it failing, the
    # chi-square tail still comes out
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.stats", None)
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


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_rejects_non_positive_samples_before_enumerating(four_port_path, samples, monkeypatch, capsys):
    def enumerate_configurations(*args):
        raise AssertionError("brute_force_distribution ran")

    monkeypatch.setattr(bosonbunch.cli, "brute_force_distribution", enumerate_configurations)
    assert main(["verify", "--unitary", four_port_path, "-n", "2", "--samples", samples, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples must be >= 1" in captured.err


def test_verify_refuses_infeasible_enumeration(tmp_path):
    path = tmp_path / "u30.json"
    from bosonbunch import haar_unitary

    save_matrix(path, haar_unitary(30, seed=1))
    assert main(["verify", "--unitary", path.as_posix(), "-n", "30", "--samples", "10", "--seed", "1"]) == 2


def test_usage_error_exit_code():
    assert main(["sample", "--unitary"]) == 2
    assert main(["nonsense"]) == 2
