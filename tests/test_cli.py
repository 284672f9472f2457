"""Command line interface, exercised in process through main()."""

import hashlib
import json
import math
import os
import re
import threading
from pathlib import Path

import pytest

from triphoton import cli, scan
from triphoton.cli import main
from triphoton.report import EntanglementReport, json_dumps
from triphoton.scan import MAX_TREE_DEPTH
from triphoton.spdc import qpm_penalty
from triphoton.states import TripleGaussianState, exact_e3f

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FUSED = CONFIGS / "fused_silica_516nm.cfg"
FIG1 = CONFIGS / "fig1_516nm.cfg"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_e3f_plain_output(capsys):
    code, out, err = _run(capsys, ["e3f", "--sigma-u", "10", "--sigma-v", "1"])
    assert code == 0 and err == ""
    want = format(exact_e3f(TripleGaussianState(10.0, 1.0, 1.0)), ".12g")
    assert out.strip() == want
    assert float(out) == pytest.approx(2.68684569692, abs=1e-9)


def test_e3f_width_ratio_inversion(capsys):
    _, a, _ = _run(capsys, ["e3f", "--sigma-u", "5", "--sigma-v", "1"])
    _, b, _ = _run(capsys, ["e3f", "--sigma-u", "0.2", "--sigma-v", "1"])
    assert a == b


def test_e3f_json_report(capsys):
    code, out, _ = _run(capsys, ["e3f", "--sigma-u", "10", "--sigma-v", "1", "--json"])
    assert code == 0
    rep = EntanglementReport.from_json(out)
    assert rep.witness_gebits <= rep.exact_e3f_gebits


@pytest.mark.parametrize("sigma_u", ["1e200", "1e-200", "1e308"])
def test_e3f_json_report_at_extreme_width_ratios(capsys, sigma_u):
    # a momentum width of about 1e-200 (or 1e200) squares to 0 (or inf);
    # twice 1e308 overflows, so its dual must not be taken as 1 / (2 * sigma)
    code, out, err = _run(capsys, ["e3f", "--sigma-u", sigma_u, "--sigma-v", "1", "--json"])
    assert code == 0 and err == ""
    rep = EntanglementReport.from_json(out)
    assert math.isfinite(rep.witness_gebits)
    assert rep.witness_gebits <= rep.exact_e3f_gebits


@pytest.mark.parametrize(
    "argv",
    [
        ["e3f", "--sigma-u", "1e-310", "--sigma-v", "1", "--json"],
        ["e3f", "--sigma-u", "1", "--sigma-v", "1e-310", "--json"],
        ["simulate", "--sigma-u", "1e-310", "--sigma-v", "1", "-n", "1000"],
        ["simulate", "--sigma-u", "1", "--sigma-v", "1e-310", "-n", "1000"],
    ],
)
def test_a_width_whose_dual_overflows_is_named(capsys, argv):
    # 0.5 / 1e-310 is past the float max: the error names the width given, not inf
    name = "sigma_u" if argv[2] == "1e-310" else "sigma_v"
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    assert err == f"error: {name} = 1e-310: its dual 0.5 / {name} leaves the float range\n"


def test_simulate_refuses_a_scan_box_beyond_the_float_range(capsys):
    code, out, err = _run(capsys, ["simulate", "--sigma-u", "5e307", "--sigma-v", "1", "-n", "1000"])
    assert code == 1 and out == ""
    assert "position scan box of sigma_u = 5e+307" in err and "leaves the float range" in err


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"lambda_p": "1", "n_p": "1e-300", "L_z": "1e300"}, "a = 3 L_z / (4 k_p) leaves the float range at"),
        ({"lambda_p": "1e-300", "n_p": "1e10"}, "k_p = 2 pi n_p / lambda_p leaves the float range at"),
    ],
)
def test_geometry_beyond_the_float_range_is_a_domain_error(capsys, tmp_path, fields, message):
    # a = inf once gave sweep rows of nan and a zero width to simulate; k_p = inf
    # gave a division by zero.  Each field alone is valid, so the config loads.
    text = FIG1.read_text()
    for key, value in fields.items():
        text, n = re.subn(rf"(?m)^{key} .*$", f"{key} = {value}", text)
        assert n == 1
    cfg = tmp_path / "geometry.cfg"
    cfg.write_text(text)
    csv = tmp_path / "out.csv"
    for argv in (
        ["sweep", "--config", str(cfg), "--sigma-p-min", "1e-5", "--sigma-p-max", "1e-4", "--out", str(csv)],
        ["simulate", "--config", str(cfg), "-n", "1000", "--out", str(tmp_path / "run")],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == "", argv
        assert err.startswith(f"error: {message} lambda_p = {float(fields['lambda_p'])!r}"), argv
        assert err.count("\n") == 1, argv
    assert sorted(tmp_path.iterdir()) == [cfg]


def test_e3f_rejects_asymmetric_transverse_widths(capsys):
    code, _, err = _run(capsys, ["e3f", "--sigma-u", "3", "--sigma-v", "1", "--sigma-w", "2"])
    assert code == 1
    assert "error:" in err


def test_sweep_writes_conservative_table(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, out, _ = _run(
        capsys,
        [
            "sweep",
            "--config",
            str(FIG1),
            "--sigma-p-min",
            "1e-5",
            "--sigma-p-max",
            "1e-3",
            "--points",
            "5",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert "wrote 5 rows" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "sigma_p_m,witness_gebits,exact_gebits"
    assert len(lines) == 6
    for line in lines[1:]:
        _, wit, exact = (float(f) for f in line.split(","))
        assert wit <= exact + 1e-9
    second = tmp_path / "sweep2.csv"
    _run(
        capsys,
        [
            "sweep",
            "--config",
            str(FIG1),
            "--sigma-p-min",
            "1e-5",
            "--sigma-p-max",
            "1e-3",
            "--points",
            "5",
            "--out",
            str(second),
        ],
    )
    assert second.read_bytes() == out_path.read_bytes()


def test_sweep_single_point_and_bad_range(capsys, tmp_path):
    out_path = tmp_path / "one.csv"
    code, _, _ = _run(
        capsys,
        [
            "sweep",
            "--config",
            str(FIG1),
            "--sigma-p-min",
            "1e-4",
            "--sigma-p-max",
            "1e-4",
            "--points",
            "1",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 2
    # one point over a non-empty range is the minimum, exactly
    code, _, _ = _run(
        capsys,
        [
            "sweep",
            "--config",
            str(FIG1),
            "--sigma-p-min",
            "1e-6",
            "--sigma-p-max",
            "1e-3",
            "--points",
            "1",
            "--out",
            str(out_path),
        ],
    )
    assert code == 0
    rows = out_path.read_text().splitlines()[1:]
    assert len(rows) == 1
    assert float(rows[0].split(",")[0]) == 1e-6
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "sweep",
                "--config",
                str(FIG1),
                "--sigma-p-min",
                "1e-3",
                "--sigma-p-max",
                "1e-5",
                "--out",
                str(tmp_path / "bad.csv"),
            ]
        )
    assert exc.value.code == 2


def test_sweep_row_stays_finite_where_its_product_overflows(capsys, tmp_path):
    # 18 sigma_p^2 k_p / L_z overflows at sigma_p = 1e150, 3 sigma_p^2 at 1e154,
    # and sigma_p**2 raises OverflowError above about 1.34e154; the logs and
    # the width with sigma_p taken out of its root do not overflow
    out_path = tmp_path / "wide.csv"
    for width in ("1e150", "1e154", "1e200", "1e300"):
        argv = ["sweep", "--config", str(FIG1), "--sigma-p-min", width, "--sigma-p-max", width]
        code, _, err = _run(capsys, [*argv, "--points", "1", "--out", str(out_path)])
        assert code == 0 and err == "", width
        (row,) = out_path.read_text().splitlines()[1:]
        _, wit, exact = (float(f) for f in row.split(","))
        assert math.isfinite(wit) and math.isfinite(exact) and wit <= exact, width


def test_rate_stays_finite_for_a_wide_pump(capsys, tmp_path):
    # sigma_p**4 overflows above about 1.16e77; the rate itself underflows to 0
    wide = tmp_path / "wide_pump.cfg"
    text = FUSED.read_text()
    assert "sigma_p    = 1.443375673e-6" in text
    for width in ("1e80", "1e300"):
        wide.write_text(text.replace("sigma_p    = 1.443375673e-6", f"sigma_p    = {width}"))
        code, out, err = _run(capsys, ["rate", "--config", str(wide)])
        assert code == 0 and err == "", width
        assert json.loads(out)["triplets_per_second"] == 0.0, width


def test_rate_overflow_for_a_narrow_pump_is_a_domain_error(capsys, tmp_path):
    narrow = tmp_path / "narrow_pump.cfg"
    text = FUSED.read_text()
    assert "sigma_p    = 1.443375673e-6" in text
    narrow.write_text(text.replace("sigma_p    = 1.443375673e-6", "sigma_p    = 1e-300"))
    code, out, err = _run(capsys, ["rate", "--config", str(narrow)])
    assert code == 1 and out == ""
    assert "triplet rate overflows the float range at sigma_p = 1e-300" in err


@pytest.mark.parametrize("index, value", [("n_p", "1e-300"), ("n_1", "1e-170")])
def test_rate_overflow_for_tiny_indices_is_a_domain_error(capsys, tmp_path, index, value):
    # the product of the squared indices underflows to 0; the rate divides by it
    tiny = tmp_path / "tiny_index.cfg"
    text, n = re.subn(rf"(?m)^{index} .*$", f"{index} = {value}", FIG1.read_text())
    assert n == 1
    tiny.write_text(text)
    code, out, err = _run(capsys, ["rate", "--config", str(tiny)])
    assert code == 1 and out == ""
    assert err.startswith("error: triplet rate overflows the float range at n_p = ") and err.count("\n") == 1
    assert f"{index} = {float(value)!r}" in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_1", "1e-160"),  # the squared indices are subnormal, not 0
        ("ng_1", "1e308"),
        ("lambda_p", "1e-300"),
        ("n_1", "1e200"),  # n_1**2 raises where n_1 * n_1 gives inf
        ("chi3_eff", "1e200"),
        ("lambda_p", "1e-100"),
    ],
)
def test_a_field_that_breaks_the_rate_is_named(capsys, tmp_path, field, value):
    cfg = tmp_path / "broken.cfg"
    text, n = re.subn(rf"(?m)^{field} .*$", f"{field} = {value}", FIG1.read_text())
    assert n == 1
    cfg.write_text(text)
    code, out, err = _run(capsys, ["rate", "--config", str(cfg)])
    assert code == 1 and out == ""
    assert err.startswith("error: triplet rate overflows the float range at n_p = ") and err.count("\n") == 1
    assert f"{field} = {float(value)!r}" in err
    assert "(34," not in err and "sigma_p" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def test_rate_reference_configuration(capsys):
    code, out, _ = _run(capsys, ["rate", "--config", str(FUSED)])
    assert code == 0
    d = json.loads(out)
    assert 9.9 <= d["triplets_per_minute"] <= 10.1
    assert d["qpm_penalty"] == 1.0
    assert d["inputs"]["pump_power"] == 0.143
    code, out2, _ = _run(capsys, ["rate", "--config", str(FUSED), "--qpm-order", "2"])
    assert code == 0
    d2 = json.loads(out2)
    assert d2["qpm_penalty"] == pytest.approx(qpm_penalty(2), rel=1e-12)
    ratio = d2["triplets_per_second"] / d["triplets_per_second"]
    assert ratio == pytest.approx(qpm_penalty(2), rel=1e-12)


def test_simulate_writes_report_and_trees(capsys, tmp_path):
    prefix = tmp_path / "run.v1"
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "--sigma-u",
            "4",
            "--sigma-v",
            "1",
            "-n",
            "2000",
            "--threshold",
            "50",
            "--depth",
            "4",
            "--seed",
            "3",
            "--out",
            str(prefix),
        ],
    )
    assert code == 0
    assert "witness" in out
    report_path = tmp_path / "run.v1.json"
    pos_path = tmp_path / "run.v1_position.csv"
    mom_path = tmp_path / "run.v1_momentum.csv"
    for p in (report_path, pos_path, mom_path):
        assert p.exists()
    rep = EntanglementReport.from_json(report_path.read_text())
    assert report_path.read_text() == rep.to_json()  # ends in one newline, not two
    assert rep.inputs["sigma_u"] == 4.0
    assert rep.inputs["n_samples"] == 2000
    assert rep.inputs["threshold"] == 50
    assert rep.inputs["max_depth"] == 4
    assert rep.inputs["seed"] == 3
    total = 0
    for line in pos_path.read_text().splitlines():
        path, count = line.rsplit(",", 1)
        assert set(path) <= set("01234567")
        total += int(count)
    assert total == 2000 - rep.inputs["n_dropped_x"]


def test_simulate_is_deterministic(capsys, tmp_path):
    argv = [
        "simulate",
        "--sigma-u",
        "3",
        "--sigma-v",
        "1",
        "-n",
        "1500",
        "--depth",
        "4",
        "--seed",
        "9",
        "--out",
    ]
    _run(capsys, argv + [str(tmp_path / "a")])
    _run(capsys, argv + [str(tmp_path / "b")])
    for suffix in (".json", "_position.csv", "_momentum.csv"):
        left = (tmp_path / "a").parent / f"a{suffix}"
        right = (tmp_path / "b").parent / f"b{suffix}"
        assert left.read_bytes() == right.read_bytes()


def test_simulate_failed_write_leaves_no_files(capsys, tmp_path, monkeypatch):
    real_write = cli._atomic_write
    calls = []

    def failing_second_write(path, text):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        real_write(path, text)

    monkeypatch.setattr(cli, "_atomic_write", failing_second_write)
    prefix = tmp_path / "run"
    argv = ["simulate", "--sigma-u", "3", "--sigma-v", "1", "-n", "500", "--depth", "3"]
    code, _, err = _run(capsys, argv + ["--out", str(prefix)])
    assert code == 2 and "disk full" in err
    assert len(calls) == 2
    assert list(tmp_path.glob("run*")) == []


@pytest.mark.parametrize("make_parent", [False, True], ids=["missing", "a-file"])
def test_simulate_checks_the_out_directory_before_the_scan(capsys, tmp_path, monkeypatch, make_parent):
    parent = tmp_path / "parent"
    if make_parent:
        parent.write_text("")

    def no_scan(*args, **kwargs):
        raise AssertionError("scan_pair ran before the --out directory was checked")

    monkeypatch.setattr(cli, "scan_pair", no_scan)
    argv = ["simulate", "--sigma-u", "3", "--sigma-v", "1", "-n", "200000", "--out", str(parent / "run")]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(parent)!r}\n"
    assert list(tmp_path.iterdir()) == ([parent] if make_parent else [])


def test_atomic_write_removes_its_temp_file_on_a_failed_rename(capsys, tmp_path, monkeypatch):
    real_replace = os.replace
    targets = []

    def failing_second_replace(src, dst):
        targets.append(Path(dst).name)
        if len(targets) == 2:
            raise OSError("rename failed")
        real_replace(src, dst)

    # _atomic_write itself runs; only the rename of the second file fails
    monkeypatch.setattr(cli.os, "replace", failing_second_replace)
    argv = ["simulate", "--sigma-u", "3", "--sigma-v", "1", "-n", "500", "--depth", "3"]
    code, _, err = _run(capsys, argv + ["--out", str(tmp_path / "run")])
    assert code == 2 and err.startswith("error:") and "rename failed" in err
    assert targets == ["run_position.csv", "run_momentum.csv"]
    # no run_momentum.csv.* temp file, and the position CSV is removed
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing", ["position", "momentum"])
def test_simulate_failed_export_leaves_no_files_or_threads(capsys, tmp_path, monkeypatch, failing):
    real = scan.PartitionTree.record_bytes

    def record_bytes(tree):
        if tree.basis == failing:
            raise OSError(f"{failing} export failed")
        return real(tree)

    monkeypatch.setattr(scan.PartitionTree, "record_bytes", record_bytes)
    before = threading.active_count()
    argv = ["simulate", "--sigma-u", "3", "--sigma-v", "1", "-n", "500", "--depth", "3"]
    code, _, err = _run(capsys, argv + ["--out", str(tmp_path / "run")])
    assert code == 2 and f"{failing} export failed" in err
    assert list(tmp_path.glob("run*")) == []
    assert threading.active_count() == before


def test_a_request_larger_than_memory_is_a_domain_error(capsys, tmp_path):
    # 2**58 triplets ask for 1 EiB of cell codes, so the first allocation
    # fails, before any thread starts or any file is written
    before = threading.active_count()
    argv = ["simulate", "--sigma-u", "1", "--sigma-v", "1", "-n", str(2**58)]
    for out in ([], ["--out", str(tmp_path / "run")]):
        code, stdout, err = _run(capsys, argv + out)
        assert code == 1 and stdout == ""
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == before


# sha256 of `simulate --out` files.  A change to the scan, the collapse or
# the export must keep these bytes; one that moves them on purpose re-pins
# them and says why.
_PINNED_OUTPUTS = {
    ("--sigma-u", "100", "--sigma-v", "1", "-n", "20000", "--depth", "12", "--threshold", "16", "--seed", "0"): {
        ".json": "eebc0366d00d3f732777678480720bc818e0276771e854a7a9add56ebf0a24cc",
        "_position.csv": "a8cabe6dd833aaf9935decea475b55b4c9a9e5d2f67416c9402a1a4ec2565dfc",
        "_momentum.csv": "8f5e1a75c7a876bfb19fd7e18e46ff88cb94c9865fac6aabeafb84ae92d1baf3",
    },
    ("--sigma-u", "1", "--sigma-v", "1", "-n", "5000", "--depth", "20", "--threshold", "1"): {
        ".json": "71d5453e93655b767d87c42960ff2407d74b8cec1442404501c997e3aeda9b8d",
        "_position.csv": "8cbc41bbc7bfd1f724ce51c31a028cb3deb4ba292fbe7969d0bf1d706ef4dfd4",
        "_momentum.csv": "9e242a1327bbefe0cb6943541aa8c9b9dd987ed26fd8a8f6a8719b982b4dc0b4",
    },
    # int32 cell codes: the default depth 8, and depth 10, the deepest int32 tree
    ("--sigma-u", "100", "--sigma-v", "1", "-n", "20000"): {
        ".json": "254c06e3178af570bbd0922afd6057410a36cbaa42268a686190909a841b66a4",
        "_position.csv": "3d84b212568125f115d27d2cad3ff7ca115bd62c93fcc33f58d99324d24bf4d1",
        "_momentum.csv": "8f5e1a75c7a876bfb19fd7e18e46ff88cb94c9865fac6aabeafb84ae92d1baf3",
    },
    ("--sigma-u", "100", "--sigma-v", "1", "-n", "20000", "--depth", "10", "--threshold", "2"): {
        ".json": "0ad13e2a3e8b5243c793ff4b679c5fda0d8e8b8b87309ee283eb97f65ff2328f",
        "_position.csv": "ae33d7f2f48d53ad317d29ac14eefdd6006938b2883e8a0a170742d8f95bb861",
        "_momentum.csv": "fc8909ba5499c4f2abc9bf61036d6e356c390b3b89f1e2e612b506d907c3dc28",
    },
}


@pytest.mark.parametrize("args", list(_PINNED_OUTPUTS))
def test_simulate_out_bytes_are_pinned(capsys, tmp_path, args):
    code, _, _ = _run(capsys, ["simulate", *args, "--out", str(tmp_path / "run")])
    assert code == 0
    got = {
        suffix: hashlib.sha256((tmp_path / f"run{suffix}").read_bytes()).hexdigest()
        for suffix in _PINNED_OUTPUTS[args]
    }
    assert got == _PINNED_OUTPUTS[args]


# sha256 of the stdout of e3f and rate, and of the file sweep writes: the
# report's key order, the config field echo and the sweep rows.  The config
# path is given relative to the repository root, as rate echoes it.
_PINNED_COMMANDS = {
    ("e3f", "--sigma-u", "10", "--sigma-v", "1", "--json"): (
        "1d8f657cb45e400939d62750c86348614a26f3041b81d449f6fda0dc03390f3b"
    ),
    ("rate", "--config", "configs/fused_silica_516nm.cfg", "--qpm-order", "1"): (
        "55baf8f611dca21d996bbc3c8bd0cd99d410a6845662377464a8171d83e01a66"
    ),
    ("sweep", "--config", "configs/fig1_516nm.cfg", "--sigma-p-min", "1e-7", "--sigma-p-max", "1e-1", "--points", "200"): (
        "8a8f7257688eec0994bf6cb4ce63bfacaf7cd32524a7155b07e9333ccfae01d0"
    ),
}


@pytest.mark.parametrize("args", list(_PINNED_COMMANDS))
def test_command_output_bytes_are_pinned(capsys, tmp_path, monkeypatch, args):
    monkeypatch.chdir(CONFIGS.parent)
    csv_path = tmp_path / "sweep.csv"
    extra = ["--out", str(csv_path)] if args[0] == "sweep" else []
    code, out, _ = _run(capsys, [*args, *extra])
    assert code == 0
    data = csv_path.read_bytes() if extra else out.encode()
    assert hashlib.sha256(data).hexdigest() == _PINNED_COMMANDS[args]


def test_simulate_stdout_report(capsys):
    code, out, _ = _run(
        capsys,
        [
            "simulate",
            "--sigma-u",
            "2",
            "--sigma-v",
            "1",
            "-n",
            "1000",
            "--threshold",
            "100",
            "--depth",
            "3",
        ],
    )
    assert code == 0
    rep = EntanglementReport.from_json(out)
    # the report's own newline ends stdout; no blank line follows
    assert out == rep.to_json() and out.endswith("}\n")
    want = exact_e3f(TripleGaussianState(2.0, 1.0, 1.0))
    assert rep.exact_e3f_gebits == pytest.approx(want, rel=1e-12)


def test_simulate_asymmetric_state_reports_null_exact(capsys):
    argv = ["simulate", "--sigma-u", "2", "--sigma-v", "1", "--sigma-w", "1.5", "-n", "1000"]
    code, out, err = _run(capsys, argv)
    assert code == 0 and err == ""
    assert '"exact_e3f_gebits": null' in out
    assert EntanglementReport.from_json(out).exact_e3f_gebits is None


def test_simulate_from_config(capsys):
    code, out, _ = _run(
        capsys,
        ["simulate", "--config", str(FIG1), "-n", "2000", "--depth", "4"],
    )
    assert code == 0
    rep = EntanglementReport.from_json(out)
    # strong pump correlation: fitted state stretches along the symmetric axis
    assert rep.inputs["sigma_u"] > rep.inputs["sigma_v"]


@pytest.mark.parametrize(
    "argv",
    [
        ["rate", "--config", str(FUSED)],
        ["rate", "--config", str(FUSED), "--qpm-order", "3"],
        ["validate", "--dim", "2", "--trials", "50", "--seed", "1"],
        ["validate", "--dim", "4", "--trials", "50", "--seed", "1"],
    ],
)
def test_rate_and_validate_json_round_trips(capsys, argv):
    # the report's writer, shared: a parse and a re-serialization give the same bytes
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json_dumps(json.loads(out)) + "\n" == out


def test_validate_subcommand(capsys):
    for dim in (2, 4):  # the entanglement entropy in closed form, at d = 4 from the minors of m
        code, out, _ = _run(capsys, ["validate", "--dim", str(dim), "--trials", "50", "--seed", "1"])
        assert code == 0
        d = json.loads(out)
        assert d["max_violation"] <= 1e-9
        assert d["inputs"] == {"dim": dim, "trials": 50, "seed": 1}
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--dim", "17"])
    assert exc.value.code == 2


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = _run(capsys, ["rate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2 and "error:" in err
    bad = tmp_path / "partial.cfg"
    bad.write_text("lambda_p = 5.1667e-7\n")
    code, _, err = _run(capsys, ["rate", "--config", str(bad)])
    assert code == 2 and "missing keys" in err
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "simulate",
                "--config",
                str(FIG1),
                "--sigma-u",
                "2",
                "--sigma-v",
                "1",
                "-n",
                "100",
            ]
        )
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "-n", "100"])
    assert exc.value.code == 2
    for depth in ("0", str(MAX_TREE_DEPTH + 1)):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--sigma-u", "2", "--sigma-v", "1", "-n", "100", "--depth", depth])
        assert exc.value.code == 2
    code, _, err = _run(
        capsys,
        [
            "sweep",
            "--config",
            str(FIG1),
            "--sigma-p-min",
            "1e-5",
            "--sigma-p-max",
            "1e-4",
            "--out",
            str(tmp_path / "no_such_dir" / "x.csv"),
        ],
    )
    assert code == 2 and "error:" in err
    # the path given is named, not the temp file beside it
    assert repr(str(tmp_path / "no_such_dir" / "x.csv")) in err and "x.csv." not in err
    assert not (tmp_path / "no_such_dir").exists()
    # config errors: an undecodable file, an out-of-range value, a QPM order
    # beyond 2**53 from the file or from the flag
    undecodable = tmp_path / "latin1.cfg"
    undecodable.write_bytes(b"# \xff\n" + FUSED.read_bytes())
    sweep = ["--sigma-p-min", "1e-5", "--sigma-p-max", "1e-4", "--out", str(tmp_path / "x.csv")]
    for argv in (
        ["rate", "--config", str(undecodable)],
        ["sweep", "--config", str(undecodable), *sweep],
        ["simulate", "--config", str(undecodable), "-n", "100"],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 2 and "cannot read config" in err, argv
    negative = tmp_path / "negative.cfg"
    negative.write_text(FUSED.read_text().replace("L_z        = 0.1", "L_z        = -1"))
    code, _, err = _run(capsys, ["rate", "--config", str(negative)])
    assert code == 2 and "L_z must be positive and finite, got -1.0" in err
    huge = tmp_path / "huge_qpm.cfg"
    huge.write_text(FUSED.read_text() + "qpm_order = 1e300\n")
    for argv in (
        ["rate", "--config", str(huge)],
        ["rate", "--config", str(FUSED), "--qpm-order", "1" + "0" * 200],
    ):
        code, _, err = _run(capsys, argv)
        assert code == 2 and "qpm_order must be at most 2**53" in err
    # a negative seed is a usage error, not a domain error
    for argv in (
        ["simulate", "--sigma-u", "2", "--sigma-v", "1", "-n", "100", "--seed", "-1"],
        ["validate", "--trials", "2", "--seed", "-1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "must be >= 0: '-1'" in capsys.readouterr().err
    # pump widths whose squares overflow or underflow still give finite rows
    wide = ["--sigma-p-min", "1e-300", "--sigma-p-max", "1e300", "--points", "3"]
    code, _, err = _run(capsys, ["sweep", "--config", str(FIG1), *wide, "--out", str(tmp_path / "x.csv")])
    assert code == 0 and err == ""
    lines = (tmp_path / "x.csv").read_text().splitlines()[1:]
    rows = [[float(f) for f in line.split(",")] for line in lines]
    assert len(rows) == 3
    assert all(math.isfinite(wit) and math.isfinite(exact) and wit <= exact for _, wit, exact in rows)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["e3f", "--sigma-u", "abc", "--sigma-v", "1"], "not a number: 'abc'"),
        (["e3f", "--sigma-u", "nan", "--sigma-v", "1"], "must be a positive number: 'nan'"),
        (["e3f", "--sigma-u", "inf", "--sigma-v", "1"], "must be a positive number: 'inf'"),
        (["e3f", "--sigma-u", "-1", "--sigma-v", "1"], "must be a positive number: '-1'"),
        (["simulate", "--sigma-u", "2", "--sigma-v", "1", "-n", "1.5"], "not an integer: '1.5'"),
    ],
)
def test_bad_numbers_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_simulate_config_with_sigma_w_is_a_usage_error(capsys):
    # the config fixes every width, so a --sigma-w beside it would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(FIG1), "--sigma-w", "5", "-n", "100"])
    assert exc.value.code == 2
    assert "not both" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "triphoton" in capsys.readouterr().out
