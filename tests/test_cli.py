"""Command-line front end: schemas, exit codes, determinism."""

import csv
import io
import json
import math
import os

import pytest

from splithopf import cli
from splithopf.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_tables_schema(capsys):
    code, out, _ = run(capsys, "tables", "--algebra", "split-octonion")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert len(data["basis"]) == 8
    assert data["table"][1][3] == [{"coeff": -1, "basis_index": 2}]


def test_project_pole(capsys):
    code, out, _ = run(capsys, "project", "--level", "1", "--realization", "I",
                       "--spinor", "[[1,0],[0,0]]")
    assert code == 0
    data = json.loads(out)
    assert data["coords"] == [0, 0, 1]
    assert data["patch"] == "upper"


def test_project_level0(capsys):
    code, out, _ = run(capsys, "project", "--level", "0", "--spinor", "[0.75, 1.25]")
    assert code == 0
    assert json.loads(out)["coords"] == [1.875, 2.125]


def test_invert_roundtrip_through_json(capsys):
    code, out, _ = run(capsys, "invert", "--level", "2", "--realization", "II",
                       "--patch", "upper", "--point", "[0.3, 0.1, 0.2, 0.4, %r]"
                       % math.sqrt(1 + 0.09 + 0.01 - 0.04 - 0.16))
    assert code == 0
    data = json.loads(out)
    assert len(data["comps"]) == 4
    code, out, _ = run(capsys, "project", "--level", "2", "--realization", "II",
                       "--spinor", json.dumps(data["comps"]))
    assert code == 0
    back = json.loads(out)["coords"]
    assert abs(back[0] - 0.3) < 1e-12 and abs(back[3] - 0.4) < 1e-12


def test_invert_exact_on_integer_squares(capsys):
    # 2(1 + 17) = 36: the section is (18, 71 - 73 j) / 6 exactly, and JSON
    # carries each component's correctly rounded float
    code, out, _ = run(capsys, "invert", "--level", "1", "--realization", "I",
                       "--point", "[71, 73, 17]")
    assert code == 0
    assert json.loads(out)["comps"] == [[3.0, 0.0], [71 / 6, -73 / 6]]


def test_invert_level3_returns_section(capsys):
    code, out, _ = run(capsys, "invert", "--level", "3", "--realization", "I",
                       "--point", json.dumps([0.0] * 8 + [1.0]))
    assert code == 0
    data = json.loads(out)
    assert len(data["section"]) == 16 and len(data["section"][0]) == 8


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "project", "--level", "1", "--realization", "I",
                       "--spinor", "notjson")
    assert code == 2
    assert "usage error" in err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nosuch"])
    assert exc.value.code == 2


def test_domain_errors_exit_1(capsys):
    code, _, err = run(capsys, "invert", "--level", "1", "--realization", "I",
                       "--patch", "lower", "--point", "[0,0,1]")
    assert code == 1
    assert "patch" in err


@pytest.mark.parametrize("argv,target", [
    (["tables", "--algebra", "split-complex"], "missing/x.json"),
    (["sample-field", "--level", "1", "--realization", "I", "--grid", "x1=0:0.1:2"], "."),
], ids=["tables-missing-dir", "sample-field-directory"])
def test_unwritable_out_is_an_error(capsys, tmp_path, argv, target):
    # an --out that cannot be opened exits 1 with one error line, no
    # traceback and nothing on stdout
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / target))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_verify_algebra_pass_and_fault(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--seed", "7",
                       "--no-timestamp")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "pass"
    assert data["seed"] == 7
    assert all(c["identity"] is not None for c in data["suites"][0]["checks"])
    code, out, _ = run(capsys, "verify", "--suite", "gamma", "--inject-fault",
                       "--no-timestamp")
    assert code == 1
    data = json.loads(out)
    failing = [c["id"] for s in data["suites"] for c in s["checks"]
               if c["status"] == "fail"]
    assert any("so32_I" in f for f in failing)


@pytest.mark.parametrize("suite", ["hopf", "gauge", "super"])
def test_inject_fault_needs_a_fault_hook(capsys, suite):
    # only algebra and gamma take the corrupted fixture; elsewhere the flag
    # would be ignored and the run would pass
    code, out, err = run(capsys, "verify", "--suite", suite, "--inject-fault")
    assert code == 2
    assert out == ""
    assert "no fault hook" in err


def test_verify_deterministic_bytes(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["verify", "--suite", "algebra", "--seed", "3", "--no-timestamp",
                 "--out", str(a)]) == 0
    assert main(["verify", "--suite", "algebra", "--seed", "3", "--no-timestamp",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_report_keeps_its_indent(capsys):
    # reports are read by people: 2-space indent, one key per line
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--no-timestamp")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("HOPFCTL_SEED", "21")
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--no-timestamp")
    assert code == 0
    assert json.loads(out)["seed"] == 21


def test_sample_field_csv(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code = main(["sample-field", "--level", "1", "--realization", "I",
                 "--patch", "upper", "--grid", "x1=-0.5:0.5:3,x2=-0.4:0.4:3",
                 "--format", "csv", "--out", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["x1", "x2", "x3"]
    assert "A_1" in header and "F_12" in header
    assert lines[-1].startswith("# skipped=")
    for line in lines[1:-1]:
        assert "nan" not in line.lower()
    # values round-trip losslessly through the 17-digit format
    first = lines[1].split(",")
    assert float(first[2]) == math.sqrt(1 - 0.25 + 0.16)


def test_sample_field_json_skips_counted(capsys):
    # a grid reaching past the hyperboloid domain must count skipped points
    code, out, _ = run(capsys, "sample-field", "--level", "1", "--realization", "II",
                       "--patch", "upper", "--grid", "x1=0:0.5:2,x2=0:0.5:2",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["skipped"] == 0  # two-leaf case never lacks a solution
    code, out, _ = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                       "--patch", "upper", "--grid", "x1=0:3:2,x2=0:0.1:1",
                       "--format", "json")
    data = json.loads(out)
    assert data["skipped"] >= 1  # x1 = 3, x2 = 0.1 has no real x3


def test_sample_field_json_is_one_line(capsys, monkeypatch):
    # a JSON grid is bulk data: one line with the default separators, holding
    # the payload the indented layout would hold, and the values of the CSV
    # export of the same grid
    grid = ("sample-field", "--level", "2", "--realization", "I",
            "--grid", "x1=-0.5:0.5:2,x2=-0.5:1.1:3")
    sent = []
    emit = cli._emit

    def recorded(data, out, indent=2):
        sent.append(data)
        emit(data, out, indent)

    monkeypatch.setattr(cli, "_emit", recorded)
    code, out, _ = run(capsys, *grid, "--format", "json")
    assert code == 0
    [payload] = sent
    assert out == json.dumps(payload) + "\n"
    data = json.loads(out)
    assert data == json.loads(json.dumps(payload, indent=2)) == payload
    assert len(data["rows"]) == 6 and len(data["columns"]) == len(data["rows"][0])
    code, csv_out, _ = run(capsys, *grid, "--format", "csv")
    assert code == 0
    lines = csv_out.splitlines()
    assert lines[0].split(",") == data["columns"]
    assert [[float(v) for v in line.split(",")] for line in lines[1:-1]] == data["rows"]


@pytest.mark.parametrize("to_file", [False, True])
def test_sample_field_json_refuses_nan(capsys, monkeypatch, tmp_path, to_file):
    def nan_field(pt, patch=None):
        return ("A_1",), [float("nan")]

    monkeypatch.setattr(cli.gaugegeom, "field_components", nan_field)
    target = tmp_path / "grid.json"
    extra = ("--out", str(target)) if to_file else ()
    code, out, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                         "--grid", "x1=-0.5:0.5:2", "--format", "json", *extra)
    assert code == 1
    assert out == ""
    assert "non-finite" in err
    assert not target.exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "to_file"])
def test_sample_field_csv_refuses_nan(capsys, monkeypatch, tmp_path, to_file):
    # CSV fails on a non-finite value as JSON does: exit 1, nothing written
    for bad in ("nan", "inf", "-inf"):
        def bad_field(pt, patch=None):
            return ("A_1", "A_2"), [0.5, float(bad)]

        monkeypatch.setattr(cli.gaugegeom, "field_components", bad_field)
        target = tmp_path / "grid.csv"
        extra = ("--out", str(target)) if to_file else ()
        code, out, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                             "--grid", "x1=-0.5:0.5:2", "--format", "csv", *extra)
        assert code == 1, bad
        assert out == ""
        assert "non-finite" in err
        assert not target.exists()


# one grid per level; the level-1 and level-2 grids reach past the domain
CSV_GRIDS = [("1", "I", "upper", "x1=-0.5:3:3,x2=-0.4:0.4:2"),
             ("2", "I", "lower", "x1=-0.5:0.5:3,x2=-0.5:1.1:3"),
             ("3", "II", "upper", "x1=-0.4:0.4:2")]


@pytest.mark.parametrize("level,real,patch,grid", CSV_GRIDS)
def test_sample_field_csv_bytes(capsys, tmp_path, level, real, patch, grid):
    # the CSV export is byte for byte what csv.writer writes from the header,
    # each value as "%.17g" and the skipped footer, on stdout and with --out
    argv = ("sample-field", "--level", level, "--realization", real, "--patch", patch,
            "--grid", grid)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    data = json.loads(out)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(data["columns"])
    for row in data["rows"]:
        writer.writerow(["%.17g" % v for v in row])
    writer.writerow(["# skipped=%d" % data["skipped"]])
    assert data["rows"] and (data["skipped"] > 0) == (level != "3")
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == want.getvalue()
    target = tmp_path / "grid.csv"
    assert main(list(argv) + ["--format", "csv", "--out", str(target)]) == 0
    assert target.read_bytes() == want.getvalue().encode()


def test_sample_field_fails_closed_on_field_error(capsys, monkeypatch):
    # only a degenerate patch factor skips a node; any other error of the
    # field computation fails the grid before anything is written
    grid = ("sample-field", "--level", "2", "--realization", "I",
            "--grid", "x1=-0.5:0.5:2,x2=-0.5:0.5:2")

    def broken(pt, patch=None):
        raise ValueError("injected field error")

    monkeypatch.setattr(cli.gaugegeom, "field_components", broken)
    code, out, err = run(capsys, *grid)
    assert code == 1
    assert out == ""
    assert "injected field error" in err

    def degenerate(pt, patch=None):
        raise cli.hopfmaps.PatchError(patch, 0.0)

    monkeypatch.setattr(cli.gaugegeom, "field_components", degenerate)
    code, out, _ = run(capsys, *grid)
    assert code == 0
    assert out.splitlines()[-1] == "# skipped=4"


def test_grid_spec_errors(capsys):
    code, _, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                       "--grid", "bogus")
    assert code == 2
    code, _, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                       "--grid", "x3=0:1:2")
    assert code == 2  # the last coordinate is solved, not gridded


@pytest.mark.parametrize("grid", ["1=0:0.1:2", "x 1=0:0.1:2", "x+1=0:0.1:2", "xx1=0:0.1:2",
                                  "X1=0:0.1:2", "x01=0:0.1:2", "x0=0:0.1:2", "x1 =0:0.1:2",
                                  "x1=0:0.1:2,x1=0:0.2:3", "x1=0:0.1:2,x2=0:1:2,x1=0:0.1:2",
                                  "x1=0:0.1:1_0", "x1= 0 :0.1: 2 ", "x1=0 :0.1:2",
                                  "x1=1_0.5:1:2", "x1=0:0.1:+2", "x1=0:0.1:2.0", "x1=0:1:1e1",
                                  "x1=0x1:1:2", "x1=.:1:2", "x1=1e:1:2", "x1=--1:1:2",
                                  "x1=0:1:\u0663", "x1=\u0661:2:2", "x1=0:1:"])
@pytest.mark.parametrize("to_file", [False, True])
def test_grid_axis_names(capsys, monkeypatch, tmp_path, grid, to_file):
    # an axis is x followed by a positive decimal integer, named once; its
    # bounds are plain decimal or exponent literals and its step count a
    # decimal integer: no blanks, underscores, signed counts or non-ASCII
    # digits, which float() and int() would accept
    def walked(*a, **k):
        raise AssertionError("a malformed grid was walked")

    monkeypatch.setattr(cli.gaugegeom, "field_components", walked)
    target = tmp_path / "grid.csv"
    extra = ("--out", str(target)) if to_file else ()
    code, out, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                         "--grid", grid, *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: grid: ")
    assert not target.exists()


@pytest.mark.parametrize("text,value", [("-0.412", -0.412), ("1.1", 1.1), ("8", 8.0),
                                        (".5", 0.5), ("5.", 5.0), ("+1E2", 100.0),
                                        ("1e-3", 0.001), ("-0", 0.0)])
def test_grid_bound_literals(text, value):
    axes = cli._parse_grid("x1=%s:%s:8, x2=0:1:12" % (text, text))
    assert axes == {1: (value, value, 8), 2: (0.0, 1.0, 12)}


def test_grid_axes_in_any_order(capsys):
    code, out, _ = run(capsys, "sample-field", "--level", "2", "--realization", "I",
                       "--grid", "x2=-0.4:0.4:2,x1=-0.5:0.5:3")
    assert code == 0
    code, want, _ = run(capsys, "sample-field", "--level", "2", "--realization", "I",
                        "--grid", "x1=-0.5:0.5:3,x2=-0.4:0.4:2")
    assert out == want


@pytest.mark.parametrize("value", ["abc", "1.5", "0x10", "seven"])
def test_malformed_seed_env_is_a_usage_error(capsys, monkeypatch, value):
    def ran(*a, **k):
        raise AssertionError("a suite ran")

    monkeypatch.setenv("HOPFCTL_SEED", value)
    # --seed takes precedence and never reads the variable
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--seed", "3", "--no-timestamp")
    assert code == 0 and json.loads(out)["seed"] == 3
    monkeypatch.setattr(cli.reporting, "run_suite", ran)
    code, out, err = run(capsys, "verify", "--suite", "algebra")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: HOPFCTL_SEED")


def test_tolerance_override(capsys):
    # an absurdly tight override flips residual-carrying checks to failure
    code, out, _ = run(capsys, "verify", "--suite", "hopf", "--no-timestamp",
                       "--tolerance", "constraint-=1e-30")
    assert code == 1
    data = json.loads(out)
    failing = [c for s in data["suites"] for c in s["checks"]
               if c["status"] == "fail"]
    assert failing and all(c["tolerance"] == 1e-30 for c in failing)
    code, _, err = run(capsys, "verify", "--suite", "algebra", "--tolerance", "bogus")
    assert code == 2


def test_tolerance_override_keeps_exact_conditions(capsys, monkeypatch):
    # a super-connection check whose exact odd residual is 1 fails with its
    # default tolerance given explicitly as well as without it
    from splithopf import superhopf
    real_check = superhopf.super_connection_check

    def broken(*args, **kw):
        return dict(real_check(*args, **kw), odd=1.0)

    monkeypatch.setattr(superhopf, "super_connection_check", broken)
    for extra in ((), ("--tolerance", "super-connection=1e-6")):
        code, out, _ = run(capsys, "verify", "--suite", "super", "--no-timestamp", *extra)
        assert code == 1
        status = {c["id"]: c["status"] for s in json.loads(out)["suites"] for c in s["checks"]}
        assert status["super-connection-I"] == status["super-connection-II"] == "fail"
        assert status["super-gluing"] == "pass"


def test_tolerance_prefix_matching_nothing_is_a_usage_error(capsys, tmp_path):
    # a prefix no residual-carrying check starts with, a typo or a check
    # with no residual (the algebra suite has none), writes nothing
    path = tmp_path / "report.json"
    for suite, specs in (("algebra", ["nomatch-=1e-3"]), ("algebra", ["octonion-=1e-3"]),
                         ("hopf", ["constraint-=1e-3", "nomatch=1"])):
        argv = [x for spec in specs for x in ("--tolerance", spec)]
        code, out, err = run(capsys, "verify", "--suite", suite, *argv, "--out", str(path))
        assert (code, out) == (2, "") and not path.exists()
        assert err.startswith("usage error:") and repr(specs[-1].split("=")[0]) in err
        assert "constraint-" not in err


def test_non_finite_output_fails(capsys, monkeypatch):
    import splithopf.cli as cli
    monkeypatch.setattr(cli, "multiplication_table", lambda name: {"x": float("nan")})
    code, out, err = run(capsys, "tables", "--algebra", "split-complex")
    assert code == 1
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ("invert", "--level", "1", "--point", "[NaN,0,1]"),
    ("invert", "--level", "1", "--point", "[0,0,Infinity]"),
    ("invert", "--level", "1", "--point", "[1e999,0,1]"),
    ("invert", "--level", "0", "--point", "[-Infinity,1]"),
    ("project", "--level", "1", "--spinor", "[[NaN,0],[0,0]]"),
    ("project", "--level", "0", "--spinor", "[0,Infinity]"),
])
def test_non_finite_input_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ("project", "--level", "1", "--spinor", "[true,[0,0]]"),
    ("project", "--level", "1", "--spinor", "[[1,0,5],[0,0]]"),
    ("project", "--level", "1", "--spinor", '["a",[0,0]]'),
    ("project", "--level", "1", "--spinor", "[[[1],0],[0,0]]"),
    ("project", "--level", "1", "--spinor", "[[1,null],[0,0]]"),
    ("project", "--level", "1", "--spinor", "5"),
    ("project", "--level", "3", "--realization", "II", "--spinor", "[[1,0]" + ",0" * 15 + "]"),
    ("project", "--level", "0", "--spinor", "[1,2,3]"),
    ("project", "--level", "0", "--spinor", "[true,1]"),
    ("invert", "--level", "1", "--point", "[true,0,1]"),
    ("invert", "--level", "1", "--point", '[0,0,"1"]'),
    ("invert", "--level", "0", "--point", "[0,1,2]"),
    ("invert", "--level", "1", "--point", "[0,0,1]", "--fiber", "[1,0,0]"),
    ("invert", "--level", "2", "--point", "[0,0,0,0,1]", "--fiber", "[[1,0],false]"),
    ("invert", "--level", "2", "--point", "[0,0,0,0,1]", "--fiber", '{"re":1}'),
    # payloads of the wrong length: spinor_dim, base_dim and the fiber's length
    ("project", "--level", "1", "--spinor", "[[1,0]]"),
    ("project", "--level", "2", "--realization", "II", "--spinor", "[[1,0],[0,0],[0,0]]"),
    ("project", "--level", "3", "--realization", "II", "--spinor", "[1" + ",0" * 16 + "]"),
    ("invert", "--level", "1", "--point", "[0,1]"),
    ("invert", "--level", "2", "--point", "[0,0,0,0,0,1]"),
    ("invert", "--level", "2", "--point", "[0,0,0,0,1]", "--fiber", "[[1,0]]"),
    ("invert", "--level", "3", "--realization", "II", "--point", "[0,0,0,0,0,0,0,0,1]",
     "--fiber", "[1]"),
    ("invert", "--level", "3", "--point", "[0,0,0,0,0,0,0,0,1]", "--fiber",
     "[[1,0]" + ",[0,0]" * 8 + "]"),
])
def test_malformed_payloads_are_usage_errors(capsys, tmp_path, argv):
    """A bool, string, null or nested array where a number belongs, a pair
    that is not [re, im] and a payload of the wrong length are refused as
    usage errors before anything is computed or written."""
    out_file = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert not out_file.exists()


@pytest.mark.parametrize("grid", ["x1=0:1:0", "x1=0:1:-2", "x1=nan:1:3", "x1=0:inf:3"])
def test_grid_rejects_empty_or_non_finite(capsys, grid):
    code, out, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                         "--grid", grid)
    assert code == 2
    assert out == ""
    assert "usage error" in err


def test_grid_node_cap(capsys, monkeypatch):
    def walked(*a, **k):
        raise AssertionError("an over-cap grid was walked")

    monkeypatch.setattr(cli.gaugegeom, "field_components", walked)
    code, out, err = run(capsys, "sample-field", "--level", "1", "--realization", "I",
                         "--grid", "x1=-0.5:0.5:1000,x2=-0.5:0.5:1000")
    assert code == 2
    assert out == ""
    assert "more than the %d allowed" % cli.MAX_GRID_NODES in err
    # the product of the steps is checked while parsing, before any node
    # list exists; the cap sits far above the benchmark's 256-node grids
    cap = cli.MAX_GRID_NODES
    assert cap >= 100 * 256
    assert cli._parse_grid("x1=0:1:%d" % cap)[1][2] == cap
    with pytest.raises(cli.UsageError):
        cli._parse_grid("x1=0:1:%d,x2=0:1:2" % cap)
    with pytest.raises(cli.UsageError):
        cli._parse_grid("x1=0:1:%d,x2=0:1:%d" % (10 ** 9, 10 ** 9))


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999", "-1e-9"])
def test_tolerance_refuses_non_finite_and_negative(capsys, monkeypatch, value):
    # refused as a usage error before any suite runs: a NaN tolerance would
    # pass every residual and an infinite one would fail only at output
    def no_suite(*args, **kw):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(cli.reporting, "run_suite", no_suite)
    code, out, err = run(capsys, "verify", "--suite", "hopf",
                         "--tolerance", "constraint-=" + value)
    assert code == 2
    assert out == ""
    assert "tolerance" in err


def test_main_calls_share_no_options(capsys, monkeypatch, tmp_path):
    # main parses every call with one parser: the --tolerance values of a
    # call are not appended to the next call's, and a call's --out is not
    # carried into the next
    def suite(name, seed=0, corrupt=False):
        checks = [cli.reporting.CheckReport(cid, residual=0.5, tolerance=1.0)
                  for cid in ("a-1", "b-1", "c-1")]
        return cli.reporting.VerifyReport(name, checks, seed, 0.0)

    def tolerances(text):
        return {c["id"]: c["tolerance"] for s in json.loads(text)["suites"] for c in s["checks"]}

    monkeypatch.setattr(cli.reporting, "run_suite", suite)
    path = tmp_path / "first.json"
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--no-timestamp",
                       "--tolerance", "a-=0.1", "--tolerance", "c-=2", "--out", str(path))
    assert code == 1 and out == ""
    assert tolerances(path.read_text()) == {"a-1": 0.1, "b-1": 1.0, "c-1": 2.0}
    for argv in (("--tolerance", "b-=0.25"), ("--tolerance", "b-=0.25")):
        code, out, _ = run(capsys, "verify", "--suite", "algebra", "--no-timestamp", *argv)
        assert code == 1
        assert tolerances(out) == {"a-1": 1.0, "b-1": 0.25, "c-1": 1.0}
    code, out, _ = run(capsys, "verify", "--suite", "algebra", "--no-timestamp")
    assert code == 0 and tolerances(out) == {"a-1": 1.0, "b-1": 1.0, "c-1": 1.0}
    assert cli.build_parser() is not cli.build_parser()


def test_constraint_checks_report_a_projection_error(capsys, monkeypatch):
    # a projection off by 1e-6 makes hopfmaps.project raise ConstraintError;
    # the constraint checks fail with its message and the report is written
    from fractions import Fraction
    import types
    from splithopf import hopfmaps, reporting

    real_value, drawn = hopfmaps._scalar_value, {}

    def shifted(x, where):
        v = real_value(x, where)
        if where != "projection":
            return v
        return v + (Fraction(1, 10 ** 6) if isinstance(v, Fraction) else 1e-6)

    def sample_normalized(*args, **kw):
        sp = hopfmaps.sample_normalized(*args, **kw)
        drawn[id(sp)] = sp  # kept alive, so that no later spinor takes its id
        return sp

    def project(spinor):
        if id(spinor) not in drawn:
            return hopfmaps.project(spinor)
        with monkeypatch.context() as m:
            m.setattr(hopfmaps, "_scalar_value", shifted)
            return hopfmaps.project(spinor)

    # only the suite's own draws are shifted; the round trips, which project
    # inverted points, and the library's inner calls are left alone
    proxy = types.SimpleNamespace(**vars(hopfmaps))
    proxy.sample_normalized, proxy.project = sample_normalized, project
    monkeypatch.setattr(reporting, "hopfmaps", proxy)
    code, out, _ = run(capsys, "verify", "--suite", "hopf", "--no-timestamp")
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["suites"][0]["checks"]}
    constraint = [i for i in checks if i.startswith("constraint-")]
    assert len(constraint) == 12
    for i, c in checks.items():
        if i in constraint:
            assert c["status"] == "fail"
            assert "left the hyperboloid" in c["detail"]
        else:
            assert c["status"] == "pass"


def test_hopf_suite_reports_every_projection_error(capsys, monkeypatch):
    # every projection shifted by 1e-6, also those inside sample_base_point,
    # the round trips and the fiber hierarchy: each check that projects fails
    # with the error as its detail, and the report is still written
    from fractions import Fraction
    from splithopf import hopfmaps

    real_value = hopfmaps._scalar_value

    def shifted(x, where):
        v = real_value(x, where)
        if where != "projection":
            return v
        return v + (Fraction(1, 10 ** 6) if isinstance(v, Fraction) else 1e-6)

    monkeypatch.setattr(hopfmaps, "_scalar_value", shifted)
    code, out, _ = run(capsys, "verify", "--suite", "hopf", "--no-timestamp")
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["suites"][0]["checks"]}
    projecting = [i for i in checks if i.startswith(("constraint-", "roundtrip-", "fiber-level"))]
    assert len(projecting) == 12 + 12 + 4
    for i, c in checks.items():
        if i in projecting:
            assert c["status"] == "fail", i
            assert "left the hyperboloid" in c["detail"], i
        else:
            assert c["status"] == "pass", i
