"""End-to-end command-line runs: exit codes, files, determinism."""

import errno
import inspect
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pconfig import analysis, conjugacy, families
from pconfig.cli import _build_parser, main

README = Path(__file__).parents[1] / "README.md"


@pytest.fixture
def quad_config(tmp_path):
    p = tmp_path / "quad.json"
    p.write_text(json.dumps({"family": "quadratic", "c": 0.2}))
    return p


@pytest.fixture
def std_config(tmp_path):
    p = tmp_path / "std.json"
    p.write_text(json.dumps({"family": "standard"}))
    return p


def run(args):
    return main([str(a) for a in args])


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_standard_exits_zero(std_config, tmp_path):
    out = tmp_path / "out"
    assert run(["validate", "--config", std_config, "--out", out]) == 0
    report = json.loads((out / "validation.json").read_text())
    assert report["classification"] == "regular"


def test_validate_invalid_family_exits_one(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"family": "quadratic", "c": 0.3}))
    assert run(["validate", "--config", cfg, "--out", tmp_path]) == 1


def test_validate_missing_file_exits_two(tmp_path):
    assert run(["validate", "--config", tmp_path / "nope.json"]) == 2


def test_validate_malformed_json_exits_two(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    assert run(["validate", "--config", cfg]) == 2


def test_validate_unknown_family_exits_two(tmp_path):
    cfg = tmp_path / "mystery.json"
    cfg.write_text(json.dumps({"family": "cubic"}))
    assert run(["validate", "--config", cfg]) == 2


def test_validate_deep_descriptor_exits_two(tmp_path, capsys):
    # nesting deeper than the JSON parser recurses
    cfg = tmp_path / "deep.json"
    cfg.write_text("[" * 100000)
    assert run(["validate", "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: descriptor is not valid JSON: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", [
    '{"family": "perturbed_flat", "n": 1%s}',
    '{"family": "quadratic", "c": 1%s}',
    '{"family": "polynomial", "delta1": [0.5, 1%s]}',
])
def test_validate_integer_beyond_float_exits_two(spec, tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(spec % ("0" * 400))
    assert run(["validate", "--config", cfg, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    # n is refused by its range, c and a coefficient as floats
    assert ("n must be >= 1 and <= 51, got an integer of 1329 bits"
            if "perturbed_flat" in spec else "too large for a float") in err


# ---------------------------------------------------------------------------
# conjugate
# ---------------------------------------------------------------------------


def test_conjugate_writes_solution_and_log(quad_config, tmp_path):
    out = tmp_path / "out"
    code = run(["conjugate", "--config", quad_config, "--grid", 1025,
                "--out", out])
    assert code == 0
    log = json.loads((out / "convergence.json").read_text())
    assert set(log) == {"residual", "grid", "max_local_variation"}
    assert log["grid"] == 1025
    assert log["max_local_variation"] == 2.0 ** -9
    assert 0.0 <= log["residual"] <= 1e-9
    assert (out / "h.csv").read_text().startswith("t,value\n")
    assert (out / "h.gp").exists()


def test_conjugate_byte_deterministic(quad_config, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["conjugate", "--config", quad_config, "--grid", 1025,
                    "--out", out]) == 0
    assert (a / "h.csv").read_bytes() == (b / "h.csv").read_bytes()
    assert (a / "convergence.json").read_bytes() == \
        (b / "convergence.json").read_bytes()


def test_conjugate_to_explicit_target(quad_config, tmp_path, monkeypatch):
    # one library call builds the map the command writes
    conjugate = conjugacy.conjugate
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return conjugate(*args, **kwargs)

    monkeypatch.setattr(conjugacy, "conjugate", spy)
    code = run(["conjugate", "--config", quad_config, "--grid", 1025,
                "--target", "quadratic:-0.2", "--out", tmp_path])
    assert code == 0
    assert len(calls) == 1


def test_conjugate_standard_to_itself_is_identity(std_config, tmp_path):
    from pconfig import funcspace
    assert run(["conjugate", "--config", std_config, "--grid", 1025,
                "--target", "standard", "--out", tmp_path]) == 0
    h = funcspace.from_csv((tmp_path / "h.csv").read_text())
    assert np.max(np.abs(h.values - h.nodes)) <= 1e-12


@pytest.mark.parametrize("args, code, message", [
    # a pair that check_pair refuses is a result, exit 1
    (["--config", "{c03}"], 1, "delta1 is decreasing somewhere"),
    (["--config", "{quad}", "--target", "quadratic:0.3"], 1,
     "delta1 is decreasing somewhere"),
    (["--config", "{nan}"], 2, "quadratic: c must be finite, got nan"),
    (["--config", "{quad}", "--target", "quadratic:nan"], 2,
     "quadratic: c must be finite, got nan"),
    (["--config", "{std_c}"], 2,
     "standard: standard_pair() got an unexpected keyword argument 'c'"),
    (["--config", "{poly_nan}"], 2,
     "polynomial: delta1[2] must be finite, got nan"),
    (["--config", "{poly_inf}"], 2,
     "polynomial: delta1[2] must be finite, got inf"),
    # --target reads c by float(), as --t0 is read
    (["--config", "{quad}", "--target", "quadratic:abc"], 2,
     "--target expects quadratic:<c>, got 'quadratic:abc'"),
])
def test_conjugate_bad_pair_names_the_fault(args, code, message, quad_config,
                                            tmp_path, capsys):
    configs = {"c03": {"family": "quadratic", "c": 0.3},
               "std_c": {"family": "standard", "c": 1},
               # written with the JSON literals NaN and Infinity, which
               # json reads back as floats
               "nan": {"family": "quadratic", "c": float("nan")},
               "poly_nan": {"family": "polynomial",
                            "delta1": [0.5, 0.5, float("nan")]},
               "poly_inf": {"family": "polynomial",
                            "delta1": [0.5, 0.5, float("inf")]}}
    for name, descriptor in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(descriptor))
    paths = {name: tmp_path / f"{name}.json" for name in configs}
    args = [a.format(quad=quad_config, **paths) for a in args]
    out = tmp_path / "out"
    assert run(["conjugate", *args, "--grid", 1025, "--out", out]) == code
    assert capsys.readouterr().err == f"error: {message}\n"
    # no file written; a pair refused on loading leaves no directory either
    assert not list(out.glob("*"))


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "{bad}"],
    ["conjugate", "--config", "{bad}"],
    ["conjugate", "--config", "{quad}", "--target", "{bad}"],
    ["solve-fe", "--config", "{bad}"],
    ["probe", "--config", "{bad}"],
    ["probe", "--h-csv", "{missing}"],
    ["nonregular", "--n", "2", "--k", "2"],
    # refused after the inputs load: a scale below the grid and a cell
    # without an interior float
    ["probe", "--h-csv", "{coarse}", "--scales", "8:13"],
    ["nonregular", "--n", "52"],
    # refused by the library's argument checks: a grid no memory holds,
    # an endpoint that is neither -1 nor 1, one scale, and scales below
    # the smallest double
    ["validate", "--config", "{quad}", "--grid", "100000000000000"],
    ["conjugate", "--config", "{quad}", "--grid", "100000000000000"],
    ["solve-fe", "--config", "{quad}", "--grid", "100000000000000"],
    ["probe", "--config", "{quad}", "--grid", "100000000000000"],
    ["nonregular", "--grid", "100000000000000"],
    ["probe", "--h-csv", "{coarse}", "--scales", "2:4", "--t0", "0.5"],
    ["probe", "--h-csv", "{coarse}", "--scales", "3:3"],
    ["probe", "--h-csv", "{coarse}", "--scales", "1:10000000000"],
    # refused by the command line itself: no descriptor, and scales that
    # are not two integers
    ["validate"],
    ["probe", "--h-csv", "{coarse}", "--scales", "4-10"],
    ["probe", "--h-csv", "{coarse}", "--scales", "a:b"],
], ids=["validate", "conjugate", "conjugate-target", "solve-fe", "probe",
        "probe-h-csv", "nonregular", "probe-scales",
        "nonregular-n52", "validate-huge-grid", "conjugate-huge-grid",
        "solve-fe-huge-grid", "probe-huge-grid", "nonregular-huge-grid",
        "probe-t0", "probe-one-scale", "probe-huge-scales",
        "validate-no-config", "probe-scales-dash", "probe-scales-text"])
def test_refused_input_leaves_no_output_directory(argv, quad_config,
                                                  tmp_path, capsys,
                                                  address_space_cap):
    from pconfig import funcspace
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"family": "quadratic", "c": "nan"}))
    coarse = tmp_path / "coarse.csv"
    coarse.write_text(funcspace.to_csv(funcspace.identity(257)))
    argv = [a.format(bad=bad, quad=quad_config, coarse=coarse,
                     missing=tmp_path / "missing.csv") for a in argv]
    out = tmp_path / "fresh" / "out"
    # a --grid in argv comes later and wins
    assert run([argv[0], "--grid", 1025, *argv[1:], "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "fresh").exists()


@pytest.mark.parametrize("argv, path", [
    (["validate", "--config", "{missing}"], "{missing}"),
    (["validate", "--config", "{folder}"], "{folder}"),
    (["validate", "--config", "{latin1}"], "{latin1}"),
    (["conjugate", "--config", "{quad}", "--target", "{folder}"], "{folder}"),
    (["probe", "--h-csv", "{folder}"], "{folder}"),
    (["probe", "--h-csv", "{latin1}"], "{latin1}"),
    (["validate", "--config", "{quad}", "--out", "{file}"], "{file}"),
    (["validate", "--config", "{quad}", "--out", "{file}/out"], "{file}/out"),
], ids=["config-missing", "config-folder", "config-not-utf8",
        "target-folder", "h-csv-folder", "h-csv-not-utf8", "out-is-file",
        "out-under-file"])
def test_path_fault_exits_two_naming_the_path(argv, path, quad_config,
                                              tmp_path, capsys):
    paths = {"missing": tmp_path / "missing.json",
             "folder": tmp_path / "folder",
             "latin1": tmp_path / "latin1.txt",
             "file": tmp_path / "file",
             "quad": quad_config}
    paths["folder"].mkdir()
    paths["latin1"].write_bytes(b"t,value\n-1,-1\n\xe9\n1,1\n")
    paths["file"].write_text("")
    argv = [a.format(**paths) for a in argv]
    if "--out" not in argv:
        argv += ["--out", tmp_path / "fresh"]
    assert run([*argv, "--grid", 1025]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert path.format(**paths) in err
    assert not (tmp_path / "fresh").exists()


def test_failed_rename_exits_two_and_leaves_no_temp_file(std_config,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    def refuse(src, dst):
        raise OSError(errno.EACCES, "Permission denied")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "out"
    assert run(["validate", "--config", std_config, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"error: cannot write to output directory {out}: Permission denied\n")
    assert not list(out.iterdir())


# ---------------------------------------------------------------------------
# solve-fe
# ---------------------------------------------------------------------------


def test_solve_fe_quadratic(quad_config, tmp_path):
    out = tmp_path / "out"
    assert run(["solve-fe", "--config", quad_config, "--grid", 1025,
                "--out", out]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["nonlinearity_gap"] >= 0.19
    assert (out / "solution.csv").exists()


def test_solve_fe_standard_uses_default_switch(std_config, tmp_path):
    out = tmp_path / "out"
    assert run(["solve-fe", "--config", std_config, "--grid", 1025,
                "--out", out]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["target"] == {"family": "quadratic", "c": 0.2}
    assert cert["nonlinearity_gap"] > 0.0


def test_solve_fe_degenerate_exits_one(std_config, tmp_path):
    code = run(["solve-fe", "--config", std_config, "--grid", 1025,
                "--target", "standard", "--out", tmp_path])
    assert code == 1
    cert = json.loads((tmp_path / "certificate.json").read_text())
    assert cert["degenerate"] is True
    assert cert["nonlinearity_gap"] == 0.0


@pytest.mark.parametrize("argv, message", [
    (["--config", "{c03}"], "delta1 is decreasing somewhere"),
    (["--config", "{quad}", "--target", "{quasi}"],
     "target is not additive: delta1 + delta2 != t"),
], ids=["invalid-source", "quasi-target"])
def test_solve_fe_refused_pair_exits_one(argv, message, quad_config,
                                         tmp_path, capsys):
    c03 = tmp_path / "c03.json"
    c03.write_text(json.dumps({"family": "quadratic", "c": 0.3}))
    quasi = tmp_path / "quasi.json"
    quasi.write_text(json.dumps({"family": "polynomial",
                                 "delta1": [0.45, 0.5, 0.05],
                                 "delta2": [-0.55, 0.5, 0.05]}))
    argv = [a.format(c03=c03, quad=quad_config, quasi=quasi) for a in argv]
    out = tmp_path / "out"
    assert run(["solve-fe", *argv, "--grid", 1025, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["conjugate", "--config", "{pair}"],
    ["conjugate", "--config", "{quad}", "--target", "{pair}"],
    ["probe", "--config", "{pair}"],
    ["solve-fe", "--config", "{pair}"],
], ids=["conjugate", "conjugate-target", "probe", "solve-fe"])
@pytest.mark.parametrize("descriptor, message", [
    # branches that increase, but delta1(-1) = -0.01
    ({"family": "polynomial", "delta1": [0.5, 0.5, -0.01]},
     "pair classifies as 'invalid': boundary pattern fails"),
    ({"family": "quadratic", "c": 0.3}, "delta1 is decreasing somewhere"),
], ids=["bad-boundary", "quadratic(0.3)"])
def test_every_solving_command_refuses_an_invalid_pair(
        argv, descriptor, message, quad_config, tmp_path, capsys):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(descriptor))
    argv = [a.format(pair=pair, quad=quad_config) for a in argv]
    out = tmp_path / "fresh" / "out"
    assert run([*argv, "--grid", 1025, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "fresh").exists()


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------


def test_probe_inline_solution(quad_config, tmp_path):
    out = tmp_path / "out"
    code = run(["probe", "--config", quad_config, "--grid", 4097,
                "--scales", "4:8", "--out", out])
    assert code == 0
    probe = json.loads((out / "probe.json").read_text())
    assert len(probe["quotients"]) == 5
    assert (out / "probe.csv").read_text().startswith("k,step,quotient,ratio")


def test_probe_existing_csv_and_scale_mismatch(tmp_path):
    from pconfig import funcspace
    coarse = funcspace.identity(257)
    csv_path = tmp_path / "h.csv"
    csv_path.write_text(funcspace.to_csv(coarse))
    code = run(["probe", "--h-csv", csv_path, "--scales", "8:13",
                "--out", tmp_path])
    assert code == 2
    code = run(["probe", "--h-csv", csv_path, "--scales", "2:5",
                "--out", tmp_path])
    assert code == 0
    code = run(["probe", "--h-csv", csv_path, "--scales", "3:3",
                "--out", tmp_path])
    assert code == 2


def test_probe_json_is_strict_json_when_h_is_flat_at_t0(tmp_path, capsys):
    # h = min(t, 0.99) is flat near 1, so the fine quotients are 0 and the
    # fitted exponent NaN: probe.json holds null, stdout still reads nan
    from pconfig import funcspace
    t = np.linspace(-1.0, 1.0, 4097)
    csv_path = tmp_path / "h.csv"
    csv_path.write_text(funcspace.to_csv(
        funcspace.MonotoneFunction(t, np.minimum(t, 0.99))))
    out = tmp_path / "out"
    assert run(["probe", "--h-csv", csv_path, "--out", out]) == 0
    assert capsys.readouterr().out == "holder_exponent: nan\n"

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    probe = json.loads((out / "probe.json").read_text(),
                       parse_constant=refuse)
    assert probe["holder_exponent"] is None
    assert probe["quotients"][-1] == 0.0


@pytest.mark.parametrize("probe_args", [["--t0", "0.5"], ["--scales", "9:8"]],
                         ids=["t0", "scales"])
def test_probe_config_refuses_before_solving(probe_args, quad_config,
                                             tmp_path, capsys, monkeypatch):
    def solve(*args, **kwargs):
        raise AssertionError("solved before refusing the probe")

    monkeypatch.setattr(conjugacy, "conjugate_to_standard", solve)
    out = tmp_path / "out"
    assert run(["probe", "--config", quad_config, *probe_args,
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_probe_rejects_csv_with_infinite_slope(tmp_path, capsys):
    # the slope 0.992 / 2.2e-311 overflows; the nodes from 0.5 up resolve
    # the probed scales, so only that slope makes the file unusable
    nodes = [-1.0, 0.0, 2.2e-311, *np.linspace(0.5, 1.0, 33).tolist()]
    values = [-1.0, 3.96e-3, 0.996, *np.linspace(0.997, 1.0, 33).tolist()]
    csv_path = tmp_path / "h.csv"
    csv_path.write_text("t,value\n" + "".join(
        f"{t:.17g},{v:.17g}\n" for t, v in zip(nodes, values)))
    assert run(["probe", "--h-csv", csv_path, "--scales", "2:4",
                "--out", tmp_path]) == 2
    # the file is in the form to_csv writes: the slope check refuses it
    err = capsys.readouterr().err
    assert "slope between adjacent nodes is not finite" in err


def test_probe_refuses_crlf_copy_of_h_csv(tmp_path, capsys):
    from pconfig import funcspace
    csv_path = tmp_path / "h.csv"
    text = funcspace.to_csv(funcspace.identity(257))
    csv_path.write_bytes(text.replace("\n", "\r\n").encode())
    out = tmp_path / "out"
    assert run(["probe", "--h-csv", csv_path, "--scales", "2:4",
                "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (out / "probe.json").exists()


# the last three are in to_csv's characters, so only the number parser
# refuses them
@pytest.mark.parametrize("row", ["abc,0", "1", "0,0,7", "1..2,0", "0,1e",
                                 "--1,0"])
def test_probe_rejects_malformed_csv_row(row, tmp_path, capsys):
    csv_path = tmp_path / "h.csv"
    csv_path.write_text(f"t,value\n-1,-1\n{row}\n1,1\n")
    assert run(["probe", "--h-csv", csv_path, "--scales", "2:4",
                "--out", tmp_path]) == 2
    assert f"line 3: expected two numbers 't,value', got {row!r}" \
        in capsys.readouterr().err


# ---------------------------------------------------------------------------
# nonregular
# ---------------------------------------------------------------------------


def test_nonregular_experiment(tmp_path):
    out = tmp_path / "out"
    code = run(["nonregular", "--n", 2, "--k", 3, "--grid", 1025,
                "--out", out])
    assert code == 0
    report = json.loads((out / "experiment.json").read_text())
    assert report["verdict"] == "non-isomorphic"


def test_nonregular_dyadic_drift_exits_one(tmp_path, monkeypatch):
    # an unreachable tolerance stands in for a solver that moves a dyadic
    # point: the run is a result, written and inconclusive
    monkeypatch.setattr(analysis, "DYADIC_TOL", -1.0)
    out = tmp_path / "out"
    assert run(["nonregular", "--grid", 1025, "--out", out]) == 1
    report = json.loads((out / "experiment.json").read_text())
    assert report["verdict"] == "inconclusive"


def test_nonregular_equal_cells_exits_two(tmp_path):
    assert run(["nonregular", "--n", 2, "--k", 2, "--out", tmp_path]) == 2


def test_nonregular_has_no_m_max_flag(tmp_path):
    # the dyadic table's range follows from --n and --k
    assert run(["nonregular", "--m-max", 8, "--out", tmp_path]) == 2
    assert not (tmp_path / "experiment.json").exists()


def test_nonregular_cell_without_interior_float_exits_two(tmp_path, capsys):
    assert run(["nonregular", "--n", 52, "--k", 3, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        "error: n must be >= 1 and <= 51, got 52\n")
    assert not (tmp_path / "experiment.json").exists()


def test_nonregular_names_the_second_cell(tmp_path, capsys):
    assert run(["nonregular", "--k", 52, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        "error: k must be >= 1 and <= 51, got 52\n")
    assert not (tmp_path / "experiment.json").exists()


def test_nonregular_integer_beyond_float_exits_two(tmp_path, capsys):
    assert run(["nonregular", "--n", "1" + "0" * 400, "--out", tmp_path]) == 2
    assert capsys.readouterr().err == (
        "error: n must be >= 1 and <= 51, got an integer of 1329 bits\n")
    assert not (tmp_path / "experiment.json").exists()


# ---------------------------------------------------------------------------
# misc
# ---------------------------------------------------------------------------


def test_bad_subcommand_exits_two():
    assert run(["frobnicate"]) == 2


def test_module_entry_point_runs_main(tmp_path, capsys):
    src = str(Path(__file__).parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "pconfig.cli", "validate"],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path})
    assert run(["validate"]) == proc.returncode == 2
    assert capsys.readouterr().err == proc.stderr


@pytest.mark.parametrize("argv", [
    ["validate", "--config", "{std}", "--tol", "1e-3"],
    ["validate", "--config", "{std}", "--max-iter", "5"],
    ["solve-fe", "--config", "{std}", "--max-iter", "5"],
    ["nonregular", "--grid", "1025", "--max-iter", "1"],
    ["nonregular", "--grid", "1025", "--tol", "1e-3"],
    ["nonregular", "--grid", "1025", "--config", "{std}"],
    ["conjugate", "--config", "{std}", "--tol", "1e-3"],
    ["conjugate", "--config", "{std}", "--max-iter", "5"],
    ["solve-fe", "--config", "{std}", "--tol", "1e-3"],
    ["probe", "--config", "{std}", "--max-iter", "5"],
    ["solve-fe", "--config", "{std}", "--allow-degenerate"],
])
def test_unread_option_exits_two(argv, std_config, tmp_path):
    # each subcommand declares only the options it reads
    argv = [a.format(std=std_config) for a in argv]
    assert run([*argv, "--out", tmp_path]) == 2


def test_bad_grid_exits_two(std_config, tmp_path):
    assert run(["validate", "--config", std_config, "--grid", 64,
                "--out", tmp_path]) == 2


def test_readme_options_table_matches_parser():
    readme = README.read_text()
    rows = re.findall(r"^\| `([a-z-]+)` +\| (.*) \|$", readme, re.MULTILINE)
    documented = {name: set(re.findall(r"`(--[a-z0-9-]+)`", options))
                  for name, options in rows}
    subparsers = _build_parser()._subparsers._group_actions[0].choices
    declared = {
        name: {o for a in p._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"}
        for name, p in subparsers.items()
    }
    assert documented == declared


def test_readme_descriptor_table_matches_families():
    # each family's keys are its constructor's parameter names, so a key
    # cannot leave the code while the README still documents it
    table = re.search(r"^\| family +\| keys \|\n\|[-|]+\|\n((?:\|.*\|\n)+)",
                      README.read_text(), re.MULTILINE).group(1)
    documented = {}
    for row in table.splitlines():
        family, keys = (cell.strip() for cell in row.strip("|").split("|"))
        documented[family] = set(re.findall(r"`([a-z0-9_]+)`", keys))
    declared = {family: set(inspect.signature(constructor).parameters)
                for family, constructor in families._FAMILIES.items()}
    assert documented == declared


def test_readme_command_line_block_runs(tmp_path, monkeypatch):
    # the `echo` line writes the descriptor, and each `pconfig` line of
    # the block must succeed on it
    block = re.search(r"^## Command line\n.*?```sh\n(.*?)```",
                      README.read_text(), re.MULTILINE | re.DOTALL).group(1)
    monkeypatch.chdir(tmp_path)
    for text, name in re.findall(r"^echo '(.*)' > (\S+)$", block,
                                 re.MULTILINE):
        Path(name).write_text(text + "\n")
    commands = re.findall(r"^pconfig (.*)$", block, re.MULTILINE)
    assert len(commands) == 5
    for command in commands:
        assert main(shlex.split(command)) == 0, command


def test_readme_error_examples_reproduce(tmp_path, monkeypatch, capsys):
    # each `$ pconfig ...` line followed by an `error: ...` line, run on the
    # descriptor files the README's `echo` lines write
    readme = README.read_text()
    monkeypatch.chdir(tmp_path)
    for text, name in re.findall(r"^(?:\$ )?echo '(.*)' > (\S+)$", readme,
                                 re.MULTILINE):
        Path(name).write_text(text + "\n")
    # an example that does not exit 2 shows its exit code by `echo $?`
    examples = re.findall(
        r"^\$ pconfig (.*)\n(error: .*)\n(?:\$ echo \$\?\n(\d)$)?", readme,
        re.MULTILINE)
    assert examples
    for command, expected, code in examples:
        assert main(shlex.split(command)) == int(code or 2), command
        assert capsys.readouterr().err == expected + "\n", command
