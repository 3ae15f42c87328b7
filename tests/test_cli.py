import hashlib
import json
import math

import numpy as np
import pytest

from grs4.cli import cmd_dispatch
from grs4.meridians import (build_family, classified_case_ids,
                            descriptor_from_catalog)
from grs4.reporting import (INVARIANT_CSV_HEADER, _fill,
                            export_invariants_csv, fmt_float, parse_projection,
                            report_json_bytes)
from grs4 import reporting
from grs4.errors import ProjectionError
from grs4.surfaces import surface_from_family


def run(*argv):
    return cmd_dispatch(list(argv))


def spec_for(case, params=None, **kw):
    return surface_from_family(build_family(
        descriptor_from_catalog(case, params, **kw)))


# ---------------------------------------------------------------------------
# Formatting helpers

def test_fmt_float_round_trips():
    for x in (0.44, -2.56, 1.0, 0.0, 1.06, 2.1200016, 1e-17, -0.0,
              123456.789, 2.5e-05):
        assert float(fmt_float(x)) == x
    assert fmt_float(1.0) == "1"
    assert fmt_float(0.0) == "0"
    assert fmt_float(0.44) == "0.44"


def test_fill_writes_numbers_as_fmt_float():
    from hypothesis import given, settings, strategies as st

    def check(table, sep):
        row = sep.join(["%r"] * table.shape[1]) + "\n"
        got = _fill(row * len(table), table, sep + "\n")
        assert got == "".join(sep.join(map(fmt_float, r)) + "\n"
                              for r in table.tolist())

    special = np.array([[0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324],
                        [-2.2e-308, 1e16, -1e16, 1.5e300, 123.0, 0.1]])
    for sep in (",", " "):
        check(special, sep)

    # st.floats() draws +-0, +-inf, NaN, subnormals and |x| >= 1e16 as well
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 4), st.data(),
           st.sampled_from([",", " "]))
    def inner_check(width, nrows, data, sep):
        xs = data.draw(st.lists(st.floats(), min_size=width * nrows,
                                max_size=width * nrows))
        check(np.array(xs, dtype=float).reshape(nrows, width), sep)

    inner_check()


def _json_trees(st):
    """JSON trees with str keys: strings with non-ASCII, quote, backslash
    and control characters; NaN, +-inf, -0.0, big ints, bools and None;
    empty, nested and tuple containers."""
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(min_value=-10 ** 40, max_value=10 ** 40), st.floats(),
        st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 10 ** 400]),
        st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é€😀", ""]))
    keys = st.one_of(st.text(), st.sampled_from(['"k"', "a\\b", "\n", "ü"]))
    return st.recursive(
        scalars,
        lambda kids: st.one_of(st.lists(kids, max_size=4),
                               st.lists(kids, max_size=4).map(tuple),
                               st.dictionaries(keys, kids, max_size=4)),
        max_leaves=30)


def test_report_json_bytes_match_json_dumps():
    """The direct writer gives the bytes of json.dumps(x, indent=2) + "\\n"."""
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=300, deadline=None)
    @given(_json_trees(st))
    def inner_check(x):
        assert report_json_bytes(x) == (json.dumps(x, indent=2) + "\n").encode()

    inner_check()


@pytest.mark.parametrize("x", [np.bool_(True), {1, 2}, object(),
                               [np.int64(1)], {"a": {"b": {1, 2}}}])
def test_report_json_bytes_reject_what_json_rejects(x):
    with pytest.raises(TypeError):
        json.dumps(x, indent=2)
    with pytest.raises(TypeError):
        report_json_bytes(x)


@pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
def test_report_json_bytes_take_str_keys_only(key):
    """A report's dict keys are str; any other key is a TypeError."""
    with pytest.raises(TypeError):
        report_json_bytes({key: 0})


# ---------------------------------------------------------------------------
# family list

def test_family_list(capsys):
    assert run("family", "list") == 0
    out = capsys.readouterr().out
    for case in ("min-ell-i", "min-ell-ii", "min-ell-iii", "min-hyp-i",
                 "min-hyp-ii", "min-hyp-iii", "pnmcv-ell", "pnmcv-hyp",
                 "flat-ell-i", "flat-ell-ii", "flat-hyp-i", "flat-hyp-ii",
                 "fnc-ell-i", "fnc-ell-ii", "fnc-hyp-i", "fnc-hyp-ii"):
        assert case in out
    assert "c != 0" in out  # parameter constraints are shown


def test_family_unknown_action(capsys):
    assert run("family", "frobnicate") == 2


# ---------------------------------------------------------------------------
# invariants CSV

def test_invariants_csv_example_row(tmp_path):
    out = tmp_path / "inv.csv"
    code = run("invariants", "--family", "fnc-ell-i", "--params", "c=1.2",
               "--alpha", "1", "--beta", "2", "--u0", "1", "--u1", "2",
               "--nu", "3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == INVARIANT_CSV_HEADER
    row = lines[1].split(",")
    assert float(row[0]) == 1.0
    assert float(row[1]) == pytest.approx(0.44, abs=1e-14)   # E
    assert row[2] == "0"                                      # F exact zero
    assert float(row[3]) == pytest.approx(-2.56, abs=1e-14)  # G
    assert float(row[4]) == 0.0                               # nu1
    assert float(row[5]) == pytest.approx(2.1200016, abs=1e-5)
    assert float(row[11]) == pytest.approx(1.06, abs=1e-5)    # H coefficient
    assert float(row[12]) == pytest.approx(-1.1236, abs=1e-4)
    assert row[13] == "0"                                     # trA1A2
    assert row[14] == "1"                                     # admissible


def test_invariants_empty_grid_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    spec = spec_for("fnc-ell-i")
    export_invariants_csv(spec, [], str(out))
    assert out.read_text() == INVARIANT_CSV_HEADER + "\n"


def test_invariants_inadmissible_rows_flagged(tmp_path):
    out = tmp_path / "mixed.csv"
    spec = spec_for("pnmcv-ell", {"C": 2.0}, interval=(0.5, 6.0))
    export_invariants_csv(spec, [1.0, 3.0], str(out))
    lines = out.read_text().splitlines()
    assert lines[1].startswith("1,")
    assert lines[1].endswith(",0")
    assert lines[1].split(",")[1] == ""  # invariant cells left empty
    assert lines[2].endswith(",1")


@pytest.mark.parametrize("params,u0,u1", [
    ("f=u**-3,g=u", "1e-120", "1e-110"),
    ("f=exp(u),g=u", "700", "800"),
])
def test_overflowing_custom_meridian_rows_flagged(tmp_path, capsys, params,
                                                  u0, u1):
    """A custom meridian past the float range is outside the domain: the
    invariants CSV flags its rows inadmissible and verify finds an empty
    admissible domain, with no OverflowError escaping."""
    out = tmp_path / "o.csv"
    assert run("invariants", "--family", "custom", "--params", params,
               "--u0", u0, "--u1", u1, "--nu", "3", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3 and all(r.endswith(",,0") for r in rows)
    rp = tmp_path / "r.json"
    assert run("verify", "--family", "custom", "--params", params,
               "--u0", u0, "--u1", u1, "--report", str(rp)) == 0
    checks = json.loads(rp.read_text())["checks"]
    assert checks[0]["name"] == "admissible-domain"
    assert checks[0]["notes"].endswith("; empty")
    assert "Error" not in capsys.readouterr().err


@pytest.mark.parametrize("params,same_as", [
    ("f=exp(2)*u,g=u", "f=7.38905609893065*u,g=u"),
    ("f=sqrt(4)*u,g=u", "f=2*u,g=u"),
    ("f=exp(2)*u,g=u,kind=hyperbolic", "f=7.38905609893065*u,g=u,kind=hyperbolic"),
    ("f=abs(-3)*u+log(1)+arctan(0),g=u,kind=hyperbolic",
     "f=3*u,g=u,kind=hyperbolic"),
])
def test_elementary_function_of_a_constant(tmp_path, params, same_as):
    """A call on a number evaluates it as a constant jet: the columns equal
    those of the expression with the number written out."""
    tables = []
    for i, p in enumerate((params, same_as)):
        out = tmp_path / f"{i}.csv"
        assert run("invariants", "--family", "custom", "--params", p,
                   "--nu", "3", "--out", str(out)) == 0
        tables.append([[float(x) if x else None for x in row.split(",")]
                       for row in out.read_text().splitlines()[1:]])
    assert tables[0] == tables[1]


@pytest.mark.parametrize("expr,text", [
    ("sqrt(-4)*u", "sqrt of non-positive or tiny value -4.0"),
    ("exp(1000)*u", "result past the float range at 1000.0"),
    ("log(0)+u", "log of non-positive or tiny value 0.0"),
])
def test_domain_error_of_a_constant(expr, text):
    """A call outside its domain on a number raises DomainError, and the
    custom meridian, undefined at every u, raises it when it is built."""
    from grs4.errors import DomainError
    from grs4.jets import JetExpr

    with pytest.raises(DomainError, match=text):
        JetExpr(expr)(1.0)
    with pytest.raises(DomainError, match=text):
        build_family(descriptor_from_catalog("custom", {"f": expr, "g": "u"}))


def test_overflowing_invariants_write_nothing_to_stderr(tmp_path):
    """Invariants past the float range overflow without a numpy warning."""
    import os
    import subprocess
    import sys

    import grs4
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(grs4.__file__)))
    out = subprocess.run(
        [sys.executable, "-m", "grs4", "invariants", "--family", "custom",
         "--params", "f=1e300*u*u,g=u", "--u0", "700", "--u1", "800",
         "--nu", "5", "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stderr == ""


@pytest.mark.parametrize("command", ["invariants", "mesh", "verify"])
def test_too_large_initial_state_prints_one_line(tmp_path, command):
    """An initial state too large to square exits 2 with one error line on
    stderr, with no numpy warning before it (the doors' lines are
    test_family_fault_reads_the_same_at_every_door's)."""
    import os
    import subprocess
    import sys

    import grs4
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(grs4.__file__)))
    argv = [sys.executable, "-m", "grs4", command, "--family", "flat-ell-i",
            "--f0", "1e200"]
    if command != "verify":
        argv += ["--out", str(tmp_path / "o.csv")]
    if command == "mesh":
        argv += ["--v0", "0", "--v1", "1"]
    out = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out.returncode == 2
    assert out.stderr == ("error: flat-ell-i: initial state (1e+200, inf) is "
                          "not finite or too large to square\n")
    assert not (tmp_path / "o.csv").exists()


def test_min_hyp_iii_next_to_the_origin(tmp_path, capsys):
    """A min-hyp-iii curve starting where f^2 + g^2 underflows to 0 has
    its first row flagged 0 by invariants, and verify runs to its end."""
    out = tmp_path / "o.csv"
    assert run("invariants", "--family", "min-hyp-iii", "--f0", "1e-170",
               "--g0", "1e-170", "--nu", "3", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows[0] == "0" + "," * 14 + "0"
    assert [r.endswith(",1") for r in rows[1:]] == [True, True]
    rp = tmp_path / "r.json"
    assert run("verify", "--family", "min-hyp-iii", "--f0", "1e-300",
               "--g0", "1e-300", "--report", str(rp)) == 0
    assert json.loads(rp.read_text())["checks"][0]["name"] == \
        "admissible-domain"
    assert "Traceback" not in capsys.readouterr().err


def test_overflowing_custom_meridian_mesh_exit_2(tmp_path, capsys):
    """mesh evaluates an inadmissible u point by point and reports the
    DomainError."""
    assert run("mesh", "--family", "custom", "--params", "f=exp(u),g=u",
               "--u0", "700", "--u1", "800", "--v0", "0", "--v1", "1",
               "--out", str(tmp_path / "m.csv")) == 2
    assert capsys.readouterr().err.startswith(
        "error: result past the float range at ")


def test_invariants_past_the_float_range(tmp_path, capsys):
    """A finite meridian whose E and -G square past the float range is not
    admissible: invariants flags its rows 0, and verify finds an empty
    domain; neither raises."""
    flags = ("--family", "custom", "--params",
             "f=1e300*u*u,g=u,kind=hyperbolic", "--u0", "700", "--u1", "800")
    out = tmp_path / "o.csv"
    assert run("invariants", *flags, "--nu", "3", "--out", str(out)) == 0
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [r[1:] for r in rows] == [[""] * 13 + ["0"]] * 3
    capsys.readouterr()
    rp = tmp_path / "r.json"
    assert run("verify", *flags, "--report", str(rp)) == 0
    checks = json.loads(rp.read_text())["checks"]
    assert checks[0]["notes"].endswith("; empty")
    assert all(c["vacuous"] for c in checks[1:])
    err = capsys.readouterr().err
    assert err.startswith("overall: pass (") and err.count("\n") == 1


def test_nan_minus_G_is_inadmissible(tmp_path):
    """A NaN -G fails admissibility although E is positive, in verify's
    scan as in the invariants table."""
    flags = ("--family", "custom", "--params",
             "f=2*u,g=u + 0*(1e308*1e308),kind=elliptic", "--u0", "1",
             "--u1", "2")
    rp = tmp_path / "r.json"
    assert run("verify", *flags, "--report", str(rp)) == 0
    checks = json.loads(rp.read_text())["checks"]
    assert checks[0]["name"] == "admissible-domain"
    assert checks[0]["notes"].endswith("; empty")
    out = tmp_path / "o.csv"
    assert run("invariants", *flags, "--nu", "3", "--out", str(out)) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 3 and all(r.endswith(",0") for r in rows)


# ---------------------------------------------------------------------------
# verify

def test_verify_pass_writes_report(tmp_path):
    rp = tmp_path / "r.json"
    code = run("verify", "--family", "pnmcv-ell", "--params", "C=2",
               "--alpha", "1", "--beta", "3", "--u0", "2.1", "--u1", "6",
               "--nu", "50", "--report", str(rp))
    assert code == 0
    payload = json.loads(rp.read_text())
    assert payload["pass"] is True
    assert payload["family"] == "pnmcv-ell"
    assert payload["alpha"] == 1.0


def test_verify_param_error_exit_2():
    assert run("verify", "--family", "flat-ell-ii", "--params", "C=4") == 2


def test_rotation_past_the_float_range_mesh_exit_2(tmp_path, capsys):
    """cosh(alpha v) past the float range is a ParamError naming v and the
    kind: one error line, exit 2 and no file."""
    out = tmp_path / "m.csv"
    assert run("mesh", "--family", "fnc-hyp-i", "--v0", "0", "--v1", "800",
               "--nu", "3", "--nv", "3", "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        "error: hyperbolic rotation past the float range at v=800.0\n")
    assert not out.exists()


def test_suite_job_rotation_past_the_float_range_exit_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"jobs": [{"family": "fnc-hyp-i", "v0": 0,
                                           "v1": 800}]}))
    assert run("verify", "--suite", str(suite)) == 2
    err = capsys.readouterr().err
    assert err == "error: hyperbolic rotation past the float range at v=800.0\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "fnc-ell-ii", "--f0", "0.0"),
    ("invariants", "--family", "fnc-hyp-ii", "--f0", "0.6", "--out", "x.csv"),
    ("verify", "--family", "min-hyp-iii", "--f0", "0.3"),
])
def test_omitted_g0_without_constraint_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {argv[2]}: ") and "give g0" in err
    assert not (tmp_path / "x.csv").exists()


def test_omitted_g0_derived_for_flat_families(tmp_path):
    for case, f0 in (("flat-ell-i", "1.0"), ("flat-hyp-i", "0.4")):
        out = tmp_path / f"{case}.csv"
        assert run("invariants", "--family", case, "--f0", f0,
                   "--nu", "5", "--out", str(out)) == 0
        assert out.read_text().startswith(INVARIANT_CSV_HEADER)


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "flat-ell-i", "--g0", "3"),
    ("invariants", "--family", "flat-ell-i", "--g0", "3", "--out", "x.csv"),
    ("mesh", "--family", "flat-ell-i", "--g0", "3", "--v0", "0", "--v1", "1",
     "--out", "x.csv"),
])
def test_g0_without_f0_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: flat-ell-i: g0 needs f0\n"
    assert not (tmp_path / "x.csv").exists()


def test_suite_job_g0_without_f0_exit_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"jobs": [{"label": "lone", "family": "fnc-hyp-ii",
                                           "g0": 0.8}]}))
    assert run("verify", "--suite", str(suite)) == 2
    assert capsys.readouterr().err == "error: fnc-hyp-ii: g0 needs f0\n"


@pytest.mark.parametrize("argv", [
    ("verify", "--family", "pnmcv-ell", "--f0", "5", "--g0", "7"),
    ("verify", "--family", "custom", "--f0", "5"),
    ("invariants", "--family", "min-hyp-ii", "--f0", "0.5", "--out", "x.csv"),
    ("mesh", "--family", "fnc-ell-i", "--f0", "1", "--g0", "1", "--v0", "0",
     "--v1", "1", "--out", "x.csv"),
])
def test_closed_form_family_rejects_state0_exit_2(tmp_path, monkeypatch,
                                                  capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == (
        f"error: {argv[2]}: closed-form family takes no f0/g0\n")
    assert not (tmp_path / "x.csv").exists()


def test_suite_job_closed_form_f0_exit_2(tmp_path, capsys):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"jobs": [{"family": "pnmcv-ell", "f0": 5.0,
                                           "g0": 7.0}]}))
    assert run("verify", "--suite", str(suite)) == 2
    assert capsys.readouterr().err == (
        "error: pnmcv-ell: closed-form family takes no f0/g0\n")


def test_default_suite_gives_f0_only_to_integrated_families():
    from grs4.meridians import FAMILY_CATALOG
    from grs4.verifier import default_suite_config

    for job in default_suite_config()["jobs"]:
        if FAMILY_CATALOG[job["family"]].realization == "closed":
            assert not {"f0", "g0"} & set(job), job


# ---------------------------------------------------------------------------
# One family translation behind every front door

def _door_argv(door, job, flags, tmp_path):
    """argv of a front door for the family of a suite job, given to the
    CLI doors as flags."""
    if door == "suite":
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"jobs": [job]}))
        return ["verify", "--suite", str(path)]
    return {"invariants": ["invariants", *flags, "--out", "x.csv"],
            "mesh": ["mesh", *flags, "--v0", "0", "--v1", "1",
                     "--out", "x.csv"],
            "verify": ["verify", *flags]}[door]


_DOORS = ("invariants", "mesh", "verify", "suite")


@pytest.mark.parametrize("door", _DOORS)
@pytest.mark.parametrize("job,line", [
    ({"family": "pnmcv-ell", "u0": 2.5},
     "error: pnmcv-ell: u0 and u1 must be given together\n"),
    ({"family": "flat-ell-i", "g0": 3.0}, "error: flat-ell-i: g0 needs f0\n"),
    ({"family": "nope"}, "error: unknown family case 'nope'\n"),
    ({"family": "pnmcv-ell", "f0": 5.0},
     "error: pnmcv-ell: closed-form family takes no f0/g0\n"),
    # the family does not exist: built, it raises; no door writes a file
    ({"family": "flat-ell-i", "f0": 5.0, "g0": 1.0},
     "error: flat-ell-i: initial state violates constraint "
     "(residual 2.425e+01 > tol 2.500e-09)\n"),
    ({"family": "fnc-ell-ii", "f0": 1.9, "g0": 1.0},
     "error: negative discriminant at fnc-ell-ii u=0.0\n"),
    ({"family": "min-hyp-iii", "f0": 0.0, "g0": 0.0},
     "error: min-hyp-iii: curve through the origin at u=0.0\n"),
    # an initial state too large to square
    ({"family": "fnc-hyp-ii", "f0": 1e200, "g0": 1.0},
     "error: fnc-hyp-ii: initial state (1e+200, 1.0) is not finite or too "
     "large to square\n"),
    ({"family": "min-hyp-iii", "f0": 1e200, "g0": 1.0},
     "error: min-hyp-iii: initial state (1e+200, 1.0) is not finite or too "
     "large to square\n"),
    ({"family": "flat-ell-i", "f0": 1e200},
     "error: flat-ell-i: initial state (1e+200, inf) is not finite or too "
     "large to square\n"),
    ({"family": "custom", "params": {"f": "sqrt(-4)*u"}},
     "error: sqrt of non-positive or tiny value -4.0\n"),
    ({"family": "custom", "params": {"f": "1/0*u"}},
     "error: '1/0*u': constant divides by zero\n"),
    ({"family": "custom", "params": {"f": "(-8)**0.5*u"}},
     "error: '(-8)**0.5*u': constant is complex\n"),
    ({"family": "custom", "params": {"f": "2**u"}},
     "error: exponent of ** must be a number in '2**u'\n"),
    # a params key outside the catalog entry's, here a misspelled C
    ({"family": "pnmcv-ell", "params": {"c": 5}},
     "error: pnmcv-ell: unknown params ['c']; its params are ['C']\n"),
    ({"family": "custom", "params": {"f": "u*u", "kinds": "hyperbolic",
                                     "c": 1}},
     "error: custom: unknown params ['c', 'kinds']; its params are "
     "['C', 'f', 'g', 'kind']\n"),
])
def test_family_fault_reads_the_same_at_every_door(tmp_path, monkeypatch,
                                                   capsys, door, job, line):
    monkeypatch.chdir(tmp_path)
    flags = [w for key, val in job.items() for w in (f"--{key}", ",".join(
        f"{k}={v}" for k, v in val.items()) if key == "params" else str(val))]
    assert run(*_door_argv(door, job, flags, tmp_path)) == 2
    assert capsys.readouterr().err == line
    assert not (tmp_path / "x.csv").exists()


_TOLS_LINE = ("error: tols must be an object keyed by closed, ode, algebraic, "
              "cross, fd, pnmcv_h, vindep\n")
_CHECKS_LINE = "error: checks must be a list drawn from minimal, pnmcv, flat, fnc\n"


@pytest.mark.parametrize("config,line", [
    ({"jobs": [{"family": "pnmcv-ell", "u0": None, "u1": 3}]},
     "error: u0 must be a number, got None\n"),
    ({"jobs": [{"family": "pnmcv-ell", "alpha": "x"}]},
     "error: alpha must be a number, got 'x'\n"),
    ({"jobs": [{"family": "pnmcv-ell", "nu": "many"}]},
     "error: nu must be a number, got 'many'\n"),
    ({"jobs": [{"family": "pnmcv-ell", "tols": "x"}]}, _TOLS_LINE),
    ({"jobs": [{"family": "pnmcv-ell", "tols": {"fd": "a"}}]},
     "error: tols.fd must be a number, got 'a'\n"),
    ({"jobs": [{"family": "pnmcv-ell", "tols": {"nope": 1}}]}, _TOLS_LINE),
    ({"jobs": [{"family": "pnmcv-ell", "checks": "minimal"}]}, _CHECKS_LINE),
    ({"seed": "s", "jobs": []}, "error: seed must be a number, got 's'\n"),
    # an integer key given a float that is not integral is not truncated
    ({"jobs": [{"family": "pnmcv-ell", "nu": 2.9}]},
     "error: nu must be an integer, got 2.9\n"),
    ({"jobs": [{"family": "pnmcv-ell", "sign": 1.9}]},
     "error: sign must be an integer, got 1.9\n"),
    ({"seed": 1.5, "jobs": []}, "error: seed must be an integer, got 1.5\n"),
    # a negative count does not turn the sweep off
    ({"jobs": [], "sweep_points": -5},
     "error: sweep_points must be at least 0, got -5\n"),
    # a JSON boolean is no number, and record_runtime takes only one
    ({"jobs": [{"family": "pnmcv-ell", "sign": True}]},
     "error: sign must be a number, got True\n"),
    ({"jobs": [{"family": "pnmcv-ell", "alpha": True}]},
     "error: alpha must be a number, got True\n"),
    ({"jobs": [{"family": "pnmcv-ell", "tols": {"closed": True}}]},
     "error: tols.closed must be a number, got True\n"),
    ({"jobs": [{"family": "pnmcv-ell", "params": {"C": True}}]},
     "error: pnmcv-ell: parameter 'C' must be a number\n"),
    ({"jobs": [{"family": "custom", "params": {"C": True},
                "checks": ["pnmcv"]}]},
     "error: the pnmcv checks need a nonzero number C in params\n"),
    ({"record_runtime": "no", "jobs": []},
     "error: record_runtime must be true or false, got 'no'\n"),
    # a label or family that is not a string
    ({"jobs": [{"family": "pnmcv-ell", "label": 5}]},
     "error: label must be a string, got 5\n"),
    ({"jobs": [{"family": "pnmcv-ell", "label": None}]},
     "error: label must be a string, got None\n"),
    ({"jobs": [{"family": ["x"]}]}, "error: family must be a string, got ['x']\n"),
    ({"jobs": [{"family": {"a": 1}}]},
     "error: family must be a string, got {'a': 1}\n"),
    # a v-range must be finite with v0 < v1, as a u-interval: a zero-width
    # range would pass v-independence at exactly 0
    ({"jobs": [{"family": "pnmcv-ell", "v0": 0.5, "v1": 0.5}]},
     "error: pnmcv-ell: bad v-range (0.5, 0.5)\n"),
    ({"jobs": [{"family": "pnmcv-ell", "v0": 1, "v1": 0}]},
     "error: pnmcv-ell: bad v-range (1.0, 0.0)\n"),
    ({"jobs": [{"family": "pnmcv-ell", "v0": "nan", "v1": 1}]},
     "error: pnmcv-ell: bad v-range (nan, 1.0)\n"),
])
def test_bad_suite_value_exit_2(tmp_path, capsys, config, line):
    """A job or config value of the wrong type, name or range is a
    configuration error, exit 2 with one line, not a traceback."""
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(config))
    assert run("verify", "--suite", str(path)) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("value", [5, 5.0])
def test_integral_suite_value_accepted(tmp_path, value):
    """An integer key takes an integral float as that integer."""
    path, report = tmp_path / "suite.json", tmp_path / "report.json"
    path.write_text(json.dumps({"seed": value, "jobs": [
        {"family": "pnmcv-ell", "nu": value, "sign": value / 5}]}))
    assert run("verify", "--suite", str(path), "--report", str(report)) == 0
    out = json.loads(report.read_text())
    assert out["seed"] == 5 and out["jobs"][0]["report"]["grid"]["nu"] == 5
    assert type(out["seed"]) is int


def test_a_sweep_with_no_row_to_draw_on_prints_vacuous(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"jobs": [], "sweep_points": 1}))
    assert run("verify", "--suite", str(path)) == 0
    assert f"  {'chen-trace-sweep':32s} vacuous\n" in capsys.readouterr().out


@pytest.mark.parametrize("flags,line", [
    (("--family", "pnmcv-ell", "--checks", "minimall"), _CHECKS_LINE),
    (("--family", "custom", "--params", "f=u*u,g=u", "--alpha", "1",
      "--beta", "3", "--u0", "0.6", "--u1", "2.8", "--checks", "pnmcv"),
     "error: the pnmcv checks need a nonzero number C in params\n"),
])
def test_unknown_check_exit_2(capsys, flags, line):
    assert run("verify", *flags) == 2
    assert capsys.readouterr().err == line


@pytest.mark.parametrize("job,flags", [
    ({"family": "pnmcv-hyp", "params": {"C": 2.0}, "alpha": 1.3,
      "beta": 0.7, "sign": -1, "u0": 0.2, "u1": 1.8},
     ["--family", "pnmcv-hyp", "--params", "C=2", "--alpha", "1.3",
      "--beta", "0.7", "--sign", "-1", "--u0", "0.2", "--u1", "1.8"]),
    ({"family": "flat-ell-i", "f0": 1.0, "root": "smaller"},
     ["--family", "flat-ell-i", "--f0", "1", "--root", "smaller"]),
])
def test_flags_and_suite_job_build_one_descriptor(tmp_path, monkeypatch,
                                                  job, flags):
    """Every door hands build_family a descriptor of the same repr."""
    from grs4 import cli, verifier
    from grs4.errors import GrsError

    seen = []

    def record(desc):
        seen.append(repr(desc))
        raise GrsError("recorded")

    monkeypatch.setattr(cli, "build_family", record)
    monkeypatch.setattr(verifier, "build_family", record)
    monkeypatch.chdir(tmp_path)
    for door in _DOORS:
        assert run(*_door_argv(door, job, flags, tmp_path)) == 2
    assert len(seen) == len(_DOORS) and len(set(seen)) == 1, seen


@pytest.mark.parametrize("argv", [
    ("invariants", "--family", "pnmcv-ell", "--nu", "1", "--out", "x.csv"),
    ("mesh", "--family", "pnmcv-ell", "--v0", "0", "--v1", "1", "--nv", "1",
     "--format", "obj3", "--out", "x.obj"),
    ("mesh", "--family", "pnmcv-ell", "--v0", "0", "--v1", "1", "--nu", "0",
     "--out", "x.csv"),
])
def test_grid_count_below_2_exit_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == "error: grid needs at least 2 points\n"
    assert not any(tmp_path.iterdir())


def test_verify_failed_check_exit_1(tmp_path):
    rp = tmp_path / "neg.json"
    code = run("verify", "--family", "custom", "--params",
               "f=u**2,g=u,kind=elliptic", "--alpha", "1", "--beta", "3",
               "--u0", "0.6", "--u1", "2.8", "--checks", "minimal",
               "--report", str(rp))
    assert code == 1
    payload = json.loads(rp.read_text())
    res = {c["name"]: c for c in payload["checks"]}
    assert res["minimal-h-coeff"]["max_residual"] > 1e-3


def test_verify_requires_target(capsys):
    assert run("verify") == 2


def test_verify_usage_error_exit_2():
    assert run("verify", "--family") == 2


def test_verify_suite_default(tmp_path):
    rp = tmp_path / "suite.json"
    code = run("verify", "--suite", "default", "--report", str(rp))
    assert code == 0
    payload = json.loads(rp.read_text())
    assert payload["pass"] is True and payload["seed"] == 20240
    labels = [j["label"] for j in payload["jobs"]]
    assert "negative-control-nonminimal" in labels
    assert any(v["family"] == "min-ell-i" for v in payload["vacuous"])


def test_verify_seed_overrides_the_suite_seed(tmp_path):
    """A given --seed is the seed of any suite, a file's or the default's;
    left out, the file's seed stands."""
    cfg, rp = tmp_path / "suite.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"seed": 7, "jobs": [
        {"family": "pnmcv-ell", "nu": 5}]}))
    for argv, seed in (((str(cfg), "--seed", "99"), 99), ((str(cfg),), 7),
                       (("default", "--seed", "31"), 31)):
        assert run("verify", "--suite", *argv, "--report", str(rp)) == 0
        assert json.loads(rp.read_text())["seed"] == seed, argv


@pytest.mark.parametrize("flags,given", [
    (("--family", "pnmcv-ell", "--nu", "3"), "--family, --nu"),
    (("--alpha", "2"), "--alpha"),
    (("--params", "C=2"), "--params"),
    (("--sign", "-1"), "--sign"),
    (("--config", "job.json"), "--config"),
    (("--checks", "pnmcv"), "--checks"),
])
def test_verify_suite_rejects_job_flags(capsys, flags, given):
    """A suite's jobs carry their own family and settings: a job flag next
    to --suite is a usage error, exit 2 with one line, not ignored."""
    assert run("verify", "--suite", "default", *flags) == 2
    assert capsys.readouterr().err == (
        f"error: --suite runs its own jobs: drop {given}\n")


def test_verify_family_rejects_seed(capsys):
    """One job runs no sweep, so --seed with --family would do nothing."""
    assert run("verify", "--family", "pnmcv-ell", "--seed", "3") == 2
    assert capsys.readouterr().err == (
        "error: --seed seeds a suite's sweep; --family runs none\n")


def test_verify_prints_margins_outside_the_report(tmp_path, capsys):
    job = {"label": "pnmcv-hyp[C=0.5]", "family": "pnmcv-hyp",
           "params": {"C": 0.5}, "alpha": 1.3, "beta": 0.7,
           "u0": 0.05, "u1": 0.45}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"jobs": [job]}))
    rp = tmp_path / "suite-report.json"
    capsys.readouterr()
    assert run("verify", "--suite", str(cfg), "--report", str(rp)) == 0
    lines = capsys.readouterr().out.splitlines()
    checks = json.loads(rp.read_text())["jobs"][0]["report"]["checks"]
    rated = [c for c in checks if not c["vacuous"] and c["tolerance"] > 0.0]
    top = max(rated, key=lambda c: c["max_residual"] / c["tolerance"])
    assert top["name"] == "fd-connection"
    i = next(k for k, line in enumerate(lines) if "pnmcv-hyp[C=0.5]" in line)
    assert lines[i + 1].split() == [
        "tightest:", "fd-connection", "at",
        f"{top['max_residual'] / top['tolerance']:.2e}", "of", "its",
        "tolerance"]

    fp = tmp_path / "family-report.json"
    assert run("verify", "--family", "pnmcv-hyp", "--params", "C=0.5",
               "--alpha", "1.3", "--beta", "0.7", "--u0", "0.05",
               "--u1", "0.45", "--report", str(fp)) == 0
    lines = capsys.readouterr().out.splitlines()
    family = json.loads(fp.read_text())
    assert family == json.loads(rp.read_text())["jobs"][0]["report"]
    for c in family["checks"]:
        line = next(ln for ln in lines if ln.split()[0] == c["name"])
        rated = not c["vacuous"] and c["tolerance"] > 0.0
        want = (f"{c['max_residual'] / c['tolerance']:.2e}" if rated else "-")
        assert line.split()[-1] == f"margin={want}", line
    # margins stay on the console: no report carries them
    assert "margin" not in fp.read_text() + rp.read_text()


def test_verify_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"C": 2.0}, "alpha": 1.0,
                               "beta": 3.0, "u0": 2.1, "u1": 6.0}))
    code = run("verify", "--family", "pnmcv-ell", "--config", str(cfg))
    assert code == 0
    # flags override the file: C=1.9 puts the surface on a different ladder rung
    code = run("verify", "--family", "pnmcv-ell", "--config", str(cfg),
               "--params", "C=1.9")
    assert code == 0


def test_verify_config_file_keys_reach_the_report(tmp_path):
    """nu, nv and sign from the file act as the same flags do."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 20, "nv": 4, "sign": -1}))
    reports = {}
    for name, extra in (("file", ("--config", str(cfg))),
                        ("flags", ("--nu", "20", "--nv", "4", "--sign", "-1")),
                        ("plus", ("--nu", "20", "--nv", "4"))):
        rp = tmp_path / f"{name}.json"
        assert run("verify", "--family", "min-hyp-i", *extra,
                   "--report", str(rp)) == 0
        reports[name] = rp.read_bytes()
    assert reports["file"] == reports["flags"]
    assert reports["file"] != reports["plus"]      # sign=-1 reached the job
    grid = json.loads(reports["file"])["grid"]
    assert (grid["nu"], grid["nv"]) == (20, 4)


def test_verify_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 20, "nv": 4, "params": {"C": 2.0},
                               "u0": 2.1, "u1": 6.0}))
    rp = tmp_path / "r.json"
    assert run("verify", "--family", "pnmcv-ell", "--config", str(cfg),
               "--nu", "12", "--params", "C=1.9", "--u0", "2.0",
               "--report", str(rp)) == 0
    payload = json.loads(rp.read_text())
    assert payload["grid"] == {"u0": 2.0, "u1": 6.0, "nu": 12, "nv": 4}
    assert payload["params"] == {"C": 1.9}


def test_verify_config_unknown_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nu": 20, "bogus": 1}))
    assert run("verify", "--family", "pnmcv-ell", "--config", str(cfg)) == 2
    assert "bogus" in capsys.readouterr().err
    # params that is not an object is a config error too, in a suite job
    # and in a --config file with or without --params
    cfg.write_text(json.dumps({"params": "C=2"}))
    assert run("verify", "--family", "pnmcv-ell", "--config", str(cfg)) == 2
    assert run("verify", "--family", "pnmcv-ell", "--config", str(cfg),
               "--params", "C=2") == 2
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"jobs": [{"family": "pnmcv-ell",
                                           "params": "C=2"}]}))
    assert run("verify", "--suite", str(suite)) == 2


def test_verify_bad_config_exit_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert run("verify", "--family", "pnmcv-ell", "--config", str(cfg)) == 2
    assert run("verify", "--suite", str(tmp_path / "missing.json")) == 2


# ---------------------------------------------------------------------------
# mesh export

def test_mesh_csv4_small_grid(tmp_path):
    out = tmp_path / "m.csv"
    code = run("mesh", "--family", "fnc-ell-i", "--u0", "1", "--u1", "2",
               "--nu", "2", "--v0", "0", "--v1", "1.5707963267948966",
               "--nv", "2", "--format", "csv4", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "u,v,x1,x2,x3,x4"
    assert len(lines) == 5
    first = [float(t) for t in lines[1].split(",")]
    # elliptic at v=0: z = (f, 0, g, 0) with f = 1.2, g = 1
    assert first == [1.0, 0.0, 1.2, 0.0, 1.0, 0.0]
    assert first[3] == 0.0 and first[5] == 0.0


def test_mesh_obj3_counts(tmp_path):
    out = tmp_path / "m.obj"
    code = run("mesh", "--family", "fnc-ell-i", "--u0", "1", "--u1", "2",
               "--nu", "10", "--v0", "0", "--v1", "6.0", "--nv", "10",
               "--format", "obj3", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert sum(1 for l in lines if l.startswith("v ")) == 100
    assert sum(1 for l in lines if l.startswith("f ")) == 162


def test_mesh_projection_choices(tmp_path):
    assert parse_projection("drop-x4") == (0, 1, 2)
    assert parse_projection("ortho:x1,x2,x4") == (0, 1, 3)
    assert parse_projection("ortho: x4 ,x1,x2") == (3, 0, 1)
    for bad in ("ortho:x1,x2", "ortho:x1,x1,x2", "ortho:x1,x1 ,x2",
                "ortho:x1,x2,x9", "sideways"):
        with pytest.raises(ProjectionError):
            parse_projection(bad)
    out = tmp_path / "m.obj"

    def mesh(fmt, projection):
        return run("mesh", "--family", "fnc-ell-i", "--u0", "1", "--u1", "2",
                   "--nu", "3", "--v0", "0", "--v1", "1", "--nv", "3",
                   "--format", fmt, "--projection", projection,
                   "--out", str(out))

    assert mesh("obj3", "ortho:x1,x2,x4") == 0
    assert mesh("csv4", "drop-x4") == 0
    for fmt, bad in (("obj3", "bogus"), ("obj3", "ortho:x1,x1 ,x2"),
                     ("csv4", "bogus"), ("csv4", "ortho:x1,x2,x4"),
                     ("csv4", "ortho:x1,x2,x3")):
        assert mesh(fmt, bad) == 2, (fmt, bad)


def test_invariants_csv_values_round_trip(tmp_path):
    out = tmp_path / "rt.csv"
    spec = spec_for("pnmcv-ell", {"C": 2.0})
    from grs4.surfaces import invariant_record
    us = [2.3, 3.7, 5.1]
    export_invariants_csv(spec, us, str(out))
    lines = out.read_text().splitlines()[1:]
    for u, line in zip(us, lines):
        rec = invariant_record(spec, u)
        cells = line.split(",")
        assert float(cells[0]) == u
        assert float(cells[1]) == rec.E      # exact float64 round trip
        assert float(cells[5]) == rec.nu2
        assert float(cells[11]) == rec.h_coeff


def test_mesh_on_integrated_family(tmp_path):
    out = tmp_path / "ode.csv"
    code = run("mesh", "--family", "flat-ell-i", "--u0", "1.0", "--u1", "1.5",
               "--nu", "5", "--v0", "0", "--v1", "3.14", "--nv", "4",
               "--format", "csv4", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 21


def test_unwritable_output_exit_2(tmp_path):
    code = run("invariants", "--family", "fnc-ell-i", "--u0", "1",
               "--u1", "2", "--nu", "3",
               "--out", str(tmp_path / "no" / "such" / "dir" / "x.csv"))
    assert code == 2


def test_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("invariants", "--family", "pnmcv-ell", "--params", "C=2",
            "--u0", "2.1", "--u1", "6", "--nu", "25")
    assert run(*args, "--out", str(a)) == 0
    assert run(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()

    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    vargs = ("verify", "--family", "fnc-ell-i", "--nu", "12", "--nv", "4")
    assert run(*vargs, "--report", str(ra)) == 0
    assert run(*vargs, "--report", str(rb)) == 0
    assert ra.read_bytes() == rb.read_bytes()


# ---------------------------------------------------------------------------
# Writer bytes, pinned
#
# Recorded on Linux x86-64 with glibc's libm and OpenBLAS 0.3.31 (Haswell
# kernel), like the suite digest in test_acceptance.py: last-bit differences
# in math.sinh and friends, in C pow, or in the BLAS 2x2 products of the
# trace column change these bytes.  On another libm or BLAS a mismatch calls
# for a re-pin after comparing the values, not necessarily for a fix.

INVARIANT_CSV_SHA256 = {
    "min-ell-i": "80694c5d5231f4bd3945f4cc342816134389389a565070ac4298aefc32713985",
    "min-ell-ii": "df9cd9351935046a478f6d69f918f3eaeba256ea1fe6a51d9cb79633b4646d44",
    "min-ell-iii": "c6495951777f5ca9b02a8bd5df35cf21e20108d705811e71b46a53b1b2819dff",
    "min-hyp-i": "d7b0f5c5d48a76f6bd19d5412e37621b4db9e168b6c38235624e37b48b1af47c",
    "min-hyp-ii": "4eb8a214c5788da150f42822dd1a7be74920858d083444b2bad2f0896ee06f4b",
    "min-hyp-iii": "b89866f453023669beb693f1ea7e977b5af4b48859f60b00cd9f0223b8b1431e",
    "pnmcv-ell": "75d69000e971bf7f678ae22f9b818690b7a260be0103e99d8750fc5bdf87b4e0",
    "pnmcv-hyp": "8106a3de1ae9fadd643b46f54c919491b8b543005ffc86193e85d4f800d7497c",
    "flat-ell-i": "d2c6ce6e988c870761fb5fa7693ba6372757d75a8f9c8c49292235c9b8c93f50",
    "flat-ell-ii": "8f462451a0bcae1d980917e2325c7eefb6996561fa6341304a91e586e48db316",
    "flat-hyp-i": "193208150222b72902b943cf0cd0560fa994e0295b4505ad0bec5c0a8ec8b154",
    "flat-hyp-ii": "3947a6b7d4ce2d7746fdf220f91f5d0fb88c183ee2d0c8d1c18ec0a6095ee639",
    "fnc-ell-i": "123352b76f3dfe7470d8853e9ae7e7e0492237d94abfaef5f64e52f9c08e6cdd",
    "fnc-ell-ii": "5f8aed44133c805946092b1a723dfefab9792f0585fbeef34307c976aeff7a9d",
    "fnc-hyp-i": "1fa7c05394b8f4e759fbd1d4cbf68e4bcead368133dae6ab4abbb3853974b0c2",
    "fnc-hyp-ii": "1867925c5ffeb6bb9e8c759284d79b91d7b331e298ffb69973febbafda77b86a",
}
MESH_SHA256 = {
    ("pnmcv-ell", "csv4"): "027772b60f51263fa57c543004d238812b512a5c31ff853bbf187a84bc79754b",
    ("pnmcv-ell", "obj3"): "9249315caa34ea492eba0503474124bb0a62ce626f35ec1ebfefc34b2d0bda56",
    ("min-hyp-i", "csv4"): "f9a45e34970506918490c0394df22976ecd69a35fee8218f0ec272209e2627a2",
    ("min-hyp-i", "obj3"): "b60cf6dfe5c2f39531b361d8fbc2ec30580a13eae96f0c00029eedece38d40ea",
}
MESH_V_RANGE = {"pnmcv-ell": ("0", "6.25"), "min-hyp-i": ("-3", "3")}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_pins_cover_every_classified_family():
    assert sorted(INVARIANT_CSV_SHA256) == sorted(classified_case_ids())


@pytest.mark.parametrize("case", sorted(INVARIANT_CSV_SHA256))
def test_invariants_csv_bytes_pinned(tmp_path, case):
    """grs4 invariants --nu 50 over the catalog interval."""
    out = tmp_path / "t.csv"
    assert run("invariants", "--family", case, "--nu", "50",
               "--out", str(out)) == 0
    assert _sha256(out) == INVARIANT_CSV_SHA256[case]


@pytest.mark.parametrize("case,fmt", sorted(MESH_SHA256))
def test_mesh_bytes_pinned(tmp_path, case, fmt):
    """grs4 mesh on a 50 x 9 grid, one family of each kind."""
    v0, v1 = MESH_V_RANGE[case]
    out = tmp_path / "m"
    assert run("mesh", "--family", case, "--v0", v0, "--v1", v1, "--nv", "9",
               "--format", fmt, "--out", str(out)) == 0
    assert _sha256(out) == MESH_SHA256[(case, fmt)]


# Writer paths the 50-row pins above do not reach: output longer than one
# reporting._CSV_BLOCK (4096 rows; 4,491 quads), an ortho projection, an
# invariant CSV whose rows below u = C = 2 are inadmissible (flagged 0), and
# invariant CSVs of negative f (--sign -1), where some fields are -0.
WRITER_SHA256 = {
    ("invariants", "--family", "pnmcv-ell", "--nu", "5000"):
        "ed3343eb9a1b396e342f32bc752e17ef3c938eb3f36e89d9b7dacba4f33a03df",
    ("invariants", "--family", "pnmcv-ell", "--u0", "1.5", "--u1", "3",
     "--nu", "7"):
        "03bc63d7c2cd7654c77bf7ccce97a964b3e27baa72ed174fa509f97b30a07441",
    ("invariants", "--family", "pnmcv-ell", "--sign", "-1", "--nu", "20"):
        "e0d80b522eb74951d5723b659ef096dc88a8343cd69c7a03e2edef178ab21809",
    ("invariants", "--family", "pnmcv-hyp", "--sign", "-1", "--nu", "20"):
        "1d37182da9535a9b9918bef122dad0e0f2402b424119297e3b59b1a4e5617e58",
    ("mesh", "--family", "pnmcv-ell", "--v0", "0", "--v1", "6.25",
     "--nu", "500", "--nv", "10", "--format", "obj3"):
        "66be3fa35d3df065bd646066c8fc186a8c77fcf60c65e8bcdca8b6c69f19d473",
    ("mesh", "--family", "pnmcv-ell", "--v0", "0", "--v1", "6.25",
     "--nu", "500", "--nv", "10", "--format", "csv4"):
        "1fda3982a308880bcefe444983a8bd0fd60fdfcf0d3e740cb342edc98d49966f",
    ("mesh", "--family", "min-hyp-i", "--v0", "-3", "--v1", "3", "--nv", "9",
     "--format", "obj3", "--projection", "ortho:x1,x2,x4"):
        "03031ee819718d6be5b7affc9e8c01d2bcf0c794bae00535e0a1a021c1b0266d",
}


@pytest.mark.parametrize("argv", sorted(WRITER_SHA256))
def test_writer_bytes_pinned(tmp_path, argv):
    out = tmp_path / "w"
    assert run(*argv, "--out", str(out)) == 0
    assert _sha256(out) == WRITER_SHA256[argv]


def test_writer_bytes_do_not_depend_on_block_size(tmp_path, monkeypatch):
    """Blocks of 7 split the rows of 10 vertices and of 9 quads of a mesh."""
    monkeypatch.setattr(reporting, "_CSV_BLOCK", 7)
    out = tmp_path / "w"
    for argv, digest in WRITER_SHA256.items():
        assert run(*argv, "--out", str(out)) == 0
        assert _sha256(out) == digest, argv
