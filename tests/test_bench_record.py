"""tools/bench_record.py on a canned perfbench standard output, and its
suite profiles, realization timer, nu = 1000 suite run, report digests,
per-module line counts and precompiled fresh processes on this checkout."""

import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools")
if TOOLS not in sys.path:
    sys.path.insert(0, TOOLS)

import bench_record  # noqa: E402
from grs4 import meridians  # noqa: E402
from test_acceptance import SUITE_REPORT_SEED31_SHA256  # noqa: E402

# a --trace 1 run as perfbench/run.py prints it, cut to three layers
TRACED = """\
# perfbench workload=ode seed=31 seconds=0.3 trace=1
# machine {"nproc": 2, "cpu": "Xeon", "python": "3.11.7", "numpy": "2.4.6"}
# output sha256 eeae428dcb7d8cd64ef2ca2becf0ccc4686fc3eb1539d88a8b58ddb129f1588a (seed 31)
# passes 5, 5 items each; at the reference speed: wall_s median 0.0197 s, \
no percentile has ten passes beyond it
# measured: wall median 0.0474 s; host speed median 0.421, min 0.414, max 0.439
# pass_s measured 0.0431 0.0477 0.0476 0.0440 0.0505
# host speed per pass 0.439 0.418 0.414 0.424 0.421
meridians.realize.calls 5 count/pass
meridians.realize.self_s 0.04 s/pass
reporting.bytes_written 58991 bytes/pass
{"correct": true, "attempted": 25, "failed": 0, "metrics": \
{"meridians.realize.calls": {"value": 5, "unit": "count/pass"}, \
"meridians.realize.self_s": {"value": 0.04, "unit": "s/pass"}, \
"reporting.bytes_written": {"value": 58991, "unit": "bytes/pass"}}}
"""


def test_parse_perfbench_reads_digest_speed_and_result():
    run = bench_record.parse_perfbench(TRACED)
    assert run["machine"]["nproc"] == 2
    assert run["output_sha256"] == (
        "eeae428dcb7d8cd64ef2ca2becf0ccc4686fc3eb1539d88a8b58ddb129f1588a")
    assert run["host_speed"] == 0.421      # the median of the five passes
    assert run["result"]["attempted"] == 25


def test_reference_layers_scale_self_times_only():
    """Self seconds are measured seconds times the host speed, as perfbench
    converts wall_s; counts are left as they are."""
    layers = bench_record.reference_layers(bench_record.parse_perfbench(TRACED))
    assert layers == {"meridians.realize.calls": 5,
                      "meridians.realize.self_s": pytest.approx(0.04 * 0.421),
                      "reporting.bytes_written": 58991}


def test_call_counts_sum_grs4_functions_of_each_name():
    """Calls are summed per PROFILED name over grs4 modules only; a name
    that no row has reads 0."""
    rows = [["/x/src/grs4/surfaces.py", "_frame_from", 4],
            ["/x/src/grs4/verifier.py", "_frame_from", 2],
            ["/x/src/grs4/meridians.py", "jet_columns", 45],
            ["/x/tests/test_surfaces.py", "_projection", 9],
            ["/x/src/grs4/surfaces.py", "_projection", 4],
            ["/x/src/grs4/surfaces.py", "positions_grid", 3]]
    assert bench_record.call_counts(rows) == {
        "jet_columns": 45, "_meridian_columns": 0, "invariant_grid": 0,
        "_invariant_rows": 0, "_rotations": 0, "_frame_from": 6,
        "_projection": 4, "fd_connection_rows": 0, "admissible_domain": 0,
        "check_points": 0}


def test_sweep_on_profile_makes_the_calls_of_the_sweep_off_one():
    """suite_calls_sweep: the sweep's points ride in the jobs' own passes,
    so a sweep-on default-suite pass calls each PROFILED name as often as a
    sweep-off one."""
    root = os.path.dirname(TOOLS)
    off = bench_record.run_profile(root)
    assert bench_record.run_profile(root, sweep=True) == off
    assert off["check_points"] > 0


def test_realizations_time_and_count_each_integrated_case():
    """One record per integrated catalog case, in catalog order: a positive
    median build time and the realization's counts (one accepted attempt of
    _INITIAL_STEPS steps and 4n + 1 root solves)."""
    root = os.path.dirname(TOOLS)
    got = bench_record.run_realizations(root)
    n = meridians._INITIAL_STEPS
    assert list(got) == [c for c, e in meridians.FAMILY_CATALOG.items()
                         if e.realization == "ode"]
    for record in got.values():
        assert record["build_s"] > 0.0
        assert {k: record[k] for k in ("steps", "field_calls", "halvings")} \
            == {"steps": n, "field_calls": 4 * n + 1, "halvings": 0}


def test_suite_nu1000_records_rss_and_wall_per_fresh_process():
    """Under suite_nu1000: the medians and each run's max RSS and run_suite
    wall time of the default jobs at nu = 1000, sweep off."""
    got = bench_record.run_suite_nu1000(os.path.dirname(TOOLS), runs=1)
    assert set(got) == {"wall_s", "max_rss_mb", "runs"} and len(got["runs"]) == 1
    assert got["wall_s"] > 0.0 and got["max_rss_mb"] > 0.0
    assert {k: got[k] for k in ("wall_s", "max_rss_mb")} == got["runs"][0]


# the full default-suite report at seed 20240, as SUITE_REPORT_SEED31_SHA256
# at seed 31
SUITE_REPORT_SEED20240_SHA256 = "2c8c00d537627e6f792b12e3faafe9b4b4153663013d0f0da35491132f93a5d9"


def test_report_digests_at_both_seeds_are_the_pinned_ones():
    """source_facts records the full default-suite report's sha256 at seeds
    31 and 20240, and each is its pinned digest."""
    root = os.path.dirname(TOOLS)
    assert {seed: bench_record.suite_report_sha256(root, seed)
            for seed in bench_record.SUITE_REPORT_SEEDS} == {
        31: SUITE_REPORT_SEED31_SHA256, 20240: SUITE_REPORT_SEED20240_SHA256}


def test_module_lines_count_each_source_file_as_wc_does():
    """module_lines counts the newlines of each src/grs4/*.py, as wc -l does,
    and the modules sum to src_grs4_lines."""
    root = os.path.dirname(TOOLS)
    lines = bench_record.module_lines(root)
    src = os.path.join(root, "src", "grs4")
    assert list(lines) == sorted(n for n in os.listdir(src) if n.endswith(".py"))
    out = subprocess.run(["wc", "-l", *sorted(lines)], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    wc = {name: int(n) for n, name in (line.split() for line in out.splitlines())}
    assert wc == {**lines, "total": sum(lines.values())}


def test_fresh_processes_compile_no_module_from_source():
    """The fresh processes read bytecode from a private PYTHONPYCACHEPREFIX
    outside the checkout: a CLI run under it compiles no module from its
    source, whether PYTHONDONTWRITEBYTECODE is set or not."""
    root = os.path.dirname(TOOLS)
    env = bench_record._src_env(root)
    prefix = env["PYTHONPYCACHEPREFIX"]
    assert os.path.commonpath([prefix, root]) != root
    out = subprocess.run([sys.executable, "-v", "-m", "grs4", "verify",
                          "--family", "fnc-ell-i", "--nu", "5"], cwd=root,
                         env=env, capture_output=True, text=True, check=True)
    compiled = [line.split()[-1] for line in out.stderr.splitlines()
                if line.startswith("# code object from") and line.endswith(".py")]
    assert compiled == []
