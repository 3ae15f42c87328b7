"""Output oracles of the benchmark: each returns the number of failed items.

They read the files the program wrote, not its in-memory results, and they
judge against the tolerances the program itself publishes in
``verifier.DEFAULT_TOLS``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from grs4.reporting import INVARIANT_CSV_HEADER
from grs4.verifier import DEFAULT_TOLS

_COLUMNS = INVARIANT_CSV_HEADER.split(",")


@dataclass(frozen=True)
class Property:
    """The defining property of a family as one CSV column near a target."""

    column: str
    target: float
    tol: float


def family_property(desc, tier: str) -> Property:
    """|H_coeff| (min), |K| (flat), |kappa| (fnc) at the tier tolerance;
    H_norm2 = -1/C^2 at the pnmcv tolerance (pnmcv)."""
    prefix = desc.case.split("-")[0]
    if prefix == "pnmcv":
        C = float(desc.params["C"])
        return Property("H_norm2", -1.0 / (C * C), DEFAULT_TOLS["pnmcv_h"])
    column = {"min": "H_coeff", "flat": "K", "fnc": "kappa"}[prefix]
    return Property(column, 0.0, DEFAULT_TOLS[tier])


def table_failures(text: str, us, prop: Property,
                   expect_admissible: bool = True) -> int:
    """Failed rows of one invariant CSV written for the grid ``us``.

    A row fails if its u differs from the grid, if it is admissible and
    breaks the family property or tr(A1 A2) = 0, or if it is admissible
    where the family should have none.  A table with a wrong header or row
    count, or with no admissible row where some are expected, fails whole.
    """
    lines = text.split("\n")
    if (lines[0] != INVARIANT_CSV_HEADER or lines[-1] != ""
            or len(lines) != len(us) + 2):
        return len(us)
    col = _COLUMNS.index(prop.column)
    tr = _COLUMNS.index("trA1A2")
    failed = admissible = 0
    for u, line in zip(us, lines[1:-1]):
        fields = line.split(",")
        try:
            if len(fields) != len(_COLUMNS) or float(fields[0]) != u:
                failed += 1
            elif fields[-1] == "1":
                admissible += 1
                ok = (abs(float(fields[col]) - prop.target) <= prop.tol
                      and abs(float(fields[tr])) <= DEFAULT_TOLS["algebraic"])
                failed += not ok or not expect_admissible
            elif fields[-1] != "0":
                failed += 1
        except ValueError:          # a field that is not a number
            failed += 1
    if expect_admissible and admissible == 0:
        return len(us)
    return failed


def mesh_failures(text: str, nu: int, nv: int, f_ref, elliptic: bool) -> int:
    """Failed vertices of an obj3 mesh (drop-x4 projection) of an nu x nv grid.

    The file must hold nu*nv vertices and 2(nu-1)(nv-1) faces with valid
    indices, else every vertex fails.  A vertex fails unless the rotation
    invariant matches the meridian: x1^2 + x2^2 = f^2 (elliptic) or
    x1^2 - x3^2 = f^2 (hyperbolic), relative to the magnitudes involved.
    """
    n = nu * nv
    verts, faces = [], []
    for line in text.split("\n"):
        if line.startswith("v "):
            verts.append(line)
        elif line.startswith("f "):
            faces.append(line)
    if len(verts) != n or len(faces) != 2 * (nu - 1) * (nv - 1):
        return n
    for line in faces:
        idx = [int(t) for t in line.split()[1:]]
        if len(idx) != 3 or not all(1 <= i <= n for i in idx):
            return n
    tol = DEFAULT_TOLS["algebraic"]
    failed = 0
    for k, line in enumerate(verts):
        x1, x2, x3 = (float(t) for t in line.split()[1:])
        f2 = f_ref[k // nv] ** 2
        if elliptic:
            q = scale = x1 * x1 + x2 * x2
        else:
            q, scale = x1 * x1 - x3 * x3, x1 * x1 + x3 * x3
        failed += not abs(q - f2) <= tol * max(scale, f2)
    return failed


def knots_ok(constraint_max: float, speed_max: float, tol: float) -> bool:
    """Knot constraint and unit-speed residuals of a realization within tol."""
    return constraint_max <= tol and speed_max <= tol


def suite_failures(data: bytes, rc: int, items: int, jobs_sha256: str) -> int:
    """Failed jobs of a suite report run without sweeps: every job satisfied.

    An unreadable report, a report with another number of jobs or with a
    sweep, an exit code that disagrees with the report's verdict, or a jobs
    block whose bytes (as the program writes them, ``json.dumps`` with
    indent 2) have another sha256 than ``jobs_sha256`` fails every item.
    """
    try:
        report = json.loads(data)
        jobs = report["jobs"]
        failed = sum(not job["satisfied"] for job in jobs)
        verdict = report["pass"]
        sweeps = report["sweeps"]
        digest = hashlib.sha256(json.dumps(jobs, indent=2).encode("utf-8")).hexdigest()
    except (ValueError, KeyError, TypeError):
        return items
    if (len(jobs) != items or sweeps or digest != jobs_sha256
            or (rc == 0) != (failed == 0) or verdict != (failed == 0)):
        return items
    return failed


class PassChecker:
    """Full oracle on the first pass; later passes must reproduce its bytes.

    The program promises byte-identical output for identical input, so a
    pass whose snapshot digest differs from the first pass fails all its
    items.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = None

    def failures(self, snap) -> int:
        if self.reference is None:
            self.reference = (snap.digest, self.workload.check(snap))
        digest, failed = self.reference
        return failed if snap.digest == digest else self.workload.items
