"""Deterministic file writers: invariant CSV, mesh export, JSON reports.

Numbers are serialized with the shortest decimal representation that
round-trips to the same float64, so identical configurations produce
byte-identical outputs across runs and platforms.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParamError, ProjectionError
from .surfaces import SurfaceSpec, invariant_grid, positions_grid

INVARIANT_CSV_HEADER = ("u,E,F,G,nu1,nu2,mu,gamma2,beta2,K,kappa,"
                        "H_coeff,H_norm2,trA1A2,admissible")

_AXES = ("x1", "x2", "x3", "x4")
_CSV_BLOCK = 4096


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal; integral values drop the trailing .0"""
    if math.isnan(x):
        return "nan"
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _block_text(lines: list[str], *ends: str) -> str:
    """Lines of repr-formatted floats as one text, numbers as fmt_float writes
    them.  A float's repr ends in .0 only for an integral value, and no repr
    ends in a field separator, so dropping ".0" before every field end in
    ends (the separators and the newline that follow a number) is exact."""
    text = "\n".join(lines) + "\n"
    for end in ends:
        text = text.replace(".0" + end, end)
    return text


def export_invariants_csv(spec: SurfaceSpec, us, path: str) -> None:
    """One row per grid point; inadmissible rows keep u and the 0 flag only.

    The invariants come from invariant_grid, over at most _CSV_BLOCK rows at
    a time; each block is written as soon as it is formatted, so a long grid
    holds few columns of Python floats and little text at once.
    """
    us = np.fromiter(us, dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(INVARIANT_CSV_HEADER + "\n")
        for start in range(0, len(us), _CSV_BLOCK):
            grid = invariant_grid(spec, us[start:start + _CSV_BLOCK])
            lines = []
            for u, ok, *vals in zip(grid.us.tolist(), grid.admissible.tolist(),
                                    *(c.tolist() for c in grid.columns())):
                lines.append(",".join(map(repr, (u, *vals))) + ",1" if ok
                             else repr(u) + "," * 13 + ",0")
            fh.write(_block_text(lines, ","))


def parse_projection(projection: str):
    """'drop-x4' or 'ortho:<axis>,<axis>,<axis>' -> component indices."""
    if projection == "drop-x4":
        return (0, 1, 2)
    if projection.startswith("ortho:"):
        names = projection[len("ortho:"):].split(",")
        if len(names) != 3 or len(set(names)) != 3:
            raise ProjectionError(
                f"projection plane needs three distinct axes, got {projection!r}")
        try:
            return tuple(_AXES.index(n.strip()) for n in names)
        except ValueError:
            raise ProjectionError(
                f"unknown axis in {projection!r}; use x1..x4") from None
    raise ProjectionError(
        f"projection must be 'drop-x4' or 'ortho:...', got {projection!r}")


def export_mesh(spec: SurfaceSpec, us, vs, path: str, fmt: str = "csv4",
                projection: str = "drop-x4") -> None:
    """Sample the immersion on the grid and write csv4 or obj3 output.

    csv4 keeps all four coordinates; obj3 projects to 3-space (drop-x4 or an
    orthographic coordinate 3-plane) and triangulates the quad grid
    row-major, two triangles per cell.
    """
    us = [float(u) for u in us]
    vs = [float(v) for v in vs]
    if fmt not in ("csv4", "obj3"):
        raise ProjectionError(f"mesh format must be csv4 or obj3, got {fmt!r}")
    idx = parse_projection(projection) if fmt == "obj3" else None
    # vertices in row-major (u, v) order, each as its four coordinates
    xs = [c.ravel() for c in positions_grid(spec, us, vs).components()]
    if fmt == "csv4":
        header, prefix, sep = "u,v,x1,x2,x3,x4", "", ","
        cols = [np.repeat(us, len(vs)), np.tile(vs, len(us))] + xs
    else:
        header, prefix, sep = "# triangulated rotational-surface sample", "v ", " "
        cols = [xs[i] for i in idx]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK):
            rows = zip(*(c[start:start + _CSV_BLOCK].tolist() for c in cols))
            fh.write(_block_text([prefix + sep.join(map(repr, r)) for r in rows],
                                 sep, "\n"))
        if fmt == "obj3":
            nv = len(vs)
            for i in range(len(us) - 1):     # OBJ indices are 1-based
                fh.write("".join(f"f {a} {a + 1} {a + nv + 1}\n"
                                 f"f {a} {a + nv + 1} {a + nv}\n"
                                 for a in range(i * nv + 1, (i + 1) * nv)))


def dump_report_json(report_dict: dict, path: str) -> None:
    with open(path, "wb") as fh:
        fh.write(report_json_bytes(report_dict))


def report_json_bytes(report_dict: dict) -> bytes:
    """The bytes of json.dumps(report_dict, indent=2) + "\\n" for a tree
    whose dict keys are str, written directly: json serves indent only with
    its pure-Python encoder.  A value json rejects, or a key that is not a
    str, raises TypeError."""
    return (_json_text(report_dict, "\n") + "\n").encode("utf-8")


def _json_text(x, nl: str) -> str:
    """json.dumps(x, indent=2) for a value at the indentation nl."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, float):
        return (float.__repr__(x) if math.isfinite(x) else "NaN" if x != x
                else "Infinity" if x > 0.0 else "-Infinity")
    inner = nl + "  "
    if isinstance(x, dict):
        items = [encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                 for k, v in x.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}" if x else "{}"
    if isinstance(x, (list, tuple)):
        items = [_json_text(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(items) + nl + "]" if x else "[]"
    if x is None or x is True or x is False:
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def linspace_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if n < 2:
        raise ParamError("grid needs at least 2 points")
    return np.linspace(lo, hi, n)
