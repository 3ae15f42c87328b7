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
_CSV_ROW = "%r," * INVARIANT_CSV_HEADER.count(",") + "1\n"
_CSV_ROW_OUT = "%r" + "," * INVARIANT_CSV_HEADER.count(",") + "0\n"


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal; integral values drop the trailing .0"""
    if math.isnan(x):
        return "nan"
    s = repr(float(x))
    if s.endswith(".0"):
        s = s[:-2]
    return s


def _fill(template: str, values: np.ndarray, ends: str = "") -> str:
    """template % values, each %r float written as fmt_float writes it.

    The values reach % through .tolist(), as Python floats and ints (the %r
    of an np.float64 is np.float64(...)).  A float's repr ends in .0 only for
    an integral value, and no repr ends in one of ends (the characters that
    follow a %r in template), so dropping ".0" before each of them is exact."""
    text = template % tuple(values.ravel().tolist())
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
            table = np.column_stack((grid.us,) + grid.columns())
            keep = np.ones(table.shape, dtype=bool)
            keep[~grid.admissible, 1:] = False  # an inadmissible row keeps u only
            rows = [_CSV_ROW if ok else _CSV_ROW_OUT
                    for ok in grid.admissible.tolist()]
            fh.write(_fill("".join(rows), table[keep], ","))


def parse_projection(projection: str):
    """'drop-x4' or 'ortho:<axis>,<axis>,<axis>' -> component indices."""
    if projection == "drop-x4":
        return (0, 1, 2)
    if projection.startswith("ortho:"):
        names = [n.strip() for n in projection[len("ortho:"):].split(",")]
        if len(names) != 3 or len(set(names)) != 3:
            raise ProjectionError(
                f"projection plane needs three distinct axes, got {projection!r}")
        try:
            return tuple(_AXES.index(n) for n in names)
        except ValueError:
            raise ProjectionError(
                f"unknown axis in {projection!r}; use x1..x4") from None
    raise ProjectionError(
        f"projection must be 'drop-x4' or 'ortho:...', got {projection!r}")


def export_mesh(spec: SurfaceSpec, us, vs, path: str, fmt: str = "csv4",
                projection: str = "drop-x4") -> None:
    """Sample the immersion on the grid and write csv4 or obj3 output.

    csv4 keeps all four coordinates, so it takes no projection but drop-x4;
    obj3 projects to 3-space (drop-x4 or an orthographic coordinate 3-plane)
    and triangulates the quad grid row-major, two triangles per cell.  Each
    block of _CSV_BLOCK vertices or quads is one % of a repeated row
    template, so the text held at once is bounded by the block.
    """
    us = [float(u) for u in us]
    vs = [float(v) for v in vs]
    if fmt not in ("csv4", "obj3"):
        raise ProjectionError(f"mesh format must be csv4 or obj3, got {fmt!r}")
    idx = parse_projection(projection)
    if fmt == "csv4" and projection != "drop-x4":
        raise ProjectionError(f"csv4 keeps all four coordinates; projection "
                              f"{projection!r} needs format obj3")
    # vertices in row-major (u, v) order, each as its four coordinates
    xs = [c.ravel() for c in positions_grid(spec, us, vs).components()]
    if fmt == "csv4":
        header, row, ends = "u,v,x1,x2,x3,x4", "%r,%r,%r,%r,%r,%r\n", ",\n"
        cols = [np.repeat(us, len(vs)), np.tile(vs, len(us))] + xs
    else:
        header, row, ends = ("# triangulated rotational-surface sample",
                             "v %r %r %r\n", " \n")
        cols = [xs[i] for i in idx]
    nv = len(vs)
    nq = (len(us) - 1) * (nv - 1) if fmt == "obj3" else 0   # quads to write
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for start in range(0, len(cols[0]), _CSV_BLOCK):
            block = np.column_stack([c[start:start + _CSV_BLOCK] for c in cols])
            fh.write(_fill(row * len(block), block, ends))
        for start in range(0, nq, _CSV_BLOCK):
            q = np.arange(start, min(start + _CSV_BLOCK, nq))
            a = q // (nv - 1) * nv + q % (nv - 1) + 1   # OBJ indices are 1-based
            fh.write(_fill("f %d %d %d\nf %d %d %d\n" * len(q), np.column_stack(
                (a, a + 1, a + nv + 1, a, a + nv + 1, a + nv))))


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
