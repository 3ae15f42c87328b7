"""One-point float routes, the reference of the bitwise tests.

These are the per-point bodies that grs4 replaced with array passes: the
meridian comes from jet(u) as Python floats and goes through the formula
functions of grs4.surfaces one point at a time, and the verifier's FD
stencil, random sweep and bisection loop over their points.  The tests
compare the array routes against them to the bit, and the errors they
raise by type and text.  jet_columns and invariant_grid are the array
routes as they were before each became one pass over every row: a gather
of the rows that qualify and a scatter of the results.

The root solve of the integrated rules is kept here in the layered form
that the one-frame solve() replaced: system() gives the roots of the rule's
quadratic and the affine map to g', quad_roots() solves the quadratic,
pick() chooses the tracked root and TrackingField follows it.  With
grs4.odeint.rk4_integrate, TrackingField is the reference of the RK4 kernel
that realizes the integrated meridians; tracking_field is the field that
kernel replaced, over the rule's solve().
"""

import math

import numpy as np

from grs4 import meridians, surfaces, verifier
from grs4.errors import (DomainError, GrsError, InadmissiblePointError,
                         NoRealRootError, StepError)
from grs4.jets import evaluate_masked
from grs4.pe4 import inner


def meridian_scalars(spec, u):
    """(f, f', f'', g, g', g'', E, W) at u from jet(u)."""
    mj = spec.meridian.jet(u)
    return surfaces._scalars_from(spec, mj.f.val, mj.f.d1, mj.f.d2,
                                  mj.g.val, mj.g.d1, mj.g.d2)


def admissible_scalars(spec, u):
    s = meridian_scalars(spec, u)
    E, W = s[6], s[7]
    if not (E > surfaces.ADMISSIBILITY_EPS and W > surfaces.ADMISSIBILITY_EPS):
        raise InadmissiblePointError(
            f"{spec.kind.value} surface inadmissible at u={u}: "
            f"E={E:.6g}, G={-W:.6g}")
    return s


def frame_scalars(spec, u):
    f, fp, fpp, g, gp, gpp, E, W = admissible_scalars(spec, u)
    return f, fp, fpp, g, gp, gpp, 1.0 / math.sqrt(E), 1.0 / math.sqrt(W)


def rotation(spec, v):
    """(cos, sin) of alpha*v and beta*v with math; cosh and sinh for the
    hyperbolic kind."""
    cos, sin = spec.kind.cos, spec.kind.sin
    a, b = spec.alpha, spec.beta
    return cos(a * v), sin(a * v), cos(b * v), sin(b * v)


def position_jets(spec, u, v):
    return surfaces._jets_from(spec, *meridian_scalars(spec, u)[:6],
                               rotation(spec, v))


def frames(spec, u, v):
    return surfaces._frame_from(spec, frame_scalars(spec, u),
                                rotation(spec, v))


def project(spec, u, v):
    return surfaces._projection(spec, frame_scalars(spec, u),
                                rotation(spec, v))


def geometric_functions(spec, u):
    return surfaces._geo_fns_from(spec, admissible_scalars(spec, u))


def curvatures(spec, u):
    return surfaces._curvatures_from(spec, admissible_scalars(spec, u))


def shape_trace(spec, u):
    A1, A2 = surfaces._shape_matrices(spec.kind, geometric_functions(spec, u))
    return float(surfaces.shape_trace(A1, A2))


def mean_curvature_numerator(spec, u):
    t1, t2 = surfaces._h_terms(spec, *meridian_scalars(spec, u))
    return t1 + t2, abs(t1) + abs(t2) + 1.0


# ---------------------------------------------------------------------------
# The gather/scatter array routes

def jet_columns(family, us):
    """MeridianFamily.jet_columns as a gather and scatter: jet_fn over the
    u inside the interval only, each of the six columns written back into
    a NaN column by mask."""
    us = np.asarray(us, dtype=float)
    inside = np.ones(len(us), dtype=bool)
    if family.interval is not None:
        lo, hi = family.interval
        inside = (lo <= us) & (us <= hi)
    rows = np.full((6, len(us)), math.nan)
    (fj, gj), raised = evaluate_masked(family.jet_fn, us[inside])
    for row, x in zip(rows, (fj.val, fj.d1, fj.d2, gj.val, gj.d1, gj.d2)):
        row[inside] = x
    ok = inside.copy()
    ok[inside] = ~raised
    ok &= ~meridians._singular(rows[1], rows[4])
    rows[:, ~ok] = math.nan
    return (ok, *rows)


def invariant_grid(spec, us):
    """(admissible, INVARIANT_COLUMNS arrays) of surfaces.invariant_grid by
    gathers: the meridian from jet_columns above, E, F, G from the full
    position jets at v = 0, the other formulas on the gathered admissible
    rows only, scattered back into NaN columns, and the shape matrices
    stacked with np.moveaxis."""
    with np.errstate(all="ignore"):
        _, *jets = jet_columns(spec.meridian, np.asarray(us, dtype=float))
        scalars = surfaces._scalars_from(spec, *jets)
        pj = surfaces._jets_from(spec, *scalars[:6],
                                 rotation(spec, 0.0))
        E, F, G = (inner(pj.z_u, pj.z_u), inner(pj.z_u, pj.z_v),
                   inner(pj.z_v, pj.z_v))
        ok = surfaces._admissible(scalars)
        adm = tuple(c[ok] for c in scalars)
        gf = surfaces._geo_fns_from(spec, adm)
        cv = surfaces._curvatures_from(spec, adm)
        zero = np.zeros(np.shape(gf.mu))
        rot, diag = (np.ascontiguousarray(np.moveaxis(np.array(m), (0, 1),
                                                      (-2, -1)))
                     for m in ([[zero, gf.mu], [-gf.mu, zero]],
                               [[gf.nu1, zero], [zero, -gf.nu2]]))
        tr = surfaces.shape_trace(*spec.kind.normals(rot, diag))
    columns = []
    for values in (gf.nu1, gf.nu2, gf.mu, gf.gamma2, gf.beta2, cv.K,
                   cv.kappa, cv.h_coeff, cv.H_norm2, tr):
        column = np.full(len(ok), math.nan)
        column[ok] = values
        columns.append(column)
    return ok, (E, F, G, *columns)


# ---------------------------------------------------------------------------
# The verifier's per-point loops

def indicator(spec, u):
    """min(E, -G) - ADMISSIBILITY_EPS; -inf where the meridian is undefined
    or E or -G is NaN (min() would keep a NaN -G after a positive E)."""
    eps = surfaces.ADMISSIBILITY_EPS
    try:
        *_, E, W = meridian_scalars(spec, u)
    except GrsError:
        return -math.inf
    if math.isnan(E) or math.isnan(W):
        return -math.inf
    return min(E - eps, W - eps)


def refine(spec, a, b, va):
    """Bisect one bracket, one indicator call per step."""
    for _ in range(200):
        if b - a <= 1e-12:
            break
        m = 0.5 * (a + b)
        vm = indicator(spec, m)
        if (vm > 0.0) == (va > 0.0):
            a, va = m, vm
        else:
            b = m
    return 0.5 * (a + b)


def admissible_domain(spec, u0, u1, n):
    """The admissibility scan as a per-u indicator loop with a per-bracket
    bisection."""
    us = np.linspace(u0, u1, n)
    vals = [indicator(spec, u) for u in us]
    intervals = []
    start = None
    for i, (u, val) in enumerate(zip(us, vals)):
        good = val > 0.0
        if good and start is None:
            start = u0 if i == 0 else refine(spec, us[i - 1], u, vals[i - 1])
        elif not good and start is not None:
            end = refine(spec, us[i - 1], u, vals[i - 1])
            if end > start:
                intervals.append((start, end))
            start = None
    if start is not None:
        intervals.append((start, u1))
    return intervals


def fd_connection_check(spec, u, v, h):
    """[(name, residual)] of the eight frame derivative rows at one point."""
    gf = geometric_functions(spec, u)
    *_, E, W = meridian_scalars(spec, u)
    se, sw = math.sqrt(E), math.sqrt(W)
    fr = frames(spec, u, v)

    def frame_at(uu, vv):
        try:
            return frames(spec, uu, vv)
        except (InadmissiblePointError, DomainError) as exc:
            raise StepError(
                f"FD stencil left the admissible domain at (u={uu}, v={vv}): "
                f"{exc}") from None

    fv_p, fv_m = frame_at(u, v + h), frame_at(u, v - h)
    fu_p, fu_m = frame_at(u + h, v), frame_at(u - h, v)

    def dx(name):
        return (getattr(fu_p, name) - getattr(fu_m, name)) * (1.0 / (2.0 * h * se))

    def dy(name):
        return (getattr(fv_p, name) - getattr(fv_m, name)) * (1.0 / (2.0 * h * sw))

    e = spec.kind.eps
    n_off, n_car = spec.kind.normals("n1", "n2")
    x, y, off, car = fr.x, fr.y, getattr(fr, n_off), getattr(fr, n_car)
    nu1, nu2, mu, g2, b2 = gf.nu1, gf.nu2, gf.mu, gf.gamma2, gf.beta2
    rows = [
        ("nabla_x x", dx("x"), car * (-e * nu1)),
        ("nabla_x y", dx("y"), off * (e * mu)),
        ("nabla_y x", dy("x"), y * -g2 + off * (e * mu)),
        ("nabla_y y", dy("y"), x * -g2 + car * (-e * nu2)),
        (f"nabla_x {n_off}", dx(n_off), y * mu),
        (f"nabla_y {n_off}", dy(n_off), x * -mu + car * (e * b2)),
        (f"nabla_x {n_car}", dx(n_car), x * -nu1),
        (f"nabla_y {n_car}", dy(n_car), y * nu2 + off * (e * b2)),
    ]
    return [(name, (fd - rhs).euclid_norm()) for name, fd, rhs in rows]


def check_fd_connection(spec, points, h, shrink_h):
    """(residuals at h, halving ratios) of check_fd_connection's point loop."""
    residuals, ratios = [], []
    for (u, v) in points:
        rows_h = fd_connection_check(spec, u, v, h)
        residuals.extend(r for _, r in rows_h)
        rows_s = fd_connection_check(spec, u, v, shrink_h) \
            if shrink_h != h else rows_h
        rows_s2 = fd_connection_check(spec, u, v, 0.5 * shrink_h)
        for (_, r1), (_, r2) in zip(rows_s, rows_s2):
            if r1 > 5e-9 and r2 > 0.0:
                ratios.append(r1 / r2)
    return residuals, ratios


def sweep_residuals(points):
    """The four residual lists of a suite's sweep at its drawn points, each
    (check_points job, grid row, v), point by point."""
    tr_res, allied_res, off_res, def_res = [], [], [], []
    for (spec, us, *_), row, v in points:
        u, v = float(us[row]), float(v)
        proj = project(spec, u, v)
        cv = curvatures(spec, u)
        tr, allied = verifier._chen_residuals(proj, cv.h_coeff)
        off, _, n_off, _, _ = verifier._carrier_split(spec.kind, proj)
        hscale = max(1.0, verifier._sigma_magnitude(proj) * n_off.euclid_norm())
        tr_res.append(tr)
        allied_res.append(allied)
        off_res.append(abs(off) / hscale)
        def_res.append(abs(cv.H_norm2 + cv.h_coeff ** 2))
    return tr_res, allied_res, off_res, def_res


def quad_roots(A, B, C, name, u):
    """Real roots of A x^2 + B x + C = 0, robust to tiny A and roundoff;
    name and u only word the NoRealRootError."""
    scale = max(abs(A), abs(B), abs(C), 1e-30)
    if abs(A) <= 1e-14 * scale:
        if abs(B) <= 1e-14 * scale:
            raise NoRealRootError(f"degenerate root system at {name} u={u}")
        return [-C / B]
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        if disc < -1e-12 * scale * scale:
            raise NoRealRootError(f"negative discriminant at {name} u={u}")
        disc = 0.0
    sq = math.sqrt(disc)
    qq = -0.5 * (B + math.copysign(sq, B)) if B != 0.0 else -0.5 * sq
    if qq == 0.0:
        return [0.0]
    return [qq / A, C / qq]


def system(rule, u, f, g):
    """(f' roots, c0, c1, q) of a rule at (u, f, g): g' = (c0 + c1 f') / q."""
    e = rule.eps
    if isinstance(rule, meridians._MinHyp3Rule):
        # one root; cos t + 0.0 * sin t is cos t to the bit
        if f == 0.0 and g == 0.0:
            raise NoRealRootError(f"{rule.name}: curve through the origin at u={u}")
        t = rule.c - math.atan2(f, g)
        return [math.sin(t)], math.cos(t), 0.0, 1.0
    if isinstance(rule, meridians._FlatRule):
        # q g' - eps p f' = r, the derivative of the constraint
        p, q, r = rule.al2 * f, rule.be2 * g, rule.a2 * (u + rule.c)
        if abs(q) < 1e-14:
            raise NoRealRootError(f"{rule.name}: g ~ 0 at u={u}")
        roots = quad_roots(q * q - e * p * p, -2.0 * p * r,
                           -e * r * r - q * q, rule.name, u)
        return roots, r, e * p, q
    # fnc: q g' = eps p f' - eps r
    w = rule.be2 * g * g - e * rule.al2 * f * f
    if w <= 0.0:
        sign = "-" if e > 0.0 else "+"
        raise NoRealRootError(f"{rule.name}: beta^2 g^2 {sign} alpha^2 f^2 <= 0")
    r = rule.C * math.sqrt(w)
    p, q = f, g
    if abs(q) < 1e-14:
        raise NoRealRootError(f"{rule.name}: g ~ 0 at u={u}")
    roots = quad_roots(q * q - e * p * p, 2.0 * e * p * r,
                       -e * r * r - q * q, rule.name, u)
    return roots, -e * r, e * p, q


def candidates(rule, u, f, g):
    """Every (f', g') root of the rule at (u, f, g), in the quadratic's order."""
    roots, c0, c1, q = system(rule, u, f, g)
    return [(fp, (c0 + c1 * fp) / q) for fp in roots]


def pick(sys_out, ref, larger=True):
    """((f', g') of the tracked root, the other f' root or NaN) of a system()
    value: the root nearest ref, a tie (or a NaN distance) keeping the first
    root as min() does; with ref None, the larger (or smaller) f'."""
    roots, c0, c1, q = sys_out
    fp, other = roots[0], math.nan
    if len(roots) == 2:
        other = roots[1]
        # the order of sorted() and the first-wins tie of min()
        if ((other < fp) != larger if ref is None
                else abs(other - ref) < abs(fp - ref)):
            fp, other = other, fp
    return (fp, (c0 + c1 * fp) / q), other


def branches(rule, u, f, g, ref, larger=True):
    """pick() of the rule's system at (u, f, g)."""
    return pick(system(rule, u, f, g), ref, larger)


class TrackingField:
    """State-derivative map that follows one root branch continuously;
    others records the untracked f' root of every call."""

    def __init__(self, rule, initial_root):
        self.rule = rule
        self.larger = initial_root == "larger"
        self.last = None
        self.others = []

    def __call__(self, u, y):
        p, other = branches(self.rule, u, y[0], y[1], self.last, self.larger)
        self.last = p[0]
        self.others.append(other)
        return p


def tracking_field(rule, initial_root):
    """(field, others): field(u, [f, g]) is the (f', g') of rule.solve's root
    nearest the previous call's f' (at the first call the larger or smaller
    f'), and others the list of every call's other f' root."""
    solve, larger = rule.solve, initial_root == "larger"
    last, others = None, []

    def field(u, y):
        nonlocal last
        fp, gp, other = solve(u, y[0], y[1], last, larger)
        last = fp
        others.append(other)
        return fp, gp
    return field, others
