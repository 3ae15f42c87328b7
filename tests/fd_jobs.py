"""The stacked FD check of grs4.verifier on points of one surface, as a job
of verify_family assembles it: one meridian pass over the stencil u's, the
stencil's first error, then the frame columns of check_fd_connection."""

import numpy as np

from grs4 import surfaces, verifier


def fd_job(spec, points, steps, tol=1e-6):
    """The check_fd_connection job of (u, v) points with steps."""
    u, v = np.array(points, dtype=float).reshape(-1, 2).T
    _, scalars = surfaces._meridian_columns(spec, verifier._stencil_us(u, steps))
    return verifier._fd_job(spec, u, v, tuple(steps), scalars, tol)


def fd_rows(spec, points, hs):
    """(names, residuals of shape (8, points, steps)) at the points, each
    with every step of hs."""
    _, _, steps, scalars, rot, _ = fd_job(spec, points, hs)
    return verifier.fd_connection_rows(spec, scalars, rot, np.asarray(steps))


def fd_check(spec, points, h, tol, shrink_h=None):
    """(fd-connection, fd-shrinkage) at the points: the residuals at h and
    the halving ratio from shrink_h (default h) to shrink_h / 2."""
    shrink_h = h if shrink_h is None else shrink_h
    [checks] = verifier.check_fd_connection(
        [fd_job(spec, points, (h, shrink_h, 0.5 * shrink_h), tol)])
    return checks
