"""The stacked FD check of grs4.verifier on points of one surface, as a job
of verify_family assembles it: one meridian pass over the stencil u's, the
stencil's first error, then one frame pass over the frame columns of
check_fd_connection."""

import numpy as np

from grs4 import surfaces, verifier


def fd_frame(spec, points, steps):
    """(meridian columns, Frame) at the frame columns of the (u, v) points
    with steps, flattened point by point."""
    u, v = np.array(points, dtype=float).reshape(-1, 2).T
    us = verifier._stencil_us(u, steps)
    _, scalars = surfaces._meridian_columns(spec, us)
    index, vs = verifier._fd_columns(spec, us, v, tuple(steps), scalars)
    scalars = tuple(c.ravel()[index.ravel()] for c in scalars)
    return scalars, surfaces._frame_from(spec, surfaces._frame_inputs(scalars),
                                         surfaces._rotations(spec, vs.ravel()))


def fd_rows(spec, points, hs):
    """(names, residuals of shape (8, points, steps)) at the points, each
    with every step of hs."""
    return verifier.fd_connection_rows(spec, *fd_frame(spec, points, hs),
                                       np.asarray(hs))


def fd_check(spec, points, h, tol, shrink_h=None):
    """(fd-connection, fd-shrinkage) at the points: the residuals at h and
    the halving ratio from shrink_h (default h) to shrink_h / 2."""
    shrink_h = h if shrink_h is None else shrink_h
    steps = (h, shrink_h, 0.5 * shrink_h)
    u = np.array(points, dtype=float).reshape(-1, 2)[:, 0]
    [checks] = verifier.check_fd_connection(
        [(spec, u, steps, tol)], *fd_frame(spec, points, steps))
    return checks
