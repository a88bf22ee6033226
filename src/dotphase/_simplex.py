"""Nelder-Mead simplex minimisation on Python floats.

A port of scipy 1.17.1's ``scipy.optimize._optimize._minimize_neldermead``
(BSD-3-Clause) without ``adaptive``, ``bounds``, ``initial_simplex``,
``maxfev`` or callbacks. It retraces scipy's iterates step for step: the
same initial simplex, coefficients, operand order, stop test and vertex
order (taken with ``np.argsort``, as scipy takes it, since numpy's sort need
not keep equal values in order). So x, f and the number of objective calls
have the same bits as ``scipy.optimize.minimize(func, x0,
method="Nelder-Mead", options={"xatol": xatol, "fatol": fatol, "maxiter":
maxiter})``. The loop keeps each vertex as a tuple of floats: on a
two-parameter fit, scipy's per-step numpy calls on arrays of two cost more
than the objective.

Nelder and Mead, Computer Journal 7, 308 (1965).
"""
from __future__ import annotations

import numpy as np

# scipy's non-adaptive coefficients: reflection, expansion, contraction and
# shrink, then the initial simplex's relative step and its step from zero
RHO, CHI, PSI, SIGMA = 1, 2, 0.5, 0.5
NONZDELT, ZDELT = 0.05, 0.00025


def _order(sim, fsim):
    # the sort np.argsort(fsim) makes, without its dispatch on a list
    ind = np.array(fsim).argsort().tolist()
    return [sim[i] for i in ind], [fsim[i] for i in ind]


def nelder_mead(func, x0, xatol: float, fatol: float, maxiter: int):
    """Minimise ``func`` from ``x0``; returns (best vertex, least value).

    ``func`` gets each point as a tuple of floats and returns a number.
    """
    x0 = tuple(float(v) for v in x0)
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + NONZDELT) * y[k] if y[k] != 0 else ZDELT
        sim.append(tuple(y))
    fsim = [float(func(x)) for x in sim]
    # scipy orders the first simplex twice, and an unstable sort may swap
    # equal values the second time
    sim, fsim = _order(sim, fsim)
    sim, fsim = _order(sim, fsim)

    iterations = 1
    while iterations < maxiter:
        best, fbest = sim[0], fsim[0]
        # all(<=) fails on a NaN as scipy's np.max(...) <= tol does
        if all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)) and all(
            abs(fbest - f) <= fatol for f in fsim[1:]
        ):
            break

        # np.add.reduce over the vertex axis adds the vertices in turn
        total = sim[0]
        for x in sim[1:-1]:
            total = tuple(t + v for t, v in zip(total, x))
        xbar = tuple(t / n for t in total)
        worst = sim[-1]
        xr = tuple((1 + RHO) * b - RHO * w for b, w in zip(xbar, worst))
        fxr = float(func(xr))

        if fxr < fsim[0]:
            xe = tuple((1 + RHO * CHI) * b - RHO * CHI * w for b, w in zip(xbar, worst))
            fxe = float(func(xe))
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = tuple((1 + PSI * RHO) * b - PSI * RHO * w for b, w in zip(xbar, worst))
                fxc = float(func(xc))
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = tuple((1 - PSI) * b + PSI * w for b, w in zip(xbar, worst))
                fxcc = float(func(xcc))
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = tuple(b + SIGMA * (v - b) for b, v in zip(best, sim[j]))
                    fsim[j] = float(func(sim[j]))
        iterations += 1
        sim, fsim = _order(sim, fsim)

    return sim[0], float(np.min(fsim))
