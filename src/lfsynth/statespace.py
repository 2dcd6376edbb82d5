"""Continuous-time state-space realizations and their interconnections.

A system is the quadruple (a, b, c, d) with transfer ``c (sI - a)^-1 b + d``.
``n = 0`` encodes a static gain, so interconnection code never special-cases
memoryless blocks.  All types are immutable after construction and every
operation is a pure function, so concurrent evaluation is safe.

Text file format (shared with :func:`lfsynth.models.load_statespace`): the
first data line is ``n n_u n_y``; then n rows of n A-entries, n rows of n_u
B-entries, n_y rows of n C-entries and n_y rows of n_u D-entries, all
whitespace-separated decimal floats.  Lines starting with '#' are comments.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError
from .matops import as_matrix

# Within this distance of an eigenvalue of ``a``, relative to the largest
# eigenvalue magnitude, an eigenbasis sample loses accuracy (the eigenvalue's
# own rounding error is divided by the distance), so FrequencyKernel solves
# such samples densely instead.
NEAR_POLE_TOL = 1e-8
# Condition number of the eigenvector matrix past which FrequencyKernel
# solves densely instead of working in the eigenbasis.
EIG_COND_LIMIT = 1e8


def _frozen(m):
    m = np.array(m, dtype=float)
    m.flags.writeable = False
    return m


@dataclass(frozen=True)
class StateSpace:
    """Realization (a, b, c, d); dimensions are validated on construction."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        a = as_matrix(self.a, "a")
        b = as_matrix(self.b, "b")
        c = as_matrix(self.c, "c")
        d = as_matrix(self.d, "d")
        if a.size == 0:
            a = a.reshape(0, 0)
        if a.shape[0] != a.shape[1]:
            raise DimensionError(f"a must be square, got {a.shape}")
        n = a.shape[0]
        if n == 0 and b.size == 0:
            b = b.reshape(0, d.shape[1])
        if n == 0 and c.size == 0:
            c = c.reshape(d.shape[0], 0)
        if b.shape[0] != n:
            raise DimensionError(f"b has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionError(f"c has {c.shape[1]} cols, expected {n}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionError(
                f"d has shape {d.shape}, expected {(c.shape[0], b.shape[1])}"
            )
        object.__setattr__(self, "a", _frozen(a))
        object.__setattr__(self, "b", _frozen(b))
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "d", _frozen(d))

    @property
    def n(self):
        return self.a.shape[0]

    @property
    def n_inputs(self):
        return self.b.shape[1]

    @property
    def n_outputs(self):
        return self.c.shape[0]

    @property
    def is_static(self):
        return self.n == 0


def static_gain(d):
    """Memoryless system with transfer ``d`` (n = 0)."""
    d = as_matrix(d, "d")
    return StateSpace(
        np.zeros((0, 0)), np.zeros((0, d.shape[1])), np.zeros((d.shape[0], 0)), d
    )


@dataclass(frozen=True)
class PartitionedSystem:
    """A StateSpace with its inputs and outputs split into named channel groups."""

    sys: StateSpace
    input_partition: tuple
    output_partition: tuple

    def __post_init__(self):
        ip = tuple(int(k) for k in self.input_partition)
        op = tuple(int(k) for k in self.output_partition)
        if any(k < 0 for k in ip + op):
            raise DimensionError("partition sizes must be nonnegative")
        if sum(ip) != self.sys.n_inputs:
            raise DimensionError(
                f"input partition {ip} does not sum to {self.sys.n_inputs}"
            )
        if sum(op) != self.sys.n_outputs:
            raise DimensionError(
                f"output partition {op} does not sum to {self.sys.n_outputs}"
            )
        object.__setattr__(self, "input_partition", ip)
        object.__setattr__(self, "output_partition", op)

    def input_slice(self, block):
        lo = sum(self.input_partition[:block])
        return slice(lo, lo + self.input_partition[block])

    def output_slice(self, block):
        lo = sum(self.output_partition[:block])
        return slice(lo, lo + self.output_partition[block])


def subsystem(p, out_block, in_block):
    """The StateSpace from one input channel group to one output channel group."""
    s = p.sys
    ri = p.output_slice(out_block)
    ci = p.input_slice(in_block)
    return StateSpace(s.a, s.b[:, ci], s.c[ri, :], s.d[ri, ci])


def frequency_gain(sys, omega):
    """Single response matrix ``c (i omega I - a)^-1 b + d``.

    Raises SingularMatrixError when ``i omega`` sits on an eigenvalue of ``a``:
    the shifted matrix is singular in floating point or the response is not
    finite.
    """
    if not np.isfinite(omega) or omega < 0.0:
        raise DomainError(f"omega must be finite and nonnegative, got {omega}")
    if sys.is_static:
        return sys.d.astype(complex)
    m = 1j * omega * np.eye(sys.n) - sys.a
    try:
        g = sys.c @ np.linalg.solve(m, sys.b) + sys.d
    except np.linalg.LinAlgError:
        g = None
    if g is None or not np.isfinite(g).all():
        raise SingularMatrixError(
            f"frequency {omega} rad/s coincides with a system pole"
        )
    return g


def batched_response(sys, freqs):
    """Response H(i w) stacked over frequencies: shape (F, n_y, n_u)."""
    f = len(freqs)
    if sys.n == 0:
        return np.broadcast_to(sys.d, (f,) + sys.d.shape).astype(complex)
    m = 1j * freqs[:, None, None] * np.eye(sys.n) - sys.a
    x = np.linalg.solve(m, np.broadcast_to(sys.b, (f,) + sys.b.shape))
    return sys.c @ x + sys.d


def batch_sigma(g):
    """Largest singular value of each response in a stack (..., n_y, n_u),
    with any number of leading stack axes."""
    if g.shape[-2] == 1 and g.shape[-1] == 1:
        return np.abs(g[..., 0, 0])
    return np.linalg.svd(g, compute_uv=False)[..., 0]


class FrequencyKernel:
    """Frequency response of one system, factored once for many frequencies.

    The state matrix is diagonalized once, ``a = V diag(lambda) V^-1``; a
    batch of samples then costs ``(c V) diag(1 / (i w - lambda)) (V^-1 b) + d``
    (Laub 1981).  When ``cond(V)`` exceeds EIG_COND_LIMIT (a defective or
    nearly defective ``a``), responses come from dense solves instead.
    """

    def __init__(self, sys):
        self.sys = sys
        self.poles = np.zeros(0, dtype=complex)
        self._modal = None
        if sys.n:
            self.poles, v = np.linalg.eig(sys.a)
            if np.linalg.cond(v) <= EIG_COND_LIMIT:
                self._modal = (sys.c @ v, np.linalg.solve(v, sys.b))

    @property
    def dense(self):
        """True when responses come from dense solves, not the eigenbasis."""
        return self.sys.n > 0 and self._modal is None

    def response(self, omegas):
        """Responses stacked over ``omegas``, shape (F, n_y, n_u), and the mask
        of samples that sit on a pole (see frequency_gain); those hold NaN.

        Samples within NEAR_POLE_TOL of an eigenvalue go through
        frequency_gain one at a time.
        """
        omegas = np.asarray(omegas, dtype=float)
        sys = self.sys
        on_pole = np.zeros(omegas.size, dtype=bool)
        if sys.is_static:
            return batched_response(sys, omegas), on_pole
        dist = np.abs(1j * omegas[:, None] - self.poles).min(axis=1)
        near = dist <= NEAR_POLE_TOL * np.abs(self.poles).max()
        far = ~near
        g = np.empty((omegas.size,) + sys.d.shape, dtype=complex)
        if self._modal is None:
            g[far] = batched_response(sys, omegas[far])
        else:
            cv, wb = self._modal
            inv = 1.0 / (1j * omegas[far, None] - self.poles)
            g[far] = (cv * inv[:, None, :]) @ wb + sys.d
        for i in np.flatnonzero(near):
            try:
                g[i] = frequency_gain(sys, omegas[i])
            except SingularMatrixError:
                g[i] = np.nan
                on_pole[i] = True
        return g, on_pole

    def sigma(self, omegas):
        """Largest singular value at each of ``omegas``; NaN on a pole."""
        g, on_pole = self.response(omegas)
        s = np.full(on_pole.shape, np.nan)
        s[~on_pole] = batch_sigma(g[~on_pole])
        return s


def spectral_abscissa(sys):
    """Largest real part over the eigenvalues of the state matrix."""
    if sys.is_static:
        raise DomainError("static system (n = 0) has no dynamics")
    return float(np.max(np.linalg.eigvals(sys.a).real))


def series(g1, g2):
    """Cascade: the output of ``g1`` drives ``g2`` (transfer ``H2(s) H1(s)``)."""
    if g1.n_outputs != g2.n_inputs:
        raise DimensionError(
            f"series: g1 has {g1.n_outputs} outputs, g2 expects {g2.n_inputs} inputs"
        )
    n1, n2 = g1.n, g2.n
    n = n1 + n2
    a = np.zeros((n, n))
    a[:n1, :n1] = g1.a
    a[n1:, n1:] = g2.a
    a[n1:, :n1] = g2.b @ g1.c
    b = np.vstack([g1.b, g2.b @ g1.d])
    c = np.hstack([g2.d @ g1.c, g2.c])
    d = g2.d @ g1.d
    return StateSpace(a, b, c, d)


def append_diag(systems):
    """Block-diagonal stacking; inputs and outputs are concatenated in order."""
    systems = list(systems)
    if not systems:
        raise DimensionError("append_diag needs at least one system")
    n = sum(g.n for g in systems)
    nu = sum(g.n_inputs for g in systems)
    ny = sum(g.n_outputs for g in systems)
    a = np.zeros((n, n))
    b = np.zeros((n, nu))
    c = np.zeros((ny, n))
    d = np.zeros((ny, nu))
    i = j = k = 0
    for g in systems:
        a[i : i + g.n, i : i + g.n] = g.a
        b[i : i + g.n, j : j + g.n_inputs] = g.b
        c[k : k + g.n_outputs, i : i + g.n] = g.c
        d[k : k + g.n_outputs, j : j + g.n_inputs] = g.d
        i += g.n
        j += g.n_inputs
        k += g.n_outputs
    return StateSpace(a, b, c, d)
