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

# Condition bound past which a frequency sample is declared to sit on a pole.
FREQ_COND_LIMIT = 1e12


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

    Raises SingularMatrixError when ``i omega`` sits on an eigenvalue of ``a``
    to within working precision.
    """
    if not np.isfinite(omega) or omega < 0.0:
        raise DomainError(f"omega must be finite and nonnegative, got {omega}")
    if sys.is_static:
        return sys.d.astype(complex)
    m = 1j * omega * np.eye(sys.n) - sys.a
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > FREQ_COND_LIMIT:
        raise SingularMatrixError(
            f"frequency {omega} rad/s coincides with a system pole"
        )
    return sys.c @ np.linalg.solve(m, sys.b) + sys.d


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
