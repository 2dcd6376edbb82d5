"""Continuous-time state-space realizations and their interconnections.

A system is the quadruple (a, b, c, d) with transfer ``c (sI - a)^-1 b + d``.
``n = 0`` encodes a static gain, so interconnection code never special-cases
memoryless blocks.  All types are immutable after construction and every
operation is a pure function, so concurrent evaluation is safe.

FrequencyKernel is the one code that eigen-factors systems for frequency
responses and resolvent products; norms, the bode curves and the synthesis
surrogate all sample through it.

Text file format (shared with :func:`lfsynth.models.load_statespace`): the
first data line is ``n n_u n_y``; then n rows of n A-entries, n rows of n_u
B-entries, n_y rows of n C-entries and n_y rows of n_u D-entries, all
whitespace-separated decimal floats.  Lines starting with '#' are comments.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, DomainError, SingularMatrixError
from .matops import as_matrix

# Within this distance of an eigenvalue of ``a``, relative to the largest
# eigenvalue magnitude, an eigenbasis sample loses accuracy (the eigenvalue's
# own rounding error is divided by the distance), so FrequencyKernel solves
# such samples densely instead.
NEAR_POLE_TOL = 1e-8
# FrequencyKernel's default limit on the condition number of a point's
# eigenvector matrix, past which it solves densely instead of in the eigenbasis.
EIG_COND_LIMIT = 1e8
# Bytes of the largest complex (points, frequencies, states) temporary that
# FrequencyKernel.sigma builds; a longer scan runs in column blocks.
SCAN_BLOCK_BYTES = 2**19


Realization = namedtuple("Realization", ["a", "b", "c", "d"])
Realization.__doc__ = """State-space matrices (a, b, c, d) of one system, or
of one system per grid point stacked over a leading axis."""


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


def batch_sigma(g):
    """Largest singular value of each response in a stack (..., n_y, n_u),
    with any number of leading stack axes."""
    if g.shape[-2] == 1 and g.shape[-1] == 1:
        return np.abs(g[..., 0, 0])
    return np.linalg.svd(g, compute_uv=False)[..., 0]


def _shifted_solve(a, omegas, rhs):
    """``(i w I - a)^-1 rhs`` by one dense solve per frequency, for ``a`` and
    ``rhs`` stacked over the same leading axes as the rows of ``omegas``:
    shape (..., F, n, q)."""
    m = 1j * omegas[..., None, None] * np.eye(a.shape[-1]) - a[..., None, :, :]
    rhs = np.broadcast_to(rhs[..., None, :, :], m.shape[:-1] + rhs.shape[-1:])
    return np.linalg.solve(m, rhs)


class FrequencyKernel:
    """Frequency responses and resolvent products of systems stacked over a
    leading axis, each factored once for many frequencies.

    ``systems`` holds the matrices (a, b, c, d) of M systems that share
    their state order, stacked as (M, n, n), (M, n, n_u) and so on (a
    Realization); a StateSpace is a stack of one.  Each state matrix is
    diagonalized once, ``a = V diag(lambda) V^-1``; a batch of samples then
    costs ``(c V) diag(1 / (i w - lambda)) (V^-1 b) + d`` (Laub 1981), and
    the resolvent ``X = (i w I - a)^-1`` is ``V diag(1 / (i w - lambda))
    V^-1``.  The eigenbasis loses about ``eps cond(V)`` of relative
    accuracy, so a point whose ``cond(V)`` exceeds ``cond_limit`` (a
    defective or nearly defective ``a``) takes dense solves with ``i w I -
    a`` instead.  A sample on a pole raises SingularMatrixError.
    """

    def __init__(self, systems, cond_limit=EIG_COND_LIMIT):
        a, b, c, d = (np.asarray(getattr(systems, m), dtype=float) for m in "abcd")
        if a.ndim == 2:
            a, b, c, d = a[None], b[None], c[None], d[None]
        self.a, self.b, self.c, self.d = a, b, c, d
        m, n = a.shape[0], a.shape[-1]
        # eigenvectors as eig gives them for the stack, and the modal factors
        # c V and V^-1 b of each point alone, zero at dense points
        self.poles, self._v = np.linalg.eig(a)
        self.dense = np.zeros(m, dtype=bool)
        self._cv = np.zeros((m, c.shape[1], n), dtype=complex)
        self._wb = np.zeros((m, n, b.shape[2]), dtype=complex)
        # eig returns real eigenvectors for a real spectrum, and the products
        # below round differently on those: each point takes its vectors in
        # the type eig gives it alone, so the real-spectrum and the complex-
        # spectrum points are factored apart, each group in stacked calls,
        # which give each point the factors it gets alone.
        real = (self.poles.imag == 0.0).all(axis=1)
        for group, vectors in ((real, self._v.real), (~real, self._v)):
            if not (n and group.any()):
                continue  # nothing to factor, and cond is undefined on empty matrices
            vectors = vectors[group]
            modal = np.linalg.cond(vectors) <= cond_limit
            self.dense[group] = ~modal
            points = np.flatnonzero(group)[modal]
            self._cv[points] = c[points] @ vectors[modal]
            self._wb[points] = np.linalg.solve(vectors[modal], b[points])

    def take(self, points):
        """The kernel of some points of the stack (an index or a mask),
        without factoring them again."""
        sub = object.__new__(FrequencyKernel)
        for name in ("a", "b", "c", "d", "poles", "dense", "_v", "_cv", "_wb"):
            setattr(sub, name, getattr(self, name)[points])
        return sub

    def _rows(self, omegas):
        """Shared (F,) or per-point (M, F) frequencies as one row per point."""
        omegas = np.asarray(omegas, dtype=float)
        return np.broadcast_to(omegas, (self.a.shape[0], omegas.shape[-1]))

    def _modal(self):
        """Selector of the modal points: a slice when every point is modal,
        so the selections copy nothing."""
        return slice(None) if not self.dense.any() else ~self.dense

    def _modal_diag(self, omegas, modal):
        """``1 / (i w - lambda)`` of the modal points over shared (F,) or
        per-point (M, F) frequencies: (., F, n)."""
        w = omegas[modal] if omegas.ndim == 2 else omegas
        return 1.0 / (1j * w[..., None] - self.poles[modal][:, None, :])

    @cached_property
    def _v_inv(self):
        """``V^-1`` of the modal points, for the resolvent products."""
        return np.linalg.inv(self._v[self._modal()])

    def response(self, omegas):
        """Responses at ``omegas``, shared (F,) or a row per point (M, F),
        shape (M, F, n_y, n_u).

        Samples within NEAR_POLE_TOL of an eigenvalue go through
        frequency_gain one at a time, which raises SingularMatrixError for a
        sample on a pole.
        """
        a, b, c, d = self.a, self.b, self.c, self.d
        omegas = self._rows(omegas)
        dist = np.abs(1j * omegas[..., None] - self.poles[:, None, :]).min(axis=-1, initial=np.inf)
        near = dist <= NEAR_POLE_TOL * np.abs(self.poles).max(axis=-1, initial=0.0)[:, None]
        g = np.empty(omegas.shape + d.shape[1:], dtype=complex)
        modal = self._modal()
        # samples on a pole divide by zero here; the near-pole pass below
        # overwrites them
        with np.errstate(divide="ignore", invalid="ignore"):
            g[modal] = (
                (self._cv[modal][:, None] * self._modal_diag(omegas, modal)[..., None, :])
                @ self._wb[modal][:, None] + d[modal][:, None]
            )
        for j in np.flatnonzero(self.dense):
            far = ~near[j]
            g[j, far] = c[j] @ _shifted_solve(a[j], omegas[j, far], b[j]) + d[j]
        for j, i in zip(*np.nonzero(near)):
            g[j, i] = frequency_gain(StateSpace(a[j], b[j], c[j], d[j]), omegas[j, i])
        return g

    def sigma(self, omegas):
        """Largest singular value at each sample of ``response``, shape (M, F),
        sampled in column blocks so that no complex (M, F_block, n) temporary
        exceeds SCAN_BLOCK_BYTES; each gain is the one a single block gives."""
        omegas = np.asarray(omegas, dtype=float)
        m, n = self.a.shape[0], self.a.shape[-1]
        width = max(1, SCAN_BLOCK_BYTES // (16 * max(m * n, 1)))
        out = np.empty((m, omegas.shape[-1]))
        for lo in range(0, omegas.shape[-1], width):
            out[:, lo : lo + width] = batch_sigma(self.response(omegas[..., lo : lo + width]))
        return out

    def resolvent_b(self, omegas):
        """``X b`` at ``omegas``, shared (F,) or a row per point (M, F): shape
        (M, F, n, n_u); modal points take ``V (d * V^-1 b)`` with ``d = 1 /
        (i w - lambda)``."""
        omegas, modal, dense = np.asarray(omegas, dtype=float), self._modal(), self.dense
        wb = (self._v_inv @ self.b[modal])[:, None]
        x = self._v[modal][:, None] @ (self._modal_diag(omegas, modal)[..., None] * wb)
        if not dense.any():
            return x
        omegas, out = self._rows(omegas), np.empty(dense.shape + x.shape[1:], dtype=complex)
        out[~dense], out[dense] = x, _shifted_solve(self.a[dense], omegas[dense], self.b[dense])
        return out

    def c_resolvent(self, omegas):
        """``c X`` at ``omegas``, shared (F,) or a row per point (M, F): shape
        (M, F, n_y, n); modal points take ``((c V) * d) V^-1``, and dense
        points solve with the transposed shifted matrix."""
        omegas, modal, dense = np.asarray(omegas, dtype=float), self._modal(), self.dense
        cv = (self.c[modal] @ self._v[modal])[:, None]
        x = (cv * self._modal_diag(omegas, modal)[:, :, None, :]) @ self._v_inv[:, None]
        if not dense.any():
            return x
        omegas, out = self._rows(omegas), np.empty(dense.shape + x.shape[1:], dtype=complex)
        a_t, c_t = (np.swapaxes(m[dense], -1, -2) for m in (self.a, self.c))
        out[~dense] = x
        out[dense] = np.swapaxes(_shifted_solve(a_t, omegas[dense], c_t), -1, -2)
        return out


def spectral_abscissa(sys):
    """Largest real part over the eigenvalues of the state matrix."""
    if sys.is_static:
        raise DomainError("static system (n = 0) has no dynamics")
    return float(np.max(np.linalg.eigvals(sys.a).real))


def series_matrices(g1, g2):
    """Realization of the cascade ``H2(s) H1(s)``: the output of ``g1``
    drives ``g2``.  Systems stacked over the same leading axes (as
    Realizations) give every point's cascade at once."""
    n1, n2 = g1.a.shape[-1], g2.a.shape[-1]
    a = np.zeros(g1.a.shape[:-2] + (n1 + n2, n1 + n2))
    a[..., :n1, :n1] = g1.a
    a[..., n1:, n1:] = g2.a
    a[..., n1:, :n1] = g2.b @ g1.c
    b = np.concatenate([g1.b, g2.b @ g1.d], axis=-2)
    c = np.concatenate([g2.d @ g1.c, g2.c], axis=-1)
    return Realization(a, b, c, g2.d @ g1.d)


def series(g1, g2):
    """Cascade: the output of ``g1`` drives ``g2`` (transfer ``H2(s) H1(s)``)."""
    if g1.n_outputs != g2.n_inputs:
        raise DimensionError(
            f"series: g1 has {g1.n_outputs} outputs, g2 expects {g2.n_inputs} inputs"
        )
    return StateSpace(*series_matrices(g1, g2))


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
