"""Linear fractional operators and the structured controller block.

The controller is stored as one static matrix ``k`` with the block layout

    [[a_k,  b_w,  b_u ],
     [c_z,  d_zw, d_zu],
     [c_y,  d_yw, d_yu]]

(rows n_k + n_delta + n_u, columns n_k + n_delta + n_y) together with a
per-entry mask that marks every entry as free, frozen or structurally zero.
Closing the first row/column block through an integrator bank gives the
controller dynamics; closing the second through ``rho * I`` instantiates the
parameter dependence.  ``n_delta = 0`` collapses everything to a classical
non-parametric controller.

Instantiation and closing also take a whole parameter grid at once: a 1-D
array of parameter values and a GridPlant (stack_plants) give every grid
point's matrices stacked over a leading axis, bit for bit the ones that one
point at a time gives.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, DomainError, IllPosedLFTError, ParseError
from .matops import as_matrix
from .statespace import Realization, StateSpace
from .textio import DataReader, write_lines

MASK_ZERO = 0
MASK_FREE = 1
MASK_FROZEN = 2

# Condition bound on algebraic-loop matrices past which an LFT is ill posed.
LFT_COND_LIMIT = 1e12


@dataclass(frozen=True)
class ControllerBlock:
    """Static decision matrix of a parametric controller plus its sparsity mask."""

    n_k: int
    n_delta: int
    n_u: int
    n_y: int
    k: np.ndarray = field(repr=False)
    mask: np.ndarray = field(repr=False)

    def __post_init__(self):
        if min(self.n_k, self.n_delta, self.n_u, self.n_y) < 0:
            raise DimensionError("block dimensions must be nonnegative")
        shape = (self.n_k + self.n_delta + self.n_u, self.n_k + self.n_delta + self.n_y)
        k = as_matrix(self.k, "k")
        if k.size == 0:
            k = k.reshape(shape)
        if k.shape != shape:
            raise DimensionError(f"k has shape {k.shape}, expected {shape}")
        mask = np.asarray(self.mask, dtype=np.int8)
        if mask.size == 0:
            mask = mask.reshape(shape)
        if mask.shape != shape:
            raise DimensionError(f"mask has shape {mask.shape}, expected {shape}")
        # the three codes are the consecutive integers MASK_ZERO..MASK_FROZEN
        if mask.size and not MASK_ZERO <= mask.min() <= mask.max() <= MASK_FROZEN:
            raise DomainError("mask entries must be 0 (zero), 1 (free) or 2 (frozen)")
        if np.any(k[mask == MASK_ZERO] != 0.0):
            raise DomainError("entries flagged zero in the mask must be exactly 0")
        k = np.array(k)
        k.flags.writeable = False
        mask = np.array(mask)
        mask.flags.writeable = False
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "mask", mask)

    # Block boundaries inside k: rows split at n_k and n_k + n_delta, columns too.
    @property
    def _r1(self):
        return self.n_k

    @property
    def _r2(self):
        return self.n_k + self.n_delta

    @property
    def a_k(self):
        return self.k[: self._r1, : self._r1]

    @property
    def b_w(self):
        return self.k[: self._r1, self._r1 : self._r2]

    @property
    def b_u(self):
        return self.k[: self._r1, self._r2 :]

    @property
    def c_z(self):
        return self.k[self._r1 : self._r2, : self._r1]

    @property
    def d_zw(self):
        return self.k[self._r1 : self._r2, self._r1 : self._r2]

    @property
    def d_zu(self):
        return self.k[self._r1 : self._r2, self._r2 :]

    @property
    def c_y(self):
        return self.k[self._r2 :, : self._r1]

    @property
    def d_yw(self):
        return self.k[self._r2 :, self._r1 : self._r2]

    @property
    def d_yu(self):
        return self.k[self._r2 :, self._r2 :]

    def with_k(self, k):
        """Same structure with a new value matrix (mask invariants re-checked)."""
        return replace(self, k=k)

    def free_values(self):
        """Vector of the entries flagged free, in row-major order."""
        return self.k[self.mask == MASK_FREE].copy()

    def with_free_values(self, theta):
        """Same block with the free entries replaced by ``theta``."""
        theta = np.asarray(theta, dtype=float).ravel()
        idx = self.mask == MASK_FREE
        if theta.size != int(idx.sum()):
            raise DimensionError(
                f"expected {int(idx.sum())} free values, got {theta.size}"
            )
        k = np.array(self.k)
        k[idx] = theta
        return self.with_k(k)


def count_free_params(kb):
    """Number of mask entries flagged free."""
    return int(np.count_nonzero(kb.mask == MASK_FREE))


def zero_block(n_k, n_delta, n_u, n_y, mask=None):
    """All-zero controller block; default mask leaves every entry free."""
    shape = (n_k + n_delta + n_u, n_k + n_delta + n_y)
    if mask is None:
        mask = np.full(shape, MASK_FREE, dtype=np.int8)
    return ControllerBlock(n_k, n_delta, n_u, n_y, np.zeros(shape), mask)


def _check_loop(m, what):
    """Raise IllPosedLFTError when the algebraic loop matrix ``m`` is ill
    conditioned.  For a stack of loops (M, n, n) the error reports the first
    ill-posed one as ``grid_index``, and ``what`` may be a function of that
    index."""
    if m.shape[-1] == 0:
        return
    cond = np.linalg.cond(m)
    bad = ~(cond <= LFT_COND_LIMIT)  # a NaN estimate is ill posed too
    if not bad.any():
        return
    j = int(np.argmax(bad))
    index = j if m.ndim == 3 else None
    raise IllPosedLFTError(
        f"ill-posed {what(index) if callable(what) else what}: "
        f"algebraic loop condition estimate {np.ravel(cond)[j]:.3e}",
        grid_index=index,
    )


def upper_lft_matrix(m, delta):
    """Close the leading block of ``m`` with ``delta``.

    With ``m`` split as [[m11, m12], [m21, m22]] where ``m11`` matches
    ``delta.T`` in shape, returns ``m22 + m21 delta (I - m11 delta)^-1 m12``.
    """
    m = np.asarray(m)
    delta = np.asarray(delta)
    if delta.size == 0:
        q1 = p1 = 0
    else:
        q1, p1 = delta.shape
    if p1 > m.shape[0] or q1 > m.shape[1]:
        raise DimensionError(
            f"delta of shape {delta.shape} does not fit a matrix of shape {m.shape}"
        )
    m11 = m[:p1, :q1]
    m12 = m[:p1, q1:]
    m21 = m[p1:, :q1]
    m22 = m[p1:, q1:]
    if p1 == 0:
        return m22.copy()
    loop = np.eye(p1) - m11 @ delta
    _check_loop(loop, "upper LFT")
    return m22 + m21 @ (delta @ np.linalg.solve(loop, m12))


GridPlant = namedtuple("GridPlant", ["sys", "input_partition", "output_partition"])
GridPlant.__doc__ = """Partitioned plants of one grid, their matrices stacked
over a leading axis in ``sys`` (a Realization); see stack_plants."""


def stack_plants(plants):
    """One GridPlant of partitioned plants that share their state order and
    channel partitions; raises DimensionError when they do not."""
    plants = tuple(plants)
    orders = {p.sys.n for p in plants}
    if len(orders) != 1:
        raise DimensionError(f"grid plants differ in state order: {sorted(orders)}")
    parts = {(p.input_partition, p.output_partition) for p in plants}
    if len(parts) != 1:
        raise DimensionError(f"grid plants disagree on channel partitions: {parts}")
    sys = Realization(*(np.stack([getattr(p.sys, m) for p in plants]) for m in "abcd"))
    return GridPlant(sys, *parts.pop())


def closed_loop_matrices(plant, k):
    """State-space matrices of the lower LFT of a partitioned plant with ``k``.

    ``plant`` is a PartitionedSystem with inputs [w; u] and outputs [z; y];
    ``k`` is the controller realization mapping y to u (a StateSpace or a
    Realization).  Returns the Realization of the closed transfer w -> z with
    n_plant + n_k states.  A GridPlant with the controllers stacked over the
    same grid axis closes every grid point at once; an ill-posed feedback
    loop then raises IllPosedLFTError with the first such point as
    ``grid_index``.
    """
    s = plant.sys
    if len(plant.input_partition) != 2 or len(plant.output_partition) != 2:
        raise DimensionError("plant must have 2x2 channel partitions [w;u] -> [z;y]")
    n_w, n_u = plant.input_partition
    n_z, n_y = plant.output_partition
    a, b, c, d = s.a, s.b, s.c, s.d
    ak, bk, ck, dk = k.a, k.b, k.c, k.d
    if bk.shape[-1] != n_y or ck.shape[-2] != n_u:
        raise DimensionError(
            f"controller maps {bk.shape[-1]} -> {ck.shape[-2]}, "
            f"plant expects {n_y} -> {n_u}"
        )
    b1, b2 = b[..., :n_w], b[..., n_w:]
    c1, c2 = c[..., :n_z, :], c[..., n_z:, :]
    d11, d12 = d[..., :n_z, :n_w], d[..., :n_z, n_w:]
    d21, d22 = d[..., n_z:, :n_w], d[..., n_z:, n_w:]

    # u = s_inv (dk c2 x + ck xk + dk d21 w) with s_inv = (I - dk d22)^-1
    loop = np.eye(n_u) - dk @ d22
    _check_loop(loop, "feedback interconnection")
    s_dk_c2 = np.linalg.solve(loop, dk @ c2)
    s_ck = np.linalg.solve(loop, ck)
    s_dk_d21 = np.linalg.solve(loop, dk @ d21)

    n, nk = a.shape[-1], ak.shape[-1]
    acl = np.zeros(loop.shape[:-2] + (n + nk, n + nk))
    acl[..., :n, :n] = a + b2 @ s_dk_c2
    acl[..., :n, n:] = b2 @ s_ck
    acl[..., n:, :n] = bk @ (c2 + d22 @ s_dk_c2)
    acl[..., n:, n:] = ak + bk @ (d22 @ s_ck)
    bcl = np.concatenate([b1 + b2 @ s_dk_d21, bk @ (d21 + d22 @ s_dk_d21)], axis=-2)
    ccl = np.concatenate([c1 + d12 @ s_dk_c2, d12 @ s_ck], axis=-1)
    dcl = d11 + d12 @ s_dk_d21
    return Realization(acl, bcl, ccl, dcl)


def lower_lft_ss(plant, k):
    """Closed-loop StateSpace w -> z of a partitioned plant with controller ``k``."""
    return StateSpace(*closed_loop_matrices(plant, k))


def eval_controller_matrices(kb, rho):
    """Realization (a, b, c, d) of the controller instantiated at ``rho``.

    Closes the parameter channel of the block with ``rho * I``:

        a = a_k + b_w delta m c_z      b = b_u + b_w delta m d_zu
        c = c_y + d_yw delta m c_z     d = d_yu + d_yw delta m d_zu

    with ``delta = rho I`` and ``m = (I - d_zw delta)^-1``.  A 1-D array of
    parameter values gives the realizations stacked over a leading axis, and
    an ill-posed parameter loop then raises IllPosedLFTError with the first
    such value's index as ``grid_index``.
    """
    rho = np.asarray(rho, dtype=float)
    lead = rho.shape
    nd = kb.n_delta
    if nd == 0:
        return Realization(*(
            np.broadcast_to(m, lead + m.shape).copy()
            for m in (kb.a_k, kb.b_u, kb.c_y, kb.d_yu)
        ))
    scale = rho[..., None, None]
    loop = np.eye(nd) - scale * kb.d_zw
    _check_loop(
        loop,
        lambda j: f"parametric controller at rho = {float(rho if j is None else rho[j])}",
    )
    m_cz = scale * np.linalg.solve(loop, kb.c_z)
    m_dzu = scale * np.linalg.solve(loop, kb.d_zu)
    a = kb.a_k + kb.b_w @ m_cz
    b = kb.b_u + kb.b_w @ m_dzu
    c = kb.c_y + kb.d_yw @ m_cz
    d = kb.d_yu + kb.d_yw @ m_dzu
    return Realization(a, b, c, d)


def instantiation_factors(kb, rho):
    """Static factors ``(l1, r1)`` of the derivative of the instantiation.

    The realization of eval_controller_matrices, stacked as
    ``[[a, b], [c, d]]``, moves with the block by ``l1 dk r1``: the block's
    state and output rows and columns enter as they are, its parameter rows
    through ``rho [b_w; d_yw] m`` and its parameter columns through
    ``rho m [c_z, d_zu]``, with ``m = (I - rho d_zw)^-1``.  The block must be
    well posed at ``rho``.  A 1-D array of parameter values gives the factors
    stacked over a leading axis, bit for bit the ones of one value at a time.
    """
    rho = np.asarray(rho, dtype=float)
    lead = rho.shape
    nk, nd = kb.n_k, kb.n_delta
    l1 = np.zeros(lead + (nk + kb.n_u, kb.k.shape[0]))
    l1[..., :nk, :nk] = np.eye(nk)
    l1[..., nk:, nk + nd :] = np.eye(kb.n_u)
    r1 = np.zeros(lead + (kb.k.shape[1], nk + kb.n_y))
    r1[..., :nk, :nk] = np.eye(nk)
    r1[..., nk + nd :, nk:] = np.eye(kb.n_y)
    if nd:
        scale = rho[..., None, None]
        loop = np.eye(nd) - scale * kb.d_zw
        l1[..., :, nk : nk + nd] = scale * np.swapaxes(
            np.linalg.solve(np.swapaxes(loop, -1, -2), np.vstack([kb.b_w, kb.d_yw]).T),
            -1, -2,
        )
        r1[..., nk : nk + nd, :] = scale * np.linalg.solve(
            loop, np.hstack([kb.c_z, kb.d_zu])
        )
    return l1, r1


def eval_controller(kb, rho):
    """StateSpace of the controller at parameter value ``rho``."""
    return StateSpace(*eval_controller_matrices(kb, rho))


# ---------------------------------------------------------------------------
# Controller file format: header "n_k n_delta n_u n_y", the k-matrix rows,
# then the mask rows (0 = zero, 1 = free, 2 = frozen).

def save_controller(kb, path):
    rows, cols = kb.k.shape
    lines = ["# controller block: k matrix then mask (0=zero,1=free,2=frozen)"]
    lines.append(f"{kb.n_k} {kb.n_delta} {kb.n_u} {kb.n_y}")
    for i in range(rows):
        lines.append(" ".join(f"{v:.17g}" for v in kb.k[i]))
    for i in range(rows):
        lines.append(" ".join(str(int(v)) for v in kb.mask[i]))
    write_lines(path, lines)


def load_controller(path):
    data = DataReader(path)
    n_k, n_delta, n_u, n_y = data.header(("n_k", "n_delta", "n_u", "n_y"), "controller")
    rows = n_k + n_delta + n_u
    cols = n_k + n_delta + n_y
    k = data.block("k matrix", rows, cols)
    mask = data.block("mask", rows, cols, int, np.int8)
    data.finish()
    try:
        return ControllerBlock(n_k, n_delta, n_u, n_y, k, mask)
    except (DimensionError, DomainError) as exc:
        raise ParseError(f"{path}: inconsistent controller data: {exc}") from exc
