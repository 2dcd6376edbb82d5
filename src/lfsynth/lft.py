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

close_grid instantiates and closes a whole grid at once: every point's
matrices stacked over a leading axis, bit for bit its one-point ones, and a
mask of the points whose algebraic loops are well posed and whose matrices
are finite.  Only the one-point functions raise IllPosedLFTError.
"""

from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionError, DomainError, IllPosedLFTError, ParseError
from .matops import as_matrix
from .statespace import Realization, StateSpace
from .textio import DataReader, format_row, write_lines

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
        """Same block with the free entries set to ``theta``, sharing the mask unchecked."""
        theta = as_matrix(theta, "k").ravel()  # DomainError when not finite
        idx = self.mask == MASK_FREE
        if theta.size != int(idx.sum()):
            raise DimensionError(
                f"expected {int(idx.sum())} free values, got {theta.size}"
            )
        k = np.array(self.k)
        k[idx] = theta
        k.flags.writeable = False
        block = object.__new__(ControllerBlock)
        block.__dict__.update(self.__dict__, k=k)
        return block


def count_free_params(kb):
    """Number of mask entries flagged free."""
    return int(np.count_nonzero(kb.mask == MASK_FREE))


def zero_block(n_k, n_delta, n_u, n_y, mask=None):
    """All-zero controller block; default mask leaves every entry free."""
    shape = (n_k + n_delta + n_u, n_k + n_delta + n_y)
    if mask is None:
        mask = np.full(shape, MASK_FREE, dtype=np.int8)
    return ControllerBlock(n_k, n_delta, n_u, n_y, np.zeros(shape), mask)


def _finite(*matrices):
    """Mask (...) of the points whose matrices (..., r, c) are all finite."""
    ok = np.isfinite(matrices[0]).all(axis=(-2, -1))
    for m in matrices[1:]:
        ok &= np.isfinite(m).all(axis=(-2, -1))
    return ok


def _well_posed(loop):
    """Well-posed mask (...) of the algebraic loop matrices (..., n, n),
    which must be finite with condition estimates within LFT_COND_LIMIT (a
    1x1 loop's is 1 when nonzero, inf at zero: no SVD needed), and the loops
    with the identity in place of each ill-posed one, so that a stacked
    solve runs every other loop bit for bit as it runs alone."""
    n = loop.shape[-1]
    ok = np.isfinite(loop).all(axis=(-2, -1))
    if n == 1:
        ok &= loop[..., 0, 0] != 0.0
    elif n:  # cond fails on non-finite matrices
        safe = loop if ok.all() else np.where(ok[..., None, None], loop, np.eye(n))
        ok &= np.linalg.cond(safe) <= LFT_COND_LIMIT
    if not ok.all():
        loop = np.where(ok[..., None, None], loop, np.eye(n))
    return ok, loop


def _require(ok, what):
    """Raise IllPosedLFTError naming ``what`` when one point's loop is ill
    posed (``ok`` False)."""
    if not ok:
        raise IllPosedLFTError(
            f"ill-posed {what}: not finite, or loop condition estimate above {LFT_COND_LIMIT:.0e}"
        )


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


@np.errstate(over="ignore", invalid="ignore")  # a non-finite point is only masked
def closed_loop_matrices(plant, k):
    """State-space matrices of the lower LFT of a partitioned plant with ``k``.

    ``plant`` is a PartitionedSystem with inputs [w; u] and outputs [z; y];
    ``k`` is the controller realization mapping y to u (a StateSpace or a
    Realization).  Returns the Realization of the closed transfer w -> z with
    n_plant + n_k states and the mask of the points whose matrices are finite
    and whose loop ``I - dk d22`` is well posed (0-d for one point).  A
    GridPlant with the controllers stacked over the same grid axis closes
    every grid point at once, and controllers stacked (B, M, ...) over blocks
    too, the plants broadcasting over the blocks; the mask is then stacked
    (M,) or (B, M), and an ill-posed point's matrices are not its own.
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
    ok, loop = _well_posed(np.eye(n_u) - dk @ d22)
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
    return Realization(acl, bcl, ccl, dcl), ok & _finite(acl, bcl, ccl, dcl)


def lower_lft_ss(plant, k):
    """Closed-loop StateSpace w -> z of a partitioned plant with controller
    ``k``; raises IllPosedLFTError when the feedback loop is ill posed."""
    closed, ok = closed_loop_matrices(plant, k)
    _require(ok, "feedback interconnection")
    return StateSpace(*closed)


def eval_controller_matrices(kb, rho):
    """Realization (a, b, c, d) of the controller instantiated at one
    parameter value ``rho`` (see instantiate_stack); raises IllPosedLFTError
    when its parameter loop is ill posed."""
    ctrl, ok = instantiate_stack(kb, kb.k, rho)
    _require(ok, f"parametric controller at rho = {float(rho)}")
    return ctrl


GridLoops = namedtuple("GridLoops", ["ctrl", "closed", "well_posed"])


def close_grid(plant, kb, rho, k=None):
    """Controllers of ``kb`` instantiated at every value of the 1-D ``rho``
    and closed against the GridPlant ``plant`` (one plant per value): the
    controllers and closed loops (Realizations) stacked (M, ...), and the
    mask (M,) of the points whose parameter and feedback loops are both well
    posed.  With ``k``, value matrices stacked (B, rows, cols) with kb's
    sizes, each of those blocks is closed instead, all stacked (B, M, ...).
    A well-posed point's matrices are bit for bit its one-point ones; an
    ill-posed point's are not its own.
    """
    ctrl, instantiated = instantiate_stack(kb, kb.k if k is None else k, rho)
    closed, closed_ok = closed_loop_matrices(plant, ctrl)
    return GridLoops(ctrl, closed, instantiated & closed_ok)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite point is only masked
def instantiate_stack(kb, k, rho):
    """Realizations of the controllers with values ``k`` at ``rho``.

    ``k`` holds value matrices with kb's sizes (and mask), alone or stacked
    over leading axes (B, rows, cols); each is instantiated at every value
    of ``rho``, so the matrices come stacked (B, M, ...) for a 1-D ``rho``
    of M values.  Closes the parameter channel of each block with
    ``rho * I``:

        a = a_k + b_w delta m c_z      b = b_u + b_w delta m d_zu
        c = c_y + d_yw delta m c_z     d = d_yu + d_yw delta m d_zu

    with ``delta = rho I`` and ``m = (I - d_zw delta)^-1``.  Every block and
    value gets bit for bit the matrices that it gets alone.  Returns the
    Realization and the mask of the (block, value) points whose matrices
    are finite and whose parameter loop is well posed, stacked as those.
    """
    rho = np.asarray(rho, dtype=float)
    k = np.asarray(k, dtype=float)
    lead = k.shape[:-2] + rho.shape
    r1, r2 = kb.n_k, kb.n_k + kb.n_delta

    def part(rows, cols):
        # one sub-block of every value matrix, broadcast over the values of rho
        sub = k[..., rows, cols]
        return sub.reshape(sub.shape[:-2] + (1,) * rho.ndim + sub.shape[-2:])

    cuts = (slice(None, r1), slice(r1, r2), slice(r2, None))
    (a_k, b_w, b_u), (c_z, d_zw, d_zu), (c_y, d_yw, d_yu) = (
        [part(rows, cols) for cols in cuts] for rows in cuts
    )
    nd = kb.n_delta
    if nd == 0:
        ok = True
        a, b, c, d = (np.broadcast_to(m, lead + m.shape[-2:]).copy() for m in (a_k, b_u, c_y, d_yu))
    else:
        scale = rho[..., None, None]
        ok, loop = _well_posed(np.eye(nd) - scale * d_zw)
        m_cz = scale * np.linalg.solve(loop, c_z)
        m_dzu = scale * np.linalg.solve(loop, d_zu)
        a = a_k + b_w @ m_cz
        b = b_u + b_w @ m_dzu
        c = c_y + d_yw @ m_cz
        d = d_yu + d_yw @ m_dzu
    return Realization(a, b, c, d), ok & _finite(a, b, c, d)


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
    lines = ["# controller block: k matrix then mask (0=zero,1=free,2=frozen)"]
    lines.append(f"{kb.n_k} {kb.n_delta} {kb.n_u} {kb.n_y}")
    lines += [format_row(row) for row in kb.k]
    lines += [format_row(row) for row in kb.mask]
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
