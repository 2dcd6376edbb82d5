"""Worst-case controller synthesis over a finite grid of parameter values.

The decision variable is the free part of a ControllerBlock.  For each grid
value rho_j the block is instantiated into a controller, closed against the
j-th generalized plant, and the controller itself is passed through a
stability/roll-off weight; the objective is the max of the H-infinity norms
of all 2M resulting channels.  Minimization runs on a smoothed surrogate (a
soft-max over frequency-gridded gains with decreasing smoothing), with
closed-form gradients (each gain moves by ``Re(u^H dT v)`` through its top
singular vectors, as in Apkarian and Noll's nonsmooth H-infinity synthesis),
BFGS updates and a backtracking line search; candidate values are
re-certified with the Hamiltonian-based norm and the surrogate grid is
enriched at certified peaks until both agree.  Stabilization alone uses
finite differences: central differences of a softened abscissa, all 2n probe
blocks of a gradient closed in one stacked pass.

The descent runs on a design set of grid points, at first the grid's ends
and middle value (SynthesisProblem.subgrid is the problem on them), after
Apkarian, Dao and Noll's active-set scheme for parametric synthesis.  Each
round of descent ends with one certificate of its block over the whole
grid: a point outside the set whose certified value exceeds the set's joins
it, and the descent goes on from that block; otherwise the set's part of
the certificate decides the next round's surrogate grid.  The reported
values always come from the whole grid.

Every evaluation closes the block in one place, _closed_loops, in one pass
over its problem's grid (and over a leading axis of blocks, for
stabilization's probes): the plants share their state order, and so do the
weights, so their matrices are stacked once and lft broadcasts the algebra
over those axes.  The problem keeps its latest block's loops, so the
surrogate, the certificate and stabilization close each block once.  A grid
point is stable when its closed loop and its controller are; a point whose
loops are ill posed or not finite, which lft's mask marks, is never stable.
The certificate, the surrogate and stabilization all score a block infinite
at a point that is not stable.  A certificate is two stacked level-set
passes over the whole grid, one over the closed loops and one over the
weighted controllers.
The surrogate takes plant and weight responses from two eigen-factored
FrequencyKernels stacked over the grid, one for the plants and one for the
weights, and the controllers' resolvent products from a third one, built
per evaluated block at a tighter condition limit, which the gradient
reuses.  Each block takes one fixed-grid pass stacked over the grid, from
the controllers instantiated once.  A line-search trial whose soft-max over
those gains alone, a lower bound of its value, already fails the Armijo
test is rejected there, before its loops are closed.  Every other block
closes its loops from the same instantiation and adds a pass over each
grid point's few needle samples; a gradient covers both passes.  A 1x1
channel's singular pair comes in closed form.  A block that is ill posed or
unstable at some grid point, or whose surrogate solve fails, scores
infinite, so the line search rejects it, as in nonsmooth H-infinity
synthesis: accepted iterates are always strictly stabilizing on the design
set.
"""

import time
from collections import deque, namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    StabilizationFailedError,
    UnstableError,
)
from .lft import (
    MASK_FREE,
    MASK_ZERO,
    ControllerBlock,
    closed_loop_matrices,
    count_free_params,
    instantiate_stack,
    instantiation_factors,
    stack_plants,
    zero_block,
)
from .norms import _hinf_norms
from .statespace import (
    FrequencyKernel,
    Realization,
    StateSpace,
    append_diag,
    batch_sigma,
    series_matrices,
    spectral_abscissa,
)

# ---------------------------------------------------------------------------
# Problem description


@dataclass(frozen=True)
class StructureOptions:
    """Controller structure: order, parameter repetition and sparsity choices."""

    n_k: int
    n_delta: int
    controller_class: str = "full-hinf"  # or "strictly-proper-h2"
    dependency: str = "rational"  # or "affine"
    a_k_shape: str = "full"  # or "tridiagonal"

    def __post_init__(self):
        if self.n_k < 0 or self.n_delta < 0:
            raise DimensionError("n_k and n_delta must be nonnegative")
        if self.controller_class not in ("full-hinf", "strictly-proper-h2"):
            raise DomainError(f"unknown controller class {self.controller_class!r}")
        if self.dependency not in ("rational", "affine"):
            raise DomainError(f"unknown dependency {self.dependency!r}")
        if self.a_k_shape not in ("full", "tridiagonal"):
            raise DomainError(f"unknown a_k shape {self.a_k_shape!r}")


def build_mask(structure, n_u, n_y):
    """Free/frozen/zero mask matching a structure choice.

    * full-hinf leaves every block free; strictly-proper-h2 pins d_yu, d_zu
      and d_yw to zero so the controller rolls off at high frequency.
    * affine dependency pins d_zw to zero (the instantiated controller
      matrices then depend affinely on the parameter).
    * the tridiagonal shape zeroes a_k outside its three central diagonals.
    """
    nk, nd = structure.n_k, structure.n_delta
    rows = nk + nd + n_u
    cols = nk + nd + n_y
    mask = np.full((rows, cols), MASK_FREE, dtype=np.int8)
    if structure.controller_class == "strictly-proper-h2":
        mask[nk : nk + nd, nk + nd :] = MASK_ZERO  # d_zu
        mask[nk + nd :, nk : nk + nd] = MASK_ZERO  # d_yw
        mask[nk + nd :, nk + nd :] = MASK_ZERO  # d_yu
    if structure.dependency == "affine":
        mask[nk : nk + nd, nk : nk + nd] = MASK_ZERO  # d_zw
    if structure.a_k_shape == "tridiagonal":
        for i in range(nk):
            for j in range(nk):
                if abs(i - j) > 1:
                    mask[i, j] = MASK_ZERO
    return mask


def _broadcast_weight(wk, n_u):
    """Replicate a SISO weight block-diagonally to accept n_u controller outputs."""
    if wk.n_inputs == n_u:
        return wk
    if wk.n_inputs == 1 and wk.n_outputs == 1:
        return append_diag([wk] * n_u)
    raise DimensionError(
        f"weight accepts {wk.n_inputs} inputs, controller produces {n_u}"
    )


@dataclass(frozen=True)
class SynthesisProblem:
    """Grid of generalized plants, parameter values, weight(s) and structure.

    ``wk`` may be a single StateSpace (used at every grid point) or one per
    grid point, for weights that themselves depend on the parameter.  Weights
    must be stable, so that the controller poles decide the stability of the
    weighted controller channel.  The plants must share their state order:
    ``stacked`` holds their matrices stacked over the grid (see
    lft.stack_plants), which closes every grid point in one pass.  So must
    the weights, with their output count: ``weights`` holds their matrices
    stacked over the grid (a Realization), for the stacked weighted
    controllers and weight responses.  ``subgrid`` gives the problem on some
    of the grid points, the set that optimize designs on.
    """

    plants: tuple
    grid: tuple
    wk: object
    structure: StructureOptions

    def __post_init__(self):
        plants = tuple(self.plants)
        grid = tuple(float(g) for g in self.grid)
        if not plants or len(plants) != len(grid):
            raise DimensionError("need one plant per grid value, at least one")
        if not np.isfinite(grid).all() or len(set(grid)) != len(grid):
            raise DomainError("grid values must be finite and distinct")
        for p in plants:
            if len(p.input_partition) != 2 or len(p.output_partition) != 2:
                raise DimensionError("plants must be partitioned [w;u] -> [z;y]")
        stacked = stack_plants(plants)
        n_u = plants[0].input_partition[1]
        wk = self.wk
        if isinstance(wk, StateSpace):
            wk_list = (wk,) * len(plants)
        else:
            wk_list = tuple(wk)
            if len(wk_list) != len(plants):
                raise DimensionError("need one weight per grid point (or a single one)")
        wk_list = tuple(_broadcast_weight(w, n_u) for w in wk_list)
        if len({w.n_outputs for w in wk_list}) != 1:
            raise DimensionError("the weights must share their output count")
        orders = {w.n for w in wk_list}
        if len(orders) != 1:
            raise DimensionError(f"the weights differ in state order: {sorted(orders)}")
        if any(not w.is_static and spectral_abscissa(w) >= 0.0 for w in wk_list):
            raise UnstableError("controller weights must be stable")
        object.__setattr__(self, "plants", plants)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "wk_list", wk_list)
        object.__setattr__(self, "stacked", stacked)
        weights = Realization(*(np.stack([getattr(w, m) for w in wk_list]) for m in "abcd"))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_latest", (None, None))  # see _closed_loops

    def subgrid(self, points):
        """The problem on the grid points with indices ``points``, in that
        order.  Every point in grid order is the problem itself, with its
        cache of the latest block's loops."""
        points = list(points)
        if points == list(range(self.m)):
            return self
        return SynthesisProblem(
            tuple(self.plants[j] for j in points),
            tuple(self.grid[j] for j in points),
            tuple(self.wk_list[j] for j in points),
            self.structure,
        )

    @property
    def m(self):
        return len(self.grid)

    @property
    def n_w(self):
        return self.plants[0].input_partition[0]

    @property
    def n_u(self):
        return self.plants[0].input_partition[1]

    @property
    def n_z(self):
        return self.plants[0].output_partition[0]

    @property
    def n_y(self):
        return self.plants[0].output_partition[1]


ObjectiveEval = namedtuple("ObjectiveEval", ["value", "per_point", "stable"])

TraceRow = namedtuple(
    "TraceRow", ["iteration", "objective", "max_abscissa", "step_norm", "wall_ms"]
)


@dataclass(frozen=True)
class SynthesisResult:
    """Outcome of a synthesis run.

    ``per_point_norms[j]`` is the larger of the j-th closed-loop norm and the
    j-th weighted-controller norm, so ``gamma = max(per_point_norms)``;
    ``per_point_perf_norms`` carries the bare performance-channel norms that
    parameter sweeps are compared against.
    """

    controller: ControllerBlock
    gamma: float
    per_point_norms: tuple
    per_point_perf_norms: tuple
    per_point_wk_norms: tuple
    trace: tuple
    status: str  # converged | iteration-limit


# ---------------------------------------------------------------------------
# Certified evaluation


_Cert = namedtuple("_Cert", ["gamma", "per_point", "perf", "wk", "peaks", "max_abscissa"])


def _certify(problem, kb, rel_tol):
    """Certified channel norms of every grid point, ``inf`` at an unstable
    or ill-posed one.

    One stacked level-set pass (norms._hinf_norms) certifies the closed
    loops of the whole grid and a second one their weighted controllers,
    which series_matrices builds over the grid axis.  A point that
    _closed_loops calls unstable, an ill-posed one included, scores
    ``inf``; its channels keep what _hinf_norms gives them (``inf`` for an
    unstable channel, with a NaN peak; an ill-posed point's are the norms
    of its zero matrices).
    """
    loops = _closed_loops(problem, kb)
    perf, peaks_p = _hinf_norms(loops.closed, rel_tol)
    wk, peaks_w = _hinf_norms(series_matrices(loops.ctrl, problem.weights), rel_tol)
    per_point = np.where(loops.abscissa < 0.0, np.maximum(perf, wk), np.inf)
    return _Cert(
        float(per_point.max()), tuple(per_point.tolist()), tuple(perf.tolist()),
        tuple(wk.tolist()), tuple(np.column_stack([peaks_p, peaks_w]).ravel().tolist()),
        float(loops.abscissa.max()),
    )


def objective(problem, kb, rel_tol=1e-4):
    """Certified synthesis objective at one controller block.

    Returns (value, per_point, stable).  The value is the max over grid
    points of the larger of the closed-loop and weighted-controller norms,
    ``inf`` when a channel is unstable or a point ill posed, as in nonsmooth
    H-infinity synthesis (see _certify).
    """
    cert = _certify(problem, kb, rel_tol)
    return ObjectiveEval(cert.gamma, cert.per_point, cert.max_abscissa < 0.0)


# ---------------------------------------------------------------------------
# Fast surrogate evaluation on a fixed frequency grid


def _soft_max(values, tau):
    """Log-sum-exp smoothing of ``max(values)`` at absolute width ``tau``,
    and its normalized weights, the value's gradient over ``values``."""
    m = float(values.max())
    p = np.exp((values - m) / tau)
    return m + tau * float(np.log(p.sum())), p / p.sum()


def surrogate_grid(problem, n_base=160):
    """Frequency grid for the optimizer: log-spaced base plus clusters around
    every lightly damped resonance of the plants and weights."""
    systems = [p.sys for p in problem.plants] + list(problem.wk_list)
    lo, hi = np.inf, 0.0
    extra = []
    offsets = np.array([-6.0, -3.0, -1.5, 0.0, 1.5, 3.0, 6.0])
    for sys in systems:
        eig = np.linalg.eigvals(sys.a)
        mags = np.abs(eig)
        mags = mags[mags > 0.0]
        if mags.size:
            lo = min(lo, float(mags.min()))
            hi = max(hi, float(mags.max()))
        for lam in eig:
            w = abs(lam.imag)
            if w <= 0.0:
                continue
            width = max(abs(lam.real) / max(abs(lam), 1e-12), 1e-4)
            extra.append(w * (1.0 + offsets * width))
    if not np.isfinite(lo) or hi <= 0.0:
        lo, hi = 1.0, 1.0
    base = np.geomspace(lo / 50.0, hi * 50.0, n_base)
    # Static gain plus a sparse tail toward DC: slow closed-loop poles show up
    # as low-frequency peaks far below the plant's own dynamics.
    low_tail = np.geomspace(lo / 2000.0, lo / 50.0, 12)
    freqs = np.concatenate([[0.0], low_tail, base] + extra)
    freqs = freqs[freqs >= 0.0]
    return np.unique(freqs)


_Loops = namedtuple("_Loops", ["ctrl", "closed", "poles", "abscissa"])


def _closed_loops(problem, kb, free=None, inst=None):
    """Instantiated controllers and closed loops (Realizations), closed-loop
    poles (M, n) and abscissas (M,) of the whole grid, from one pass over
    the stacked grid, stacked as it is: the controllers instantiated by
    lft.instantiate_stack (or ``inst``, the instantiation of the single
    block ``kb`` that it returned, when the caller has it) and closed by
    lft.closed_loop_matrices.

    With ``free``, B sets of free values stacked (B, n_free), the same pass
    closes each of those blocks (kb with its free entries replaced) at every
    point, and everything comes stacked (B, M, ...).  The abscissa is the
    largest real part over a point's closed-loop and controller poles (-inf
    when there are none).  The weights are stable, so it decides the
    stability of both channels.  A point whose parameter or feedback loop is
    ill posed, or whose matrices are not finite, which lft's mask marks, has
    zero matrices and poles and an abscissa of inf, so it is never stable.
    The problem keeps its latest single block's loops, which callers must
    not modify, for that block's next call.
    """
    key = None if free is not None else (kb.n_k, kb.n_delta, kb.n_u, kb.n_y, kb.k.tobytes())
    latest = problem._latest  # one tuple, replaced whole
    if key is not None and latest[0] == key:
        return latest[1]
    if inst is None:
        k = kb.k
        if free is not None:
            k = np.repeat(kb.k[None], len(free), axis=0)
            k[:, kb.mask == MASK_FREE] = free
        inst = instantiate_stack(kb, k, problem.grid)
    ctrl, instantiated = inst
    closed, closed_ok = closed_loop_matrices(problem.stacked, ctrl)
    well_posed = instantiated & closed_ok
    if not well_posed.all():  # ill-posed points' matrices may not be finite
        ctrl, closed = (Realization(*(np.where(well_posed[..., None, None], m, 0.0) for m in r))
                        for r in (ctrl, closed))
    poles = np.linalg.eigvals(closed.a)
    reals = np.concatenate([poles.real, np.linalg.eigvals(ctrl.a).real], axis=-1)
    abscissa = reals.max(axis=-1, initial=-np.inf)
    abscissa[~well_posed] = np.inf
    loops = _Loops(ctrl, closed, poles, abscissa)
    if key is not None:
        object.__setattr__(problem, "_latest", (key, loops))
    return loops


def _top_singular_pairs(g):
    """Left and right singular vectors of the largest singular value of each
    response in a stack (..., p, q): shapes (..., p) and (..., q).

    A 1x1 channel, as batch_sigma does, needs no SVD: ``u = g / abs(g)``
    (1 for a zero response) and ``v = 1``.  Every other shape takes the SVD.
    """
    if g.shape[-2:] == (1, 1):
        norm = np.abs(g[..., 0])
        u = np.divide(g[..., 0], norm, out=np.ones_like(g[..., 0]), where=norm > 0.0)
        return u, np.ones_like(u)
    u, _, vh = np.linalg.svd(g)
    return u[..., :, 0], vh[..., 0, :].conj()


# Condition limit of the controller kernel: eps * cond(V), the modal loss, stays near 1e-12
RESOLVENT_COND_LIMIT = 1e4


_GainPass = namedtuple(
    "_GainPass",
    ["kernel", "freqs", "blocks", "wk_resp", "xb", "kresp", "x", "closed", "weighted"],
)


def _channel_gains(kernel, freqs, blocks, wk_resp):
    """Closed-loop and weighted-controller gains, shape (M, F) each, and the
    forward pass that produced them (the input of _gain_factors).

    ``kernel`` is the FrequencyKernel of the controllers stacked over M grid
    points, ``freqs`` the frequencies, shared (F,) or a row per point (M, F),
    and ``blocks`` and ``wk_resp`` are the points' plant blocks and weight
    responses there, (M, F, ., .).
    """
    p11, p12, p21, p22 = blocks
    # the controller response c (i w I - a)^-1 b + d, keeping its factors
    xb = kernel.resolvent_b(freqs)
    kresp = kernel.c[:, None] @ xb + kernel.d[:, None]
    loop = np.eye(p22.shape[-2]) - p22 @ kresp
    x = np.linalg.solve(loop, p21)
    closed = p11 + p12 @ (kresp @ x)
    weighted = wk_resp @ kresp
    gains = [batch_sigma(closed), batch_sigma(weighted)]
    return gains, _GainPass(kernel, freqs, blocks, wk_resp, xb, kresp, x, closed, weighted)


def _gain_factors(fwd, factors):
    """Rank-one factors ``(left, right)`` of the gradients of the gains of one
    forward pass, ``d sigma / dk = Re(outer(left, right))``, stacked as the
    gains are (M, F, .).

    ``factors`` are the instantiation factors ``(l1, r1)`` of the block at
    the pass's grid values, stacked over them.  With ``X = (i w I - a)^-1``
    the controller response moves by ``dK = [c X, I] l1 dk r1 [X b; I]``, so
    ``sigma = u^H T v`` moves by ``Re(u^H p12 (I - K p22)^-1 dK (I - p22
    K)^-1 p21 v)`` on the closed loop and by ``Re(u^H W dK v)`` on the
    weighted controller.
    """
    kernel, freqs, (_, p12, _, p22), wk_resp, xb, kresp, x, closed, weighted = fwd
    l1, r1 = (f[:, None] for f in factors)  # broadcast over frequencies
    n_k = kernel.a.shape[-1]
    left_k = kernel.c_resolvent(freqs) @ l1[..., :n_k, :] + l1[..., n_k:, :]
    right_k = r1[..., :n_k] @ xb + r1[..., n_k:]
    # p12 (I - K p22)^-1, by a solve with the transposed loop
    out_loop = np.eye(p22.shape[-1]) - kresp @ p22
    s_out = np.swapaxes(
        np.linalg.solve(np.swapaxes(out_loop, -1, -2), np.swapaxes(p12, -1, -2)), -1, -2
    )
    u, v = _top_singular_pairs(closed)
    uw, vw = _top_singular_pairs(weighted)
    left = [
        (u.conj()[..., None, :] @ s_out @ left_k)[..., 0, :],
        (uw.conj()[..., None, :] @ wk_resp @ left_k)[..., 0, :],
    ]
    right = [(right_k @ (x @ v[..., None]))[..., 0], (right_k @ vw[..., None])[..., 0]]
    return left, right


def _in_gain_order(fixed, needles=None, counts=()):
    """Per-gain rows in the surrogate's order: point by point, the fixed
    grid's closed-loop and weighted rows, then the point's needle rows.

    ``fixed`` holds the closed-loop and weighted rows of the fixed grid
    stacked over the grid (M, F, ...), and ``needles``, when there are any,
    those of the needle pass (M, N, ...): each point's ``counts[j]``
    needles, then padding.
    """
    if needles is None:
        return np.stack(fixed, axis=1).reshape((-1,) + fixed[0].shape[2:])
    parts = []
    for j, n in enumerate(counts):
        parts.extend(r[j] for r in fixed)
        parts.extend(r[j, :n] for r in needles)
    return np.concatenate(parts)


_EvalInfo = namedtuple(
    "_EvalInfo",
    ["stable", "max_abscissa", "sigmas", "grid_max", "dsigmas"],
)

_BlockRecord = namedtuple(
    "_BlockRecord", ["key", "inst", "gains", "sigmas", "fwd", "info", "passes"],
    defaults=(None,) * 5,
)

# A trial is rejected on its fixed-grid bound only when the bound exceeds the
# Armijo threshold by this much, relative.  The bound is never above the
# value in exact arithmetic, but it sums fewer terms in another order, so it
# may round an ulp or so above a value that passes the test.
BOUND_MARGIN = 1e-12


class _FastEvaluator:
    """Precomputed plant/weight responses shared by all surrogate evaluations.

    The plants and the weights are factored once, each into one
    FrequencyKernel stacked over the grid, which serves both the fixed grid
    and the needle samples; the fixed grid's responses are kept.  A sample on
    a pole of a plant or weight raises SingularMatrixError.

    It keeps one record of the latest block, replaced whole: its fixed-grid
    pass (_fixed_pass), on whose gains alone penalized may reject a
    line-search trial, then its full pass (_forward) and gradient, which
    reuse it (see evaluate).
    """

    def __init__(self, problem, freqs):
        self.problem = problem
        self._kernels = (
            FrequencyKernel(problem.stacked.sys), FrequencyKernel(problem.weights)
        )
        self._set_grid(np.asarray(freqs, dtype=float))

    def _set_grid(self, freqs):
        self.freqs = np.unique(freqs[freqs >= 0.0])
        self._grid_responses = tuple(k.response(self.freqs) for k in self._kernels)
        self._latest = None  # _BlockRecord of the latest block

    def add_frequencies(self, omegas):
        """Enrich the grid near newly certified peaks."""
        window = np.array([0.9, 0.96, 0.99, 1.0, 1.01, 1.04, 1.1])
        fresh = [w * window for w in omegas if np.isfinite(w) and w > 0.0]
        if not fresh:
            return False
        merged = np.unique(np.concatenate([self.freqs] + fresh))
        if merged.size == self.freqs.size:
            return False
        self._set_grid(merged)
        return True

    def refine(self, kb, gamma, peaks):
        """Enrich the grid at a certificate's ``peaks`` when its value
        ``gamma`` at ``kb`` exceeds the block's largest surrogate gain by
        more than 2 %; returns whether the grid changed."""
        info = self.evaluate(kb)
        if gamma <= (info.grid_max if info.stable else np.inf) * 1.02:
            return False
        return self.add_frequencies(peaks)

    def _plant_blocks(self, resp):
        """The (w, u) -> (z, y) blocks p11, p12, p21, p22 of plant responses."""
        n_w, n_z = self.problem.n_w, self.problem.n_z
        return (
            resp[..., :n_z, :n_w],
            resp[..., :n_z, n_w:],
            resp[..., n_z:, :n_w],
            resp[..., n_z:, n_w:],
        )

    def evaluate(self, kb, gradient=False):
        """Stability and frequency-gridded channel gains of one block, and
        with ``gradient`` the rank-one factors of each gain's gradient with
        respect to the block (see _gain_factors), stacked in gain order.

        Besides the fixed grid, the gains are sampled at the resonance
        frequencies of the *current* closed-loop poles whenever those are
        lightly damped: moving near-axis poles create needle peaks that any
        fixed grid misses, and they are exactly what drives certification
        failures near the stability boundary.  The gradient holds those
        needle frequencies fixed.

        The result and its passes join the block's record: asking again for
        the block returns the kept result, and asking for its gradient then
        adds only the gradient step.  A descent therefore makes one
        fixed-grid pass per block, and closes the loops and samples the
        needles only of the blocks that pass the line search's bound, though
        it scores a point before it asks for the gradient there.  Callers
        must not modify the arrays of a returned result.
        """
        record = self._fixed_pass(kb)
        if record.info is None:
            record = self._latest = self._forward(kb, record)
        info = record.info
        if not gradient or not info.stable or info.dsigmas is not None:
            return info
        fwds, counts = record.passes
        factors = instantiation_factors(kb, self.problem.grid)
        try:
            left, right = zip(*(_gain_factors(fwd, factors) for fwd in fwds))
        except np.linalg.LinAlgError:
            return _EvalInfo(False, info.max_abscissa, None, None, None)
        dsigmas = tuple(_in_gain_order(*rows, counts=counts) for rows in (left, right))
        self._latest = record._replace(info=info._replace(dsigmas=dsigmas))
        return self._latest.info

    def _fixed_pass(self, kb):
        """The block's record: the latest one when it has ``kb``'s entries,
        else a new one, kept in its place, which holds the block's
        instantiation over the grid (lft.instantiate_stack's pair) and, when
        every point is well posed and the pass solves, the fixed grid's
        gains (M, F) each, those in gain order and their forward pass, whose
        controller kernel the needles and the gradient reuse.  The block may
        be unstable here: a controller pole on a grid frequency, or an
        overflow, gives gains that are not finite, without a warning.
        """
        key = kb.k.tobytes()
        if self._latest is not None and self._latest.key == key:
            return self._latest
        record = _BlockRecord(key, instantiate_stack(kb, kb.k, self.problem.grid))
        if record.inst[1].all():
            resp, wk_resp = self._grid_responses
            try:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    gains, fwd = _channel_gains(
                        FrequencyKernel(record.inst[0], RESOLVENT_COND_LIMIT), self.freqs,
                        self._plant_blocks(resp), wk_resp,
                    )
                record = record._replace(gains=gains, sigmas=_in_gain_order(gains), fwd=fwd)
            except np.linalg.LinAlgError:
                pass
        self._latest = record
        return record

    def _forward(self, kb, record):
        """The block's record filled in: its gains (an _EvalInfo) and, when
        it is stable, its forward passes stacked over the grid (the fixed
        grid's, then the needles' when there are any) with each grid point's
        needle count.

        The needle pass samples a row per point: its needle frequencies,
        padded up to the largest count with the grid's first frequency,
        where the fixed grid has already sampled and solved at every point,
        so the padding raises nothing new."""
        loops = _closed_loops(self.problem, kb, inst=record.inst)
        worst = float(loops.abscissa.max())  # inf at an ill-posed point
        failed = record._replace(info=_EvalInfo(False, worst, None, None, None))
        if worst >= 0.0 or record.fwd is None:
            return failed
        needles = []
        for poles in loops.poles:
            damped = np.abs(poles.real) <= 0.05 * np.abs(poles)
            light = poles[(poles.imag > 0.0) & damped]
            needles.append(light.imag[np.argsort(np.abs(light.real) / np.abs(light))][:8])
        counts = [n.size for n in needles]
        if not max(counts):
            v, fwds = record.sigmas, (record.fwd,)
        else:
            extra = np.full((self.problem.m, max(counts)), self.freqs[0])
            for row, n in zip(extra, needles):
                row[: n.size] = n
            try:
                resp, wk_resp = (k.response(extra) for k in self._kernels)
                gains, fwd = _channel_gains(
                    record.fwd.kernel, extra, self._plant_blocks(resp), wk_resp
                )
            except np.linalg.LinAlgError:
                return failed
            v, fwds = _in_gain_order(record.gains, gains, counts), (record.fwd, fwd)
        info = _EvalInfo(True, worst, v, float(v.max()), None)
        return record._replace(info=info, passes=(fwds, counts))

    def lower_bound(self, kb, tau_rel):
        """Soft-max of the fixed grid's gains alone at ``tau = tau_rel`` times
        the largest of them (-inf when the block's record has no finite gains),
        never above penalized's value: adding gains, or widening ``tau``,
        never lowers a log-sum-exp, and an infeasible block scores inf.
        Without needles the two are equal."""
        sig = self._fixed_pass(kb).sigmas
        if sig is None or not np.isfinite(sig).all():
            return -np.inf
        return _soft_max(sig, tau_rel * max(abs(float(sig.max())), 1e-12))[0]

    def penalized(self, kb, tau_rel, gradient=False, bound=None):
        """Soft-max of the gains at relative width ``tau_rel``, or inf at an
        infeasible block; returns (value, info, grad).

        With ``gradient``, ``grad`` is the value's gradient over the free
        entries of ``kb``.  The width ``tau = tau_rel grid_max`` moves with
        the largest gain, so the gradient is ``sum_i p_i grad sigma_i +
        tau_rel (value - p . sigma) / tau grad sigma_max`` with the soft-max
        weights ``p``.  A block is infeasible when a point is ill posed or
        unstable or its forward or gradient pass fails to solve; there the
        gradient is zero.  No descent starts or accepts a step there.

        ``bound`` is a line-search trial's Armijo threshold.  When the
        block's lower_bound exceeds it (by more than BOUND_MARGIN), the trial
        is rejected before any loop is closed: that lower bound is returned
        as the value, with ``info`` and ``grad`` None.
        """
        if bound is not None:
            lower = self.lower_bound(kb, tau_rel)
            if lower > bound + BOUND_MARGIN * abs(bound):
                return lower, None, None
        info = self.evaluate(kb, gradient)
        grad = np.zeros(count_free_params(kb)) if gradient else None
        if not info.stable:
            return np.inf, info, grad
        sig = info.sigmas
        tau = tau_rel * max(abs(info.grid_max), 1e-12)
        value, p = _soft_max(sig, tau)
        if gradient:
            if abs(info.grid_max) > 1e-12:
                # numpy's own sum, not a BLAS dot: OpenBLAS splits long dots
                # over its threads, which changes their rounding
                p[np.argmax(sig)] += tau_rel * (value - float((p * sig).sum())) / tau
            left, right = info.dsigmas
            dk = (left.T @ (p[:, None] * right)).real
            grad = dk[kb.mask == MASK_FREE]
        return value, info, grad


# ---------------------------------------------------------------------------
# Quasi-Newton descent


def _bfgs(fun, grad_fun, theta0, f0, max_iter, tol, on_accept=None, stop_value=None):
    """Minimize ``fun`` from theta0 by BFGS steps with a halving line search.

    A step is accepted when its value passes the Armijo test ``f(trial) <=
    bound`` with ``bound = f + 1e-4 * alpha * slope``.  Once that slope term
    falls below half an ulp of ``f``, a step that leaves the value unchanged
    passes it too, so accepted steps never increase the value but need not
    decrease it.

    ``fun(trial, bound)`` scores a trial; it returns the trial's value, or
    any number above ``bound`` when it knows the trial fails the test (a
    cheap lower bound, say), so the descent is the same either way.  f0 is
    the value at theta0.

    ``grad_fun(theta, value)`` gives the gradient at a point whose value is
    known.  ``on_accept(theta, value, step_norm)`` runs at every accepted
    point after its gradient, unless ``stop_value`` ends the descent there.
    Returns (theta, value, accepted_steps, converged) where convergence means
    the relative decrease over the last 10 accepted steps fell below ``tol``.
    """
    theta, fval = np.array(theta0, dtype=float), float(f0)
    n = theta.size
    hess_inv = np.eye(n)
    grad = grad_fun(theta, fval)
    history = deque([fval], maxlen=11)
    accepted = 0
    while accepted < max_iter:
        direction = -hess_inv @ grad
        slope = float(grad @ direction)
        if not np.isfinite(slope) or slope >= 0.0:
            hess_inv = np.eye(n)
            direction = -grad
            slope = -float(grad @ grad)
            if slope >= 0.0:
                return theta, fval, accepted, True
        alpha = 1.0
        trial_f = None
        for _ in range(30):
            trial = theta + alpha * direction
            bound = fval + 1e-4 * alpha * slope
            trial_f = fun(trial, bound)
            if np.isfinite(trial_f) and trial_f <= bound:
                break
            alpha *= 0.5
        else:
            return theta, fval, accepted, True
        step = alpha * direction
        theta_new = theta + step
        accepted += 1
        if stop_value is not None and trial_f <= stop_value:
            return theta_new, trial_f, accepted, True
        grad_new = grad_fun(theta_new, trial_f)
        if on_accept is not None:
            on_accept(theta_new, trial_f, float(np.linalg.norm(step)))
        y = grad_new - grad
        sy = float(step @ y)
        # sy**2 underflows to 0 for tiny steps that still pass the curvature test
        if sy > 1e-12 * np.linalg.norm(step) * np.linalg.norm(y) and sy**2 != 0.0:
            hy = hess_inv @ y
            hess_inv = (
                hess_inv
                + ((sy + float(y @ hy)) / sy**2) * np.outer(step, step)
                - (np.outer(hy, step) + np.outer(step, hy)) / sy
            )
        theta, fval, grad = theta_new, float(trial_f), grad_new
        history.append(fval)
        if len(history) == 11:
            drop = history[0] - history[-1]
            if drop < tol * max(abs(history[0]), 1e-12):
                return theta, fval, accepted, True
    return theta, fval, accepted, False


# ---------------------------------------------------------------------------
# Stabilization

# Function evaluations that stabilize spends before it gives up
STABILIZE_BUDGET = 4000


def _softened_abscissa(abscissa):
    """Soft-max of a block's per-point abscissas, the value stabilization
    minimizes: infinite when a point is ill posed (abscissa inf)."""
    worst = float(abscissa.max())
    return np.inf if worst == np.inf else _soft_max(abscissa, 1e-2 * (1.0 + abs(worst)))[0]


def _abscissa_gradient(problem, kb, theta, f0):
    """Central differences of _softened_abscissa over the free entries of
    ``kb`` at ``theta``, whose value is ``f0``.

    Entry i steps by ``h = 1e-6 (1 + |theta_i|)`` either way.  All 2n probe
    blocks are closed in one stacked _closed_loops pass, in which an
    ill-posed probe scores infinite.  Where one side is infinite the
    difference is one-sided from ``f0``, and where both are it is zero.
    """
    n = theta.size
    h = 1e-6 * (1.0 + np.abs(theta))
    probes = np.repeat(theta[None], 2 * n, axis=0)  # up, down, up, down, ...
    probes[0::2][np.diag_indices(n)] += h
    probes[1::2][np.diag_indices(n)] -= h
    absc = _closed_loops(problem, kb, probes).abscissa
    values = np.array([_softened_abscissa(v) for v in absc])
    fp, fm = values[0::2], values[1::2]
    up, dn = np.isfinite(fp), np.isfinite(fm)
    with np.errstate(invalid="ignore"):  # inf - inf where a side is ill posed
        return np.select(
            [up & dn, up, dn], [(fp - fm) / (2.0 * h), (fp - f0) / h, (f0 - fm) / h]
        )


def stabilize(problem, kb0, seed=0):
    """Drive the worst abscissa of the closed loops (see _closed_loops) over
    the grid below zero.

    Minimizes a softened max-abscissa over the free entries of ``kb0`` with
    central-difference gradients (_abscissa_gradient, one stacked pass over
    all 2n probe blocks): from a zero block the closed loop has a repeated
    pole, where eigenvalue sensitivities are undefined.  The block is
    returned unchanged when it is already stabilizing.  Raises
    StabilizationFailedError once STABILIZE_BUDGET function evaluations (2n
    per gradient) are spent without success.  Scoring the start after its
    check, or a descent's last point again, closes no block again.
    """
    theta0 = kb0.free_values()
    ab = _closed_loops(problem, kb0).abscissa  # per grid point, inf where ill posed
    if ab.max() < 0.0:
        return kb0
    if theta0.size == 0:
        raise StabilizationFailedError(
            f"no free entries to stabilize with (worst abscissa {ab.max():.3e})"
        )

    evals = 0

    def fun(theta, bound=None):  # closing the probe is the whole cost: no bound helps
        nonlocal evals
        evals += 1
        return _softened_abscissa(_closed_loops(problem, kb0.with_free_values(theta)).abscissa)

    def gradient(theta, f0):
        nonlocal evals
        evals += 2 * theta.size
        return _abscissa_gradient(problem, kb0, theta, f0)

    open_absc = [spectral_abscissa(p.sys) for p in problem.plants if not p.sys.is_static]
    worst_open = max(open_absc) if open_absc else -1.0
    margin = 0.25 * abs(worst_open) if worst_open < 0.0 else 1e-6
    rng = np.random.default_rng(seed)
    theta = theta0
    best_val = np.inf
    while evals < STABILIZE_BUDGET:
        f0 = fun(theta)
        remaining = max(1, (STABILIZE_BUDGET - evals) // max(2 * theta.size + 1, 1))
        theta, fval, _, _ = _bfgs(
            fun, gradient, theta, f0, remaining, 1e-6, stop_value=-margin
        )
        best_val = min(best_val, fval)
        kb = kb0.with_free_values(theta)
        if _closed_loops(problem, kb).abscissa.max() < 0.0:
            return kb
        scale = max(float(np.abs(theta).max()), 1.0)
        theta = theta + rng.normal(0.0, 0.3 * scale, theta.size)
    raise StabilizationFailedError(
        f"stabilization budget exhausted (best softened abscissa {best_val:.3e})"
    )


# ---------------------------------------------------------------------------
# Optimization driver


@dataclass(frozen=True)
class OptimizeOptions:
    max_iter: int = 500
    restarts: int = 3
    seed: int = 0
    refine_rounds: int = 2
    certify_rel_tol = 1e-6  # of optimize's certificates; a constant, not a field

    def __post_init__(self):
        if self.max_iter < 1 or self.restarts < 1:
            raise DomainError("max_iter and restarts must be at least 1")
        if self.seed < 0 or self.refine_rounds < 0:
            raise DomainError("seed and refine_rounds must be nonnegative")


_TAU_SCHEDULE = (0.05, 0.01, 2e-3)


def _descend(evaluator, kb_template, theta0, trace, t_start, done, budget, phases_left):
    """One round of smoothed descent on the evaluator's problem from
    ``theta0``: one BFGS phase per width of _TAU_SCHEDULE, within ``budget``
    iterations, which ``phases_left`` phases share, this round's and the
    start's later rounds'; returns the point reached, whether the last phase
    converged and the iterations used.  The round certifies nothing:
    optimize certifies the point reached.

    ``trace`` is the start's list of rows, which the round extends, and
    ``done`` the iterations the start ran before it.  A trace with no row
    yet opens with one at ``theta0``; then every accepted iterate whose
    value is at or below the last row's adds a row numbered by the start's
    iterations, so across rounds and joins a start's trace never rises and
    its numbers strictly increase.
    """
    theta = np.array(theta0, dtype=float)
    iters_left = budget
    converged = True
    grad_abscissa = np.nan  # max abscissa at the latest gradient point

    def row(iteration, fval, abscissa, step_norm):
        trace.append(TraceRow(iteration, float(fval), float(abscissa), step_norm,
                              (time.perf_counter() - t_start) * 1e3))

    def record(theta_acc, fval, step_norm):
        # _bfgs calls this right after the gradient at theta_acc
        nonlocal done
        done += 1
        if fval <= (trace[-1].objective if trace else np.inf):
            row(done, fval, grad_abscissa, step_norm)

    def fun(th, bound=None):
        return evaluator.penalized(kb_template.with_free_values(th), tau, bound=bound)[0]

    def grad(th, _f):
        nonlocal grad_abscissa
        _, info, g = evaluator.penalized(kb_template.with_free_values(th), tau, gradient=True)
        grad_abscissa = info.max_abscissa
        return g

    if not trace:
        f0, info0, _ = evaluator.penalized(
            kb_template.with_free_values(theta), _TAU_SCHEDULE[0]
        )
        if info0.stable:
            row(done, f0, info0.max_abscissa, 0.0)
    for i, tau in enumerate(_TAU_SCHEDULE):
        # Split the remaining budget evenly over the remaining smoothing
        # phases so later rounds are never starved, and leave one step for
        # each later phase of this round.
        later = len(_TAU_SCHEDULE) - 1 - i
        cap = min(max(8, iters_left // max(phases_left, 1)), iters_left - later)
        phases_left -= 1
        if cap <= 0:
            converged = False
            continue
        # fun and grad read this phase's tau
        theta, _, used, converged = _bfgs(
            fun, grad, theta, fun(theta), cap, 1e-4, on_accept=record
        )
        iters_left -= used
    return theta, converged, budget - iters_left


def init_from_nominal(problem, nominal_index, options=None):
    """Controller block seeded from a non-parametric synthesis at one grid point.

    Runs the full pipeline (stabilize + optimize) on the single-plant problem
    with the parameter channel removed, then embeds the result: the nominal
    a_k, b_u, c_y, d_yu blocks are copied and every parameter-coupled block is
    zero, so the initial parametric controller is constant in the parameter.
    Raises StabilizationFailedError when the nominal loop cannot be stabilized.
    """
    if not 0 <= nominal_index < problem.m:
        raise DomainError(f"nominal index {nominal_index} outside grid")
    reduced_structure = replace(problem.structure, n_delta=0)
    reduced = replace(problem.subgrid((nominal_index,)), structure=reduced_structure)
    kb0 = zero_block(
        reduced_structure.n_k, 0, problem.n_u, problem.n_y,
        build_mask(reduced_structure, problem.n_u, problem.n_y),
    )
    result = optimize(reduced, kb0, options)
    nk, nd = problem.structure.n_k, problem.structure.n_delta
    mask = build_mask(problem.structure, problem.n_u, problem.n_y)
    kb = zero_block(nk, nd, problem.n_u, problem.n_y, mask)
    k = np.array(kb.k)
    src = result.controller
    k[:nk, :nk] = src.a_k
    k[:nk, nk + nd :] = src.b_u
    k[nk + nd :, :nk] = src.c_y
    k[nk + nd :, nk + nd :] = src.d_yu
    return kb.with_k(k)


def _design_points(grid):
    """Indices of the grid points that optimize designs on first: the
    smallest and largest values and the one at index ``len(grid) // 2``,
    the default nominal index; a grid of three or fewer points is its own
    design set."""
    if len(grid) <= 3:
        return tuple(range(len(grid)))
    return tuple(sorted({int(np.argmin(grid)), len(grid) // 2, int(np.argmax(grid))}))


def _worst_outside(per_point, points, rel_tol):
    """Index of the grid point outside ``points`` with the largest certified
    value when that value exceeds the largest inside by more than
    ``rel_tol``, relative (an unstable or ill-posed point, at ``inf``, always
    does while the set is stable); else None."""
    outside = [j for j in range(len(per_point)) if j not in points]
    if not outside:
        return None
    j = max(outside, key=per_point.__getitem__)
    return j if per_point[j] > max(per_point[p] for p in points) * (1.0 + rel_tol) else None


def optimize(problem, kb_init, options=None):
    """Minimize the worst-case objective over the free entries of ``kb_init``.

    The initial block is stabilized over the whole grid first when needed;
    stabilize's StabilizationFailedError propagates when it cannot be.  Then
    ``restarts`` descents (the nominal start plus randomly perturbed copies)
    run on a design set of grid points, at first the ends and the middle
    value (see _design_points), after Apkarian, Dao and Noll's active-set
    scheme for parametric robust structured synthesis.  Each start is
    stabilized on the set, and every accepted iterate stays strictly
    stabilizing there.  A start runs rounds of smoothed descent (_descend),
    ``refine_rounds + 1`` of them and as many again after each join, within
    ``max_iter`` iterations over all its rounds.  Every round ends with one
    certificate at ``certify_rel_tol`` over the whole grid, the only one
    taken of its block, which ranks the block as a candidate and decides
    what follows.  When the worst point outside the set exceeds the set's
    certified value by more than that tolerance, it joins the set for the
    rest of the run, and the descent continues from the block, stabilized
    on the larger set (or the start ends there when that fails); an
    unstable or ill-posed point outside the set, at ``inf``, always joins
    it.  Otherwise, while the start has a round and iterations left, or
    when a later start follows, the set's part of the certificate decides
    whether the surrogate grid that they share is enriched at its peaks
    (see _FastEvaluator.refine); the start goes on to its next round only
    when it is, and ends there otherwise.

    The initial block is certified over the whole grid too and competes,
    so the reported objective never exceeds the initial one, and a block
    certified ``inf`` never wins.  ``gamma`` and the per-point norms are
    the best candidate's certificate, over every grid point.
    """
    opts = options or OptimizeOptions()
    expected = (
        problem.structure.n_k + problem.structure.n_delta + problem.n_u,
        problem.structure.n_k + problem.structure.n_delta + problem.n_y,
    )
    if kb_init.k.shape != expected or kb_init.n_u != problem.n_u or kb_init.n_y != problem.n_y:
        raise DimensionError(
            f"controller block shape {kb_init.k.shape} does not match problem {expected}"
        )
    tol = opts.certify_rel_tol
    t_start = time.perf_counter()
    kb0 = stabilize(problem, kb_init, seed=opts.seed)
    init_cert = _certify(problem, kb0, tol)
    theta_init = kb0.free_values()
    init_trace = (
        TraceRow(0, init_cert.gamma, init_cert.max_abscissa, 0.0,
                 (time.perf_counter() - t_start) * 1e3),
    )
    candidates = [(init_cert, theta_init, init_trace, True)]

    if theta_init.size:
        points = _design_points(problem.grid)
        design = problem.subgrid(points)
        evaluator = _FastEvaluator(design, surrogate_grid(design))
        rng = np.random.default_rng(opts.seed)
        scale = float(np.sqrt(np.mean(theta_init**2))) or 1.0
        starts = [theta_init]
        for _ in range(opts.restarts - 1):
            starts.append(theta_init + rng.normal(0.0, 0.1 * scale, theta_init.size))
        for i, start in enumerate(starts):
            try:
                kb_start = stabilize(design, kb0.with_free_values(start), seed=opts.seed)
            except StabilizationFailedError:
                continue
            theta, trace, done = kb_start.free_values(), [], 0
            rounds = opts.refine_rounds + 1  # this one included
            while True:
                theta, conv, used = _descend(
                    evaluator, kb0, theta, trace, t_start, done, opts.max_iter - done,
                    len(_TAU_SCHEDULE) * rounds,
                )
                done += used
                rounds -= 1
                kb = kb0.with_free_values(theta)
                cert = _certify(problem, kb, tol)
                candidates.append((cert, theta, tuple(trace), conv))
                j = _worst_outside(cert.per_point, points, tol)
                if j is None:
                    next_round = rounds > 0 and done < opts.max_iter
                    if next_round or i + 1 < len(starts):  # they share the grid
                        peaks = np.reshape(cert.peaks, (-1, 2))[list(points)].ravel()
                        gamma = max(cert.per_point[p] for p in points)
                        if evaluator.refine(kb, gamma, peaks) and next_round:
                            continue
                    break
                if done >= opts.max_iter:
                    break
                points = tuple(sorted(points + (j,)))
                design = problem.subgrid(points)
                evaluator = _FastEvaluator(
                    design, np.concatenate([evaluator.freqs, surrogate_grid(design)])
                )
                rounds = opts.refine_rounds + 1
                try:
                    theta = stabilize(design, kb, seed=opts.seed).free_values()
                except StabilizationFailedError:
                    break

    cert, theta_best, trace, conv = min(
        candidates, key=lambda c: (c[0].gamma, float(np.linalg.norm(c[1])))
    )
    controller = kb0.with_free_values(theta_best) if theta_best.size else kb0
    return SynthesisResult(
        controller,
        cert.gamma,
        cert.per_point,
        cert.perf,
        cert.wk,
        trace,
        "converged" if conv else "iteration-limit",
    )
