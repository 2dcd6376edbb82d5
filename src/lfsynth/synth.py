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

Every evaluation instantiates and closes the block in one place,
_closed_loops, in one pass over the whole grid (and over a leading axis of
blocks, for stabilization's probes): the plants share their state order, and
so do the weights, so their matrices are stacked once and lft broadcasts the
algebra over those axes.  The problem keeps its latest block's loops, so the
surrogate, the certificate and stabilization close each block once.  A grid
point is stable when its closed loop and its controller are.  A point whose
loops are ill posed or not finite, which lft's mask marks, makes
certification raise IllPosedLFTError with that grid index and the surrogate
and stabilization score the block as infinite.  A certificate is two stacked
level-set passes over the whole grid, one over the closed loops and one over
the weighted controllers; an unstable point scores infinite there too.
The surrogate takes plant and weight responses from two eigen-factored
FrequencyKernels stacked over the grid, one for the plants and one for the
weights, and the controllers' resolvent products from a third one, built
per evaluated block at a tighter condition limit, which the gradient
reuses.  Each block takes one forward pass and one gradient pass, both
stacked over the grid: every grid point's row holds the fixed frequency
grid followed by that point's few needle samples.
A 1x1 channel's singular pair comes in closed form.  A block that
is ill posed or unstable at some grid point, or whose surrogate solve fails,
scores infinite, so the line search rejects it, as in nonsmooth H-infinity
synthesis: accepted iterates are always strictly stabilizing.
"""

import time
from collections import deque, namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    IllPosedLFTError,
    StabilizationFailedError,
    UnstableError,
)
from .lft import (
    MASK_FREE,
    MASK_ZERO,
    ControllerBlock,
    close_grid,
    count_free_params,
    eval_controller,
    instantiation_factors,
    lower_lft_ss,
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
    controllers and weight responses.
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
        if len(set(grid)) != len(grid):
            raise DomainError("grid values must be distinct")
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
    """Certified channel norms of every grid point, ``inf`` at an unstable one.

    One stacked level-set pass (norms._hinf_norms) certifies the closed
    loops of the whole grid and a second one their weighted controllers,
    which series_matrices builds over the grid axis.  A point that
    _closed_loops calls unstable scores ``inf``; its channels keep what
    _hinf_norms gives them (``inf`` for an unstable channel, with a NaN
    peak).  The first ill-posed grid point raises IllPosedLFTError as
    ``grid_index``.
    """
    loops = _closed_loops(problem, kb)
    if not loops.well_posed.all():
        j = int(np.argmin(loops.well_posed))
        try:  # the one-point functions raise, naming the loop
            lower_lft_ss(problem.plants[j], eval_controller(kb, problem.grid[j]))
        except IllPosedLFTError as exc:
            exc.grid_index = j
            raise
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
    ``inf`` when a channel is unstable, as in nonsmooth H-infinity synthesis.
    An ill-posed grid point raises IllPosedLFTError (see _certify).
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


_Loops = namedtuple("_Loops", ["ctrl", "closed", "poles", "abscissa", "well_posed"])


def _closed_loops(problem, kb, free=None):
    """Instantiated controllers and closed loops (Realizations), closed-loop
    poles (M, n), abscissas (M,) and well-posed mask (M,) of the whole grid,
    from one lft.close_grid pass over the stacked grid and stacked as it is.

    With ``free``, B sets of free values stacked (B, n_free), the same pass
    closes each of those blocks (kb with its free entries replaced) at every
    point, and everything comes stacked (B, M, ...).  The abscissa is the
    largest real part over a point's closed-loop and controller poles (-inf
    when there are none).  The weights are stable, so it decides the
    stability of both channels.  A point whose parameter or feedback loop is
    ill posed, or whose matrices are not finite, is False in ``well_posed``;
    its loops are not its own, and its abscissa is inf, so it is never
    stable.  The problem keeps its latest single block's loops, which
    callers must not modify, for that block's next call.
    """
    key = None if free is not None else (kb.n_k, kb.n_delta, kb.n_u, kb.n_y, kb.k.tobytes())
    latest = problem._latest  # one tuple, replaced whole
    if key is not None and latest[0] == key:
        return latest[1]
    k = None
    if free is not None:
        k = np.repeat(kb.k[None], len(free), axis=0)
        k[:, kb.mask == MASK_FREE] = free
    ctrl, closed, well_posed = close_grid(problem.stacked, kb, problem.grid, k)
    a_cl, a_k = (a if well_posed.all() else np.where(well_posed[..., None, None], a, 0.0)
                 for a in (closed.a, ctrl.a))  # ill-posed points' may not be finite
    poles = np.linalg.eigvals(a_cl)
    reals = np.concatenate([poles.real, np.linalg.eigvals(a_k).real], axis=-1)
    abscissa = reals.max(axis=-1, initial=-np.inf)
    abscissa[~well_posed] = np.inf
    loops = _Loops(ctrl, closed, poles, abscissa, well_posed)
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


def _in_gain_order(rows, n_grid, counts):
    """Per-gain rows in the surrogate's order: point by point, the fixed
    grid's closed-loop and weighted rows, then the point's needle rows.

    ``rows`` holds the closed-loop and weighted rows of one pass stacked over
    the grid (M, F, ...): each point's fixed grid in its first ``n_grid``
    columns, then its ``counts[j]`` needles, then padding.
    """
    if not any(counts):
        return np.stack(rows, axis=1).reshape((-1,) + rows[0].shape[2:])
    parts = []
    for j, n in enumerate(counts):
        parts.extend(r[j, :n_grid] for r in rows)
        parts.extend(r[j, n_grid : n_grid + n] for r in rows)
    return np.concatenate(parts)


_EvalInfo = namedtuple(
    "_EvalInfo",
    ["stable", "max_abscissa", "sigmas", "grid_max", "dsigmas"],
)


class _FastEvaluator:
    """Precomputed plant/weight responses shared by all surrogate evaluations.

    The plants and the weights are factored once, each into one
    FrequencyKernel stacked over the grid, which serves both the fixed grid
    and the needle samples; the fixed grid's responses are kept.  A sample on
    a pole of a plant or weight raises SingularMatrixError.
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
        self._memo = None  # (block bytes, _EvalInfo, (forward pass, needle counts))

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

        The latest block's result and forward pass are kept until a block
        with other entries comes or the grid changes: asking again for the
        same block returns the kept result, and asking for its gradient
        afterwards adds only the gradient step.  A descent therefore makes
        one forward pass per point, although it scores a point before it
        asks for the gradient there.  Callers must not modify the arrays of
        a returned result, since a later call may return it again.
        """
        key = kb.k.tobytes()
        if self._memo is None or self._memo[0] != key:
            self._memo = (key,) + self._forward(kb)
        _, info, passes = self._memo
        if not gradient or not info.stable or info.dsigmas is not None:
            return info
        fwd, counts = passes
        try:
            factors = _gain_factors(fwd, instantiation_factors(kb, self.problem.grid))
        except np.linalg.LinAlgError:
            return _EvalInfo(False, info.max_abscissa, None, None, None)
        dsigmas = tuple(_in_gain_order(f, self.freqs.size, counts) for f in factors)
        info = info._replace(dsigmas=dsigmas)
        self._memo = (key, info, passes)
        return info

    def _forward(self, kb):
        """Gains of one block, its forward pass stacked over the grid, and
        each grid point's needle count.

        A point's row holds the fixed grid, then its needle frequencies,
        padded up to the largest count with the grid's first frequency: the
        fixed grid has already sampled and solved there at every point, so
        the padding raises nothing new.  Without needles the rows are the
        fixed grid alone, whose responses are cached.  The controllers are
        factored once into a FrequencyKernel, which the gradient reuses."""
        loops = _closed_loops(self.problem, kb)
        worst = float(loops.abscissa.max())  # inf at an ill-posed point
        if worst >= 0.0:
            return _EvalInfo(False, worst, None, None, None), ()
        needles = []
        for poles in loops.poles:
            damped = np.abs(poles.real) <= 0.05 * np.abs(poles)
            light = poles[(poles.imag > 0.0) & damped]
            needles.append(light.imag[np.argsort(np.abs(light.real) / np.abs(light))][:8])
        counts = [n.size for n in needles]
        freqs, (resp, wk_resp) = self.freqs, self._grid_responses
        m, n_w, n_z = self.problem.m, self.problem.n_w, self.problem.n_z
        try:
            if max(counts):
                extra = np.full((m, max(counts)), freqs[0])
                for row, n in zip(extra, needles):
                    row[: n.size] = n
                resp, wk_resp = (
                    np.concatenate(pair, axis=1)
                    for pair in zip((resp, wk_resp), (k.response(extra) for k in self._kernels))
                )
                freqs = np.concatenate([np.broadcast_to(freqs, (m, freqs.size)), extra], 1)
            blocks = (
                resp[..., :n_z, :n_w],
                resp[..., :n_z, n_w:],
                resp[..., n_z:, :n_w],
                resp[..., n_z:, n_w:],
            )
            gains, fwd = _channel_gains(
                FrequencyKernel(loops.ctrl, RESOLVENT_COND_LIMIT), freqs, blocks, wk_resp
            )
        except np.linalg.LinAlgError:
            return _EvalInfo(False, worst, None, None, None), ()
        v = _in_gain_order(gains, self.freqs.size, counts)
        return _EvalInfo(True, worst, v, float(v.max()), None), (fwd, counts)

    def penalized(self, kb, tau_rel, gradient=False):
        """Soft-max of the gains at relative width ``tau_rel``, or inf at an
        infeasible block; returns (value, info, grad).

        With ``gradient``, ``grad`` is the value's gradient over the free
        entries of ``kb``.  The width ``tau = tau_rel grid_max`` moves with
        the largest gain, so the gradient is ``sum_i p_i grad sigma_i +
        tau_rel (value - p . sigma) / tau grad sigma_max`` with the soft-max
        weights ``p``.  A block is infeasible when a point is ill posed or
        unstable or its forward or gradient pass fails to solve; there the
        gradient is zero.  No descent starts or accepts a step there.
        """
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
    f + 1e-4 * alpha * slope``.  Once that slope term falls below half an
    ulp of ``f``, a step that leaves the value unchanged passes it too, so
    accepted steps never increase the value but need not decrease it.

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
            trial_f = fun(trial)
            if np.isfinite(trial_f) and trial_f <= fval + 1e-4 * alpha * slope:
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

    def fun(theta):
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


def _descend(evaluator, kb_template, theta0, opts, t_start, later_starts=False):
    """Smoothed descent with certified refinement; returns the best certified
    point reached from one start.

    Each round ends with a certificate at relative tolerance 1e-4, which
    decides whether the surrogate grid is enriched at its peaks for the next
    round.  The last round skips it unless ``later_starts`` says that later
    descents reuse the evaluator's grid.  The point reached is then certified
    at ``opts.certify_rel_tol``, and that certificate is returned.
    """
    problem = evaluator.problem
    trace = []
    log_floor = np.inf
    iters_left = opts.max_iter
    counter = 0
    theta = np.array(theta0, dtype=float)
    converged = True
    grad_abscissa = np.nan  # max abscissa at the latest gradient point

    def record(theta_acc, fval, step_norm):
        # _bfgs calls this right after the gradient at theta_acc
        nonlocal counter, log_floor
        counter += 1
        if fval <= log_floor:
            log_floor = fval
            trace.append(
                TraceRow(
                    counter,
                    float(fval),
                    float(grad_abscissa),
                    step_norm,
                    (time.perf_counter() - t_start) * 1e3,
                )
            )

    f0, info0, _ = evaluator.penalized(
        kb_template.with_free_values(theta), _TAU_SCHEDULE[0]
    )
    if info0.stable:
        trace.append(
            TraceRow(0, float(f0), float(info0.max_abscissa), 0.0,
                     (time.perf_counter() - t_start) * 1e3)
        )
        log_floor = f0
    phases_left = len(_TAU_SCHEDULE) * (opts.refine_rounds + 1)
    for rnd in range(opts.refine_rounds + 1):
        for i, tau in enumerate(_TAU_SCHEDULE):
            # Split the remaining budget evenly over the remaining smoothing
            # phases so later refinement passes are never starved, and leave
            # one step for each later phase of this round.
            later = len(_TAU_SCHEDULE) - 1 - i
            cap = min(max(8, iters_left // max(phases_left, 1)), iters_left - later)
            phases_left -= 1
            if cap <= 0:
                converged = False
                continue

            def fun(th, _tau=tau):
                return evaluator.penalized(kb_template.with_free_values(th), _tau)[0]

            def grad(th, _f, _tau=tau):
                nonlocal grad_abscissa
                _, info, g = evaluator.penalized(
                    kb_template.with_free_values(th), _tau, gradient=True
                )
                grad_abscissa = info.max_abscissa
                return g

            theta, fval, used, conv = _bfgs(
                fun, grad, theta, fun(theta), cap, 1e-4, on_accept=record
            )
            iters_left -= used
            converged = conv
        if rnd == opts.refine_rounds and not later_starts:
            break  # no descent uses a richer grid
        cert = _certify(problem, kb_template.with_free_values(theta), 1e-4)
        info = evaluator.evaluate(kb_template.with_free_values(theta))
        grid_max = info.grid_max if info.stable else np.inf
        if cert.gamma <= grid_max * 1.02:
            break
        if not evaluator.add_frequencies(cert.peaks):
            break
        if iters_left <= 0:
            break
    final = _certify(problem, kb_template.with_free_values(theta), opts.certify_rel_tol)
    return theta, final, trace, converged


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
    reduced = SynthesisProblem(
        (problem.plants[nominal_index],),
        (problem.grid[nominal_index],),
        (problem.wk_list[nominal_index],),
        reduced_structure,
    )
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


def optimize(problem, kb_init, options=None):
    """Minimize the worst-case objective over the free entries of ``kb_init``.

    The initial block is stabilized first when needed; stabilize's
    StabilizationFailedError propagates when it cannot be.  Runs ``restarts``
    descent passes (the nominal start plus randomly perturbed copies), keeps
    every accepted iterate strictly stabilizing, and returns the best
    certified candidate; the initial block itself competes, so the reported
    objective never exceeds the initial one.  The initial block is certified
    once, at ``certify_rel_tol``, and each descent adds the certificates
    that _descend makes.
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
    t_start = time.perf_counter()
    kb0 = stabilize(problem, kb_init, seed=opts.seed)
    init_cert = _certify(problem, kb0, opts.certify_rel_tol)
    theta_init = kb0.free_values()

    evaluator = _FastEvaluator(problem, surrogate_grid(problem))

    candidates = []
    init_trace = (
        TraceRow(0, init_cert.gamma, init_cert.max_abscissa, 0.0,
                 (time.perf_counter() - t_start) * 1e3),
    )
    candidates.append(
        (init_cert.gamma, float(np.linalg.norm(theta_init)), theta_init, init_cert,
         init_trace, True)
    )

    if theta_init.size:
        rng = np.random.default_rng(opts.seed)
        scale = float(np.sqrt(np.mean(theta_init**2))) or 1.0
        starts = [theta_init]
        for _ in range(opts.restarts - 1):
            starts.append(theta_init + rng.normal(0.0, 0.1 * scale, theta_init.size))
        for i, start in enumerate(starts):
            try:
                kb_start = stabilize(problem, kb0.with_free_values(start), seed=opts.seed)
            except StabilizationFailedError:
                continue
            theta, cert, trace, conv = _descend(
                evaluator, kb0, kb_start.free_values(), opts, t_start,
                later_starts=i + 1 < len(starts),
            )
            candidates.append(
                (cert.gamma, float(np.linalg.norm(theta)), theta, cert, tuple(trace),
                 conv)
            )

    candidates.sort(key=lambda c: (c[0], c[1]))
    gamma, _, theta_best, cert, trace, conv = candidates[0]
    controller = kb0.with_free_values(theta_best) if theta_best.size else kb0
    return SynthesisResult(
        controller,
        float(gamma),
        cert.per_point,
        cert.perf,
        cert.wk,
        tuple(trace),
        "converged" if conv else "iteration-limit",
    )
