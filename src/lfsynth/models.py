"""Benchmark plant generators, weighting filters and state-space file I/O.

Two scenario families are bundled:

* a clamped cantilever beam (shear-deformable finite elements, Rayleigh
  damping) whose tip force -> tip deflection dynamics depend on the beam
  length, and
* a lightly damped modal "building" surrogate with one dominant resonance,
  normalized to unit peak gain, whose performance output is scaled by an
  exogenous tuning parameter.

Users with their own plant matrices can instead load them from the text
format documented in :mod:`lfsynth.statespace`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .norms import hinf_norm
from .statespace import PartitionedSystem, StateSpace, static_gain
from .textio import DataReader, format_row, write_lines

# ---------------------------------------------------------------------------
# Clamped beam finite-element surrogate


@dataclass(frozen=True)
class BeamSpec:
    """Cantilever beam parameters; the length is the synthesis parameter.

    Defaults are a slender steel beam with a square 5 cm section.  Rayleigh
    damping keeps every mode strictly stable (an undamped model would have an
    unbounded peak gain on the imaginary axis).
    """

    length: float = 15.0
    n_elements: int = 15
    elastic_modulus: float = 210e9
    shear_modulus: float = 81e9
    density: float = 7850.0
    width: float = 0.05
    height: float = 0.05
    shear_factor: float = 5.0 / 6.0
    alpha_mass: float = 1e-3
    beta_stiffness: float = 1e-4

    def __post_init__(self):
        if self.n_elements < 2:
            raise DomainError("n_elements must be at least 2")
        for name in ("length", "elastic_modulus", "shear_modulus", "density",
                     "width", "height", "shear_factor"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be positive")
        if self.alpha_mass < 0.0 or self.beta_stiffness < 0.0:
            raise DomainError("damping coefficients must be nonnegative")

    @property
    def area(self):
        return self.width * self.height

    @property
    def second_moment(self):
        return self.width * self.height**3 / 12.0


def _beam_element(spec, le):
    """Stiffness and consistent mass of one 2-node element (w, theta per node).

    The stiffness is the shear-corrected Hermitian element, which reproduces
    the exact static tip deflection of a shear-deformable cantilever for any
    mesh.
    """
    e, g = spec.elastic_modulus, spec.shear_modulus
    area, inertia = spec.area, spec.second_moment
    phi = 12.0 * e * inertia / (spec.shear_factor * g * area * le**2)
    k = e * inertia / ((1.0 + phi) * le**3) * np.array(
        [
            [12.0, 6.0 * le, -12.0, 6.0 * le],
            [6.0 * le, (4.0 + phi) * le**2, -6.0 * le, (2.0 - phi) * le**2],
            [-12.0, -6.0 * le, 12.0, -6.0 * le],
            [6.0 * le, (2.0 - phi) * le**2, -6.0 * le, (4.0 + phi) * le**2],
        ]
    )
    m = spec.density * area * le / 420.0 * np.array(
        [
            [156.0, 22.0 * le, 54.0, -13.0 * le],
            [22.0 * le, 4.0 * le**2, 13.0 * le, -3.0 * le**2],
            [54.0, 13.0 * le, 156.0, -22.0 * le],
            [-13.0 * le, -3.0 * le**2, -22.0 * le, 4.0 * le**2],
        ]
    )
    return k, m


def beam_matrices(spec):
    """Assembled (mass, damping, stiffness, force, pickoff) of the clamped beam.

    DOFs are (deflection, rotation) per free node; the clamped node is
    eliminated.  The force vector loads the tip deflection DOF, the pickoff
    row reads it back (collocated).
    """
    n_el = spec.n_elements
    le = spec.length / n_el
    ke, me = _beam_element(spec, le)
    ndof = 2 * (n_el + 1)
    kg = np.zeros((ndof, ndof))
    mg = np.zeros((ndof, ndof))
    for el in range(n_el):
        idx = slice(2 * el, 2 * el + 4)
        kg[idx, idx] += ke
        mg[idx, idx] += me
    # Clamp node 0: drop its deflection and rotation.
    kg = kg[2:, 2:]
    mg = mg[2:, 2:]
    cg = spec.alpha_mass * mg + spec.beta_stiffness * kg
    force = np.zeros((2 * n_el, 1))
    force[-2, 0] = 1.0
    pick = np.zeros((1, 2 * n_el))
    pick[0, -2] = 1.0
    return mg, cg, kg, force, pick


def timoshenko_beam(spec):
    """SISO state-space of the clamped beam: tip force in, tip deflection out.

    States are stacked (q, M dq/dt); with that choice only the state matrix
    depends on the beam length while the input and output maps stay constant.
    Model order is exactly 4 * n_elements.
    """
    mg, cg, kg, force, pick = beam_matrices(spec)
    nd = kg.shape[0]
    m_inv = np.linalg.solve(mg, np.eye(nd))
    a = np.zeros((2 * nd, 2 * nd))
    a[:nd, nd:] = m_inv
    a[nd:, :nd] = -kg
    a[nd:, nd:] = -cg @ m_inv
    b = np.vstack([np.zeros((nd, 1)), force])
    c = np.hstack([pick, np.zeros((1, nd))])
    return StateSpace(a, b, c, np.zeros((1, 1)))


def beam_generalized_plant(beam):
    """Partitioned plant [w; u] -> [z; y] with both inputs through the force
    path and z = y = tip deflection.  No feedthrough on any channel."""
    if beam.n_inputs != 1 or beam.n_outputs != 1:
        raise DimensionError("beam plant must be SISO")
    sys = StateSpace(
        beam.a,
        np.hstack([beam.b, beam.b]),
        np.vstack([beam.c, beam.c]),
        np.zeros((2, 2)),
    )
    return PartitionedSystem(sys, (1, 1), (1, 1))


# ---------------------------------------------------------------------------
# Modal building surrogate


def building_surrogate(n_modes, peak_omega=5.2, seed=0):
    """SISO modal system normalized to unit peak gain.

    The first mode sits at ``peak_omega`` with light damping and dominates the
    response; the remaining modes sit at higher frequencies with smaller,
    seeded peaks and alternating modal signs (as mode shapes alternate along a
    structure's height).  The sign alternation matters: feedback that flattens
    the dominant peak spills into the neighbors, so the achievable attenuation
    is bounded the way it is for a real flexible structure.  The output row is
    scaled so the peak gain is 1 to the accuracy of the norm solver.
    """
    if n_modes < 2 or seed < 0:
        raise DomainError("n_modes must be at least 2 and seed nonnegative")
    if not peak_omega > 0.0:
        # a mode at a nonpositive frequency has no positive damping term
        raise DomainError(f"peak_omega must be positive, got {peak_omega}")
    rng = np.random.default_rng(seed)
    omegas = np.empty(n_modes)
    zetas = np.empty(n_modes)
    gains = np.empty(n_modes)
    omegas[0], zetas[0], gains[0] = peak_omega, 0.05, 1.0
    spread = np.geomspace(1.6, 25.0, n_modes - 1)
    omegas[1:] = peak_omega * spread * rng.uniform(0.97, 1.03, n_modes - 1)
    zetas[1:] = rng.uniform(0.04, 0.08, n_modes - 1)
    main_peak = gains[0] / (2.0 * zetas[0])
    rel_peaks = 0.6 / spread**0.75 * rng.uniform(0.9, 1.1, n_modes - 1)
    signs = np.where(np.arange(1, n_modes) % 2 == 1, -1.0, 1.0)
    gains[1:] = signs * rel_peaks * main_peak * 2.0 * zetas[1:]

    n = 2 * n_modes
    a = np.zeros((n, n))
    b = np.zeros((n, 1))
    c = np.zeros((1, n))
    for i in range(n_modes):
        j = 2 * i
        a[j, j + 1] = 1.0
        a[j + 1, j] = -omegas[i] ** 2
        a[j + 1, j + 1] = -2.0 * zetas[i] * omegas[i]
        b[j + 1, 0] = gains[i] * omegas[i] ** 2
        c[0, j] = 1.0
    sys = StateSpace(a, b, c, np.zeros((1, 1)))
    peak = hinf_norm(sys, rel_tol=1e-8)
    return StateSpace(a, b, c / peak.value, np.zeros((1, 1)))


def lah_generalized_plant(building, rho):
    """Partitioned plant for the building: z = rho * (pickoff), y = pickoff.

    ``rho`` scales only the performance row, trading attenuation demand
    against the parameter-scaled controller-size weight.
    """
    if building.n_inputs != 1 or building.n_outputs != 1:
        raise DimensionError("building plant must be SISO")
    if not 0.5 <= rho <= 1.5:
        raise DomainError(f"rho must lie in [0.5, 1.5], got {rho}")
    sys = StateSpace(
        building.a,
        np.hstack([building.b, building.b]),
        np.vstack([rho * building.c, building.c]),
        np.zeros((2, 2)),
    )
    return PartitionedSystem(sys, (1, 1), (1, 1))


# ---------------------------------------------------------------------------
# Weighting filters


@dataclass(frozen=True)
class WeightSpec:
    """Parameters of a stability/roll-off weight.

    kinds:
      * ``static``: constant ``gain``.
      * ``first-order-lag``: gain / (s/corner + 1).
      * ``biquad-notch``: the band-emphasis biquad
        (s^2/(alpha*w_m)^2 + 2 m s / w_m + alpha^-2) /
        (s^2/w_m^2 + 2 m s / w_m + 1), optionally scaled by 1/rho per
        parameter-grid point (``rho_scaled``).
    """

    kind: str = "first-order-lag"
    gain: float = 0.1
    corner: float = 100.0
    w_m: float = 5.2
    alpha: float = 10.0
    m: float = 0.1
    rho_scaled: bool = False

    def __post_init__(self):
        if self.kind not in ("static", "first-order-lag", "biquad-notch"):
            raise DomainError(f"unknown weight kind {self.kind!r}")


def make_weight(spec, rho=1.0):
    """Stable, proper state-space realization of a weight at parameter ``rho``."""
    if spec.kind == "static":
        return static_gain([[spec.gain]])
    if spec.kind == "first-order-lag":
        if spec.corner <= 0.0:
            raise DomainError("lag corner frequency must be positive")
        return StateSpace(
            [[-spec.corner]], [[spec.corner]], [[spec.gain]], [[0.0]]
        )
    # biquad-notch
    w, al, m = spec.w_m, spec.alpha, spec.m
    if w <= 0.0 or al <= 0.0 or m <= 0.0:
        raise DomainError("biquad parameters w_m, alpha, m must be positive")
    pref = 1.0 / rho if spec.rho_scaled else 1.0
    if pref <= 0.0 or not np.isfinite(pref):
        raise DomainError(f"invalid weight scale at rho = {rho}")
    # Controllable canonical form of pref * (s^2/(al w)^2 + 2 m s/w + al^-2)
    # over (s^2/w^2 + 2 m s/w + 1); direct term pref/al^2, remainder linear.
    a = np.array([[0.0, 1.0], [-w * w, -2.0 * m * w]])
    b = np.array([[0.0], [1.0]])
    c = np.array([[0.0, pref * 2.0 * m * w * (1.0 - 1.0 / al**2)]])
    d = np.array([[pref / al**2]])
    return StateSpace(a, b, c, d)


# ---------------------------------------------------------------------------
# State-space text files


def save_statespace(sys, path):
    """Write ``sys`` in the shared text format (17 significant digits)."""
    lines = ["# state-space: n n_u n_y, then rows of A, B, C, D"]
    lines.append(f"{sys.n} {sys.n_inputs} {sys.n_outputs}")
    for m in (sys.a, sys.b, sys.c, sys.d):
        lines += [format_row(row) for row in m if row.size]
    write_lines(path, lines)


def load_statespace(path):
    """Parse the shared text format; errors carry the offending line number."""
    data = DataReader(path)
    n, n_u, n_y = data.header(("n", "n_u", "n_y"), "state-space")
    a = data.block("A", n, n)
    b = data.block("B", n, n_u)
    c = data.block("C", n_y, n)
    d = data.block("D", n_y, n_u)
    data.finish()
    return StateSpace(a, b, c, d)
