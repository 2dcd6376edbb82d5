import numpy as np
import pytest

from lfsynth.errors import DimensionError, DomainError, ParseError
from lfsynth.models import (
    BeamSpec,
    WeightSpec,
    beam_generalized_plant,
    beam_matrices,
    building_surrogate,
    lah_generalized_plant,
    load_statespace,
    make_weight,
    save_statespace,
    timoshenko_beam,
)
from lfsynth.norms import hinf_norm
from lfsynth.statespace import frequency_gain, spectral_abscissa, subsystem

from conftest import random_stable_ss


def beam_natural_frequencies(spec, count=None):
    """Undamped natural frequencies (rad/s), ascending."""
    mg, _, kg, _, _ = beam_matrices(spec)
    lam = np.linalg.eigvals(np.linalg.solve(mg, kg))
    freqs = np.sort(np.sqrt(np.abs(lam.real)))
    return freqs if count is None else freqs[:count]


def static_tip_compliance(spec):
    """Closed-form tip deflection per unit tip force of the shear-deformable
    cantilever: bending plus shear contribution."""
    e, g = spec.elastic_modulus, spec.shear_modulus
    return spec.length**3 / (3.0 * e * spec.second_moment) + spec.length / (
        spec.shear_factor * g * spec.area
    )


class TestBeam:
    def test_order_and_stability(self):
        for length in (10.0, 15.0, 20.0):
            beam = timoshenko_beam(BeamSpec(length=length, n_elements=6))
            assert beam.n == 24  # 4 states per element
            assert spectral_abscissa(beam) < 0.0

    def test_static_compliance_matches_analytic(self):
        for n_el in (8, 15):
            spec = BeamSpec(length=12.0, n_elements=n_el)
            mg, cg, kg, force, pick = beam_matrices(spec)
            fem = float((pick @ np.linalg.solve(kg, force))[0, 0])
            assert fem == pytest.approx(static_tip_compliance(spec), rel=0.02)

    def test_dc_gain_equals_compliance(self):
        spec = BeamSpec(length=15.0, n_elements=8)
        beam = timoshenko_beam(spec)
        dc = frequency_gain(beam, 0.0)[0, 0].real
        assert dc == pytest.approx(static_tip_compliance(spec), rel=1e-6)

    def test_density_scaling_of_frequencies(self):
        base = beam_natural_frequencies(BeamSpec(length=15.0, n_elements=10), 4)
        heavy = beam_natural_frequencies(
            BeamSpec(length=15.0, n_elements=10, density=2.0 * 7850.0), 4
        )
        assert np.allclose(heavy / base, 1.0 / np.sqrt(2.0), atol=1e-6)

    def test_frequencies_decrease_with_length(self):
        lengths = (10.0, 12.5, 15.0, 17.5, 20.0)
        freqs = [beam_natural_frequencies(BeamSpec(length=L, n_elements=10), 3)
                 for L in lengths]
        for a, b in zip(freqs, freqs[1:]):
            assert np.all(b < a)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            BeamSpec(length=-1.0)
        with pytest.raises(DomainError):
            BeamSpec(n_elements=1)
        with pytest.raises(DomainError):
            BeamSpec(elastic_modulus=0.0)


class TestBeamPlant:
    def test_channels(self):
        beam = timoshenko_beam(BeamSpec(n_elements=4))
        p = beam_generalized_plant(beam)
        assert p.input_partition == (1, 1) and p.output_partition == (1, 1)
        assert np.all(p.sys.d == 0.0)

    def test_open_loop_channel_matches_beam(self):
        beam = timoshenko_beam(BeamSpec(n_elements=4))
        p = beam_generalized_plant(beam)
        chan = subsystem(p, 0, 0)
        for w in (0.1, 1.0, 5.0):
            assert np.allclose(
                frequency_gain(chan, w), frequency_gain(beam, w), atol=1e-12
            )

    def test_requires_siso(self, rng):
        with pytest.raises(DimensionError):
            beam_generalized_plant(random_stable_ss(rng, 2, 2, 1))


class TestBuilding:
    def test_normalized_for_many_seeds(self):
        for seed in range(10):
            b = building_surrogate(4, 5.2, seed=seed)
            assert b.n == 8
            assert hinf_norm(b, rel_tol=1e-7).value == pytest.approx(1.0, abs=1e-6)

    def test_peak_placement(self):
        b = building_surrogate(8, 5.2, seed=3)
        res = hinf_norm(b, rel_tol=1e-7)
        assert res.peak_omega == pytest.approx(5.2, rel=0.05)

    def test_deterministic(self):
        b1 = building_surrogate(6, 5.2, seed=11)
        b2 = building_surrogate(6, 5.2, seed=11)
        assert np.array_equal(b1.a, b2.a)
        assert np.array_equal(b1.b, b2.b)
        assert np.array_equal(b1.c, b2.c)

    def test_too_few_modes(self):
        with pytest.raises(DomainError):
            building_surrogate(1)


class TestBuildingPlant:
    def test_rho_one_duplicates_rows(self):
        b = building_surrogate(4, 5.2, seed=0)
        p = lah_generalized_plant(b, 1.0)
        assert np.allclose(p.sys.c[0], p.sys.c[1])
        assert np.all(p.sys.d == 0.0)

    @pytest.mark.parametrize("rho", [0.5, 1.5])
    def test_linear_output_scaling(self, rho):
        b = building_surrogate(4, 5.2, seed=0)
        p = lah_generalized_plant(b, rho)
        for w in (1.0, 5.2, 20.0):
            g = frequency_gain(p.sys, w)
            assert np.allclose(g[0], rho * g[1], atol=1e-12)

    def test_rho_bounds(self):
        b = building_surrogate(4, 5.2, seed=0)
        with pytest.raises(DomainError):
            lah_generalized_plant(b, 2.0)


class TestWeights:
    def test_lag_values(self):
        w = make_weight(WeightSpec(kind="first-order-lag", gain=0.1, corner=100.0))
        assert abs(frequency_gain(w, 0.0)[0, 0]) == pytest.approx(0.1)
        assert abs(frequency_gain(w, 1000.0)[0, 0]) == pytest.approx(0.00995, rel=1e-3)

    def test_biquad_dc(self):
        spec = WeightSpec(kind="biquad-notch", w_m=5.2, alpha=10.0, m=0.1,
                          rho_scaled=True)
        w = make_weight(spec, rho=1.0)
        assert abs(frequency_gain(w, 0.0)[0, 0]) == pytest.approx(0.01, rel=1e-9)
        # band-center gain is the 1/rho prefactor; far above, back to alpha^-2
        assert abs(frequency_gain(w, 5.2)[0, 0]) == pytest.approx(1.0, rel=1e-9)
        assert abs(frequency_gain(w, 5.2e4)[0, 0]) == pytest.approx(0.01, rel=1e-2)

    def test_rho_scaling_halves_response(self):
        spec = WeightSpec(kind="biquad-notch", w_m=5.2, alpha=10.0, m=0.1,
                          rho_scaled=True)
        w1 = make_weight(spec, rho=1.0)
        w2 = make_weight(spec, rho=2.0)
        for w in (0.0, 2.0, 5.2, 50.0):
            assert abs(frequency_gain(w2, w)[0, 0]) == pytest.approx(
                0.5 * abs(frequency_gain(w1, w)[0, 0]), rel=1e-12
            )

    def test_static(self):
        w = make_weight(WeightSpec(kind="static", gain=0.05))
        assert w.is_static and w.d[0, 0] == 0.05

    def test_stability_validation(self):
        with pytest.raises(DomainError):
            make_weight(WeightSpec(kind="first-order-lag", corner=-10.0))
        with pytest.raises(DomainError):
            make_weight(WeightSpec(kind="biquad-notch", m=-0.1))
        with pytest.raises(DomainError):
            WeightSpec(kind="nonsense")

    def test_weights_are_stable(self):
        for spec in (
            WeightSpec(kind="first-order-lag"),
            WeightSpec(kind="biquad-notch", rho_scaled=True),
        ):
            w = make_weight(spec, rho=0.7)
            assert spectral_abscissa(w) < 0.0


class TestStateSpaceFile:
    def test_roundtrip_exact(self, rng, tmp_path):
        sys = random_stable_ss(rng, 4, 2, 3)
        path = tmp_path / "sys.ss"
        save_statespace(sys, str(path))
        back = load_statespace(str(path))
        assert np.array_equal(back.a, sys.a)
        assert np.array_equal(back.b, sys.b)
        assert np.array_equal(back.c, sys.c)
        assert np.array_equal(back.d, sys.d)

    def test_static_header(self, tmp_path):
        path = tmp_path / "g.ss"
        path.write_text("# static gain\n0 1 1\n2.5\n")
        sys = load_statespace(str(path))
        assert sys.is_static and sys.d[0, 0] == 2.5

    def test_truncated_names_block(self, rng, tmp_path):
        sys = random_stable_ss(rng, 3, 1, 1)
        path = tmp_path / "sys.ss"
        save_statespace(sys, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ParseError, match="[CD]"):
            load_statespace(str(path))

    def test_bad_token_line_number(self, tmp_path):
        path = tmp_path / "bad.ss"
        path.write_text("1 1 1\n-1.0\nnot_a_number\n1.0\n0.0\n")
        with pytest.raises(ParseError, match=":3:"):
            load_statespace(str(path))

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.ss"
        path.write_text("1 1 1\n-1.0 2.0\n1.0\n1.0\n0.0\n")
        with pytest.raises(ParseError, match="expected 1"):
            load_statespace(str(path))

    def test_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.ss"
        path.write_text("# header\n\n1 1 1\n# A block\n-2.0\n\n1.0\n1.0\n0.5\n")
        sys = load_statespace(str(path))
        assert sys.a[0, 0] == -2.0 and sys.d[0, 0] == 0.5
