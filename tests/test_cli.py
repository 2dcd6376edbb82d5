import gc
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from lfsynth import cli, synth
from lfsynth.cli import RunConfig, main, parse_config
from lfsynth.errors import ConfigError, SingularMatrixError
from lfsynth.lft import (
    count_free_params,
    eval_controller,
    load_controller,
    lower_lft_ss,
    save_controller,
    zero_block,
)
from lfsynth.models import load_statespace, save_statespace
from lfsynth.norms import h2_norm, hinf_norm
from lfsynth.statespace import FrequencyKernel, StateSpace

# the committed benchmark problems and their controllers
BUNDLED = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"


def write_custom_plants(tmp_path, poles):
    """Tiny custom-scenario generalized plants: x' = p x + w + u, z = y = x."""
    paths = []
    for i, p in enumerate(poles):
        sys = StateSpace([[p]], [[1.0, 1.0]], [[1.0], [1.0]], np.zeros((2, 2)))
        path = tmp_path / f"plant{i}.ss"
        save_statespace(sys, str(path))
        paths.append(str(path))
    return paths


@pytest.fixture
def toy_config(tmp_path):
    plants = write_custom_plants(tmp_path, [-1.0, -2.0])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "\n".join(
            [
                "# toy custom scenario",
                "scenario = custom",
                "grid = 1.0, 2.0",
                f"custom.plants = {', '.join(plants)}",
                "custom.n_u = 1",
                "custom.n_y = 1",
                "n_k = 0",
                "n_delta = 1",
                "class = full-hinf",
                "dependency = affine",
                "ak_shape = full",
                "wk.kind = static",
                "wk.gain = 0.02",
                "opt.max_iter = 40",
                "opt.restarts = 2",
                "opt.seed = 0",
                "sweep.n_points = 5",
                "sweep.metric = hinf",
                f"io.controller = {tmp_path}/controller.txt",
                f"io.trace = {tmp_path}/trace.csv",
                f"io.summary = {tmp_path}/summary.txt",
            ]
        )
        + "\n"
    )
    return cfg, tmp_path


# every config key: (key, value text, RunConfig attribute, parsed value),
# each value other than the attribute's default
EVERY_KEY = [
    ("scenario", "custom", "scenario", "custom"),
    ("grid", "1, 2.5", "grid", (1.0, 2.5)),
    ("n_k", "3", "n_k", 3),
    ("n_delta", "0", "n_delta", 0),
    ("class", "strictly-proper-h2", "controller_class", "strictly-proper-h2"),
    ("dependency", "rational", "dependency", "rational"),
    ("ak_shape", "tridiagonal", "ak_shape", "tridiagonal"),
    ("wk.kind", "biquad-notch", "wk_kind", "biquad-notch"),
    ("wk.gain", "0.5", "wk_gain", 0.5),
    ("wk.corner", "20", "wk_corner", 20.0),
    ("wk.wm", "3.5", "wk_wm", 3.5),
    ("wk.alpha", "4", "wk_alpha", 4.0),
    ("wk.m", "0.25", "wk_m", 0.25),
    ("wk.rho_scaled", "Yes", "wk_rho_scaled", True),
    ("opt.max_iter", "7", "opt_max_iter", 7),
    ("opt.restarts", "2", "opt_restarts", 2),
    ("opt.seed", "11", "opt_seed", 11),
    ("opt.nominal_index", "1", "opt_nominal_index", 1),
    ("opt.refine_rounds", "1", "opt_refine_rounds", 1),
    ("sweep.rho_min", "0.5", "sweep_rho_min", 0.5),
    ("sweep.rho_max", "3", "sweep_rho_max", 3.0),
    ("sweep.n_points", "9", "sweep_n_points", 9),
    ("sweep.metric", "h2", "sweep_metric", "h2"),
    ("beam.n_elements", "4", "beam_n_elements", 4),
    ("building.n_modes", "6", "building_n_modes", 6),
    ("building.peak_omega", "2.5", "building_peak_omega", 2.5),
    ("building.seed", "3", "building_seed", 3),
    ("custom.plants", "a.ss, b.ss", "custom_plants", ("a.ss", "b.ss")),
    ("custom.n_u", "2", "custom_n_u", 2),
    ("custom.n_y", "3", "custom_n_y", 3),
    ("io.controller", "k.txt", "io_controller", "k.txt"),
    ("io.trace", "t.csv", "io_trace", "t.csv"),
    ("io.summary", "s.txt", "io_summary", "s.txt"),
]


class TestConfigParsing:
    def test_every_key_sets_its_field(self, tmp_path):
        assert sorted(attr for _, _, attr, _ in EVERY_KEY) == sorted(
            f.name for f in fields(RunConfig)
        )
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"  {key} =  {text} \n" for key, text, _, _ in EVERY_KEY))
        parsed, defaults = parse_config(str(cfg)), RunConfig()
        for key, _, attr, expected in EVERY_KEY:
            value = getattr(parsed, attr)
            assert value == expected and value != getattr(defaults, attr), key
            assert type(value) is type(expected), key
            if isinstance(expected, tuple):
                assert [type(v) for v in value] == [type(v) for v in expected], key

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = beam\ngrid = 1\nnonsense = 3\n")
        with pytest.raises(ConfigError, match="nonsense"):
            parse_config(str(cfg))

    def test_missing_grid(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = beam\n")
        with pytest.raises(ConfigError, match="grid"):
            parse_config(str(cfg))

    def test_bad_value_names_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = beam\ngrid = 10\nn_k = lots\n")
        with pytest.raises(ConfigError, match="n_k"):
            parse_config(str(cfg))

    def test_sweep_must_cover_grid(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = beam\ngrid = 10, 20\nsweep.rho_min = 12\n")
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(str(cfg))

    def test_defaults_fill_in(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = beam\ngrid = 10, 15, 20\n")
        parsed = parse_config(str(cfg))
        assert parsed.sweep_rho_min == 10.0
        assert parsed.sweep_rho_max == 20.0
        assert parsed.opt_nominal_index == 1

    def test_negative_nominal_index_other_than_minus_one(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = beam\ngrid = 1, 2, 3, 4, 5\nopt.nominal_index = -4\n")
        with pytest.raises(ConfigError, match="nominal_index"):
            parse_config(str(cfg))

    def test_exit_code_on_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario = beam\n")
        assert main(["synth", "--config", str(cfg)]) == 1

    def test_binary_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"\xff\xfe\x00scenario = beam\n")
        assert main(["synth", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        # an escaping exception would fail the call itself, so no traceback
        assert err.startswith("config error: cannot read config") and str(cfg) in err

    # appended to the bundled building config, whose last line for a key wins;
    # a NaN grid value escapes the grid-range check, infinite bounds reach lft,
    # and a NaN bound is a value, not the unset default
    @pytest.mark.parametrize("line", [
        "grid = 0.5, 0.75, 1.0, 1.25, nan", "sweep.rho_max = inf", "sweep.rho_min = -inf",
        "sweep.rho_min = nan", "sweep.rho_max = nan",
    ])
    def test_non_finite_value_exits_1(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text((BUNDLED / "building.cfg").read_text() + line + "\n")
        out = tmp_path / "sweep.csv"
        code = main(["eval", "--controller", str(BUNDLED / "building_controller.txt"),
                     "--config", str(cfg), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ")
        assert not out.exists()

    # appended to the bundled building config: a negative seed would reach
    # numpy's generator, which raises ValueError, and no refinement round
    # would run no descent and report the stabilized start converged
    @pytest.mark.parametrize("command, line", [
        ("synth", "opt.seed = -1"), ("eval", "building.seed = -1"),
        ("synth", "opt.refine_rounds = -1"),
    ])
    def test_negative_seed_or_rounds_exits_1(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        io = "".join(f"io.{name} = {tmp_path / name}.txt\n" for name in ("controller", "trace", "summary"))
        cfg.write_text((BUNDLED / "building.cfg").read_text() + line + "\n" + io)
        out = tmp_path / "sweep.csv"
        argv = {"synth": ["synth", "--config", str(cfg)],
                "eval": ["eval", "--controller", str(BUNDLED / "building_controller.txt"),
                         "--config", str(cfg), "--out", str(out)]}[command]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "nonnegative" in err[0]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]

    def test_one_parser_per_process(self, toy_config, tmp_path):
        """Two main calls build one parser, and a command that follows a
        config error, or a usage error, still runs."""
        cfg, _ = toy_config
        cli._build_parser.cache_clear()
        bad = tmp_path / "bad.cfg"
        bad.write_text("scenario = beam\n")
        assert main(["synth", "--config", str(bad)]) == 1
        with pytest.raises(SystemExit):
            main(["eval", "--config", str(cfg)])  # no --controller nor --out
        controller, out = tmp_path / "k.txt", tmp_path / "sweep.csv"
        # u = -0.1 y stabilizes both toy plants
        save_controller(zero_block(0, 1, 1, 1).with_free_values([0.0, 0.0, 0.0, -0.1]),
                        str(controller))
        assert main(["eval", "--controller", str(controller), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",1")
        assert cli._build_parser.cache_info().misses == 1

    def test_config_file_is_closed(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("scenario = beam\ngrid = 10, 15, 20\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            parse_config(str(cfg))
            gc.collect()  # an unclosed file warns when it is collected
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestSynthCommand:
    def test_end_to_end_files(self, toy_config):
        cfg, tmp_path = toy_config
        code = main(["synth", "--config", str(cfg)])
        assert code in (0, 2)
        kb = load_controller(str(tmp_path / "controller.txt"))
        assert (kb.n_k, kb.n_delta, kb.n_u, kb.n_y) == (0, 1, 1, 1)
        summary = (tmp_path / "summary.txt").read_text()
        assert "gamma:" in summary and "per_point_norms:" in summary
        gamma = float(
            [ln for ln in summary.splitlines() if ln.startswith("gamma:")][0].split()[1]
        )
        per_point = [
            float(v)
            for v in [ln for ln in summary.splitlines()
                      if ln.startswith("per_point_norms:")][0].split()[1:]
        ]
        assert gamma == pytest.approx(max(per_point), rel=1e-9)
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,objective,max_abscissa,step_norm,wall_ms"
        objs = [float(row.split(",")[1]) for row in trace[1:]]
        assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


    def test_stabilization_failure_writes_no_files(self, tmp_path, capsys):
        # the nominal plant is stable, but the second one has a pole at +1
        # that u does not reach: the full grid cannot be stabilized
        stable = write_custom_plants(tmp_path, [-1.0])[0]
        unreachable = tmp_path / "unreachable.ss"
        save_statespace(
            StateSpace([[1.0]], [[1.0, 0.0]], [[1.0], [1.0]], np.zeros((2, 2))),
            str(unreachable),
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "scenario = custom\ngrid = 1.0, 2.0\n"
            f"custom.plants = {stable}, {unreachable}\n"
            "n_k = 0\nn_delta = 0\nopt.nominal_index = 0\nwk.kind = static\n"
            f"io.controller = {tmp_path}/controller.txt\n"
            f"io.trace = {tmp_path}/trace.csv\n"
            f"io.summary = {tmp_path}/summary.txt\n"
        )
        assert main(["synth", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("synth: ")
        for name in ("controller.txt", "trace.csv", "summary.txt"):
            assert not (tmp_path / name).exists(), name


class TestEvalCommand:
    def test_sweep_csv(self, toy_config, tmp_path):
        cfg, base = toy_config
        assert main(["synth", "--config", str(cfg)]) in (0, 2)
        out = base / "sweep.csv"
        code = main(
            ["eval", "--controller", str(base / "controller.txt"),
             "--config", str(cfg), "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "rho,metric_value,closed_loop_stable"
        assert len(rows) == 6
        for row in rows[1:]:
            rho, value, stable = row.split(",")
            assert stable in ("0", "1")
            if stable == "1":
                assert float(value) > 0.0

    @pytest.mark.parametrize("kind", ["missing", "directory", "binary"])
    def test_unreadable_controller_exits_1(self, toy_config, capsys, kind):
        cfg, base = toy_config
        ctl = {"missing": base / "nofile.txt", "directory": base, "binary": base / "k.bin"}[kind]
        if kind == "binary":
            ctl.write_bytes(b"\xff\xfe\x00\n")
        out = base / "sweep.csv"
        code = main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        # an escaping exception would fail the call itself, so no traceback
        assert err.startswith("error: ") and str(ctl) in err
        assert not out.exists()

    def test_missing_model_file_exits_1(self, toy_config, capsys):
        cfg, base = toy_config
        missing = base / "gone.ss"
        cfg.write_text(cfg.read_text().replace(str(base / "plant1.ss"), str(missing)))
        code = main(["synth", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_ill_posed_rows_flagged(self, tmp_path):
        plants = write_custom_plants(tmp_path, [-1.0, -2.0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "grid = 1.0, 2.0",
                    f"custom.plants = {', '.join(plants)}",
                    "n_k = 0",
                    "n_delta = 1",
                    "sweep.n_points = 3",
                ]
            )
            + "\n"
        )
        # d_zw = 1 makes the parameter loop singular at rho = 1
        ctl = tmp_path / "k.txt"
        ctl.write_text("0 1 1 1\n1 0\n0 0\n1 1\n1 1\n")
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        flagged = [r for r in rows if r.endswith(",0")]
        assert len(flagged) >= 1
        assert any(r.split(",")[1] == "" for r in flagged)

    @pytest.mark.parametrize("metric", ["hinf", "h2"])
    def test_unstable_rows_flagged(self, tmp_path, metric):
        plants = write_custom_plants(tmp_path, [-1.0, -2.0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "grid = 1.0, 2.0",
                    f"custom.plants = {', '.join(plants)}",
                    "n_k = 0",
                    "n_delta = 1",
                    "sweep.n_points = 3",
                    f"sweep.metric = {metric}",
                ]
            )
            + "\n"
        )
        # u = 1.5 y moves the pole at -1 to +0.5; the pole at -2 stays stable
        ctl = tmp_path / "k.txt"
        ctl.write_text("0 1 1 1\n0 0\n0 1.5\n1 1\n1 1\n")
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [r[2] for r in rows] == ["0", "0", "1"]
        assert rows[0][1] == rows[1][1] == "" and float(rows[2][1]) > 0.0

    def test_numerical_failure_row_flagged(self, tmp_path, monkeypatch):
        plants = write_custom_plants(tmp_path, [-1.0, -2.0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "grid = 1.0, 2.0",
                    f"custom.plants = {', '.join(plants)}",
                    "n_k = 0",
                    "n_delta = 1",
                    "sweep.n_points = 3",
                ]
            )
            + "\n"
        )
        # a zero controller leaves every loop stable; the stacked norm raises,
        # and so does the middle loop's norm on its own
        ctl = tmp_path / "k.txt"
        ctl.write_text("0 1 1 1\n0 0\n0 0\n1 1\n1 1\n")
        real, sizes = cli._hinf_norms, []

        def failing(closed, rel_tol):
            sizes.append(closed.a.shape[0])
            if len(sizes) in (1, 3):
                raise SingularMatrixError("frequency 1 rad/s coincides with a system pole")
            return real(closed, rel_tol)

        monkeypatch.setattr(cli, "_hinf_norms", failing)
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert sizes == [3, 1, 1, 1] and [r[2] for r in rows] == ["1", "1", "1"]
        assert rows[1][1] == "" and float(rows[0][1]) > 0.0 and float(rows[2][1]) > 0.0

    @pytest.mark.parametrize("metric", ["hinf", "h2"])
    def test_mixed_sweep_flags(self, tmp_path, monkeypatch, metric):
        # x' = -x + w + u, z = y = x with u = d(rho) y, where the parameter
        # loop gives d = rho / (1 - rho / 2): rho 0.5, ..., 4 in steps of 0.5
        plants = write_custom_plants(tmp_path, [-1.0, -1.0])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "scenario = custom",
                    "grid = 0.5, 4.0",
                    f"custom.plants = {', '.join(plants)}",
                    "n_k = 0",
                    "n_delta = 1",
                    "sweep.n_points = 8",
                    f"sweep.metric = {metric}",
                ]
            )
            + "\n"
        )
        ctl = tmp_path / "k.txt"
        ctl.write_text("0 1 1 1\n0.5 1\n1 0\n1 1\n1 1\n")
        # the loop at rho = 3 (pole -1 + d = -7) fails numerically
        name = "_hinf_norms" if metric == "hinf" else "_h2_norms"
        real = getattr(cli, name)

        def failing(closed, *args):
            if (np.asarray(closed.a) == -7.0).any():
                raise SingularMatrixError("frequency 7 rad/s coincides with a system pole")
            return real(closed, *args)

        monkeypatch.setattr(cli, name, failing)
        # the sweep's one plant-order stack is closed once, ill-posed value
        # and all
        closes, real_close = [], cli.closed_loop_matrices

        def close(plant, ctrl):
            closes.append(len(ctrl.a))
            return real_close(plant, ctrl)

        monkeypatch.setattr(cli, "closed_loop_matrices", close)
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert closes == [8]
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert [float(r[0]) for r in rows] == [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        # stable, unstable (d = 2 and 6), ill posed (rho = 2), stable,
        # numerically failing, stable
        assert [r[2] for r in rows] == ["1", "0", "0", "0", "1", "1", "1", "1"]
        empty = [i for i, r in enumerate(rows) if r[1] == ""]
        assert empty == [1, 2, 3, 5]
        # each value is that of the loop x' = (-1 + d) x + w, z = x: 1 / (1 - d)
        # for both norms up to the H2 factor sqrt(1 / (2 (1 - d)))
        for i in (0, 4, 6, 7):
            rho = float(rows[i][0])
            pole = -1.0 + rho / (1.0 - rho / 2.0)
            expected = -1.0 / pole if metric == "hinf" else np.sqrt(-0.5 / pole)
            assert float(rows[i][1]) == pytest.approx(expected, rel=1e-6)

    def test_plants_of_two_state_orders(self, tmp_path):
        # one stack per state order: a lag at rho = 1 and a resonance at 2
        lag = StateSpace([[-1.0]], [[1.0, 1.0]], [[1.0], [1.0]], np.zeros((2, 2)))
        osc = StateSpace([[0.0, 1.0], [-4.0, -0.4]], [[0.0, 0.0], [1.0, 1.0]],
                         [[1.0, 0.0], [1.0, 0.0]], np.zeros((2, 2)))
        paths = []
        for name, sys in (("lag", lag), ("osc", osc)):
            paths.append(str(tmp_path / f"{name}.ss"))
            save_statespace(sys, paths[-1])
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scenario = custom\ngrid = 1.0, 2.0\ncustom.plants = {', '.join(paths)}\n"
            "n_k = 0\nn_delta = 1\nsweep.n_points = 3\n"
        )
        ctl = tmp_path / "k.txt"
        ctl.write_text("0 1 1 1\n0 0.5\n0.5 -0.5\n1 1\n1 1\n")
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        kb, scn = load_controller(str(ctl)), cli.Scenario(parse_config(str(cfg)))
        expected = [hinf_norm(lower_lft_ss(scn.plant(rho), eval_controller(kb, rho)), 1e-6).value
                    for rho in (1.0, 1.5, 2.0)]
        assert [r[2] for r in rows] == ["1", "1", "1"]
        assert np.array_equal([float(r[1]) for r in rows], expected)


    def test_custom_plant_read_once_per_file(self, toy_config, monkeypatch):
        cfg, base = toy_config
        cfg.write_text(cfg.read_text().replace("sweep.n_points = 5", "sweep.n_points = 21"))
        ctl = base / "k.txt"
        ctl.write_text("0 1 1 1\n0 0.5\n0.5 -0.5\n1 1\n1 1\n")
        reads = []

        def counting(path, _real=cli.load_statespace):
            reads.append(path)
            return _real(path)

        monkeypatch.setattr(cli, "load_statespace", counting)
        out = base / "sweep.csv"
        assert main(["eval", "--controller", str(ctl), "--config", str(cfg),
                     "--out", str(out)]) == 0
        plants = parse_config(str(cfg)).custom_plants
        assert sorted(reads) == sorted(plants)
        # each value's row is the norm against its nearest grid plant
        kb, rows = load_controller(str(ctl)), out.read_text().splitlines()[1:]
        for rho, row in zip(np.linspace(1.0, 2.0, 21), rows):
            plant = cli.Scenario(parse_config(str(cfg))).plant(1.0 if rho <= 1.5 else 2.0)
            closed = lower_lft_ss(plant, eval_controller(kb, rho))
            _, value, stable = row.split(",")
            assert float(value) == hinf_norm(closed, 1e-6).value and stable == "1"


class TestStackedAgainstOnePoint:
    """The stacked eval and bode passes against one closed loop at a time,
    bit for bit (17 significant digits give every double back exactly)."""

    @pytest.mark.parametrize("name", ["beam", "building", "beam-h2"])
    def test_sweep_rows(self, tmp_path, name):
        # beam-h2: the beam's 62-state loops at h2, which no bundled sweep runs
        name, _, metric = name.partition("-")
        cfg_path, ctl = str(BUNDLED / f"{name}.cfg"), str(BUNDLED / f"{name}_controller.txt")
        if metric:
            cfg_path = str(tmp_path / f"{name}.cfg")
            Path(cfg_path).write_text(
                (BUNDLED / f"{name}.cfg").read_text() + f"sweep.metric = {metric}\n"
            )
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", ctl, "--config", cfg_path, "--out", str(out)]) == 0
        cfg, kb = parse_config(cfg_path), load_controller(ctl)
        scn = cli.Scenario(cfg)
        rhos = np.linspace(cfg.sweep_rho_min, cfg.sweep_rho_max, cfg.sweep_n_points)
        expected = []
        for rho in rhos:
            if cfg.sweep_metric == "hinf":
                closed = lower_lft_ss(scn.plant(rho), eval_controller(kb, rho))
                expected.append(hinf_norm(closed, 1e-6).value)
            else:
                closed = lower_lft_ss(scn.measurement_plant(rho), eval_controller(kb, rho))
                expected.append(h2_norm(closed))
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert np.array_equal([float(r[0]) for r in rows], rhos)
        assert np.array_equal([float(r[1]) for r in rows], expected)
        assert all(r[2] == "1" for r in rows)

    def test_sweep_reproduces_the_synthesis_certificate(self, tmp_path):
        """eval and synthesis instantiate and close through the same lft
        calls: at each synthesis grid value the sweep's row is the
        certificate's closed-loop norm, bit for bit."""
        cfg_path = tmp_path / "beam.cfg"
        cfg_path.write_text(
            (BUNDLED / "beam.cfg").read_text().replace("sweep.n_points = 11", "sweep.n_points = 21")
        )
        ctl = str(BUNDLED / "beam_controller.txt")
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", ctl, "--config", str(cfg_path),
                     "--out", str(out)]) == 0
        rows = {float(r.split(",")[0]): r.split(",")
                for r in out.read_text().splitlines()[1:]}
        _, problem = cli.build_problem(parse_config(str(cfg_path)))
        cert = synth._certify(problem, load_controller(ctl), 1e-6)
        assert len(problem.grid) == 5
        for j, rho in enumerate(problem.grid):
            assert rows[rho][2] == "1"
            assert float(rows[rho][1]) == cert.perf[j]

    @pytest.mark.parametrize("name, levels", [("beam", "10,15,20"), ("building", "0.5,1,1.5")])
    def test_bode_columns(self, tmp_path, name, levels):
        cfg_path, ctl = str(BUNDLED / f"{name}.cfg"), str(BUNDLED / f"{name}_controller.txt")
        out = tmp_path / "bode.csv"
        assert main(["bode", "--controller", ctl, "--config", cfg_path, "--rho", levels,
                     "--out", str(out)]) == 0
        kb, scn = load_controller(ctl), cli.Scenario(parse_config(cfg_path))
        table = np.array([[float(v) for v in r.split(",")]
                          for r in out.read_text().splitlines()[1:]])
        omegas = table[:, 0]
        for j, rho in enumerate(float(v) for v in levels.split(",")):
            closed = lower_lft_ss(scn.measurement_plant(rho), eval_controller(kb, rho))
            assert np.array_equal(table[:, 2 + j], FrequencyKernel(closed).sigma(omegas)[0])


class TestBodeCommand:
    def test_columns_and_determinism(self, toy_config, tmp_path):
        cfg, base = toy_config
        assert main(["synth", "--config", str(cfg)]) in (0, 2)
        out1 = base / "bode1.csv"
        out2 = base / "bode2.csv"
        for out in (out1, out2):
            code = main(
                ["bode", "--controller", str(base / "controller.txt"),
                 "--config", str(cfg), "--rho", "1.0,2.0", "--out", str(out)]
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0].split(",")
        assert header == ["omega", "open_loop", "rho_1", "rho_2"]

    @pytest.mark.parametrize("loop", ["parameter", "feedback"])
    def test_ill_posed_rho_exits_1(self, toy_config, capsys, loop):
        cfg, base = toy_config
        ctl = base / "k.txt"
        # d_zw = 0.5 makes the parameter loop singular at rho = 2; in the
        # feedback case the grid plant at rho = 2, which rho = 2 and 2.5 use,
        # gets the feedthrough d22 = 1, closed by the controller d = 1
        if loop == "parameter":
            ctl.write_text("0 1 1 1\n0.5 0\n0 0\n1 1\n1 1\n")
        else:
            plant = base / "plant1.ss"
            save_statespace(StateSpace([[-2.0]], [[1.0, 1.0]], [[1.0], [1.0]],
                                       [[0.0, 0.0], [0.0, 1.0]]), str(plant))
            ctl.write_text("0 1 1 1\n0 0\n0 1\n1 1\n1 1\n")
        out = base / "bode.csv"
        code = main(["bode", "--controller", str(ctl), "--config", str(cfg),
                     "--rho", "1.5,2,2.5", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "rho = 2" in err[0]
        assert not out.exists()

    def test_bad_rho_exits_1(self, toy_config, capsys):
        cfg, base = toy_config
        ctl = base / "k.txt"
        ctl.write_text("0 1 1 1\n0 0\n0 0\n1 1\n1 1\n")
        out = base / "bode.csv"
        code = main(["bode", "--controller", str(ctl), "--config", str(cfg),
                     "--rho", "0.5,abc", "--out", str(out)])
        assert code == 1
        assert "--rho" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rho", ["nan", "inf", "", ","])
    def test_empty_or_non_finite_rho_exits_1(self, tmp_path, capsys, rho):
        out = tmp_path / "bode.csv"
        code = main(["bode", "--controller", str(BUNDLED / "building_controller.txt"),
                     "--config", str(BUNDLED / "building.cfg"), "--rho", rho,
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: ") and "--rho" in err[0]
        assert not out.exists()


class TestOverflowingController:
    """The beam controller with every free entry at 1e200: its matrices
    overflow at every sweep value."""

    @pytest.fixture
    def huge(self, tmp_path):
        kb = load_controller(BUNDLED / "beam_controller.txt")
        path = tmp_path / "huge.txt"
        save_controller(kb.with_free_values(np.full(count_free_params(kb), 1e200)), str(path))
        return path

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_eval_flags_every_row(self, huge, tmp_path):
        out = tmp_path / "eval.csv"
        code = main(["eval", "--controller", str(huge), "--config", str(BUNDLED / "beam.cfg"),
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert rows and all(row.split(",")[1:] == ["", "0"] for row in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bode_exits_1(self, huge, tmp_path, capsys):
        out = tmp_path / "bode.csv"
        code = main(["bode", "--controller", str(huge), "--config", str(BUNDLED / "beam.cfg"),
                     "--rho", "10,15", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "rho = 10" in err[0]
        assert not out.exists()


class TestScenarioSmoke:
    def test_beam_scenario_synthesis(self, tmp_path):
        cfg = tmp_path / "beam.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "scenario = beam",
                    "grid = 12, 18",
                    "beam.n_elements = 2",
                    "n_k = 1",
                    "n_delta = 1",
                    "dependency = affine",
                    "wk.kind = first-order-lag",
                    "wk.gain = 0.1",
                    "wk.corner = 100",
                    "opt.max_iter = 15",
                    "opt.restarts = 1",
                    "sweep.n_points = 3",
                    f"io.controller = {tmp_path}/k.txt",
                    f"io.trace = {tmp_path}/t.csv",
                    f"io.summary = {tmp_path}/s.txt",
                ]
            )
            + "\n"
        )
        assert main(["synth", "--config", str(cfg)]) in (0, 2)
        out = tmp_path / "sweep.csv"
        assert main(["eval", "--controller", f"{tmp_path}/k.txt", "--config",
                     str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_building_scenario_synthesis(self, tmp_path):
        cfg = tmp_path / "bldg.cfg"
        cfg.write_text(
            "\n".join(
                [
                    "scenario = building",
                    "grid = 0.6, 1.4",
                    "building.n_modes = 2",
                    "n_k = 1",
                    "n_delta = 1",
                    "dependency = affine",
                    "wk.kind = biquad-notch",
                    "wk.rho_scaled = true",
                    "opt.max_iter = 15",
                    "opt.restarts = 1",
                    "sweep.n_points = 3",
                    "sweep.metric = h2",
                    f"io.controller = {tmp_path}/k.txt",
                    f"io.trace = {tmp_path}/t.csv",
                    f"io.summary = {tmp_path}/s.txt",
                ]
            )
            + "\n"
        )
        assert main(["synth", "--config", str(cfg)]) in (0, 2)
        out = tmp_path / "h2.csv"
        assert main(["eval", "--controller", f"{tmp_path}/k.txt", "--config",
                     str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(r.split(",")[2] in ("0", "1") for r in rows)

    @pytest.mark.parametrize("peak", ["0", "-1"])
    def test_nonpositive_building_peak_omega(self, tmp_path, capsys, peak):
        cfg = tmp_path / "bldg.cfg"
        cfg.write_text(BUNDLED.joinpath("building.cfg").read_text()
                       + f"building.peak_omega = {peak}\n")
        ctl = str(BUNDLED / "building_controller.txt")
        assert main(["eval", "--controller", ctl, "--config", str(cfg),
                     "--out", str(tmp_path / "sweep.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "peak_omega must be positive" in err


class TestWriteFailure:
    @pytest.mark.parametrize("command", ["eval", "model"])
    def test_unwritable_output_exits_1(self, toy_config, capsys, command):
        cfg, base = toy_config
        out = base / "taken"
        out.mkdir()
        ctl = base / "k.txt"
        save_controller(zero_block(0, 1, 1, 1), str(ctl))
        argv = {
            "eval": ["eval", "--controller", str(ctl), "--config", str(cfg)],
            "model": ["model", "gen", "--scenario", "beam"],
        }[command]
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        # one line, no traceback, naming the output
        assert err.startswith("error: ") and err.count("\n") == 1 and str(out) in err
        assert not list(base.glob("*.tmp*")) and not list(out.iterdir())


class TestModelGen:
    def test_beam_roundtrip(self, tmp_path):
        out = tmp_path / "beam.ss"
        assert main(["model", "gen", "--scenario", "beam", "--out", str(out),
                     "--rho", "12.0"]) == 0
        sys = load_statespace(str(out))
        assert sys.n == 60 and sys.n_inputs == 1 and sys.n_outputs == 1

    def test_building(self, tmp_path):
        cfgp = tmp_path / "b.cfg"
        cfgp.write_text("scenario = building\ngrid = 1.0\nbuilding.n_modes = 4\n")
        out = tmp_path / "building.ss"
        assert main(["model", "gen", "--scenario", "building", "--out", str(out),
                     "--config", str(cfgp)]) == 0
        assert load_statespace(str(out)).n == 8

    def test_unknown_scenario(self, tmp_path):
        assert main(["model", "gen", "--scenario", "bridge", "--out",
                     str(tmp_path / "x.ss")]) == 1


class TestDeterminism:
    def test_synth_outputs_bit_identical(self, tmp_path):
        plants = write_custom_plants(tmp_path, [-1.0, -2.0])
        outputs = []
        for tag in ("a", "b"):
            cfg = tmp_path / f"run_{tag}.cfg"
            cfg.write_text(
                "\n".join(
                    [
                        "scenario = custom",
                        "grid = 1.0, 2.0",
                        f"custom.plants = {', '.join(plants)}",
                        "n_k = 0",
                        "n_delta = 1",
                        "wk.kind = static",
                        "wk.gain = 0.02",
                        "opt.max_iter = 30",
                        "opt.restarts = 2",
                        "opt.seed = 7",
                        "sweep.n_points = 5",
                        f"io.controller = {tmp_path}/k_{tag}.txt",
                        f"io.trace = {tmp_path}/t_{tag}.csv",
                        f"io.summary = {tmp_path}/s_{tag}.txt",
                    ]
                )
                + "\n"
            )
            assert main(["synth", "--config", str(cfg)]) in (0, 2)
            out = tmp_path / f"sweep_{tag}.csv"
            assert main(["eval", "--controller", f"{tmp_path}/k_{tag}.txt",
                         "--config", str(cfg), "--out", str(out)]) == 0
            outputs.append(
                (
                    (tmp_path / f"k_{tag}.txt").read_bytes(),
                    out.read_bytes(),
                    (tmp_path / f"s_{tag}.txt").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
