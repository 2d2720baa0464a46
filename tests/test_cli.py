import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import backflow.blp
import backflow.cli
from backflow.cli import main
from backflow.plotting import emit_plot


def run(tmp_path, *argv) -> int:
    return main(list(argv))


class TestRates:
    def test_driven_csv(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(["rates", "--tmax", "2", "--step", "0.1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        header = [l for l in text.splitlines() if not l.startswith("#")][0]
        assert header == "T,gamma_minus,gamma_zero,gamma_plus,lamb_minus,lamb_zero,lamb_plus"
        assert "# alpha = 0.5" in text
        assert "# command = rates" in text

    def test_undriven_truncates_at_pole(self, tmp_path):
        out = tmp_path / "und.csv"
        code = main(["rates", "--regime", "undriven", "--alpha", "1.0",
                     "--lambda", "1.0", "--tmax", "30", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "truncated_at_pole" in text
        rows = [l for l in text.splitlines() if not l.startswith("#")][1:]
        last_t = float(rows[-1].split(",")[0])
        assert last_t < 4.72

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["rates", "--tmax", "1", "--out", str(a)])
        main(["rates", "--tmax", "1", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestEvolve:
    def test_csv_columns(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = main(["evolve", "--bloch", "1,0,0", "--tmax", "1", "--step", "0.1",
                     "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,x,y,z,purity"
        first = [float(v) for v in lines[1].split(",")]
        assert first[1] == pytest.approx(1.0)
        assert first[4] == pytest.approx(1.0)

    def test_bad_bloch_is_input_error(self, tmp_path):
        assert main(["evolve", "--bloch", "2,0,0"]) == 1
        assert main(["evolve", "--bloch", "1,0"]) == 1

    def test_pole_crossing_is_numeric_failure(self, tmp_path):
        code = main(["evolve", "--regime", "undriven", "--alpha", "1.0",
                     "--tmax", "30", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestHorizonAndStepFlags:
    @pytest.mark.parametrize("argv", [
        ["rhp", "--step", "-0.01"],
        ["rhp", "--step", "inf"],
        ["evolve", "--step", "-0.01"],
        ["evolve", "--tmax", "-1"],
        ["evolve", "--step", "0"],
        ["blp", "--step", "-0.01"],
        ["blp", "--substep", "nan"],
    ])
    def test_bad_horizon_or_step_is_input_error(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert f"argument {argv[1]}: " in err
        assert repr(argv[2]) in err
        assert not (tmp_path / "x.csv").exists()


class TestNonFiniteParameters:
    @pytest.mark.parametrize("argv, field", [
        (["rhp", "--Omega", "inf"], "Omega"),
        (["rhp", "--omegaA", "inf"], "omega_A"),
        (["rhp", "--alpha", "nan"], "alpha"),
        (["rhp", "--Omega", "nan"], "Omega"),
        (["rhp", "--lambda", "nan"], "lambda_width"),
        (["rhp", "--regime", "undriven", "--alpha", "nan"], "alpha"),
        (["evolve", "--Omega", "nan"], "Omega"),
        (["blp", "--alpha", "nan"], "alpha"),
        (["rates", "--omega0", "inf"], "omega_0"),
        (["rates", "--regime", "undriven", "--alpha", "nan"], "alpha"),
    ])
    def test_non_finite_parameter_is_input_error(self, argv, field, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


class TestImportPath:
    def test_scipy_loaded_only_by_the_pair_search(self, tmp_path):
        # a fresh interpreter, so modules loaded by other tests do not count
        script = textwrap.dedent("""
            import json, sys
            from backflow.cli import main
            out = sys.argv[1]
            for cmd in ("rhp", "evolve", "rates"):
                assert main([cmd, "--tmax", "2", "--out", f"{out}/{cmd}.csv"]) == 0
            before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert main(["blp", "--tmax", "2", "--out", f"{out}/blp.csv"]) == 0
            print(json.dumps([before, "scipy.optimize" in sys.modules]))
        """)
        src = Path(backflow.cli.__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": path}, timeout=120)
        assert run.returncode == 0, run.stderr
        before, optimize_loaded = json.loads(run.stdout.splitlines()[-1])
        assert before == []
        assert optimize_loaded


class TestRhp:
    def test_json_summary(self, tmp_path):
        out = tmp_path / "g.csv"
        js = tmp_path / "g.json"
        code = main(["rhp", "--regime", "secular", "--Omega", "10", "--tmax", "10",
                     "--method", "both", "--out", str(out), "--json", str(js)])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["n_rhp"] > 0.0
        assert payload["cross_validation_max_error"] < 1e-5
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "T,g_numeric,g_analytic"

    def test_undriven_both_methods_past_the_pole(self, tmp_path):
        # g reaches ~2e3 next to the rate pole at t1 = 12.17; numeric and
        # closed form must still agree there
        js = tmp_path / "u.json"
        code = main(["rhp", "--regime", "undriven", "--alpha", "0.6", "--lambda", "1",
                     "--method", "both", "--out", str(tmp_path / "u.csv"), "--json", str(js)])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["method"] == "both:undriven-analytic"
        assert payload["cross_validation_max_error"] < 1e-8

    def test_format_json_stdout(self, capsys):
        code = main(["rhp", "--regime", "undriven", "--alpha", "0.1",
                     "--tmax", "10", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_rhp"] == 0.0


class TestBlp:
    def test_search_summary(self, tmp_path):
        js = tmp_path / "blp.json"
        code = main(["blp", "--regime", "undriven", "--alpha", "1.0", "--tmax", "15",
                     "--directions", "16", "--refine", "1",
                     "--out", str(tmp_path / "blp.csv"), "--json", str(js)])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["n_blp"] > 1e-3
        assert len(payload["best_bloch1"]) == 3

    def test_fixed_pair_mode(self, tmp_path):
        js = tmp_path / "pair.json"
        code = main(["blp", "--regime", "undriven", "--alpha", "0.1", "--tmax", "10",
                     "--pair1", "1,0,0", "--pair2=-1,0,0",
                     "--out", str(tmp_path / "pair.csv"), "--json", str(js)])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["mode"] == "fixed-pair"
        assert payload["pair_backflow"] <= 1e-6

    def test_fixed_pair_reproduces_search_measure(self, tmp_path):
        # a fixed-pair run on the reported best pair scores it with the
        # search's own objective, so it gives back n_blp
        common = ["blp", "--regime", "undriven", "--alpha", "1.0", "--tmax", "15"]
        search = tmp_path / "search.json"
        assert main(common + ["--directions", "16",
                              "--refine", "1", "--json", str(search),
                              "--out", str(tmp_path / "search.csv")]) == 0
        found = json.loads(search.read_text())
        fixed = tmp_path / "fixed.json"
        pair = [",".join(repr(v) for v in found[key]) for key in ("best_bloch1", "best_bloch2")]
        assert main(common + [f"--pair1={pair[0]}", f"--pair2={pair[1]}",
                              "--json", str(fixed), "--out", str(tmp_path / "fixed.csv")]) == 0
        assert json.loads(fixed.read_text())["pair_backflow"] == pytest.approx(
            found["n_blp"], rel=1e-12)

    def test_search_integrates_the_maps_once(self, tmp_path, monkeypatch):
        # the CSV's D comes from the search's best pair, not a second propagator run
        calls = []
        original = backflow.blp.bloch_map_grid

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(backflow.blp, "bloch_map_grid", counting)
        monkeypatch.setattr(backflow.cli, "bloch_map_grid", counting)
        assert main(["blp", "--regime", "secular", "--Omega", "10", "--tmax", "5",
                     "--directions", "8", "--refine", "1",
                     "--out", str(tmp_path / "b.csv"), "--json", str(tmp_path / "b.json")]) == 0
        assert len(calls) == 1

    def test_bad_search_sizes_are_input_errors(self):
        # a negative --refine would slice the ranking from the end
        assert main(["blp", "--directions", "0"]) == 1
        assert main(["blp", "--refine", "-1"]) == 1

    def test_pair_flags_must_come_together(self):
        assert main(["blp", "--pair1", "1,0,0"]) == 1

    def test_search_byte_deterministic(self, tmp_path):
        args = ["blp", "--regime", "undriven", "--alpha", "1.0", "--tmax", "15",
                "--directions", "12", "--refine", "1"]
        paths = []
        for tag in ("a", "b"):
            csv = tmp_path / f"{tag}.csv"
            js = tmp_path / f"{tag}.json"
            assert main(args + ["--out", str(csv), "--json", str(js)]) == 0
            paths.append((csv.read_bytes(), js.read_bytes()))
        assert paths[0] == paths[1]

    def test_fixed_pair_through_rate_pole(self, tmp_path):
        # the backflow machinery rides the exact envelope map through the
        # strong-coupling rate poles
        js = tmp_path / "pair.json"
        code = main(["blp", "--regime", "undriven", "--alpha", "1.0", "--tmax", "30",
                     "--pair1", "1,0,0", "--pair2=-1,0,0", "--json", str(js),
                     "--out", str(tmp_path / "pair.csv")])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["pair_backflow"] > 1e-2


class TestCompare:
    def test_laser_induced_memory(self, tmp_path):
        js = tmp_path / "cmp.json"
        code = main(["compare", "--alpha", "0.1", "--lambda", "1.0",
                     "--Omega", "10", "--tmax", "20", "--json", str(js)])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["undriven"]["markovian"] is True
        assert payload["driven"]["n_rhp"] > 1e-6
        assert payload["driven"]["n_blp"] > 1e-6
        assert payload["laser_induced_non_markovianity"] is True

    def test_weak_drive_below_threshold_stays_markovian(self, tmp_path):
        # slow drive (p << 1) with the reservoir detuning under the negativity
        # threshold: neither the structured reservoir nor the drive suffices
        js = tmp_path / "cmp2.json"
        code = main(["compare", "--alpha", "0.1", "--lambda", "1.0",
                     "--Omega", "0.01", "--omega0", "102", "--tmax", "20",
                     "--json", str(js)])
        assert code == 0
        payload = json.loads(js.read_text())
        assert payload["driven"]["regime"] == "simplified_nonsecular"
        assert payload["driven"]["n_rhp"] <= 1e-8
        assert payload["driven"]["n_blp"] <= 1e-6
        assert payload["laser_induced_non_markovianity"] is False


class TestSweep:
    def test_one_point_matches_single_run(self, tmp_path):
        js = tmp_path / "r.json"
        main(["rhp", "--regime", "undriven", "--alpha", "1.0", "--tmax", "15",
              "--format", "json", "--json", str(js)])
        single = json.loads(js.read_text())["n_rhp"]

        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--regime", "undriven", "--axis", "alpha=1.0:1.0:1",
                     "--outputs", "rhp", "--tmax", "15", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        row = lines[1].split(",")
        assert float(row[cols.index("n_rhp")]) == single

    def test_undriven_boundary_sweep(self, tmp_path):
        out = tmp_path / "b.csv"
        code = main(["sweep", "--regime", "undriven", "--axis", "lambda=1.8:2.2:2",
                     "--alpha", "1.0", "--outputs", "both-measures", "--tmax", "20",
                     "--out", str(out), "--workers", "2"])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        low = lines[1].split(",")   # lambda = 1.8 < 2 alpha: non-Markovian
        high = lines[2].split(",")  # lambda = 2.2 > 2 alpha: Markovian
        assert float(low[cols.index("n_rhp")]) > 1e-3
        assert float(low[cols.index("n_blp")]) > 1e-5
        assert float(high[cols.index("n_rhp")]) == 0.0
        assert float(high[cols.index("n_blp")]) <= 1e-6

    def test_detuning_threshold_switch(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["sweep", "--regime", "simplified_nonsecular",
                     "--axis", "s=2.0:5.0:4", "--Omega", "0.01",
                     "--outputs", "rhp", "--tmax", "30", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        cols = lines[0].split(",")
        values = {float(r.split(",")[0]): float(r.split(",")[cols.index("n_rhp")])
                  for r in lines[1:]}
        # s = 2, 3 below the ~3.64 negativity threshold; s = 4, 5 above
        assert values[2.0] == 0.0
        assert values[3.0] == 0.0
        assert values[4.0] > 1e-5
        assert values[5.0] > 1e-4

    def test_axis_validation(self):
        assert main(["sweep", "--axis", "bogus=0:1:5"]) == 1
        assert main(["sweep", "--axis", "alpha=0:1"]) == 1
        assert main(["sweep"]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--alpha", "nan", "--axis", "p=0.1:1:2"], "alpha must be finite, got nan"),
        (["--Omega", "inf", "--axis", "s=0:1:2"], "Omega must be finite, got inf"),
        (["--regime", "undriven", "--lambda", "-1", "--axis", "alpha=0.5:1:2"],
         "lambda must be positive, got -1.0"),
    ])
    def test_invalid_fixed_parameter_is_input_error(self, argv, message, tmp_path, capsys):
        out = tmp_path / "bad.csv"
        assert main(["sweep", *argv, "--outputs", "rhp", "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_axis_replaces_invalid_fixed_parameter(self, tmp_path):
        out = tmp_path / "ok.csv"
        assert main(["sweep", "--alpha", "nan", "--axis", "alpha=0.5:1:2",
                     "--outputs", "rates", "--tmax", "2", "--out", str(out)]) == 0
        assert "ValueError" not in out.read_text()

    def test_two_axis_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--axis", "s=0:5:2", "--axis", "p=0.01:10:2",
                     "--outputs", "rates", "--tmax", "10", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0].split(",")[:2] == ["s", "p"]
        assert len(lines) == 1 + 4  # header + 2x2 points in product order
        first = lines[1].split(",")
        assert (float(first[0]), float(first[1])) == (0.0, 0.01)

    def test_point_errors_recorded_not_fatal(self, tmp_path):
        out = tmp_path / "err.csv"
        # alpha = 0 is invalid; the other point is fine
        code = main(["sweep", "--regime", "undriven", "--axis", "alpha=0.0:0.1:2",
                     "--outputs", "rhp", "--tmax", "5", "--out", str(out)])
        assert code == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert "error" in lines[0].split(",")
        assert "ValueError" in lines[1]
        assert "ValueError" not in lines[2]


class TestConfig:
    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "model.cfg"
        cfg.write_text("alpha = 0.25\nlambda = 2.0  # comment\n\n# full line comment\n")
        out = tmp_path / "r.csv"
        code = main(["rates", "--config", str(cfg), "--alpha", "0.75",
                     "--tmax", "1", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "# alpha = 0.75" in text   # flag wins
        assert "# lambda = 2" in text     # config applies

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("coupling = 1\n")
        assert main(["rates", "--config", str(cfg)]) == 1

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha 0.5\n")
        assert main(["rates", "--config", str(cfg)]) == 1


class TestPlot:
    def test_svg_deterministic(self, tmp_path):
        x = np.linspace(0.0, 1.0, 50)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        series = [("one", x, np.sin(x)), ("two", x, np.cos(x))]
        emit_plot(series, str(a), xlabel="t", ylabel="v")
        emit_plot(series, str(b), xlabel="t", ylabel="v")
        assert a.read_bytes() == b.read_bytes()

    def test_svg_structure(self, tmp_path):
        x = np.linspace(0.0, 1.0, 5)
        path = tmp_path / "p.svg"
        emit_plot([("s1", x, x), ("s2", x, x**2)], str(path))
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert "s1" in text and "s2" in text
        assert text.startswith("<?xml")

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no series"):
            emit_plot([], str(tmp_path / "x.svg"))

    def test_cli_plot_flag(self, tmp_path):
        svg = tmp_path / "rates.svg"
        code = main(["rates", "--tmax", "2", "--out", str(tmp_path / "r.csv"),
                     "--plot", str(svg)])
        assert code == 0
        assert svg.exists()
        assert "<svg" in svg.read_text()
