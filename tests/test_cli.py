import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import visc
from visc import jsonio, mbs, solver
from visc.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def src_env() -> dict:
    """The environment with this package's source tree first on PYTHONPATH,
    for subprocesses."""
    env = dict(os.environ)
    src = str(Path(visc.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def write_model(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg))
    return str(path)


def constant_h_model(h0=0.3):
    return {
        "N": 1, "d": 1,
        "sigma": {"form": "constant", "params": {"matrix": [[1.0]]}},
        "mu": {"form": "zero", "params": {}},
        "r": {"form": "constant", "params": {"value": 0.0}},
        "xi": {"form": "constant", "params": {"value": 1.0}},
        "h": {"form": "constant", "params": {"value": h0}},
        "rho": 0.5, "tau": 1.0, "T": 1.0,
        "U0": {"form": "zero", "params": {}},
    }


def heat_model_cfg():
    return {
        "N": 1, "d": 1,
        "sigma": {"form": "constant", "params": {"matrix": [[math.sqrt(2.0)]]}},
        "mu": {"form": "zero", "params": {}},
        "r": {"form": "constant", "params": {"value": 0.0}},
        "xi": {"form": "constant", "params": {"value": 1.0}},
        "h": {"form": "zero", "params": {}},
        "rho": 0.0, "tau": 1.0, "T": 1.0,
        "U0": {"form": "cosine", "params": {"amplitude": 1.0, "wavevector": [1.0]}},
    }


class TestBarriersCommand:
    def test_closed_form_column(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        out = tmp_path / "out"
        res = runner.invoke(main, ["barriers", "--model", model, "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "barriers.csv").read_text().strip().splitlines()
        assert lines[0] == "t,k_lower,k_upper"
        for line in lines[1:]:
            t, klo, kup = (float(v) for v in line.split(","))
            assert abs(klo - 1.0 * 0.3 * t) <= 1e-10
            assert abs(kup - 0.3 * (t + 1.0)) <= 1e-8
        manifest = json.loads((out / "manifest.json").read_text())
        assert "barriers.csv" in manifest["files"]
        assert "constants.json" in manifest["files"]

    def test_byte_identical_reruns(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(
                main, ["barriers", "--model", model, "--points", "50", "--out", str(out)]
            )
            assert res.exit_code == 0
            outs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                }
            )
        assert outs[0] == outs[1]


class TestCheckConditionsCommand:
    def test_constant_model_passes(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["check-conditions", "--model", model, "--samples", "400",
             "--seed", "7", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        reports = json.loads((out / "reports.json").read_text())
        names = {r["check"] for r in reports}
        assert {"validate-model", "barrier-residuals", "degenerate-ellipticity",
                "gradient-modulus", "structure-cp6", "osgood-structure-cp7"} <= names
        assert all(r["pass"] for r in reports)

    def test_bad_model_exits_two(self, runner, tmp_path):
        cfg = constant_h_model()
        cfg["xi"] = {"form": "constant", "params": {"value": 0.0}}
        cfg["h"] = {"form": "zero", "params": {}}
        cfg["rho"] = 0.0
        model = write_model(tmp_path / "m.json", cfg)
        res = runner.invoke(
            main, ["check-conditions", "--model", model, "--samples", "100", "--seed", "1"]
        )
        assert res.exit_code == 2

    def test_linear_model_skips_osgood_check(self, runner, tmp_path):
        # rho = 0: no gauge compatibility check to run; the heat fixture also
        # fails validation on purpose (negative initial datum, rho = 0)
        model = write_model(tmp_path / "m.json", heat_model_cfg())
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["check-conditions", "--model", model, "--samples", "200",
             "--seed", "3", "--out", str(out)],
        )
        assert res.exit_code == 2
        reports = json.loads((out / "reports.json").read_text())
        names = {r["check"] for r in reports}
        assert "osgood-structure-cp7" not in names
        assert not [r for r in reports if r["check"] == "validate-model"][0]["pass"]

    def test_schema_violation_exits_one(self, runner, tmp_path):
        cfg = constant_h_model()
        del cfg["tau"]
        model = write_model(tmp_path / "m.json", cfg)
        res = runner.invoke(main, ["check-conditions", "--model", model])
        assert res.exit_code == 1
        assert "tau" in res.output

    def test_unknown_form_exits_one(self, runner, tmp_path):
        cfg = constant_h_model()
        cfg["h"] = {"form": "wavelet", "params": {}}
        model = write_model(tmp_path / "m.json", cfg)
        res = runner.invoke(main, ["check-conditions", "--model", model])
        assert res.exit_code == 1

    def test_missing_form_param_exits_one(self, runner, tmp_path):
        cfg = constant_h_model()
        cfg["h"] = {"form": "gaussian-bump", "params": {"amplitude": 0.5}}
        model = write_model(tmp_path / "m.json", cfg)
        res = runner.invoke(main, ["check-conditions", "--model", model])
        assert res.exit_code == 1
        assert "configuration error" in res.output
        assert "width" in res.output

    def test_model_not_json_exits_one(self, runner, tmp_path):
        model = tmp_path / "m.json"
        model.write_text("N: 1")
        res = runner.invoke(main, ["check-conditions", "--model", str(model)])
        assert res.exit_code == 1
        assert "not valid JSON" in res.output


class TestSolveCommand:
    def test_writes_fields_and_manifest(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--out", str(out),
             "--t-end", "0.25"],
        )
        assert res.exit_code == 0, res.output
        header = (out / "fields.csv").read_text().splitlines()[0]
        assert header == "t,x1,U"
        sandwich = json.loads((out / "sandwich.json").read_text())
        assert sandwich["pass"] is True
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["files"]) == ["fields.csv", "sandwich.json"]
        assert len(manifest["config_sha256"]) == 64

    def test_explicit_scheme_file(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        scheme = tmp_path / "s.json"
        scheme.write_text(json.dumps({"theta": "auto", "dt": 0.001, "record_every": 50}))
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--scheme", str(scheme),
             "--out", str(out), "--t-end", "0.1"],
        )
        assert res.exit_code == 0, res.output

    def test_scheme_file_builds_one_problem(self, runner, tmp_path, monkeypatch):
        # the auto entries of the scheme file are sized on the problem the
        # solve then marches
        built = []
        init = solver.PricingProblem.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(solver.PricingProblem, "__init__", counting_init)
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        scheme = tmp_path / "s.json"
        scheme.write_text(json.dumps({"theta": "auto", "dt": "auto"}))
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--scheme", str(scheme),
             "--out", str(tmp_path / "out"), "--t-end", "0.1"],
        )
        assert res.exit_code == 0, res.output
        assert len(built) == 1

    def test_unstable_scheme_exits_one(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        scheme = tmp_path / "s.json"
        scheme.write_text(json.dumps({"theta": [0.0], "dt": 10.0}))
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--scheme", str(scheme),
             "--out", str(tmp_path / "out"), "--t-end", "0.1"],
        )
        assert res.exit_code == 1
        assert "stability" in res.output

    def test_blow_up_exits_two(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(solver.PricingProblem, "_reaction",
                            lambda self, U, grad, t: U * np.nan)
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--out", str(tmp_path / "out"),
             "--t-end", "0.25"],
        )
        assert res.exit_code == 2
        assert "numerical failure" in res.stderr
        assert "node" in res.stderr
        assert "configuration error" not in res.stderr

    def test_unknown_grid_field_exits_one(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33], "cfl_safety": 0.5}))
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--out", str(tmp_path / "out"),
             "--t-end", "0.25"],
        )
        assert res.exit_code == 1
        assert "cfl_safety" in res.output

    @pytest.mark.parametrize("which, edit", [
        ("model", {"Rho": 5.0}),
        ("scheme", {"dtt": 1e-5}),
        ("model", {"rho": "x"}),
        ("scheme", {"theta": "x"}),
        ("grid", {"nodes": ["x"]}),
        ("scheme", {"theta": [0.1, 5.0]}),
        ("scheme", {"theta": []}),
        ("model", {"U0": {"form": "constant", "params": {"value": 0.1, "time_slope": 3.0}}}),
        ("scheme", {"dt": 0}),
        ("scheme", {"dt": -1e-3}),
        ("model", {"rho": -0.5}),
        ("grid", {"padding": 17}),
        ("scheme", {"theta": [-0.1]}),
        ("scheme", {"record_every": 0}),
        ("scheme", {"theta": [float("nan")]}),
        ("model", {"T": float("nan")}),
        ("model", {"T": float("inf")}),
        ("model", {"T": 0.0}),
        ("model", {"N": float("inf")}),
        ("model", {"d": float("inf")}),
        ("model", {"N": 1.5}),
        ("model", {"sigma": {"form": "constant", "params": {"matrix": [[float("nan")]]}}}),
        ("model", {"sigma": {"form": "constant", "params": {"matrix": [[float("inf")]]}}}),
        ("model", {"rho": float("inf")}),
        ("model", {"tau": float("nan")}),
        ("grid", {"nodes": [33.7]}),
        ("grid", {"padding": 2.9}),
        ("scheme", {"record_every": 2.9}),
    ])
    def test_bad_field_exits_one_naming_it(self, runner, tmp_path, which, edit):
        # a misspelt key used to be ignored, a bad value reported without its field
        cfgs = {"model": constant_h_model(), "grid": {"box": [[-3.0, 3.0]], "nodes": [33]},
                "scheme": {"theta": "auto"}}
        cfgs[which].update(edit)
        paths = {k: write_model(tmp_path / f"{k}.json", c) for k, c in cfgs.items()}
        res = runner.invoke(
            main,
            ["solve", "--model", paths["model"], "--grid", paths["grid"],
             "--scheme", paths["scheme"], "--out", str(tmp_path / "out"), "--t-end", "0.1"],
        )
        assert res.exit_code == 1, res.output
        (key,) = edit
        assert f"{which} file" in res.output
        assert f"field {key!r}" in res.output

    def test_empty_bounds_still_loads(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model() | {"bounds": {}})
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--out", str(tmp_path / "out"),
             "--t-end", "0.1"],
        )
        assert res.exit_code == 0, res.output

    def test_internal_error_is_not_a_config_error(self, runner, tmp_path, monkeypatch):
        def broken(*args, **kwargs):
            raise KeyError("internal")

        monkeypatch.setattr(solver, "solve_problem", broken)
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        res = runner.invoke(
            main,
            ["solve", "--model", model, "--grid", str(grid), "--out", str(tmp_path / "out"),
             "--t-end", "0.25"],
        )
        assert isinstance(res.exception, KeyError)
        assert "configuration error" not in res.output

    def test_deterministic_output_bytes(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        grid = tmp_path / "g.json"
        grid.write_text(json.dumps({"box": [[-3.0, 3.0]], "nodes": [33]}))
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            res = runner.invoke(
                main,
                ["solve", "--model", model, "--grid", str(grid), "--out", str(out),
                 "--t-end", "0.25"],
            )
            assert res.exit_code == 0
            blobs.append((out / "fields.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestOsgoodDemoCommand:
    def test_artifacts(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["osgood-demo", "--gamma", "xlog", "--f0", "1e-3", "--dt", "1e-3",
             "--T", "1.0", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        flow = (out / "flow.csv").read_text().splitlines()
        assert flow[0] == "t,f"
        assert len(flow) == 1002
        report = json.loads((out / "report.json").read_text())
        assert report["divergence_class"] == "osgood-consistent"

    def test_non_osgood_classification(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["osgood-demo", "--gamma", "power:0.5", "--f0", "0.0", "--dt", "1e-3",
             "--T", "0.5", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["divergence_class"] == "integral-converging"


class TestOracleCompareCommand:
    def test_heat_probe_passes(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", heat_model_cfg())
        grid = tmp_path / "g.json"
        grid.write_text(
            json.dumps({"box": [[-2 * math.pi, 2 * math.pi]], "nodes": [201],
                        "padding": 45})
        )
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["oracle-compare", "--model", model, "--point", "0.5", "--t", "0.25",
             "--paths", "20000", "--steps", "32", "--grid", str(grid),
             "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "oracle.json").read_text())
        assert payload["pass"] is True
        assert payload["gap"] <= 3.0 * payload["mc_stderr"]

    def test_rho_positive_is_config_error(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        res = runner.invoke(
            main, ["oracle-compare", "--model", model, "--point", "0", "--t", "0.2"]
        )
        assert res.exit_code == 1


class TestConvergenceCommand:
    def test_refinement_csv(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", heat_model_cfg())
        paths = []
        for i, n in enumerate((33, 65, 129)):
            g = tmp_path / f"g{i}.json"
            g.write_text(json.dumps({"box": [[-math.pi, math.pi]], "nodes": [n]}))
            paths.append(str(g))
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["convergence", "--model", model, "--grids", ",".join(paths),
             "--t-end", "0.2", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        lines = (out / "refinement.csv").read_text().splitlines()
        assert lines[0] == "grid,dx,diff,order"
        assert len(lines) == 4

    def test_non_nested_exits_one(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", heat_model_cfg())
        paths = []
        for i, n in enumerate((33, 66, 129)):
            g = tmp_path / f"g{i}.json"
            g.write_text(json.dumps({"box": [[-math.pi, math.pi]], "nodes": [n]}))
            paths.append(str(g))
        res = runner.invoke(
            main,
            ["convergence", "--model", model, "--grids", ",".join(paths),
             "--t-end", "0.2", "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 1


class TestTransformRoundtripCommand:
    def test_shift_sq_roundtrip(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(
            main,
            ["transform-roundtrip", "--gauge", "shift-sq", "--domain", "-0.5,0.36",
             "--margin", "0.1", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["max_roundtrip_error"] <= 1e-8

    def test_mbs_exp_needs_no_domain(self, runner, tmp_path):
        out = tmp_path / "out"
        res = runner.invoke(
            main, ["transform-roundtrip", "--gauge", "mbs-exp:1,2", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("margin, message", [
        ("0.6", "gauge shift-sq is not positive with an integrable 1/sqrt(z) "
                "on the margined domain [-1.1, 1.6] (margin 0.6)"),
        ("nan", "margin must be finite and nonnegative, got nan"),
        ("inf", "margin must be finite and nonnegative, got inf"),
        ("-0.1", "margin must be finite and nonnegative, got -0.1"),
    ])
    def test_bad_margin_exits_one_naming_it(self, runner, tmp_path, margin, message):
        # a margin reaching z's zero at u = -1 used to pass the round trip
        res = runner.invoke(
            main,
            ["transform-roundtrip", "--gauge", "shift-sq", "--domain=-0.5,1",
             "--margin", margin, "--out", str(tmp_path / "out")],
        )
        assert res.exit_code == 1, res.output
        assert message in res.output


class TestCountsBelowOne:
    @pytest.mark.parametrize("args, option", [
        (["barriers", "--model", "MODEL", "--points", "-1"], "--points"),
        (["barriers", "--model", "MODEL", "--points", "0"], "--points"),
        (["transform-roundtrip", "--gauge", "mbs-exp:1,2", "--samples", "-3"], "--samples"),
        (["transform-roundtrip", "--gauge", "mbs-exp:1,2", "--samples", "0"], "--samples"),
    ])
    def test_exits_one_naming_the_option(self, runner, tmp_path, args, option):
        # a count below 1 is a configuration error, not a traceback or a pass over nothing
        model = write_model(tmp_path / "m.json", constant_h_model())
        args = [model if a == "MODEL" else a for a in args]
        res = runner.invoke(main, args + ["--out", str(tmp_path / "out")])
        assert res.exit_code == 1, res.output
        assert f"{option} must be at least 1" in res.output


class TestScripts:
    SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

    @pytest.mark.parametrize("script, extra, files", [
        ("run_desk_experiment.py", ["--samples", "500"],
         ["model.json", "fields.csv", "barriers.csv", "reports.json"]),
        ("osgood_gallery.py", [],
         [f"{kind}_{tag}.csv" for kind in ("flow", "scores")
          for tag in ("xlog", "linear_1.0", "power_0.5")]),
        ("convergence_study.py", [], ["refinement_heat.csv", "refinement_transport.csv"]),
    ])
    def test_runs_and_writes_its_files(self, tmp_path, script, extra, files):
        out = subprocess.run(
            [sys.executable, str(self.SCRIPTS / script), "--out", str(tmp_path), *extra],
            env=src_env(), capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert all((tmp_path / f).is_file() for f in files), sorted(os.listdir(tmp_path))


class TestManifest:
    def test_no_unlisted_writes(self, runner, tmp_path):
        model = write_model(tmp_path / "m.json", constant_h_model())
        out = tmp_path / "out"
        res = runner.invoke(main, ["barriers", "--model", model, "--out", str(out)])
        assert res.exit_code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        on_disk = {p.name for p in out.iterdir()}
        assert on_disk == set(manifest["files"]) | {"manifest.json"}


class TestImport:
    def test_cli_import_does_not_load_scipy(self):
        # scipy is a test-only dependency: the runtime must not import it
        out = subprocess.run(
            [sys.executable, "-c", "import visc.cli, sys; print('scipy' in sys.modules)"],
            env=src_env(), capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "False"


class TestJsonio:
    def test_seventeen_digit_floats(self):
        text = jsonio.dumps({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            jsonio.dumps({"x": object()})
