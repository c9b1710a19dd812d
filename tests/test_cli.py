"""Config-driven CLI: subcommands, overrides, output formats, exit codes."""

import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subplanck
from subplanck import cli
from subplanck.cli import canonical_json, main
from subplanck.density import GridSpec
from subplanck.oracle import simulate_protocol
from subplanck.phonon import RabiModel, rabi_signal
from subplanck.states import fock_density

# layers_N sweeps of a Rabi trace of Fock 1 (fitted populations) and of the
# Fock 1 state with its asymptotic depth, as the per-point sweep wrote them.
# The exact fit of the 9-digit trace leaves 1.05e-10 on n = 0, so the Rabi
# table agrees with the direct Fock 1 table to ~2e-11.
RABI_LAYERS_TABLE = """\
layers_N,min_variance,squeezing_db,asymptotic_variance,efficiency,error
1,0.337038979892,-1.71289872684,0.2500013018,0.741757828367,
2,0.306089615943,-2.13121407882,0.2500013018,0.816758520311,
3,0.28414868177,-2.45424358741,0.2500013018,0.879825661139,
4,0.270006132956,-2.67596375441,0.2500013018,0.925909715691,
"""
FOCK1_LAYERS_DEPTH_TABLE = """\
layers_N,min_variance,squeezing_db,asymptotic_variance,efficiency,nbar_star,error
1,0.337038979868,-1.71289872715,0.250001301787,0.741757828381,0.24951171875,
2,0.306089615924,-2.13121407909,0.250001301787,0.816758520317,0.24951171875,
3,0.284148681754,-2.45424358766,0.250001301787,0.879825661142,0.24951171875,
4,0.270006132941,-2.67596375465,0.250001301787,0.925909715692,0.24951171875,
"""

FOCK4_ASYMPTOTIC_DEPTH = (
    '{"witness": "subplanck-asymptotic", "nbar_star": 0.27099609375, '
    '"bracket_lo": 0.2705078125, "bracket_hi": 0.271484375, "iterations": 11}\n'
)

FOCK1_REPORT = (
    '{"min_variance": 0.270006132941, "squeezing_db": -2.67596375465, '
    '"T_opt": 0.850798571587, "maximum_a": 4.00001408401, '
    '"asymptotic_variance": 0.250001301787, "efficiency": 0.925909715692, '
    '"is_squeezed": true, "layers": 4, "copies": 16}\n'
)


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def rabi_trace_config(tmp_path, truth, noise=0.0):
    model = RabiModel(omega01=2.0 * math.pi * 0.05, gamma_decay=0.01, n_max=2)
    ts = np.linspace(0.0, 60.0, 60)
    pe = rabi_signal(np.asarray(truth), model, ts)
    if noise:
        pe = pe + np.random.default_rng(11).normal(0.0, noise, ts.shape[0])
    csv = tmp_path / "trace.csv"
    csv.write_text(
        "t_seconds,p_excited\n"
        + "".join(f"{t:.9f},{p:.9f}\n" for t, p in zip(ts, pe))
    )
    return write_config(
        tmp_path,
        {
            "rabi_csv": str(csv),
            "rabi_model": {
                "omega01": 2.0 * math.pi * 0.05,
                "gamma_decay": 0.01,
                "n_max": 2,
            },
        },
        name="fit.json",
    )


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCanonicalJson:
    def test_fixed_float_format(self):
        assert canonical_json({"v": 0.1 + 0.2}) == '{"v": 0.3}'
        assert canonical_json([1, True, None, "x"]) == '[1, true, null, "x"]'

    def test_preserves_key_order(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"b": 1, "a": 2}'

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            canonical_json(object())


# a value of the wrong kind for each kind in the config table
WRONG_KIND = {int: 1.5, float: "1", list: ["1"], str: 3, bool: "no"}


def wrong_kind_cases():
    """(command, extra config, flags, key): one wrong-kind value per config key."""
    cases = []
    for name, kind in cli._CONFIG.items():
        if not isinstance(kind, dict):
            cases.append(("quantify", {name: WRONG_KIND[kind]}, [], name))
            continue
        base = {"kind": "fock", "n": 1} if name == "state" else {}
        for key, leaf in kind.items():
            extra = {name: {**base, key: WRONG_KIND[leaf]}}
            cases.append(("quantify", extra, [], f"{name}.{key}"))
    return cases


WRONG_KIND_CASES = wrong_kind_cases()

# configs that ran with a wrong setting, or ended in a traceback, before
# every value's kind was checked
UNCHECKED_BEFORE = [
    ("quantify", {"pipeline": {"layers": "2"}}, [], "pipeline.layers"),
    ("quantify", {"seed": "3"}, [], "seed"),
    ("quantify", {"grid": {"extent": "12"}}, [], "grid.extent"),
    ("quantify", {"grid": {"nodes": "4096"}}, [], "grid.nodes"),
    ("quantify", {"pipeline": {"prelayer_xbar": True}}, [], "pipeline.prelayer_xbar"),
    ("depth", {"depth": {"asymptotic": "false"}}, [], "depth.asymptotic"),
    (
        "sweep",
        {"sweep": {"parameter": "fock_n", "values": [1], "with_depth": "no"}},
        [],
        "sweep.with_depth",
    ),
    ("quantify", {"pipeline": {"conditioning_xbar": "0.5"}}, [], "pipeline.conditioning_xbar"),
    ("oracle", {"oracle": {"samples_csv": 7}}, [], "oracle.samples_csv"),
    ("quantify", {"outputs": {"report_json": ["a"]}}, [], "outputs.report_json"),
    ("fit-phonons", {"rabi_model": {"omega01": True, "n_max": 2}}, [], "rabi_model.omega01"),
    ("quantify", {"density_csv": 3}, [], "density_csv"),
    ("quantify", {"pipeline": 3}, [], "pipeline"),
]


class TestConfigErrors:
    def test_no_input_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {})
        code, _, err = run_cli(["quantify", "--config", cfg], capsys)
        assert code == 2
        assert "config error" in err

    def test_two_input_sources(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"state": {"kind": "fock", "n": 1}, "density_csv": "x.csv"}
        )
        code, _, err = run_cli(["quantify", "--config", cfg], capsys)
        assert code == 2 and "exactly one input source" in err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}, "extra": 1})
        assert run_cli(["quantify", "--config", cfg], capsys)[0] == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run_cli(["quantify", "--config", str(path)], capsys)[0] == 2

    def test_missing_file(self, tmp_path, capsys):
        assert run_cli(["quantify", "--config", str(tmp_path / "no.json")], capsys)[0] == 2

    def test_bad_pipeline(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 13}}
        )
        assert run_cli(["quantify", "--config", cfg], capsys)[0] == 2

    def test_unknown_outputs_key(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"state": {"kind": "fock", "n": 1}, "outputs": {"density_csv": "d.csv"}},
        )
        assert run_cli(["quantify", "--config", cfg], capsys)[0] == 2

    def test_removed_workers_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        args = ["sweep", "--config", cfg, "--parameter", "layers_N", "--values", "1"]
        with pytest.raises(SystemExit) as exc:
            main(args + ["--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("sweep", "workers", 2),
            ("pipeline", "filter_exponent", "literal"),
            ("pipeline", "max_rel_tol", 1e-3),
            ("pipeline", "transmissivity_grid", 64),
        ],
    )
    def test_removed_config_keys(self, tmp_path, capsys, section, key, value):
        payload = {
            "state": {"kind": "fock", "n": 1},
            "sweep": {"parameter": "layers_N", "values": [1]},
        }
        payload.setdefault(section, {})[key] = value
        cfg = write_config(tmp_path, payload)
        code, _, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2 and key in err

    @pytest.mark.parametrize(
        "command,extra,flags,key",
        [
            ("quantify", {"seed": "x"}, [], "seed"),
            ("quantify", {"seed": 1e400}, [], "seed"),
            ("quantify", {"grid": {"nodes": "x"}}, [], "grid.nodes"),
            ("quantify", {"grid": {"extent": "abc"}}, [], "grid.extent"),
            ("sweep", {"sweep": {"parameter": "layers_N", "values": ["a"]}}, [], "sweep.values"),
            ("sweep", {"sweep": {"parameter": "layers_N", "values": 3}}, [], "sweep.values"),
            ("sweep", {"sweep": {"parameter": "layers_N"}}, ["--values", "1,x"], "--values"),
            ("oracle", {"oracle": {"eps": "wide"}}, [], "oracle.eps"),
            ("oracle", {"oracle": {"batches": "many"}}, [], "oracle.batches"),
            ("oracle", {"oracle": {"batch_size": [1]}}, [], "oracle.batch_size"),
            ("quantify", {"grid": {"nodes": 4096.9}}, [], "grid.nodes"),
            ("quantify", {"seed": 2.7}, [], "seed"),
            ("quantify", {"seed": True}, [], "seed"),
            ("oracle", {"oracle": {"batches": 2.5}}, [], "oracle.batches"),
            ("quantify", {"grid": {"extent": True}}, [], "grid.extent"),
            ("quantify", {"grid": {"extent": 10**400}}, [], "grid.extent"),
            ("quantify", {"pipeline": {"layers": 1.5}}, [], "pipeline.layers"),
            ("quantify", {"pipeline": {"layers": True}}, [], "pipeline.layers"),
            (
                "quantify",
                {"pipeline": {"layers": 1, "nonuniversal_prelayers": 0.5}},
                [],
                "pipeline.nonuniversal_prelayers",
            ),
            ("quantify", {"rabi_model": {"omega01": 0.3, "n_max": 2.5}}, [], "rabi_model.n_max"),
            ("quantify", {"state": {"kind": "fock", "n": 1.5}}, [], "state.n"),
            ("quantify", {"state": {"kind": "fock", "n": True}}, [], "state.n"),
            (
                "quantify",
                {"state": {"kind": "gkp", "delta": 0.3, "side_peaks": 1.5, "spacing": 2.5}},
                [],
                "state.side_peaks",
            ),
            ("sweep", {"sweep": {"parameter": "fock_n", "values": [1.5]}}, [], "sweep.values"),
            ("sweep", {"sweep": {"parameter": "layers_N"}}, ["--values", "1,2.5"], "sweep.values"),
            ("quantify", {"state": {"kind": "cat", "alpha": True}}, [], "state.alpha"),
            (
                "quantify",
                {"state": {"kind": "gkp", "delta": "0.3", "spacing": 2.5}},
                [],
                "state.delta",
            ),
            (
                "quantify",
                {"state": {"kind": "gkp", "delta": 0.3, "spacing": True}},
                [],
                "state.spacing",
            ),
            ("quantify", {"state": {"kind": "cubic", "gamma": "1"}}, [], "state.gamma"),
            ("quantify", {"state": {"kind": "fock", "n": 1, "nbar": False}}, [], "state.nbar"),
            (
                "quantify",
                {"state": {"kind": "cat", "alpha": 2.0, "angle": "0"}},
                [],
                "state.angle",
            ),
        ]
        + WRONG_KIND_CASES
        + UNCHECKED_BEFORE,
        ids=[
            "seed", "seed-overflow", "grid-nodes", "grid-extent", "sweep-values-item",
            "sweep-values-scalar", "values-flag", "oracle-eps", "oracle-batches",
            "oracle-batch_size", "grid-nodes-fraction", "seed-fraction", "seed-bool",
            "oracle-batches-fraction", "grid-extent-bool", "grid-extent-overflow",
            "layers-fraction", "layers-bool",
            "prelayers-fraction", "n_max-fraction", "state-n-fraction", "state-n-bool",
            "side_peaks-fraction", "fock_n-fraction", "layers_N-fraction", "alpha-bool",
            "delta-string", "spacing-bool", "gamma-string", "nbar-bool", "angle-string",
        ]
        + [f"{case[3]}-wrong-kind" for case in WRONG_KIND_CASES]
        + [f"{case[3]}-unchecked-before" for case in UNCHECKED_BEFORE],
    )
    def test_bad_value_names_its_key(self, tmp_path, capsys, command, extra, flags, key):
        payload = {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 1}, **extra}
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli([command, "--config", cfg, *flags], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("nbar", [math.nan, math.inf, -0.1])
    def test_bad_nbar_is_a_config_error(self, tmp_path, capsys, nbar):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1, "nbar": nbar}})
        code, out, err = run_cli(["quantify", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith("config error: ") and "thermal_nbar" in err

    @pytest.mark.parametrize(
        "source,model,field",
        [
            (
                {"state": {"kind": "cat", "alpha": 2.0, "angle": math.nan}},
                None,
                "quadrature_angle",
            ),
            ({"state": {"kind": "cubic", "gamma": -math.inf}}, None, "gamma"),
            ({"state": {"kind": "gkp", "delta": math.nan, "spacing": 2.5}}, None, "delta"),
            (None, {"omega01": math.inf}, "omega01"),
            (None, {"decay_exponent": math.nan}, "decay_exponent"),
        ],
        ids=["cat-angle-nan", "cubic-gamma-inf", "gkp-delta-nan", "omega01-inf", "decay-nan"],
    )
    def test_non_finite_setting_is_a_config_error(self, tmp_path, capsys, source, model, field):
        command = "quantify"
        if source is None:
            command = "fit-phonons"
            source = json.loads(Path(rabi_trace_config(tmp_path, [0.1, 0.8, 0.1])).read_text())
            source["rabi_model"].update(model)
        code, out, err = run_cli([command, "--config", write_config(tmp_path, source)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: bad config: ") and err.count("\n") == 1
        assert f"{field} must be finite" in err

    def test_clashing_output_paths(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "outputs": {"report_json": "same.out", "table_csv": "same.out"},
            },
        )
        assert run_cli(["quantify", "--config", cfg], capsys)[0] == 2


class TestGridFlags:
    @pytest.mark.parametrize(
        "flags,grid,shown",
        [
            (["--grid-nodes", "0"], None, "0"),
            (["--grid-extent", "0"], None, "0.0"),
            (["--grid-extent", "-3"], None, "-3.0"),
            ([], {"extent": 0}, "0.0"),
            (["--grid-extent", "nan"], None, "nan"),
            (["--grid-extent", "inf"], None, "inf"),
        ],
        ids=["nodes-0", "extent-0", "extent-neg3", "config-extent-0", "extent-nan", "extent-inf"],
    )
    @pytest.mark.filterwarnings("error")
    def test_unusable_grid_is_a_precondition_error(
        self, tmp_path, capsys, flags, grid, shown
    ):
        payload = {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 1}}
        if grid is not None:
            payload["grid"] = grid
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["quantify", "--config", cfg, *flags], capsys)
        assert code == 3 and out == ""
        assert err.startswith("precondition error: ") and err.count("\n") == 1
        assert err.rstrip().endswith(f"got {shown}")


class TestQuantifyCommand:
    def test_frozen_report_bytes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        code, out, _ = run_cli(["quantify", "--config", cfg], capsys)
        assert code == 0
        assert out == FOCK1_REPORT

    def test_flag_position_is_irrelevant(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        _, before, _ = run_cli(["--config", cfg, "quantify"], capsys)
        _, after, _ = run_cli(["quantify", "--config", cfg], capsys)
        assert before == after == FOCK1_REPORT

    def test_out_flag_writes_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        dest = tmp_path / "report.json"
        code, out, _ = run_cli(["quantify", "--config", cfg, "--out", str(dest)], capsys)
        assert code == 0 and out == ""
        assert dest.read_text() == FOCK1_REPORT

    def test_report_json_output_section(self, tmp_path, capsys):
        dest = tmp_path / "report.json"
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "outputs": {"report_json": str(dest)},
            },
        )
        assert run_cli(["quantify", "--config", cfg], capsys)[0] == 0
        assert dest.read_text() == FOCK1_REPORT

    def test_grid_override_changes_resolution(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        code, out, _ = run_cli(
            ["quantify", "--config", cfg, "--grid-nodes", "2048"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["min_variance"] == pytest.approx(0.270006132941, abs=1e-3)
        assert out != FOCK1_REPORT

    def test_pipeline_section_controls_layers(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 2}},
        )
        _, out, _ = run_cli(["quantify", "--config", cfg], capsys)
        report = json.loads(out)
        assert report["layers"] == 2 and report["copies"] == 4


    def test_integral_float_layers_run_as_an_integer(self, tmp_path, capsys):
        outs = []
        for layers in (2, 2.0):
            cfg = write_config(
                tmp_path, {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": layers}}
            )
            code, out, err = run_cli(["quantify", "--config", cfg], capsys)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[1])["layers"] == 2


class TestDensityCsvRoundTrip:
    def test_export_then_requantify(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        exported = tmp_path / "density.csv"
        code, _, _ = run_cli(
            ["export-density", "--config", cfg, "--out", str(exported)], capsys
        )
        assert code == 0
        header = exported.read_text().splitlines()[0]
        assert header == "x,density"

        reingest = write_config(
            tmp_path, {"density_csv": str(exported)}, name="reingest.json"
        )
        _, direct, _ = run_cli(["quantify", "--config", cfg], capsys)
        _, via_csv, _ = run_cli(["quantify", "--config", reingest], capsys)
        a = json.loads(direct)
        b = json.loads(via_csv)
        assert b["min_variance"] == pytest.approx(a["min_variance"], abs=1e-9)

    def test_export_needs_destination(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        assert run_cli(["export-density", "--config", cfg], capsys)[0] == 2


class TestDepthCommand:
    @pytest.mark.parametrize(
        "witness,message",
        [
            ("wigner", "need a nonclassical fock state, n >= 1"),
            ("fano", "need a sub-Poissonian fock state, n >= 1"),
        ],
        ids=["wigner", "fano"],
    )
    def test_fock0_witness_is_a_precondition_error(self, tmp_path, capsys, witness, message):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 0}})
        code, out, err = run_cli(["depth", "--config", cfg, "--witness", witness], capsys)
        assert (code, out, err) == (3, "", f"precondition error: {message}\n")

    def test_wigner_witness(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 2}})
        code, out, _ = run_cli(
            ["depth", "--config", cfg, "--witness", "wigner"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "witness",
            "nbar_star",
            "bracket_lo",
            "bracket_hi",
            "iterations",
        ]
        assert report["nbar_star"] == pytest.approx(0.5, abs=1e-3)

    def test_fano_witness_from_config_section(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"state": {"kind": "fock", "n": 1}, "depth": {"witness": "fano"}},
        )
        code, out, _ = run_cli(["depth", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["nbar_star"] == pytest.approx(0.414214, abs=2e-4)

    def test_subplanck_asymptotic_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        code, out, _ = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["witness"] == "subplanck-asymptotic"
        assert report["nbar_star"] == pytest.approx(0.25, abs=1e-3)

    def test_grid_flags_reach_the_depth_search(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 4}})
        code, default, _ = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert code == 0
        assert default == FOCK4_ASYMPTOTIC_DEPTH
        grids = []
        realize = subplanck.depth.realize

        def recording_realize(spec, grid=None):
            grids.append(grid)
            return realize(spec, grid)

        monkeypatch.setattr(subplanck.depth, "realize", recording_realize)
        flags = ["depth", "--config", cfg, "--asymptotic", "--grid-nodes", "16384"]
        code, fine, _ = run_cli(flags, capsys)
        assert code == 0
        # the default extent of Fock 4 at nbar 0, at every occupation tried
        assert len(grids) == 13 and set(grids) == {GridSpec(12.0, 16384)}
        # 16384 nodes move the witness by ~2e-6, less than the bisection's
        # 2^-11 step resolves; a coarse grid moves the reported depth
        assert fine == default
        code, coarse, _ = run_cli(flags[:-1] + ["513"], capsys)
        assert code == 0
        assert coarse != default
        assert json.loads(coarse)["nbar_star"] == 0.27001953125

    def test_classical_state_is_precondition_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 0}})
        code, _, err = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert code == 3
        assert "precondition error" in err

    def test_fock_only_witnesses(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "cat", "alpha": 2.0}})
        assert run_cli(["depth", "--config", cfg, "--witness", "wigner"], capsys)[0] == 2

    def test_depth_needs_parametric_state(self, tmp_path, capsys):
        csv = tmp_path / "d.csv"
        cfg_export = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        run_cli(["export-density", "--config", cfg_export, "--out", str(csv)], capsys)
        cfg = write_config(tmp_path, {"density_csv": str(csv)}, name="fromcsv.json")
        assert run_cli(["depth", "--config", cfg], capsys)[0] == 2


class TestOracleCommand:
    def payload(self):
        return {
            "state": {"kind": "fock", "n": 1},
            "pipeline": {"layers": 2},
            "oracle": {"eps": 0.05, "batches": 4},
        }

    def test_report_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.payload())
        code, first, _ = run_cli(["oracle", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(first)
        assert list(report) == [
            "accepted",
            "attempted",
            "acceptance_rate",
            "ks_vs_deterministic",
            "window_eps",
            "seed",
        ]
        assert report["accepted"] >= 100
        assert 0.0 < report["ks_vs_deterministic"] < 0.2
        assert report["window_eps"] == 0.05
        _, second, _ = run_cli(["oracle", "--config", cfg], capsys)
        assert first == second

    def test_seed_override_changes_stream(self, tmp_path, capsys):
        cfg = write_config(tmp_path, self.payload())
        _, base, _ = run_cli(["oracle", "--config", cfg], capsys)
        code, reseeded, _ = run_cli(["oracle", "--config", cfg, "--seed", "99"], capsys)
        assert code == 0
        assert json.loads(reseeded)["seed"] == 99
        assert reseeded != base

    def test_samples_csv_export(self, tmp_path, capsys):
        payload = self.payload()
        samples = tmp_path / "samples.csv"
        payload["oracle"]["samples_csv"] = str(samples)
        cfg = write_config(tmp_path, payload)
        _, out, _ = run_cli(["oracle", "--config", cfg], capsys)
        rows = samples.read_text().splitlines()
        assert len(rows) == json.loads(out)["accepted"]
        float(rows[0])

    def test_samples_csv_bytes_are_savetxt_bytes(self, tmp_path, capsys):
        payload = self.payload()
        samples = tmp_path / "samples.csv"
        payload["oracle"]["samples_csv"] = str(samples)
        code, _, _ = run_cli(["oracle", "--config", write_config(tmp_path, payload)], capsys)
        assert code == 0
        run = simulate_protocol(fock_density(1), 2, eps=0.05, batches=4, seed=0)
        reference = tmp_path / "savetxt.csv"
        np.savetxt(reference, run.samples_out, fmt="%.17g")
        assert samples.read_bytes() == reference.read_bytes()
        # more rows than one formatted block, and values at the format's edges
        edge = np.concatenate(
            (
                np.resize(run.samples_out, 2 * cli._SAMPLE_ROWS_PER_WRITE + 5),
                [-0.0, 0.0, 1e-310, -1e-310, 1e300, -1e300, 5e-324],
            )
        )
        cli._write_samples(str(samples), edge)
        np.savetxt(reference, edge, fmt="%.17g")
        assert samples.read_bytes() == reference.read_bytes()

    def test_too_many_layers(self, tmp_path, capsys):
        payload = self.payload()
        payload["pipeline"] = {"layers": 5}
        cfg = write_config(tmp_path, payload)
        assert run_cli(["oracle", "--config", cfg], capsys)[0] == 3


class TestSweepCommand:
    def test_fock_ladder(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "pipeline": {"layers": 2},
                "sweep": {"parameter": "fock_n", "values": [1, 2]},
            },
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "fock_n,min_variance,squeezing_db,asymptotic_variance,efficiency,error"
        assert len(lines) == 3
        row1 = lines[1].split(",")
        row2 = lines[2].split(",")
        assert row1[0] == "1" and row2[0] == "2"
        assert float(row2[1]) < float(row1[1])
        assert row1[-1] == "" and row2[-1] == ""

    def test_error_rows_do_not_stop_the_sweep(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "pipeline": {"layers": 2},
                "sweep": {"parameter": "nbar", "values": [-0.5, 0.1]},
            },
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        lines = out.splitlines()
        bad = lines[1].split(",")
        good = lines[2].split(",")
        assert bad[0] == "-0.5" and bad[1] == "" and bad[-1] != ""
        assert good[0] == "0.1" and float(good[1]) > 0.0

    def test_flag_overrides(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 2}},
        )
        args = ["sweep", "--config", cfg, "--parameter", "layers_N", "--values", "2,1"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        first_cells = [line.split(",")[0] for line in out.splitlines()]
        assert first_cells == ["layers_N", "1", "2"]

    def test_with_depth_column(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "pipeline": {"layers": 1},
                "sweep": {"parameter": "fock_n", "values": [1], "with_depth": True},
            },
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(",nbar_star,error")
        assert float(lines[1].split(",")[-2]) == pytest.approx(0.25, abs=1e-3)

    def test_depth_column_uses_the_grid(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "pipeline": {"layers": 1},
                "grid": {"nodes": 2048},
                "sweep": {"parameter": "fock_n", "values": [1, 2], "with_depth": True},
            },
        )
        depth_grids = []
        subplanck_depth = cli.subplanck_depth

        def recording_depth(spec, pipeline, asymptotic, grid):
            depth_grids.append((spec.n, grid))
            return subplanck_depth(spec, pipeline, asymptotic=asymptotic, grid=grid)

        monkeypatch.setattr(cli, "subplanck_depth", recording_depth)
        code, _, _ = run_cli(
            ["sweep", "--config", cfg, "--grid-extent", "13"], capsys
        )
        assert code == 0
        assert depth_grids == [(1, GridSpec(13.0, 2048)), (2, GridSpec(13.0, 2048))]

    def test_nbar_sweep_rejects_depth(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "sweep": {"parameter": "nbar", "values": [0.0, 0.1], "with_depth": True},
            },
        )
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "with_depth" in err

    @pytest.mark.parametrize(
        "source,parameter",
        [("density_csv", "layers_N"), ("rabi_csv", "layers_N"), ("thermal", "fock_n")],
    )
    def test_depth_needs_a_state_at_zero_nbar(self, tmp_path, capsys, source, parameter):
        if source == "density_csv":
            csv = tmp_path / "density.csv"
            xs = np.linspace(-6.0, 6.0, 256)
            csv.write_text("".join(f"{x},{math.exp(-x * x)}\n" for x in xs))
            payload = {"density_csv": str(csv)}
        elif source == "rabi_csv":
            payload = json.loads(Path(rabi_trace_config(tmp_path, [0.0, 1.0, 0.0])).read_text())
        else:
            payload = {"state": {"kind": "fock", "n": 1, "nbar": 0.1}}
        payload["sweep"] = {"parameter": parameter, "values": [1, 2], "with_depth": True}
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "with_depth needs a state input specified at nbar 0" in err

    def test_layers_sweep_resolves_input_and_depth_once(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = {"fit_populations": 0, "subplanck_depth": 0}
        for name in calls:
            def counted(*args, _original=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        flags = ["--parameter", "layers_N", "--values", "4,3,2,1"]
        rabi = rabi_trace_config(tmp_path, [0.0, 1.0, 0.0])
        assert run_cli(["sweep", "--config", rabi] + flags, capsys)[:2] == (
            0, RABI_LAYERS_TABLE
        )
        state = write_config(
            tmp_path, {"state": {"kind": "fock", "n": 1}, "sweep": {"with_depth": True}}
        )
        assert run_cli(["sweep", "--config", state] + flags, capsys)[:2] == (
            0, FOCK1_LAYERS_DEPTH_TABLE
        )
        assert calls == {"fit_populations": 1, "subplanck_depth": 1}

    def test_config_error_ends_the_sweep(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        cfg = write_config(tmp_path, {"density_csv": str(missing)})
        args = ["sweep", "--config", cfg, "--parameter", "layers_N", "--values", "1,2"]
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == ""
        assert str(missing) in err

    def test_cat_alpha_sweep(self, tmp_path, capsys):
        state = {"kind": "cat", "alpha": 2.0}
        cfg = write_config(
            tmp_path,
            {
                "state": state,
                "pipeline": {"layers": 1},
                "sweep": {"parameter": "alpha", "values": [2.0, 1.5]},
            },
        )
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["1.5", "2"]
        assert all(row[-1] == "" for row in rows)
        assert rows[0][1] != rows[1][1]
        single = write_config(
            tmp_path, {"state": state, "pipeline": {"layers": 1}}, name="single.json"
        )
        report = json.loads(run_cli(["quantify", "--config", single], capsys)[1])
        assert rows[1][1] == format(report["min_variance"], ".12g")

    @pytest.mark.parametrize(
        "source,parameter,message",
        [
            ({"state": {"kind": "fock", "n": 1}}, "alpha", "needs a cat state, got 'fock'"),
            (
                {"state": {"kind": "mixture", "populations": [0.5, 0.5]}},
                "fock_n",
                "needs a fock state, got 'mixture'",
            ),
            ({"state": {"kind": "cat", "alpha": 2.0}}, "spacing", "needs a gkp state, got 'cat'"),
            (
                {"state": {"kind": "gkp", "delta": 0.3, "spacing": 2.5}},
                "gamma",
                "needs a cubic state, got 'gkp'",
            ),
            ({"density_csv": "density.csv"}, "nbar", "needs a state input"),
        ],
        ids=[
            "alpha-of-fock", "fock_n-of-mixture", "spacing-of-cat", "gamma-of-gkp", "nbar-of-csv"
        ],
    )
    def test_parameter_the_input_never_reads(self, tmp_path, capsys, source, parameter, message):
        payload = {**source, "sweep": {"parameter": parameter, "values": [1, 2]}}
        code, out, err = run_cli(["sweep", "--config", write_config(tmp_path, payload)], capsys)
        assert (code, out) == (2, "")
        assert err == f"config error: sweep over {parameter!r} {message}\n"

    def test_table_csv_output_section(self, tmp_path, capsys):
        dest = tmp_path / "table.csv"
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "pipeline": {"layers": 1},
                "sweep": {"parameter": "fock_n", "values": [1]},
                "outputs": {"table_csv": str(dest)},
            },
        )
        code, out, _ = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 0 and out == ""
        assert dest.read_text().startswith("fock_n,")

    def test_bad_parameter(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        code, _, _ = run_cli(
            ["sweep", "--config", cfg, "--parameter", "fock_n"], capsys
        )
        assert code == 2  # values missing


class TestReadmeExample:
    def test_every_command_runs_on_the_example_config(self, tmp_path, capsys, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        config = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        commands = re.findall(r"^subplanck (.*--config run\.json.*)$", readme, re.M)
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(config)
        for command in commands:
            code, _, err = run_cli(shlex.split(command), capsys)
            assert (code, err) == (0, ""), command
            if command.startswith("sweep"):
                rows = Path(json.loads(config)["outputs"]["table_csv"]).read_text()
                assert all(row.endswith(",") for row in rows.splitlines()[1:]), rows
        assert sorted(c.split()[0] for c in commands) == [
            "depth", "export-density", "oracle", "quantify", "sweep"
        ]


class TestFitPhononsCommand:
    def test_populations_recovered(self, tmp_path, capsys):
        cfg = rabi_trace_config(tmp_path, [0.1, 0.8, 0.1], noise=0.005)
        code, out, _ = run_cli(["fit-phonons", "--config", cfg], capsys)
        assert code == 0
        pops = json.loads(out)["populations"]
        assert len(pops) == 3
        assert sum(pops) == pytest.approx(1.0, abs=1e-9)
        assert pops[1] == pytest.approx(0.8, abs=0.03)

    def test_quantify_accepts_rabi_input(self, tmp_path, capsys):
        cfg = rabi_trace_config(tmp_path, [0.0, 1.0, 0.0])
        code, out, _ = run_cli(["quantify", "--config", cfg], capsys)
        assert code == 0
        fitted = json.loads(out)
        direct_cfg = write_config(
            tmp_path,
            {"state": {"kind": "mixture", "populations": [0.0, 1.0, 0.0]}},
            name="direct.json",
        )
        _, direct_out, _ = run_cli(["quantify", "--config", direct_cfg], capsys)
        direct = json.loads(direct_out)
        assert fitted["min_variance"] == pytest.approx(direct["min_variance"], abs=1e-6)

    def test_needs_rabi_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        assert run_cli(["fit-phonons", "--config", cfg], capsys)[0] == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_row_is_a_precondition_error(self, tmp_path, capsys, bad):
        cfg = rabi_trace_config(tmp_path, [0.1, 0.8, 0.1])
        csv = Path(json.loads(Path(cfg).read_text())["rabi_csv"])
        rows = csv.read_text().splitlines()
        rows[7] = rows[7].split(",")[0] + "," + bad
        csv.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(["fit-phonons", "--config", cfg], capsys)
        assert (code, out) == (3, "")
        assert err == "precondition error: trace holds non-finite values (nan or inf)\n"

    def test_needs_model_section(self, tmp_path, capsys):
        csv = tmp_path / "trace.csv"
        csv.write_text("0,0\n1,0.5\n2,0.9\n3,0.4\n4,0.1\n5,0.3\n")
        cfg = write_config(tmp_path, {"rabi_csv": str(csv)})
        assert run_cli(["fit-phonons", "--config", cfg], capsys)[0] == 2

    def test_unexplainable_trace_is_solver_error(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        ts = np.linspace(0.0, 40.0, 40)
        csv = tmp_path / "garbage.csv"
        csv.write_text("".join(f"{t},{v}\n" for t, v in zip(ts, rng.uniform(0, 1, 40))))
        cfg = write_config(
            tmp_path,
            {
                "rabi_csv": str(csv),
                "rabi_model": {"omega01": 2.0 * math.pi * 0.05, "n_max": 2},
            },
        )
        code, _, err = run_cli(["fit-phonons", "--config", cfg], capsys)
        assert code == 4
        assert "solver error" in err


class TestInputCsvErrors:
    @pytest.mark.parametrize("source", ["density_csv", "rabi_csv"])
    @pytest.mark.parametrize(
        "content,code,message",
        [(None, 2, "cannot read"), ("0.0,0.1\nnot-a-number,0.4\n", 3, "line 2")],
        ids=["missing", "malformed"],
    )
    def test_unusable_input_file(self, tmp_path, capsys, source, content, code, message):
        path = tmp_path / "input.csv"
        if content is not None:
            path.write_text(content)
        payload = {source: str(path)}
        if source == "rabi_csv":
            payload["rabi_model"] = {"omega01": 1.0}
        cfg = write_config(tmp_path, payload)
        got, out, err = run_cli(["quantify", "--config", cfg], capsys)
        assert got == code and out == ""
        assert str(path) in err and message in err


def declared_entry_point():
    """The ``module:attr`` that ``[project.scripts].subplanck`` names."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["subplanck"]


def assert_fock1_report_from(command, tmp_path):
    """Run ``command quantify`` on Fock 1 in a child process; match the report.

    The child's PYTHONPATH starts with the imported package's absolute root,
    so a relative ``PYTHONPATH=src`` still resolves and a script from another
    checkout still runs this tree's code.
    """
    root = str(Path(subplanck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
    proc = subprocess.run(
        [*command, "quantify", "--config", cfg],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == FOCK1_REPORT, proc.stderr


class TestInstalledEntryPoint:
    def test_console_script_matches_in_process(self, tmp_path):
        # Same body pip writes into the generated ``subplanck`` script, run
        # without an install.
        module, attr = declared_entry_point().split(":")
        body = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        assert_fock1_report_from([sys.executable, "-c", body], tmp_path)

    @pytest.mark.skipif(
        shutil.which("subplanck") is None,
        reason="subplanck console script is not on PATH (package not installed)",
    )
    def test_installed_script_on_path_matches_in_process(self, tmp_path):
        assert_fock1_report_from([shutil.which("subplanck")], tmp_path)
