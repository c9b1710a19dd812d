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
from subplanck.density import GridSpec, read_density_csv
from subplanck.distill import DistillConfig, quantify
from subplanck.oracle import simulate_protocol
from subplanck.phonon import RabiModel, fit_populations, rabi_signal, read_rabi_csv
from subplanck.states import StateSpec, realize

# layers_N sweeps of a Rabi trace of Fock 1 (fitted populations) and of the
# Fock 1 state with its asymptotic depth, as the per-point sweep wrote them.
# The exact fit of the 9-digit trace leaves 1.05e-10 on n = 0, so the Rabi
# table agrees with the direct Fock 1 table to ~2e-11.  Every min_variance of
# the Fock 1 table equals bench/reference.py's full-line value to 12 digits.
RABI_LAYERS_TABLE = """\
layers_N,min_variance,squeezing_db,asymptotic_variance,efficiency,error
1,0.337040626326,-1.71287751162,0.249999847421,0.741749889756,
2,0.306090875129,-2.13119621293,0.249999847421,0.816750408897,
3,0.284149765062,-2.45422703034,0.249999847421,0.879817188538,
4,0.270007114505,-2.6759479666,0.249999847421,0.925900963309,
"""
FOCK1_LAYERS_DEPTH_TABLE = """\
layers_N,min_variance,squeezing_db,asymptotic_variance,efficiency,nbar_star,error
1,0.337040626302,-1.71287751194,0.249999847408,0.741749889771,0.250000152592,
2,0.30609087511,-2.1311962132,0.249999847408,0.816750408904,0.250000152592,
3,0.284149765046,-2.45422703059,0.249999847408,0.879817188542,0.250000152592,
4,0.270007114491,-2.67594796683,0.249999847408,0.925900963311,0.250000152592,
"""

FOCK4_ASYMPTOTIC_DEPTH = (
    '{"witness": "subplanck-asymptotic", "nbar_star": 0.271235648513, '
    '"bracket_lo": 0.271235648513, "bracket_hi": 0.271236148513, "iterations": 7}\n'
)

FOCK1_REPORT = (
    '{"min_variance": 0.270007114491, "squeezing_db": -2.67594796683, '
    '"T_opt": 0.850827238025, "maximum_a": 3.99999978608, '
    '"asymptotic_variance": 0.249999847408, "efficiency": 0.925900963311, '
    '"is_squeezed": true, "layers": 4, "copies": 16}\n'
)
COMMANDS = ("quantify", "sweep", "depth", "oracle", "fit-phonons", "export-density")


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


def zero_by_the_peak_config(tmp_path, layers):
    """A 128-bin Gaussian histogram whose tallest bin has an empty neighbour.

    Its peak window holds an exact zero, so it has no many-copy limit, while
    the resolved filter still gives a minimum variance.
    """
    xs = GridSpec(10.0, 128).xs()
    vals = np.exp(-xs * xs / 2.0)
    k = int(np.argmax(vals))
    vals[k] *= 1.5
    vals[k + 1] = 0.0
    csv = tmp_path / "histogram.csv"
    csv.write_text("".join(f"{x:.17g},{v:.17g}\n" for x, v in zip(xs, vals)))
    return write_config(
        tmp_path, {"density_csv": str(csv), "pipeline": {"layers": layers}}
    ), csv


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
        "flags,owner,command",
        [
            pytest.param(flags, owner, command, id=f"{flags[0][2:]}-to-{command}")
            for flags, owner in [
                (["--parameter", "fock_n"], "sweep"),
                (["--values", "1"], "sweep"),
                (["--witness", "fano"], "depth"),
                (["--asymptotic"], "depth"),
            ]
            for command in COMMANDS
            if command != owner
        ],
    )
    def test_own_flag_on_another_command(self, tmp_path, capsys, flags, owner, command):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, *flags])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"error: {flags[0]} applies to {owner} only" in captured.err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert tuple(cli._COMMANDS) == COMMANDS
        for name, (_, _, line) in cli._COMMANDS.items():
            assert re.search(rf"^  {re.escape(name)} +{re.escape(line)}$", out, re.M)

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
            (
                {"state": {"kind": "fock", "n": 1}, "pipeline": {"conditioning_xbar": math.nan}},
                None,
                "conditioning_xbar",
            ),
            (
                {"state": {"kind": "fock", "n": 1}, "pipeline": {"conditioning_xbar": math.inf}},
                None,
                "conditioning_xbar",
            ),
            (
                {
                    "state": {"kind": "fock", "n": 1},
                    "pipeline": {"nonuniversal_prelayers": 1, "prelayer_xbar": math.nan},
                },
                None,
                "prelayer_xbar",
            ),
        ],
        ids=[
            "cat-angle-nan", "cubic-gamma-inf", "gkp-delta-nan", "omega01-inf", "decay-nan",
            "conditioning-nan", "conditioning-inf", "prelayer-nan",
        ],
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

    @pytest.mark.parametrize("command", ["quantify", "oracle"])
    def test_prelayer_xbar_needs_a_prelayer(self, tmp_path, capsys, command):
        # nothing reads the offset without a prelayer, so it cannot be set
        payload = {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 1, "prelayer_xbar": 0.7}}
        code, out, err = run_cli([command, "--config", write_config(tmp_path, payload)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "pipeline.prelayer_xbar" in err

    @pytest.mark.parametrize(
        "grid,flags,setting",
        [
            ({"nodes": 2048}, [], "grid.nodes"),
            ({"extent": 12.0}, [], "grid.extent"),
            ({}, ["--grid-nodes", "2048"], "--grid-nodes"),
            ({}, ["--grid-extent", "12"], "--grid-extent"),
        ],
    )
    def test_grid_setting_on_a_density_csv(self, tmp_path, capsys, grid, flags, setting):
        # the CSV brings its own nodes, so nothing reads a grid setting
        csv = tmp_path / "density.csv"
        xs = np.linspace(-6.0, 6.0, 256)
        csv.write_text("".join(f"{x},{math.exp(-x * x)}\n" for x in xs))
        payload = {"density_csv": str(csv), **({"grid": grid} if grid else {})}
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["quantify", "--config", cfg, *flags], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert setting in err

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
        # a command's own flags may come before it, as the shared flags may
        for command, flags in [
            ("sweep", ["--parameter", "layers_N", "--values", "1,2"]),
            ("depth", ["--witness", "fano"]),
            ("depth", ["--asymptotic"]),
        ]:
            before = run_cli([*flags, "--config", cfg, command], capsys)
            after = run_cli([command, "--config", cfg, *flags], capsys)
            assert before == after and before[0] == 0 and before[1]

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
        assert report["min_variance"] == pytest.approx(0.270007114491, abs=1e-3)
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

    def test_no_limit_is_reported_as_null(self, tmp_path, capsys):
        cfg, csv = zero_by_the_peak_config(tmp_path, 4)
        code, out, err = run_cli(["quantify", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        assert '"asymptotic_variance": null, "efficiency": null' in out
        want = quantify(read_density_csv(str(csv)), DistillConfig(layers=4))
        assert out == canonical_json(want.to_dict()) + "\n"


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
        realize = cli.realize

        def recording_realize(spec, grid=None):
            grids.append(grid)
            return realize(spec, grid)

        monkeypatch.setattr(cli, "realize", recording_realize)
        flags = ["depth", "--config", cfg, "--asymptotic", "--grid-nodes", "16384"]
        code, fine, _ = run_cli(flags, capsys)
        assert code == 0
        # the default extent of Fock 4, realized once and blurred per occupation
        report = json.loads(fine)
        assert grids == [GridSpec(12.0, 16384)]
        # 16384 nodes move the depth by ~2e-7; a coarse grid moves it further
        star = json.loads(default)["nbar_star"]
        assert abs(report["nbar_star"] - star) <= 5e-6
        code, coarse, _ = run_cli(flags[:-1] + ["513"], capsys)
        assert code == 0
        coarse_star = json.loads(coarse)["nbar_star"]
        assert abs(coarse_star - star) > 5e-6
        assert coarse_star == 0.271774386574

    def test_classical_state_is_precondition_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 0}})
        code, _, err = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert code == 3
        assert "precondition error" in err

    @pytest.mark.parametrize("witness", ["wigner", "fano", "subplanck"])
    def test_thermal_state_is_a_precondition_error(self, tmp_path, capsys, witness):
        cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1, "nbar": 0.1}})
        code, out, err = run_cli(["depth", "--config", cfg, "--witness", witness], capsys)
        assert (code, out) == (3, "")
        assert err == "precondition error: depth search needs a state specified at nbar = 0\n"

    def test_fock_only_witnesses(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"state": {"kind": "cat", "alpha": 2.0}})
        assert run_cli(["depth", "--config", cfg, "--witness", "wigner"], capsys)[0] == 2

    @pytest.mark.parametrize("witness", ["wigner", "fano"])
    def test_asymptotic_with_a_closed_form_witness(self, tmp_path, capsys, witness):
        flag = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
        code, out, err = run_cli(
            ["depth", "--config", flag, "--witness", witness, "--asymptotic"], capsys
        )
        assert (code, out) == (2, "")
        assert err == (
            f"config error: --asymptotic applies to the subplanck witness only, "
            f"not {witness!r}\n"
        )
        section = write_config(
            tmp_path,
            {"state": {"kind": "fock", "n": 1},
             "depth": {"witness": witness, "asymptotic": True}},
            name="section.json",
        )
        code, out, err = run_cli(["depth", "--config", section], capsys)
        assert (code, out) == (2, "")
        assert err == (
            f"config error: depth.asymptotic applies to the subplanck witness only, "
            f"not {witness!r}\n"
        )

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_density_csv_depth_equals_the_state_depth(self, tmp_path, capsys, n):
        # the asymptotic witness and the pipeline witness at N = 2
        pipeline = {"layers": 2}
        state = write_config(tmp_path, {"state": {"kind": "fock", "n": n}, "pipeline": pipeline})
        csv = tmp_path / "density.csv"
        assert run_cli(["export-density", "--config", state, "--out", str(csv)], capsys)[0] == 0
        measured = write_config(
            tmp_path, {"density_csv": str(csv), "pipeline": pipeline}, name="csv.json"
        )
        for flags in (["--asymptotic"], []):
            from_state = run_cli(["depth", "--config", state, *flags], capsys)
            assert from_state[0] == 0 and from_state[1]
            assert run_cli(["depth", "--config", measured, *flags], capsys) == from_state

    def test_rabi_csv_depth_equals_the_fitted_mixture_depth(self, tmp_path, capsys):
        cfg = rabi_trace_config(tmp_path, [0.05, 0.9, 0.05], noise=0.01)
        payload = json.loads(Path(cfg).read_text())
        times, pe = read_rabi_csv(payload["rabi_csv"])
        fit = fit_populations(times, pe, RabiModel(**payload["rabi_model"]))
        populations = [float(p) for p in fit.distribution.populations]
        mixture = write_config(
            tmp_path, {"state": {"kind": "mixture", "populations": populations}}
        )
        from_trace = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert from_trace[0] == 0 and from_trace[1]
        assert run_cli(["depth", "--config", mixture, "--asymptotic"], capsys) == from_trace

    def test_histogram_with_an_occupied_edge_bin(self, tmp_path, capsys):
        # one stray count in the first of 128 bins of a Fock 1 histogram
        xs = GridSpec(6.0, 128).xs()
        counts = np.round(1e4 * xs * xs * np.exp(-xs * xs))
        counts[0] = 1.0
        csv = tmp_path / "histogram.csv"
        csv.write_text("".join(f"{x:.17g},{c:.17g}\n" for x, c in zip(xs, counts)))
        cfg = write_config(tmp_path, {"density_csv": str(csv)})
        code, out, err = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert (code, out) == (3, "")
        assert err == (
            "precondition error: density does not decay at the grid edges: its first "
            f"and last nodes hold {1.0 / counts.max():.3g} and 0 of the peak, above the "
            "1e-09 guard\n"
        )


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
        run = simulate_protocol(
            realize(StateSpec(kind="fock", n=1)), 2, eps=0.05, batches=4, seed=0
        )
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

    def test_too_few_samples_report_no_ks_distance(self, tmp_path, capsys):
        payload = self.payload()
        samples = tmp_path / "samples.csv"
        payload["oracle"] = {"eps": 0.02, "batches": 1, "samples_csv": str(samples)}
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["oracle", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert 0 < report["accepted"] < 100
        assert report["ks_vs_deterministic"] is None
        assert len(samples.read_text().splitlines()) == report["accepted"]

    @pytest.mark.parametrize("report_by", ["outputs", "flag", "flag-absolute"])
    def test_samples_csv_at_the_report_path(self, tmp_path, capsys, monkeypatch, report_by):
        monkeypatch.chdir(tmp_path)
        payload = self.payload()
        payload["oracle"]["samples_csv"] = "out.csv"
        flags = []
        if report_by == "outputs":
            payload["outputs"] = {"report_json": "out.csv"}
        elif report_by == "flag":
            flags = ["--out", "out.csv"]
        else:  # another spelling of the same file
            flags = ["--out", str(tmp_path / "out.csv")]
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["oracle", "--config", cfg, *flags], capsys)
        assert (code, out) == (2, "")
        assert err == "config error: oracle.samples_csv 'out.csv' is also the report path\n"
        # refused before the protocol runs, so neither file is written
        assert not (tmp_path / "out.csv").exists()

    def test_too_many_layers(self, tmp_path, capsys):
        payload = self.payload()
        payload["pipeline"] = {"layers": 5}
        cfg = write_config(tmp_path, payload)
        assert run_cli(["oracle", "--config", cfg], capsys)[0] == 3

    @pytest.mark.parametrize("flags,seed", [(["--seed", "-1"], 0), ([], -1)], ids=["flag", "config"])
    def test_negative_seed_is_a_precondition_error(self, tmp_path, capsys, flags, seed):
        cfg = write_config(tmp_path, {**self.payload(), "seed": seed})
        code, out, err = run_cli(["oracle", "--config", cfg, *flags], capsys)
        assert (code, out) == (3, "")
        assert err == "precondition error: seed must be a nonnegative integer, got -1\n"
        # quantify never draws, so it ignores the seed
        assert run_cli(["quantify", "--config", cfg, *flags], capsys)[0] == 0

    def test_prelayer_is_a_config_error(self, tmp_path, capsys):
        payload = self.payload()
        payload["pipeline"] = {"layers": 1, "nonuniversal_prelayers": 1, "prelayer_xbar": 0.7}
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["oracle", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: pipeline.nonuniversal_prelayers ")
        assert err.count("\n") == 1


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

    def test_no_limit_leaves_its_cells_empty(self, tmp_path, capsys):
        cfg, _ = zero_by_the_peak_config(tmp_path, 4)
        flags = ["--parameter", "layers_N", "--values", "0,4"]
        code, out, err = run_cli(["sweep", "--config", cfg] + flags, capsys)
        assert (code, err) == (0, "")
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[1]) > 0.0 and cells[3:] == ["", "", ""]

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

    def test_depth_column_uses_the_rows_density(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(
            tmp_path,
            {
                "state": {"kind": "fock", "n": 1},
                "pipeline": {"layers": 1},
                "grid": {"nodes": 2048},
                "sweep": {"parameter": "fock_n", "values": [1, 2], "with_depth": True},
            },
        )
        realized, depth_inputs = [], []
        realize, subplanck_depth = cli.realize, cli.subplanck_depth

        def recording_realize(spec, grid=None):
            realized.append(realize(spec, grid))
            return realized[-1]

        def recording_depth(density, pipeline, asymptotic):
            depth_inputs.append(density)
            return subplanck_depth(density, pipeline, asymptotic=asymptotic)

        monkeypatch.setattr(cli, "realize", recording_realize)
        monkeypatch.setattr(cli, "subplanck_depth", recording_depth)
        code, _, _ = run_cli(
            ["sweep", "--config", cfg, "--grid-extent", "13"], capsys
        )
        assert code == 0
        # one realize per row, on the configured grid, and its density is the
        # one the depth solver blurs
        assert depth_inputs == realized
        assert [(d.x_min, d.n_nodes) for d in realized] == [(-13.0, 2048)] * 2

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

    def test_depth_needs_a_state_at_zero_nbar(self, tmp_path, capsys):
        payload = {
            "state": {"kind": "fock", "n": 1, "nbar": 0.1},
            "sweep": {"parameter": "fock_n", "values": [1, 2], "with_depth": True},
        }
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert "with_depth needs a state input specified at nbar 0" in err

    @pytest.mark.parametrize("source", ["density_csv", "rabi_csv"])
    def test_depth_column_of_a_measured_input(self, tmp_path, capsys, source):
        if source == "density_csv":
            state = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}}, name="state.json")
            csv = tmp_path / "density.csv"
            run_cli(["export-density", "--config", state, "--out", str(csv)], capsys)
            payload = {"density_csv": str(csv)}
        else:
            payload = json.loads(Path(rabi_trace_config(tmp_path, [0.0, 1.0, 0.0])).read_text())
        cfg = write_config(tmp_path, payload)
        code, depth, _ = run_cli(["depth", "--config", cfg, "--asymptotic"], capsys)
        assert code == 0
        payload["sweep"] = {"parameter": "layers_N", "values": [1, 2], "with_depth": True}
        cfg = write_config(tmp_path, payload, name="sweep.json")
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        star = format(json.loads(depth)["nbar_star"], ".12g")
        assert [line.split(",")[-2] for line in out.splitlines()[1:]] == [star, star]

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

    def test_a_failed_depth_is_not_kept(self, tmp_path, capsys, monkeypatch):
        # Fock 0 resolves once, but its depth fails; the failure recurs per row
        calls = {"realize": 0, "subplanck_depth": 0}
        for name in calls:
            def counted(*args, _original=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        payload = {
            "state": {"kind": "fock", "n": 0},
            "sweep": {"parameter": "layers_N", "values": [1, 2], "with_depth": True},
        }
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["sweep", "--config", cfg], capsys)
        assert (code, err) == (0, "")
        error = '"NoSqueezingAtZero: witness is already classical at nbar = 0 (0.500000)"'
        assert out.splitlines()[1:] == [f"1,,,,,,{error}", f"2,,,,,,{error}"]
        assert calls == {"realize": 1, "subplanck_depth": 2}

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_nan_value_sorts_last(self, tmp_path, capsys, source):
        payload = {"state": {"kind": "cat", "alpha": 2.0}, "pipeline": {"layers": 1}}
        flags = ["--parameter", "alpha", "--values", "2,nan,1"]
        if source == "config":
            payload["sweep"] = {"parameter": "alpha", "values": [2.0, float("nan"), 1.0]}
            flags = []
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["sweep", "--config", cfg, *flags], capsys)
        assert (code, err) == (0, "")
        rows = out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["1", "2", "nan"]
        assert rows[0].endswith(",") and rows[1].endswith(",")
        assert rows[2] == 'nan,,,,,"InvalidStateSpec: alpha must be finite, got nan"'

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


class TestUnwritableOutput:
    @pytest.mark.parametrize("writer", ["emit", "density_csv", "samples"])
    def test_missing_directory_is_a_config_error(self, tmp_path, capsys, writer):
        # one writer each: _emit (--out), write_density_csv, _write_samples
        path = tmp_path / "no" / "such" / "out.csv"
        payload = {"state": {"kind": "fock", "n": 1}, "pipeline": {"layers": 1}}
        command = {"emit": "quantify", "density_csv": "export-density", "samples": "oracle"}[writer]
        flags = ["--out", str(path)]
        if writer == "samples":
            payload["oracle"] = {"eps": 0.05, "batches": 1, "samples_csv": str(path)}
            flags = []
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli([command, "--config", cfg, *flags], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("config error: ") and str(path) in err
        assert err.count("\n") == 1


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


class TestReadmeLibraryQuickStart:
    def test_quick_start_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library quick start", 1)[1]
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        exec(compile(code, "README.md", "exec"), {})
        min_variance, squeezing_db, is_squeezed = capsys.readouterr().out.split()
        assert 0.0 < float(min_variance) < 0.5
        assert float(squeezing_db) < 0.0 and is_squeezed == "True"


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

    def test_non_finite_abscissa_row(self, tmp_path, capsys):
        xs = GridSpec(8.0, 128).xs()
        rows = [f"{x:.17g},{math.exp(-x * x):.17g}\n" for x in xs]
        rows[60] = "inf,0.5\n"
        path = tmp_path / "density.csv"
        path.write_text("".join(rows))
        cfg = write_config(tmp_path, {"density_csv": str(path)})
        assert run_cli(["quantify", "--config", cfg], capsys) == (
            3, "", "precondition error: xs must be finite\n"
        )


def declared_entry_point():
    """The ``module:attr`` that ``[project.scripts].subplanck`` names."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["subplanck"]


def child_env():
    """The environment of a child interpreter that imports this tree's package.

    The child's PYTHONPATH starts with the imported package's absolute root,
    so a relative ``PYTHONPATH=src`` still resolves and a script from another
    checkout still runs this tree's code.
    """
    root = str(Path(subplanck.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def assert_fock1_report_from(command, tmp_path):
    """Run ``command quantify`` on Fock 1 in a child process; match the report."""
    cfg = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}})
    proc = subprocess.run(
        [*command, "quantify", "--config", cfg],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == FOCK1_REPORT, proc.stderr


# Runs each argv (a JSON list of lists in argv[1]) through main in one fresh
# interpreter, then prints the scipy modules it loaded.
NO_SCIPY_CHILD = """\
import contextlib, io, json, sys
import subplanck
import subplanck.cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = subplanck.cli.main(argv)
    assert code == 0, (argv, code)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_commands_leave_scipy_unloaded(tmp_path):
    # scipy costs most of a fresh command's start-up; only fit-phonons,
    # lamb_dicke scaling and the thermal number distribution need it
    fock1 = write_config(tmp_path, {"state": {"kind": "fock", "n": 1}}, name="fock1.json")
    oracle = write_config(
        tmp_path,
        {
            "state": {"kind": "fock", "n": 1},
            "pipeline": {"layers": 2},
            "oracle": {"eps": 0.05, "batches": 4},
        },
        name="oracle.json",
    )
    thermal = write_config(
        tmp_path, {"state": {"kind": "fock", "n": 2, "nbar": 0.1}}, name="thermal.json"
    )
    runs = [
        ["quantify", "--config", fock1],
        ["quantify", "--config", thermal],
        ["depth", "--asymptotic", "--config", fock1],
        ["oracle", "--config", oracle],
        ["sweep", "--config", fock1, "--parameter", "fock_n", "--values", "1,2"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n", proc.stderr


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
