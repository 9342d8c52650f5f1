import ast
import importlib
import json
import math
import pkgutil
from pathlib import Path

import jsonschema
import pytest

import ruinflow
from ruinflow import cli
from ruinflow.cli import CONFIG_SCHEMA, main, run
from ruinflow.dependence import ClaimModel, CubicPair
from ruinflow.heavy_tails import CubicSurvival, HarmonicSurvival, HeavyWeibull, Lognormal, Pareto
from ruinflow.processes import (
    BrownianDrift,
    CompoundPoissonDrift,
    Deterministic,
    Erlang,
    ExponentialJumps,
    FixedJumps,
    Poisson,
    RenewalIID,
)
from ruinflow.rare_sets import (
    AnyLineNegative,
    HalfSpace,
    MaxExceed,
    PolyhedralUnion,
    Ray,
    WeightedSumNegative,
    from_ruin_set,
)
from ruinflow.ruin import PremiumSchedule

DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_CONFIGS = sorted((DEMOS / "configs").glob("*.json"))


def base_config(out: Path, **kw):
    cfg = {
        "model": {
            "claim": {
                "dependence": {"type": "iid"},
                "margins": [{"type": "pareto", "alpha": 1.5, "scale": 1.0},
                            {"type": "pareto", "alpha": 1.5, "scale": 1.0}],
            },
            "set": {"type": "max_exceed", "b": [1.0, 1.0]},
            "renewal": {"type": "poisson", "rate": 1.0},
            "return": {"type": "deterministic", "rate": 0.05},
        },
        "experiment": "entrance",
        "sim": {"n_paths": 4000, "seed": 7, "horizon": 10.0,
                "x_grid": [5.0, 25.0], "workers": 1},
        "output": {"path": str(out), "format": "csv"},
    }
    cfg.update(kw)
    return cfg


def write(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return p


class TestSchema:
    def test_unknown_keys_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "r")
        cfg["model"]["surprise"] = 1
        assert run(write(tmp_path, cfg)) == 3

    def test_missing_block_rejected(self, tmp_path):
        cfg = base_config(tmp_path / "r")
        del cfg["sim"]
        assert run(write(tmp_path, cfg)) == 3

    def test_unreadable_config(self, tmp_path):
        assert run(tmp_path / "absent.json") == 3

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert run(p) == 3

    def test_schema_is_json_serializable(self):
        # docs/config_schema.json is a copy of CONFIG_SCHEMA and must stay one
        copy = Path(__file__).resolve().parent.parent / "docs" / "config_schema.json"
        assert copy.read_text() == json.dumps(CONFIG_SCHEMA, indent=2) + "\n"


NAN, INF = math.nan, math.inf

#: constructor calls with one NaN or infinite model parameter each
NON_FINITE = {
    "pareto alpha": lambda v: Pareto(v, 1.0),
    "pareto scale": lambda v: Pareto(1.5, v),
    "heavy_weibull scale": lambda v: HeavyWeibull(0.5, v),
    "lognormal mu": lambda v: Lognormal(v, 1.0),
    "lognormal sigma": lambda v: Lognormal(0.0, v),
    "poisson rate": lambda v: Poisson(v),
    "erlang k": lambda v: Erlang(v, 1.0),
    "erlang rate": lambda v: Erlang(2, v),
    "deterministic rate": lambda v: Deterministic(v),
    "brownian mu": lambda v: BrownianDrift(v, 0.2),
    "brownian sigma": lambda v: BrownianDrift(0.1, v),
    "compound_poisson drift": lambda v: CompoundPoissonDrift(v, 0.5, FixedJumps(0.1)),
    "compound_poisson jump_rate": lambda v: CompoundPoissonDrift(0.02, v, FixedJumps(0.1)),
    "exponential mean": lambda v: ExponentialJumps(v),
    "fixed size": lambda v: FixedJumps(v),
    "max_exceed b": lambda v: MaxExceed((1.0, v)),
    "half_space l": lambda v: HalfSpace((0.5, v), 1.0),
    "half_space b": lambda v: HalfSpace((0.5, 0.5), v),
    "ray b": lambda v: Ray(v),
    "weighted_sum_negative weights": lambda v: WeightedSumNegative((0.5, v)),
    "alloc": lambda v: from_ruin_set(AnyLineNegative(), (0.5, v)),
    "premium breaks": lambda v: PremiumSchedule(breaks=(0.0, v, 5.0),
                                                rates=((0.5,), (0.5,), (0.5,))),
    "premium rates": lambda v: PremiumSchedule(breaks=(0.0,), rates=((v,),)),
}


class TestNonFiniteParameters:
    @pytest.mark.parametrize("value", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("build", NON_FINITE.values(), ids=NON_FINITE.keys())
    def test_constructor_rejects(self, build, value):
        with pytest.raises(ValueError):
            build(value)

    def test_erlang_shape_must_be_an_integer(self):
        with pytest.raises(ValueError):
            Erlang(2.5, 1.0)

    def test_nan_config_exits_3(self, tmp_path):
        # jsonschema's bounds let NaN through; the model constructors must not
        cfg = base_config(tmp_path / "r")
        cfg["model"]["set"] = {"type": "half_space", "l": [0.5, 0.5], "b": 1.0}
        cfg["model"]["return"]["rate"] = NAN
        assert run(write(tmp_path, cfg)) == 3
        assert not (tmp_path / "r.csv").exists()


def _place_margin(model, spec):
    model["claim"]["margins"] = [spec, spec]


def _place_dependence(model, spec):
    model["claim"]["dependence"] = spec
    if spec["type"] == "cubic_pair":
        del model["claim"]["margins"]


def _place_set(model, spec):
    model["set"] = spec
    if spec["type"] == "ray":
        model["claim"]["margins"] = model["claim"]["margins"][:1]


def _place_ruin_set(model, spec):
    del model["set"]
    model["ruin"] = {"set": spec, "alloc": [0.5, 0.5]}


def _place_jumps(model, spec):
    model["return"] = {"type": "compound_poisson", "drift": 0.02, "jump_rate": 0.5, "jumps": spec}


PAIR = (Pareto(1.5, 1.0), Pareto(1.5, 1.0))

#: block -> (registry table, where the spec goes in base_config's model, what it builds,
#: and per registered type a minimal spec with the object it must build)
REGISTRY_CASES = {
    "margins": (cli._MARGINS, _place_margin, lambda model: model.claim.margins[0], {
        "pareto": ({"alpha": 1.5}, Pareto(1.5)),
        "heavy_weibull": ({"shape": 0.5}, HeavyWeibull(0.5)),
        "lognormal": ({"mu": 0.0, "sigma": 1.0}, Lognormal(0.0, 1.0)),
        "cubic_survival": ({}, CubicSurvival()),
        "harmonic_survival": ({}, HarmonicSurvival()),
    }),
    "dependence": (cli._DEPENDENCE, _place_dependence, lambda model: model.claim, {
        "iid": ({}, ClaimModel.iid(PAIR)),
        "fgm_chain": ({"theta": 0.5}, ClaimModel.fgm_chain(0.5, PAIR[0])),
        "cubic_pair": ({}, ClaimModel.cubic_pair()),
    }),
    "set": (cli._SETS, _place_set, lambda model: model.rare_set, {
        "max_exceed": ({"b": [1.0, 2.0]}, MaxExceed((1.0, 2.0))),
        "half_space": ({"l": [0.5, 0.5], "b": 1.0}, HalfSpace((0.5, 0.5), 1.0)),
        "ray": ({"b": 2.0}, Ray(2.0)),
        "polyhedral_union": (
            {"parts": [{"type": "half_space", "l": [0.9, 0.1], "b": 1.0}]},
            PolyhedralUnion((HalfSpace((0.9, 0.1), 1.0),))),
    }),
    "ruin set": (cli._RUIN_SETS, _place_ruin_set, lambda model: model.ruin_set, {
        "any_line_negative": ({}, AnyLineNegative()),
        "weighted_sum_negative": ({}, WeightedSumNegative()),
    }),
    "renewal": (cli._RENEWALS, lambda model, spec: model.update(renewal=spec),
                lambda model: model.renewal, {
        "poisson": ({"rate": 2.0}, Poisson(2.0)),
        "renewal_erlang": ({"k": 2, "rate": 1.5}, RenewalIID(Erlang(2, 1.5))),
    }),
    "return": (cli._RETURNS, lambda model, spec: model.update({"return": spec}),
               lambda model: model.ret, {
        "deterministic": ({"rate": 0.05}, Deterministic(0.05)),
        "brownian": ({"mu": 0.1, "sigma": 0.2}, BrownianDrift(0.1, 0.2)),
        "compound_poisson": (
            {"drift": 0.02, "jump_rate": 0.5, "jumps": {"type": "fixed", "size": 0.1}},
            CompoundPoissonDrift(0.02, 0.5, FixedJumps(0.1))),
    }),
    "jumps": (cli._JUMPS, _place_jumps, lambda model: model.ret.jumps, {
        "exponential": ({"mean": 0.05}, ExponentialJumps(0.05)),
        "fixed": ({"size": -0.1}, FixedJumps(-0.1)),
    }),
}


class TestRegistry:
    """Each registry entry feeds both the schema and the builders."""

    @pytest.mark.parametrize("dependence,margins,message", [
        ({"type": "iid"}, None, "need at least one margin"),
        ({"type": "fgm_chain", "theta": 0.5}, [{"type": "pareto", "alpha": 1.5}],
         "sharing one marginal"),
        ({"type": "fgm_chain", "theta": 0.5}, [{"type": "pareto", "alpha": 1.5},
                                               {"type": "pareto", "alpha": 2.0}],
         "sharing one marginal"),
        ({"type": "cubic_pair"}, [{"type": "pareto", "alpha": 1.5}] * 2,
         "fixed by its joint survival"),
    ], ids=["iid without margins", "fgm one margin", "fgm unequal margins",
            "cubic pareto margins"])
    def test_margin_shape_errors_exit_3(self, tmp_path, capsys, dependence, margins, message):
        cfg = base_config(tmp_path / "r")
        cfg["model"]["claim"] = {"dependence": dependence}
        if margins is not None:
            cfg["model"]["claim"]["margins"] = margins
        if len(margins or ()) == 1:
            cfg["model"]["set"] = {"type": "ray", "b": 1.0}
        assert run(write(tmp_path, cfg)) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_cubic_pair_with_its_margins_spelled_out(self, tmp_path):
        cfg = base_config(tmp_path / "r")
        cfg["model"]["claim"] = {"dependence": {"type": "cubic_pair"},
                                 "margins": [{"type": "cubic_survival"}] * 2}
        claim = cli._model(cfg, "set").claim
        assert claim == ClaimModel.cubic_pair() == ClaimModel((), CubicPair())

    def test_every_registered_type_has_a_case(self):
        for block, (table, _, _, cases) in REGISTRY_CASES.items():
            assert set(cases) == set(table), block

    @pytest.mark.parametrize("block,kind", [(block, kind) for block, entry in REGISTRY_CASES.items()
                                            for kind in entry[3]])
    def test_minimal_config_validates_and_builds_the_class(self, tmp_path, block, kind):
        _, place, built, cases = REGISTRY_CASES[block]
        params, want = cases[kind]
        cfg = base_config(tmp_path / "r")
        place(cfg["model"], {"type": kind, **params})
        jsonschema.validate(cfg, CONFIG_SCHEMA)
        assert built(cli._model(cfg, "set" if "set" in cfg["model"] else "ruin")) == want


class TestEntranceRun:
    def test_artifacts_written(self, tmp_path):
        out = tmp_path / "res" / "run"
        code = run(write(tmp_path, base_config(out)))
        assert code == 0
        table = (out.with_suffix(".csv")).read_text().splitlines()
        assert table[0] == "x,p_hat,ci_lo,ci_hi,count,asymptotic,ratio"
        assert len(table) == 3
        report = out.with_suffix(".report.txt").read_text()
        assert "consistent-variation" in report
        echo = json.loads(out.with_suffix(".config.json").read_text())
        assert echo["sim"]["workers"] == 1  # defaults materialized

    def test_round_trip_echo_reproduces_outputs(self, tmp_path):
        out1 = tmp_path / "a"
        assert run(write(tmp_path, base_config(out1))) == 0
        echo_path = out1.with_suffix(".config.json")
        echo = json.loads(echo_path.read_text())
        echo["output"]["path"] = str(tmp_path / "b")
        assert run(write(tmp_path, echo, "echo.json")) == 0
        a = (tmp_path / "a.csv").read_text()
        b = (tmp_path / "b.csv").read_text()
        assert a == b  # bit-identical tables

    def test_json_format(self, tmp_path):
        out = tmp_path / "j"
        cfg = base_config(out)
        cfg["output"]["format"] = "json"
        assert run(write(tmp_path, cfg)) == 0
        rows = json.loads(out.with_suffix(".json").read_text())
        assert {"x", "p_hat", "ci_lo", "ci_hi", "count", "asymptotic", "ratio"} \
            <= set(rows[0])


class TestOverrides:
    def test_cli_flags_beat_config(self, tmp_path):
        out = tmp_path / "o1"
        cfgp = write(tmp_path, base_config(out))
        assert run(cfgp, {"seed": 99, "out": str(tmp_path / "o2"), "format": "json"}) == 0
        echo = json.loads((tmp_path / "o2.config.json").read_text())
        assert echo["sim"]["seed"] == 99
        report = (tmp_path / "o2.report.txt").read_text().splitlines()
        overrides, = [line for line in report if line.startswith("overrides: ")]
        assert "'seed': 99" in overrides
        assert (tmp_path / "o2.json").exists()

    def test_every_flag_reaches_the_echo_and_the_report(self, tmp_path):
        # argparse's names are the keys of cli._OVERRIDES: a renamed flag or entry fails here
        out = tmp_path / "flags"
        cfgp = write(tmp_path, base_config(tmp_path / "unused"))
        assert main(["--config", str(cfgp), "--seed", "99", "--threads", "2",
                     "--out", str(out), "--format", "json", "--unsafe"]) == 0
        echo = json.loads((tmp_path / "flags.config.json").read_text())
        assert (echo["sim"]["seed"], echo["sim"]["workers"]) == (99, 2)
        assert echo["output"] == {"path": str(out), "format": "json"}
        assert echo["unsafe"] is True
        report = (tmp_path / "flags.report.txt").read_text().splitlines()
        applied = {"seed": 99, "threads": 2, "out": str(out), "format": "json", "unsafe": True}
        assert f"overrides: {applied}" in report
        assert (tmp_path / "flags.json").exists()
        assert not list(tmp_path.glob("unused*"))


class TestOutputNames:
    def test_dotted_names_keep_their_whole_name(self, tmp_path):
        for name in ("alpha1.5", "alpha1.7"):
            assert run(write(tmp_path, base_config(tmp_path / name))) == 0
        for name in ("alpha1.5", "alpha1.7"):
            for suffix in ("csv", "config.json", "report.txt"):
                assert (tmp_path / f"{name}.{suffix}").exists(), (name, suffix)
        assert not (tmp_path / "alpha1.csv").exists()

    @pytest.mark.parametrize("name", ["", "."])
    @pytest.mark.parametrize("via", ["config", "--out"])
    def test_a_name_without_a_file_exits_3_before_simulating(self, tmp_path, monkeypatch,
                                                             capsys, name, via):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "empirical_entrance", lambda *a, **k: pytest.fail("simulated"))
        cfgp = write(tmp_path, base_config(name if via == "config" else tmp_path / "r"))
        argv = ["--config", str(cfgp)] + (["--out", name] if via == "--out" else [])
        assert main(argv) == 3
        assert "names no file" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


class TestCiLevel:
    def test_wider_level_widens_every_interior_interval(self, tmp_path):
        tables = {}
        for level in (0.95, 0.99):
            name = f"ci{round(level * 100)}"
            cfg = base_config(tmp_path / name)
            cfg["sim"]["x_grid"] = [2.0, 5.0, 25.0, 100.0]
            cfg["sim"]["ci_level"] = level
            cfg["output"]["format"] = "json"
            assert run(write(tmp_path, cfg)) == 0
            tables[level] = json.loads((tmp_path / f"{name}.json").read_text())
        narrow, wide = tables[0.95], tables[0.99]
        assert [r["count"] for r in narrow] == [r["count"] for r in wide]
        interior = [(a, b) for a, b in zip(narrow, wide) if 0 < a["count"] < 4000]
        assert len(interior) >= 3
        for a, b in interior:
            assert b["ci_lo"] < a["ci_lo"] <= a["p_hat"] <= a["ci_hi"] < b["ci_hi"]

    @pytest.mark.parametrize("level", [0, 1, NAN], ids=["0", "1", "nan"])
    def test_level_outside_the_open_unit_interval_exits_3(self, tmp_path, level):
        cfg = base_config(tmp_path / "r")
        cfg["sim"]["ci_level"] = level
        assert run(write(tmp_path, cfg)) == 3
        assert not (tmp_path / "r.csv").exists()


class TestGates:
    def brownian_weibull(self, tmp_path, out):
        cfg = base_config(out)
        cfg["model"]["claim"]["margins"] = [{"type": "heavy_weibull", "shape": 0.5}]
        cfg["model"]["set"] = {"type": "ray", "b": 1.0}
        cfg["model"]["return"] = {"type": "brownian", "mu": 0.1, "sigma": 0.2}
        return cfg

    def test_gate_failure_exit_two_names_hypothesis(self, tmp_path, capsys):
        out = tmp_path / "gate"
        code = run(write(tmp_path, self.brownian_weibull(tmp_path, out)))
        assert code == 2
        err = capsys.readouterr().err
        assert "non-decreasing" in err or "consistent" in err
        report = out.with_suffix(".report.txt").read_text()
        assert "[FAIL]" in report

    def test_unsafe_bypasses_and_watermarks(self, tmp_path):
        out = tmp_path / "unsafe"
        cfg = self.brownian_weibull(tmp_path, out)
        cfgp = write(tmp_path, cfg)
        assert run(cfgp, {"unsafe": True}) == 0
        report = out.with_suffix(".report.txt").read_text()
        assert "hypotheses not verified" in report

    def test_unconverged_rows_are_named(self, tmp_path):
        # heavy-Weibull margins under Brownian returns: the convolution behind the
        # survival table does not converge, and every row of the column says so
        cfg = json.loads((DEMOS / "configs" / "reference_entrance.json").read_text())
        cfg["model"]["claim"]["margins"] = [{"type": "heavy_weibull", "shape": 0.5}] * 2
        cfg["model"]["return"] = {"type": "brownian", "mu": 0.1, "sigma": 0.2}
        cfg["sim"]["n_paths"] = 2000
        out = tmp_path / "weibull"
        with pytest.warns(RuntimeWarning, match="unconverged"):
            assert run(write(tmp_path, cfg), {"unsafe": True, "out": str(out)}) == 0
        lines = out.with_suffix(".report.txt").read_text().splitlines()
        grid = [float(x) for x in cfg["sim"]["x_grid"]]
        assert f"asymptotic column not converged at x = {grid}" in lines

    def test_volatile_infinite_horizon_exits_0(self, tmp_path):
        # phi(1.5) = -0.015 passes the gate, and the column's walk reaches claim
        # levels past the float range: the run ends with named rows, not a traceback
        cfg = json.loads((DEMOS / "configs" / "infinite_horizon_brownian.json").read_text())
        cfg["model"]["return"].update(mu=0.76, sigma=1.0)
        cfg["sim"]["n_paths"] = 2000
        out = tmp_path / "volatile"
        assert run(write(tmp_path, cfg), {"threads": 1, "out": str(out)}) == 0
        lines = out.with_suffix(".report.txt").read_text().splitlines()
        grid = [float(x) for x in cfg["sim"]["x_grid"]]
        assert f"asymptotic column not converged at x = {grid}" in lines

    def test_assumption_report_pass_and_fail(self, tmp_path):
        ok = base_config(tmp_path / "rep_ok", experiment="assumption_report")
        assert run(write(tmp_path, ok, "ok.json")) == 0
        bad = self.brownian_weibull(tmp_path, tmp_path / "rep_bad")
        bad["experiment"] = "assumption_report"
        assert run(write(tmp_path, bad, "bad.json")) == 2


    def test_premium_finiteness_failure_lists_its_check(self, tmp_path, capsys):
        out = tmp_path / "premium"
        cfg = base_config(out, experiment="ruin")
        del cfg["model"]["set"]
        cfg["model"]["return"] = {"type": "deterministic", "rate": 0.0}
        cfg["model"]["ruin"] = {"set": {"type": "any_line_negative"}, "alloc": [0.5, 0.5],
                                "premiums": {"breaks": [0.0], "rates": [[0.5, 0.5]]}}
        cfg["sim"]["horizon"] = "inf"
        assert run(write(tmp_path, cfg)) == 2
        assert "discounted premiums" in capsys.readouterr().err
        lines = out.with_suffix(".report.txt").read_text().splitlines()
        assert "asymptotic mode: NONE AVAILABLE" in lines
        assert ("  [FAIL] discounted premiums: not verifiably finite over an infinite horizon "
                "(the discount moment does not decay)") in lines


class TestOtherExperiments:
    def test_ruin_experiment(self, tmp_path):
        out = tmp_path / "ruin"
        cfg = base_config(out, experiment="ruin")
        del cfg["model"]["set"]
        cfg["model"]["ruin"] = {
            "set": {"type": "any_line_negative"},
            "alloc": [0.5, 0.5],
            "premiums": {"breaks": [0.0], "rates": [[0.5, 0.5]]},
        }
        assert run(write(tmp_path, cfg)) == 0
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0].endswith(",ruin_set")
        assert lines[1].endswith(",or")

    def test_ruin_premiums_with_volatile_returns_exit_3(self, tmp_path, capsys):
        cfg = json.loads((DEMOS / "configs" / "two_line_ruin.json").read_text())
        cfg["model"]["return"] = {"type": "brownian", "mu": 0.1, "sigma": 0.2}
        cfg["sim"]["n_paths"] = 1000
        cfg["output"]["path"] = str(tmp_path / "ruin_bm")
        assert run(write(tmp_path, cfg)) == 3
        assert "constant force of interest" in capsys.readouterr().err

    def test_entrance_time_experiment(self, tmp_path):
        out = tmp_path / "et"
        cfg = base_config(out, experiment="entrance_time")
        cfg["model"]["claim"]["margins"] = [{"type": "pareto", "alpha": 2.0}]
        cfg["model"]["set"] = {"type": "ray", "b": 1.0}
        cfg["sim"] = {"n_paths": 20000, "seed": 3, "horizon": 30.0, "x_grid": []}
        cfg["entrance_time"] = {"x": 4.0, "t_grid": [5.0, 15.0, 30.0]}
        assert run(write(tmp_path, cfg)) == 0
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "t,cdf,count,limit"

    def test_each_experiment_reads_its_own_model_block(self, tmp_path, capsys):
        # with both blocks, entrance runs on model.set, not on the ruin block's mapped set
        ruin = {"set": {"type": "any_line_negative"}, "alloc": [0.5, 0.5]}
        both = base_config(tmp_path / "both")
        both["model"]["ruin"] = ruin
        assert run(write(tmp_path, both, "both.json")) == 0
        assert run(write(tmp_path, base_config(tmp_path / "set"), "set.json")) == 0
        assert (tmp_path / "both.csv").read_text() == (tmp_path / "set.csv").read_text()
        ruin_only = base_config(tmp_path / "ruin_only")
        del ruin_only["model"]["set"]
        ruin_only["model"]["ruin"] = ruin
        assert run(write(tmp_path, ruin_only, "ruin_only.json")) == 3
        assert "model.set" in capsys.readouterr().err
        assert not (tmp_path / "ruin_only.csv").exists()
        # only the declared block is built: a 3-d set over 2-d claims does not stop a ruin run
        ruin_run = dict(ruin_only, experiment="ruin", output={"path": str(tmp_path / "ruin")})
        ruin_run["model"] = dict(ruin_only["model"], set={"type": "max_exceed", "b": [1.0] * 3})
        assert run(write(tmp_path, ruin_run, "ruin_run.json")) == 0
        assert (tmp_path / "ruin.csv").exists()

    def test_registry_is_the_experiment_enum(self):
        assert list(cli._EXPERIMENTS) == CONFIG_SCHEMA["properties"]["experiment"]["enum"]

    def test_entrance_time_needs_block(self, tmp_path):
        cfg = base_config(tmp_path / "et2", experiment="entrance_time")
        assert run(write(tmp_path, cfg)) == 3

    def test_entrance_time_grid_past_horizon_is_a_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "et3", experiment="entrance_time")
        cfg["entrance_time"] = {"x": 5.0, "t_grid": [5.0, 20.0]}
        assert run(write(tmp_path, cfg)) == 3
        assert "beyond the simulation horizon" in capsys.readouterr().err

    def test_big_jump_experiment(self, tmp_path):
        out = tmp_path / "bj"
        cfg = base_config(out, experiment="single_big_jump")
        cfg["model"]["claim"]["margins"] = [{"type": "pareto", "alpha": 1.0}]
        cfg["model"]["set"] = {"type": "ray", "b": 1.0}
        cfg["sim"]["x_grid"] = [10.0, 100.0]
        cfg["big_jump"] = {"weights": [1.0, 1.0]}
        assert run(write(tmp_path, cfg)) == 0
        lines = out.with_suffix(".csv").read_text().splitlines()
        assert lines[0].startswith("x,sum_p,marginal_p_total,ratio")

    def test_entrance_reports_ratio_spread(self, tmp_path):
        out = tmp_path / "conv"
        cfg = base_config(out)
        cfg["sim"]["x_grid"] = [5.0, 10.0, 20.0, 40.0]
        cfg["sim"]["n_paths"] = 20000
        assert run(write(tmp_path, cfg)) == 0
        assert "final-three-point ratio spread" in out.with_suffix(".report.txt").read_text()

    def test_fgm_config(self, tmp_path):
        out = tmp_path / "fgm"
        cfg = base_config(out)
        cfg["model"]["claim"]["dependence"] = {"type": "fgm_chain", "theta": 0.5}
        assert run(write(tmp_path, cfg)) == 0

    def test_infinite_horizon_config(self, tmp_path):
        out = tmp_path / "inf"
        cfg = base_config(out)
        cfg["model"]["claim"]["margins"] = [{"type": "pareto", "alpha": 1.5}]
        cfg["model"]["set"] = {"type": "ray", "b": 1.0}
        cfg["sim"]["horizon"] = "inf"
        cfg["sim"]["x_grid"] = [50.0]
        cfg["sim"]["n_paths"] = 2000
        assert run(write(tmp_path, cfg)) == 0
        assert "truncation horizon" in out.with_suffix(".report.txt").read_text()


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.name)
def test_demo_config_runs(config, tmp_path):
    # every shipped config runs, cut to 2,000 paths on one worker (the
    # assumption report's gates fail by design and exit 2), and its config
    # echo re-runs as it is to a byte-identical table
    cfg = json.loads(config.read_text())
    cfg["sim"]["n_paths"] = 2000
    out = tmp_path / config.stem
    code = run(write(tmp_path, cfg), {"threads": 1, "out": str(out)})
    assert code == (2 if config.name == "assumption_report.json" else 0)
    again = tmp_path / "echo" / config.stem
    assert run(out.with_suffix(".config.json"), {"out": str(again)}) == code
    fmt = cfg["output"].get("format", "csv")
    tables = [base.with_suffix(f".{fmt}") for base in (out, again)]
    assert [t.exists() for t in tables] == [code == 0] * 2
    if code == 0:
        assert tables[0].read_bytes() == tables[1].read_bytes()
        assert "not converged" not in out.with_suffix(".report.txt").read_text()


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.name)
def test_cli_run_resolves_its_gate_once(config, tmp_path, monkeypatch):
    # count the resolutions in every module that binds a resolver: a gated
    # run resolves its mode once, and its report prints that one record
    calls = []
    modules = [ruinflow] + [importlib.import_module(f"ruinflow.{m.name}")
                            for m in pkgutil.iter_modules(ruinflow.__path__)]
    for module in modules:
        for name in ("resolve_finite_mode", "resolve_infinite_mode"):
            if hasattr(module, name):
                resolve = getattr(module, name)
                monkeypatch.setattr(module, name,
                                    lambda *a, _resolve=resolve: calls.append(a) or _resolve(*a))
    cfg = json.loads(config.read_text())
    cfg["sim"]["n_paths"] = 2000
    run(write(tmp_path, cfg), {"threads": 1, "out": str(tmp_path / config.stem)})
    assert len(calls) == (0 if cfg["experiment"] == "single_big_jump" else 1)


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(ruinflow.__path__)))
def test_module_all_names_exist(name):
    module = importlib.import_module(f"ruinflow.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"ruinflow.{name}.__all__ names {missing}, which do not exist"


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.name)
def test_demo_imports_resolve(script):
    # parse, do not run: every name a demo imports from ruinflow must exist
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "ruinflow":
            module = importlib.import_module(node.module)
            missing = [a.name for a in node.names if not hasattr(module, a.name)]
            assert not missing, f"{script.name} imports {missing} from {node.module}"
