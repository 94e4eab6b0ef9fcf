"""Config document validation, table emission, argument handling, and the
end-to-end command entry point."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratasim import cli
from stratasim.cli import (
    build_run_spec,
    emit_table,
    main,
    parse_config,
    scenario_to_doc,
)
from stratasim.analytic import reported_strata_mixture
from stratasim.cohort import OutcomeModel
from stratasim.errors import ConfigParseError, ConfigurationError
from stratasim.harness import DEFAULT_SEED, ScenarioConfig, paper_suite, run_scenario
from stratasim.misclassify import KINDS, MisclassModel
from stratasim.randomizer import AllocationRatio, TrialDesign

DEFAULT_DOC = {
    "design": {"n": 80, "block_size": 10, "block_sizes": None, "allocation": [1, 2, 2],
               "strata_probs": [0.4, 0.6]},
    "outcome": {"rho": 1.0, "delta": 0.5, "strata_means": [0.0, 1.0], "sigma": 1.0},
    "misclass": {"kind": "ignorable", "gamma_low": 0.02, "gamma_high": 0.02},
    "run": {"reps": 50_000, "rb_draws": 0, "seed": DEFAULT_SEED, "alpha": 0.05},
}

CUSTOM_DOC = {
    "design": {"n": 40, "block_size": 4, "block_sizes": [2, 4], "allocation": [1, 1],
               "strata_probs": [0.3, 0.7]},
    "outcome": {"rho": 0.5, "delta": 0.0, "strata_means": [0.0, 2.0], "sigma": 2.0},
    "misclass": {"kind": "nonignorable2", "gamma_low": 0.1, "gamma_high": 0.2},
    "run": {"reps": 250, "rb_draws": 20, "seed": 99, "alpha": 0.1},
}


_finite = st.floats(-1e6, 1e6, allow_nan=False)
_unit = st.floats(0.0, 1.0, exclude_max=True)


@st.composite
def scenario_configs(draw):
    """Every config the document format can express: two strata, integer
    weights, block sizes that are multiples of the weight total."""
    weights = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=4)))
    multiples = st.integers(1, 4).map(lambda k: k * sum(weights))
    p = draw(st.floats(0.0, 1.0))
    design = TrialDesign(
        n_patients=draw(st.integers(1, 500)),
        strata_probs=(p, 1.0 - p),
        allocation=AllocationRatio(weights),
        block_size=draw(multiples),
        block_sizes=draw(st.none() | st.lists(multiples, min_size=1, max_size=3).map(tuple)),
    )
    outcome = OutcomeModel(
        rho=draw(st.floats(0.0, 1.0)),
        delta=draw(_finite),
        strata_means=(draw(_finite), draw(_finite)),
        sigma=draw(st.floats(1e-6, 1e6)),
    )
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    # a count too small for a randomization test to reject at alpha is no draws
    rb_draws = draw(st.integers(0, 10**4).map(lambda k: k if (1 + k) * alpha >= 1.0 else 0))
    return ScenarioConfig(
        design=design,
        outcome=outcome,
        misclass=MisclassModel(draw(st.sampled_from(KINDS)), draw(_unit), draw(_unit)),
        n_replications=draw(st.integers(1, 10**6)),
        rb_draws=rb_draws,
        seed=draw(st.integers(0, 2**63)),
        alpha=alpha,
        label=draw(st.text(max_size=8)),
    )


class TestParseConfig:
    def test_empty_document_takes_defaults(self):
        config = parse_config({})
        assert config.design.n_patients == 80
        assert config.design.block_size == 10
        assert config.design.block_sizes is None
        assert config.design.allocation.weights == (1, 2, 2)
        assert config.design.strata_probs == (0.4, 0.6)
        assert config.outcome.rho == 1.0
        assert config.outcome.delta == 0.5
        assert config.outcome.strata_means == (0.0, 1.0)
        assert config.outcome.sigma == 1.0
        assert config.misclass.kind == "ignorable"
        assert config.n_replications == 50_000
        assert config.rb_draws == 0
        assert config.seed == DEFAULT_SEED
        assert config.alpha == 0.05
        assert config.label == "custom"

    def test_overrides_apply(self):
        config = parse_config(CUSTOM_DOC)
        assert config.design.n_patients == 40
        assert config.design.allocation.weights == (1, 1)
        assert config.design.block_sizes == (2, 4)
        assert config.outcome.delta == 0.0
        assert config.outcome.strata_means == (0.0, 2.0)
        assert config.outcome.sigma == 2.0
        assert config.misclass.kind == "nonignorable2"
        assert config.n_replications == 250
        assert config.rb_draws == 20
        assert config.seed == 99
        assert config.alpha == 0.1

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ([1, 2], "top level: expected an object, got list"),
            ("{}", "top level: expected an object, got str"),
            ({"design": {"m": 3}}, "design.m"),
            ({"run": {"analyze_reported": False}}, "run.analyze_reported: unknown key"),
            ({"desing": {}}, "desing"),
            ({"run": {"reps": "many"}}, "run.reps"),
            ({"run": {"reps": 2.5}}, "run.reps"),
            ({"outcome": {"rho": True}}, "outcome.rho"),
            ({"design": 3}, "design"),
            ({"design": {"allocation": [2]}}, "design.allocation"),
            ({"design": {"strata_probs": [1.0]}}, "design.strata_probs"),
            ({"misclass": {"kind": 7}}, "misclass.kind"),
            ({"design": {"block_size": 7}}, "design.block_size:"),
            ({"design": {"block_sizes": [10, 7]}}, "design.block_sizes[1]:"),
            ({"design": {"block_size": 1e15}}, "design.block_size:"),
            ({"design": {"block_sizes": [10, 10**15]}}, "design.block_sizes[1]:"),
            ({"misclass": {"kind": "other"}}, "misclass.kind:"),
            ({"design": {"n": 0}}, "design.n:"),
            ({"outcome": {"sigma": -1}}, "outcome.sigma:"),
            ({"design": {"allocation": [0, 2, 2]}}, "design.allocation"),
            ({"design": {"strata_probs": [0.5, 0.6]}}, "design.strata_probs:"),
            # past 2**40 sigma the kernel's squared residuals lose sigma or overflow
            ({"outcome": {"strata_means": [0, 1e300]}}, "outcome.strata_means[1]: must lie within"),
            ({"outcome": {"delta": 1e-3, "sigma": 1e-100}}, "outcome.delta: must lie within"),
        ],
    )
    def test_bad_fields_name_their_path(self, doc, needle):
        with pytest.raises(ConfigParseError, match="^" + re.escape(needle)):
            parse_config(doc)

    def test_message_led_by_no_field_stays_a_parse_error(self, monkeypatch):
        def reject(**fields):
            raise ConfigurationError("no field leads this message")

        monkeypatch.setattr(cli, "MisclassModel", reject)
        with pytest.raises(ConfigParseError, match="^no field leads this message$"):
            parse_config({})

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ({"run": {"reps": 0}}, "reps"),
            ({"run": {"rb_draws": -1}}, "rb_draws"),
            ({"design": {"block_size": 7}}, "7"),
            ({"misclass": {"gamma_low": 1.5}}, "gamma"),
            ({"misclass": {"kind": "other"}}, "kind"),
            ({"outcome": {"rho": 1.5}}, "rho"),
            ({"design": {"allocation": [1, 2.5, 2]}}, r"design\.allocation\[1\]"),
            ({"design": {"allocation": [1, "2", 2]}}, r"design\.allocation\[1\]"),
            ({"design": {"allocation": [1, "x", 2]}}, r"design\.allocation\[1\]"),
            ({"design": {"strata_probs": ["0.4", 0.6]}}, r"design\.strata_probs\[0\]"),
            ({"design": {"block_sizes": [10, 7.5]}}, r"design\.block_sizes\[1\]"),
            ({"design": {"block_sizes": 10}}, r"design\.block_sizes"),
            ({"outcome": {"strata_means": [0.0]}}, r"outcome\.strata_means"),
            ({"outcome": {"strata_means": [0.0, "1"]}}, r"outcome\.strata_means\[1\]"),
            ({"outcome": {"sigma": 0}}, "sigma"),
            ({"outcome": {"delta": float("nan")}}, r"outcome\.delta"),
            ({"run": {"reps": float("inf")}}, r"run\.reps"),
            ({"run": {"seed": -1}}, r"run\.seed"),
            ({"run": {"alpha": 1.0}}, r"run\.alpha"),
        ],
    )
    def test_invalid_settings_surface_as_parse_errors(self, doc, needle):
        with pytest.raises(ConfigParseError, match=needle):
            parse_config(doc)

    def test_roundtrip_through_doc(self):
        config = parse_config(CUSTOM_DOC)
        assert scenario_to_doc(config) == CUSTOM_DOC
        assert parse_config(scenario_to_doc(config)) == config
        assert scenario_to_doc(parse_config({})) == DEFAULT_DOC

    def test_documented_defaults_are_the_parser_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for text, heading in [(cli.__doc__, "::"), (readme, "## Command line")]:
            start = text.index("{", text.index(heading))
            documented = json.JSONDecoder().raw_decode(text[start:])[0]
            assert documented == scenario_to_doc(parse_config({}))

    @settings(max_examples=200, deadline=None)
    @given(config=scenario_configs())
    def test_every_valid_config_roundtrips(self, config):
        doc = scenario_to_doc(config)
        assert parse_config(doc) == replace(config, label="custom")
        assert parse_config(json.loads(json.dumps(doc))) == replace(config, label="custom")


class TestEmitTable:
    ROWS = [
        {"label": "a", "value": 1.25, "note": None},
        {"label": "b", "value": -0.5, "note": "x"},
    ]
    META = {"tool": "stratasim", "seed": 7}

    def test_output_is_deterministic(self):
        first = emit_table(self.ROWS, self.META, "csv")
        assert first == emit_table(self.ROWS, self.META, "csv")
        assert emit_table(self.ROWS, self.META, "json") == emit_table(
            self.ROWS, self.META, "json"
        )

    def test_csv_meta_block_parses_back(self):
        text = emit_table(self.ROWS, self.META, "csv")
        meta_lines = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
        assert json.loads("\n".join(meta_lines)) == self.META
        body = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        parsed = list(csv.DictReader(body))
        assert [row["label"] for row in parsed] == ["a", "b"]
        assert float(parsed[0]["value"]) == 1.25

    def test_json_document_shape(self):
        doc = json.loads(emit_table(self.ROWS, self.META, "json"))
        assert doc["meta"] == self.META
        assert doc["rows"][1]["value"] == -0.5

    def test_empty_rows_keep_meta(self):
        text = emit_table([], self.META, "csv")
        assert text.startswith("# {")
        assert "label" not in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigParseError, match="format"):
            emit_table(self.ROWS, self.META, "yaml")


class TestBuildRunSpec:
    def test_suite_defaults_run_at_desk_scale(self):
        spec = build_run_spec(["--suite", "table1"])
        assert spec.suite == "table1"
        assert len(spec.scenarios) == 12
        assert all(c.n_replications == 50_000 for c in spec.scenarios)
        spec2 = build_run_spec(["--suite", "table2"])
        assert len(spec2.scenarios) == 24
        assert all(c.n_replications == 4000 for c in spec2.scenarios)
        assert all(c.rb_draws == 1000 for c in spec2.scenarios)

    def test_paper_scale_restores_published_counts(self):
        spec = build_run_spec(["--suite", "table1", "--paper-scale"])
        assert all(c.n_replications == 400_000 for c in spec.scenarios)

    def test_explicit_overrides(self):
        spec = build_run_spec(
            ["--suite", "table2", "--reps", "123", "--rb-draws", "45", "--seed", "6"]
        )
        assert all(c.n_replications == 123 for c in spec.scenarios)
        assert all(c.rb_draws == 45 for c in spec.scenarios)
        assert all(c.seed == 6 for c in spec.scenarios)
        assert spec.seed == 6

    def test_mixture_suite(self):
        spec = build_run_spec(["--suite", "table3", "--format", "json"])
        assert spec.fmt == "json"
        assert all(isinstance(c, ScenarioConfig) for c in spec.scenarios)
        # table 1's high-rate scenarios, relabelled
        high = [c for c in paper_suite(1) if (c.misclass.gamma_low, c.misclass.gamma_high)
                == (0.15, 0.30)]
        assert [(c.design, c.misclass, c.outcome) for c in spec.scenarios] == [
            (c.design, c.misclass, c.outcome) for c in high]
        assert [c.label for c in spec.scenarios] == [
            f"{kind} rho{rho}" for kind in KINDS for rho in ("1", "0.5")]
        assert spec.seed == DEFAULT_SEED

    def test_config_mode(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(CUSTOM_DOC))
        spec = build_run_spec(["--config", str(path), "--reps", "40", "--seed", "5"])
        assert spec.suite == "custom"
        assert spec.scenarios[0].n_replications == 40
        assert spec.scenarios[0].seed == 5
        assert spec.seed == 5

    def test_rb_draws_applies_to_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(CUSTOM_DOC))
        assert build_run_spec(["--config", str(path)]).scenarios[0].rb_draws == 20
        spec = build_run_spec(["--config", str(path), "--rb-draws", "25"])
        assert spec.scenarios[0].rb_draws == 25
        assert spec.scenarios[0].n_replications == 250
        path.write_text("{}")
        spec = build_run_spec(["--config", str(path), "--rb-draws", "25"])
        assert spec.scenarios[0].rb_draws == 25

    @pytest.mark.parametrize("flags", [["--reps", "0"], ["--rb-draws", "-1"], ["--seed", "-3"],
                                       ["--threads", "0"]])
    def test_out_of_range_overrides_rejected(self, tmp_path, capsys, flags):
        # the constructors reject the value; the message names it by its flag
        bound = {"--reps": 1, "--rb-draws": 0, "--seed": 0, "--threads": 1}[flags[0]]
        line = rf"^stratasim: error: {flags[0]}: must be >= {bound}, got {flags[1]}$"
        path = tmp_path / "run.json"
        path.write_text("{}")
        for mode in (["--config", str(path)], ["--suite", "table2"]):
            with pytest.raises(SystemExit) as exit_info:
                build_run_spec(mode + flags)
            assert exit_info.value.code == 2
            assert re.search(line, capsys.readouterr().err, re.MULTILINE)

    def test_draws_past_the_memory_bound_rejected(self, capsys):
        # rejected when the scenarios are built: nothing runs
        with pytest.raises(SystemExit) as exit_info:
            build_run_spec(["--suite", "table2", "--rb-draws", "10000000"])
        assert exit_info.value.code == 2
        line = r"^stratasim: error: --rb-draws: must keep one replication within \d+ cells, got 10000000 "
        assert re.search(line, capsys.readouterr().err, re.MULTILINE)

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--suite", "table3", "--reps", "10"], "--reps"),
            (["--suite", "table3", "--rb-draws", "10"], "--rb-draws"),
            (["--suite", "table3", "--paper-scale"], "--paper-scale"),
            (["--suite", "table3", "--seed", "3"], "--seed"),
            (["--suite", "table1", "--rb-draws", "10"], "--rb-draws"),
            (["--config", "{}", "--paper-scale"], "--paper-scale"),
            (["--suite", "table2", "--reps", "10", "--paper-scale"], "--paper-scale"),
            (["--suite", "table3", "--threads", "0"], "--threads"),
            (["--suite", "table3", "--threads", "2"], "--threads"),
            (["--suite", "table3", "--strict"], "--strict"),
            (["--suite", "table2", "--threads", "-4"], "--threads"),
            (["--suite", "table2", "--seed", "-3"], "--seed"),
        ],
    )
    def test_ignored_or_invalid_flags_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit):
            build_run_spec(argv)
        assert flag in capsys.readouterr().err

    def test_exactly_one_input_mode(self, tmp_path):
        with pytest.raises(SystemExit):
            build_run_spec([])
        path = tmp_path / "run.json"
        path.write_text("{}")
        with pytest.raises(SystemExit):
            build_run_spec(["--suite", "table1", "--config", str(path)])


class TestMain:
    def _write_config(self, tmp_path, reps=400, **overrides):
        doc = {"run": {"reps": reps, "rb_draws": 0, "seed": 11}, **overrides}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return path

    def test_custom_run_writes_parseable_json(self, tmp_path):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "res.json"
        code = main(["--config", str(cfg), "--format", "json", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["suite"] == "custom"
        assert doc["meta"]["seed"] == 11
        echoed = parse_config(doc["meta"]["scenarios"][0])
        assert echoed == parse_config(json.loads(cfg.read_text()))
        assert [row["strata"] for row in doc["rows"]] == ["corrected", "reported"]
        row = doc["rows"][0]
        assert abs(row["bias"]) < 0.1
        assert 0.8 < row["coverage"] <= 1.0
        assert row["level"] is None and row["power"] is not None
        assert row["rb_power"] is None  # rb_draws = 0 in the config

    def test_undefined_metrics_are_json_null(self, tmp_path):
        # one replication leaves the SD-based metrics undefined
        cfg = self._write_config(tmp_path, reps=1)
        out = tmp_path / "res.json"
        assert main(["--config", str(cfg), "--format", "json", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        doc = json.loads(out.read_text(), parse_constant=reject)
        assert [row["mc_se_bias"] for row in doc["rows"]] == [None, None]
        assert doc["rows"][0]["reps"] == 1

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._write_config(tmp_path, reps=150)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["--config", str(cfg), "--out", str(first)]) == 0
        assert main(["--config", str(cfg), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_results_file_does_not_depend_on_thread_count(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, reps=40)
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(["--config", str(cfg), "--threads", "1", "--out", str(one)]) == 0
        assert main(["--config", str(cfg), "--threads", "2", "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()
        assert b"threads" not in one.read_bytes()
        assert "threads=2" in capsys.readouterr().err

    def test_stderr_gives_the_capped_worker_count(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("stratasim.harness.os.cpu_count", lambda: 2)
        cfg = self._write_config(tmp_path, reps=10)
        out = tmp_path / "x.csv"
        assert main(["--config", str(cfg), "--threads", "8", "--out", str(out)]) == 0
        assert "stratasim: threads=8 workers=2\n" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["missing/x.csv", "."])
    def test_unwritable_out_fails_before_any_replication(self, tmp_path, capsys,
                                                        monkeypatch, target):
        cfg = self._write_config(tmp_path)
        ran = []
        monkeypatch.setattr("stratasim.cli.run_suite",
                            lambda *args, **kw: ran.append(args))
        assert main(["--config", str(cfg), "--out", str(tmp_path / target)]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err
        assert ran == []

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_failed_out_write_exits_2_named_by_its_flag(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, reps=3)
        assert main(["--config", str(cfg), "--out", "/dev/full"]) == 2
        err = capsys.readouterr().err
        assert "\nstratasim: --out: cannot write /dev/full: " in err
        assert "Traceback" not in err

    def test_mixture_suite_prints_analytic_cells(self, capsys):
        assert main(["--suite", "table3"]) == 0
        text = capsys.readouterr().out
        body = [ln for ln in text.splitlines() if not ln.startswith("# ")]
        rows = list(csv.DictReader(body))
        assert len(rows) == 24  # 6 cases x 2 strata x 2 arms
        by_key = {
            (r["label"], r["reported_stratum"], r["arm"]): r for r in rows
        }
        picked = by_key[("ignorable rho1", "0", "0")]
        summary = reported_strata_mixture(
            parse_config({"misclass": {"gamma_low": 0.15, "gamma_high": 0.30}}).misclass,
            parse_config({}).outcome,
        )
        cell = summary.cell(0, 0)
        assert float(picked["mean"]) == pytest.approx(cell.mean, abs=1e-12)
        assert float(picked["sd"]) == pytest.approx(cell.sd, abs=1e-12)
        assert float(picked["mean_rounded"]) == round(cell.mean, 2)
        assert float(by_key[("nonignorable1 rho1", "1", "1")]["mean_rounded"]) == 2.0

    @pytest.mark.parametrize("fmt,digest", [
        ("csv", "1fca88c04e325f18612f48effda820b9ba6baac36094c00ea4696717ae7ea0bf"),
        ("json", "8ad4d710a5e562ea1e74e749d2519999eafcf1234f1820d9a9dd1d7aeecec92e"),
    ])
    def test_mixture_suite_output_is_pinned(self, capsys, fmt, digest):
        # every byte of the analytic table: a refactor of the mixture
        # arithmetic must not move one bit
        assert main(["--suite", "table3", "--format", fmt]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv,digest", [
        (["--suite", "table1", "--reps", "300"],
         "f30cb8f644481a264d47c94e03a1fc452b97bc7ddf246c6b4810f113de86ef2e"),
        (["--suite", "table2", "--reps", "4", "--rb-draws", "50"],
         "4e03b87561afe4a8ec838c41a4bdc68c1eb7bbc0b8175c4df66fea5a9968a992"),
        (["--suite", "table2", "--reps", "4", "--rb-draws", "50", "--threads", "2"],
         "4e03b87561afe4a8ec838c41a4bdc68c1eb7bbc0b8175c4df66fea5a9968a992"),
    ])
    def test_simulation_suite_output_is_pinned(self, capsys, argv, digest):
        # every byte of the results, the level and power columns included:
        # a change to how a test decides must not move one
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_bad_config_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"design": {"blocks": 9}}')
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "stratasim: --config: design.blocks: unknown key\n"

    @pytest.mark.parametrize("content,message", [
        (None, "cannot read {path}: "),
        ("directory", "cannot read {path}: "),
        (b'\xff\xfe{"run": {}}', "{path} is not valid JSON: 'utf-8' codec can't decode"),
        (b"{not json", "{path} is not valid JSON: Expecting property name"),
        (b"[" * 100_000, "{path} is not valid JSON: "),
        (b"[1, 2]", "top level: expected an object, got list"),
        (b'{"outcome": {"delta": NaN}}', "outcome.delta: must be finite, got nan"),
        (b'{"run": {"reps": 10, "reps": 20}}', "duplicate key 'reps'"),
        (b'{"outcome": {"delta": 1' + b"0" * 400 + b"}}",
         "outcome.delta: must be finite, got an integer too large for a float\n"),
        (b'{"outcome": {"sigma": 1e200}}',
         "outcome.sigma: must lie in [3.87259e-121, 2.58225e+120], got 1e+200\n"),
    ], ids=["missing", "directory", "not-utf8", "malformed", "too-deep", "array", "nan",
            "duplicate-key", "past-float", "sigma-past-squares"])
    def test_unusable_config_file_exits_2_named_by_its_flag(self, tmp_path, capsys,
                                                            monkeypatch, content, message):
        path = tmp_path / "run.json"
        if content == "directory":
            path.mkdir()
        elif content is not None:
            path.write_bytes(content)
        ran = []
        monkeypatch.setattr("stratasim.cli.run_suite", lambda *args, **kw: ran.append(args))
        assert main(["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"stratasim: --config: {message.format(path=path)}")
        assert "Traceback" not in err and ran == []

    def test_strict_mode_fails_on_warnings(self, tmp_path, capsys):
        doc = {
            "design": {"n": 4, "block_size": 3, "allocation": [1, 1, 1]},
            "run": {"reps": 60, "rb_draws": 0, "seed": 7},
        }
        path = tmp_path / "frail.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out", str(tmp_path / "x.csv")]) == 0
        code = main(["--config", str(path), "--strict", "--out", str(tmp_path / "y.csv")])
        assert code == 1
        assert "warning" in capsys.readouterr().err

    def test_warning_line_gives_flags_and_discards(self, tmp_path, capsys):
        # every replication is valid, but single-draw randomization tests,
        # which can reject at alpha 0.5, degenerate where their one null
        # draw empties an arm
        doc = {"design": {"n": 5, "block_size": 3, "allocation": [1, 1, 1]},
               "run": {"reps": 300, "rb_draws": 1, "seed": 5, "alpha": 0.5}}
        path = tmp_path / "flagged.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--strict", "--out", str(tmp_path / "x.csv")]) == 1
        metrics = run_scenario(parse_config(doc))
        assert metrics.n_invalid == 0 and metrics.corrected.rb_flagged > 0
        line = ("stratasim: warning: custom: 0 of 300 replications invalid; "
                f"corrected rb_flagged={metrics.corrected.rb_flagged} "
                f"rb_discarded={metrics.corrected.rb_discarded}; "
                f"reported rb_flagged={metrics.reported.rb_flagged} "
                f"rb_discarded={metrics.reported.rb_discarded}")
        assert line in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("design,all_invalid", [
        # an empty true stratum
        ({"strata_probs": [0.0, 1.0]}, False),
        # N below the number of parameters
        ({"n": 2, "block_size": 5, "allocation": [1, 2, 2]}, True),
        # no residual degrees of freedom
        ({"n": 3, "block_size": 3, "allocation": [1, 1, 1]}, True),
    ])
    def test_degenerate_designs_as_inputs(self, tmp_path, capsys, design, all_invalid):
        doc = {"design": design, "run": {"reps": 30, "rb_draws": 19, "seed": 3}}
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(doc))
        strict, plain = tmp_path / "strict.csv", tmp_path / "plain.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(path), "--strict", "--out", str(strict)])
            assert main(["--config", str(path), "--out", str(plain)]) == 0
        assert code == (1 if all_invalid else 0)
        assert strict.read_bytes() == plain.read_bytes()
        body = [ln for ln in plain.read_text().splitlines() if not ln.startswith("# ")]
        assert {row["reps"] for row in csv.DictReader(body)} == ({"0"} if all_invalid else {"30"})
        err = capsys.readouterr().err
        reasons = run_scenario(parse_config(doc)).invalid_reasons
        if all_invalid:
            assert sum(count for _, count in reasons) == 30
            assert "30 of 30 replications invalid" in err
            assert all(f"; {reason}: {count}" in err for reason, count in reasons)
        else:
            assert reasons == () and "warning" not in err
