"""Command line front end: config parsing, suites, and table output.

A configuration document is JSON with four optional sections::

    {
      "design":   {"n": 80, "block_size": 10, "block_sizes": null,
                   "allocation": [1, 2, 2], "strata_probs": [0.4, 0.6]},
      "outcome":  {"rho": 1.0, "delta": 0.5, "strata_means": [0.0, 1.0],
                   "sigma": 1.0},
      "misclass": {"kind": "ignorable", "gamma_low": 0.02, "gamma_high": 0.02},
      "run":      {"reps": 50000, "rb_draws": 0, "seed": 2014, "alpha": 0.05}
    }

Missing keys take the defaults above.  ``parse_config`` validates one
decoded document into one ``ScenarioConfig``: the library constructors
check every value, and an unknown key and every rejected value, not only
a wrong type, fail with the key's dotted path, list elements by index
(``design.allocation[1]``).  A scenario needs exactly two strata and one
mean per stratum.  Only ``build_run_spec`` reads the ``--config`` file,
as UTF-8 JSON, and any fault in it exits 2 led by the flag
(``--config: design.n: must be >= 1, got 0``).  A suite starts from
``paper_suite`` (table1 at ``DESK_REPS`` replications unless
``--paper-scale``), a config run from its document; the given flags
replace their fields.  The constructors, and ``harness.workers`` for
``--threads``, check every flag value too, and a rejected one exits 2 as
``--reps: must be >= 1, got 0``.  Table 3 runs nothing: it reads table 1's
high-rate scenarios through ``analytic.reported_strata_mixture``.  Output
(CSV or JSON) embeds a metadata block with the package version, the seed,
and a config echo that parses back to the same scenarios (table 3's
labels), so a results file fully identifies its run.
The thread count describes the environment, not the results: it goes to
stderr, and the results file is the same for any ``--threads``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from . import __version__
from .analytic import reported_strata_mixture
from .cohort import OutcomeModel
from .errors import ConfigParseError, ConfigurationError
from .harness import (
    PAPER_RATES,
    ScenarioConfig,
    ScenarioMetrics,
    paper_suite,
    run_suite,
    workers,
)
from .misclassify import MisclassModel
from .randomizer import AllocationRatio, TrialDesign, paper_design

# replications per scenario of a config run and of ``--suite table1``
# without ``--paper-scale``
DESK_REPS = 50_000

# document key -> library field, by section: the one key layout the CLI
# reads and writes; two keys are renamed
_FIELDS = {section: {key: {"n": "n_patients", "reps": "n_replications"}.get(key, key)
                     for key in keys}
           for section, keys in {
               "design": ("n", "block_size", "block_sizes", "allocation", "strata_probs"),
               "outcome": ("rho", "delta", "strata_means", "sigma"),
               "misclass": ("kind", "gamma_low", "gamma_high"),
               "run": ("reps", "rb_draws", "seed", "alpha")}.items()}
# library field -> dotted path of its document key
_PATHS = {field: f"{section}.{key}"
          for section, keys in _FIELDS.items() for key, field in keys.items()}
# library field -> the flag that sets it
_FLAGS = {"n_replications": "--reps", "rb_draws": "--rb-draws", "seed": "--seed",
          "threads": "--threads"}
ROUND_DIGITS = 3
MIXTURE_ROUND_DIGITS = 2


@dataclass(frozen=True)
class RunSpec:
    """Everything one invocation will execute."""

    suite: str
    scenarios: list[ScenarioConfig]
    out: Path | None
    fmt: str
    threads: int
    strict: bool

    @property
    def seed(self) -> int:
        """The scenarios' seed."""
        return self.scenarios[0].seed


def _section(doc: dict, name: str) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{name}: expected an object, got {type(raw).__name__}")
    defaults = _DEFAULTS[name]
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigParseError(f"{name}.{sorted(unknown)[0]}: unknown key")
    return {**defaults, **raw}


def parse_config(doc: dict) -> ScenarioConfig:
    """Validate one decoded configuration document into a scenario config.

    Raises ``ConfigParseError`` naming the dotted path of any unknown key
    or any value the library constructors reject.
    """
    if not isinstance(doc, dict):
        raise ConfigParseError(f"top level: expected an object, got {type(doc).__name__}")
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ConfigParseError(f"{sorted(unknown)[0]}: unknown key")

    fields = {name: {_FIELDS[name][key]: value for key, value in _section(doc, name).items()}
              for name in _DEFAULTS}
    try:
        config = ScenarioConfig(
            design=TrialDesign(**fields["design"]),
            outcome=OutcomeModel(**fields["outcome"]),
            misclass=MisclassModel(**fields["misclass"]),
            label="custom",
            **fields["run"],
        )
    except ConfigurationError as exc:
        raise ConfigParseError(_renamed(exc, _PATHS) or str(exc)) from exc
    return config


def _renamed(exc: ConfigurationError, names: dict) -> str | None:
    """``exc``'s message as ``name: rest``, its leading field (``field`` or
    ``field[i]``) renamed through ``names``; None if no such field leads."""
    field, _, rest = str(exc).partition(" ")
    name, bracket, index = field.partition("[")
    if name not in names:
        return None
    return f"{names[name]}{bracket}{index}: {rest}"


def scenario_to_doc(config: ScenarioConfig) -> dict:
    """Inverse of ``parse_config`` for the metadata echo."""
    sources = {"design": config.design, "outcome": config.outcome,
               "misclass": config.misclass, "run": config}
    return {section: {key: _doc_value(getattr(sources[section], field))
                      for key, field in keys.items()}
            for section, keys in _FIELDS.items()}


def _doc_value(value):
    """A library field as the document writes it: a list for a tuple, the
    weights for an allocation."""
    if isinstance(value, AllocationRatio):
        value = value.weights
    return list(value) if isinstance(value, tuple) else value


# a missing key's value: the paper design's low-rate ignorable scenario
_DEFAULTS = scenario_to_doc(ScenarioConfig(
    paper_design(), OutcomeModel(), MisclassModel("ignorable", *PAPER_RATES[0]), DESK_REPS))


def _rounded(value: float | None, digits: int) -> float | None:
    return None if value is None else round(value, digits)


def _scenario_columns(config: ScenarioConfig) -> dict:
    """The leading columns of every row: what names the scenario."""
    model, outcome = config.misclass, config.outcome
    return {"label": config.label, "model": model.kind, "gamma_low": model.gamma_low,
            "gamma_high": model.gamma_high, "corr": outcome.rho, "delta": outcome.delta}


def metrics_rows(results: list[ScenarioMetrics]) -> list[dict]:
    """Flatten scenario metrics into one row per strata variant."""
    rows = []
    for res in results:
        is_level = res.config.outcome.delta == 0.0
        for variant in (res.corrected, res.reported):
            reject = variant.reject_rate
            rb = variant.rb_reject_rate
            row = {
                **_scenario_columns(res.config),
                "strata": variant.strata_used,
                "reps": res.n_valid,
                "bias": variant.bias,
                "coverage": variant.coverage,
                "mean_se": variant.mean_se,
                "level": reject if is_level else None,
                "power": None if is_level else reject,
                "rb_level": rb if is_level else None,
                "rb_power": None if is_level else rb,
                "mc_se_bias": variant.mc_se_bias,
                "mc_se_coverage": variant.mc_se_coverage,
                "mc_se_reject": variant.mc_se_reject,
                "mc_se_rb_reject": variant.mc_se_rb_reject,
                "invalid": res.n_invalid,
                "rb_flagged": variant.rb_flagged,
                "warning": res.warning,
            }
            for key in ("bias", "coverage", "mean_se", "level", "power",
                        "rb_level", "rb_power"):
                row[f"{key}_rounded"] = _rounded(row[key], ROUND_DIGITS)
            rows.append(row)
    return rows


def _warning_line(res: ScenarioMetrics) -> str:
    """What went wrong in a scenario: its invalid replications by reason
    and each variant's flagged and discarded randomization tests."""
    reasons = "".join(f"; {reason}: {count}" for reason, count in res.invalid_reasons)
    variants = "".join(f"; {v.strata_used} rb_flagged={v.rb_flagged} rb_discarded={v.rb_discarded}"
                       for v in (res.corrected, res.reported))
    return (f"stratasim: warning: {res.config.label}: {res.n_invalid} of "
            f"{res.config.n_replications} replications invalid{reasons}{variants}")


def mixture_rows(configs: list[ScenarioConfig]) -> list[dict]:
    """One row per (scenario, reported stratum, arm) with the closed-form
    mixture moments of ``reported_strata_mixture``; nothing is simulated."""
    rows = []
    for config in configs:
        summary = reported_strata_mixture(config.misclass, config.outcome, config.design)
        for (reported, arm), cell in sorted(summary.cells.items()):
            rows.append({
                **_scenario_columns(config),
                "reported_stratum": reported,
                "arm": arm,
                "stratum_weight": summary.weights[reported],
                "mean": cell.mean,
                "sd": cell.sd,
                "mean_rounded": _rounded(cell.mean, MIXTURE_ROUND_DIGITS),
                "sd_rounded": _rounded(cell.sd, MIXTURE_ROUND_DIGITS),
            })
    return rows


def emit_table(rows: list[dict], meta: dict, fmt: str = "csv") -> str:
    """Render rows plus a metadata block as CSV (commented header) or JSON.

    JSON has no NaN or infinity, so an undefined metric is written as null.
    """
    if fmt == "json":
        rows = [{key: None if isinstance(value, float) and not math.isfinite(value) else value
                 for key, value in row.items()} for row in rows]
        return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    if fmt != "csv":
        raise ConfigParseError(f"format must be csv or json, got {fmt!r}")
    buf = io.StringIO()
    for line in json.dumps(meta, sort_keys=True, indent=2).splitlines():
        buf.write(f"# {line}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object, rejecting a repeated key that ``json`` would
    silently read as its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ConfigParseError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def build_run_spec(argv: list[str] | None = None) -> RunSpec:
    parser = argparse.ArgumentParser(
        prog="stratasim",
        description="Simulate stratified block-randomized trials with "
                    "misclassified strata.",
    )
    parser.add_argument("--suite", choices=["table1", "table2", "table3"],
                        help="run a predefined scenario grid")
    parser.add_argument("--config", type=Path, help="JSON scenario document")
    parser.add_argument("--reps", type=int, help="override replication count")
    parser.add_argument("--rb-draws", type=int,
                        help="randomization-test draws for table2/custom runs "
                             "(table2 default 1000)")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--threads", type=int,
                        help="worker processes for replications (default 1)")
    parser.add_argument("--paper-scale", action="store_true",
                        help="use the published replication counts")
    parser.add_argument("--out", type=Path, help="output file (default stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero if any scenario carries a warning")
    args = parser.parse_args(argv)

    if bool(args.suite) == bool(args.config):
        parser.error("exactly one of --suite or --config is required")
    values = {field: getattr(args, flag[2:].replace("-", "_")) for field, flag in _FLAGS.items()}
    # a flag the selected run would not read is an error, never a silent no-op
    given = {flag: values[field] is not None for field, flag in _FLAGS.items()}
    given.update({"--paper-scale": args.paper_scale, "--strict": args.strict})
    unread = {"table1": ("--rb-draws",), "table2": (),
              "table3": ("--reps", "--rb-draws", "--seed", "--paper-scale", "--threads",
                         "--strict"),
              None: ("--paper-scale",)}
    mode = f"--suite {args.suite}" if args.suite else "--config"
    for flag in unread[args.suite]:
        if given[flag]:
            parser.error(f"{flag} has no effect with {mode}")
    if args.paper_scale and args.reps is not None:
        parser.error("--reps and --paper-scale both set the replication count; pass one")
    # fail before the run, not after hours of replications
    if args.out is not None and not args.out.parent.is_dir():
        raise ConfigParseError(f"--out: directory {args.out.parent} does not exist")
    if args.out is not None and args.out.is_dir():
        raise ConfigParseError(f"--out: {args.out} is a directory")

    if args.config:
        try:
            doc = json.loads(args.config.read_text("utf-8"), object_pairs_hook=_unique_keys)
            suite, base = "custom", [parse_config(doc)]
        except OSError as exc:
            raise ConfigParseError(f"--config: cannot read {args.config}: {exc.strerror}") from exc
        except ConfigParseError as exc:
            raise ConfigParseError(f"--config: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise ConfigParseError(f"--config: {args.config} is not valid JSON: {exc}") from exc
    elif args.suite == "table3":  # table 1's high-rate scenarios, by kind and correlation
        suite, base = args.suite, [
            replace(c, label=f"{c.misclass.kind} rho{c.outcome.rho:g}") for c in paper_suite(1)
            if (c.misclass.gamma_low, c.misclass.gamma_high) == PAPER_RATES[1]]
    else:
        suite, base = args.suite, paper_suite(int(args.suite.removeprefix("table")))
    overrides = {field: value for field, value in values.items() if value is not None}
    threads = overrides.pop("threads", 1)
    if suite == "table1" and not args.paper_scale:
        overrides.setdefault("n_replications", DESK_REPS)
    # the constructors and ``workers`` check every value; a flag names it
    try:
        workers(threads)
        runs = [replace(case, **overrides) for case in base]
    except ConfigurationError as exc:
        parser.error(_renamed(exc, _FLAGS))
    return RunSpec(
        suite=suite,
        scenarios=runs,
        out=args.out,
        fmt=args.format,
        threads=threads,
        strict=args.strict,
    )


def main(argv: list[str] | None = None) -> int:
    try:
        spec = build_run_spec(argv)
    except ConfigParseError as exc:
        print(f"stratasim: {exc}", file=sys.stderr)
        return 2
    meta = {
        "tool": "stratasim",
        "version": __version__,
        "suite": spec.suite,
        "seed": spec.seed,
    }
    warnings = 0
    if spec.suite == "table3":
        rows = mixture_rows(spec.scenarios)
        meta["cases"] = [cfg.label for cfg in spec.scenarios]
    else:
        print(f"stratasim: threads={spec.threads} workers={workers(spec.threads)}",
              file=sys.stderr)
        results = run_suite(spec.scenarios, spec.threads)
        warnings = sum(res.warning for res in results)
        for res in results:
            if res.warning:
                print(_warning_line(res), file=sys.stderr)
        rows = metrics_rows(results)
        meta["scenarios"] = [scenario_to_doc(cfg) for cfg in spec.scenarios]
    text = emit_table(rows, meta, spec.fmt)
    if spec.out is None:
        sys.stdout.write(text)
    else:
        try:
            spec.out.write_text(text)
        except OSError as exc:
            print(f"stratasim: --out: cannot write {spec.out}: {exc.strerror}", file=sys.stderr)
            return 2
    if warnings and spec.strict:
        print(f"{warnings} scenario(s) carried warnings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
