"""Command line front end: config parsing, suites, and table output.

A configuration document is JSON with four optional sections::

    {
      "design":   {"n": 80, "block_size": 10, "block_sizes": null,
                   "allocation": [1, 2, 2], "strata_probs": [0.4, 0.6]},
      "outcome":  {"rho": 1.0, "delta": 0.5, "strata_means": [0.0, 1.0],
                   "sigma": 1.0},
      "misclass": {"kind": "ignorable", "gamma_low": 0.02, "gamma_high": 0.02},
      "run":      {"reps": 50000, "rb_draws": 0, "seed": 2014, "alpha": 0.05,
                   "analyze_reported": true}
    }

Missing keys take the defaults above; unknown keys are rejected with the
offending dotted path.  Output (CSV or JSON) embeds a metadata block with
the package version, the seed, and a config echo that parses back to the
same scenarios, so a results file fully identifies its run.  The thread
count describes the environment, not the results: it goes to stderr, and
the results file is the same for any ``--threads``.
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
from .analytic import StrataMixtureSummary, reported_strata_mixture
from .cohort import OutcomeModel
from .errors import ConfigParseError, ConfigurationError
from .harness import (
    DEFAULT_SEED,
    MixtureCase,
    ScenarioConfig,
    ScenarioMetrics,
    paper_suite,
    run_suite,
    workers,
)
from .misclassify import MisclassModel
from .randomizer import AllocationRatio, TrialDesign

_DEFAULTS = {
    "design": {"n": 80, "block_size": 10, "block_sizes": None, "allocation": [1, 2, 2],
               "strata_probs": [0.4, 0.6]},
    "outcome": {"rho": 1.0, "delta": 0.5, "strata_means": [0.0, 1.0], "sigma": 1.0},
    "misclass": {"kind": "ignorable", "gamma_low": 0.02, "gamma_high": 0.02},
    "run": {"reps": 50_000, "rb_draws": 0, "seed": DEFAULT_SEED, "alpha": 0.05,
            "analyze_reported": True},
}

# ScenarioConfig field -> key of the "run" section
_RUN_KEYS = {"n_replications": "reps"}
ROUND_DIGITS = 3
MIXTURE_ROUND_DIGITS = 2


@dataclass(frozen=True)
class RunSpec:
    """Everything one invocation will execute."""

    suite: str
    scenarios: list
    mixtures: list
    out: Path | None
    fmt: str
    threads: int
    strict: bool
    seed: int


def _section(doc: dict, name: str) -> dict:
    raw = doc.get(name, {})
    if not isinstance(raw, dict):
        raise ConfigParseError(f"{name}: expected an object, got {type(raw).__name__}")
    defaults = _DEFAULTS[name]
    unknown = set(raw) - set(defaults)
    if unknown:
        raise ConfigParseError(f"{name}.{sorted(unknown)[0]}: unknown key")
    merged = {**defaults, **raw}
    return merged


def _expect_number(section: str, key: str, value, integral: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParseError(f"{section}.{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigParseError(f"{section}.{key}: expected a finite number, got {value!r}")
    if integral and int(value) != value:
        raise ConfigParseError(f"{section}.{key}: expected an integer, got {value!r}")
    return value


def _expect_numbers(section: str, key: str, values, integral: bool = False) -> tuple:
    """Check each element of a list as ``section.key[i]``; ints or floats out."""
    cast = int if integral else float
    return tuple(cast(_expect_number(section, f"{key}[{i}]", v, integral))
                 for i, v in enumerate(values))


def parse_config(source) -> list[ScenarioConfig]:
    """Validate one configuration document into scenario configs.

    ``source`` may be a dict, a JSON string, or a path to a JSON file.  A
    string whose text starts with ``{`` or ``[`` is a JSON document; any
    other string, like a ``Path``, names a file.  Raises
    ``ConfigParseError`` naming the offending field on any unknown key,
    wrong type, or inconsistent setting, and the path of a file it
    cannot read.
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith(("{", "["))
    ):
        try:
            source = Path(source).read_text()
        except OSError as exc:
            raise ConfigParseError(
                f"{source}: cannot read config file: {exc.strerror}"
            ) from exc
    if isinstance(source, str):
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"document is not valid JSON: {exc}") from exc
    elif isinstance(source, dict):
        doc = source
    else:
        raise ConfigParseError(f"cannot read a config from {type(source).__name__}")
    if not isinstance(doc, dict):
        raise ConfigParseError("top level: expected an object")
    unknown = set(doc) - set(_DEFAULTS)
    if unknown:
        raise ConfigParseError(f"{sorted(unknown)[0]}: unknown key")

    design_doc = _section(doc, "design")
    outcome_doc = _section(doc, "outcome")
    mis_doc = _section(doc, "misclass")
    run_doc = _section(doc, "run")

    n = int(_expect_number("design", "n", design_doc["n"], integral=True))
    block_size = int(_expect_number("design", "block_size", design_doc["block_size"],
                                    integral=True))
    allocation = design_doc["allocation"]
    if not isinstance(allocation, (list, tuple)) or len(allocation) < 2:
        raise ConfigParseError("design.allocation: expected a list of at least two weights")
    probs = design_doc["strata_probs"]
    if not isinstance(probs, (list, tuple)) or len(probs) != 2:
        raise ConfigParseError("design.strata_probs: expected exactly two probabilities")
    block_sizes = design_doc["block_sizes"]
    if block_sizes is not None:
        if not isinstance(block_sizes, (list, tuple)):
            raise ConfigParseError("design.block_sizes: expected null or a list of sizes")
        block_sizes = _expect_numbers("design", "block_sizes", block_sizes, integral=True)
    means = outcome_doc["strata_means"]
    if not isinstance(means, (list, tuple)) or len(means) != 2:
        raise ConfigParseError("outcome.strata_means: expected exactly two means")
    try:
        design = TrialDesign(
            n_patients=n,
            strata_probs=_expect_numbers("design", "strata_probs", probs),
            allocation=AllocationRatio(
                _expect_numbers("design", "allocation", allocation, integral=True)
            ),
            block_size=block_size,
            block_sizes=block_sizes,
        )
        outcome = OutcomeModel(
            rho=float(_expect_number("outcome", "rho", outcome_doc["rho"])),
            delta=float(_expect_number("outcome", "delta", outcome_doc["delta"])),
            strata_means=_expect_numbers("outcome", "strata_means", means),
            sigma=float(_expect_number("outcome", "sigma", outcome_doc["sigma"])),
        )
        kind = mis_doc["kind"]
        if not isinstance(kind, str):
            raise ConfigParseError(f"misclass.kind: expected a string, got {kind!r}")
        misclass = MisclassModel(
            kind=kind,
            gamma_low=float(_expect_number("misclass", "gamma_low", mis_doc["gamma_low"])),
            gamma_high=float(_expect_number("misclass", "gamma_high", mis_doc["gamma_high"])),
        )
    except ConfigParseError:
        raise
    except ValueError as exc:
        raise ConfigParseError(str(exc)) from exc

    try:
        config = ScenarioConfig(
            design=design,
            outcome=outcome,
            misclass=misclass,
            n_replications=run_doc["reps"],
            rb_draws=run_doc["rb_draws"],
            seed=run_doc["seed"],
            alpha=run_doc["alpha"],
            analyze_reported=run_doc["analyze_reported"],
            label="custom",
        )
    except ConfigurationError as exc:
        # the library names its field; the document names the dotted path
        field, _, rest = str(exc).partition(" ")
        raise ConfigParseError(f"run.{_RUN_KEYS.get(field, field)}: {rest}") from exc
    return [config]


def scenario_to_doc(config: ScenarioConfig) -> dict:
    """Inverse of ``parse_config`` for the metadata echo."""
    design, outcome = config.design, config.outcome
    return {
        "design": {
            "n": design.n_patients,
            "block_size": design.block_size,
            "block_sizes": None if design.block_sizes is None else list(design.block_sizes),
            "allocation": list(design.allocation.weights),
            "strata_probs": list(design.strata_probs),
        },
        "outcome": {
            "rho": outcome.rho,
            "delta": outcome.delta,
            "strata_means": list(outcome.strata_means),
            "sigma": outcome.sigma,
        },
        "misclass": {
            "kind": config.misclass.kind,
            "gamma_low": config.misclass.gamma_low,
            "gamma_high": config.misclass.gamma_high,
        },
        "run": {
            "reps": config.n_replications,
            "rb_draws": config.rb_draws,
            "seed": config.seed,
            "alpha": config.alpha,
            "analyze_reported": config.analyze_reported,
        },
    }


def _rounded(value: float | None, digits: int) -> float | None:
    return None if value is None else round(value, digits)


def metrics_rows(results: list[ScenarioMetrics]) -> list[dict]:
    """Flatten scenario metrics into one row per strata variant."""
    rows = []
    for res in results:
        cfg = res.config
        is_level = cfg.outcome.delta == 0.0
        for variant in (res.corrected, res.reported):
            if variant is None:
                continue
            reject = variant.reject_rate
            rb = variant.rb_reject_rate
            row = {
                "label": cfg.label,
                "model": cfg.misclass.kind,
                "gamma_low": cfg.misclass.gamma_low,
                "gamma_high": cfg.misclass.gamma_high,
                "corr": cfg.outcome.rho,
                "delta": cfg.outcome.delta,
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
                       for v in (res.corrected, res.reported) if v is not None)
    return (f"stratasim: warning: {res.config.label}: {res.n_invalid} of "
            f"{res.config.n_replications} replications invalid{reasons}{variants}")


def mixture_rows(cases: list[MixtureCase],
                 summaries: list[StrataMixtureSummary]) -> list[dict]:
    """One row per (case, reported stratum, arm) with mixture moments."""
    rows = []
    for case, summary in zip(cases, summaries):
        for (reported, arm), cell in sorted(summary.cells.items()):
            row = {
                "label": case.label,
                "model": case.misclass.kind,
                "gamma_low": case.misclass.gamma_low,
                "gamma_high": case.misclass.gamma_high,
                "corr": case.outcome.rho,
                "delta": case.outcome.delta,
                "reported_stratum": reported,
                "arm": arm,
                "stratum_weight": summary.weights[reported],
                "mean": cell.mean,
                "sd": cell.sd,
                "mean_rounded": _rounded(cell.mean, MIXTURE_ROUND_DIGITS),
                "sd_rounded": _rounded(cell.sd, MIXTURE_ROUND_DIGITS),
            }
            rows.append(row)
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
    if args.reps is not None and args.reps < 1:
        parser.error(f"--reps must be >= 1, got {args.reps}")
    if args.rb_draws is not None and args.rb_draws < 0:
        parser.error(f"--rb-draws must be >= 0, got {args.rb_draws}")
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.threads is not None and args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")
    # a flag the selected run would not read is an error, never a silent no-op
    given = {"--reps": args.reps is not None, "--rb-draws": args.rb_draws is not None,
             "--seed": args.seed is not None, "--paper-scale": args.paper_scale,
             "--threads": args.threads is not None, "--strict": args.strict}
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

    scenarios: list = []
    mixtures: list = []
    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.config:
        overrides = {"seed": args.seed, "n_replications": args.reps,
                     "rb_draws": args.rb_draws}
        scenarios = [replace(parse_config(args.config)[0],
                             **{k: v for k, v in overrides.items() if v is not None})]
        seed = scenarios[0].seed
        suite = "custom"
    else:
        suite = args.suite
        table = int(args.suite.removeprefix("table"))
        if table == 3:
            mixtures = paper_suite(3)
        else:
            reps = args.reps
            if reps is None and not args.paper_scale:
                reps = 50_000 if table == 1 else 4000
            rb_draws = 1000 if args.rb_draws is None else args.rb_draws
            scenarios = paper_suite(table, reps=reps, rb_draws=rb_draws, seed=seed)
    return RunSpec(
        suite=suite,
        scenarios=scenarios,
        mixtures=mixtures,
        out=args.out,
        fmt=args.format,
        threads=1 if args.threads is None else args.threads,
        strict=args.strict,
        seed=seed,
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
    if spec.mixtures:
        summaries = [
            reported_strata_mixture(case.misclass, case.outcome, case.strata_probs)
            for case in spec.mixtures
        ]
        rows = mixture_rows(spec.mixtures, summaries)
        meta["cases"] = [case.label for case in spec.mixtures]
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
        spec.out.write_text(text)
    if warnings and spec.strict:
        print(f"{warnings} scenario(s) carried warnings", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
