"""Run configuration: one JSON file drives the whole pipeline.

The file holds nested sections — input, filter, redundancy rules, the
ordered stage list, model settings, output directory.  Everything is
validated up front: unknown keys anywhere are rejected (they are almost
always typos), stage names must be known, and the stage order must be
type-correct (stages that operate on dated observations come before
``annual_mean``, stages that operate on annual tables after it).

All relative paths are resolved against the directory containing the
config file, so a config travels with its data.
"""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, OutOfRange, RuleInapplicable
from .ica import IcaConfig
from .ingest import FilterSpec
from .preprocess import RedundancyRule

# Stages that act on the dated observation table, the aggregation pivot,
# and stages that act on the annual table.
_TIME_STAGES = ("filter", "drop_incomplete_rows")
_PIVOT_STAGE = "annual_mean"
_ANNUAL_STAGES = ("drop_na_columns", "drop_redundant", "difference")
STAGES = _TIME_STAGES + (_PIVOT_STAGE,) + _ANNUAL_STAGES


class RemoteSpec(NamedTuple):
    """Where to fetch a station record and how to cache it."""

    site: str
    codes: tuple
    start: str
    end: str
    url_template: str
    cache_dir: Path
    medium_code: str | None


@dataclass(frozen=True)
class RunConfig:
    """Validated, path-resolved run settings.

    ``ica_components`` of None means "decide from the data" (the
    eigenvalue-above-one count of a scaled PCA).  ``ica`` holds the
    validated FastICA settings; the run replaces its ``n_components`` with
    the resolved count and its ``seed`` with any ``--seed`` override.
    ``acf_max_lag`` is clamped at run time to the series length minus two.
    """

    base_dir: Path
    config_sha256: str
    input_path: Path | None
    remote: RemoteSpec | None
    filter_spec: FilterSpec | None
    redundancy_rules: tuple
    pipeline: tuple
    difference_lag: int
    pca_center: bool
    pca_scale: bool
    ica_components: int | None
    ica: IcaConfig
    fa_k_max: int
    fa_alpha: float
    acf_max_lag: int
    mi_bins: int
    output_dir: Path


def _reject_unknown(section: dict, allowed, where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {where}")


def _require(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return section[key]


def _as_bool(value, where: str) -> bool:
    if type(value) is not bool:
        raise ConfigError(f"{where} must be true or false, got {value!r}")
    return value


def _as_int(value, where: str, minimum: int | None = None) -> int:
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {value}")
    return value


def _as_float(value, where: str) -> float:
    if type(value) is bool or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return float(value)


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _as_date(value, where: str) -> datetime.date:
    try:
        return datetime.date.fromisoformat(_as_str(value, where))
    except ValueError:
        raise ConfigError(f"{where} must be an ISO date, got {value!r}") from None


def _parse_input(section, base: Path):
    if not isinstance(section, dict):
        raise ConfigError("'input' must be an object")
    if "path" in section:
        _reject_unknown(section, ("path",), "'input'")
        return base / _as_str(section["path"], "input.path"), None
    if "site" in section:
        _reject_unknown(
            section,
            ("site", "codes", "start", "end", "url_template", "cache_dir", "medium_code"),
            "'input'",
        )
        codes = _require(section, "codes", "'input'")
        if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
            raise ConfigError("input.codes must be a list of strings")
        remote = RemoteSpec(
            site=_as_str(section["site"], "input.site"),
            codes=tuple(codes),
            start=_as_str(_require(section, "start", "'input'"), "input.start"),
            end=_as_str(_require(section, "end", "'input'"), "input.end"),
            url_template=_as_str(
                _require(section, "url_template", "'input'"), "input.url_template"
            ),
            cache_dir=base / _as_str(section.get("cache_dir", "cache"), "input.cache_dir"),
            medium_code=(
                _as_str(section["medium_code"], "input.medium_code")
                if "medium_code" in section
                else None
            ),
        )
        return None, remote
    raise ConfigError("'input' needs either a 'path' or a 'site'")


def _parse_filter(section) -> FilterSpec:
    if not isinstance(section, dict):
        raise ConfigError("'filter' must be an object")
    _reject_unknown(
        section,
        ("min_count", "start", "end", "required_variable"),
        "'filter'",
    )
    kwargs = {}
    if "min_count" in section:
        kwargs["min_count"] = _as_int(section["min_count"], "filter.min_count", 1)
    if "start" in section:
        kwargs["start"] = _as_date(section["start"], "filter.start")
    if "end" in section:
        kwargs["end"] = _as_date(section["end"], "filter.end")
    if "required_variable" in section:
        kwargs["required_variable"] = _as_str(
            section["required_variable"], "filter.required_variable"
        )
    try:
        return FilterSpec(**kwargs)
    except OutOfRange as exc:
        raise ConfigError(f"invalid 'filter' section: {exc}") from None


def _parse_rules(items) -> tuple:
    if not isinstance(items, list):
        raise ConfigError("'redundancy_rules' must be a list")
    rules = []
    for i, item in enumerate(items):
        where = f"redundancy_rules[{i}]"
        if not isinstance(item, dict):
            raise ConfigError(f"{where} must be an object")
        _reject_unknown(item, ("composite", "parts"), where)
        composite = _as_str(_require(item, "composite", where), f"{where}.composite")
        parts = _require(item, "parts", where)
        if not isinstance(parts, list) or not all(isinstance(p, str) for p in parts):
            raise ConfigError(f"{where}.parts must be a list of strings")
        try:
            rules.append(RedundancyRule(composite, tuple(parts)))
        except RuleInapplicable as exc:
            raise ConfigError(f"invalid {where}: {exc}") from None
    return tuple(rules)


def _validate_pipeline(stages, have_filter: bool, have_rules: bool) -> tuple:
    if not isinstance(stages, list) or not stages:
        raise ConfigError("'pipeline' must be a non-empty list of stage names")
    for s in stages:
        if s not in STAGES:
            raise ConfigError(f"unknown pipeline stage {s!r}")
    seen = set()
    for s in stages:
        if s in seen:
            raise ConfigError(f"pipeline stage {s!r} appears more than once")
        seen.add(s)
    if _PIVOT_STAGE in stages:
        pivot = stages.index(_PIVOT_STAGE)
        for s in stages[:pivot]:
            if s in _ANNUAL_STAGES:
                raise ConfigError(
                    f"stage {s!r} operates on annual data and must come after "
                    f"'{_PIVOT_STAGE}'"
                )
        for s in stages[pivot + 1 :]:
            if s in _TIME_STAGES:
                raise ConfigError(
                    f"stage {s!r} operates on dated observations and must come "
                    f"before '{_PIVOT_STAGE}'"
                )
    else:
        for s in stages:
            if s in _ANNUAL_STAGES:
                raise ConfigError(
                    f"stage {s!r} requires '{_PIVOT_STAGE}' earlier in the pipeline"
                )
    if "filter" in stages and not have_filter:
        raise ConfigError("pipeline uses 'filter' but no 'filter' section is given")
    if "drop_redundant" in stages and not have_rules:
        raise ConfigError(
            "pipeline uses 'drop_redundant' but 'redundancy_rules' is empty"
        )
    return tuple(stages)


def load_config(path) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises
    ------
    ConfigError
        On unreadable/unparseable files, unknown keys, bad types, or an
        invalid stage order.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    _reject_unknown(
        doc,
        (
            "input",
            "filter",
            "redundancy_rules",
            "pipeline",
            "difference_lag",
            "pca",
            "ica",
            "fa",
            "diagnostics",
            "output_dir",
        ),
        "the config root",
    )
    base = path.resolve().parent
    input_path, remote = _parse_input(_require(doc, "input", "the config root"), base)

    filter_spec = _parse_filter(doc["filter"]) if "filter" in doc else None
    rules = _parse_rules(doc.get("redundancy_rules", []))
    pipeline = _validate_pipeline(
        _require(doc, "pipeline", "the config root"),
        have_filter=filter_spec is not None,
        have_rules=bool(rules),
    )
    difference_lag = _as_int(doc.get("difference_lag", 1), "difference_lag", 1)

    pca = doc.get("pca", {})
    if not isinstance(pca, dict):
        raise ConfigError("'pca' must be an object")
    _reject_unknown(pca, ("center", "scale"), "'pca'")
    pca_center = _as_bool(pca.get("center", True), "pca.center")
    pca_scale = _as_bool(pca.get("scale", True), "pca.scale")

    ica = doc.get("ica", {})
    if not isinstance(ica, dict):
        raise ConfigError("'ica' must be an object")
    _reject_unknown(
        ica,
        ("n_components", "max_iter", "tol", "contrast", "logcosh_alpha", "seed"),
        "'ica'",
    )
    n_comp = ica.get("n_components")
    if n_comp is not None:
        n_comp = _as_int(n_comp, "ica.n_components")
    kwargs = {}
    for key, as_type in (
        ("max_iter", _as_int),
        ("tol", _as_float),
        ("contrast", _as_str),
        ("logcosh_alpha", _as_float),
        ("seed", _as_int),
    ):
        if key in ica:
            kwargs[key] = as_type(ica[key], f"ica.{key}")
    try:
        # A count decided from the data is not known yet; 1 stands in.
        ica_cfg = IcaConfig(n_components=1 if n_comp is None else n_comp, **kwargs)
    except OutOfRange as exc:
        raise ConfigError(f"invalid 'ica' section: {exc}") from None

    fa = doc.get("fa", {})
    if not isinstance(fa, dict):
        raise ConfigError("'fa' must be an object")
    _reject_unknown(fa, ("k_max", "alpha"), "'fa'")
    fa_alpha = _as_float(fa.get("alpha", 0.05), "fa.alpha")
    if not 0.0 < fa_alpha < 1.0:
        raise ConfigError(f"fa.alpha must lie in (0, 1), got {fa_alpha}")

    diag = doc.get("diagnostics", {})
    if not isinstance(diag, dict):
        raise ConfigError("'diagnostics' must be an object")
    _reject_unknown(diag, ("max_lag", "bins"), "'diagnostics'")

    return RunConfig(
        base_dir=base,
        config_sha256=hashlib.sha256(raw).hexdigest(),
        input_path=input_path,
        remote=remote,
        filter_spec=filter_spec,
        redundancy_rules=rules,
        pipeline=pipeline,
        difference_lag=difference_lag,
        pca_center=pca_center,
        pca_scale=pca_scale,
        ica_components=n_comp,
        ica=ica_cfg,
        fa_k_max=_as_int(fa.get("k_max", 5), "fa.k_max", 1),
        fa_alpha=fa_alpha,
        acf_max_lag=_as_int(diag.get("max_lag", 10), "diagnostics.max_lag", 1),
        mi_bins=_as_int(diag.get("bins", 8), "diagnostics.bins", 2),
        output_dir=base / _as_str(_require(doc, "output_dir", "the config root"), "output_dir"),
    )
