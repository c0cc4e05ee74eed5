"""Run configuration: one JSON file drives the whole pipeline.

The file holds nested sections — input, filter, redundancy rules, the
ordered stage list, model settings, output directory.  Everything is
validated up front: unknown keys anywhere are rejected (they are almost
always typos), numbers must be finite (not ``1e400`` or ``NaN``), and
stage names must be known.  Each stage must take the index (date or year)
that the one before it returns, as :data:`riversep.preprocess.STAGES`
declares; the record is dated, so date stages precede ``annual_mean``.
One reader, :func:`_section`, reads every object section and rule item; a
rule a settings type owns is checked there alone, through :func:`_build`,
and the CLI's ``--seed`` meets the same ``IcaConfig`` rule before any stage runs.

All relative paths are resolved against the directory containing the
config file, so a config travels with its data.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .diagnostics import _MAX_BINS
from .errors import ConfigError, OutOfRange, RuleInapplicable
from .ica import IcaConfig
from .ingest import FilterSpec, _iso_date
from .preprocess import STAGES, RedundancyRule


@dataclass(frozen=True)
class RunConfig:
    """Validated, path-resolved run settings.

    ``remote`` holds a remote input's ``fetch_remote`` arguments.  PCA is
    always the correlation PCA, so no field says so.  ``ica`` holds the
    FastICA settings as written, its ``n_components`` None when the count is
    to be Kaiser's count of that PCA; the CLI replaces its ``seed`` with any
    ``--seed``.  ``acf_max_lag`` is clamped at run time to the series length
    minus two.
    """

    config_sha256: str
    input_path: Path | None
    remote: dict | None
    filter_spec: FilterSpec | None
    redundancy_rules: tuple
    pipeline: tuple
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


def _as_int(
    value, where: str, minimum: int | None = None, maximum: int | None = None
) -> int:
    if type(value) is not int:
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where} must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{where} must be at most {maximum}, got {value}")
    return value


def _as_only(value, where: str, only, why: str):
    # a setting with one value left stays, so that configs which state it load
    if type(value) is not type(only) or value != only:
        raise ConfigError(f"{where} must be {json.dumps(only)}: {why}")
    return value


def _as_float(value, where: str) -> float:
    if type(value) is not bool and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _as_str(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


def _as_strs(value, where: str) -> tuple:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ConfigError(f"{where} must be a list of strings")
    return tuple(value)


def _as_date(value, where: str) -> datetime.date:
    try:
        return _iso_date(_as_str(value, where))
    except ValueError:
        raise ConfigError(f"{where} must be an ISO date, got {value!r}") from None


def _as_level(value, where: str) -> float:
    level = _as_float(value, where)
    if not 0.0 < level < 1.0:
        raise ConfigError(f"{where} must lie in (0, 1), got {level}")
    return level


def _section(section, name: str, readers: dict) -> dict:
    """The object ``section``, each key read by its reader under the dotted
    name ``name.key``; unknown keys are rejected."""
    if not isinstance(section, dict):
        raise ConfigError(f"'{name}' must be an object")
    _reject_unknown(section, readers, f"'{name}'")
    return {
        key: read(section[key], f"{name}.{key}")
        for key, read in readers.items()
        if key in section
    }


def _build(kind, name: str, **settings):
    """``kind(**settings)``; the type's own rules fail as config errors."""
    try:
        return kind(**settings)
    except (OutOfRange, RuleInapplicable) as exc:
        raise ConfigError(f"invalid {name!r} section: {exc}") from None


# The object sections other than 'input': each key with its reader.
_SECTIONS = {
    "filter": {
        "min_count": _as_int,
        "start": _as_date,
        "end": _as_date,
        "required_variable": _as_str,
    },
    "pca": {
        "center": partial(_as_only, only=True, why="PCA always centers its input"),
        "scale": partial(_as_only, only=True, why="PCA always standardizes its input"),
    },
    "ica": {
        # null, like an absent key, means "decide from the data"
        "n_components": lambda v, where: v if v is None else _as_int(v, where),
        "max_iter": _as_int,
        "tol": _as_float,
        "contrast": partial(_as_only, only="logcosh", why="FastICA's one contrast"),
        "seed": _as_int,
    },
    "fa": {"k_max": partial(_as_int, minimum=1), "alpha": _as_level},
    "diagnostics": {
        "max_lag": partial(_as_int, minimum=1),
        "bins": partial(_as_int, minimum=2, maximum=_MAX_BINS),
    },
}
_ROOT_KEYS = ("input", "redundancy_rules", "pipeline", "output_dir", *_SECTIONS)

_REMOTE_READERS = {
    "site": _as_str,
    "codes": _as_strs,
    "start": _as_str,
    "end": _as_str,
    "url_template": _as_str,
    "cache_dir": _as_str,
    "medium_code": _as_str,
}
_RULE_READERS = {"composite": _as_str, "parts": _as_strs}


def _parse_input(doc: dict, base: Path):
    section = _require(doc, "input", "the config root")
    if isinstance(section, dict) and "path" in section:
        return base / _section(section, "input", {"path": _as_str})["path"], None
    remote = _section(section, "input", _REMOTE_READERS)
    if "site" not in remote:
        raise ConfigError("'input' needs either a 'path' or a 'site'")
    for key in ("codes", "start", "end", "url_template"):
        _require(remote, key, "'input'")
    remote["cache_dir"] = base / remote.get("cache_dir", "cache")
    return None, remote


def _parse_rules(items) -> tuple:
    if not isinstance(items, list):
        raise ConfigError("'redundancy_rules' must be a list")
    rules = []
    for i, item in enumerate(items):
        where = f"redundancy_rules[{i}]"
        rule = _section(item, where, _RULE_READERS)
        for key in _RULE_READERS:
            _require(rule, key, f"'{where}'")
        rules.append(_build(RedundancyRule, where, **rule))
    return tuple(rules)


def _validate_pipeline(stages, have_filter: bool, have_rules: bool) -> tuple:
    if not isinstance(stages, list) or not stages:
        raise ConfigError("'pipeline' must be a non-empty list of stage names")
    index = "date"  # the parsed record's; each stage takes what the last returned
    for i, s in enumerate(stages):
        if not isinstance(s, str) or s not in STAGES:
            raise ConfigError(f"unknown pipeline stage {s!r}")
        if s in stages[:i]:
            raise ConfigError(f"pipeline stage {s!r} appears more than once")
        if STAGES[s].takes != index:
            pivot = next(n for n, st in STAGES.items() if st.takes != st.returns)
            side = "before" if pivot in stages[:i] else "after"
            raise ConfigError(
                f"stage {s!r} takes a {STAGES[s].takes}-indexed table and must "
                f"come {side} {pivot!r}"
            )
        index = STAGES[s].returns
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
        On unreadable/unparseable files, unknown keys, bad types,
        non-finite numbers, or an invalid stage order.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    except ValueError:  # json's one other: an integer too long to convert
        raise ConfigError(
            f"config file {path} holds an integer too long to read "
            f"(over {sys.get_int_max_str_digits()} digits)"
        ) from None
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")

    _reject_unknown(doc, _ROOT_KEYS, "the config root")
    base = path.resolve().parent
    input_path, remote = _parse_input(doc, base)
    read = {n: _section(doc.get(n, {}), n, r) for n, r in _SECTIONS.items()}
    filter_spec = (
        _build(FilterSpec, "filter", **read["filter"]) if "filter" in doc else None
    )
    rules = _parse_rules(doc.get("redundancy_rules", []))
    pipeline = _validate_pipeline(
        _require(doc, "pipeline", "the config root"),
        have_filter=filter_spec is not None,
        have_rules=bool(rules),
    )
    read["ica"].pop("contrast", None)
    return RunConfig(
        config_sha256=hashlib.sha256(raw).hexdigest(),
        input_path=input_path,
        remote=remote,
        filter_spec=filter_spec,
        redundancy_rules=rules,
        pipeline=pipeline,
        ica=_build(IcaConfig, "ica", **{"n_components": None, **read["ica"]}),
        fa_k_max=read["fa"].get("k_max", 5),
        fa_alpha=read["fa"].get("alpha", 0.05),
        acf_max_lag=read["diagnostics"].get("max_lag", 10),
        mi_bins=read["diagnostics"].get("bins", 8),
        output_dir=base / _as_str(_require(doc, "output_dir", "the config root"), "output_dir"),
    )
