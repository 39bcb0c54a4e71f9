"""Flat key=value pipeline configuration with dotted section prefixes.

The format is line-oriented and diff-friendly: blank lines and ``#`` comments
are ignored, everything else is ``section.key = value``. Unknown keys are
rejected so typos fail loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .datamodel import DataSourceKind
from .ensemble import DEFAULT_CONTAMINATION
from .errors import CamlpadError
from .gauge_alert import DEFAULT_THRESHOLD_PERCENTILE
from .ingest_store import (
    DEFAULT_DISCRIMINATOR,
    DEFAULT_MIN_HISTORY,
    DEFAULT_TIME_FIELD,
    DirectoryStore,
    HttpStore,
    MalformedLine,
    StoreLocator,
    _iso_epoch_ms,
    redact_url,
    url_refusal,
    utf8_lines,
)

DAY_MS = 86_400_000
# the sources a combined BRO index (run.bro_index) serves, split by protocol
BRO_SOURCES = (DataSourceKind.BRO_CONN, DataSourceKind.BRO_DNS)


class ConfigError(CamlpadError):
    pass


@dataclass
class DetectorParams:
    iforest_trees: int = 100
    iforest_subsample: int = 256
    cblof_clusters: int = 8


@dataclass
class PipelineConfig:
    store_kind: str = "directory"
    store_root: Path = Path("./store")
    store_url: str = ""
    store_token: str = ""
    sources: list[DataSourceKind] = field(default_factory=lambda: list(DataSourceKind))
    indexes: dict[DataSourceKind, str] = field(default_factory=dict)
    bro_index: str = ""
    bro_discriminator: str = DEFAULT_DISCRIMINATOR
    time_field: str = DEFAULT_TIME_FIELD
    boundary: str = "today"
    history_days: int = 7
    min_history: int = DEFAULT_MIN_HISTORY
    contamination: float = DEFAULT_CONTAMINATION
    threshold_percentile: float = DEFAULT_THRESHOLD_PERCENTILE
    output_dir: Path = Path("./out")
    alert_file: str = "alerts.jsonl"
    webhook_url: str = ""
    detectors: DetectorParams = field(default_factory=DetectorParams)

    def index_for(self, source: DataSourceKind) -> str:
        return self.indexes.get(source, source.value)

    def index_plan(self) -> list[tuple[str, tuple[DataSourceKind, ...]]]:
        """(index, sources it serves) for every configured source, in source name order.

        With run.bro_index set, that one index serves the configured BRO
        sources; every other source reads its own index.
        """
        sources = sorted(set(self.sources), key=lambda s: s.value)
        bro = tuple(s for s in sources if self.bro_index and s in BRO_SOURCES)
        plan = [(self.index_for(s), (s,)) for s in sources if s not in bro]
        if bro:
            plan.append((self.bro_index, bro))
        return sorted(plan, key=lambda entry: entry[1][0].value)

    def locator(self) -> StoreLocator:
        if self.store_kind == "directory":
            return DirectoryStore(root=self.store_root)
        if self.store_kind == "http":
            if not self.store_url:
                raise ConfigError("store.kind is http but store.url is empty")
            return HttpStore(base_url=self.store_url, token=self.store_token or None)
        raise ConfigError(f"store.kind must be 'directory' or 'http', got {self.store_kind!r}")

    def alert_file_path(self) -> Path | None:
        if not self.alert_file:
            return None
        path = Path(self.alert_file)
        return path if path.is_absolute() else self.output_dir / path


def parse_config_text(text: str) -> dict[str, str]:
    """``_entries`` of ``text`` split at line feeds, as ``utf8_lines`` splits a config file."""
    return _entries(text.split("\n"))


def _entries(lines: list[str]) -> dict[str, str]:
    """key -> value of each ``key = value`` line; a key set on two lines is refused."""
    entries: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for line_number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_number}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in set_on:
            raise ConfigError(f"line {line_number}: {key} is already set on line {set_on[key]}")
        set_on[key] = line_number
        entries[key] = value
    return entries


def _to_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _to_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _text(key: str, value: str) -> str:
    return value


def _path(key: str, value: str) -> Path:
    return Path(value)


def _sources(key: str, value: str) -> list[DataSourceKind]:
    sources = [DataSourceKind.from_name(s) for s in value.split(",") if s.strip()]
    if not sources:
        raise ConfigError(f"{key}: expected at least one source, got {value!r}")
    for i, source in enumerate(sources):
        if source in sources[:i]:
            raise ConfigError(f"{key}: {source.value} is listed twice")
    return sources


# key -> (target, field, parser); target None is the PipelineConfig itself
_KEYS = {
    "store.kind": (None, "store_kind", _text),
    "store.root": (None, "store_root", _path),
    "store.url": (None, "store_url", _text),
    "store.token": (None, "store_token", _text),
    "run.sources": (None, "sources", _sources),
    "run.time_field": (None, "time_field", _text),
    "run.boundary": (None, "boundary", _text),
    "run.history_days": (None, "history_days", _to_int),
    "run.min_history": (None, "min_history", _to_int),
    "run.contamination": (None, "contamination", _to_float),
    "run.threshold_percentile": (None, "threshold_percentile", _to_float),
    "run.output_dir": (None, "output_dir", _path),
    "run.bro_index": (None, "bro_index", _text),
    "run.bro_discriminator": (None, "bro_discriminator", _text),
    "alerts.file": (None, "alert_file", _text),
    "alerts.webhook_url": (None, "webhook_url", _text),
    "detectors.iforest.trees": ("detectors", "iforest_trees", _to_int),
    "detectors.iforest.subsample": ("detectors", "iforest_subsample", _to_int),
    "detectors.cblof.clusters": ("detectors", "cblof_clusters", _to_int),
}


def config_from_entries(entries: dict[str, str]) -> PipelineConfig:
    config = PipelineConfig()
    for key, value in entries.items():
        parts = key.split(".")
        if len(parts) == 3 and parts[0] == "sources" and parts[2] == "index":
            if not value:  # the store root itself is no index
                raise ConfigError(f"{key}: expected an index name, got ''")
            config.indexes[DataSourceKind.from_name(parts[1])] = value
            continue
        if key not in _KEYS:
            raise ConfigError(f"unknown config key: {key}")
        target, name, parse = _KEYS[key]
        setattr(getattr(config, target) if target else config, name, parse(key, value))
    for source in BRO_SOURCES:
        if config.bro_index and source in config.indexes:
            raise ConfigError(f"sources.{source.value}.index cannot be set with run.bro_index, which serves it")
    served: dict[str, str] = {}
    for index, sources in config.index_plan():  # two plan entries on one index would read its documents twice
        names = "+".join(source.value for source in sources)
        if served.setdefault(index, names) != names:
            hint = "; set run.bro_index to serve both" if {served[index], names} == {"bro_conn", "bro_dns"} else ""
            raise ConfigError(f"index {index!r} would serve both {served[index]} and {names}{hint}")
    store_url = config.store_kind == "http" and config.store_url
    for key, url in (("store.url", store_url), ("alerts.webhook_url", config.webhook_url)):
        refusal = url and url_refusal(url)
        if refusal:  # no request could ever be sent to it
            raise ConfigError(f"{key}: {redact_url(url)}: {refusal}")
    if store_url and ("?" in store_url or "#" in store_url):  # HttpStore's /{index}/_search would land in it
        raise ConfigError(f"store.url: {redact_url(store_url)}: a query or fragment in a store URL is not supported")
    if not 0.0 < config.contamination < 1.0:
        raise ConfigError(f"run.contamination must be in (0,1), got {config.contamination}")
    if not 0.0 <= config.threshold_percentile <= 100.0:  # NaN fails too
        raise ConfigError(f"run.threshold_percentile must be in [0,100], got {config.threshold_percentile}")
    params = config.detectors
    for key, value, least in (
        ("run.history_days", config.history_days, 1),
        ("run.min_history", config.min_history, 1),
        ("detectors.iforest.trees", params.iforest_trees, 1),
        ("detectors.iforest.subsample", params.iforest_subsample, 2),
        ("detectors.cblof.clusters", params.cblof_clusters, 1),
    ):
        if value < least:
            raise ConfigError(f"{key} must be >= {least}, got {value}")
    return config


def load_config(path: Path | str) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = utf8_lines(path.read_bytes())
    except MalformedLine as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return config_from_entries(_entries(lines))


def resolve_boundary(value: str) -> int:
    """Epoch ms for a boundary: 'today' (UTC midnight) or an ISO date/datetime."""
    if value.strip().lower() == "today":
        return _iso_epoch_ms(datetime.now(timezone.utc).date().isoformat())
    parsed = _iso_epoch_ms(value.strip())
    if parsed is None:
        raise ConfigError(f"boundary must be 'today' or an ISO date or date-time, got {value!r}")
    return parsed


def window_id_for(boundary_ms: int) -> str:
    """The window's file-safe name: the boundary's UTC date, plus THHMMSS[.mmm]Z unless it is midnight."""
    moment = datetime.fromtimestamp(boundary_ms // 1000, tz=timezone.utc)
    if boundary_ms % DAY_MS == 0:
        return moment.date().isoformat()
    millis = f".{boundary_ms % 1000:03d}" if boundary_ms % 1000 else ""
    return f"{moment:%Y-%m-%dT%H%M%S}{millis}Z"
