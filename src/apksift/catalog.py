"""Feature catalogs: the data-driven detector specification.

A catalog is a JSON array of detector definitions. Each entry names a
feature, its kind, the literal pattern to match, and the scopes searched:

    [
      {"name": "READ_SMS", "kind": "permission", "pattern": "READ_SMS",
       "scopes": ["manifest"]},
      {"name": "Runtime.exec", "kind": "api-call",
       "pattern": ["Runtime", "exec("], "scopes": ["code"]},
      ...
    ]

A list-valued pattern is a compound detector: every part must appear on
the same line (this covers both Java-style ``Runtime.exec(`` and smali
``Ljava/lang/Runtime;->exec(`` surface forms with one definition).
No pattern part may contain a line break (any ``str.splitlines``
separator), since matching is line by line.
File order defines feature index order. The shipped default catalog has
131 standard permissions followed by 58 code-based properties; loading
it in mode P/C/M keeps the permission subset, the code subset, or both,
re-indexing densely from 0 either way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .corpus import PAYLOAD_SCOPES, Scope
from .errors import CatalogError

MODES = ("P", "C", "M")

KINDS = (
    "permission",
    "api-call",
    "string-token",
    "system-command",
    "payload-extension",
    "intent-action",
    "shell-path",
)

#: Kinds matched against file content (lines of text, or raw bytes in
#: native libraries). Permission matching is an exact manifest attribute
#: comparison and payload-extension matching is a path suffix test.
CONTENT_KINDS = frozenset(
    {"api-call", "string-token", "system-command", "intent-action", "shell-path"}
)

_SCOPE_BY_NAME = {s.value: s for s in Scope}


@dataclass(frozen=True)
class FeatureDef:
    """A single detector: what to match and where to look."""

    index: int
    name: str
    kind: str
    pattern: tuple[str, ...]
    scopes: frozenset[Scope]

    @property
    def permission_name(self) -> str:
        """Fully qualified manifest attribute value for permission kinds."""
        return f"android.permission.{self.pattern[0]}"


class ContentDetector(NamedTuple):
    """A content-kind feature as the detectors search for it."""

    index: int
    parts: tuple[str, ...]
    scopes: frozenset[Scope]
    needle: bytes | None            # the one part, when it is all ASCII
    encoded: tuple[bytes, ...]      # every part as UTF-8 (native-lib byte search)


@dataclass(frozen=True)
class ScanPlan:
    """What extraction needs from a catalog, derived once per catalog.

    ``code`` holds the content detectors that search code files and
    ``payload`` those that search assets, resources or native libraries
    (one detector may be in both); all keep catalog order.
    """

    permissions: MappingProxyType      # android.permission.<NAME> -> feature indices
    code: tuple[ContentDetector, ...]
    payload: tuple[ContentDetector, ...]
    suffixes: tuple[FeatureDef, ...]    # payload-extension features


def _content_detector(d: FeatureDef) -> ContentDetector:
    (first, *rest) = d.pattern
    needle = first.encode("ascii") if not rest and first.isascii() else None
    return ContentDetector(d.index, d.pattern, d.scopes, needle,
                           tuple(p.encode("utf-8") for p in d.pattern))


@dataclass(frozen=True)
class FeatureCatalog:
    defs: tuple[FeatureDef, ...]
    mode: str

    def __len__(self) -> int:
        return len(self.defs)

    def __iter__(self):
        return iter(self.defs)

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.defs)

    @cached_property
    def plan(self) -> ScanPlan:
        permissions: dict[str, tuple[int, ...]] = {}
        for d in self.defs:
            if d.kind == "permission":
                permissions[d.permission_name] = permissions.get(d.permission_name, ()) + (d.index,)
        content = [_content_detector(d) for d in self.defs if d.kind in CONTENT_KINDS]
        return ScanPlan(
            permissions=MappingProxyType(permissions),
            code=tuple(c for c in content if Scope.CODE in c.scopes),
            payload=tuple(c for c in content if not c.scopes.isdisjoint(PAYLOAD_SCOPES)),
            suffixes=tuple(d for d in self.defs if d.kind == "payload-extension"),
        )

    def by_name(self, name: str) -> FeatureDef:
        for d in self.defs:
            if d.name == name:
                return d
        raise CatalogError(f"catalog has no feature named {name!r}")


def _line_of(text: str, needle: str) -> int:
    for lineno, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return lineno
    return 0


def _parse_entry(raw: object, position: int, text: str) -> tuple[str, str, tuple[str, ...], frozenset[Scope]]:
    if not isinstance(raw, dict):
        raise CatalogError(f"catalog entry {position} is not an object")
    try:
        name = raw["name"]
        kind = raw["kind"]
        pattern = raw["pattern"]
        scopes = raw["scopes"]
    except KeyError as exc:
        raise CatalogError(f"catalog entry {position} ({raw.get('name', '?')}) missing key {exc}") from exc
    if kind not in KINDS:
        raise CatalogError(
            f"catalog line {_line_of(text, str(name))}: unknown kind {kind!r} for feature {name!r}"
        )
    parts = tuple(pattern) if isinstance(pattern, list) else (str(pattern),)
    if not parts or any(not isinstance(p, str) or not p for p in parts):
        raise CatalogError(f"feature {name!r}: pattern must be a non-empty string or list of strings")
    if any(p.splitlines() != [p] for p in parts):
        raise CatalogError(f"feature {name!r}: pattern must not contain a line break")
    try:
        scope_set = frozenset(_SCOPE_BY_NAME[s] for s in scopes)
    except KeyError as exc:
        raise CatalogError(f"feature {name!r}: unknown scope {exc}") from exc
    if not scope_set:
        raise CatalogError(f"feature {name!r}: at least one scope required")
    if kind == "permission" and scope_set != {Scope.MANIFEST}:
        raise CatalogError(f"permission feature {name!r} must search exactly the manifest scope")
    if kind != "permission" and Scope.MANIFEST in scope_set:
        raise CatalogError(f"non-permission feature {name!r} must not search the manifest scope")
    return str(name), kind, parts, scope_set


def parse_catalog(text: str, mode: str = "M") -> FeatureCatalog:
    """Parse catalog JSON text and filter to the requested mode."""
    if mode not in MODES:
        raise CatalogError(f"unknown catalog mode {mode!r} (expected one of {MODES})")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(raw, list):
        raise CatalogError("catalog must be a JSON array of feature objects")

    entries = [_parse_entry(item, i, text) for i, item in enumerate(raw)]
    seen: set[str] = set()
    for name, _, _, _ in entries:
        if name in seen:
            raise CatalogError(f"duplicate feature name {name!r} in catalog")
        seen.add(name)

    if mode == "P":
        entries = [e for e in entries if e[1] == "permission"]
    elif mode == "C":
        entries = [e for e in entries if e[1] != "permission"]
    defs = tuple(
        FeatureDef(index=i, name=name, kind=kind, pattern=parts, scopes=scope_set)
        for i, (name, kind, parts, scope_set) in enumerate(entries)
    )
    return FeatureCatalog(defs=defs, mode=mode)


def load_catalog(path: Path | str, mode: str = "M") -> FeatureCatalog:
    """Load a catalog file; ``path`` may be the literal string ``builtin``."""
    if str(path) == "builtin":
        return parse_catalog(builtin_catalog(), mode)
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CatalogError(f"cannot read catalog {path}: {exc}") from exc
    return parse_catalog(text, mode)


def serialize_catalog(catalog: FeatureCatalog) -> str:
    """Canonical JSON serialization (the inverse of parse_catalog)."""
    items = []
    for d in catalog.defs:
        pattern: object = d.pattern[0] if len(d.pattern) == 1 else list(d.pattern)
        items.append(
            {
                "name": d.name,
                "kind": d.kind,
                "pattern": pattern,
                "scopes": sorted(s.value for s in d.scopes),
            }
        )
    return json.dumps(items, indent=2, ensure_ascii=False) + "\n"


def subset_catalog(catalog: FeatureCatalog, names, mode: str | None = None) -> FeatureCatalog:
    """Catalog restricted to ``names``, keeping file order, re-indexed from 0."""
    wanted = set(names)
    missing = wanted.difference(d.name for d in catalog)
    if missing:
        raise CatalogError(f"features not in catalog: {', '.join(sorted(missing))}")
    kept = [d for d in catalog.defs if d.name in wanted]
    defs = tuple(
        FeatureDef(index=i, name=d.name, kind=d.kind, pattern=d.pattern, scopes=d.scopes)
        for i, d in enumerate(kept)
    )
    return FeatureCatalog(defs=defs, mode=mode if mode is not None else catalog.mode)


def builtin_catalog() -> str:
    """Content of the shipped default catalog file."""
    return (
        resources.files("apksift.data").joinpath("builtin_catalog.json").read_text(encoding="utf-8")
    )


def data_table_path(name: str) -> Path:
    """Path of a shipped frequency-table fixture (table4/table5/table6)."""
    candidate = resources.files("apksift.data").joinpath(f"{name}.csv")
    with resources.as_file(candidate) as p:
        return Path(p)
