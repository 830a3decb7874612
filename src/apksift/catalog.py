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
separator), since matching is line by line; ``FeatureDef`` holds that
rule for the detectors and the corpus generator alike. A kind may name
only the scopes extraction searches for it (``_SEARCHED``).
File order defines feature index order. The shipped default catalog has
131 standard permissions followed by 58 code-based properties; loading
it in mode P/C/M keeps the permission subset, the code subset, or both,
re-indexing densely from 0 either way.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from types import MappingProxyType

from . import files
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
_SURROGATE = re.compile("[\ud800-\udfff]")

#: The scopes extraction searches for each kind.
_SEARCHED = {
    "permission": frozenset({Scope.MANIFEST}),
    "payload-extension": frozenset(PAYLOAD_SCOPES),
    **{kind: frozenset((Scope.CODE, *PAYLOAD_SCOPES)) for kind in CONTENT_KINDS},
}


@dataclass(frozen=True)
class FeatureDef:
    """A single detector: what to match and where to look."""

    index: int
    name: str
    kind: str
    pattern: tuple[str, ...]
    scopes: frozenset[Scope]
    #: The one pattern part as bytes when it is all ASCII, else None.
    needle: bytes | None = field(init=False, repr=False, compare=False)
    #: Every pattern part as UTF-8 (the native-lib byte search).
    encoded: tuple[bytes, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # Plain attributes, not cached properties: the per-file matcher
        # reads them for every pending feature of every file, and CPython
        # 3.11 reads a cached property measurably slower.
        (first, *rest) = self.pattern
        needle = first.encode("ascii") if not rest and first.isascii() else None
        object.__setattr__(self, "needle", needle)
        object.__setattr__(self, "encoded", tuple(p.encode("utf-8") for p in self.pattern))

    @property
    def permission_name(self) -> str:
        """Fully qualified manifest attribute value for permission kinds."""
        return f"android.permission.{self.pattern[0]}"

    def on_one_line(self, text: str) -> bool:
        """Whether every pattern part occurs on one line of ``text``."""
        # Parts never contain line breaks, so a single-part hit anywhere is
        # already a one-line hit; compound patterns need a per-line pass
        # only once every part is known to be present.
        if not all(p in text for p in self.pattern):
            return False
        if len(self.pattern) == 1:
            return True
        return any(all(p in line for p in self.pattern) for line in text.splitlines())


@dataclass(frozen=True)
class ScanPlan:
    """What extraction needs from a catalog, derived once per catalog.

    ``content`` maps every scope to the content-kind features that search
    it, and ``suffixes`` every scope to its payload-extension features, in
    catalog order (a feature is under each of its scopes). ``watched``
    holds the indices of the features the code walk and the payload walk
    serve: a walk is needed only while one of its features is unset.
    """

    permissions: MappingProxyType  # android.permission.<NAME> -> feature indices
    content: MappingProxyType      # Scope -> tuple[FeatureDef, ...]
    suffixes: MappingProxyType     # Scope -> tuple[FeatureDef, ...]
    watched: tuple[tuple[int, ...], tuple[int, ...]]  # (code walk, payload walk)


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
        content = [d for d in self.defs if d.kind in CONTENT_KINDS]
        suffixes = [d for d in self.defs if d.kind == "payload-extension"]
        return ScanPlan(
            permissions=MappingProxyType(permissions),
            content=MappingProxyType({s: tuple(d for d in content if s in d.scopes) for s in Scope}),
            suffixes=MappingProxyType({s: tuple(d for d in suffixes if s in d.scopes) for s in Scope}),
            watched=tuple(tuple(d.index for d in self.defs if not d.scopes.isdisjoint(walked))
                          for walked in ((Scope.CODE,), PAYLOAD_SCOPES)),
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
    if not isinstance(name, str) or not name:
        raise CatalogError(f"catalog entry {position}: name {name!r} is not a non-empty string")
    if kind not in KINDS:
        raise CatalogError(
            f"catalog line {_line_of(text, name)}: unknown kind {kind!r} for feature {name!r}"
        )
    parts = [pattern] if isinstance(pattern, str) else pattern
    if not (isinstance(parts, list) and parts and all(isinstance(p, str) and p for p in parts)):
        raise CatalogError(f"feature {name!r}: pattern must be a non-empty string or list of strings")
    parts = tuple(parts)
    if any(p.splitlines() != [p] for p in parts):
        raise CatalogError(f"feature {name!r}: pattern must not contain a line break")
    if _SURROGATE.search(name + "".join(parts)):  # JSON escapes can make lone surrogates
        raise CatalogError(f"feature {name!r}: name and pattern must be encodable as UTF-8")
    if not (isinstance(scopes, list) and all(isinstance(s, str) for s in scopes)):
        raise CatalogError(f"feature {name!r}: scopes must be a list of strings")
    try:
        scope_set = frozenset(_SCOPE_BY_NAME[s] for s in scopes)
    except KeyError as exc:
        raise CatalogError(f"feature {name!r}: unknown scope {exc}") from exc
    if not scope_set:
        raise CatalogError(f"feature {name!r}: at least one scope required")
    unsearched = [s.value for s in Scope if s in scope_set - _SEARCHED[kind]]
    if unsearched:
        searched = ", ".join(s.value for s in Scope if s in _SEARCHED[kind])
        raise CatalogError(f"{kind} feature {name!r} must not search the {unsearched[0]} scope "
                           f"(extraction searches this kind only in the {searched} scope(s))")
    return name, kind, parts, scope_set


def parse_catalog(text: str, mode: str = "M") -> FeatureCatalog:
    """Parse catalog JSON text and filter to the requested mode."""
    if mode not in MODES:
        raise CatalogError(f"unknown catalog mode {mode!r} (expected one of {MODES})")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CatalogError(f"catalog is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # an integer too long to convert, or deep nesting
        raise CatalogError(f"catalog is not valid JSON: {exc}") from exc
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
    return parse_catalog(files.read_text(path, "catalog", CatalogError), mode)


def subset_catalog(catalog: FeatureCatalog, names) -> FeatureCatalog:
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
    return FeatureCatalog(defs=defs, mode=catalog.mode)


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
