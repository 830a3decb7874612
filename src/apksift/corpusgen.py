"""Synthetic corpus generation with exact per-class feature frequencies.

Given target (benign, malware) counts per feature, this writes a corpus
tree in the standard layout whose extracted contingency counts equal the
targets exactly - assignment is combinatorial, not sampled. Each feature
plants one trigger artifact per chosen sample: a uses-permission element,
a code line carrying the pattern, or a stub payload file with the right
extension.

Exactness needs care where one pattern contains another ("mount" is a
substring of "remount", "/system/bin" of "/system/bin/sh"): planting the
longer pattern inevitably sets the shorter one's bit too. The generator
therefore computes, for every planted artifact, the full set of spec
features it triggers (by the detectors' own ``FeatureDef.on_one_line``),
and nests the sample choices so a feature is only ever planted inside the
sample sets of everything it drags along. Specs whose counts make that
nesting impossible are rejected.

Only per-feature marginals are guaranteed; the joint structure across
features is an arbitrary byproduct of the seeded per-feature permutations
and must not be relied on.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from . import files
from .catalog import CONTENT_KINDS, FeatureCatalog, FeatureDef
from .corpus import ClassLabel, Scope
from .errors import GenerationError
from .rng import SplitMix64, fnv1a64

_MANIFEST_HEAD = (
    '<?xml version="1.0" encoding="utf-8"?>\n'
    '<manifest xmlns:android="http://schemas.android.com/apk/res/android"\n'
    '          package="gen.app">\n'
)
_MANIFEST_TAIL = "    <application/>\n</manifest>\n"

_SMALI_HEAD = ".class public LGen;\n.super Ljava/lang/Object;\n\n.method public run()V\n"
_SMALI_TAIL = "    return-void\n.end method\n"

_PAD_LINE = "    const/4 v0, 0x0"


@dataclass(frozen=True)
class FrequencyEntry:
    feature: FeatureDef
    benign: int
    malware: int


@dataclass(frozen=True)
class FrequencySpec:
    entries: tuple[FrequencyEntry, ...]
    n_benign: int
    n_suspicious: int
    seed: int = 0

    def __post_init__(self):
        if self.n_benign < 0 or self.n_suspicious < 0:
            raise GenerationError("class sizes must be nonnegative")
        names = set()
        for e in self.entries:
            if e.feature.name in names:
                raise GenerationError(f"duplicate feature {e.feature.name!r} in spec")
            names.add(e.feature.name)
            if not 0 <= e.benign <= self.n_benign:
                raise GenerationError(
                    f"feature {e.feature.name!r}: benign count {e.benign} "
                    f"outside [0, {self.n_benign}]"
                )
            if not 0 <= e.malware <= self.n_suspicious:
                raise GenerationError(
                    f"feature {e.feature.name!r}: malware count {e.malware} "
                    f"outside [0, {self.n_suspicious}]"
                )


@dataclass(frozen=True)
class GeneratedCorpus:
    root: Path
    labels: Path


def spec_from_table(
    table: Path | str,
    catalog: FeatureCatalog,
    n_benign: int = 1000,
    n_suspicious: int = 1000,
    seed: int = 0,
) -> FrequencySpec:
    """Build a spec from a ``feature,benign_count,malware_count`` CSV."""
    by_name = {d.name: d for d in catalog}
    entries = []
    header, where = ("feature", "benign_count", "malware_count"), f"table file {table} line"
    for lineno, row in files.read_rows(table, header, "table file", GenerationError):
        name = row[0].strip()
        if name not in by_name:
            raise GenerationError(f"{where} {lineno}: unknown catalog feature {name!r}")
        try:
            entries.append(FrequencyEntry(by_name[name], int(row[1]), int(row[2])))
        except (IndexError, ValueError) as exc:
            raise GenerationError(f"{where} {lineno}: bad counts in {row!r}") from exc
    return FrequencySpec(tuple(entries), n_benign, n_suspicious, seed)


def _code_line(feature: FeatureDef) -> str:
    if feature.kind == "intent-action":
        return f'    const-string v0, "android.{feature.pattern[0]}"'
    payload = " ".join(feature.pattern)
    return f'    const-string v0, "{payload}"'


def _payload_path(feature: FeatureDef) -> str:
    return f"assets/payload-{feature.index:03d}{feature.pattern[0]}"


def _compute_triggers(entries: tuple[FrequencyEntry, ...]) -> dict[str, set[str]]:
    """Which other spec features each feature's planted artifact sets."""
    plan = FeatureCatalog(tuple(e.feature for e in entries), "M").plan
    triggers: dict[str, set[str]] = {}
    for e in entries:
        f = e.feature
        if f.kind == "permission":
            hit = {f.name}
        elif f.kind in CONTENT_KINDS:
            line = _code_line(f)
            hit = {g.name for g in plan.content[Scope.CODE] if g.on_one_line(line)}
        else:
            path = _payload_path(f)
            hit = {g.name for g in plan.suffixes[Scope.ASSETS] if path.endswith(g.pattern[0])}
        if f.name not in hit:
            # content features are planted as code lines, payload features as
            # assets files; a def scoped away from those locations cannot be
            # planted at all
            raise GenerationError(
                f"cannot plant feature {f.name!r}: its artifact is outside the "
                f"feature's scopes {sorted(s.value for s in f.scopes)}"
            )
        hit.discard(f.name)
        triggers[f.name] = hit
    return triggers


def _planting_order(entries: tuple[FrequencyEntry, ...],
                    triggers: dict[str, set[str]]) -> list[FrequencyEntry]:
    """Order entries so every feature follows everything it triggers."""
    by_name = {e.feature.name: e for e in entries}
    remaining = dict(triggers)
    ordered: list[FrequencyEntry] = []
    placed: set[str] = set()
    while remaining:
        ready = sorted(name for name, deps in remaining.items() if deps <= placed)
        if not ready:
            cycle = ", ".join(sorted(remaining))
            raise GenerationError(f"pattern containment cycle among features: {cycle}")
        for name in ready:
            ordered.append(by_name[name])
            placed.add(name)
            del remaining[name]
    return ordered


def _assert_inert(text: str, entries: tuple[FrequencyEntry, ...], what: str) -> None:
    for e in entries:
        f = e.feature
        if f.kind in CONTENT_KINDS and f.on_one_line(text):
            raise GenerationError(f"internal: {what} accidentally matches feature {f.name!r}")


def _choose(pool: list[str], count: int, seed: int, feature: str, label: ClassLabel,
            n_class: int) -> list[str]:
    if count > len(pool):
        raise GenerationError(
            f"feature {feature!r}: needs {count} {label.value} samples but only "
            f"{len(pool)} are eligible after containment nesting (class size {n_class})"
        )
    shuffled = sorted(pool)
    SplitMix64(seed ^ fnv1a64(f"{feature}|{label.value}")).shuffle(shuffled)
    return shuffled[:count]


def _write(path: str, data: bytes) -> None:
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def generate(spec: FrequencySpec, out: Path | str, pad_lines: int = 0) -> GeneratedCorpus:
    """Write the corpus tree plus ``labels.csv`` under ``out``.

    ``pad_lines`` appends inert filler lines to every generated code file;
    the extraction benchmark uses this to give the scanner realistic
    amounts of text without changing any feature bit.
    """
    out = Path(out)
    try:
        if out.exists() and any(out.iterdir()):
            raise GenerationError(f"output directory {out} is not empty")
    except OSError as exc:  # a file at ``out``
        raise GenerationError(f"cannot use {out} as the output directory: {exc}") from exc
    _assert_inert(_MANIFEST_HEAD + _MANIFEST_TAIL, spec.entries, "manifest template")
    _assert_inert(_SMALI_HEAD + _SMALI_TAIL, spec.entries, "code template")
    _assert_inert(_PAD_LINE, spec.entries, "pad line")

    ids = {
        ClassLabel.BENIGN: [f"ben{i:05d}" for i in range(spec.n_benign)],
        ClassLabel.SUSPICIOUS: [f"mal{i:05d}" for i in range(spec.n_suspicious)],
    }
    triggers = _compute_triggers(spec.entries)
    chosen: dict[str, dict[ClassLabel, set[str]]] = {}
    for entry in _planting_order(spec.entries, triggers):
        name = entry.feature.name
        chosen[name] = {}
        for label, count in (
            (ClassLabel.BENIGN, entry.benign),
            (ClassLabel.SUSPICIOUS, entry.malware),
        ):
            pool: set[str] = set(ids[label])
            for dep in triggers[name]:
                pool &= chosen[dep][label]
            chosen[name][label] = set(
                _choose(sorted(pool), count, spec.seed, name, label, len(ids[label]))
            )

    # Invert to per-sample plant lists, keeping catalog order within a sample.
    plants: dict[str, list[FrequencyEntry]] = {}
    for entry in sorted(spec.entries, key=lambda e: e.feature.index):
        for label in (ClassLabel.BENIGN, ClassLabel.SUSPICIOUS):
            for sample_id in chosen[entry.feature.name][label]:
                plants.setdefault(sample_id, []).append(entry)

    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file above ``out``
        raise GenerationError(f"cannot create output directory {out}: {exc}") from exc
    smali_tail = ("".join(f"{_PAD_LINE}\n" for _ in range(pad_lines)) + _SMALI_TAIL).encode()
    label_rows: list[tuple[str, str]] = []
    for label in (ClassLabel.BENIGN, ClassLabel.SUSPICIOUS):
        for sample_id in ids[label]:
            sample_dir = os.path.join(out, sample_id)
            os.mkdir(sample_dir)
            os.mkdir(os.path.join(sample_dir, "smali"))
            mine = plants.get(sample_id, [])

            perm_elems = "".join(
                f'    <uses-permission android:name="{e.feature.permission_name}"/>\n'
                for e in mine if e.feature.kind == "permission"
            )
            _write(os.path.join(sample_dir, "AndroidManifest.xml"),
                   (_MANIFEST_HEAD + perm_elems + _MANIFEST_TAIL).encode())

            code_lines = "".join(
                _code_line(e.feature) + "\n"
                for e in mine if e.feature.kind in CONTENT_KINDS
            )
            _write(os.path.join(sample_dir, "smali", "Gen.smali"),
                   (_SMALI_HEAD + code_lines).encode() + smali_tail)

            payloads = [e for e in mine if e.feature.kind == "payload-extension"]
            if payloads:
                os.mkdir(os.path.join(sample_dir, "assets"))
            for e in payloads:
                _write(os.path.join(sample_dir, _payload_path(e.feature)), b"")
            label_rows.append((sample_id, label.value))

    labels_path = out / "labels.csv"
    files.write_csv(labels_path, ["app_id", "label"], sorted(label_rows), GenerationError)
    return GeneratedCorpus(root=out, labels=labels_path)
