from __future__ import annotations

from pathlib import Path

import pytest

from apksift.catalog import load_catalog


def write_sample(root: Path, app_id: str, manifest: str | None = None,
                 code: dict[str, str] | None = None,
                 payloads: list[str] | None = None) -> Path:
    """Lay out one app directory in the standard corpus structure."""
    d = root / app_id
    d.mkdir(parents=True, exist_ok=True)
    if manifest is not None:
        (d / "AndroidManifest.xml").write_text(manifest, encoding="utf-8")
    for rel, text in (code or {}).items():
        path = d / "smali" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    for rel in payloads or []:
        path = d / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"")
    return d


class Listing:
    """A directory listing in a chosen order, usable as ``os.scandir``'s result."""

    def __init__(self, entries):
        self.entries = entries

    def __enter__(self):
        return iter(self.entries)

    def __exit__(self, *exc):
        return False


def write_labels(root: Path, rows: list[tuple[str, str]], name: str = "labels.csv") -> Path:
    path = root / name
    lines = ["app_id,label"] + [f"{a},{b}" for a, b in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def manifest_with(*permissions: str) -> str:
    elems = "".join(
        f'    <uses-permission android:name="android.permission.{p}"/>\n' for p in permissions
    )
    return (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<manifest xmlns:android="http://schemas.android.com/apk/res/android" package="t">\n'
        f"{elems}"
        "    <application/>\n"
        "</manifest>\n"
    )


@pytest.fixture(scope="session")
def catalog_m():
    return load_catalog("builtin", "M")


@pytest.fixture(scope="session")
def catalog_p():
    return load_catalog("builtin", "P")


@pytest.fixture(scope="session")
def catalog_c():
    return load_catalog("builtin", "C")
