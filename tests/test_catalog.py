import importlib.util
import json
from pathlib import Path

import pytest

from apksift.catalog import (
    CONTENT_KINDS,
    builtin_catalog,
    load_catalog,
    parse_catalog,
    subset_catalog,
)
from apksift.corpus import PAYLOAD_SCOPES, Scope
from apksift.errors import CatalogError

from published_values import TABLE4, TABLE5


def test_builtin_mode_sizes(catalog_p, catalog_c, catalog_m):
    assert len(catalog_p) == 131
    assert len(catalog_c) == 58
    assert len(catalog_m) == 189


def test_mode_partition(catalog_p, catalog_c, catalog_m):
    assert len(catalog_m) == len(catalog_p) + len(catalog_c)
    assert all(d.kind == "permission" for d in catalog_p)
    assert all(d.kind != "permission" for d in catalog_c)


def test_ids_reindexed_densely(catalog_p, catalog_c, catalog_m):
    for cat in (catalog_p, catalog_c, catalog_m):
        assert [d.index for d in cat] == list(range(len(cat)))


def test_builtin_parses_in_all_modes():
    for mode in ("P", "C", "M"):
        assert len(load_catalog("builtin", mode)) > 0


def test_documented_entries_present(catalog_m):
    chmod = catalog_m.by_name("chmod")
    assert chmod.kind == "system-command"
    assert chmod.scopes == {Scope.CODE, Scope.ASSETS}
    read_sms = catalog_m.by_name("READ_SMS")
    assert read_sms.kind == "permission"
    assert read_sms.scopes == {Scope.MANIFEST}
    for name in TABLE5:
        assert catalog_m.by_name(name) is not None
    for name in TABLE4:
        assert catalog_m.by_name(name).kind == "permission"


def test_compound_pattern_parsed(catalog_m):
    runtime_exec = catalog_m.by_name("Runtime.exec")
    assert runtime_exec.pattern == ("Runtime", "exec(")


def test_permission_name_qualified(catalog_m):
    assert catalog_m.by_name("READ_SMS").permission_name == "android.permission.READ_SMS"


def _entry(name, kind="permission", pattern=None, scopes=None):
    return {
        "name": name,
        "kind": kind,
        "pattern": pattern or name,
        "scopes": scopes or (["manifest"] if kind == "permission" else ["code"]),
    }


def test_duplicate_name_fatal():
    text = json.dumps([_entry("READ_SMS"), _entry("READ_SMS")])
    with pytest.raises(CatalogError, match="READ_SMS"):
        parse_catalog(text)


def test_unknown_kind_reports_line():
    text = json.dumps([_entry("READ_SMS"), _entry("weird", kind="telepathy")], indent=2)
    expected_line = next(
        i for i, line in enumerate(text.splitlines(), start=1) if "weird" in line
    )
    with pytest.raises(CatalogError, match=f"line {expected_line}"):
        parse_catalog(text)


def test_permission_scope_rule():
    bad = json.dumps([_entry("READ_SMS", scopes=["manifest", "code"])])
    with pytest.raises(CatalogError, match="manifest scope"):
        parse_catalog(bad)
    bad = json.dumps([_entry("chmod", kind="system-command", scopes=["manifest"])])
    with pytest.raises(CatalogError, match="manifest scope"):
        parse_catalog(bad)


@pytest.mark.parametrize("kind, pattern, scopes, unsearched", [
    ("string-token", "chmod", ["other"], "other"),
    ("string-token", "chmod", ["code", "other"], "other"),
    ("payload-extension", ".dex", ["other"], "other"),
    ("payload-extension", ".dex", ["code"], "code"),
])
def test_scope_never_searched_fatal(kind, pattern, scopes, unsearched):
    text = json.dumps([_entry("never", kind=kind, pattern=pattern, scopes=scopes)])
    with pytest.raises(CatalogError, match=f"'never' must not search the {unsearched} scope"):
        parse_catalog(text)


def test_unknown_scope_fatal():
    with pytest.raises(CatalogError, match="scope"):
        parse_catalog(json.dumps([_entry("x", kind="api-call", scopes=["kernel"])]))


def test_unknown_mode_fatal():
    with pytest.raises(CatalogError, match="mode"):
        parse_catalog("[]", mode="Q")


def test_invalid_json_fatal():
    with pytest.raises(CatalogError, match="JSON"):
        parse_catalog("[{not json")


@pytest.mark.parametrize("text", ["[" * 100_000, "[" + "1" * 5000 + "]"],
                         ids=["deep-nesting", "long-integer"])
def test_json_the_parser_refuses_fatal(text):
    # json raises RecursionError and ValueError here, not JSONDecodeError.
    with pytest.raises(CatalogError, match="JSON"):
        parse_catalog(text)


def test_subset_catalog(catalog_m):
    sub = subset_catalog(catalog_m, ["chmod", "READ_SMS"])
    assert sub.names == ("READ_SMS", "chmod")  # file order kept, not request order
    assert [d.index for d in sub] == [0, 1]
    with pytest.raises(CatalogError, match="nonexistent"):
        subset_catalog(catalog_m, ["nonexistent"])


def test_by_name_missing(catalog_m):
    with pytest.raises(CatalogError):
        catalog_m.by_name("NOT_A_FEATURE")


@pytest.mark.parametrize("pattern", ["foo\nbar", "foo\r", "a\u2028b", ["Runtime", "exec(\x85"]])
def test_line_break_in_pattern_fatal(pattern):
    text = json.dumps([_entry("broken", kind="string-token", pattern=pattern)])
    with pytest.raises(CatalogError, match="'broken'.*line break"):
        parse_catalog(text)


def test_non_string_pattern_part_fatal():
    text = json.dumps([_entry("broken", kind="api-call", pattern=["Runtime", 7])])
    with pytest.raises(CatalogError, match="'broken'"):
        parse_catalog(text)


@pytest.mark.parametrize("entry, message", [
    pytest.param({"name": ["x"]}, r"name \['x'\] is not a non-empty string", id="list-name"),
    pytest.param({"name": ""}, "name '' is not a non-empty string", id="empty-name"),
    pytest.param({"pattern": {"a": 1}}, "pattern must be a non-empty string", id="object-pattern"),
    pytest.param({"pattern": 7}, "pattern must be a non-empty string", id="number-pattern"),
    pytest.param({"scopes": "code"}, "scopes must be a list of strings", id="string-scopes"),
    pytest.param({"scopes": [["code"]]}, "scopes must be a list of strings", id="nested-scopes"),
    pytest.param({"name": "\ud800"}, "encodable as UTF-8", id="surrogate-name"),
    pytest.param({"pattern": ["Runtime", "\udcff"]}, "encodable as UTF-8", id="surrogate-part"),
])
def test_malformed_entry_fatal(entry, message):
    # Each used to load as the text of a Python value, fail on a scope
    # letter, or raise UnicodeEncodeError instead of CatalogError.
    text = json.dumps([{**_entry("chmod", kind="system-command"), **entry}])
    with pytest.raises(CatalogError, match=message):
        parse_catalog(text)


def test_scan_plan_partitions_catalog(catalog_m):
    plan = catalog_m.plan
    assert plan is catalog_m.plan  # derived once per catalog
    assert plan.permissions["android.permission.READ_SMS"] == (
        catalog_m.by_name("READ_SMS").index,)
    assert len(plan.permissions) == 131
    assert set(plan.content) == set(plan.suffixes) == set(Scope)  # every scope is a key
    code = {d.name: d for d in plan.content[Scope.CODE]}
    assert code["chmod"].needle == b"chmod"
    assert code["Runtime.exec"].needle is None  # compound: matched line by line
    for d in catalog_m:  # each feature sits under exactly its scopes, in catalog order
        for kinds, by_scope in ((CONTENT_KINDS, plan.content), ({"payload-extension"}, plan.suffixes)):
            assert {s for s in Scope if d in by_scope[s]} == (d.scopes if d.kind in kinds else set())
    for group in (*plan.content.values(), *plan.suffixes.values()):
        assert [d.index for d in group] == sorted(d.index for d in group)
    code_walk, payload_walk = plan.watched  # the features each walk serves, by index
    assert code_walk == tuple(d.index for d in plan.content[Scope.CODE])
    assert set(payload_walk) == {d.index for s in PAYLOAD_SCOPES
                                 for d in plan.content[s] + plan.suffixes[s]}
    assert list(payload_walk) == sorted(payload_walk)
    assert {d.name for d in plan.content[Scope.ASSETS]} >= {"chmod", "JNI_OnLoad"}
    assert "getDeviceId" not in {d.name for s in PAYLOAD_SCOPES for d in plan.content[s]}
    assert [d.name for d in plan.suffixes[Scope.ASSETS]] == [".apk", ".jar", ".so"]


def test_scan_plan_non_ascii_and_shared_permission():
    text = json.dumps([
        _entry("SMS_A", pattern="READ_SMS"),
        _entry("SMS_B", pattern="READ_SMS"),
        _entry("key", kind="string-token", pattern="Schlüssel", scopes=["code", "native-lib"]),
    ])
    plan = parse_catalog(text).plan
    assert plan.permissions == {"android.permission.READ_SMS": (0, 1)}
    (key,) = plan.content[Scope.CODE]
    assert key.needle is None and key.encoded == ("Schlüssel".encode("utf-8"),)
    assert plan.content[Scope.NATIVE_LIB] == (key,)
    assert plan.content[Scope.ASSETS] == plan.content[Scope.RESOURCES] == ()
    assert plan.watched == ((2,), (2,))


def _build_catalog_tool():
    spec = importlib.util.spec_from_file_location(
        "build_catalog", Path(__file__).resolve().parents[1] / "tools" / "build_catalog.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_roundtrip_byte_identical():
    # The canonical serializer lives with its one caller, the catalog builder.
    text = builtin_catalog()
    assert _build_catalog_tool().serialize_catalog(parse_catalog(text, "M")) == text


def test_build_catalog_tool_reproduces_shipped_file():
    assert _build_catalog_tool().catalog_text() == builtin_catalog()
