"""Regenerate src/apksift/data/builtin_catalog.json.

Run from anywhere: ``python3 tools/build_catalog.py``.

Permissions are the 131 standard android.permission names of the
platform era, alphabetically. Code-based properties list the 25
documented high-signal entries first, then the remaining 33 drawn from
the same source categories (telephony/SMS/contacts APIs, internet
access, package-manager API, native code, reflection, cryptography,
background processes, system commands, shell paths, intent actions).
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from apksift.catalog import FeatureCatalog, FeatureDef, parse_catalog
from apksift.corpus import Scope

PERMISSIONS = [
    "ACCESS_CHECKIN_PROPERTIES", "ACCESS_COARSE_LOCATION", "ACCESS_FINE_LOCATION",
    "ACCESS_LOCATION_EXTRA_COMMANDS", "ACCESS_MOCK_LOCATION", "ACCESS_NETWORK_STATE",
    "ACCESS_SURFACE_FLINGER", "ACCESS_WIFI_STATE", "ACCOUNT_MANAGER", "ADD_VOICEMAIL",
    "AUTHENTICATE_ACCOUNTS", "BATTERY_STATS", "BIND_ACCESSIBILITY_SERVICE", "BIND_APPWIDGET",
    "BIND_DEVICE_ADMIN", "BIND_INPUT_METHOD", "BIND_REMOTEVIEWS", "BIND_TEXT_SERVICE",
    "BIND_VPN_SERVICE", "BIND_WALLPAPER", "BLUETOOTH", "BLUETOOTH_ADMIN", "BRICK",
    "BROADCAST_PACKAGE_REMOVED", "BROADCAST_SMS", "BROADCAST_STICKY", "BROADCAST_WAP_PUSH",
    "CALL_PHONE", "CALL_PRIVILEGED", "CAMERA", "CHANGE_COMPONENT_ENABLED_STATE",
    "CHANGE_CONFIGURATION", "CHANGE_NETWORK_STATE", "CHANGE_WIFI_MULTICAST_STATE",
    "CHANGE_WIFI_STATE", "CLEAR_APP_CACHE", "CLEAR_APP_USER_DATA", "CONTROL_LOCATION_UPDATES",
    "DELETE_CACHE_FILES", "DELETE_PACKAGES", "DEVICE_POWER", "DIAGNOSTIC", "DISABLE_KEYGUARD",
    "DUMP", "EXPAND_STATUS_BAR", "FACTORY_TEST", "FLASHLIGHT", "FORCE_BACK", "GET_ACCOUNTS",
    "GET_PACKAGE_SIZE", "GET_TASKS", "GLOBAL_SEARCH", "HARDWARE_TEST", "INJECT_EVENTS",
    "INSTALL_LOCATION_PROVIDER", "INSTALL_PACKAGES", "INTERNAL_SYSTEM_WINDOW", "INTERNET",
    "KILL_BACKGROUND_PROCESSES", "MANAGE_ACCOUNTS", "MANAGE_APP_TOKENS", "MASTER_CLEAR",
    "MODIFY_AUDIO_SETTINGS", "MODIFY_PHONE_STATE", "MOUNT_FORMAT_FILESYSTEMS",
    "MOUNT_UNMOUNT_FILESYSTEMS", "NFC", "PERSISTENT_ACTIVITY", "PROCESS_OUTGOING_CALLS",
    "READ_CALENDAR", "READ_CALL_LOG", "READ_CONTACTS", "READ_EXTERNAL_STORAGE",
    "READ_FRAME_BUFFER", "READ_HISTORY_BOOKMARKS", "READ_INPUT_STATE", "READ_LOGS",
    "READ_PHONE_STATE", "READ_PROFILE", "READ_SMS", "READ_SOCIAL_STREAM", "READ_SYNC_SETTINGS",
    "READ_SYNC_STATS", "READ_USER_DICTIONARY", "REBOOT", "RECEIVE_BOOT_COMPLETED",
    "RECEIVE_MMS", "RECEIVE_SMS", "RECEIVE_WAP_PUSH", "RECORD_AUDIO", "REORDER_TASKS",
    "RESTART_PACKAGES", "SEND_SMS", "SET_ACTIVITY_WATCHER", "SET_ALARM", "SET_ALWAYS_FINISH",
    "SET_ANIMATION_SCALE", "SET_DEBUG_APP", "SET_ORIENTATION", "SET_POINTER_SPEED",
    "SET_PREFERRED_APPLICATIONS", "SET_PROCESS_LIMIT", "SET_TIME", "SET_TIME_ZONE",
    "SET_WALLPAPER", "SET_WALLPAPER_HINTS", "SHUTDOWN", "SIGNAL_PERSISTENT_PROCESSES", "STATUS_BAR",
    "SUBSCRIBED_FEEDS_READ", "SUBSCRIBED_FEEDS_WRITE", "SYSTEM_ALERT_WINDOW",
    "UPDATE_DEVICE_STATS", "USE_CREDENTIALS", "USE_SIP", "VIBRATE", "WAKE_LOCK",
    "WRITE_APN_SETTINGS", "WRITE_CALENDAR", "WRITE_CALL_LOG", "WRITE_CONTACTS",
    "WRITE_EXTERNAL_STORAGE", "WRITE_GSERVICES", "WRITE_HISTORY_BOOKMARKS", "WRITE_PROFILE",
    "WRITE_SECURE_SETTINGS", "WRITE_SETTINGS", "WRITE_SMS", "WRITE_SOCIAL_STREAM",
    "WRITE_SYNC_SETTINGS", "WRITE_USER_DICTIONARY",
]

CODE = Scope.CODE.value
ASSETS = Scope.ASSETS.value
RES = Scope.RESOURCES.value
LIB = Scope.NATIVE_LIB.value

# (name, kind, pattern, scopes) - the 25 documented properties first.
CODE_PROPERTIES = [
    ("getSubscriberId", "api-call", "getSubscriberId", [CODE]),
    ("getDeviceId", "api-call", "getDeviceId", [CODE]),
    ("getSimSerialNumber", "api-call", "getSimSerialNumber", [CODE]),
    (".apk", "payload-extension", ".apk", [ASSETS, RES, LIB]),
    ("chmod", "system-command", "chmod", [CODE, ASSETS]),
    ("abortBroadcast", "api-call", "abortBroadcast", [CODE]),
    ("intent.action.BOOT_COMPLETED", "intent-action", "intent.action.BOOT_COMPLETED", [CODE]),
    ("Runtime.exec", "api-call", ["Runtime", "exec("], [CODE]),
    ("/system/app", "shell-path", "/system/app", [CODE, ASSETS, LIB]),
    ("getLine1Number", "api-call", "getLine1Number", [CODE]),
    ("/system/bin", "shell-path", "/system/bin", [CODE, ASSETS, LIB]),
    ("createSubprocess", "api-call", "createSubprocess", [CODE]),
    ("remount", "system-command", "remount", [CODE, ASSETS]),
    ("DexClassLoader", "api-call", "DexClassLoader", [CODE]),
    ("getSimOperator", "api-call", "getSimOperator", [CODE]),
    ("pm install", "system-command", "pm install", [CODE, ASSETS]),
    ("chown", "system-command", "chown", [CODE, ASSETS]),
    ("getCallState", "api-call", "getCallState", [CODE]),
    ("/system/bin/sh", "shell-path", "/system/bin/sh", [CODE, ASSETS, LIB]),
    (".jar", "payload-extension", ".jar", [ASSETS, RES, LIB]),
    ("mount", "system-command", "mount", [CODE, ASSETS]),
    ("KeySpec", "api-call", "KeySpec", [CODE]),
    ("SMSReceiver", "string-token", "SMSReceiver", [CODE, ASSETS, RES]),
    ("getNetworkOperator", "api-call", "getNetworkOperator", [CODE]),
    ("SecretKey", "api-call", "SecretKey", [CODE]),
    # Telephony / SMS / contacts APIs.
    ("sendTextMessage", "api-call", "sendTextMessage", [CODE]),
    ("sendMultipartTextMessage", "api-call", "sendMultipartTextMessage", [CODE]),
    ("divideMessage", "api-call", "divideMessage", [CODE]),
    ("getOriginatingAddress", "api-call", "getOriginatingAddress", [CODE]),
    ("getSimCountryIso", "api-call", "getSimCountryIso", [CODE]),
    ("content://sms", "string-token", "content://sms", [CODE, ASSETS, RES]),
    ("ContactsContract", "api-call", "ContactsContract", [CODE]),
    # Internet access.
    ("HttpPost", "api-call", "HttpPost", [CODE]),
    ("HttpGet", "api-call", "HttpGet", [CODE]),
    ("openConnection", "api-call", "openConnection", [CODE]),
    # Package-manager API.
    ("getInstalledPackages", "api-call", "getInstalledPackages", [CODE]),
    ("getPackageInfo", "api-call", "getPackageInfo", [CODE]),
    ("intent.action.PACKAGE_ADDED", "intent-action", "intent.action.PACKAGE_ADDED", [CODE]),
    # Native code presence.
    ("loadLibrary", "api-call", "loadLibrary", [CODE]),
    (".so", "payload-extension", ".so", [ASSETS, RES, LIB]),
    ("JNI_OnLoad", "string-token", "JNI_OnLoad", [CODE, ASSETS, LIB]),
    # Reflection.
    ("forName", "api-call", "forName", [CODE]),
    ("getDeclaredMethod", "api-call", "getDeclaredMethod", [CODE]),
    ("setAccessible", "api-call", "setAccessible", [CODE]),
    # Cryptography APIs.
    ("Cipher", "api-call", "Cipher", [CODE]),
    ("MessageDigest", "api-call", "MessageDigest", [CODE]),
    ("SecureRandom", "api-call", "SecureRandom", [CODE]),
    # Background / child processes.
    ("ProcessBuilder", "api-call", "ProcessBuilder", [CODE]),
    ("getRuntime", "api-call", "getRuntime", [CODE]),
    ("startService", "api-call", "startService", [CODE]),
    # System commands.
    ("insmod", "system-command", "insmod", [CODE, ASSETS]),
    ("killall", "system-command", "killall", [CODE, ASSETS]),
    ("reboot", "system-command", "reboot", [CODE, ASSETS]),
    ("getprop", "system-command", "getprop", [CODE, ASSETS]),
    # Shell paths.
    ("/system/xbin", "shell-path", "/system/xbin", [CODE, ASSETS, LIB]),
    ("/data/local/tmp", "shell-path", "/data/local/tmp", [CODE, ASSETS, LIB]),
    # Intent actions.
    ("intent.action.SMS_RECEIVED", "intent-action", "intent.action.SMS_RECEIVED", [CODE]),
    ("intent.action.NEW_OUTGOING_CALL", "intent-action", "intent.action.NEW_OUTGOING_CALL", [CODE]),
]


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


OUT = Path(__file__).resolve().parents[1] / "src" / "apksift" / "data" / "builtin_catalog.json"


def catalog_text() -> str:
    """The canonical JSON text of the default catalog."""
    assert len(PERMISSIONS) == 131, f"need 131 permissions, have {len(PERMISSIONS)}"
    assert len(CODE_PROPERTIES) == 58, f"need 58 code properties, have {len(CODE_PROPERTIES)}"
    defs = []
    for i, name in enumerate(PERMISSIONS):
        defs.append(
            FeatureDef(index=i, name=name, kind="permission", pattern=(name,),
                       scopes=frozenset({Scope.MANIFEST}))
        )
    for j, (name, kind, pattern, scopes) in enumerate(CODE_PROPERTIES):
        parts = tuple(pattern) if isinstance(pattern, list) else (pattern,)
        defs.append(
            FeatureDef(index=131 + j, name=name, kind=kind, pattern=parts,
                       scopes=frozenset(Scope(s) for s in scopes))
        )
    text = serialize_catalog(FeatureCatalog(defs=tuple(defs), mode="M"))
    parsed = parse_catalog(text, "M")  # self-check: loads cleanly
    assert len(parsed) == 189
    assert serialize_catalog(parsed) == text, "round-trip drift"
    return text


def main() -> None:
    OUT.write_text(catalog_text(), encoding="utf-8")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
