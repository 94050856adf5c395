"""Result cache: content-addressed JSON documents, atomic writes.

Keys hash the canonical problem identity (field, variables, sorted reduced
basis) together with the operation, its parameters, the tool version and the
report schema version, so permuting the generator list hits the same entry
while a different seed, mode or release does not.  Corrupt entries are
ignored and recomputed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

from ._version import __version__
from .reports import SCHEMA_VERSION

ENV_CACHE_DIR = "RRCLOSURE_CACHE_DIR"


def default_cache_dir() -> str | None:
    return os.environ.get(ENV_CACHE_DIR) or None


def cache_key(field_name: str, variables, basis_strings, operation: str, params: dict) -> str:
    payload = json.dumps(
        {
            "field": field_name,
            "variables": list(variables),
            "reduced_basis": sorted(basis_strings),
            "operation": operation,
            "params": params,
            "tool_version": __version__,
            "schema_version": SCHEMA_VERSION,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_path(directory: str, key: str) -> str:
    return os.path.join(directory, key + ".json")


def lookup(directory: str, key: str) -> dict | None:
    try:
        with open(_entry_path(directory, key), "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return None


def store(directory: str, key: str, doc: dict) -> None:
    os.makedirs(directory, exist_ok=True)
    data = json.dumps(doc, indent=2) + "\n"
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, _entry_path(directory, key))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
