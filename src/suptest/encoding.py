"""Canonical textual encoding, fingerprints and the one input reader.

Every artefact written by the toolkit goes through :func:`canonical_dumps`
so that repeated runs with the same configuration produce byte-identical
files, and fingerprints computed over those files are stable.  Every JSON
file the toolkit reads goes through :func:`read_artifact`, so every refusal
of an input names its file.
"""

from __future__ import annotations

import json
from typing import Any

# Reserved output marker used when an incomplete state is closed off with a
# self-loop; it is not a valuation and encodes as the bare token "nil".
NIL_TEXT = "nil"


class ArtifactError(Exception):
    """An input file refused; the message reads `<path>: <cause>`."""


_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return h


def canonical_dumps(obj: Any) -> str:
    """Stable multi-line JSON: sorted object keys, two-space indent."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def encode_valuation(v: dict | None) -> str:
    """Single-line canonical encoding of a valuation (keys sorted ascending).

    ``None`` stands for the reserved nil output and encodes as ``nil``.
    """
    if v is None:
        return NIL_TEXT
    return json.dumps(v, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def decode_valuation(text: str) -> dict | None:
    text = text.strip()
    if text == NIL_TEXT:
        return None
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"not a valuation: {text!r}")
    return obj


def encode_step(v: dict | str | None) -> str:
    """Wire form of one step payload: valuation, bare symbol, or nil."""
    if v is None:
        return NIL_TEXT
    if isinstance(v, str):
        return v
    return encode_valuation(v)


def decode_step(text: str) -> dict | str | None:
    text = text.strip()
    if text == NIL_TEXT:
        return None
    if text.startswith("{"):
        return decode_valuation(text)
    return text


def fingerprint(obj: Any) -> str:
    """Hex fingerprint of an object's canonical encoding."""
    return format(fnv1a64(canonical_dumps(obj).encode("utf-8")), "016x")


def read_artifact(path, from_obj):
    """`from_obj(doc)` for the JSON object `doc` held in the file `path`.

    Any refusal (the file system, the JSON syntax, a document that is not an
    object, a missing key or any error of `from_obj`) is one ArtifactError
    naming `path`, with the cause chained.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError("expected a JSON object")
        return from_obj(doc)
    except KeyError as exc:
        raise ArtifactError(f"{path}: missing key {exc}") from exc
    except OSError as exc:
        raise ArtifactError(f"{path}: {exc.strerror or exc}") from exc
    except Exception as exc:
        raise ArtifactError(f"{path}: {exc}") from exc
