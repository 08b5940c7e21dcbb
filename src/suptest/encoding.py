"""Canonical textual encoding, fingerprints and the one input reader.

Every artefact written by the toolkit is compact canonical JSON (sorted
keys, no whitespace, one trailing newline), so repeated runs with the same
configuration produce byte-identical files.  A fingerprint is the
blake2b-64 of an object's compact canonical encoding: of an artefact's
payload, which is its file without the `derivedFrom` key.  `cli`'s writer
streams an artefact's file and its payload's fingerprint from one encoding.
FNV-1a (:func:`fnv1a64`) only labels DOT edges.  Every JSON file the toolkit
reads goes through :func:`read_artifact`, so every refusal of an input names
its file, and each list-valued key of it through :func:`list_at` and each
object-valued key through :func:`object_at`.
"""

from __future__ import annotations

import json

# Reserved output marker used when an incomplete state is closed off with a
# self-loop; it is not a valuation and encodes as the bare token "nil".
NIL_TEXT = "nil"


# The compact canonical encoder of wire valuations and artefacts, built once:
# `json.dumps` with any non-default argument builds a new encoder on every
# call.  Without `indent` it runs json's C encoder.
_COMPACT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                    ensure_ascii=False)


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


def encode_compact(obj: object) -> str:
    """The compact canonical encoding of `obj`: sorted keys, no whitespace
    and no trailing newline."""
    return _COMPACT_ENCODER.encode(obj)


def canonical_dumps(obj: object, compact: bool = False) -> str:
    """Stable JSON with sorted object keys and one trailing newline: with a
    two-space indent, or with `compact` on one line without whitespace (the
    form of artefact files and fingerprints)."""
    if compact:
        return _COMPACT_ENCODER.encode(obj) + "\n"
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def decode_valuation(text: str) -> dict | None:
    text = text.strip()
    if text == NIL_TEXT:
        return None
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError(f"not a valuation: {text!r}")
    return obj


def encode_step(v: dict | str | None) -> str:
    """Wire form of one step payload: a bare symbol as it is, ``None`` (the
    reserved nil output) as ``nil``, and a valuation in its single-line
    canonical encoding, keys sorted ascending."""
    if v is None:
        return NIL_TEXT
    if isinstance(v, str):
        return v
    return _COMPACT_ENCODER.encode(v)


def is_wire_valuation(v: object) -> bool:
    """Whether `v` is a valuation the wire can carry: an object whose values
    are strings, or ints that are not bools."""
    return isinstance(v, dict) and all(type(x) is str or type(x) is int for x in v.values())


def decode_step(text: str) -> dict | str | None:
    """Inverse of :func:`encode_step`.  A valuation must be a wire valuation
    (:func:`is_wire_valuation`)."""
    text = text.strip()
    if text == NIL_TEXT:
        return None
    if text.startswith("{"):
        v = decode_valuation(text)
        if not is_wire_valuation(v):
            raise ValueError(f"not a valuation of strings and integers: {text!r}")
        return v
    return text


def fingerprint(obj: object) -> str:
    """16 hex digits: blake2b-64 of an object's compact canonical encoding."""
    import hashlib  # here, not above: a spawned SUT never fingerprints

    data = canonical_dumps(obj, compact=True).encode("utf-8")
    return hashlib.blake2b(data, digest_size=8).hexdigest()


def list_at(obj: dict, key: str) -> list:
    """`obj[key]`, refused unless it is a list: a reader would take a
    string there character by character, and an object key by key."""
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return value


def object_at(obj: dict, key: str) -> dict:
    """`obj[key]`, refused unless it is an object: a reader would take a
    list of pairs there as if it were one, or fail on it in Python's words."""
    value = obj[key]
    if not isinstance(value, dict):
        raise ValueError(f"{key} must be an object, got {value!r}")
    return value


def string_at(obj: dict, key: str) -> str:
    """`obj[key]`, refused unless it is a string: a reader would take any
    other value as the name it gives."""
    value = obj[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


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
