"""Canonical textual encoding, fingerprints and the one input reader.

Every artefact written by the toolkit is compact canonical JSON (sorted
keys, no whitespace, one trailing newline), so repeated runs with the same
configuration produce byte-identical files.  A fingerprint is the
blake2b-64 of an object's compact canonical encoding: of an artefact's
payload, which is its file without the `derivedFrom` key.  `cli`'s writer
streams an artefact's file and its payload's fingerprint from one encoding.
FNV-1a (:func:`fnv1a64`) only labels DOT edges.  Every JSON file the toolkit
reads goes through :func:`read_artifact`, so every refusal of an input names
its file, and each value a reader takes from it through :func:`value_at`
(a value it reaches otherwise, as a risk state's phase, through
:func:`checked`), so every value of the wrong type is refused in one form:
`<key>[<index>] must be <kind>, got <value>`.
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


# How a refusal names each kind of value a reader takes.
_KIND_NAMES = {list: "a list", dict: "an object", str: "a string", int: "an int",
               bool: "a bool"}

_REQUIRED = object()


def checked(value, kind, key: str, index: int | None = None):
    """`value`, read at `key` (at its item `index`, if given), refused
    unless it is of `kind`: `list`, `dict`, `str`, `bool`, `int` (which a
    bool is not), or a tuple of the literals it may be."""
    if type(kind) is tuple:
        if value in kind:
            return value
        want = "one of " + ", ".join(map(repr, kind))
    elif type(value) is int if kind is int else isinstance(value, kind):
        return value
    else:
        want = _KIND_NAMES[kind]
    where = key if index is None else f"{key}[{index}]"
    raise ValueError(f"{where} must be {want}, got {value!r}")


def value_at(obj: dict, key: str, kind, items=None, default=_REQUIRED):
    """`obj[key]`, or `default` where `key` is missing and a default is
    given, refused unless it is of `kind` and, for a list, each of its items
    of `items` (see :func:`checked`).  A reader would take a value of
    another type as it is, character by character or key by key, or fail
    on it in Python's words.  A value of exactly the type `kind` is taken
    without a call of :func:`checked`, which accepts it too: a suite's read
    takes two values of each of its many cases."""
    value = obj[key] if default is _REQUIRED else obj.get(key, default)
    if type(value) is not kind:
        checked(value, kind, key)
    if items is not None:
        for i, item in enumerate(value):
            if type(item) is not items:
                checked(item, items, key, i)
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
