"""Binary bundle files: magic 'SKSQ', versioned, checksummed.

Layout (all integers little-endian):

    bytes 0-3    magic b"SKSQ"
    u32          format version (currently 1)
    u64          metadata length, then that many bytes of canonical JSON
    u32          array count
    per array:   u16 name length, name (utf-8),
                 u8 ndim, ndim x u64 dims,
                 float64 little-endian data
    sha256       32-byte digest of everything above

Loading verifies magic, version, structural completeness, and the
digest, raising a distinct error for each failure mode, and refuses an
array name that is not UTF-8 or an array that is not finite.  Weights round
trip bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import sys
from dataclasses import asdict

import numpy as np

from .data import MinMaxStats, ScoreStats
from .layers import LayerSpec, param_shapes
from .model import ModelBundle
from .modes import MODES
from .reports import quoted

__all__ = [
    "BundleFormatError",
    "BundleVersionError",
    "BundleTruncatedError",
    "BundleChecksumError",
    "save_bundle",
    "load_bundle",
    "BUNDLE_VERSION",
]

MAGIC = b"SKSQ"
BUNDLE_VERSION = 1


class BundleFormatError(ValueError):
    """File is not a bundle or violates the structure."""


class BundleVersionError(BundleFormatError):
    """Bundle was written by an unsupported format version."""


class BundleTruncatedError(BundleFormatError):
    """File ends before the declared content."""


class BundleChecksumError(BundleFormatError):
    """Content does not match the stored digest."""


def _mode_fixed(bundle):
    """The metadata that a bundle's mode fixes, written for the record:
    only a ``head`` group trains, and the class names are the bundle's."""
    names = bundle.class_names
    return {"trainable": {g: g == "head" for g in bundle.groups},
            "class_names": list(names) if names else None}


def _meta_dict(bundle):
    return {
        "mode": bundle.mode,
        "groups": {g: [asdict(s) for s in specs] for g, specs in bundle.groups.items()},
        "minmax": bundle.minmax.to_dict(),
        "score_stats": bundle.score_stats.to_dict() if bundle.score_stats else None,
        **_mode_fixed(bundle),
    }


def _canonical(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def save_bundle(bundle, path):
    meta = _canonical(_meta_dict(bundle)).encode("utf-8")
    parts = [MAGIC, struct.pack("<I", BUNDLE_VERSION), struct.pack("<Q", len(meta)), meta]
    names = sorted(bundle.weights)
    parts.append(struct.pack("<I", len(names)))
    for name in names:
        nb = name.encode("utf-8")
        arr = np.ascontiguousarray(bundle.weights[name], dtype="<f8")
        parts.append(struct.pack("<H", len(nb)))
        parts.append(nb)
        parts.append(struct.pack("<B", arr.ndim))
        for d in arr.shape:
            parts.append(struct.pack("<Q", d))
        parts.append(arr.tobytes())
    body = b"".join(parts)
    digest = hashlib.sha256(body).digest()
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)


_U16, _U32, _U64 = (struct.Struct(f) for f in ("<H", "<I", "<Q"))


def _truncated(path, body, pos, n, what):
    return BundleTruncatedError(
        f"{path}: truncated bundle: needed {n} bytes for {what} at offset {pos}, "
        f"file has {len(body) - pos} left"
    )


def _read_arrays(path, body, pos, n_arrays):
    """``{name: array}`` of ``n_arrays`` arrays from ``pos``, and the offset
    after them.  Each field is bounds-checked before it is read, and the
    first that does not fit raises ``_truncated`` naming it.  A name not in
    UTF-8, or an array holding NaN or an infinity, raises BundleFormatError."""
    end = len(body)
    weights = {}
    for _ in range(n_arrays):
        if pos + 2 > end:
            raise _truncated(path, body, pos, 2, "array name length")
        nlen = _U16.unpack_from(body, pos)[0]
        pos += 2
        if pos + nlen > end:
            raise _truncated(path, body, pos, nlen, "array name")
        try:
            name = body[pos:pos + nlen].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BundleFormatError(f"{path}: array name is not UTF-8 (byte 0x"
                                    f"{body[pos + exc.start]:02x} at offset {pos + exc.start}: "
                                    f"{exc.reason})") from None
        pos += nlen
        if pos + 1 > end:
            raise _truncated(path, body, pos, 1, "array ndim")
        ndim = body[pos]
        pos += 1
        if pos + 8 * ndim > end:
            raise _truncated(path, body, pos + 8 * ((end - pos) // 8), 8, "array dim")
        shape = struct.unpack_from(f"<{ndim}Q", body, pos)
        pos += 8 * ndim
        count = math.prod(shape)
        if pos + 8 * count > end:
            raise _truncated(path, body, pos, 8 * count, f"array '{name}' data")
        values = np.frombuffer(body, "<f8", count, pos)
        if not np.isfinite(values).all():
            raise BundleFormatError(f"{path}: array {quoted(name)} holds a non-finite value")
        weights[name] = values.copy().reshape(shape)
        pos += 8 * count
    return weights, pos


def load_bundle(path):
    """The bundle in the file ``path``.  The mode fixes two metadata
    fields: ``trainable`` is true for a ``head`` group only, and
    ``class_names`` is ``["pass", "fail"]`` for a classifier, else null.
    A file holding anything else there (``1`` does not pass for
    ``true``) is refused, naming the file and the field."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != MAGIC:
        raise BundleFormatError(f"{path}: not a bundle file (bad magic)")
    if len(blob) < 4 + 4 + 32:
        raise BundleTruncatedError(f"{path}: too short to contain a bundle")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise BundleChecksumError(f"{path}: checksum mismatch; file is corrupt")
    version = _U32.unpack_from(body, 4)[0]  # the body holds at least 8 bytes
    if version != BUNDLE_VERSION:
        raise BundleVersionError(
            f"{path}: format version {version} unsupported (expected {BUNDLE_VERSION})"
        )
    if len(body) < 16:
        raise _truncated(path, body, 8, 8, "metadata length")
    meta_len = _U64.unpack_from(body, 8)[0]
    if 16 + meta_len > len(body):
        raise _truncated(path, body, 16, meta_len, "metadata")
    try:
        meta = json.loads(body[16:16 + meta_len].decode("utf-8"))
    except ValueError as e:  # bad UTF-8 or JSON, or an integer of too many digits
        raise BundleFormatError(f"{path}: bad metadata block ({e})")
    pos = 16 + meta_len
    if pos + 4 > len(body):
        raise _truncated(path, body, pos, 4, "array count")
    weights, pos = _read_arrays(path, body, pos + 4, _U32.unpack_from(body, pos)[0])
    if pos != len(body):
        raise BundleFormatError(f"{path}: {len(body) - pos} unexpected trailing bytes")

    return _bundle(path, meta, weights)


_META_FIELDS = ("class_names", "groups", "minmax", "mode", "score_stats", "trainable")
# JSON values have exact types, so ``type(v) in types`` also keeps true and
# false (bools) out of number fields
_STR = ((str,), "a string")
_INT = ((int,), "an integer")
_NUMBER = ((int, float), "a number")
_FLOAT_MAX = sys.float_info.max
_SPEC_FIELDS = {"kind": _STR, "in_channels": _INT, "out_channels": _INT, "kernel_size": _INT,
                "dilation": _INT, "reduction": _INT, "sigma": _NUMBER}


class _MetaCheck:
    """Checks of a bundle's metadata fields, each raising BundleFormatError
    that names the file and the field."""

    def __init__(self, path):
        self.path = path

    def fault(self, field, problem):
        return BundleFormatError(f"{self.path}: bad metadata: {quoted(field)} {problem}")

    def obj(self, field, value, keys=None):
        """``value`` as an object; with ``keys``, holding exactly those."""
        if type(value) is not dict:
            raise self.fault(field, f"must be an object, got {quoted(value)}")
        if keys is not None:
            for key in keys:
                if key not in value:
                    raise self.fault(f"{field}.{key}" if field else key, "is missing")
            for key in value:
                if key not in keys:
                    raise self.fault(f"{field}.{key}" if field else key, "is not a known key")
        return value

    def typed(self, field, value, kind):
        """``value`` of ``kind``; a number within float range, as JSON need not be."""
        if type(value) not in kind[0]:
            raise self.fault(field, f"must be {kind[1]}, got {quoted(value)}")
        if kind is _NUMBER and abs(value) > _FLOAT_MAX:
            raise self.fault(field, f"must lie within float range, got {quoted(value)}")
        return value

    def items(self, field, value, kind, n=None):
        """A list of ``kind`` values (``n`` of them, if given)."""
        if type(value) is not list or n is not None and len(value) != n:
            count = "" if n is None else f"{n} "
            raise self.fault(field, f"must be a list of {count}values, each {kind[1]}, "
                                    f"got {quoted(value)}")
        for i, v in enumerate(value):
            if type(v) not in kind[0] or kind is _NUMBER and abs(v) > _FLOAT_MAX:
                self.typed(f"{field}[{i}]", v, kind)  # raises
        return value

    def spec(self, field, d):
        self.obj(field, d, _SPEC_FIELDS)
        for key, kind in _SPEC_FIELDS.items():
            if type(d[key]) not in kind[0] or kind is _NUMBER and abs(d[key]) > _FLOAT_MAX:
                self.typed(f"{field}.{key}", d[key], kind)  # raises
        try:
            return LayerSpec(**d)
        except ValueError as exc:
            raise self.fault(field, f"is not a valid layer: {exc}") from None


def _bundle(path, meta, weights):
    """The bundle that ``meta`` describes over ``weights``.  A metadata
    field that is missing, unknown or of the wrong type or length, a
    min-max range that is not positive, or an array whose shape its layer
    spec does not give, or a field that the mode fixes (``_mode_fixed``)
    holding another value, raises BundleFormatError naming the file and
    the field or array.  Every bundle carries the min-max statistics its
    input is scaled by, and a regression bundle its score statistics."""
    check = _MetaCheck(path)
    if type(meta) is not dict:
        raise BundleFormatError(f"{path}: bad metadata: not a JSON object")
    check.obj("", meta, _META_FIELDS)
    mode = check.typed("mode", meta["mode"], _STR)
    groups = {}
    for g, specs in check.obj("groups", meta["groups"]).items():
        if type(specs) is not list:
            raise check.fault(f"groups.{g}", f"must be a list of layers, got {quoted(specs)}")
        groups[g] = tuple([check.spec(f"groups.{g}[{i}]", d) for i, d in enumerate(specs)])
    minmax = check.obj("minmax", meta["minmax"], ("channels", "mins", "maxs", "source_ids"))
    channels = check.items("minmax.channels", minmax["channels"], _STR)
    n = len(channels)
    mins = check.items("minmax.mins", minmax["mins"], _NUMBER, n)
    maxs = check.items("minmax.maxs", minmax["maxs"], _NUMBER, n)
    for i in range(n):  # apply_minmax divides by the range; each end is within float range
        low, high = float(mins[i]), float(maxs[i])
        if not high > low:
            raise check.fault(f"minmax.maxs[{i}]", f"must exceed minmax.mins[{i}] "
                              f"({low!r}) for channel {quoted(channels[i])}, got {high!r}")
    check.items("minmax.source_ids", minmax["source_ids"], _STR)
    minmax = MinMaxStats.from_dict(minmax)
    stats = meta["score_stats"]
    if stats is not None or (mode in MODES and not MODES[mode].classes):
        check.obj("score_stats", stats, ("mean", "std", "source_ids"))
        check.typed("score_stats.mean", stats["mean"], _NUMBER)
        check.typed("score_stats.std", stats["std"], _NUMBER)
        check.items("score_stats.source_ids", stats["source_ids"], _STR)
        stats = ScoreStats.from_dict(stats)
    for g, specs in groups.items():
        for i, spec in enumerate(specs):
            for field, shape in param_shapes(spec).items():
                key = f"{g}/{i}.{field}"
                if key not in weights:
                    continue  # ModelBundle names the missing array
                # save_bundle writes a 0-d array (the sCSE spatial bias) with
                # shape (1,), as np.ascontiguousarray returns at least 1-d; the
                # spec restores its shape
                if shape == () and weights[key].shape == (1,):
                    weights[key] = weights[key].reshape(())
                if weights[key].shape != shape:
                    raise BundleFormatError(f"{path}: array '{key}' has shape "
                                            f"{weights[key].shape}; its layer needs {shape}")
    try:
        bundle = ModelBundle(mode=mode, groups=groups, weights=weights, minmax=minmax,
                             score_stats=stats)
    except ValueError as exc:
        raise BundleFormatError(f"{path}: {exc}") from None
    for field, value in _mode_fixed(bundle).items():
        want, got = _canonical(value), _canonical(meta[field])
        if got != want:
            raise check.fault(field, f"must be {want} for mode '{mode}', got {quoted(got)}")
    return bundle
