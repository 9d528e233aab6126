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
digest, raising a distinct error for each failure mode.  Weights round
trip bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct

import numpy as np

from .data import MinMaxStats, ScoreStats
from .layers import LayerSpec, _spec_param_shapes
from .model import ModelBundle

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


def _meta_dict(bundle):
    return {
        "mode": bundle.mode,
        "groups": {g: [s.to_dict() for s in specs] for g, specs in bundle.groups.items()},
        "trainable": dict(bundle.trainable),
        "minmax": bundle.minmax.to_dict() if bundle.minmax else None,
        "score_stats": bundle.score_stats.to_dict() if bundle.score_stats else None,
        "class_names": list(bundle.class_names) if bundle.class_names else None,
    }


def save_bundle(bundle, path):
    meta = json.dumps(_meta_dict(bundle), sort_keys=True, separators=(",", ":")).encode("utf-8")
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


def _truncated(body, pos, n, what):
    return BundleTruncatedError(
        f"truncated bundle: needed {n} bytes for {what} at offset {pos}, "
        f"file has {len(body) - pos} left"
    )


def _read_arrays(body, pos, n_arrays):
    """``{name: array}`` of ``n_arrays`` arrays from ``pos``, and the offset
    after them.  Each field is bounds-checked before it is read, and the
    first that does not fit raises ``_truncated`` naming it."""
    end = len(body)
    weights = {}
    for _ in range(n_arrays):
        if pos + 2 > end:
            raise _truncated(body, pos, 2, "array name length")
        nlen = _U16.unpack_from(body, pos)[0]
        pos += 2
        if pos + nlen > end:
            raise _truncated(body, pos, nlen, "array name")
        name = body[pos:pos + nlen].decode("utf-8")
        pos += nlen
        if pos + 1 > end:
            raise _truncated(body, pos, 1, "array ndim")
        ndim = body[pos]
        pos += 1
        if pos + 8 * ndim > end:
            raise _truncated(body, pos + 8 * ((end - pos) // 8), 8, "array dim")
        shape = struct.unpack_from(f"<{ndim}Q", body, pos)
        pos += 8 * ndim
        count = math.prod(shape)
        if pos + 8 * count > end:
            raise _truncated(body, pos, 8 * count, f"array '{name}' data")
        weights[name] = np.frombuffer(body, "<f8", count, pos).copy().reshape(shape)
        pos += 8 * count
    return weights, pos


def load_bundle(path):
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
        raise _truncated(body, 8, 8, "metadata length")
    meta_len = _U64.unpack_from(body, 8)[0]
    if 16 + meta_len > len(body):
        raise _truncated(body, 16, meta_len, "metadata")
    try:
        meta = json.loads(body[16:16 + meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise BundleFormatError(f"{path}: bad metadata block ({e})")
    pos = 16 + meta_len
    if pos + 4 > len(body):
        raise _truncated(body, pos, 4, "array count")
    weights, pos = _read_arrays(body, pos + 4, _U32.unpack_from(body, pos)[0])
    if pos != len(body):
        raise BundleFormatError(f"{path}: {len(body) - pos} unexpected trailing bytes")

    groups = {g: tuple(LayerSpec.from_dict(d) for d in specs)
              for g, specs in meta["groups"].items()}
    # save_bundle writes a 0-d array (the sCSE spatial bias) with shape (1,),
    # as np.ascontiguousarray returns at least 1-d; the spec restores its shape
    for g, specs in groups.items():
        for i, spec in enumerate(specs):
            for field, shape in _spec_param_shapes(spec).items():
                key = f"{g}/{i}.{field}"
                if shape == () and key in weights and weights[key].shape == (1,):
                    weights[key] = weights[key].reshape(())
    return ModelBundle(
        mode=meta["mode"],
        groups=groups,
        weights=weights,
        trainable=dict(meta["trainable"]),
        minmax=MinMaxStats.from_dict(meta["minmax"]) if meta["minmax"] else None,
        score_stats=ScoreStats.from_dict(meta["score_stats"]) if meta["score_stats"] else None,
        class_names=tuple(meta["class_names"]) if meta["class_names"] else None,
    )
