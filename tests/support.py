"""Shared test helpers.

``assert_bit_identical`` is the determinism-parity comparator: it walks
arbitrarily nested experiment outputs and requires *exact* value
equality — float bit patterns, numpy dtype/shape/bytes, dataclass
fields — without requiring pickle-byte equality (pickle's internal
memo structure differs between objects that crossed a process boundary
and objects that never left, even when every value is identical).

``golden_digest`` hashes a value along the same walk, so a committed
digest (``tests/golden.json``) can stand in for a second run to compare
against.
"""

import dataclasses
import enum
import hashlib
import struct
import types

import numpy as np


def assert_bit_identical(a, b, path="value"):
    """Require ``a`` and ``b`` to be exactly (bit-for-bit) equal values."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), f"{path}: key sets differ"
        for k in a:
            assert_bit_identical(a[k], b[k], f"{path}[{k!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), f"{path}: lengths differ"
        for i, (x, y) in enumerate(zip(a, b)):
            assert_bit_identical(x, y, f"{path}[{i}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape \
            and a.tobytes() == b.tobytes(), f"{path}: arrays differ"
    elif isinstance(a, float):
        assert struct.pack("<d", a) == struct.pack("<d", b), \
            f"{path}: {a!r} != {b!r} (bitwise)"
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            assert_bit_identical(getattr(a, f.name), getattr(b, f.name),
                                 f"{path}.{f.name}")
    elif hasattr(a, "__dict__") and not isinstance(a, type):
        assert vars(a).keys() == vars(b).keys(), f"{path}: attrs differ"
        for k in vars(a):
            assert_bit_identical(vars(a)[k], vars(b)[k], f"{path}.{k}")
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


def _walk(value, out):
    """Append a canonical token stream for ``value`` to ``out``.

    Mirrors :func:`assert_bit_identical`: containers and arrays by
    content, floats by ``repr`` (round-trip exact), dataclasses by field,
    other objects by ``vars()``, and functions/classes by
    ``module.qualname``.  Mapping and set members are sorted by their own
    encoding, so no raw ``repr`` (which may carry a memory address) ever
    reaches the digest.
    """
    kind = type(value)
    tag = f"{kind.__module__}.{kind.__qualname__}"
    if value is None or isinstance(value, (bool, int, str, bytes)):
        out.append(f"{tag}:{value!r}")
    elif isinstance(value, float):
        out.append(f"{tag}:{float(value)!r}")
    elif isinstance(value, np.ndarray):
        out.append(f"{tag}:{value.dtype.str}:{value.shape}:"
                   f"{hashlib.sha256(value.tobytes()).hexdigest()}")
    elif isinstance(value, np.generic):
        out.append(f"{tag}:{value.item()!r}")
    elif isinstance(value, enum.Enum):
        out.append(f"{tag}:{value.name}")
    elif isinstance(value, dict):
        items = sorted((_encode(k), _encode(v)) for k, v in value.items())
        out.append(f"{tag}{{{len(items)}")
        for k, v in items:
            out.extend((k, v))
        out.append("}")
    elif isinstance(value, (set, frozenset)):
        members = sorted(_encode(v) for v in value)
        out.append(f"{tag}{{{len(members)}")
        out.extend(members)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append(f"{tag}[{len(value)}")
        for item in value:
            _walk(item, out)
        out.append("]")
    elif isinstance(value, (type, types.FunctionType, types.BuiltinFunctionType,
                            types.MethodType)):
        owner = getattr(value, "__self__", None)
        if isinstance(value, types.MethodType):
            out.append(f"method:{value.__func__.__module__}."
                       f"{value.__func__.__qualname__}")
            _walk(owner, out)
        else:
            out.append(f"callable:{value.__module__}.{value.__qualname__}")
    elif dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        out.append(f"{tag}({len(fields)}")
        for f in fields:
            out.append(f.name)
            _walk(getattr(value, f.name), out)
        out.append(")")
    elif hasattr(value, "__dict__"):
        attrs = sorted(vars(value).items())
        out.append(f"{tag}({len(attrs)}")
        for name, attr in attrs:
            out.append(name)
            _walk(attr, out)
        out.append(")")
    else:
        raise TypeError(f"golden_digest cannot canonicalise {tag}")


def _encode(value):
    out = []
    _walk(value, out)
    return "\x1f".join(out)


def golden_digest(*values):
    """sha256 hex digest of ``values`` along the canonical walk."""
    return hashlib.sha256(_encode(values).encode("utf-8")).hexdigest()
