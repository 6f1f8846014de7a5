"""Typed readers for the JSON documents nnrad reads: CLI configs and rotor layouts.

Each reader checks one field of a parsed document and returns its value,
or raises ConfigError (a ValueError) naming the field by its path in the
document, such as "t_end", "speeds[1]" or "elements[2].density".
"""

import json
import math

SCHEMA_VERSION = 1
_REQUIRED = object()  # the default of a record key that has none


class ConfigError(ValueError):
    pass


def read_json(path, what):
    """The JSON document at path, or a ConfigError naming what it is."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as err:  # ValueError: not JSON, or not UTF-8
        raise ConfigError(f"cannot read {what} {path}: {err}") from err


def check_schema(doc, what):
    """A ConfigError unless doc is an object that declares SCHEMA_VERSION."""
    version = doc.get("schema_version") if isinstance(doc, dict) else None
    if type(version) is not int or version != SCHEMA_VERSION:  # true == 1 == 1.0
        raise ConfigError(f"{what} must declare \"schema_version\": {SCHEMA_VERSION}")


def check_keys(doc, accepted, where):
    """A ConfigError naming the first key of doc that accepted lacks."""
    unknown = sorted(set(doc) - set(accepted))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} for {where}; accepted: "
                          + ", ".join(accepted))


def require(doc, key, field=None):
    """doc[key], or a ConfigError naming the missing field (key by default)."""
    if key not in doc:
        raise ConfigError(f"missing field \"{field or key}\"")
    return doc[key]


def as_number(value, field, integer=False):
    """A finite JSON number as a float (an int if integer), or a ConfigError naming field."""
    kinds = int if integer else (int, float)
    # json reads NaN, Infinity and -Infinity as floats.
    if (isinstance(value, bool) or not isinstance(value, kinds)
            or isinstance(value, float) and not math.isfinite(value)):
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"\"{field}\" must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def as_integer(value, field):
    return as_number(value, field, integer=True)


def at_least(reader, low, strict=False):
    """reader, then a ConfigError naming the field unless the value is at
    least low, or above it if strict."""
    def read(value, field):
        value = reader(value, field)
        if value < low or strict and value == low:
            raise ConfigError(f"\"{field}\" must be {'above' if strict else 'at least'} "
                              f"{low}, got {value!r}")
        return value
    return read


def as_text(value, field):
    """A JSON string, or a ConfigError naming field."""
    if not isinstance(value, str):
        raise ConfigError(f"\"{field}\" must be a string, got {value!r}")
    return value


def as_flag(value, field):
    """A JSON true or false, or a ConfigError naming field."""
    if not isinstance(value, bool):
        raise ConfigError(f"\"{field}\" must be true or false, got {value!r}")
    return value


def list_of(reader, length=None):
    """A reader of a JSON list, of length entries if length is given,
    whose entry i reader reads as field[i]."""
    def read(value, field):
        if not isinstance(value, list) or length is not None and len(value) != length:
            kind = "a list" if length is None else f"a list of length {length}"
            raise ConfigError(f"\"{field}\" must be {kind}, got {value!r}")
        return [reader(v, f"{field}[{i}]") for i, v in enumerate(value)]
    return read


numbers = list_of(as_number)
integers = list_of(as_integer)


def record(keys, build=dict):
    """A reader of a JSON object with the given keys and no others.

    keys maps each key to its reader, or to (reader, default) for an
    optional key: an absent one reads default instead, or is left out
    of the values if default is None.  build(**values) makes the
    record's value; a ValueError it raises, such as a dataclass's range
    check, becomes a ConfigError prefixed by the record's path (by
    nothing at the top level, path "").
    """
    def read(doc, path):
        if not isinstance(doc, dict):
            raise ConfigError(f"\"{path}\" must be an object, got {doc!r}")
        check_keys(doc, keys, f"\"{path}\"" if path else "the top level")
        values = {}
        for key, spec in keys.items():
            reader, default = spec if isinstance(spec, tuple) else (spec, _REQUIRED)
            field = f"{path}.{key}" if path else key
            if key in doc or default is _REQUIRED:
                values[key] = reader(require(doc, key, field), field)
            elif default is not None:
                values[key] = reader(default, field)
        try:
            return build(**values)
        except ValueError as err:
            raise ConfigError(f"\"{path}\": {err}" if path else str(err)) from err
    return read
