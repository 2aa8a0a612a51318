"""Reading outside input. Scenario configs, topologies, states, chains and
catalogs all go through the YAML loader and the number, bool, string and
list rules here, so a malformed document is refused alike (ConfigError,
exit 2) in any file."""

import sys
from functools import partial

import yaml

from .errors import ConfigError

# libyaml where it is installed; it builds the same documents, faster.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_ITEMS = {str: "strings", dict: "mappings", list: "lists", object: "items"}


def _name(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def load_yaml(path, text: str | None = None) -> dict:
    """The mapping that the YAML file at path holds, or that text holds when
    given (path then only names it). An unreadable or non-UTF-8 file, a YAML
    error or a document that is not a mapping raises ConfigError naming path."""
    try:
        if text is None:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        doc = yaml.load(text, Loader=_Loader)
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: bad UTF-8 or scalar
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a mapping, got {doc!r:.40}")
    return doc


def number(doc: dict, where: str, key: str, default=None, kind=float):
    """doc[key] as kind (float or int), or default as is when key is absent;
    with no default the key is mandatory. A non-number (a bool or a string
    too), NaN, a value past the float range and, for int, a fraction raise
    ConfigError naming where.key. An integral float counts as an integer."""
    if key not in doc and default is not None:
        return default
    value = doc.get(key)
    name = _name(where, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # false for NaN
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return kind(value)


def boolean(doc: dict, where: str, key: str, default: bool) -> bool:
    """doc[key], or default when key is absent; anything but a YAML bool
    (a quoted "false" or "no" too) raises ConfigError naming where.key."""
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{_name(where, key)} must be true or false, got {value!r}")
    return value


def string(doc: dict, where: str, key: str, default: str | None = None) -> str | None:
    """doc[key], or default when key is absent; anything but a string raises
    ConfigError naming where.key. A None default makes the key optional."""
    value = doc.get(key, default)
    if isinstance(value, str) or value is default is None:
        return value
    raise ConfigError(f"{_name(where, key)} must be a string, got {value!r}")


def list_of(doc: dict, where: str, key: str, kind: type) -> list:
    """doc[key], or [] when key is absent; anything but a list of kind items
    (str, dict, list, or object for any) raises ConfigError naming
    where.key, so a bare string never reads as its letters."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        raise ConfigError(f"{_name(where, key)} must be a list of {_ITEMS[kind]}, got {value!r}")
    return value


def known_keys(doc: dict, where: str, known) -> None:
    """Raises ConfigError naming the first key of doc outside known."""
    for key in doc:
        if key not in known:
            raise ConfigError(
                f"unknown key {_name(where, key)}; known: {', '.join(known) or 'none'}")


_RULES = {bool: boolean, int: partial(number, kind=int), float: number, str: string,
          type(None): string, tuple: lambda doc, where, key, _: list_of(doc, where, key, object)}


def section(doc, where: str, table: dict, known_only: bool = True) -> dict:
    """doc's value for each key of table (key -> default), by the rule of the
    default's type (None: an optional string; a tuple: a list). Raises
    ConfigError if doc is not a mapping or, known_only, holds a key outside table."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping, got {doc!r}")
    if known_only:
        known_keys(doc, where, table)
    return {key: _RULES[type(default)](doc, where, key, default) for key, default in table.items()}
