"""Reading outside input. Scenario configs, topologies, states, chains and
catalogs all go through the YAML loader and the number, bool and list rules
here, so a malformed document is refused alike (ConfigError, exit 2) in any
file."""

import sys

import yaml

from .errors import ConfigError

# libyaml where it is installed; it builds the same documents, faster.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

_ITEMS = {str: "strings", dict: "mappings", list: "lists"}


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
    name = f"{where}.{key}" if where else key
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
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def list_of(doc: dict, where: str, key: str, kind: type) -> list:
    """doc[key], or [] when key is absent; anything but a list of kind items
    (str, dict or list) raises ConfigError naming where.key, so a bare
    string never reads as its letters."""
    value = doc.get(key, [])
    if not isinstance(value, list) or not all(isinstance(v, kind) for v in value):
        name = f"{where}.{key}" if where else key
        raise ConfigError(f"{name} must be a list of {_ITEMS[kind]}, got {value!r}")
    return value
