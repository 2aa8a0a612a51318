"""Reading outside input. Every document loopsim reads (scenario configs,
topologies and chains) goes through load_yaml and section, which reads a
mapping by a declared table, so a malformed document is refused alike
(ConfigError, exit 2) in any file. load_yaml loads the YAML parser on the
first document read, so a control plane built in code never loads it, and
refuses a mapping that repeats a key.

A table maps each key to its default, and the default's type is the kind:
- a bool, int, float or str: a value of that kind, the default when the key
  is absent (a number must be finite, an int integral; a bool is no number);
- a bare type (str, int, float, object for any value): the key is mandatory;
- kind | None: optional, None when the key is absent or null;
- a dict: a mapping, read by that table unless it is empty;
- a one-item list [kind]: a list of kind items; [table] reads each item by
  that table.
An absent or null mapping or list reads as an empty one.
"""

import functools
import sys
from types import UnionType

from .errors import ConfigError

_ITEMS = {str: "strings", dict: "mappings", list: "lists", object: "items"}
_KINDS = {bool: "true or false", str: "a string", dict: "a mapping"}
_MERGE = "tag:yaml.org,2002:merge"  # the tag of a merge key, <<


def load_yaml(path) -> dict:
    """The mapping that the YAML file at path holds. An unreadable or
    non-UTF-8 file, a YAML error, a repeated key or a document that is not a
    mapping raises ConfigError naming path."""
    import yaml  # here, so that a control plane built in code never loads it
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=_loader())  # a mark then names the file
    except (OSError, ValueError, yaml.YAMLError) as exc:  # ValueError: bad UTF-8 or scalar
        raise ConfigError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path} must hold a mapping, got {doc!r:.40}")
    return doc


@functools.cache
def _loader():
    """libyaml's safe loader where it is installed (it builds the same
    documents, faster), refusing a key that a mapping repeats; a merge key
    (<<) is no repeat."""
    import yaml

    class Loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
        def __init__(self, stream):
            super().__init__(stream)
            self.checked = set()

        def flatten_mapping(self, node):
            # Merging adds pairs to node.value, so a node's own keys are checked first, once.
            if node not in self.checked:
                self.checked.add(node)
                seen = set()
                for key_node, _ in node.value:
                    if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE:
                        key = self.construct_object(key_node)
                        if key in seen:
                            raise yaml.constructor.ConstructorError(
                                None, None, f"found duplicate key {key!r}", key_node.start_mark)
                        seen.add(key)
            super().flatten_mapping(node)

    return Loader


def section(doc, where: str, table: dict, known_only: bool = True) -> dict:
    """doc's value for each key of table, read by the kind of its default.
    Raises ConfigError naming where.key if doc is not a mapping, lacks a
    mandatory key, holds a value of another kind or, known_only (in nested
    tables too), a key outside table, listing the known ones."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a mapping, got {doc!r}")
    if known_only and not doc.keys() <= table.keys():
        key = next(key for key in doc if key not in table)
        raise ConfigError(f"unknown key {_name(where, key)}; known: {', '.join(table) or 'none'}")
    return {key: _value(doc, where, key, default, known_only) for key, default in table.items()}


def _name(where: str, key) -> str:
    return f"{where}.{key}" if where else str(key)


def _value(doc: dict, where: str, key: str, default, known_only: bool):
    value = doc.get(key)
    if isinstance(default, (bool, int, float, str)):
        return _read(value, where, key, type(default), known_only) if key in doc else default
    if isinstance(default, UnionType):  # kind | None
        return None if value is None else _read(value, where, key, default.__args__[0],
                                                known_only)
    if isinstance(default, type):  # mandatory
        if key not in doc:
            raise ConfigError(f"{where} {doc!r}: missing {key!r}" if where else f"missing {key!r}")
        return _read(value, where, key, default, known_only)
    return _read(type(default)() if value is None else value, where, key, default, known_only)


def _read(value, where: str, key: str, kind, known_only: bool):
    """value as kind; a value of another kind raises ConfigError naming where.key."""
    if kind is int or kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{_name(where, key)} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:  # false for NaN
            raise ConfigError(f"{_name(where, key)} must be a finite number, got {value!r}")
        if kind is int and value != int(value):
            raise ConfigError(f"{_name(where, key)} must be an integer, got {value!r}")
        return kind(value)
    if isinstance(kind, list):
        item = kind[0]
        if isinstance(value, list):
            if isinstance(item, dict):
                return [section(v, f"{_name(where, key)}[{i}]", item, known_only)
                        for i, v in enumerate(value)]
            if all(isinstance(v, item) for v in value):
                return value
        items = "mappings" if isinstance(item, dict) else _ITEMS[item]
        raise ConfigError(f"{_name(where, key)} must be a list of {items}, got {value!r}")
    if isinstance(kind, dict):
        if kind:
            return section(value, _name(where, key), kind, known_only)
        kind = dict
    if kind is not object and not isinstance(value, kind):
        raise ConfigError(f"{_name(where, key)} must be {_KINDS[kind]}, got {value!r}")
    return value
