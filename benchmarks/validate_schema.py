"""Validate an observability artifact against its checked-in JSON schema.

A deliberately small, stdlib-only validator covering the subset of JSON
Schema the artifacts in ``benchmarks/schemas/`` use: ``type`` (including
type lists), ``const``, ``enum``, ``required``, ``properties``,
``additionalProperties`` (schema form), ``items``, and ``oneOf``.  CI
runs it so a refactor cannot silently change the
``--metrics-out``/``--trace-out`` formats that downstream tooling
(Perfetto, dashboards) consumes.

Usage::

    python benchmarks/validate_schema.py benchmarks/schemas/trace.schema.json trace.json

Importable too: :func:`validate` returns a list of human-readable error
strings (empty = valid).
"""

from __future__ import annotations

import json
import sys
from typing import Any, List

#: JSON Schema scalar type name -> accepted Python types.
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "integer": (int,),
    "number": (int, float),
    "boolean": (bool,),
    "null": (type(None),),
}


def _type_ok(value: Any, name: str) -> bool:
    accepted = _TYPES[name]
    if isinstance(value, bool) and name in ("integer", "number"):
        return False  # bool is an int subclass but not a JSON number
    return isinstance(value, accepted)


def validate(instance: Any, schema: dict, path: str = "$") -> List[str]:
    """Check ``instance`` against ``schema``; return error strings."""
    errors: List[str] = []

    expected = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_type_ok(instance, n) for n in names):
            errors.append(
                f"{path}: expected type {'/'.join(names)}, "
                f"got {type(instance).__name__}"
            )
            return errors  # structural checks below would only cascade

    if "const" in schema and instance != schema["const"]:
        errors.append(f"{path}: expected const {schema['const']!r}, "
                      f"got {instance!r}")
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not one of {schema['enum']!r}")

    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            if key not in instance:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        for key, value in instance.items():
            if key in properties:
                errors.extend(validate(value, properties[key], f"{path}.{key}"))
            elif isinstance(schema.get("additionalProperties"), dict):
                errors.extend(
                    validate(
                        value, schema["additionalProperties"], f"{path}.{key}"
                    )
                )

    if isinstance(instance, list) and isinstance(schema.get("items"), dict):
        for index, value in enumerate(instance):
            errors.extend(validate(value, schema["items"], f"{path}[{index}]"))

    alternatives = schema.get("oneOf")
    if isinstance(alternatives, list) and alternatives:
        attempts = [
            validate(instance, alternative, path)
            for alternative in alternatives
        ]
        if not any(not attempt for attempt in attempts):
            # No branch matched: report the closest one (fewest errors)
            # rather than every branch's noise.
            closest = min(attempts, key=len)
            errors.append(
                f"{path}: matches none of the {len(alternatives)} oneOf "
                f"alternatives; closest branch failed with:"
            )
            errors.extend(f"  {error}" for error in closest)

    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if len(argv) != 2:
        print(
            "usage: validate_schema.py <schema.json> <instance.json>",
            file=sys.stderr,
        )
        return 2
    schema_path, instance_path = argv

    def _read_json(path: str, role: str) -> Any:
        # A missing artifact is an operator error, not a crash: report
        # what could not be read and which role it played, no traceback.
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except OSError as exc:
            print(f"ERROR: cannot read {role} {path!r}: {exc.strerror or exc}",
                  file=sys.stderr)
        except json.JSONDecodeError as exc:
            print(f"ERROR: {role} {path!r} is not valid JSON: {exc}",
                  file=sys.stderr)
        except UnicodeDecodeError as exc:
            print(f"ERROR: {role} {path!r} is not UTF-8 text: {exc}",
                  file=sys.stderr)
        return None

    schema = _read_json(schema_path, "schema")
    if schema is None:
        return 2
    instance = _read_json(instance_path, "instance")
    if instance is None:
        return 2
    errors = validate(instance, schema)
    if errors:
        for error in errors:
            print(f"INVALID {instance_path}: {error}", file=sys.stderr)
        return 1
    print(f"{instance_path} conforms to {schema.get('title', schema_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
