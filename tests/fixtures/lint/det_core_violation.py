"""Fixture: serialization-core order hazards (linted with det_all=True)."""

import json


def frame(payload):
    parts = []
    for key in payload.keys():  # DET006
        parts.append(key)
    for item in {"a", "b"}:  # DET007
        parts.append(item)
    return json.dumps(payload)  # DET008


def sorted_is_fine(payload):
    # The laundered forms stay legal: sorted() fixes the order.
    parts = [v for _, v in sorted((k, v) for k, v in payload.items())]
    for key in sorted(payload):
        parts.append(key)
    return json.dumps(payload, sort_keys=True)
