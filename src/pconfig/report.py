"""The one JSON serialiser shared by every report dataclass."""

from __future__ import annotations

import dataclasses
import json
import math


class Report:
    """Base of the frozen report dataclasses.

    ``to_dict`` lists the fields in declaration order; nested reports
    become dicts, tuples become lists and a NaN or infinite float
    becomes None, so the result is plain JSON.
    """

    def to_dict(self) -> dict:
        return {f.name: _plain(getattr(self, f.name))
                for f in dataclasses.fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _plain(value):
    if isinstance(value, Report):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value
