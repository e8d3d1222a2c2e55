"""The JSON schemas of the config and the exports, kept beside the tests and read by path."""

import json
from pathlib import Path

SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"


def load_schema(name: str) -> dict:
    """The ``config``, ``surface`` or ``isocurves`` schema."""
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8"))
