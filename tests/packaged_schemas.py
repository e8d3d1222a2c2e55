"""The JSON schemas shipped as package data, read from the source tree by path."""

import json
from pathlib import Path

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "market_eos" / "schemas"


def load_schema(name: str) -> dict:
    """The ``config``, ``surface`` or ``isocurves`` schema."""
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text("utf-8"))
