import dataclasses
import json
import re
from pathlib import Path

import pytest

from omtl.datastore import SynthConfig
from omtl.trainer import TrainConfig

README = Path(__file__).parents[1] / "README.md"


def config_list(title: str) -> dict:
    """The `name (default)` list README gives after title, defaults read
    as JSON."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(re.escape(title) + r"[^`]*`([^`]*)`", text).group(1)
    items = re.findall(r"(\w+) \(((?:[^()\[\]]|\[[^\]]*\])*)\)(?:, |$)", listed)
    assert ", ".join(f"{name} ({default})" for name, default in items) == listed
    return {name: json.loads(default) for name, default in items}


@pytest.mark.parametrize("title, cls", [("Train config: any subset of", TrainConfig),
                                        ("Synth config:", SynthConfig)])
def test_readme_config_defaults_are_the_dataclass_defaults(title, cls):
    defaults = {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                for f in dataclasses.fields(cls)}
    assert config_list(title) == defaults
