import ast
from pathlib import Path

import omtl


def json_parse_calls(path: Path) -> list[int]:
    """Lines of path that call json.load or json.loads, or import either."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(a.name in ("load", "loads") for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_only_fields_parses_json():
    # every input file is read through omtl.fields, so its checks on
    # unreadable, undecodable and unparsable files hold for every loader
    parsers = {path.name for path in Path(omtl.__file__).parent.glob("*.py")
               if json_parse_calls(path)}
    assert parsers == {"fields.py"}
