"""Every file the package writes goes through ``data.write_text``, which
writes a temp file beside the target and renames it over the target, so an
interrupted write never leaves a half-written artifact. This scan finds any
other write site in the package source and names it by file and line."""

import ast
from pathlib import Path

import gradmine

PACKAGE = Path(gradmine.__file__).parent


def _opens_for_writing(call):
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True  # a mode computed at run time may write
    return any(c in mode.value for c in "wxa")


def write_sites(source, name):
    """``name:line`` of each write outside ``write_text`` in ``source``:
    an ``open`` whose mode writes, creates or appends, and any
    ``.write_text``/``.write_bytes`` call but ``data.write_text`` itself."""
    tree = ast.parse(source)
    exempt = {id(n) for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "write_text"
              for n in ast.walk(node)}
    sites = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "open" and _opens_for_writing(node):
            sites.append(f"{name}:{node.lineno}")
        elif (isinstance(f, ast.Attribute) and f.attr in ("write_text", "write_bytes")
              and not (isinstance(f.value, ast.Name) and f.value.id == "data")):
            sites.append(f"{name}:{node.lineno}")
    return sites


def test_package_writes_only_through_write_text():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "data.py" in paths
    sites = [site for path in paths
             for site in write_sites(path.read_text(), str(path.relative_to(PACKAGE)))]
    assert sites == []


def test_scan_finds_each_kind_of_write():
    source = (
        "def write_text(path, text):\n"
        "    open(path, 'w')\n"
        "def save(path, mode):\n"
        "    open(path, 'w')\n"
        "    open(path, mode='a')\n"
        "    open(path, 'x')\n"
        "    open(path, mode)\n"
        "    path.write_text('x')\n"
        "    path.write_bytes(b'x')\n"
        "    open(path)\n"
        "    open(path, 'rb')\n"
        "    data.write_text(path, 'x')\n"
    )
    assert write_sites(source, "m.py") == [f"m.py:{i}" for i in range(4, 10)]
