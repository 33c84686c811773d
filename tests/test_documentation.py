"""Documentation hygiene: every public module/class/function is documented,
and every documented command line still parses.

A reproduction is only adoptable if its public surface is explained; this
test walks the package and fails on any public item without a docstring.
"""

import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]

IGNORED_MODULES = {"repro.__main__"}


def _public_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in IGNORED_MODULES:
            continue
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        out.append(importlib.import_module(info.name))
    return out


def test_every_module_has_a_docstring():
    missing = [m.__name__ for m in _public_modules() if not m.__doc__]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_is_documented():
    missing = []
    for module in _public_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not inspect.getdoc(obj):
                missing.append(f"{module.__name__}.{name}")
            elif inspect.isclass(obj):
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_") or not inspect.isfunction(attr):
                        continue
                    if not inspect.getdoc(attr):
                        missing.append(f"{module.__name__}.{name}.{attr_name}")
    assert not missing, "undocumented public items:\n  " + "\n  ".join(missing)


def test_package_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"__all__ lists missing attribute {name}"


#: the documents whose fenced code blocks hold ``python -m repro`` lines:
#: the three guides and the verification recipes checked into the repo
CLI_DOCS = [ROOT / name for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md")]
CLI_DOCS += sorted(ROOT.glob(".*/skills/*/SKILL.md"))


def _documented_command_lines():
    for path in CLI_DOCS:
        text = path.read_text(encoding="utf-8")
        doc = path.relative_to(ROOT)
        for block in re.findall(r"^ *```[^\n]*\n(.*?)^ *```", text, re.M | re.S):
            for line in block.replace("\\\n", " ").splitlines():
                _, found, command = line.partition("python -m repro")
                command = re.sub(r"(^|\s)#.*", "", command).strip()
                if found and not command.startswith("<command>"):
                    # (DESIGN.md's module map names the placeholder)
                    yield pytest.param(command, id=f"{doc}: {command}")


def _without_redirections(words):
    """The arguments before a pipe or an output redirection."""
    for index, word in enumerate(words):
        if word == "|" or re.match(r"\d*>", word):
            return words[:index]
    return words


@pytest.mark.parametrize("command", _documented_command_lines())
def test_documented_command_lines_parse(command):
    build_parser().parse_args(_without_redirections(shlex.split(command)))


def _resolve(dotted):
    """Import the longest module prefix of ``dotted``, then walk the rest
    as attributes (lazy exports included)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        try:
            found = importlib.import_module(name)
        except ModuleNotFoundError as exc:
            if exc.name != name:
                raise
            continue
        for attr in parts[cut:]:
            found = getattr(found, attr)
        return found


@pytest.mark.parametrize("path", CLI_DOCS, ids=lambda p: str(p.relative_to(ROOT)))
def test_documented_names_and_paths_resolve(path):
    """A guide cannot name code that is gone: every dotted ``repro.*`` name
    must import or resolve as an attribute, and every ``*.py`` path must
    match a file in the tree (paths may be relative to any directory)."""
    text = path.read_text(encoding="utf-8")
    missing = []
    for dotted in sorted(set(re.findall(r"\brepro(?:\.[A-Za-z_]\w*)+", text))):
        try:
            _resolve(dotted)
        except (ImportError, AttributeError):
            missing.append(dotted)
    for name in sorted(set(re.findall(r"[\w./-]*\w\.py\b", text))):
        if not any(ROOT.glob(f"**/{name.lstrip('./')}")):
            missing.append(name)
    assert not missing, f"names nothing in the tree resolves: {missing}"
