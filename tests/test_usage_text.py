"""Doc lints: the usage synopsis in ``qflip.cli``'s docstring and the one in
the README's ``## CLI`` block each name exactly the flags the parser takes,
subcommand by subcommand, so a flag cannot be removed or added while stale
usage text stays behind; and every code name the README cites still names
something in the code.  Standard library only, besides the parser itself.
"""

import argparse
import ast
import re
from itertools import takewhile
from pathlib import Path

import qflip.cli as cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def parser_flags(parser: argparse.ArgumentParser, command: str = "") -> dict[str, set[str]]:
    """Each subcommand ("verify axes", "sweep", ...) and the long flags it
    shows: ``--help`` and flags whose help is suppressed are left out."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                name: flags
                for sub, subparser in action.choices.items()
                for name, flags in parser_flags(subparser, f"{command} {sub}".strip()).items()
            }
    return {
        command: {
            option
            for action in parser._actions
            if action.help is not argparse.SUPPRESS
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
    }


def synopsis_flags(block: str) -> dict[str, set[str]]:
    """Each command of a usage block and the flags its lines name.  A line
    that does not start with ``qflip`` continues the command before it."""
    commands = {}
    for line in block.strip().splitlines():
        words = line.split()
        if words[0] == "qflip":
            command = " ".join(takewhile(lambda word: word[0] not in "-[", words[1:]))
            assert command not in commands, f"{command} is listed twice"
            commands[command] = set()
        commands[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return commands


def test_usage_synopses_list_exactly_the_parsers_flags():
    flags = parser_flags(cli.build_parser())
    docstring = cli.__doc__.split("Subcommands::\n\n", 1)[1].split("\n\n", 1)[0]
    readme = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert synopsis_flags(docstring) == flags
    assert synopsis_flags(readme) == flags


def code_words(root: Path) -> set[str]:
    """Every name the Python files under ``root`` define, assign, import or
    pass (definitions, targets, attributes, arguments, keywords, imported
    modules and aliases), every file stem, and every word of a string
    constant that is not a docstring."""
    words = set()
    for path in root.rglob("*"):
        if "__pycache__" in path.parts:
            continue
        words.add(path.stem)
        if path.suffix != ".py":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                words.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                words.add(node.id)
            elif isinstance(node, ast.Attribute):
                words.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
                words.add(node.arg)
            elif isinstance(node, ast.alias):
                words.update(node.name.split("."), [node.asname])
            elif isinstance(node, ast.ImportFrom) and node.module:
                words.update(node.module.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
                words.update(re.findall(r"\w+", node.value))
    return words


def test_readme_code_names_exist():
    # a backticked identifier with a "_" or a "." is a code name; each of its
    # dotted parts must still be found in the package, the tests or the benchmark
    cited = {
        name
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", README.read_text())
        if "_" in name or "." in name
    }
    known = set().union(*(code_words(ROOT / part) for part in ("src/qflip", "tests", "perfbench")))
    unknown = sorted(name for name in cited if not set(name.split(".")) <= known)
    assert cited and not unknown, f"README cites names the code no longer has: {unknown}"
