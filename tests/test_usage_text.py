"""Doc lint: the usage synopsis in ``qflip.cli``'s docstring and the one in
the README's ``## CLI`` block each name exactly the flags the parser takes,
subcommand by subcommand, so a flag cannot be removed or added while stale
usage text stays behind.  Standard library only, besides the parser itself.
"""

import argparse
import re
from itertools import takewhile
from pathlib import Path

import qflip.cli as cli

README = Path(__file__).resolve().parent.parent / "README.md"


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
