"""The README's Python examples run as written, and its command lines and flags exist."""

import argparse
import pathlib
import re
import shlex

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def _prose_and_commands():
    """The README without its fenced blocks, and the argv of each ``specshrink`` line
    in its ``sh`` blocks (continuation lines joined)."""
    text = README.read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("specshrink "):
                commands.append(shlex.split(line)[1:])
    return re.sub(r"^```.*?^```", "", text, flags=re.M | re.S), commands


def test_readme_command_lines_parse():
    from specshrink.cli import build_parser

    _, commands = _prose_and_commands()
    assert len(commands) >= 6
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: specshrink {' '.join(argv)}")


def test_readme_names_only_existing_flags():
    from specshrink.cli import build_parser

    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    options = {flag for sub in subcommands.values() for action in sub._actions
               for flag in action.option_strings}
    prose, _ = _prose_and_commands()
    # inline spans that name a flag, alone or after a subcommand (not `pip install ...`)
    spans = [span for span in re.findall(r"`([^`\n]+)`", prose)
             if span.startswith("--") or span.split()[0] in subcommands]
    named = {flag for span in spans for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", span)}
    assert named and named <= options, sorted(named - options)
