"""The text ``wordstats`` writes for ``-h`` and before a usage error.

It is the text Python 3.11's ``ArgumentParser`` writes for the same
parsers in an 80-column terminal, on every Python and in any terminal.
``cli`` reads an argv with its own parsers, ``cli._Reader``s, and loads
this module only to write help or a usage error, which a valid argv
never does.

A usage is ``usage: `` and the parser's name, then its options, then its
positionals.  An optional argument is one part, ``[--flag VALUE]``, and a
required flag and its value are two; a value is shown as its choices, or
as its dest in capitals.  If the whole passes ``WIDTH`` columns, it breaks
before the part that would pass them, and the positionals start a line of
their own; every line after the first lines up with the first option.
That is ``ArgumentParser``'s layout for a name of up to 51 columns, as
every ``wordstats`` parser's is.
"""

from __future__ import annotations

import textwrap

from .cli import _ASK_HELP

WIDTH = 78  # ``ArgumentParser``'s text width in an 80-column terminal
HELP_AT = 24  # the column an argument's help starts at, at most
PREFIX = "usage: "


def _metavar(option) -> str:
    """What stands for an argument's value: its choices, else its dest in capitals."""
    return "{" + ",".join(map(str, option.choices)) + "}" if option.choices is not None else option.dest.upper()


def _lines(parts: list[str], indent: str, first: int | None = None) -> list[str]:
    """``parts`` in lines of at most ``WIDTH`` columns after ``indent``.

    With ``first``, the first line holds that many columns before its parts instead, and no indent.
    """
    lines, line = [], []
    length = (len(indent) if first is None else first) - 1
    for part in parts:
        if length + 1 + len(part) > WIDTH and line:
            lines.append(indent + " ".join(line))
            line, length = [], len(indent) - 1
        line.append(part)
        length += len(part) + 1
    if line:
        lines.append(indent + " ".join(line))
    if first is not None:
        lines[0] = lines[0][len(indent):]
    return lines


def line(reader) -> str:
    """``reader``'s usage, ending in a newline."""
    optional, positional = [], []
    for option in reader.arguments:
        if option.flag[0] != "-":
            positional += [_metavar(option), "..."] if reader.children is not None else [_metavar(option)]
        elif not option.takes_value:
            optional.append(f"[{option.flag}]")
        elif option.required:
            optional += [option.flag, _metavar(option)]
        else:
            optional.append(f"[{option.flag} {_metavar(option)}]")
    text = " ".join([reader.prog, *optional, *positional])
    if len(PREFIX + text) > WIDTH:
        indent = " " * len(f"{PREFIX}{reader.prog} ")
        text = "\n".join(_lines([reader.prog, *optional], indent, len(PREFIX)) + _lines(positional, indent))
    return f"{PREFIX}{text}\n"


def _invocation(option) -> str:
    if option is _ASK_HELP:
        return "-h, --help"
    if option.flag[0] != "-":
        return _metavar(option)
    return f"{option.flag} {_metavar(option)}" if option.takes_value else option.flag


def help(reader) -> str:
    """``reader``'s ``-h`` text: its usage and description, then each argument with its help.

    An argument's help starts at column ``HELP_AT``, or four columns after
    the longest invocation if that is nearer, on the argument's own line if
    the invocation leaves room for it, and is wrapped by ``textwrap``.  Each
    child with a summary is listed under the positional that names it.
    """
    positional = [(_invocation(option), None, 2) for option in reader.positionals]
    positional += [(name, child.summary, 4) for name, child in (reader.children or {}).items() if child.summary]
    optional = [(_invocation(option), option.help, 2) for option in reader.arguments if option.flag[0] == "-"]
    at = min(max(len(text) for text, _, _ in positional + optional) + 4, HELP_AT)

    def entry(text: str, help: str | None, indent: int) -> str:
        if not help:
            return f"{' ' * indent}{text}\n"
        width = at - indent - 2
        head = f"{' ' * indent}{text:<{width}}  " if len(text) <= width else f"{' ' * indent}{text}\n{' ' * at}"
        return head + f"\n{' ' * at}".join(textwrap.wrap(" ".join(help.split()), WIDTH - at)) + "\n"

    text = line(reader) + "\n"
    if reader.description:
        text += textwrap.fill(" ".join(reader.description.split()), WIDTH) + "\n\n"
    if positional:
        text += "positional arguments:\n" + "".join(entry(*row) for row in positional) + "\n"
    return text + "options:\n" + "".join(entry(*row) for row in optional)
