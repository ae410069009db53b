"""The README's examples and names, checked against the package.

Every `$ torbif ...` example under "Command line" must print its listed
output byte for byte, the "Library" code block must print the values in
its `#` comments, and every backticked call or library name in the
"Library" section must be an attribute of `torbif`.
"""

import re
import shlex
from pathlib import Path

import torbif
from torbif import BifurcationLevel, Certificate, Classification, ElementParseError, parse_element
from torbif.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    """Text of the `## title` section, up to the next `## ` heading."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start : end if end != -1 else len(README)]


def code_blocks(text):
    return re.findall(r"^```[a-z]*\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)


def cli_examples():
    """(argv, expected stdout) for each `$ torbif` line, in README order."""
    examples = []
    for block in code_blocks(section("Command line")):
        for line in block.splitlines():
            if line.startswith("$ torbif "):
                examples.append((shlex.split(line)[2:], []))
            elif examples:
                examples[-1][1].append(line)
    return [(argv, "".join(f"{line}\n" for line in out)) for argv, out in examples]


def test_command_line_examples_print_their_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    examples = cli_examples()
    assert [argv[0] for argv, _ in examples] == ["example", "levels", "index", "classify", "star"]
    for argv, expected in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out == expected, argv


def test_library_block_prints_its_comments(capsys):
    (block,) = code_blocks(section("Library"))
    expected = [line.split("# ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def is_element(text):
    try:
        parse_element(text)
    except ElementParseError:
        return False
    return True


def other_words(calls):
    """Words in "Library" that name something other than a library
    attribute: the strings the package prints (certificates,
    classifications and their tags), the attributes of a level, the
    parameters written in the section's calls, and the commands of the
    "Command line" examples."""
    words = {argv[0] for argv, _ in cli_examples()}
    words.update(name for name in dir(BifurcationLevel(1, 1)) if not name.startswith("_"))
    for enum in (Certificate, Classification):
        for member in enum:
            words.add(member.value)
            words.update(re.findall(r"\((\w+)\)", member.value))
    for _, args in calls:
        words.update(arg.strip() for arg in args.split(","))
    return words


def test_library_names_are_package_attributes():
    spans = re.findall(r"`([^`\n]+)`", section("Library"))
    calls = [m.groups() for span in spans if (m := re.fullmatch(r"(\w+)\((.*)\)", span))]
    names = [span for span in spans if re.fullmatch(r"\w+", span)]
    assert calls and names
    other = other_words(calls)
    missing = [name for name, _ in calls if not hasattr(torbif, name)]
    missing += [name for name in names if not (hasattr(torbif, name) or name in other or is_element(name))]
    assert missing == []
