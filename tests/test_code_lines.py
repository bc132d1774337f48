"""The code-line rule that ``code_lines.py`` counts by."""

from code_lines import count_code_lines

FIXTURE = '''"""A module docstring
over two lines."""

# a comment line
total = (1 +
         2)
text = """a string that is not a docstring
spans two lines"""


def f():
    """A function docstring."""

    return [total,  # a comment after code
            text]
'''


def test_a_line_counts_when_it_holds_a_token_outside_a_docstring():
    # total = (1 +, 2), text = ..., spans two lines, def f():, return [...,
    # text]: the docstrings, the comment line and the blank lines do not
    # count
    assert count_code_lines(FIXTURE) == 7
