"""The ``src/`` line counter behind ``make sloc``."""

import textwrap

from benchmarks.sloc import count_lines


def test_code_only_skips_blank_comment_and_docstring_lines():
    source = textwrap.dedent(
        '''\
        """Module docstring,
        two lines."""

        # a comment
        X = 1  # trailing comment


        def f(a,
              b):
            """Function docstring."""
            text = """not a docstring:
            it is assigned"""
            return a + b
        '''
    )
    total, code = count_lines(source)
    assert total == 13
    # X = 1; the two-line def; the two-line string; return.
    assert code == 6


def test_one_line_def_with_docstring_still_counts():
    total, code = count_lines('def f(): """doc"""; return 1\n')
    assert (total, code) == (1, 1)
