from code_lines import code_lines, main

SAMPLE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Thing:
    """A class docstring."""

    def method(self):
        """A method docstring.

        Its blank line and its closing quotes are docstring lines too.
        """
        text = """a string that is
not a docstring"""
        return text


async def job():
    """One line."""
    "a second string expression is code"
    pass
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class, def, text = (two lines), return, async def, the string expression, pass
    assert code_lines(SAMPLE) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n') == 0


def test_the_counter_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SAMPLE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    assert main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["a.py", "1"], ["b.py", "9"], ["total", "10"]]
