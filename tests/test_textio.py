import pytest

from fraudring.textio import raise_first

# file lines 2, 4 and 8 are blank or whitespace-only
TEXT = "header\n\nr0\n \t\nr1\nr2\nr3\n\nr4\n"


class LoaderError(ValueError):
    pass


@pytest.mark.parametrize("first, row, line", [(0, 0, 1), (0, 1, 3), (1, 0, 3), (1, 1, 5), (1, 3, 7), (1, 4, 9)])
def test_raise_first_counts_nonblank_lines_from_first(tmp_path, first, row, line):
    path = tmp_path / "rows.tsv"
    path.write_text(TEXT, encoding="utf-8")
    with pytest.raises(LoaderError) as err:
        raise_first(str(path), [(row + 1, 0, "later row"), (row, 2, "bad value")], LoaderError, first)
    assert str(err.value) == f"{path}:{line}: bad value"


def test_raise_first_takes_the_lower_precedence_at_one_row(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text(TEXT, encoding="utf-8")
    errors = [(3, 4, "non-finite value"), (2, 5, "duplicate row"), (3, 0, "field count"), (2, 3, "non-numeric value")]
    with pytest.raises(LoaderError) as err:
        raise_first(str(path), errors, LoaderError, 1)
    assert str(err.value) == f"{path}:6: non-numeric value"


def test_raise_first_without_errors_returns(tmp_path):
    path = tmp_path / "rows.tsv"
    path.write_text(TEXT, encoding="utf-8")
    assert raise_first(str(path), [], LoaderError, 1) is None
